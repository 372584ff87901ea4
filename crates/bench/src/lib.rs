//! # lclog-bench
//!
//! The experiment harness that regenerates every figure of the
//! paper's evaluation (§IV) plus two ablations:
//!
//! * [`experiments::fig6_table`] — average piggyback amount per
//!   message (identifier count), 3 protocols × {LU, BT, SP} ×
//!   {4, 8, 16, 32} processes;
//! * [`experiments::fig7_table`] — dependency-tracking time overhead,
//!   same matrix;
//! * [`experiments::fig8_table`] — normalized accomplishment time with
//!   a mid-run failure, blocking (Fig. 4a) vs non-blocking (Fig. 4b)
//!   communication;
//! * [`experiments::ablation_rate`] — piggyback growth vs message
//!   count (TDI flat at `n`, TAG full-history growth, TEL
//!   stabilization plateau);
//! * [`experiments::ablation_replay`] — rolling-forward time under an
//!   adversarially reordering fabric (TDI's relaxed delivery vs PWD
//!   replay).
//!
//! Run everything with `cargo run -p lclog-bench --bin reproduce
//! --release`.

#![warn(missing_docs)]

pub mod apps;
pub mod experiments;
pub mod table;

pub use table::Table;
