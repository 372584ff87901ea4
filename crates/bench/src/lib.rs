//! # lclog-bench
//!
//! The experiment harness behind the `reproduce` binary. Its
//! [`registry`] holds two kinds of table:
//!
//! * the paper's figures (§IV), printed and archived but not compared:
//!   [`experiments::fig6_table`] (average piggyback amount per message,
//!   3 protocols × {LU, BT, SP} × {4, 8, 16, 32} processes),
//!   [`experiments::fig7_table`] (dependency-tracking time, same
//!   matrix) and [`experiments::fig8_table`] (accomplishment time with a
//!   mid-run failure, blocking (Fig. 4a) vs non-blocking (Fig. 4b)
//!   communication);
//! * golden tables, whose every cell replays byte for byte and is
//!   compared with the committed `results/<csv>.csv` by the test suite:
//!   schedule exploration (EXP1), digest parity through a kill (HP1),
//!   piggyback scaling to n = 128 (SC1), log shipping under backend
//!   outages (LS1), the multi-tenant service (SV1) and the chaos fabric
//!   (ABL6).
//!
//! Run everything with `cargo run -p lclog-bench --bin reproduce
//! --release`.

#![warn(missing_docs)]

pub mod apps;
pub mod experiments;
pub mod registry;
pub mod table;

pub use registry::{Sweep, EXPERIMENTS};
pub use table::Table;
