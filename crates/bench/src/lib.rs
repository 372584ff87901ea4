//! # lclog-bench
//!
//! The experiment harness behind the `reproduce` binary. Its
//! [`registry`] holds two kinds of table:
//!
//! * two of the paper's figures (§IV), printed and archived but not
//!   compared: [`experiments::fig6_table`] (average piggyback amount
//!   per message, 3 protocols × {LU, BT, SP} × {4, 8, 16, 32}
//!   processes) and [`experiments::fig7_table`] (dependency-tracking
//!   time, same matrix);
//! * golden tables, whose every cell replays byte for byte and is
//!   compared with the committed `results/<csv>.csv` by the test suite:
//!   Fig. 8 ([`experiments::fig8_table`], accomplishment time on the
//!   run's virtual clock with a mid-run failure, blocking (Fig. 4a) vs
//!   non-blocking (Fig. 4b) communication), schedule exploration
//!   (EXP1), digest parity through a kill (HP1), piggyback scaling to
//!   n = 512 (SC1) and log shipping under backend outages (LS1).
//!
//! Run everything with `cargo run -p lclog-bench --bin reproduce
//! --release`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod experiments;
pub mod registry;
pub mod table;

pub use registry::{Sweep, EXPERIMENTS};
pub use table::Table;
