//! # lclog-core
//!
//! Causal message-logging protocols for rollback-recovery fault
//! tolerance, reproducing *"A Lightweight Causal Message Logging
//! Protocol to Lower Fault Tolerance Overhead"* (Yang, CLUSTER 2016).
//!
//! Three dependency-tracking protocols share one interface,
//! [`LoggingProtocol`]:
//!
//! * [`Tdi`] — **T**racking by **D**ependent **I**nterval, the paper's
//!   contribution. Piggybacks a single `n`-element vector of delivered
//!   message counts; recovery may deliver logged messages in *any*
//!   order satisfying the per-sender FIFO and the dependent-interval
//!   gate (`depend_interval[i]` of the message ≤ messages the
//!   recovering process has delivered).
//! * [`Tag`] — **T**racking by **A**ntecedence **G**raph, the
//!   Manetho/LogOn-style baseline \[6,7\]. Piggybacks the incremental
//!   part of a graph of per-delivery determinants and replays
//!   deliveries in exactly their original order (PWD).
//! * [`Tel`] — **T**racking with **E**vent **L**ogger, the
//!   Bouteiller-style baseline \[5\]. Determinants are piggybacked
//!   causally only until a stable event-logger service acknowledges
//!   them; recovery is PWD replay from logger + survivor knowledge.
//!
//! The split of responsibilities with `lclog-runtime` mirrors the
//! paper's Algorithm 1: the *runtime* owns everything common to all
//! three protocols — sender-based payload logging,
//! `last_send_index`/`last_deliver_index` counters, per-sender FIFO
//! delivery, checkpointing, `ROLLBACK`/`RESPONSE`, duplicate
//! suppression, log GC — while the *protocol* owns dependency
//! tracking: what to piggyback on a send, whether a queued message may
//! be delivered yet, and what recovery-order information survivors
//! contribute.
//!
//! ## Example: the Fig. 1 dependency chain under TDI
//!
//! ```
//! use lclog_core::{make_protocol, DeliveryVerdict, ProtocolKind};
//!
//! let n = 4;
//! let mut p1 = make_protocol(ProtocolKind::Tdi, 1, n); // process P1
//! let mut p2 = make_protocol(ProtocolKind::Tdi, 2, n); // process P2
//!
//! // P2 delivers a message from P1 carrying P1's dependency vector,
//! // then sends m5 back; m5's piggyback records that it depends on
//! // one delivery at P2.
//! let m3 = p1.on_send(2, 1);
//! assert_eq!(m3.id_count, n as u64); // TDI: one vector of n counters
//! assert!(matches!(p2.deliverable(1, 1, &m3.piggyback), DeliveryVerdict::Deliver));
//! p2.on_deliver(1, 1, &m3.piggyback).unwrap();
//! let m5 = p2.on_send(1, 1);
//! // P1 has delivered nothing yet, but m5 depends on 0 deliveries at
//! // P1, so it is deliverable immediately.
//! assert!(matches!(p1.deliverable(2, 1, &m5.piggyback), DeliveryVerdict::Deliver));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conformance;
mod protocol;
mod replay;
mod stats;
mod pessim;
mod sparse;
mod tag;
mod tagf;
mod tdi;
mod tel;
mod types;
mod vectors;

pub use protocol::{make_protocol, DeliveryVerdict, LoggingProtocol, SendArtifacts};
pub use replay::ReplayScript;
pub use stats::{FrameStats, TrackingStats};
pub use pessim::Pessim;
pub use sparse::SparseTdi;
pub use tag::Tag;
pub use tagf::TagF;
pub use tdi::Tdi;
pub use tel::Tel;
pub use types::{Determinant, ProtocolError, ProtocolKind, Rank};
pub use vectors::{CounterVector, DependVector};
