//! # lclog-simnet
//!
//! An in-memory simulated cluster fabric standing in for the paper's
//! testbed network (100 Mb Ethernet between 4–32 PCs).
//!
//! Guarantees and failure model:
//!
//! * **Per-pair FIFO**: messages from `src` to `dst` arrive in send
//!   order, like a TCP byte stream under MPICH. Messages from
//!   *different* senders may interleave arbitrarily — and under the
//!   [`DeliveryModel::Delayed`] latency model they are actively
//!   reordered with seeded jitter, which is exactly the
//!   non-determinism the paper's protocols must tolerate.
//! * **Reliable between live endpoints**: a message sent while the
//!   destination's current incarnation stays alive is delivered —
//!   unless a [`ChaosConfig`] is installed, in which case the fabric
//!   turns adversarial: seeded per-link drop / duplicate / bit-flip
//!   corruption, transient partitions, and heavy-tailed delays, all
//!   replayable under the same seed. The reliability layer above the
//!   fabric (in `lclog-runtime`) is responsible for masking these.
//! * **Time is a release schedule, not a thread**: on a timed fabric
//!   (a latency model, or chaos delays) `send` stamps each envelope
//!   with a release time on the fabric's [`Clock`], and every `send`,
//!   `try_recv` and `recv_timeout` first releases what is due. Built
//!   with [`SimNet::with_clock`] over a [`SimClock`], latency and
//!   chaos delays are as deterministic as the scheduler advancing the
//!   clock.
//! * **Crash = lost volatile state**: [`SimNet::kill`] drops the
//!   endpoint, its queued messages, and everything in flight towards
//!   it, scheduled or held. A later [`SimNet::respawn`] creates a
//!   fresh incarnation with an empty inbox — message logs and
//!   checkpoints live in other crates, never in the fabric.
//!
//! The fabric does not interpret payloads; the rollback-recovery layer
//! encodes its own headers inside [`Envelope::payload`].
//!
//! ## Example
//!
//! ```
//! use lclog_simnet::{NetConfig, SimNet};
//! use bytes::Bytes;
//! use std::time::Duration;
//!
//! let net = SimNet::new(2, NetConfig::direct());
//! let ep0 = net.attach(0);
//! let ep1 = net.attach(1);
//! net.send(0, 1, Bytes::from_static(b"hi")).unwrap();
//! let env = ep1.recv_timeout(Duration::from_secs(1)).unwrap();
//! assert_eq!(env.src, 0);
//! assert_eq!(&env.payload[..], b"hi");
//! drop(ep0);
//! ```

#![warn(missing_docs)]

mod chaos;
mod clock;
mod config;
mod envelope;
mod net;
mod schedule;
mod stats;

pub use chaos::{ChaosConfig, OutageWindow, Partition, StorageChaos, StorageFate};
pub use clock::{Clock, SimClock};
pub use config::{DeliveryModel, NetConfig};
pub use envelope::Envelope;
pub use net::{Endpoint, RecvError, SendError, SimNet};
pub use stats::NetStats;

/// Identifier of a simulated process (0-based, dense).
pub type Rank = usize;
