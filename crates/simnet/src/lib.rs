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
//!   destination's current incarnation stays alive is delivered exactly
//!   once, uncorrupted — the channels the paper's MPICH-over-TCP
//!   testbed gives Algorithm 1, so nothing above the fabric checksums,
//!   sequences or acknowledges frames. FIFO holds per slot pair, across
//!   a sender's incarnations too: whatever a dead incarnation left in
//!   flight reaches each peer before anything its successor sends.
//!   The one network fault is a **stall**: a [`ChaosConfig`] holds
//!   seeded envelopes back for a heavy-tailed delay, and per-pair FIFO
//!   holds their links with them, so a stalled message arrives late
//!   but intact and in order.
//! * **Time is a release schedule, not a thread**: on a timed fabric
//!   (a latency model, or chaos stalls) `send` stamps each envelope
//!   with its send time on the fabric's [`Clock`], and every
//!   [`Endpoint::try_recv`] first gives what was sent its release time
//!   and releases what is due. Built with [`SimNet::with_clock`] over a
//!   [`SimClock`], latency and stalls are as deterministic as the
//!   scheduler advancing the clock.
//! * **One thread, no locks**: a fabric and its endpoints share one
//!   `Rc<RefCell<…>>` of plain data (slots, per-pair sequence numbers,
//!   what is in flight, counters), borrowed once per call. The types
//!   are neither `Send` nor `Sync`, so the thread that builds a run's
//!   fabric is the only one that can drive it.
//! * **No blocking reader**: an endpoint's inbox is a plain queue;
//!   [`Endpoint::try_recv`] is the only way to read it.
//! * **Crash = lost volatile state**: [`SimNet::kill`] drops the
//!   endpoint, its queued messages, and everything in flight towards
//!   it, scheduled or held. A later [`SimNet::respawn`] creates a
//!   fresh incarnation with an empty inbox — message logs and
//!   checkpoints live in other crates, never in the fabric.
//! * **Storage faults**: [`StorageChaos`] drives the remote object
//!   store of `lclog-stable` — transient errors, outages, torn and
//!   bit-flipped objects.
//!
//! The fabric does not interpret frames; the rollback-recovery layer
//! encodes its own headers inside [`Envelope::head`], and may share an
//! application buffer as [`Envelope::body`] ([`SimNet::send_split`]).
//!
//! ## Example
//!
//! ```
//! use lclog_simnet::{NetConfig, SimNet};
//! use bytes::Bytes;
//!
//! let net = SimNet::new(2, NetConfig::direct());
//! let ep0 = net.attach(0);
//! let ep1 = net.attach(1);
//! net.send(0, 1, Bytes::from_static(b"hi")).unwrap();
//! let env = ep1.try_recv().unwrap();
//! assert_eq!(env.src, 0);
//! assert_eq!(&env.head[..], b"hi");
//! drop(ep0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod clock;
mod config;
mod envelope;
mod net;
mod schedule;
mod stats;

pub use chaos::{ChaosConfig, OutageWindow, StorageChaos, StorageFate};
pub use clock::{Clock, SimClock};
pub use config::{DeliveryModel, NetConfig};
pub use envelope::Envelope;
pub use net::{Endpoint, RecvError, SendError, SimNet};
pub use stats::NetStats;

/// Identifier of a simulated process (0-based, dense).
pub type Rank = usize;
