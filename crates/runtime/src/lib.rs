//! # lclog-runtime
//!
//! An MPI-like rank runtime with rollback-recovery fault tolerance —
//! the reproduction's stand-in for MPICH + the paper's WINDAR toolkit.
//!
//! Each rank of a parallel application runs against a
//! [`lclog_simnet::SimNet`] fabric, in rounds on the run's virtual
//! clock. Between the application and the
//! fabric sits the rollback-recovery layer of the paper's Algorithm 1:
//!
//! * **sender-based message logging** — every sent payload, together
//!   with its protocol piggyback, is retained in the sender's volatile
//!   [`SenderLog`] until the receiver's checkpoint covers it
//!   (`CHECKPOINT_ADVANCE` garbage collection);
//! * **independent checkpointing** — each rank serializes application
//!   state, protocol state, counters, and its log to stable storage on
//!   its own schedule;
//! * **failure and recovery** — a killed rank loses everything
//!   volatile; its incarnation restores the last checkpoint, sends each
//!   peer j a `ROLLBACK` carrying `last_deliver_index[j]`, and rolls
//!   forward from survivors' log resends while regenerating its own sends (suppressed or
//!   discarded as repetitive exactly as §III.C.3 describes);
//! * **pluggable dependency tracking** — the
//!   [`lclog_core::LoggingProtocol`] instance (TDI, TAG or TEL) decides
//!   what is piggybacked and when queued messages may be delivered.
//!
//! Fig. 4's two communication modes are comm models on that clock.
//! Both ingest a rank's inbox at the sweep, while its step is pending
//! inside a runtime call:
//!
//! * [`CommMode::Blocking`] (Fig. 4a) — a send above the eager
//!   threshold waits for the receiver's ingestion ack (a rendezvous),
//!   so a failed receiver stalls its senders;
//! * [`CommMode::NonBlocking`] (Fig. 4b) — sends return at once.
//!
//! One driver runs every rank: [`TaskJob`] / [`run_tasks`] poll
//! [`TaskApp`] state machines from one thread, and [`Cluster::run`]
//! runs a [`RankApp`], whose `async` step is such a state machine.
//! One incarnation lifecycle ([`RunEnv`]: open storage, boot, lose,
//! respawn, report) serves it, every round ends the same way (event
//! logger, replicator, held frames, clock, watchdog), failures come
//! from a [`FailurePlan`], and a run returns a [`RunReport`] of
//! per-rank digests and tracking statistics that repeats exactly from
//! its config.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
mod cluster;
pub mod collectives;
mod config;
mod delivery;
mod env;
pub mod events;
mod fault;
mod kernel;
mod log;
mod message;
mod process;
mod recovery;
mod recvq;
pub mod replicator;
mod service;
mod tasks;
mod tracking;
mod transport;

pub use cluster::{Cluster, ClusterConfig, FailurePlan, Kill, RunReport, StorageKind};
pub use lclog_simnet::Clock;
pub use events::{Event, EventKind, EventSink};
pub use config::{CheckpointPolicy, CommMode, EngineMode, RunConfig};
pub use fault::{Fault, StepStatus};
pub use kernel::{CheckpointImage, Kernel, KernelSnapshot};
pub use recovery::RecoveryPhase;
pub use log::{LogEntry, SenderLog};
pub use message::{
    AppMsg, AppWire, CkptAdvanceWire, RecvSpec, ResponseWire, RollbackWire, WireMsg, ANY_SOURCE,
    ANY_TAG,
};
pub use process::{RankApp, RankCtx};
pub use env::{Death, RunEnv};
pub use kernel::RETRY_INTERVAL;
pub use tasks::{run_tasks, TaskApp, TaskCtx, TaskJob, TaskPoll};
pub use recvq::{Pending, RecvQueue};
pub use replicator::{Replicator, ReplicatorStats};
pub use transport::{payload_is_app_frame, DataPlaneStats};

/// Rank identifier (re-exported from the protocol layer).
pub use lclog_core::Rank;

/// The fabric rank used by the TEL event-logger service: always
/// allocated as slot `n` of an `n`-process application.
pub fn logger_rank(n: usize) -> Rank {
    n
}
