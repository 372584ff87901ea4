//! # lclog-runtime
//!
//! An MPI-like rank runtime with rollback-recovery fault tolerance —
//! the reproduction's stand-in for MPICH + the paper's WINDAR toolkit.
//!
//! Each rank of a parallel application runs as an OS thread against a
//! [`lclog_simnet::SimNet`] fabric. Between the application and the
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
//!   volatile; its incarnation restores the last checkpoint, broadcasts
//!   `ROLLBACK(last_deliver_index)`, and rolls forward from survivors'
//!   log resends while regenerating its own sends (suppressed or
//!   discarded as repetitive exactly as §III.C.3 describes);
//! * **pluggable dependency tracking** — the
//!   [`lclog_core::LoggingProtocol`] instance (TDI, TAG or TEL) decides
//!   what is piggybacked and when queued messages may be delivered.
//!
//! Two communication engines reproduce Fig. 4:
//!
//! * [`CommMode::Blocking`] (Fig. 4a) — the application thread itself
//!   performs sends (waiting for the receiver's acknowledgement beyond
//!   the eager threshold) and only services incoming traffic when it
//!   enters a runtime call, so one process's failure stalls its peers;
//! * [`CommMode::NonBlocking`] (Fig. 4b) — a dedicated communication
//!   thread drains both buffer queues, so computation, sending and
//!   receiving proceed concurrently and recovery traffic is serviced
//!   immediately.
//!
//! One incarnation lifecycle ([`RunEnv`]: open storage, boot, lose,
//! respawn, report) runs under every engine. [`Cluster`] schedules it
//! on one OS thread per rank beside the TEL event-logger service,
//! [`TaskJob`] / [`run_tasks`] cooperatively, one thread per job;
//! both inject failures from a [`FailurePlan`] and return a
//! [`RunReport`] of per-rank digests and tracking statistics.

#![warn(missing_docs)]

pub mod backoff;
mod cluster;
pub mod collectives;
mod config;
mod delivery;
mod detector;
mod engine;
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

pub use cluster::{
    Cluster, ClusterConfig, DetectorReport, FailurePlan, Kill, RemoteConfig, RunReport,
    StorageKind,
};
pub use lclog_simnet::Clock;
pub use events::{Event, EventKind, EventSink};
pub use config::{CheckpointPolicy, CommMode, EngineMode, RunConfig};
pub use detector::DetectorConfig;
pub use fault::{Fault, StepStatus};
pub use kernel::{CheckpointImage, Kernel, KernelSnapshot};
pub use recovery::RecoveryPhase;
pub use log::{LogEntry, SenderLog};
pub use message::{
    AppMsg, AppWire, CkptAdvanceWire, RecvSpec, ResponseWire, RollbackWire, SuspectWire, WireMsg,
    ANY_SOURCE, ANY_TAG,
};
pub use process::{RankApp, RankCtx};
pub use env::{Death, RunEnv, TasksEnv};
pub use kernel::RETRY_INTERVAL;
pub use tasks::{run_tasks, BlockingTaskApp, TaskApp, TaskCtx, TaskJob, TaskPoll};
pub use recvq::{Pending, RecvQueue};
pub use replicator::{Replicator, ReplicatorConfig, ReplicatorStats};
pub use transport::{payload_is_app_frame, payload_is_data_frame, DataPlaneStats};

/// Rank identifier (re-exported from the protocol layer).
pub use lclog_core::Rank;

/// Certified membership view (re-exported from the protocol layer).
pub use lclog_core::MembershipView;

/// The fabric rank used by the TEL event-logger service: always
/// allocated as slot `n` of an `n`-process application.
pub fn logger_rank(n: usize) -> Rank {
    n
}
