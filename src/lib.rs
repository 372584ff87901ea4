//! # lclog — lightweight causal message logging
//!
//! A full reproduction of *"A Lightweight Causal Message Logging
//! Protocol to Lower Fault Tolerance Overhead"* (Yang, CLUSTER 2016)
//! as a Rust workspace: the paper's TDI protocol, the TAG and TEL
//! baselines it compares against, an MPI-like rollback-recovery
//! runtime over a simulated cluster fabric, and NPB2.3-style LU/BT/SP
//! workloads.
//!
//! This facade crate re-exports the public API of every workspace
//! member. Start with [`Cluster::run`] and the [`RankApp`] trait:
//!
//! ```
//! use lclog::prelude::*;
//!
//! // Run the LU kernel on 4 ranks under TDI with one injected crash.
//! let cfg = ClusterConfig::new(4, RunConfig::new(ProtocolKind::Tdi))
//!     .with_failures(FailurePlan::kill_at(1, 9));
//! let report = lclog::npb::run_benchmark(
//!     lclog::npb::Benchmark::Lu,
//!     lclog::npb::Class::Test,
//!     &cfg,
//! )
//! .unwrap();
//! assert_eq!(report.kills, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lclog_core as core;
pub use lclog_npb as npb;
pub use lclog_runtime as runtime;
pub use lclog_simnet as simnet;
pub use lclog_stable as stable;
pub use lclog_wire as wire;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use lclog_core::{
        DeliveryVerdict, Determinant, LoggingProtocol, ProtocolKind, Rank, TrackingStats,
    };
    pub use lclog_runtime::{
        collectives, CheckpointPolicy, Cluster, ClusterConfig, CommMode, Event, EventKind,
        FailurePlan, Fault, RankApp, RankCtx, RecvSpec, ReplicatorStats, RunConfig, RunReport,
        StepStatus, StorageKind,
    };
    pub use lclog_simnet::{ChaosConfig, NetConfig, Partition, SimNet, StorageChaos};
    pub use lclog_stable::{
        FaultyRemote, Manifest, ManifestEntry, MemRemote, RemoteStore, MANIFEST_KEY,
    };
    pub use lclog_wire::{decode_from_slice, encode_to_vec, impl_wire_struct};
}

pub use prelude::{Cluster, ClusterConfig, FailurePlan, ProtocolKind, RankApp, RunConfig};
