use lclog_core::ProtocolKind;
use lclog_simnet::Clock;

/// Which Fig. 4 communication architecture a rank uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommMode {
    /// Fig. 4a: sends larger than `eager_threshold` bytes wait for the
    /// receiver's runtime to acknowledge ingestion (a rendezvous, like
    /// MPICH's synchronous path when buffering is exhausted).
    Blocking {
        /// Payloads at or below this size are sent eagerly (no
        /// acknowledgement wait). The paper observes big BT messages
        /// block longest; this knob reproduces that.
        eager_threshold: usize,
    },
    /// Fig. 4b: buffered queues; application sends return immediately.
    NonBlocking,
}

impl CommMode {
    /// Blocking mode with a 4 KiB eager threshold.
    pub fn blocking_default() -> Self {
        CommMode::Blocking {
            eager_threshold: 4 * 1024,
        }
    }
}

/// Inert: nothing reads it. One driver runs every job, polling each
/// rank from one thread, whether entered through
/// [`crate::Cluster::run`] or [`crate::run_tasks`]. The
/// type survives only because the benchmark package still builds
/// `EngineMode::Tasks { workers: 2 }` through
/// [`RunConfig::with_engine`]; it goes once that use does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Inert (see [`EngineMode`]).
    Threads,
    /// Inert (see [`EngineMode`]).
    Tasks {
        /// Inert: a tasks job is always driven by one thread.
        workers: usize,
    },
}

/// When a rank takes a checkpoint (always between application steps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Every `k` application steps (deterministic; used by tests).
    EverySteps(u64),
    /// Only the implicit initial state; never checkpoint again.
    Never,
}

/// Per-run configuration of the rollback-recovery runtime.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Dependency-tracking protocol (TDI / TAG / TEL).
    pub protocol: ProtocolKind,
    /// Fig. 4 communication architecture.
    pub comm: CommMode,
    /// Checkpoint cadence.
    pub checkpoint: CheckpointPolicy,
    /// Time source for the kernel stack. [`Clock::Real`] (the default)
    /// reads the wall clock; [`Clock::Sim`] pins every kernel-path
    /// timestamp to a scheduler-advanced virtual clock, making runs
    /// reproducible from `(topology, workload, schedule)`.
    pub clock: Clock,
    /// Lag sender-log garbage collection by one checkpoint generation:
    /// a `CHECKPOINT_ADVANCE` releases only the entries the *previous*
    /// advance from that peer covered. Costs one extra generation of
    /// log memory; required when checkpoints are replicated to a
    /// remote store, because a node-loss restore may fall back one
    /// generation past a corrupted upload and then needs survivors to
    /// replay messages the newest generation had already covered.
    /// [`crate::Cluster`] switches this on automatically whenever a
    /// remote store is attached ([`crate::ClusterConfig::with_remote`]).
    pub log_gc_lag: bool,
    /// Inert: nothing reads it (see [`EngineMode`]).
    pub engine: EngineMode,
}

impl RunConfig {
    /// A sensible default for `protocol`: non-blocking sends,
    /// checkpoint every 64 steps.
    pub fn new(protocol: ProtocolKind) -> Self {
        RunConfig {
            protocol,
            comm: CommMode::NonBlocking,
            checkpoint: CheckpointPolicy::EverySteps(64),
            clock: Clock::Real,
            log_gc_lag: false,
            engine: EngineMode::Threads,
        }
    }

    /// Builder-style comm mode override.
    pub fn with_comm(mut self, comm: CommMode) -> Self {
        self.comm = comm;
        self
    }

    /// Builder-style checkpoint policy override.
    pub fn with_checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = policy;
        self
    }

    /// Builder-style clock override (virtual time for deterministic
    /// simulation).
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Builder-style sender-log GC lag (see [`RunConfig::log_gc_lag`]).
    pub fn with_log_gc_lag(mut self, lag: bool) -> Self {
        self.log_gc_lag = lag;
        self
    }

    /// Sets the inert [`RunConfig::engine`]; changes nothing about a
    /// run (see [`EngineMode`]).
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_overrides() {
        let cfg = RunConfig::new(ProtocolKind::Tdi)
            .with_comm(CommMode::blocking_default())
            .with_checkpoint(CheckpointPolicy::Never);
        assert_eq!(cfg.protocol, ProtocolKind::Tdi);
        assert!(matches!(cfg.comm, CommMode::Blocking { eager_threshold } if eager_threshold == 4096));
        assert_eq!(cfg.checkpoint, CheckpointPolicy::Never);
    }
}
