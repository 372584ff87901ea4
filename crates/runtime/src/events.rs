//! Structured run timelines: every fault-tolerance action a rank
//! takes — checkpoints, crashes, rollback handshakes, log resends —
//! recorded with microsecond timestamps on the run's [`Clock`]. The
//! observability surface a rollback-recovery toolkit needs when a
//! recovery goes sideways.
//!
//! Collection is off unless [`ClusterConfig::with_trace`] enables it;
//! when on, every kernel of the run shares one collector and the
//! [`RunReport::timeline`] carries the merged result, ordered by
//! (time, rank), each rank's events in emission order: the same every
//! time on a virtual clock, whichever phase of a round emitted them.
//!
//! [`ClusterConfig::with_trace`]: crate::ClusterConfig::with_trace
//! [`RunReport::timeline`]: crate::RunReport::timeline

use lclog_core::Rank;
use lclog_simnet::Clock;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A rank incarnation started (1 = original process).
    Spawned {
        /// Incarnation number.
        incarnation: u64,
    },
    /// A checkpoint was written.
    Checkpoint {
        /// Application step the image covers.
        step: u64,
        /// Encoded image size.
        bytes: usize,
    },
    /// The failure injector crashed this incarnation.
    Crashed {
        /// Step counter at the crash.
        step: u64,
    },
    /// An incarnation broadcast `ROLLBACK`.
    RollbackBroadcast {
        /// Broadcast epoch (1 = first attempt; higher = re-broadcast).
        epoch: u64,
    },
    /// A survivor answered our rollback.
    ResponseReceived {
        /// Responding rank.
        from: Rank,
    },
    /// A survivor resent logged messages to a recovering peer.
    LogResent {
        /// The recovering rank.
        to: Rank,
        /// Number of messages resent.
        count: usize,
    },
    /// All recovery information has arrived; the roll-forward barrier
    /// (PWD protocols) lifted.
    RecoverySynced {
        /// Microseconds spent collecting it.
        sync_us: u64,
    },
    /// The recovery state machine took an edge
    /// (`running → logging → replaying → synced`).
    RecoveryTransition {
        /// Phase left.
        from: &'static str,
        /// Phase entered.
        to: &'static str,
    },
    /// The reliability layer exhausted its retransmit budget against a
    /// silent peer and stopped waiting on it.
    PeerWrittenOff {
        /// The written-off rank.
        peer: Rank,
        /// Retransmit attempts spent before giving up.
        attempts: u32,
    },
    /// The TEL event-logger service stored a determinant batch.
    LoggerStored {
        /// Rank whose determinants were stored.
        from: Rank,
        /// Determinants in the batch.
        count: usize,
        /// Highest stable determinant sequence after the append.
        upto: u64,
    },
    /// The TEL event-logger service answered a recovery `LOG_QUERY`.
    LoggerQueried {
        /// The recovering rank that asked.
        failed: Rank,
        /// Stable determinants returned.
        count: usize,
    },
    /// The application finished on this rank.
    Done {
        /// Final step count.
        step: u64,
    },
    /// The tracking layer's piggyback merge rejected a message the
    /// delivery gate had approved. The message was discarded, the
    /// delivery counter left untouched, and the rank marked
    /// desynchronized so its engine surfaces [`crate::Fault::Desync`].
    TrackingDesync {
        /// Sender of the poisoned message.
        src: Rank,
        /// Its per-channel send index.
        send_index: u64,
    },
    /// The failure injector wiped this rank's local stable store
    /// along with the process (node loss).
    StoreWiped {
        /// Checkpoint generations deleted with the store.
        generations: usize,
    },
    /// A respawned rank with a wiped local store restored a checkpoint
    /// generation from the remote.
    RemoteRestored {
        /// The restored checkpoint version.
        version: u64,
        /// Newer generations skipped because their stored bytes failed
        /// certification.
        skipped: u32,
    },
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::Spawned { incarnation } => write!(f, "spawned (incarnation {incarnation})"),
            EventKind::Checkpoint { step, bytes } => {
                write!(f, "checkpoint at step {step} ({bytes} bytes)")
            }
            EventKind::Crashed { step } => write!(f, "CRASHED at step {step}"),
            EventKind::RollbackBroadcast { epoch } => {
                write!(f, "broadcast ROLLBACK (epoch {epoch})")
            }
            EventKind::ResponseReceived { from } => write!(f, "RESPONSE from rank {from}"),
            EventKind::LogResent { to, count } => {
                write!(f, "resent {count} logged messages to rank {to}")
            }
            EventKind::RecoverySynced { sync_us } => {
                write!(f, "recovery info complete after {sync_us} µs")
            }
            EventKind::RecoveryTransition { from, to } => {
                write!(f, "recovery phase {from} -> {to}")
            }
            EventKind::PeerWrittenOff { peer, attempts } => {
                write!(f, "wrote off rank {peer} after {attempts} retransmits")
            }
            EventKind::LoggerStored { from, count, upto } => {
                write!(f, "logger stored {count} determinants from rank {from} (upto {upto})")
            }
            EventKind::LoggerQueried { failed, count } => {
                write!(f, "logger answered rank {failed}'s query with {count} determinants")
            }
            EventKind::Done { step } => write!(f, "done at step {step}"),
            EventKind::TrackingDesync { src, send_index } => {
                write!(
                    f,
                    "DESYNC: tracking merge rejected gate-approved message {send_index} from rank {src}"
                )
            }
            EventKind::StoreWiped { generations } => {
                write!(f, "local store WIPED ({generations} generations lost)")
            }
            EventKind::RemoteRestored { version, skipped } => {
                write!(
                    f,
                    "restored checkpoint v{version} from remote ({skipped} damaged generations skipped)"
                )
            }
        }
    }
}

/// One timeline entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Microseconds since the cluster run started, on its clock.
    pub at_us: u64,
    /// Acting rank.
    pub rank: Rank,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>9.3} ms] rank {}: {}",
            self.at_us as f64 / 1e3,
            self.rank,
            self.kind
        )
    }
}

/// Shared, cheap-to-clone event collector. A disabled sink is a
/// no-op with a single branch per emission. It stamps events on the
/// run's clock, so like the clock it stays on the run's thread.
#[derive(Clone)]
pub struct EventSink {
    inner: Option<Rc<SinkInner>>,
}

struct SinkInner {
    clock: Clock,
    start: Duration,
    events: RefCell<Vec<Event>>,
}

impl EventSink {
    /// A recording sink stamping events on `clock`, from its "now".
    pub fn recording(clock: Clock) -> Self {
        EventSink {
            inner: Some(Rc::new(SinkInner {
                start: clock.elapsed(),
                clock,
                events: RefCell::new(Vec::new()),
            })),
        }
    }

    /// A disabled sink (default).
    pub fn disabled() -> Self {
        EventSink { inner: None }
    }

    /// Is this sink recording?
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Record an event (no-op when disabled).
    pub fn emit(&self, rank: Rank, kind: EventKind) {
        if let Some(inner) = &self.inner {
            let at_us = (inner.clock.elapsed() - inner.start).as_micros() as u64;
            inner.events.borrow_mut().push(Event { at_us, rank, kind });
        }
    }

    /// Drain the collected events, ordered by (time, rank); a rank's
    /// events stay in emission order.
    pub fn take(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => {
                let mut events = inner.events.take();
                events.sort_by_key(|e| (e.at_us, e.rank));
                events
            }
            None => Vec::new(),
        }
    }
}

impl Default for EventSink {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_collects_nothing() {
        let sink = EventSink::disabled();
        assert!(!sink.is_recording());
        sink.emit(0, EventKind::Done { step: 1 });
        assert!(sink.take().is_empty());
    }

    #[test]
    fn recording_sink_orders_events() {
        let clock = lclog_simnet::SimClock::new();
        let sink = EventSink::recording(Clock::Sim(clock.clone()));
        assert!(sink.is_recording());
        sink.emit(1, EventKind::Spawned { incarnation: 1 });
        sink.emit(0, EventKind::Crashed { step: 5 });
        sink.emit(1, EventKind::Done { step: 3 });
        clock.advance(Duration::from_micros(7));
        let clone = sink.clone();
        clone.emit(0, EventKind::Done { step: 9 });
        let order: Vec<(u64, Rank)> = sink.take().iter().map(|e| (e.at_us, e.rank)).collect();
        // (time, rank), and rank 1's two events in emission order.
        assert_eq!(order, [(0, 0), (0, 1), (0, 1), (7, 0)]);
        // Drained.
        assert!(sink.take().is_empty());
    }

    #[test]
    fn display_formats_read_well() {
        let e = Event {
            at_us: 1500,
            rank: 3,
            kind: EventKind::RollbackBroadcast { epoch: 2 },
        };
        let text = e.to_string();
        assert!(text.contains("rank 3"));
        assert!(text.contains("ROLLBACK"));
        assert!(text.contains("1.500 ms"));
    }
}
