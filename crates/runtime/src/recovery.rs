//! The checkpoint/recovery layer: an explicit typed state machine for
//! incarnation recovery (Algorithm 1 lines 32–53) plus the state a
//! checkpoint durably captures — the sender-based message log and the
//! checkpoint-store plumbing.
//!
//! Part of the kernel's `State` (see [`crate::kernel`]): `app_send`
//! checks the suppression bound, transmits and inserts into the log
//! in one critical section, so `ROLLBACK`, `RESPONSE`,
//! `CHECKPOINT_ADVANCE`, checkpoints and snapshots each see a log
//! that contains exactly the sends that went out.
//!
//! ## The recovery state machine
//!
//! ```text
//!            begin()          first recovery info       all info in
//!  Running ──────────▶ Logging ──────────────▶ Replaying{progress} ──▶ Synced
//!                         │                                            ▲
//!                         └────────── nothing to collect (n = 1) ──────┘
//! ```
//!
//! * [`RecoveryPhase::Running`] — normal forward execution; the state
//!   every first incarnation lives in for its whole life.
//! * [`RecoveryPhase::Logging`] — the incarnation has restored its
//!   checkpoint and broadcast `ROLLBACK` (line 46); survivors are
//!   consulting their sender logs. No `RESPONSE` has arrived yet.
//! * [`RecoveryPhase::Replaying`] — recovery information is flowing
//!   back and logged messages are being replayed; `progress` counts
//!   the contributions (survivor `RESPONSE`s + the event-logger
//!   answer) collected so far.
//! * [`RecoveryPhase::Synced`] — every survivor (and the event logger,
//!   when the protocol uses one) has answered; the PWD roll-forward
//!   barrier is lifted. Terminal within an incarnation: re-entering
//!   `Logging` or `Replaying` without a fresh incarnation is a
//!   protocol bug and panics.
//!
//! Stale recovery information arriving after `Synced` (a survivor
//! answering a rebroadcast it had already answered) is a legal no-op —
//! timed rebroadcasts make such duplicates routine. Calling [`RecoveryMachine::begin`] anywhere but
//! `Running` is illegal and panics: one incarnation recovers at most
//! once.

use crate::config::CheckpointPolicy;
use crate::log::{LogEntry, SenderLog};
use lclog_core::{CounterVector, Rank};
use lclog_stable::CheckpointStore;
use std::time::{Duration, Instant};

/// Where an incarnation stands in its recovery lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryPhase {
    /// Normal forward execution (initial incarnation state).
    Running,
    /// `ROLLBACK` broadcast; waiting for the first recovery answer.
    Logging,
    /// Recovery information arriving; logged messages replaying.
    Replaying {
        /// Recovery contributions (`RESPONSE`s + logger answer)
        /// collected so far.
        progress: u64,
    },
    /// All recovery information collected; roll-forward unrestricted.
    Synced,
}

impl RecoveryPhase {
    /// Short lowercase name, used in timeline events and assertions.
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryPhase::Running => "running",
            RecoveryPhase::Logging => "logging",
            RecoveryPhase::Replaying { .. } => "replaying",
            RecoveryPhase::Synced => "synced",
        }
    }

    /// True in `Logging` or `Replaying`: recovery information is still
    /// outstanding (the old `is_recovering()`).
    pub fn is_recovering(&self) -> bool {
        matches!(self, RecoveryPhase::Logging | RecoveryPhase::Replaying { .. })
    }
}

impl std::fmt::Display for RecoveryPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryPhase::Replaying { progress } => write!(f, "replaying({progress})"),
            other => f.write_str(other.name()),
        }
    }
}

/// The typed recovery state machine of one rank incarnation.
///
/// Owns the rollback-handshake bookkeeping (who has answered, when we
/// last rebroadcast) and enforces the legal transition set documented
/// on the module. All mutating methods return the phase transition
/// they caused, if any, so the caller can emit timeline events.
#[derive(Debug)]
pub struct RecoveryMachine {
    phase: RecoveryPhase,
    /// Which ranks have answered our `ROLLBACK` (self counts).
    responded: Vec<bool>,
    /// Whether the TEL event logger has answered (vacuously true when
    /// the protocol uses none).
    logger_synced: bool,
    last_broadcast: Instant,
    started: Instant,
}

/// A phase change, reported as `(from, to)` names.
pub type Transition = (&'static str, &'static str);

impl RecoveryMachine {
    /// A machine in `Running` for an `n`-rank system, created at `now`
    /// (the kernel clock — virtual under deterministic simulation).
    pub fn new(n: usize, now: Instant) -> Self {
        RecoveryMachine {
            phase: RecoveryPhase::Running,
            responded: vec![false; n],
            logger_synced: true,
            last_broadcast: now,
            started: now,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> &RecoveryPhase {
        &self.phase
    }

    /// True while recovery information is outstanding.
    pub fn is_recovering(&self) -> bool {
        self.phase.is_recovering()
    }

    /// `Running → Logging`: the incarnation `me` has restored its
    /// checkpoint and is about to broadcast `ROLLBACK`.
    ///
    /// # Panics
    ///
    /// From any phase but `Running` — one incarnation recovers at most
    /// once; a second failure spawns a fresh incarnation (and machine).
    pub fn begin(&mut self, me: Rank, needs_logger: bool, now: Instant) -> Transition {
        assert!(
            matches!(self.phase, RecoveryPhase::Running),
            "recovery state machine: begin() in phase {}, only legal in running",
            self.phase
        );
        self.responded.iter_mut().for_each(|r| *r = false);
        self.responded[me] = true;
        self.logger_synced = !needs_logger;
        self.started = now;
        self.last_broadcast = now;
        self.phase = RecoveryPhase::Logging;
        ("running", "logging")
    }

    /// A survivor's `RESPONSE` arrived. Returns `(newly_recorded,
    /// transition)`; duplicates and post-`Synced` stragglers are legal
    /// no-ops, and so is an answer in `Running` — no `ROLLBACK` was
    /// ever broadcast, so whoever sent it is confused or hostile (the
    /// kernel counts and drops those before they get here).
    pub fn note_response(&mut self, from: Rank) -> (bool, Option<Transition>) {
        if !self.phase.is_recovering() || self.responded[from] {
            return (false, None);
        }
        self.responded[from] = true;
        (true, self.note_progress())
    }

    /// The event logger answered our `LOG_QUERY`. Duplicates and
    /// post-`Synced` stragglers are legal no-ops.
    pub fn note_logger_synced(&mut self) -> (bool, Option<Transition>) {
        if !self.phase.is_recovering() || self.logger_synced {
            return (false, None);
        }
        self.logger_synced = true;
        (true, self.note_progress())
    }

    fn note_progress(&mut self) -> Option<Transition> {
        match &mut self.phase {
            RecoveryPhase::Logging => {
                self.phase = RecoveryPhase::Replaying { progress: 1 };
                Some(("logging", "replaying"))
            }
            RecoveryPhase::Replaying { progress } => {
                *progress += 1;
                None
            }
            _ => unreachable!("note_progress gated on is_recovering"),
        }
    }

    /// Transition to `Synced` if every survivor and the logger have
    /// answered. Returns `(sync_ns, transition)` on the edge — the
    /// nanoseconds spent collecting recovery information.
    pub fn try_complete(&mut self, now: Instant) -> Option<(u64, Transition)> {
        if !self.phase.is_recovering() {
            return None;
        }
        if self.logger_synced && self.responded.iter().all(|&r| r) {
            let from = self.phase.name();
            self.phase = RecoveryPhase::Synced;
            let sync_ns = now.saturating_duration_since(self.started).as_nanos() as u64;
            Some((sync_ns, (from, "synced")))
        } else {
            None
        }
    }

    /// Ranks that have not answered yet (rebroadcast targets).
    pub fn pending_targets(&self) -> Vec<Rank> {
        self.responded
            .iter()
            .enumerate()
            .filter(|(_, &r)| !r)
            .map(|(k, _)| k)
            .collect()
    }

    /// Is the event logger's answer still outstanding?
    pub fn needs_logger_sync(&self) -> bool {
        !self.logger_synced
    }

    /// Should `ROLLBACK` be rebroadcast (unresponsive peers may have
    /// been dead for the first broadcast)?
    pub fn rebroadcast_due(&self, interval: Duration, now: Instant) -> bool {
        self.is_recovering() && now.saturating_duration_since(self.last_broadcast) >= interval
    }

    /// A (re)broadcast just went out.
    pub fn note_broadcast(&mut self, now: Instant) {
        self.last_broadcast = now;
    }
}

/// The checkpoint/recovery layer: the recovery machine plus everything
/// a checkpoint durably captures on the send side — the sender log,
/// checkpoint-time counter snapshots — and the checkpoint-store
/// plumbing.
pub(crate) struct RecoveryLayer {
    pub machine: RecoveryMachine,
    /// Duplicate-suppression bound per destination (§III.C.3): sends
    /// with `send_index <= bound` were delivered by the peer before
    /// our crash and are logged without transmitting. `ROLLBACK`
    /// clamps it, `RESPONSE` raises it, `app_send` checks it — all
    /// under the kernel's state lock, which is what makes the check
    /// authoritative.
    pub rollback_last_send_index: CounterVector,
    /// `last_send_index` as restored from the checkpoint (zero on a
    /// first incarnation). Sends at or below this bound happened
    /// before the checkpoint, so re-execution will never regenerate
    /// them — if one was lost in flight with a dying inbox, only the
    /// checkpointed sender log can resupply it.
    pub restored_send_index: CounterVector,
    /// `last_deliver_index[k]` as last announced to `k` in a
    /// `CHECKPOINT_ADVANCE`: a checkpoint notifies `k` only once its
    /// count has grown past this. Zeroed for `k` when `k`'s `ROLLBACK`
    /// arrives and for everyone on restore, so the next checkpoint
    /// tells them again.
    pub last_ckpt_deliver_index: CounterVector,
    /// Highest `CHECKPOINT_ADVANCE` horizon received from each peer.
    /// With [`crate::RunConfig::log_gc_lag`] set, log release trails
    /// this by one advance, retaining one extra generation of entries
    /// for node-loss restores that fall back a generation. A peer's
    /// `ROLLBACK` clamps it to the count that peer restored.
    pub peer_ckpt_advance: CounterVector,
    /// The sender-based message log (line 12).
    pub log: SenderLog,
    /// High-water mark of `log.bytes()`.
    pub log_bytes_peak: u64,
    pub ckpt_store: CheckpointStore,
    pub ckpt_version: u64,
    /// The generation `Kernel::load_checkpoint` read, for the
    /// `restore` after it: numbering continues from it without reading
    /// the image a second time. A checkpoint in between clears it.
    pub loaded_version: Option<u64>,
    pub steps_at_ckpt: u64,
    /// `(step, sends + deliveries)` when the last image was written or
    /// restored: a checkpoint at the same mark would write the same
    /// cut again, so `Kernel::do_checkpoint` skips the image.
    pub image_mark: Option<(u64, u64)>,
    /// Distinguishes `ROLLBACK` rebroadcasts.
    pub rollback_epoch: u64,
}

impl RecoveryLayer {
    pub fn new(n: usize, ckpt_store: CheckpointStore, now: Instant) -> Self {
        RecoveryLayer {
            machine: RecoveryMachine::new(n, now),
            rollback_last_send_index: CounterVector::zeroed(n),
            restored_send_index: CounterVector::zeroed(n),
            last_ckpt_deliver_index: CounterVector::zeroed(n),
            peer_ckpt_advance: CounterVector::zeroed(n),
            log: SenderLog::new(n),
            log_bytes_peak: 0,
            ckpt_store,
            ckpt_version: 0,
            loaded_version: None,
            steps_at_ckpt: 0,
            image_mark: None,
            rollback_epoch: 0,
        }
    }

    /// Record a send in the log and keep the peak current.
    pub fn log_insert(&mut self, entry: LogEntry) {
        self.log.insert(entry);
        self.log_bytes_peak = self.log_bytes_peak.max(self.log.bytes() as u64);
    }

    /// Is a checkpoint due after `step` under `policy`?
    pub fn checkpoint_due(&self, policy: CheckpointPolicy, step: u64) -> bool {
        match policy {
            CheckpointPolicy::EverySteps(k) => k > 0 && step >= self.steps_at_ckpt + k,
            CheckpointPolicy::Never => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_lifecycle_with_logger() {
        let mut m = RecoveryMachine::new(3, Instant::now());
        assert_eq!(m.phase(), &RecoveryPhase::Running);
        assert!(!m.is_recovering());

        assert_eq!(m.begin(0, true, Instant::now()), ("running", "logging"));
        assert_eq!(m.phase(), &RecoveryPhase::Logging);
        assert!(m.is_recovering());
        assert!(m.needs_logger_sync());
        assert_eq!(m.pending_targets(), vec![1, 2]);
        assert!(m.try_complete(Instant::now()).is_none(), "nothing answered yet");

        // First response: Logging -> Replaying{1}.
        let (newly, tr) = m.note_response(1);
        assert!(newly);
        assert_eq!(tr, Some(("logging", "replaying")));
        assert_eq!(m.phase(), &RecoveryPhase::Replaying { progress: 1 });

        // Duplicate response: legal no-op, no progress.
        let (newly, tr) = m.note_response(1);
        assert!(!newly);
        assert!(tr.is_none());
        assert_eq!(m.phase(), &RecoveryPhase::Replaying { progress: 1 });

        // Second response and logger: progress without phase change.
        assert_eq!(m.note_response(2), (true, None));
        assert_eq!(m.phase(), &RecoveryPhase::Replaying { progress: 2 });
        assert!(m.try_complete(Instant::now()).is_none(), "logger still outstanding");
        assert_eq!(m.note_logger_synced(), (true, None));
        assert_eq!(m.phase(), &RecoveryPhase::Replaying { progress: 3 });

        let (sync_ns, tr) = m.try_complete(Instant::now()).expect("complete");
        assert_eq!(tr, ("replaying", "synced"));
        let _ = sync_ns;
        assert_eq!(m.phase(), &RecoveryPhase::Synced);
        assert!(!m.is_recovering());

        // Stale straggler after Synced: legal no-op, never re-enters.
        assert_eq!(m.note_response(2), (false, None));
        assert_eq!(m.note_logger_synced(), (false, None));
        assert_eq!(m.phase(), &RecoveryPhase::Synced);
        assert!(m.try_complete(Instant::now()).is_none());
    }

    #[test]
    fn degenerate_single_rank_goes_logging_to_synced() {
        let mut m = RecoveryMachine::new(1, Instant::now());
        m.begin(0, false, Instant::now());
        assert_eq!(m.phase(), &RecoveryPhase::Logging);
        let (_, tr) = m.try_complete(Instant::now()).expect("nothing to collect");
        assert_eq!(tr, ("logging", "synced"));
        assert_eq!(m.phase(), &RecoveryPhase::Synced);
    }

    #[test]
    fn rebroadcast_clock() {
        let mut m = RecoveryMachine::new(2, Instant::now());
        assert!(
            !m.rebroadcast_due(Duration::ZERO, Instant::now()),
            "running never rebroadcasts"
        );
        m.begin(0, false, Instant::now());
        std::thread::sleep(Duration::from_millis(1));
        assert!(m.rebroadcast_due(Duration::from_micros(1), Instant::now()));
        m.note_broadcast(Instant::now());
        assert!(!m.rebroadcast_due(Duration::from_secs(60), Instant::now()));
    }

    #[test]
    #[should_panic(expected = "only legal in running")]
    fn begin_twice_is_illegal() {
        let mut m = RecoveryMachine::new(2, Instant::now());
        m.begin(0, false, Instant::now());
        m.begin(0, false, Instant::now());
    }

    #[test]
    #[should_panic(expected = "only legal in running")]
    fn begin_after_synced_is_illegal() {
        let mut m = RecoveryMachine::new(1, Instant::now());
        m.begin(0, false, Instant::now());
        m.try_complete(Instant::now()).expect("degenerate sync");
        m.begin(0, false, Instant::now());
    }

    /// Regression: both used to `debug_assert!`, so a forged `RESPONSE`
    /// or logger answer aborted a debug build.
    #[test]
    fn answers_while_running_are_ignored() {
        let mut m = RecoveryMachine::new(2, Instant::now());
        assert_eq!(m.note_response(1), (false, None));
        assert_eq!(m.note_logger_synced(), (false, None));
        assert_eq!(m.phase(), &RecoveryPhase::Running);
    }

    #[test]
    fn display_names() {
        assert_eq!(RecoveryPhase::Running.to_string(), "running");
        assert_eq!(RecoveryPhase::Logging.to_string(), "logging");
        assert_eq!(
            RecoveryPhase::Replaying { progress: 4 }.to_string(),
            "replaying(4)"
        );
        assert_eq!(RecoveryPhase::Synced.to_string(), "synced");
        assert_eq!(RecoveryPhase::Replaying { progress: 4 }.name(), "replaying");
    }
}
