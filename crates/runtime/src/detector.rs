//! Decentralized failure detection and membership epochs.
//!
//! The paper's recovery protocol assumes failures are *announced*; in
//! a deployment they must be *detected*. This module supplies the
//! three pieces that turn silence into a safe, certified death
//! verdict:
//!
//! * [`Detector`] — a per-rank **accrual failure detector** in the
//!   φ-accrual family (Hayashibara et al.): every intact frame from a
//!   peer (data, ack, nack, or an explicit idle [`Frame::Heartbeat`])
//!   feeds a windowed estimate of that link's inter-arrival process,
//!   and the current silence is scored as
//!   `φ = elapsed / (m_eff · ln 10)` where `m_eff = mean + 2σ` of the
//!   window, floored at the heartbeat interval. φ is the negative
//!   decimal log of the probability that a live peer stays silent this
//!   long under an exponential tail — φ = 8 means "one in 10⁸". A
//!   threshold crossing *latches* a suspicion (cleared by any later
//!   sign of life) so one silence episode produces one report.
//! * [`MembershipTable`] — the arbiter state, hosted by the stable
//!   service slot (the same fabric slot as the TEL event logger, which
//!   the paper already assumes never fails). A suspicion names the
//!   *believed incarnation*; the arbiter declares it dead at most
//!   once, bumps the membership epoch, and the service broadcasts the
//!   certified `(epoch, floor[])` view to every rank. Stale
//!   suspicions — about an incarnation already below the floor — are
//!   answered with the current view instead of a new declaration, so
//!   a slow suspicion can never kill the successor incarnation.
//! * **Fencing** happens in the transport: receivers that applied a
//!   view reject frames from below-floor incarnations and notify the
//!   zombie (see `Transport::apply_fence_floors`), which rejoins
//!   through the ordinary rollback path.
//!
//! [`Frame::Heartbeat`]: crate::transport::Frame::Heartbeat

use lclog_core::{MembershipView, Rank};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Tuning for the accrual failure detector (attach to
/// [`RunConfig::with_detector`]). Only the threshold is a knob; the
/// detector's timing is fixed: a 2 ms heartbeat, a 32-sample window, a
/// 100 ms startup grace and a 1 s respawn-gate fallback.
///
/// [`RunConfig::with_detector`]: crate::RunConfig::with_detector
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Suspicion threshold φ: report a peer once the silence is this
    /// many decimal orders of magnitude less likely than the observed
    /// inter-arrival process explains. 8.0 rides out the chaos
    /// fabric's heavy-tailed delays (see EXPERIMENTS.md).
    pub phi_threshold: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig { phi_threshold: 8.0 }
    }
}

impl DetectorConfig {
    /// Sets the suspicion threshold φ.
    pub fn with_threshold(mut self, phi: f64) -> Self {
        assert!(phi > 0.0, "phi threshold must be positive");
        self.phi_threshold = phi;
        self
    }
}

/// Idle liveness beacon period: when a rank has sent a peer nothing for
/// this long, the kernel tick emits an explicit heartbeat. Also the
/// floor of the inter-arrival estimate, so bursty application traffic
/// cannot make the detector trigger-happy during a lull.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(2);
/// Inter-arrival samples kept per peer.
const WINDOW: usize = 32;
/// Startup grace: a peer never heard from is not suspected until this
/// much time has passed since the detector started.
const GRACE: Duration = Duration::from_millis(100);
/// Respawn gate fallback: a replacement incarnation waits at most this
/// long (on the run's clock) for the membership floor to pass its
/// predecessor before starting anyway — liveness when no survivor can
/// detect.
pub(crate) const GATE_TIMEOUT: Duration = Duration::from_secs(1);

/// Per-peer accrual state.
struct Peer {
    /// Last intact frame seen (None = never).
    last_heard: Option<Instant>,
    /// Windowed inter-arrival samples, seconds.
    intervals: VecDeque<f64>,
    /// Suspicion latch: set at a threshold crossing (or forced by
    /// retransmit-budget exhaustion), cleared by any sign of life or a
    /// membership declaration.
    suspected: bool,
}

/// The φ-accrual failure detector for one rank, monitoring its `n`
/// application peers. Lives in the kernel behind its own leaf mutex;
/// driven by `Kernel::tick`.
pub(crate) struct Detector {
    cfg: DetectorConfig,
    me: Rank,
    peers: Vec<Peer>,
    started: Instant,
    last_beacon: Instant,
}

impl Detector {
    /// A detector for rank `me` of an `n`-rank application. The
    /// service slot (`n`) is never monitored: it is the paper's
    /// assumed-stable logger host.
    pub(crate) fn new(me: Rank, n: usize, cfg: DetectorConfig, now: Instant) -> Self {
        Detector {
            cfg,
            me,
            peers: (0..n)
                .map(|_| Peer {
                    last_heard: None,
                    intervals: VecDeque::new(),
                    suspected: false,
                })
                .collect(),
            started: now,
            last_beacon: now,
        }
    }

    /// Record an intact frame from `rank` at `now`.
    pub(crate) fn heard(&mut self, rank: Rank, now: Instant) {
        let Some(peer) = self.peers.get_mut(rank) else {
            return; // service slot or out of range: unmonitored
        };
        if let Some(last) = peer.last_heard {
            let dt = now.saturating_duration_since(last).as_secs_f64();
            if peer.intervals.len() == WINDOW {
                peer.intervals.pop_front();
            }
            peer.intervals.push_back(dt);
        }
        peer.last_heard = Some(now);
        peer.suspected = false;
    }

    /// True once per heartbeat period: the caller should beacon every
    /// peer it has no outstanding traffic towards.
    pub(crate) fn heartbeat_due(&mut self, now: Instant) -> bool {
        if now.saturating_duration_since(self.last_beacon) >= HEARTBEAT_INTERVAL {
            self.last_beacon = now;
            true
        } else {
            false
        }
    }

    /// The current accrued suspicion for `rank`: decimal orders of
    /// magnitude of improbability of the ongoing silence.
    pub(crate) fn phi(&self, rank: Rank, now: Instant) -> f64 {
        let peer = &self.peers[rank];
        let since = peer.last_heard.unwrap_or(self.started);
        let elapsed = now.saturating_duration_since(since).as_secs_f64();
        let floor = HEARTBEAT_INTERVAL.as_secs_f64();
        let m_eff = if peer.intervals.is_empty() {
            floor
        } else {
            let n = peer.intervals.len() as f64;
            let mean = peer.intervals.iter().sum::<f64>() / n;
            let var = peer.intervals.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            (mean + 2.0 * var.sqrt()).max(floor)
        };
        elapsed / (m_eff * std::f64::consts::LN_10)
    }

    /// Newly crossed suspicions: `(rank, φ·100)` for every unlatched
    /// peer whose accrued suspicion passed the threshold. Latches them.
    pub(crate) fn poll(&mut self, now: Instant) -> Vec<(Rank, u64)> {
        let mut out = Vec::new();
        for rank in 0..self.peers.len() {
            if rank == self.me || self.peers[rank].suspected {
                continue;
            }
            // Startup grace: never-heard peers get time to say hello.
            if self.peers[rank].last_heard.is_none()
                && now.saturating_duration_since(self.started) < GRACE
            {
                continue;
            }
            let phi = self.phi(rank, now);
            if phi >= self.cfg.phi_threshold {
                self.peers[rank].suspected = true;
                out.push((rank, (phi * 100.0) as u64));
            }
        }
        out
    }

    /// Retransmit-budget exhaustion reported by the transport: treat
    /// it as an immediate threshold crossing (the budget spans far
    /// more silence than any φ threshold). Returns true when the
    /// suspicion is new.
    pub(crate) fn force_suspect(&mut self, rank: Rank) -> bool {
        if rank == self.me || rank >= self.peers.len() || self.peers[rank].suspected {
            return false;
        }
        self.peers[rank].suspected = true;
        true
    }

    /// A membership view advanced `rank`'s floor: the old incarnation
    /// is settled, a replacement is (about to be) spawning. Reset the
    /// latch and give the newcomer a fresh silence clock.
    pub(crate) fn reset_peer(&mut self, rank: Rank, now: Instant) {
        if let Some(peer) = self.peers.get_mut(rank) {
            peer.suspected = false;
            peer.last_heard = Some(now);
            peer.intervals.clear();
        }
    }
}

/// One death declaration by the arbiter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Declaration {
    /// The declared-dead rank.
    pub rank: Rank,
    /// The declared-dead incarnation.
    pub incarnation: u64,
    /// When the arbiter declared it (detection-latency bookkeeping).
    pub at: Instant,
}

struct MembershipState {
    view: MembershipView,
    declarations: Vec<Declaration>,
}

/// The arbiter's membership state, shared between the event logger
/// (which drives declarations from `Suspect` reports) and the run's
/// lifecycle (which gates respawns on them and reads detection-latency
/// bookkeeping at the end of a run).
pub(crate) struct MembershipTable {
    state: RefCell<MembershipState>,
}

impl MembershipTable {
    /// A table for `n` application ranks, starting at epoch 0 with
    /// every first incarnation alive.
    pub(crate) fn new(n: usize) -> Self {
        MembershipTable {
            state: RefCell::new(MembershipState {
                view: MembershipView::initial(n),
                declarations: Vec::new(),
            }),
        }
    }

    /// Declare `incarnation` of `rank` dead at `at` (the run's clock).
    /// Returns the new certified view, or `None` when the suspicion is
    /// stale (that incarnation is already below the floor) — idempotent
    /// by construction.
    pub(crate) fn declare(
        &self,
        rank: Rank,
        incarnation: u64,
        at: Instant,
    ) -> Option<MembershipView> {
        let mut s = self.state.borrow_mut();
        if !s.view.declare_dead(rank, incarnation) {
            return None;
        }
        s.declarations.push(Declaration {
            rank,
            incarnation,
            at,
        });
        Some(s.view.clone())
    }

    /// The current certified view.
    pub(crate) fn view(&self) -> MembershipView {
        self.state.borrow().view.clone()
    }

    /// True once the floor for `rank` exceeds `incarnation`: that
    /// incarnation has been *detected and declared* dead.
    pub(crate) fn floor_above(&self, rank: Rank, incarnation: u64) -> bool {
        self.state.borrow().view.live_floor(rank) > incarnation
    }

    /// Every declaration so far, in order.
    pub(crate) fn declarations(&self) -> Vec<Declaration> {
        self.state.borrow().declarations.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn config_defaults_and_builders() {
        assert_eq!(DetectorConfig::default().phi_threshold, 8.0);
        assert_eq!(
            DetectorConfig::default().with_threshold(4.0).phi_threshold,
            4.0
        );
    }

    #[test]
    fn phi_grows_with_silence_and_resets_on_contact() {
        let mut d = Detector::new(0, 2, DetectorConfig::default(), Instant::now());
        let t0 = Instant::now();
        // Regular 2ms traffic from rank 1.
        for i in 0..20 {
            d.heard(1, t0 + ms(2 * i));
        }
        let last = t0 + ms(38);
        let quiet = d.phi(1, last + ms(10));
        let quieter = d.phi(1, last + ms(40));
        assert!(quiet < quieter, "phi must accrue with silence");
        // ~40ms of silence against a 2ms cadence crosses φ = 8.
        assert!(quieter >= 8.0, "phi after 40ms silence: {quieter}");
        // Contact resets the accrual.
        d.heard(1, last + ms(41));
        assert!(d.phi(1, last + ms(42)) < 1.0);
    }

    #[test]
    fn poll_latches_one_report_per_silence_episode() {
        let mut d = Detector::new(0, 3, DetectorConfig::default(), Instant::now());
        let t0 = Instant::now();
        for i in 0..10 {
            d.heard(1, t0 + ms(2 * i));
            d.heard(2, t0 + ms(2 * i));
        }
        // Rank 2 keeps talking; rank 1 goes silent.
        for i in 10..60 {
            d.heard(2, t0 + ms(2 * i));
        }
        let now = t0 + ms(120);
        let reports = d.poll(now);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].0, 1);
        assert!(reports[0].1 >= 800, "phi_x100 {}", reports[0].1);
        // Latched: no duplicate report for the same episode (rank 2
        // stays in touch so it does not cross on its own).
        d.heard(2, now + ms(49));
        assert!(d.poll(now + ms(50)).is_empty());
        // Life clears the latch; a new (long) silence reports again —
        // longer this time, because the 160ms gap widened the window's
        // inter-arrival estimate.
        d.heard(1, now + ms(60));
        d.heard(2, now + ms(60));
        assert!(d.poll(now + ms(61)).is_empty());
        d.heard(2, now + ms(4000));
        let again = d.poll(now + ms(4001));
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].0, 1);
    }

    #[test]
    fn detector_never_suspects_itself_or_the_service_slot() {
        let mut d = Detector::new(1, 2, DetectorConfig::default(), Instant::now());
        // Total silence from everyone, forever.
        let reports = d.poll(Instant::now() + Duration::from_secs(5));
        assert_eq!(reports.len(), 1, "only rank 0 is suspect");
        assert_eq!(reports[0].0, 0);
        // The service slot (rank n = 2) is out of range: unmonitored.
        d.heard(2, Instant::now());
        assert!(!d.force_suspect(2));
        assert!(!d.force_suspect(1), "never self-suspect");
    }

    #[test]
    fn grace_shields_never_heard_peers() {
        let t0 = Instant::now();
        let mut d = Detector::new(0, 2, DetectorConfig::default(), t0);
        assert!(d.poll(t0 + GRACE - ms(1)).is_empty());
        assert_eq!(
            d.poll(t0 + GRACE).len(),
            1,
            "grace over: the silent peer is suspect"
        );
    }

    #[test]
    fn force_suspect_latches_and_reset_unlatches() {
        let mut d = Detector::new(0, 2, DetectorConfig::default(), Instant::now());
        assert!(d.force_suspect(1));
        assert!(!d.force_suspect(1), "already latched");
        let now = Instant::now();
        d.reset_peer(1, now);
        assert!(d.force_suspect(1), "reset clears the latch");
    }

    #[test]
    fn heartbeat_cadence() {
        let mut d = Detector::new(0, 2, DetectorConfig::default(), Instant::now());
        let t0 = Instant::now();
        assert!(!d.heartbeat_due(t0));
        assert!(d.heartbeat_due(t0 + ms(3)));
        assert!(!d.heartbeat_due(t0 + ms(4)));
        assert!(d.heartbeat_due(t0 + ms(6)));
    }

    #[test]
    fn membership_table_declares_once_and_gates() {
        let table = MembershipTable::new(3);
        let t0 = Instant::now();
        let view = table.declare(1, 1, t0).expect("first declaration");
        assert_eq!(view.epoch, 1);
        assert_eq!(view.live_floor(1), 2);
        assert!(
            table.declare(1, 1, t0 + ms(1)).is_none(),
            "stale suspicion is a no-op"
        );
        // Gate: incarnation 2 of rank 1 may start (floor 2 > 1); a
        // third incarnation waits for a second declaration.
        assert!(table.floor_above(1, 1));
        assert!(!table.floor_above(1, 2));
        assert!(table.declare(1, 2, t0 + ms(5)).is_some());
        assert!(table.floor_above(1, 2));
        let at: Vec<_> = table.declarations().iter().map(|d| d.at - t0).collect();
        assert_eq!(at, [ms(0), ms(5)], "declarations keep the caller's clock");
        assert_eq!(table.view().epoch, 2);
    }
}
