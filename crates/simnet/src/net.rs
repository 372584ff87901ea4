use crate::schedule::Schedule;
use crate::{ChaosConfig, Clock, DeliveryModel, Envelope, NetConfig, NetStats, Rank};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Errors returned by [`SimNet::send`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// Destination rank is outside `0..n`.
    BadRank(Rank),
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::BadRank(r) => write!(f, "rank {r} out of range"),
        }
    }
}

impl std::error::Error for SendError {}

/// Errors returned by [`Endpoint::try_recv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    /// No message is currently queued.
    Empty,
    /// This endpoint's incarnation has been killed; its inbox contents
    /// are lost.
    Dead,
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Empty => write!(f, "no message queued"),
            RecvError::Dead => write!(f, "endpoint incarnation is dead"),
        }
    }
}

impl std::error::Error for RecvError {}

enum SlotState {
    /// No endpoint has attached yet.
    Detached,
    /// Live endpoint; envelopes queue in its inbox.
    Attached(VecDeque<Envelope>),
    /// Killed; envelopes addressed here are dropped.
    Dead,
}

struct Slot {
    incarnation: u64,
    state: SlotState,
}

/// Where an envelope waits between `send` and its destination inbox.
enum Flight {
    /// Nowhere: `send` delivers synchronously.
    Direct,
    /// One FIFO per `(src, dst)` channel, released only by explicit
    /// `held_deliver*` calls ([`DeliveryModel::Held`]).
    Held(Mutex<Vec<VecDeque<Envelope>>>),
    /// Release times on the fabric's clock ([`NetConfig::is_timed`]).
    Timed(Mutex<Schedule>),
}

/// Shared fabric state: endpoint slots, per-pair sequence counters,
/// what is in flight and traffic stats. Held by `SimNet` and every
/// `Endpoint`.
struct Fabric {
    n: usize,
    slots: Vec<Mutex<Slot>>,
    pair_seq: Vec<AtomicU64>,
    stats: NetStats,
    chaos: Option<ChaosConfig>,
    flight: Flight,
}

impl Fabric {
    /// Place `env` into the destination inbox if its current
    /// incarnation is alive; otherwise drop it (crash-loss model).
    fn deliver(&self, env: Envelope) {
        let mut slot = self.slots[env.dst].lock();
        match &mut slot.state {
            SlotState::Attached(inbox) => {
                inbox.push_back(env);
                self.stats.record_delivered();
            }
            SlotState::Detached | SlotState::Dead => {
                self.stats.record_dropped_dead(1);
            }
        }
    }

    /// Release every timed envelope that is due, in release order.
    /// Delivering under the schedule lock keeps two concurrent
    /// releasers from reordering a pair.
    fn release_due(&self) {
        if let Flight::Timed(schedule) = &self.flight {
            let mut schedule = schedule.lock();
            while let Some(env) = schedule.pop_due() {
                self.deliver(env);
            }
        }
    }

    fn held(&self) -> Option<&Mutex<Vec<VecDeque<Envelope>>>> {
        match &self.flight {
            Flight::Held(held) => Some(held),
            _ => None,
        }
    }
}

/// The simulated cluster fabric. Cheap to clone; all clones share the
/// same state.
#[derive(Clone)]
pub struct SimNet {
    fabric: Arc<Fabric>,
}

impl SimNet {
    /// Create a fabric with `n` endpoint slots whose release times run
    /// on the wall clock.
    pub fn new(n: usize, config: NetConfig) -> Self {
        Self::with_clock(n, config, Clock::Real)
    }

    /// Create a fabric with `n` endpoint slots whose release times run
    /// on `clock`. Under [`Clock::Sim`] a timed fabric releases an
    /// envelope only once the scheduler has advanced the clock past its
    /// release time.
    pub fn with_clock(n: usize, config: NetConfig, clock: Clock) -> Self {
        assert!(n > 0, "fabric needs at least one endpoint");
        let flight = match config.delivery {
            DeliveryModel::Held => Flight::Held(Mutex::new(vec![VecDeque::new(); n * n])),
            _ if config.is_timed() => {
                Flight::Timed(Mutex::new(Schedule::new(n, config.delivery.clone(), clock)))
            }
            _ => Flight::Direct,
        };
        SimNet {
            fabric: Arc::new(Fabric {
                n,
                slots: (0..n)
                    .map(|_| {
                        Mutex::new(Slot {
                            incarnation: 0,
                            state: SlotState::Detached,
                        })
                    })
                    .collect(),
                pair_seq: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
                stats: NetStats::default(),
                chaos: config.chaos,
                flight,
            }),
        }
    }

    /// Number of endpoint slots.
    pub fn n(&self) -> usize {
        self.fabric.n
    }

    /// Traffic counters.
    pub fn stats(&self) -> &NetStats {
        &self.fabric.stats
    }

    /// Attach the first incarnation of `rank`, returning its receiving
    /// endpoint. Panics if the slot was already attached (use
    /// [`SimNet::respawn`] after a kill).
    pub fn attach(&self, rank: Rank) -> Endpoint {
        assert!(rank < self.fabric.n, "rank {rank} out of range");
        let mut slot = self.fabric.slots[rank].lock();
        assert!(
            matches!(slot.state, SlotState::Detached),
            "rank {rank} already attached; kill + respawn to reincarnate"
        );
        slot.incarnation = 1;
        slot.state = SlotState::Attached(VecDeque::new());
        Endpoint {
            rank,
            incarnation: 1,
            fabric: Arc::clone(&self.fabric),
        }
    }

    /// Kill the current incarnation of `rank`: its inbox and all
    /// in-flight messages towards it — scheduled or held — are lost,
    /// so none of them reaches a later incarnation.
    pub fn kill(&self, rank: Rank) {
        assert!(rank < self.fabric.n, "rank {rank} out of range");
        self.fabric.slots[rank].lock().state = SlotState::Dead;
        let n = self.fabric.n;
        let lost = match &self.fabric.flight {
            Flight::Direct => 0,
            Flight::Held(held) => {
                let mut held = held.lock();
                (0..n)
                    .map(|src| held[src * n + rank].drain(..).count())
                    .sum()
            }
            Flight::Timed(schedule) => schedule.lock().purge(rank),
        };
        self.fabric.stats.record_dropped_dead(lost);
    }

    /// Create a fresh incarnation of a previously killed (or detached)
    /// rank with an empty inbox.
    pub fn respawn(&self, rank: Rank) -> Endpoint {
        assert!(rank < self.fabric.n, "rank {rank} out of range");
        let mut slot = self.fabric.slots[rank].lock();
        assert!(
            !matches!(slot.state, SlotState::Attached(_)),
            "rank {rank} is still attached; kill it first"
        );
        slot.incarnation += 1;
        let incarnation = slot.incarnation;
        slot.state = SlotState::Attached(VecDeque::new());
        Endpoint {
            rank,
            incarnation,
            fabric: Arc::clone(&self.fabric),
        }
    }

    /// True when the current incarnation of `rank` is attached and
    /// alive.
    pub fn is_alive(&self, rank: Rank) -> bool {
        let slot = self.fabric.slots[rank].lock();
        matches!(slot.state, SlotState::Attached(_))
    }

    /// Send `payload` from `src` to `dst`. Sending to a dead rank
    /// succeeds and the message is dropped — senders cannot observe
    /// remote failures synchronously, exactly like a datagram on the
    /// paper's LAN.
    ///
    /// When a [`ChaosConfig`] is installed, the envelope may be
    /// dropped, duplicated, bit-flipped, severed by a partition
    /// window, or delayed in flight — all decided purely from the
    /// chaos seed and the per-link sequence number, so a schedule
    /// replays identically for the same per-link send sequence.
    ///
    /// On a timed fabric the envelope is scheduled; the next
    /// [`Endpoint::try_recv`] on the fabric releases it once due.
    pub fn send(&self, src: Rank, dst: Rank, payload: Bytes) -> Result<(), SendError> {
        self.send_parts(src, dst, payload, Bytes::new())
    }

    /// Send a two-segment frame (`payload ++ body`) without joining
    /// the segments. The zero-copy resend path uses this to pair a
    /// small fresh header with a refcounted window into the sender
    /// log; the fabric charges, corrupts, and delivers the pair as one
    /// logical frame.
    pub fn send_parts(
        &self,
        src: Rank,
        dst: Rank,
        payload: Bytes,
        body: Bytes,
    ) -> Result<(), SendError> {
        if dst >= self.fabric.n {
            return Err(SendError::BadRank(dst));
        }
        if src >= self.fabric.n {
            return Err(SendError::BadRank(src));
        }
        let seq = self.fabric.pair_seq[src * self.fabric.n + dst].fetch_add(1, Ordering::Relaxed) + 1;
        self.fabric.stats.record_send(payload.len() + body.len());
        let mut payload = payload;
        let mut body = body;
        let mut duplicated = false;
        let mut delay = Duration::ZERO;
        if let Some(chaos) = &self.fabric.chaos {
            let fate = chaos.fate(src, dst, seq);
            if fate.severed {
                self.fabric.stats.record_partition_dropped();
                return Ok(());
            }
            if fate.dropped {
                self.fabric.stats.record_chaos_dropped();
                return Ok(());
            }
            if let Some(bit) = fate.corrupt_bit {
                let total = payload.len() + body.len();
                if total > 0 {
                    // Pick the flipped bit across the logical frame so
                    // segmented sends are corrupted with the same
                    // probability per byte as contiguous ones, then
                    // copy-on-write only the segment that owns it.
                    let target = (bit % (total as u64 * 8)) as usize;
                    let (seg, seg_bit) = if target / 8 < payload.len() {
                        (&mut payload, target)
                    } else {
                        (&mut body, target - payload.len() * 8)
                    };
                    let mut bytes = seg.to_vec();
                    bytes[seg_bit / 8] ^= 1 << (seg_bit % 8);
                    *seg = Bytes::from(bytes);
                    self.fabric.stats.record_chaos_corrupted();
                }
            }
            if fate.duplicated {
                self.fabric.stats.record_chaos_duplicated();
                duplicated = true;
            }
            if fate.delay > Duration::ZERO {
                self.fabric.stats.record_chaos_stalled();
                delay = fate.delay;
            }
        }
        let env = Envelope {
            src,
            dst,
            seq,
            payload,
            body,
        };
        // A duplicate keeps the same fabric `seq`: it models the same
        // frame arriving twice, which the reliability layer above the
        // fabric must collapse to one delivery.
        let copies = if duplicated { 2 } else { 1 };
        match &self.fabric.flight {
            Flight::Direct => (0..copies).for_each(|_| self.fabric.deliver(env.clone())),
            Flight::Held(held) => {
                let channel = &mut held.lock()[src * self.fabric.n + dst];
                channel.extend(std::iter::repeat_n(env, copies));
            }
            Flight::Timed(schedule) => {
                let mut schedule = schedule.lock();
                for _ in 0..copies {
                    schedule.push(env.clone(), delay);
                }
            }
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // Scheduler hooks for [`DeliveryModel::Held`]
    // ---------------------------------------------------------------

    /// Non-empty held channels as `(src, dst, queued)`, sorted by
    /// `(src, dst)` — a deterministic view of everything in flight.
    /// Empty on fabrics not in held mode.
    pub fn held_channels(&self) -> Vec<(Rank, Rank, usize)> {
        let Some(held) = self.fabric.held() else {
            return Vec::new();
        };
        let n = self.fabric.n;
        let held = held.lock();
        (0..n * n)
            .filter(|&i| !held[i].is_empty())
            .map(|i| (i / n, i % n, held[i].len()))
            .collect()
    }

    /// The whole frame of the next parked envelope on `src → dst`, if
    /// any — a peek (refcounted unless the frame has two segments) that
    /// lets a deterministic scheduler classify the frame before
    /// deciding whether releasing it is a branch point. `None` when the
    /// channel is empty or the fabric is not in held mode.
    pub fn held_head(&self, src: Rank, dst: Rank) -> Option<Bytes> {
        self.fabric.held()?.lock()[src * self.fabric.n + dst]
            .front()
            .map(Envelope::contiguous)
    }

    /// Release the head envelope of the `(src, dst)` channel into the
    /// destination inbox (FIFO within the channel is preserved by
    /// construction). Returns `false` when the channel is empty or the
    /// fabric is not in held mode.
    pub fn held_deliver(&self, src: Rank, dst: Rank) -> bool {
        let Some(held) = self.fabric.held() else {
            return false;
        };
        let env = held.lock()[src * self.fabric.n + dst].pop_front();
        env.map(|env| self.fabric.deliver(env)).is_some()
    }

    /// Release every held envelope, channel by channel in `(src, dst)`
    /// order, in one pass under one lock (deliveries trigger no sends
    /// at the fabric level, so nothing can be parked behind the pass).
    /// Returns the number of envelopes released.
    pub fn held_deliver_all(&self) -> usize {
        let Some(held) = self.fabric.held() else {
            return 0;
        };
        let mut held = held.lock();
        let mut released = 0;
        for channel in held.iter_mut() {
            released += channel.len();
            for env in channel.drain(..) {
                self.fabric.deliver(env);
            }
        }
        released
    }
}

impl fmt::Debug for SimNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimNet")
            .field("n", &self.fabric.n)
            .field("timed", &matches!(self.fabric.flight, Flight::Timed(_)))
            .finish()
    }
}

/// The receiving half of one rank incarnation.
pub struct Endpoint {
    rank: Rank,
    incarnation: u64,
    fabric: Arc<Fabric>,
}

impl Endpoint {
    /// The rank this endpoint receives for.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Incarnation number (1 for the first attach, +1 per respawn).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// The next queued envelope, after releasing whatever is due.
    ///
    /// Returns [`RecvError::Dead`] once this incarnation has been
    /// killed — queued messages are *not* drained, matching the
    /// lost-volatile-state crash model.
    pub fn try_recv(&self) -> Result<Envelope, RecvError> {
        self.fabric.release_due();
        let mut slot = self.fabric.slots[self.rank].lock();
        let current = slot.incarnation == self.incarnation;
        match &mut slot.state {
            SlotState::Attached(inbox) if current => inbox.pop_front().ok_or(RecvError::Empty),
            _ => Err(RecvError::Dead),
        }
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint")
            .field("rank", &self.rank)
            .field("incarnation", &self.incarnation)
            .finish()
    }
}
