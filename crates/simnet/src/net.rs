use crate::schedule::Schedule;
use crate::{ChaosConfig, Clock, DeliveryModel, Envelope, NetConfig, NetStats, Rank};
use bytes::Bytes;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;
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
    /// Every parked envelope in send order, released only by explicit
    /// `held_deliver*` calls ([`DeliveryModel::Held`]). A channel
    /// `(src, dst)` is the envelopes with that pair, in the order they
    /// sit here, so each channel is FIFO.
    Held(Vec<Envelope>),
    /// Release times on the fabric's clock ([`NetConfig::is_timed`]).
    Timed(Schedule),
}

/// Fabric state: endpoint slots, per-pair sequence counters, what is
/// in flight and traffic stats. `SimNet` and every `Endpoint` share
/// one; each call borrows it once.
struct Fabric {
    n: usize,
    slots: Vec<Slot>,
    pair_seq: Vec<u64>,
    stats: NetStats,
    chaos: Option<ChaosConfig>,
    flight: Flight,
}

/// Place `env` into the destination inbox if its current incarnation
/// is alive; otherwise drop it (crash-loss model).
fn deliver(slots: &mut [Slot], stats: &mut NetStats, env: Envelope) {
    match &mut slots[env.dst].state {
        SlotState::Attached(inbox) => {
            inbox.push_back(env);
            stats.record_delivered();
        }
        SlotState::Detached | SlotState::Dead => stats.record_dropped_dead(1),
    }
}

/// The simulated cluster fabric. Cheap to clone; all clones share the
/// same state. Neither `Send` nor `Sync`: the fabric of a run lives on
/// the thread that drives the run.
///
/// ```compile_fail
/// fn shared_across_threads<T: Sync>() {}
/// shared_across_threads::<lclog_simnet::SimNet>();
/// ```
#[derive(Clone)]
pub struct SimNet {
    fabric: Rc<RefCell<Fabric>>,
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
            DeliveryModel::Held => Flight::Held(Vec::new()),
            _ if config.is_timed() => {
                Flight::Timed(Schedule::new(n, config.delivery.clone(), clock))
            }
            _ => Flight::Direct,
        };
        SimNet {
            fabric: Rc::new(RefCell::new(Fabric {
                n,
                slots: (0..n)
                    .map(|_| Slot {
                        incarnation: 0,
                        state: SlotState::Detached,
                    })
                    .collect(),
                // Written out, not `vec![0; n * n]`: at n = 513 the
                // zeroed allocation made building a fabric about 1.5 ms
                // slower with the system allocator.
                pair_seq: (0..n * n).map(|_| 0).collect(),
                stats: NetStats::default(),
                chaos: config.chaos,
                flight,
            })),
        }
    }

    /// Number of endpoint slots.
    pub fn n(&self) -> usize {
        self.fabric.borrow().n
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> NetStats {
        self.fabric.borrow().stats
    }

    /// Attach the first incarnation of `rank`, returning its receiving
    /// endpoint. Panics if the slot was already attached (use
    /// [`SimNet::respawn`] after a kill).
    pub fn attach(&self, rank: Rank) -> Endpoint {
        let mut fabric = self.fabric.borrow_mut();
        assert!(rank < fabric.n, "rank {rank} out of range");
        let slot = &mut fabric.slots[rank];
        assert!(
            matches!(slot.state, SlotState::Detached),
            "rank {rank} already attached; kill + respawn to reincarnate"
        );
        slot.incarnation = 1;
        slot.state = SlotState::Attached(VecDeque::new());
        Endpoint {
            rank,
            incarnation: 1,
            fabric: Rc::clone(&self.fabric),
        }
    }

    /// Kill the current incarnation of `rank`: its inbox and all
    /// in-flight messages towards it — scheduled or held — are lost,
    /// so none of them reaches a later incarnation.
    pub fn kill(&self, rank: Rank) {
        let fabric = &mut *self.fabric.borrow_mut();
        assert!(rank < fabric.n, "rank {rank} out of range");
        fabric.slots[rank].state = SlotState::Dead;
        let lost = match &mut fabric.flight {
            Flight::Direct => 0,
            Flight::Held(held) => {
                let before = held.len();
                held.retain(|env| env.dst != rank);
                before - held.len()
            }
            Flight::Timed(schedule) => schedule.purge(rank),
        };
        fabric.stats.record_dropped_dead(lost);
    }

    /// Create a fresh incarnation of a previously killed (or detached)
    /// rank with an empty inbox.
    pub fn respawn(&self, rank: Rank) -> Endpoint {
        let mut fabric = self.fabric.borrow_mut();
        assert!(rank < fabric.n, "rank {rank} out of range");
        let slot = &mut fabric.slots[rank];
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
            fabric: Rc::clone(&self.fabric),
        }
    }

    /// True when the current incarnation of `rank` is attached and
    /// alive.
    pub fn is_alive(&self, rank: Rank) -> bool {
        matches!(self.fabric.borrow().slots[rank].state, SlotState::Attached(_))
    }

    /// Send `payload` from `src` to `dst`: [`SimNet::send_split`]
    /// with the whole frame in the head.
    pub fn send(&self, src: Rank, dst: Rank, payload: Bytes) -> Result<(), SendError> {
        self.send_split(src, dst, payload, Bytes::new())
    }

    /// Send the frame `head ++ body` from `src` to `dst` as two
    /// refcounted segments, neither of them copied. Sending to a dead
    /// rank succeeds and the message is dropped — senders cannot
    /// observe remote failures synchronously, exactly like a datagram
    /// on the paper's LAN. Between live endpoints the channel is
    /// reliable and FIFO.
    ///
    /// On a timed fabric the envelope is scheduled; the next
    /// [`Endpoint::try_recv`] on the fabric releases it once due. A
    /// [`ChaosConfig`] may stall it further — decided purely from the
    /// chaos seed and the per-link sequence number, so a schedule
    /// replays identically for the same per-link send sequence.
    pub fn send_split(&self, src: Rank, dst: Rank, head: Bytes, body: Bytes) -> Result<(), SendError> {
        let fabric = &mut *self.fabric.borrow_mut();
        let n = fabric.n;
        if dst >= n {
            return Err(SendError::BadRank(dst));
        }
        if src >= n {
            return Err(SendError::BadRank(src));
        }
        let seq = &mut fabric.pair_seq[src * n + dst];
        *seq += 1;
        let env = Envelope {
            src,
            dst,
            seq: *seq,
            head,
            body,
        };
        fabric.stats.record_send(env.len());
        match &mut fabric.flight {
            Flight::Direct => deliver(&mut fabric.slots, &mut fabric.stats, env),
            Flight::Held(held) => held.push(env),
            Flight::Timed(schedule) => {
                let stall = (fabric.chaos.as_ref())
                    .map_or(Duration::ZERO, |c| c.stall(src, dst, env.seq));
                if stall > Duration::ZERO {
                    fabric.stats.record_chaos_stalled();
                }
                schedule.push(env, stall)
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
        let fabric = self.fabric.borrow();
        let Flight::Held(held) = &fabric.flight else {
            return Vec::new();
        };
        let mut pairs: Vec<(Rank, Rank)> = held.iter().map(|env| (env.src, env.dst)).collect();
        pairs.sort_unstable();
        let mut channels: Vec<(Rank, Rank, usize)> = Vec::new();
        for (src, dst) in pairs {
            match channels.last_mut() {
                Some((s, d, queued)) if (*s, *d) == (src, dst) => *queued += 1,
                _ => channels.push((src, dst, 1)),
            }
        }
        channels
    }

    /// The head segment of the next parked envelope on `src → dst`,
    /// if any — a refcounted peek that lets a deterministic scheduler
    /// classify the frame before deciding whether releasing it is a
    /// branch point. `None` when the
    /// channel is empty or the fabric is not in held mode.
    pub fn held_head(&self, src: Rank, dst: Rank) -> Option<Bytes> {
        let fabric = self.fabric.borrow();
        let Flight::Held(held) = &fabric.flight else {
            return None;
        };
        held.iter()
            .find(|env| (env.src, env.dst) == (src, dst))
            .map(|env| env.head.clone())
    }

    /// Release the head envelope of the `(src, dst)` channel into the
    /// destination inbox (FIFO within the channel is preserved by
    /// construction). Returns `false` when the channel is empty or the
    /// fabric is not in held mode.
    pub fn held_deliver(&self, src: Rank, dst: Rank) -> bool {
        let fabric = &mut *self.fabric.borrow_mut();
        let Flight::Held(held) = &mut fabric.flight else {
            return false;
        };
        let Some(head) = held.iter().position(|env| (env.src, env.dst) == (src, dst)) else {
            return false;
        };
        deliver(&mut fabric.slots, &mut fabric.stats, held.remove(head));
        true
    }

    /// Release every held envelope, channel by channel in `(src, dst)`
    /// order, in one pass (deliveries trigger no sends at the fabric
    /// level, so nothing can be parked behind the pass). The sort is
    /// stable, so each channel keeps its send order; the pass costs
    /// what is held, not the n² channels there could be. Returns the
    /// number of envelopes released.
    pub fn held_deliver_all(&self) -> usize {
        let fabric = &mut *self.fabric.borrow_mut();
        let Flight::Held(held) = &mut fabric.flight else {
            return 0;
        };
        held.sort_by_key(|env| (env.src, env.dst));
        let released = held.len();
        for env in held.drain(..) {
            deliver(&mut fabric.slots, &mut fabric.stats, env);
        }
        released
    }
}

impl fmt::Debug for SimNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fabric = self.fabric.borrow();
        f.debug_struct("SimNet")
            .field("n", &fabric.n)
            .field("timed", &matches!(fabric.flight, Flight::Timed(_)))
            .finish()
    }
}

/// The receiving half of one rank incarnation.
pub struct Endpoint {
    rank: Rank,
    incarnation: u64,
    fabric: Rc<RefCell<Fabric>>,
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
        let fabric = &mut *self.fabric.borrow_mut();
        if let Flight::Timed(schedule) = &mut fabric.flight {
            while let Some(env) = schedule.pop_due() {
                deliver(&mut fabric.slots, &mut fabric.stats, env);
            }
        }
        let slot = &mut fabric.slots[self.rank];
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
