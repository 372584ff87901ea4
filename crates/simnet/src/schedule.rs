//! The release-time schedule of a timed fabric.
//!
//! `send` gives each envelope a release time: its send time on the
//! fabric's [`Clock`], plus the delivery model's delay, plus any chaos
//! stall, clamped to be non-decreasing per `(src, dst)` pair so
//! per-pair FIFO survives — across a sender's incarnations too, since
//! the clamp is per slot pair and a kill purges only what is addressed
//! to the dead rank. Nothing runs in the background: under a
//! virtual clock, with one thread sending, the schedule is a pure
//! function of the sends and the clock's advances.
//!
//! * [`DeliveryModel::Delayed`] — `base + per_kib × ceil(len/1 KiB) +
//!   jitter`, the jitter a hash of `(seed, src, dst, seq)`. Messages
//!   from different senders reorder freely — the adversarial condition
//!   the paper's recovery path must handle.
//! * [`DeliveryModel::SharedBus`] — one shared medium: transmissions
//!   serialize at the bus bandwidth, then propagate with a fixed
//!   latency. A large frame delays *all* subsequent traffic, the
//!   contention effect the paper attributes to BT's big messages.
//! * [`DeliveryModel::Direct`] — no model delay; only chaos stalls
//!   hold an envelope back.

use crate::chaos::link_hash;
use crate::{Clock, DeliveryModel, Envelope, Rank};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const SALT_JITTER: u64 = 0x717;

pub(crate) struct Schedule {
    n: usize,
    clock: Clock,
    model: DeliveryModel,
    /// Parked envelopes by `(release time, send order)`: equal release
    /// times go in send order.
    parked: BTreeMap<(Instant, u64), Envelope>,
    /// Latest release time given out on each `(src, dst)` pair.
    pair_floor: Vec<Instant>,
    /// Shared-bus model: the instant the medium frees up.
    bus_free: Instant,
    order: u64,
}

impl Schedule {
    pub(crate) fn new(n: usize, model: DeliveryModel, clock: Clock) -> Self {
        let now = clock.now();
        Schedule {
            n,
            clock,
            model,
            parked: BTreeMap::new(),
            pair_floor: vec![now; n * n],
            bus_free: now,
            order: 0,
        }
    }

    /// Park `env`, to be released `stall` past the model's delay.
    pub(crate) fn push(&mut self, env: Envelope, stall: Duration) {
        let now = self.clock.now();
        let due = match self.model {
            DeliveryModel::Delayed {
                base,
                per_kib,
                jitter,
                seed,
            } => {
                let kib = env.len().div_ceil(1024) as u32;
                let jitter = match jitter.as_nanos() as u64 {
                    0 => Duration::ZERO,
                    span => Duration::from_nanos(
                        link_hash(seed, env.src, env.dst, env.seq, SALT_JITTER) % span,
                    ),
                };
                now + base + per_kib * kib + jitter
            }
            DeliveryModel::SharedBus {
                latency,
                bytes_per_sec,
            } => {
                let start = self.bus_free.max(now);
                let tx_ns = (env.len() as u128).saturating_mul(1_000_000_000)
                    / (bytes_per_sec as u128).max(1);
                self.bus_free = start + Duration::from_nanos(tx_ns as u64);
                self.bus_free + latency
            }
            DeliveryModel::Direct | DeliveryModel::Held => now,
        } + stall;
        // Equal release times go in send order, so a pair stays FIFO
        // as long as its release times never go backwards.
        let floor = &mut self.pair_floor[env.src * self.n + env.dst];
        let due = due.max(*floor);
        *floor = due;
        self.order += 1;
        self.parked.insert((due, self.order), env);
    }

    /// The next envelope whose release time has come, if any.
    pub(crate) fn pop_due(&mut self) -> Option<Envelope> {
        let entry = self.parked.first_entry()?;
        (entry.key().0 <= self.clock.now()).then(|| entry.remove())
    }

    /// Drop everything scheduled toward `dst`; returns how many.
    pub(crate) fn purge(&mut self, dst: Rank) -> usize {
        let before = self.parked.len();
        self.parked.retain(|_, env| env.dst != dst);
        before - self.parked.len()
    }
}
