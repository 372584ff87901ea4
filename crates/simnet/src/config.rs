use crate::chaos::ChaosConfig;
use std::time::Duration;

/// How the fabric moves envelopes from sender to receiver.
///
/// `Delayed` and `SharedBus` are *timed*: each envelope gets a release
/// time on the fabric's clock and is parked until then, and every
/// `try_recv` first releases whatever is due. Nothing runs in the background, so under a virtual clock
/// (see [`crate::SimNet::with_clock`]) the release schedule is a pure
/// function of the sends and of when the clock is advanced.
#[derive(Debug, Clone)]
pub enum DeliveryModel {
    /// Hand the envelope to the destination inbox synchronously inside
    /// `send`. Fast and deterministic-ish; used for overhead-counting
    /// experiments (Fig. 6/7) where transport time is irrelevant. A
    /// chaos stall makes a direct fabric timed too: stalled envelopes
    /// are released when due, the rest at once.
    Direct,
    /// Release each envelope `base + per_kib * ceil(len/1024) +
    /// jitter` after its send, the jitter uniform in `0..jitter` and
    /// drawn from a hash of `(seed, src, dst, seq)`, actively
    /// reordering messages from different senders. Used for recovery
    /// and blocking experiments (Fig. 8) and for adversarial
    /// reordering tests.
    Delayed {
        /// Fixed latency component.
        base: Duration,
        /// Additional latency per KiB of payload (models 100 Mb
        /// Ethernet-style bandwidth limits; the paper's Fig. 8 notes
        /// big BT messages block longer).
        per_kib: Duration,
        /// Upper bound of the uniform random jitter term.
        jitter: Duration,
        /// Jitter seed so runs are reproducible.
        seed: u64,
    },
    /// A single shared medium, like the paper's 100 Mb Ethernet
    /// segment: transmissions serialize on the bus (one frame at a
    /// time at `bytes_per_sec`), then propagate with `latency`. Big
    /// messages delay *everyone's* traffic — the contention effect
    /// behind the paper's Fig. 8 discussion of BT.
    SharedBus {
        /// Propagation latency after transmission completes.
        latency: Duration,
        /// Bus bandwidth.
        bytes_per_sec: u64,
    },
    /// Deterministic-simulation mode: `send` parks the envelope in a
    /// per-`(src, dst)` FIFO inside the fabric and *nothing* moves it
    /// until an external scheduler calls [`SimNet::held_deliver`] (or
    /// [`SimNet::held_deliver_all`]). No release times — arrival order
    /// is exactly the scheduler's decision sequence, so a run is a pure
    /// function of `(topology, workload, schedule)`. Chaos stalls do
    /// not apply: when to deliver is already the scheduler's decision.
    ///
    /// [`SimNet::held_deliver`]: crate::SimNet::held_deliver
    /// [`SimNet::held_deliver_all`]: crate::SimNet::held_deliver_all
    Held,
}

/// Fabric configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Delivery model for data envelopes.
    pub delivery: DeliveryModel,
    /// Seeded link stalls; `None` means every envelope is on schedule.
    pub chaos: Option<ChaosConfig>,
}

impl NetConfig {
    /// Zero-latency synchronous delivery.
    pub fn direct() -> Self {
        NetConfig {
            delivery: DeliveryModel::Direct,
            chaos: None,
        }
    }

    /// Per-message latency with the given parameters.
    pub fn delayed(base: Duration, per_kib: Duration, jitter: Duration, seed: u64) -> Self {
        NetConfig {
            delivery: DeliveryModel::Delayed {
                base,
                per_kib,
                jitter,
                seed,
            },
            chaos: None,
        }
    }

    /// Scheduler-held delivery for deterministic simulation: envelopes
    /// park per-channel until [`SimNet::held_deliver`] releases them.
    ///
    /// [`SimNet::held_deliver`]: crate::SimNet::held_deliver
    pub fn held() -> Self {
        NetConfig {
            delivery: DeliveryModel::Held,
            chaos: None,
        }
    }

    /// Installs seeded link stalls on this fabric.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// A mild default latency: 50 µs base, 20 µs/KiB, 100 µs jitter.
    /// Scaled-down stand-in for the paper's 100 Mb LAN.
    pub fn lan_like(seed: u64) -> Self {
        Self::delayed(
            Duration::from_micros(50),
            Duration::from_micros(20),
            Duration::from_micros(100),
            seed,
        )
    }

    /// A shared-medium fabric. A scaled-down stand-in for the paper's
    /// shared 100 Mb Ethernet segment: 30 µs propagation, 1 GiB/s bus
    /// (≈ 100 Mb Ethernet time-compressed 100×, keeping the
    /// contention *shape* while letting runs finish quickly).
    pub fn shared_bus() -> Self {
        NetConfig {
            delivery: DeliveryModel::SharedBus {
                latency: Duration::from_micros(30),
                bytes_per_sec: 1 << 30,
            },
            chaos: None,
        }
    }

    /// True when envelopes get release times (see [`DeliveryModel`]):
    /// a latency model, or a direct fabric with chaos stalls.
    pub fn is_timed(&self) -> bool {
        match self.delivery {
            DeliveryModel::Delayed { .. } | DeliveryModel::SharedBus { .. } => true,
            DeliveryModel::Direct => self.chaos.as_ref().is_some_and(|c| c.delay_p > 0.0),
            DeliveryModel::Held => false,
        }
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        Self::direct()
    }
}
