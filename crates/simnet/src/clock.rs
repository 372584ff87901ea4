//! Time sources: the wall clock or a virtual one.
//!
//! A [`SimClock`] is a shared counter of simulated nanoseconds,
//! anchored to an arbitrary epoch [`Instant`] so existing code that
//! stores and compares `Instant`s keeps working unchanged. Nothing
//! advances it but explicit [`SimClock::advance`] calls — on a
//! deterministic run the scheduler owns *all* progress of time, so
//! every timeout and backoff decision is a pure function of
//! the schedule instead of the host's wall clock.
//!
//! A [`Clock`] is the choice between the two. The fabric reads it for
//! release times (see [`crate::SimNet::with_clock`]), and every
//! kernel-path timestamp of the runtime above it flows through the
//! same clock, so under [`Clock::Sim`] retransmission backoff,
//! rebroadcast intervals, rendezvous resends, timeline stamps
//! and fabric latency are all pure functions of the simulated
//! schedule. Only watchdogs and reported wall times read real time.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Where the fabric and the kernel stack read "now" from.
#[derive(Debug, Clone, Default)]
pub enum Clock {
    /// The wall clock (`Instant::now`) — standalone fabrics and
    /// kernels driven outside a round driver.
    #[default]
    Real,
    /// A shared virtual clock advanced only by the simulation
    /// scheduler — deterministic runs.
    Sim(SimClock),
}

impl Clock {
    /// The current time, from whichever source this clock wraps.
    pub fn now(&self) -> Instant {
        match self {
            Clock::Real => Instant::now(),
            Clock::Sim(sim) => sim.now(),
        }
    }

    /// Time since this clock's epoch: a [`SimClock`]'s simulated time,
    /// or for the wall clock the time since its first such reading in
    /// this process. For components that keep durations, not instants.
    pub fn elapsed(&self) -> Duration {
        match self {
            Clock::Real => {
                static EPOCH: OnceLock<Instant> = OnceLock::new();
                EPOCH.get_or_init(Instant::now).elapsed()
            }
            Clock::Sim(sim) => sim.elapsed(),
        }
    }
}

/// A shared virtual clock. Cheap to clone; all clones tick together.
/// One thread drives a run, so the clones share a plain cell.
#[derive(Clone)]
pub struct SimClock {
    /// Wall-clock anchor taken once at construction. Only ever used as
    /// the zero point for `Instant` arithmetic — no code path reads
    /// the wall clock after this.
    epoch: Instant,
    nanos: Rc<Cell<u64>>,
}

impl SimClock {
    /// A new clock at simulated time zero.
    pub fn new() -> Self {
        SimClock {
            epoch: Instant::now(),
            nanos: Rc::new(Cell::new(0)),
        }
    }

    /// The current simulated time, expressed as an `Instant` so it
    /// composes with `Duration` arithmetic and comparisons exactly
    /// like wall-clock readings.
    pub fn now(&self) -> Instant {
        self.epoch + Duration::from_nanos(self.nanos.get())
    }

    /// Advance simulated time by `d`.
    pub fn advance(&self, d: Duration) {
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.nanos.set(self.nanos.get().wrapping_add(nanos));
    }

    /// Simulated time elapsed since construction.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.nanos.get())
    }
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SimClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimClock")
            .field("elapsed", &self.elapsed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_only_explicitly() {
        let c = SimClock::new();
        let t0 = c.now();
        assert_eq!(c.now(), t0, "time stands still without advance");
        c.advance(Duration::from_millis(5));
        assert_eq!(c.now() - t0, Duration::from_millis(5));
        assert_eq!(c.elapsed(), Duration::from_millis(5));
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        b.advance(Duration::from_secs(1));
        assert_eq!(a.elapsed(), Duration::from_secs(1));
        assert_eq!(a.now(), b.now());
    }
}
