//! The workloads a service tenant can submit: small deterministic
//! communication kernels written as [`TaskApp`] state machines, which
//! the service's shared pool sweeps as tasks.
//!
//! Digests are pure functions of `(kind, n, rounds)` — independent of
//! the schedule, the rank namespace, and everything else about the
//! hosting service — which is what lets the soak tests and the SV1
//! table check a tenant's result against a standalone fault-free run.

use lclog_core::Rank;
use lclog_runtime::{Fault, RecvSpec, TaskApp, TaskCtx, TaskPoll};
use lclog_wire::impl_wire_struct;

/// Application message tag used by every service workload.
const TAG: u32 = 11;

/// splitmix64 finalizer — the repo's standard cheap value mixer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which communication kernel a submitted job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Neighbor-exchange ring: each round every rank sends right and
    /// folds from the left. All n messages of a round are concurrently
    /// in flight.
    Ring,
    /// Even/odd partner exchange: each round rank `r` swaps with
    /// `r ^ 1` (the last rank of an odd `n` self-steps). Pairwise
    /// traffic instead of a cycle.
    Pairs,
}

impl WorkloadKind {
    /// Parse a SUBMIT `kind=` value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "ring" => Ok(WorkloadKind::Ring),
            "pairs" => Ok(WorkloadKind::Pairs),
            other => Err(format!("unknown workload kind {other:?} (ring|pairs)")),
        }
    }

    /// The SUBMIT spelling.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Ring => "ring",
            WorkloadKind::Pairs => "pairs",
        }
    }
}

/// Serializable per-rank state shared by both workloads: a round
/// counter, a sent-this-round latch, and the folded accumulator.
#[derive(Debug, Clone, PartialEq)]
pub struct ExchangeState {
    round: u64,
    sent: bool,
    acc: u64,
}

impl_wire_struct!(ExchangeState { round, sent, acc });

/// A service workload: one of the [`WorkloadKind`] kernels run for a
/// fixed number of rounds.
pub struct Workload {
    kind: WorkloadKind,
    rounds: u64,
}

impl Workload {
    /// Build a workload instance.
    pub fn new(kind: WorkloadKind, rounds: u64) -> Self {
        Workload { kind, rounds }
    }

    /// The peer `rank` exchanges with this `round` (`None` = self-step:
    /// fold a constant instead of a message).
    fn peer(&self, rank: Rank, n: usize) -> Option<Rank> {
        match self.kind {
            WorkloadKind::Ring => {
                if n == 1 {
                    None
                } else {
                    Some((rank + 1) % n)
                }
            }
            WorkloadKind::Pairs => {
                let partner = rank ^ 1;
                if partner < n {
                    Some(partner)
                } else {
                    None
                }
            }
        }
    }

    /// Who this rank receives from (for the ring the sender is the
    /// left neighbor; pairs are symmetric).
    fn source(&self, rank: Rank, n: usize) -> Option<Rank> {
        match self.kind {
            WorkloadKind::Ring => {
                if n == 1 {
                    None
                } else {
                    Some((rank + n - 1) % n)
                }
            }
            WorkloadKind::Pairs => self.peer(rank, n),
        }
    }
}

impl TaskApp for Workload {
    type State = ExchangeState;

    fn init(&self, rank: Rank, _n: usize) -> ExchangeState {
        ExchangeState {
            round: 0,
            sent: false,
            acc: mix(rank as u64 ^ ((self.kind as u64) << 32)),
        }
    }

    fn poll(&self, ctx: &mut TaskCtx<'_>, st: &mut ExchangeState) -> Result<TaskPoll, Fault> {
        if st.round >= self.rounds {
            return Ok(TaskPoll::Done);
        }
        let me = ctx.rank();
        let n = ctx.n();
        let Some(dst) = self.peer(me, n) else {
            // Unpaired rank: deterministic solo fold keeps rounds in
            // lockstep with everyone else's step count.
            st.acc = mix(st.acc ^ st.round);
            st.round += 1;
            return Ok(TaskPoll::Step);
        };
        if !st.sent {
            let payload = mix(st.acc ^ st.round);
            ctx.send_value(dst, TAG, &payload)?;
            st.sent = true;
        }
        let src = self.source(me, n).expect("paired rank has a source");
        match ctx.try_recv_value::<u64>(RecvSpec::from(src, TAG))? {
            Some((_, v)) => {
                st.acc = mix(st.acc.wrapping_add(v));
                st.sent = false;
                st.round += 1;
                Ok(TaskPoll::Step)
            }
            None => Ok(TaskPoll::Pending),
        }
    }

    fn digest(&self, st: &ExchangeState) -> u64 {
        mix(st.acc ^ st.round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lclog_runtime::{run_tasks, CheckpointPolicy, ClusterConfig, RunConfig};
    use lclog_core::ProtocolKind;

    fn cfg(n: usize) -> ClusterConfig {
        ClusterConfig::new(
            n,
            RunConfig::new(ProtocolKind::Tdi).with_checkpoint(CheckpointPolicy::EverySteps(2)),
        )
    }

    #[test]
    fn workloads_complete_and_digest_deterministically() {
        for kind in [WorkloadKind::Ring, WorkloadKind::Pairs] {
            let a = run_tasks(&cfg(4), Workload::new(kind, 6)).unwrap();
            let b = run_tasks(&cfg(4), Workload::new(kind, 6)).unwrap();
            assert_eq!(a.digests, b.digests, "{kind:?} must be deterministic");
        }
    }

    #[test]
    fn pairs_handles_odd_rank_counts() {
        let r = run_tasks(&cfg(5), Workload::new(WorkloadKind::Pairs, 4)).unwrap();
        assert_eq!(r.digests.len(), 5);
    }
}
