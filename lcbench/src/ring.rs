//! The benchmark's own neighbour-exchange ring: each round every rank
//! sends one payload to its right neighbour and folds the one from its
//! left. It is a copy of the shape `lclog-bench` uses for SC1, kept
//! here so that the generated load cannot change under the benchmark
//! when that crate does.
//!
//! The fold is a pure function of the seed, so the expected digests
//! are computed here without the runtime ([`reference_digests`]) and
//! every engine run is checked against them.

use crate::stats::SplitMix64;
use bytes::Bytes;
use lclog_runtime::{Fault, RecvSpec, TaskApp, TaskCtx, TaskPoll};
use lclog_wire::impl_wire_struct;

const EXCHANGE_TAG: u32 = 9;

fn mix(x: u64, salt: u64) -> u64 {
    (x ^ salt)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(23)
        .wrapping_add(0x1656_67B1_9E37_79F9)
}

#[derive(Debug, Clone)]
pub struct Ring {
    pub rounds: u64,
    /// Seeded per-run salt of the ranks' initial values.
    salt: u64,
    /// Seeded payload; the folded value overwrites its first 8 bytes.
    filler: Bytes,
}

#[derive(Debug, Clone, PartialEq)]
pub struct RingState {
    pub round: u64,
    pub sent: bool,
    pub acc: u64,
}
impl_wire_struct!(RingState { round, sent, acc });

impl Ring {
    pub fn new(rounds: u64, payload: usize, seed: u64) -> Ring {
        let mut rng = SplitMix64::new(seed);
        let salt = rng.next_u64();
        let mut filler = vec![0u8; payload.max(8)];
        rng.fill(&mut filler);
        Ring {
            rounds,
            salt,
            filler: Bytes::from(filler),
        }
    }

    fn initial(&self, rank: usize) -> u64 {
        mix(rank as u64, self.salt)
    }

    /// What every rank's digest must be after `rounds` rounds on `n`
    /// ranks, computed round by round without sending anything.
    pub fn reference_digests(&self, n: usize) -> Vec<u64> {
        let mut acc: Vec<u64> = (0..n).map(|r| self.initial(r)).collect();
        for round in 0..self.rounds {
            let out: Vec<u64> = acc.iter().map(|&a| mix(a, round)).collect();
            for (r, a) in acc.iter_mut().enumerate() {
                *a = mix(a.wrapping_add(out[(r + n - 1) % n]), round);
            }
        }
        acc.into_iter().map(|a| mix(a, self.rounds)).collect()
    }
}

impl TaskApp for Ring {
    type State = RingState;

    fn init(&self, rank: usize, _n: usize) -> RingState {
        RingState {
            round: 0,
            sent: false,
            acc: self.initial(rank),
        }
    }

    fn poll(&self, ctx: &mut TaskCtx<'_>, st: &mut RingState) -> Result<TaskPoll, Fault> {
        if st.round >= self.rounds {
            return Ok(TaskPoll::Done);
        }
        let (n, me) = (ctx.n(), ctx.rank());
        if !st.sent {
            let mut v = self.filler.to_vec();
            v[..8].copy_from_slice(&mix(st.acc, st.round).to_le_bytes());
            ctx.send((me + 1) % n, EXCHANGE_TAG, &v)?;
            st.sent = true;
        }
        let left = (me + n - 1) % n;
        match ctx.try_recv(RecvSpec::from(left, EXCHANGE_TAG))? {
            Some(msg) => {
                let head = msg.data.get(..8).ok_or(Fault::Desync)?;
                let v = u64::from_le_bytes(head.try_into().expect("8 bytes"));
                st.acc = mix(st.acc.wrapping_add(v), st.round);
                st.sent = false;
                st.round += 1;
                Ok(TaskPoll::Step)
            }
            None => Ok(TaskPoll::Pending),
        }
    }

    fn digest(&self, st: &RingState) -> u64 {
        mix(st.acc, st.round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lclog_core::ProtocolKind;
    use lclog_runtime::{run_tasks, CheckpointPolicy, ClusterConfig, EngineMode, RunConfig};

    #[test]
    fn engine_run_matches_the_reference_model() {
        let ring = Ring::new(6, 64, 42);
        let cfg = ClusterConfig::new(
            8,
            RunConfig::new(ProtocolKind::Tdi)
                .with_checkpoint(CheckpointPolicy::EverySteps(4))
                .with_engine(EngineMode::Tasks { workers: 2 }),
        );
        let report = run_tasks(&cfg, ring.clone()).expect("ring run");
        assert_eq!(report.digests, ring.reference_digests(8));
        assert_ne!(
            Ring::new(6, 64, 43).reference_digests(8),
            ring.reference_digests(8),
            "the seed reaches the digests"
        );
    }
}
