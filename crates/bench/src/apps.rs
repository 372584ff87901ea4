//! Synthetic applications for the ablation experiments: a token ring
//! (pure point-to-point at a controllable message rate), a hub
//! (collective-like fan-in/fan-out), and a neighbor-exchange ring
//! written as a [`TaskApp`] for the large-n scaling runs.

use lclog_runtime::{Fault, RankApp, RankCtx, RecvSpec, StepStatus, TaskApp, TaskCtx, TaskPoll};
use lclog_wire::impl_wire_struct;

fn mix(x: u64, salt: u64) -> u64 {
    (x ^ salt)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(23)
        .wrapping_add(0x1656_67B1_9E37_79F9)
}

/// Token ring: one message per rank per round.
#[derive(Debug, Clone, Copy)]
pub struct RingApp {
    /// Rounds to run.
    pub rounds: u64,
    /// Payload size in bytes.
    pub payload: usize,
}

/// Ring state.
#[derive(Debug, Clone, PartialEq)]
pub struct RingState {
    /// Completed rounds.
    pub round: u64,
    /// Rolling token value.
    pub token: u64,
}
impl_wire_struct!(RingState { round, token });

const RING_TAG: u32 = 7;

impl RankApp for RingApp {
    type State = RingState;

    fn init(&self, rank: usize, _n: usize) -> RingState {
        RingState {
            round: 0,
            token: mix(rank as u64, 0x1234),
        }
    }

    async fn step(
        &self,
        ctx: &mut RankCtx<'_>,
        state: &mut RingState,
    ) -> Result<StepStatus, Fault> {
        if state.round >= self.rounds {
            return Ok(StepStatus::Done);
        }
        let n = ctx.n();
        let r = ctx.rank();
        let right = (r + 1) % n;
        let payload = |token: u64| -> Vec<u8> {
            let mut v = vec![0u8; self.payload.max(8)];
            v[..8].copy_from_slice(&token.to_le_bytes());
            v
        };
        if r == 0 {
            let out = mix(state.token, state.round);
            ctx.send(right, RING_TAG, &payload(out)).await?;
            let msg = ctx.recv(RecvSpec::from(n - 1, RING_TAG)).await?;
            state.token = u64::from_le_bytes(msg.data[..8].try_into().expect("8-byte token"));
        } else {
            let msg = ctx.recv(RecvSpec::from(r - 1, RING_TAG)).await?;
            let t = u64::from_le_bytes(msg.data[..8].try_into().expect("8-byte token"));
            let out = mix(t, state.round ^ (r as u64) << 32);
            ctx.send(right, RING_TAG, &payload(out)).await?;
            state.token = out;
        }
        state.round += 1;
        Ok(StepStatus::Continue)
    }

    fn digest(&self, state: &RingState) -> u64 {
        mix(state.token, state.round)
    }
}

/// Hub: every round, all ranks send to rank 0 (`ANY_SOURCE` fan-in),
/// rank 0 combines and broadcasts back — the §II.C sum scenario.
#[derive(Debug, Clone, Copy)]
pub struct HubApp {
    /// Rounds to run.
    pub rounds: u64,
}

/// Hub state.
#[derive(Debug, Clone, PartialEq)]
pub struct HubState {
    /// Completed rounds.
    pub round: u64,
    /// Rolling accumulator.
    pub acc: u64,
}
impl_wire_struct!(HubState { round, acc });

impl RankApp for HubApp {
    type State = HubState;

    fn init(&self, rank: usize, _n: usize) -> HubState {
        HubState {
            round: 0,
            acc: mix(rank as u64, 0x5678),
        }
    }

    async fn step(&self, ctx: &mut RankCtx<'_>, state: &mut HubState) -> Result<StepStatus, Fault> {
        if state.round >= self.rounds {
            return Ok(StepStatus::Done);
        }
        let n = ctx.n();
        let r = ctx.rank();
        // Unique tags per round keep ANY_SOURCE matching safe.
        let up = 100 + (state.round as u32) * 2;
        let down = up + 1;
        if r == 0 {
            let mut contributions = vec![state.acc];
            for _ in 1..n {
                let (src, v): (_, u64) = ctx.recv_value(RecvSpec::any_source(up)).await?;
                contributions.push(mix(v, src as u64));
            }
            // Order-insensitive combine (sorted), per the paper's
            // commutativity observation.
            contributions.sort_unstable();
            let combined = contributions.into_iter().fold(0u64, |a, b| mix(a ^ b, 1));
            for dst in 1..n {
                ctx.send_value(dst, down, &combined).await?;
            }
            state.acc = combined;
        } else {
            ctx.send_value(0, up, &state.acc).await?;
            let (_, combined): (_, u64) = ctx.recv_value(RecvSpec::from(0, down)).await?;
            state.acc = combined;
        }
        state.round += 1;
        Ok(StepStatus::Continue)
    }

    fn digest(&self, state: &HubState) -> u64 {
        mix(state.acc, state.round)
    }
}

/// Neighbor-exchange ring for the SC1 scaling runs: each round every
/// rank sends one payload to its right neighbor and folds one from its
/// left, so all `n` messages of a round are in flight concurrently and
/// a round costs O(1) delivery sweeps regardless of `n`. Written as a
/// poll-style [`TaskApp`], the large-n scaling runs' workload.
#[derive(Debug, Clone, Copy)]
pub struct TaskRing {
    /// Rounds to run (each round is one step / checkpoint boundary).
    pub rounds: u64,
    /// Payload size in bytes (the folded value rides the first 8).
    pub payload: usize,
}

/// Neighbor-exchange state.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRingState {
    /// Completed rounds.
    pub round: u64,
    /// This round's send already issued.
    pub sent: bool,
    /// Rolling fold of everything received.
    pub acc: u64,
}
impl_wire_struct!(TaskRingState { round, sent, acc });

const EXCHANGE_TAG: u32 = 9;

impl TaskApp for TaskRing {
    type State = TaskRingState;

    fn init(&self, rank: usize, _n: usize) -> TaskRingState {
        TaskRingState {
            round: 0,
            sent: false,
            acc: mix(rank as u64, 0x9abc),
        }
    }

    fn poll(&self, ctx: &mut TaskCtx<'_>, st: &mut TaskRingState) -> Result<TaskPoll, Fault> {
        if st.round >= self.rounds {
            return Ok(TaskPoll::Done);
        }
        let n = ctx.n();
        let me = ctx.rank();
        if !st.sent {
            let out = mix(st.acc, st.round);
            let mut v = vec![0u8; self.payload.max(8)];
            v[..8].copy_from_slice(&out.to_le_bytes());
            ctx.send((me + 1) % n, EXCHANGE_TAG, &v)?;
            st.sent = true;
        }
        let left = (me + n - 1) % n;
        match ctx.try_recv(RecvSpec::from(left, EXCHANGE_TAG))? {
            Some(msg) => {
                let v = u64::from_le_bytes(msg.data[..8].try_into().expect("8-byte fold value"));
                st.acc = mix(st.acc.wrapping_add(v), st.round);
                st.sent = false;
                st.round += 1;
                Ok(TaskPoll::Step)
            }
            None => Ok(TaskPoll::Pending),
        }
    }

    fn digest(&self, st: &TaskRingState) -> u64 {
        mix(st.acc, st.round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lclog_core::ProtocolKind;
    use lclog_runtime::{
        run_tasks, CheckpointPolicy, Cluster, ClusterConfig, FailurePlan, RunConfig,
    };
    use std::time::Duration;

    fn cfg(n: usize) -> ClusterConfig {
        ClusterConfig::new(
            n,
            RunConfig::new(ProtocolKind::Tdi).with_checkpoint(CheckpointPolicy::EverySteps(4)),
        )
    }

    #[test]
    fn ring_recovers_with_payloads() {
        let app = RingApp {
            rounds: 12,
            payload: 256,
        };
        let clean = Cluster::run(&cfg(4), app).unwrap();
        let faulty = Cluster::run(&cfg(4).with_failures(FailurePlan::kill_at(2, 6)), app).unwrap();
        assert_eq!(clean.digests, faulty.digests);
        // Without a fault nothing is resent from a sender log.
        assert_eq!(clean.data_plane.zero_copy_resends, 0);
    }

    #[test]
    fn task_ring_recovers_to_its_clean_digests() {
        let app = TaskRing {
            rounds: 8,
            payload: 64,
        };
        let tasks_cfg = cfg(4).with_max_wall(Duration::from_secs(30));
        let tasks = run_tasks(&tasks_cfg, app).unwrap().digests;
        let faulty = run_tasks(
            &tasks_cfg.clone().with_failures(FailurePlan::kill_at(2, 4)),
            app,
        )
        .unwrap();
        assert!(faulty.kills >= 1);
        assert_eq!(faulty.digests, tasks);
    }

    #[test]
    fn hub_recovers_with_anysource() {
        let app = HubApp { rounds: 10 };
        let clean = Cluster::run(&cfg(5), app).unwrap().digests;
        let faulty = Cluster::run(&cfg(5).with_failures(FailurePlan::kill_at(0, 5)), app)
            .unwrap()
            .digests;
        assert_eq!(clean, faulty);
    }
}
