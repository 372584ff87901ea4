//! Quickstart: write a tiny fault-tolerant parallel program against
//! the lclog runtime, crash a rank mid-run, and watch rollback
//! recovery restore the exact result.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use lclog::prelude::*;

/// A minimal ring computation: each round, every rank passes a token
/// to its right-hand neighbour and folds what it receives into its
/// state.
#[derive(Clone)]
struct TokenRing {
    rounds: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct RingState {
    round: u64,
    value: u64,
}
// Any state that can cross the wire can be checkpointed.
impl_wire_struct!(RingState { round, value });

const TAG: u32 = 1;

impl RankApp for TokenRing {
    type State = RingState;

    fn init(&self, rank: usize, _n: usize) -> RingState {
        RingState {
            round: 0,
            value: rank as u64 + 1,
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
        let right = (ctx.rank() + 1) % n;
        if ctx.rank() == 0 {
            ctx.send_value(right, TAG, &state.value).await?;
            let (_, incoming): (_, u64) = ctx.recv_value(RecvSpec::from(n - 1, TAG)).await?;
            state.value = state.value.wrapping_mul(31).wrapping_add(incoming);
        } else {
            let (_, incoming): (_, u64) =
                ctx.recv_value(RecvSpec::from(ctx.rank() - 1, TAG)).await?;
            state.value = state.value.wrapping_mul(31).wrapping_add(incoming);
            ctx.send_value(right, TAG, &state.value).await?;
        }
        state.round += 1;
        Ok(StepStatus::Continue)
    }

    fn digest(&self, state: &RingState) -> u64 {
        state.value
    }
}

fn main() {
    let app = TokenRing { rounds: 24 };
    let n = 4;

    // 1. A fault-free reference run under the paper's TDI protocol.
    let base = ClusterConfig::new(
        n,
        RunConfig::new(ProtocolKind::Tdi).with_checkpoint(CheckpointPolicy::EverySteps(5)),
    );
    let clean = Cluster::run(&base, app.clone()).expect("fault-free run");
    println!("fault-free digests: {:x?}", clean.digests);

    // 2. The same run, but rank 2 crashes before its 11th step. Its
    //    incarnation restores the last checkpoint, broadcasts ROLLBACK,
    //    and rolls forward from the other ranks' message logs.
    let faulty_cfg = base.with_failures(FailurePlan::kill_at(2, 11));
    let faulty = Cluster::run(&faulty_cfg, app).expect("recovered run");
    println!("post-crash digests:  {:x?}  (kills: {})", faulty.digests, faulty.kills);

    assert_eq!(clean.digests, faulty.digests, "recovery must be transparent");
    println!(
        "\nrecovery was exact. piggyback: {:.1} identifiers/message \
         ({} messages, {:.1} bytes/message)",
        faulty.stats.avg_ids_per_msg(),
        faulty.stats.sends,
        faulty.stats.avg_bytes_per_msg(),
    );
}
