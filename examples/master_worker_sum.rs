//! The paper's §II.C motivating scenario: `n` workers send their
//! results to `P_0` to compute a sum, received with `MPI_ANY_SOURCE`.
//! Any delivery order yields the same answer, so the PWD model's
//! per-message order tracking is pure overhead — exactly what TDI
//! relaxes.
//!
//! This example runs the scenario under all three protocols, crashes
//! the master mid-run, verifies every protocol recovers to the same
//! sum, and prints the paper's Fig. 6-style piggyback comparison.
//!
//! ```text
//! cargo run --example master_worker_sum
//! ```

use lclog::prelude::*;
use lclog::runtime::collectives;

#[derive(Clone)]
struct MasterWorkerSum {
    rounds: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct SumState {
    round: u64,
    acc: f64,
}
impl_wire_struct!(SumState { round, acc });

impl RankApp for MasterWorkerSum {
    type State = SumState;

    fn init(&self, rank: usize, _n: usize) -> SumState {
        SumState {
            round: 0,
            acc: 1.0 + rank as f64 * 0.25,
        }
    }

    async fn step(&self, ctx: &mut RankCtx<'_>, state: &mut SumState) -> Result<StepStatus, Fault> {
        if state.round >= self.rounds {
            return Ok(StepStatus::Done);
        }
        // Workers contribute; rank 0 gathers with ANY_SOURCE inside
        // `reduce` and the fold is applied in rank order, so the
        // result is identical whatever order messages become
        // deliverable — in normal operation *and* during recovery.
        let tag = 10 + (state.round as u32) * 2;
        let total = collectives::allreduce_sum_f64(ctx, tag, state.acc * 0.9).await?;
        state.acc = 0.5 * state.acc + 0.1 * total;
        state.round += 1;
        Ok(StepStatus::Continue)
    }

    fn digest(&self, state: &SumState) -> u64 {
        state.acc.to_bits()
    }
}

fn main() {
    let n = 6;
    let app = MasterWorkerSum { rounds: 16 };
    println!("master-worker ANY_SOURCE sum, {n} ranks, master crash at step 7\n");
    println!(
        "{:<9} {:>14} {:>12} {:>14} {:>10}",
        "protocol", "ids/message", "bytes/msg", "tracking µs", "recovered"
    );

    let mut digests: Vec<Vec<u64>> = Vec::new();
    for kind in ProtocolKind::ALL {
        let base = ClusterConfig::new(
            n,
            RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(4)),
        );
        let clean = Cluster::run(&base, app.clone()).expect("clean run");
        let faulty = Cluster::run(
            &base.clone().with_failures(FailurePlan::kill_at(0, 7)),
            app.clone(),
        )
        .expect("recovered run");
        let ok = clean.digests == faulty.digests;
        println!(
            "{:<9} {:>14.1} {:>12.1} {:>14.1} {:>10}",
            kind.to_string(),
            faulty.stats.avg_ids_per_msg(),
            faulty.stats.avg_bytes_per_msg(),
            faulty.tracking_time.as_secs_f64() * 1e6,
            if ok { "yes" } else { "NO!" }
        );
        assert!(ok, "{kind} failed to recover exactly");
        digests.push(clean.digests);
    }
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
    println!("\nall protocols agree on the result; TDI piggybacks the least.");
}
