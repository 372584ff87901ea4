//! The paper's worked scenarios (Figs. 1–3), driven end-to-end
//! through the facade crate.

use lclog::core::{make_protocol, DeliveryVerdict, ProtocolKind};
use lclog::npb::{run_benchmark, Benchmark, Class};
use lclog::prelude::*;

// ---------------------------------------------------------------------------
// Fig. 1 — the dependency chain m0..m5 at the protocol level.
// ---------------------------------------------------------------------------

#[test]
fn fig1_dependency_chain_under_tdi() {
    // Processes P0..P3; messages (paper numbering):
    //   m0: P0 -> P1,   m1: P3 -> P2,  m2: P2 -> P1 (after m1),
    //   m3: P1 -> P2 (after m0, m2),   m4: P3 -> P2,
    //   m5: P2 -> P1 (after m3, m4).
    let n = 4;
    let mut p0 = make_protocol(ProtocolKind::Tdi, 0, n);
    let mut p1 = make_protocol(ProtocolKind::Tdi, 1, n);
    let mut p2 = make_protocol(ProtocolKind::Tdi, 2, n);
    let mut p3 = make_protocol(ProtocolKind::Tdi, 3, n);

    let m0 = p0.on_send(1, 1);
    let m1 = p3.on_send(2, 1);
    p2.on_deliver(3, 1, &m1.piggyback).unwrap();
    let m2 = p2.on_send(1, 1);

    // §III.A: m0 and m2 both depend on interval 0 of P1 — either
    // delivery order is admissible. Take the "wrong" one.
    assert_eq!(p1.deliverable(2, 1, &m2.piggyback), DeliveryVerdict::Deliver);
    p1.on_deliver(2, 1, &m2.piggyback).unwrap();
    p1.on_deliver(0, 1, &m0.piggyback).unwrap();

    let m3 = p1.on_send(2, 1);
    p2.on_deliver(1, 1, &m3.piggyback).unwrap();
    let m4 = p3.on_send(2, 2);
    p2.on_deliver(3, 2, &m4.piggyback).unwrap();
    let m5 = p2.on_send(1, 2);

    // §III.A's worked vector: m5's dependency set simplifies to
    // V(0, 2, 2, 1) — and the m5 piggyback is exactly n identifiers.
    assert_eq!(m5.id_count, n as u64);
    // A fresh incarnation of P1 cannot deliver m5 until it has
    // delivered 2 messages (the "cannot deliver m5 until it has
    // delivered other 2 messages" rule).
    let mut p1_fresh = make_protocol(ProtocolKind::Tdi, 1, n);
    assert_eq!(
        p1_fresh.deliverable(2, 2, &m5.piggyback),
        DeliveryVerdict::Wait
    );
    p1_fresh.on_deliver(2, 1, &m2.piggyback).unwrap();
    assert_eq!(
        p1_fresh.deliverable(2, 2, &m5.piggyback),
        DeliveryVerdict::Wait,
        "one delivery is not enough"
    );
    p1_fresh.on_deliver(0, 1, &m0.piggyback).unwrap();
    assert_eq!(
        p1_fresh.deliverable(2, 2, &m5.piggyback),
        DeliveryVerdict::Deliver,
        "after two deliveries m5 becomes deliverable"
    );
}

// ---------------------------------------------------------------------------
// Fig. 2 — multiple simultaneous failures, end to end.
// ---------------------------------------------------------------------------

#[test]
fn fig2_simultaneous_failures_every_protocol() {
    let n = 5;
    for kind in ProtocolKind::ALL {
        let base = ClusterConfig::new(
            n,
            RunConfig::new(kind).with_checkpoint(CheckpointPolicy::EverySteps(5)),
        );
        let clean = run_benchmark(Benchmark::Lu, Class::Test, &base).expect("clean");
        let plan = FailurePlan::kill_at(1, 8).and_kill(2, 8).and_kill(3, 8);
        let faulty = run_benchmark(Benchmark::Lu, Class::Test, &base.with_failures(plan))
            .expect("recovered");
        assert_eq!(faulty.kills, 3, "{kind}");
        assert_eq!(clean.digests, faulty.digests, "{kind}: diverged");
    }
}

// ---------------------------------------------------------------------------
// Fig. 3 — repetitive messages during rolling forward are discarded.
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct CountingApp {
    rounds: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct CountState {
    round: u64,
    sum: u64,
    delivered: u64,
}
impl_wire_struct!(CountState {
    round,
    sum,
    delivered
});

impl RankApp for CountingApp {
    type State = CountState;

    fn init(&self, rank: usize, _n: usize) -> CountState {
        CountState {
            round: 0,
            sum: rank as u64,
            delivered: 0,
        }
    }

    async fn step(
        &self,
        ctx: &mut RankCtx<'_>,
        state: &mut CountState,
    ) -> Result<StepStatus, Fault> {
        if state.round >= self.rounds {
            return Ok(StepStatus::Done);
        }
        let n = ctx.n();
        let right = (ctx.rank() + 1) % n;
        let left = (ctx.rank() + n - 1) % n;
        // Everyone sends, then receives: exactly one message from the
        // left per round. If a repetitive message were ever delivered
        // twice, `delivered` would exceed rounds and digests diverge.
        ctx.send_value(right, 5, &(state.sum + state.round)).await?;
        let (_, v): (_, u64) = ctx.recv_value(RecvSpec::from(left, 5)).await?;
        state.sum = state.sum.wrapping_mul(33).wrapping_add(v);
        state.delivered += 1;
        state.round += 1;
        Ok(StepStatus::Continue)
    }

    fn digest(&self, state: &CountState) -> u64 {
        state.sum ^ (state.delivered << 32)
    }
}

#[test]
fn fig3_repetitive_messages_are_discarded_exactly_once_semantics() {
    let n = 4;
    let app = CountingApp { rounds: 15 };
    let base = ClusterConfig::new(
        n,
        RunConfig::new(ProtocolKind::Tdi).with_checkpoint(CheckpointPolicy::EverySteps(4)),
    );
    let clean = Cluster::run(&base, app.clone()).expect("clean");
    // Kill rank 1 right after it (re)sends: its incarnation rolls
    // forward and re-sends messages its neighbour already delivered.
    let faulty = Cluster::run(&base.with_failures(FailurePlan::kill_at(1, 7)), app)
        .expect("recovered");
    assert_eq!(clean.digests, faulty.digests);
    // Delivered counts embedded in the digest prove exactly-once
    // delivery despite duplicate transmissions.
}

// ---------------------------------------------------------------------------
// Cross-crate sanity through the facade.
// ---------------------------------------------------------------------------

#[test]
fn facade_reexports_compose() {
    let cfg = ClusterConfig::new(2, RunConfig::new(ProtocolKind::Tel));
    let report = run_benchmark(Benchmark::Sp, Class::Test, &cfg).expect("run");
    assert_eq!(report.digests.len(), 2);
    assert!(report.stats.sends > 0);
}
