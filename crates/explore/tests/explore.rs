//! End-to-end properties of the schedule explorer — including the
//! MPI_ANY_SOURCE order-insensitivity regression test, the injected
//! order-dependence mutation the explorer must catch and shrink, and
//! the DPOR-vs-brute-force equivalence pins.

use lclog_core::ProtocolKind;
use lclog_explore::{
    explore_dpor, explore_exhaustive, explore_sampled, run_schedule, run_schedule_with,
    ExploreConfig, Fold, Op, Payload, Trace, TraceDecider, Verdict, Workload,
};

/// The headline property: exhaustively enumerating every legal
/// schedule of an any-source gather workload — all arrival-order and
/// extraction-order interleavings the runtime's gate admits — yields
/// identical per-rank digests and identical TDI `depend_interval`
/// vectors. This is the paper's §III.E order-insensitivity claim as a
/// checked invariant rather than an observation.
#[test]
fn exhaustive_gather_n3_agrees_everywhere() {
    let w = Workload::rotating_gather(3, 3);
    let cfg = ExploreConfig {
        max_schedules: 50_000,
        ..Default::default()
    };
    let report = explore_exhaustive(&w, &cfg);
    assert!(
        report.divergence.is_none(),
        "divergence found: {:?}",
        report.divergence
    );
    assert!(report.exhausted, "tree larger than the cap");
    // Pinned: the fault-free n=3, 3-round gather tree has exactly this
    // many leaves. A drift here means the choice-point model changed —
    // deliberate changes must update the pin *and* re-justify the DPOR
    // census comparison below.
    assert_eq!(report.schedules, 3420, "schedule tree size drifted");
    assert!(report.max_arity >= 2, "no real choice points explored");
    assert_eq!(report.wedged, 0);
}

/// DPOR visits a fraction of the brute-force tree but must see every
/// distinct outcome: same digest census, no divergence, exhausted.
#[test]
fn dpor_matches_brute_force_census_at_n3() {
    let w = Workload::rotating_gather(3, 3);
    let cfg = ExploreConfig {
        max_schedules: 50_000,
        ..Default::default()
    };
    let brute = explore_exhaustive(&w, &cfg);
    let dpor = explore_dpor(&w, &cfg);
    assert!(dpor.divergence.is_none(), "{:?}", dpor.divergence);
    assert!(dpor.exhausted, "DPOR hit the execution cap");
    assert!(
        dpor.schedules < brute.schedules,
        "no reduction: DPOR ran {} schedules vs brute {}",
        dpor.schedules,
        brute.schedules
    );
    assert_eq!(
        dpor.digests_seen, brute.digests_seen,
        "sleep sets lost coverage: digest censuses differ"
    );
    assert_eq!(dpor.baseline_digests, brute.baseline_digests);
}

/// Injected order dependence: an order-sensitive fold must make
/// different schedules produce different digests, the explorer must
/// catch it, and the shrunk trace must (a) be no longer than the
/// original and (b) still replay to a failing schedule.
#[test]
fn order_sensitive_mutation_is_caught_and_shrunk() {
    let mut w = Workload::rotating_gather(3, 2);
    w.fold = Fold::OrderSensitive;
    let cfg = ExploreConfig::default();
    let report = explore_exhaustive(&w, &cfg);
    let div = report
        .divergence
        .expect("order-sensitive fold must diverge across schedules");
    assert!(div.shrunk.len() <= div.trace.len());

    // The shrunk trace is a real repro: replaying it disagrees with
    // the baseline (all-defaults) run.
    let mut base_d = TraceDecider::new(Trace::new());
    let baseline = run_schedule(&w, &mut base_d);
    let mut rep_d = TraceDecider::new(div.shrunk.clone());
    let replay = run_schedule(&w, &mut rep_d);
    assert!(
        !replay.agrees_with(&baseline),
        "shrunk trace {} no longer reproduces the divergence",
        div.shrunk
    );

    // DPOR must catch the same defect (possibly via a different
    // witness schedule — sleep sets only skip *equivalent* runs, and
    // an order-sensitive fold makes the reordered runs inequivalent).
    let dpor = explore_dpor(&w, &cfg);
    assert!(
        dpor.divergence.is_some(),
        "DPOR missed an order-dependence divergence brute force found"
    );
}

/// Satellite regression test: the same MPI_ANY_SOURCE workload under
/// two explicitly different legal schedules — the runtime's default
/// (always branch 0) and an adversarial one (always the second
/// alternative) — delivers in a different order but converges to the
/// same digests and the same `depend_interval` vectors.
#[test]
fn any_source_two_explicit_schedules_same_digest() {
    let w = Workload::rotating_gather(4, 3);

    let mut first = TraceDecider::new(Trace::new());
    let a = run_schedule(&w, &mut first);

    // All-ones trace, long enough to cover every choice point A hit
    // (clamped to the arity actually available at each point).
    let ones: Trace = vec![1; a.trace().len().max(16) * 2].into();
    let mut second = TraceDecider::new(ones);
    let b = run_schedule(&w, &mut second);

    assert_eq!(a.verdict, Verdict::Completed);
    assert_eq!(b.verdict, Verdict::Completed);
    assert_ne!(
        a.trace(),
        b.trace(),
        "the two schedules must actually differ"
    );
    assert_eq!(a.digests, b.digests, "digests diverged across schedules");
    assert_eq!(
        a.interval_vectors, b.interval_vectors,
        "depend_interval vectors diverged across schedules"
    );
    assert_eq!(a.delivered, b.delivered);
}

/// Sparse/dense cross-check at n = 3: the same workload explored
/// exhaustively under dense TDI and under the TDI-S delta codec must
/// agree schedule-for-schedule — same digests and the same
/// canonicalized dense `depend_interval` vectors. A codec bug that
/// over- or under-approximates the lattice shows up here as either a
/// digest divergence (wrong delivery order admitted) or an interval
/// divergence (wrong dependency recorded).
#[test]
fn sparse_and_dense_explorations_cross_check_at_n3() {
    let w = Workload::rotating_gather(3, 2);
    let cfg = |protocol| ExploreConfig {
        max_schedules: 50_000,
        protocol,
        ..Default::default()
    };
    let dense = explore_exhaustive(&w, &cfg(ProtocolKind::Tdi));
    let sparse = explore_exhaustive(&w, &cfg(ProtocolKind::TdiSparse(4)));
    assert!(dense.divergence.is_none(), "{:?}", dense.divergence);
    assert!(sparse.divergence.is_none(), "{:?}", sparse.divergence);
    assert!(dense.exhausted && sparse.exhausted);
    assert_eq!(
        dense.baseline_digests, sparse.baseline_digests,
        "codec changed application-visible behavior"
    );

    // And directly, run for run on the default schedule: the dense
    // interval vectors must be identical across codecs.
    let mut d1 = TraceDecider::new(Trace::new());
    let a = run_schedule_with(&w, &mut d1, ProtocolKind::Tdi);
    let mut d2 = TraceDecider::new(Trace::new());
    let b = run_schedule_with(&w, &mut d2, ProtocolKind::TdiSparse(4));
    assert_eq!(a.digests, b.digests);
    assert_eq!(
        a.interval_vectors, b.interval_vectors,
        "canonicalized depend_interval vectors must match across codecs"
    );
}

/// A receive that can never be satisfied must surface as a first-class
/// wedge verdict naming the stuck rank — not hang the runner or trip a
/// wall-clock watchdog (and a wedged run never agrees with a completed
/// baseline).
#[test]
fn unsatisfiable_receive_reports_wedged() {
    let mut w = Workload::new(2, Fold::Commutative);
    // Rank 0 waits for rank 1, which never sends.
    w.push(0, Op::Recv { src: Some(1), tag: 7 });
    let mut d = TraceDecider::new(Trace::new());
    let out = run_schedule(&w, &mut d);
    assert_eq!(out.verdict, Verdict::Wedged { unfinished: vec![0] });
    assert_eq!(out.delivered, 0);
}

/// Replay determinism: running the same trace twice yields an
/// identical outcome — digests, intervals, steps, everything.
#[test]
fn same_trace_replays_identically() {
    let w = Workload::rotating_gather(3, 2).with_payload(Payload::StateDependent);
    let trace: Trace = vec![2, 0, 1, 1, 0, 2, 1].into();
    let mut d1 = TraceDecider::new(trace.clone());
    let mut d2 = TraceDecider::new(trace);
    let a = run_schedule(&w, &mut d1);
    let b = run_schedule(&w, &mut d2);
    assert_eq!(a, b);
}

/// Seeded sampling on a tree too large to enumerate (n = 4): every
/// sampled schedule agrees with the baseline.
#[test]
fn sampled_gather_n4_agrees_everywhere() {
    let w = Workload::rotating_gather(4, 4);
    let cfg = ExploreConfig {
        samples: 64,
        ..Default::default()
    };
    let report = explore_sampled(&w, &cfg);
    assert!(
        report.divergence.is_none(),
        "divergence found: {:?}",
        report.divergence
    );
    assert_eq!(report.schedules, 65); // baseline + 64 samples
    assert!(report.max_arity >= 2);
}
