//! Fault choice points under exploration: crashes and crash+wipe
//! injected at every quiescent point of every schedule must all
//! converge back to the fault-free baseline's digests and
//! `depend_interval` vectors — the message-logging recovery guarantee
//! checked as an exhaustive invariant instead of a handful of scripted
//! failure scenarios.

use lclog_core::ProtocolKind;
use lclog_explore::{explore_dpor, ExploreConfig, FaultBudget, Workload};

fn cfg(faults: FaultBudget) -> ExploreConfig {
    ExploreConfig {
        max_schedules: 200_000,
        faults,
        ..Default::default()
    }
}

/// Exhaustive n=3 single-crash matrix: one crash (no wipe) injectable
/// before any enabled delivery of any schedule. Every schedule must
/// recover and agree with the fault-free baseline.
#[test]
fn crash_matrix_n3_agrees_everywhere() {
    let w = Workload::rotating_gather(3, 2);
    let report = explore_dpor(
        &w,
        &cfg(FaultBudget {
            crashes: 1,
            ..FaultBudget::none()
        }),
    );
    assert!(report.divergence.is_none(), "{:?}", report.divergence);
    assert!(report.exhausted, "crash matrix hit the execution cap");
    assert_eq!(report.wedged, 0, "a crash schedule wedged");
    // The fault-free DPOR tree is a strict subset of this one.
    let fault_free = explore_dpor(&w, &cfg(FaultBudget::none()));
    assert!(report.schedules > fault_free.schedules);
    assert_eq!(
        report.digests_seen, fault_free.digests_seen,
        "a crash schedule reached digests no fault-free schedule can"
    );
}

/// Same matrix under the TDI-S sparse codec: recovery resyncs delta
/// chains too.
#[test]
fn crash_matrix_n3_sparse_codec_agrees() {
    let w = Workload::rotating_gather(3, 1);
    let report = explore_dpor(
        &w,
        &ExploreConfig {
            protocol: ProtocolKind::TdiSparse(4),
            ..cfg(FaultBudget {
                crashes: 1,
                ..FaultBudget::none()
            })
        },
    );
    assert!(report.divergence.is_none(), "{:?}", report.divergence);
    assert!(report.exhausted);
    assert_eq!(report.wedged, 0);
}

/// Crash + storage wipe with checkpointing enabled: the victim comes
/// back from its most recent checkpoint (or from scratch when the
/// wipe beat the first checkpoint) and must still converge.
#[test]
fn crash_wipe_with_checkpoints_agrees() {
    let w = Workload::rotating_gather(3, 2).with_checkpoints(2);
    let report = explore_dpor(
        &w,
        &cfg(FaultBudget {
            wipes: 1,
            ..FaultBudget::none()
        }),
    );
    assert!(report.divergence.is_none(), "{:?}", report.divergence);
    assert!(report.exhausted);
    assert_eq!(report.wedged, 0, "a wipe schedule wedged");
}

/// Exhaustive n=4 with one crash choice point completes
/// and agrees everywhere — single crash, any target, any position,
/// composed with *all* downstream interleavings. A second run with
/// `FaultBudget::window` set must explore a strict subset of the same
/// tree (the window is the declared bound that keeps *larger*
/// matrices finite; here it only trims late injection points).
#[test]
fn crash_matrix_n4_agrees_everywhere() {
    let w = Workload::rotating_gather(4, 1);
    let report = explore_dpor(
        &w,
        &cfg(FaultBudget {
            crashes: 1,
            ..FaultBudget::none()
        }),
    );
    assert!(report.divergence.is_none(), "{:?}", report.divergence);
    assert!(report.exhausted, "n=4 crash matrix hit the execution cap");
    assert_eq!(report.wedged, 0);
    assert!(report.max_arity >= 4, "fault alts missing from the frontier");

    let windowed = explore_dpor(
        &w,
        &cfg(FaultBudget {
            crashes: 1,
            window: 2,
            ..FaultBudget::none()
        }),
    );
    assert!(windowed.divergence.is_none(), "{:?}", windowed.divergence);
    assert!(windowed.exhausted);
    assert!(
        windowed.schedules < report.schedules,
        "window did not prune late injection points"
    );
    assert!(windowed.digests_seen.is_subset(&report.digests_seen));
}
