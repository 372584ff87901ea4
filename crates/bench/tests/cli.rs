//! `reproduce`'s command line: what it refuses, and the replay path.

use lclog_bench::EXPERIMENTS;
use std::path::Path;
use std::process::{Command, Output};

/// Run `reproduce` from the temp directory, so that a table it should
/// not have run cannot write into the repository's `results/`.
fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("reproduce starts")
}

#[test]
fn unknown_names_and_flags_list_the_registry_and_fail() {
    for args in [
        &["--quick", "fig9"][..],
        &["--quikc", "hotpath"],
        &["--help"],
    ] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for e in EXPERIMENTS {
            assert!(
                stderr.contains(e.name),
                "{args:?} does not list {}: {stderr}",
                e.name
            );
        }
    }
}

#[test]
fn replay_runs_the_committed_counterexample() {
    let case =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/explore_counterexample.case");
    let out = reproduce(&["explore", "--replay", case.to_str().expect("UTF-8 path")]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("verdict: completed"));
}
