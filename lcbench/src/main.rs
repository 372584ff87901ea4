//! lcbench — the repository's benchmark. See README.md beside this
//! package for the workloads, the metrics and how to read a trace.
//!
//! ```text
//! lcbench --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--history <path>]
//! lcbench compare <a.jsonl> <b.jsonl>
//! lcbench check [--seed <u64>]
//! lcbench spec                      # prints BENCHMARK.json
//! ```

mod check;
mod compare;
mod floors;
mod json;
mod report;
mod rig;
mod ring;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

/// Where runs leave their files, relative to the working directory
/// (the root of the checkout).
const RESULTS_DIR: &str = "results/lcbench";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn seed(args: &[String]) -> Result<u64, String> {
    match flag(args, "--seed") {
        Some(text) => text
            .parse()
            .map_err(|_| format!("--seed {text:?} is not an unsigned integer")),
        None => Ok(check::DEFAULT_SEED),
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let spec = workloads::spec(name).ok_or_else(|| {
        let names: Vec<_> = workloads::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let seed = seed(args)?;
    let seconds = match flag(args, "--seconds") {
        Some(text) => text
            .parse()
            .ok()
            .filter(|s: &f64| s.is_finite() && *s >= 0.0)
            .ok_or("--seconds is not a non-negative number")?,
        None => f64::from(report::RUN_SECONDS),
    };
    let results = Path::new(RESULTS_DIR);
    match flag(args, "--trace").unwrap_or("0") {
        "0" => {
            let r = workloads::run(spec, seed, seconds);
            report::print_end_to_end(spec, seed, &r);
            let history = flag(args, "--history").map_or(results.join("history.jsonl"), Into::into);
            report::append_history(&history, spec, seed, &r)
                .map_err(|e| format!("{}: {e}", history.display()))?;
            let metrics: Vec<_> = workloads::END_TO_END
                .iter()
                .zip(&r.metrics)
                .map(|((name, unit, ..), s)| (name.to_string(), *unit, s.median))
                .collect();
            println!("{}", report::result_line(r.attempted, r.failed, &metrics));
            Ok(r.failed == 0)
        }
        "1" => {
            let t = workloads::run_traced(spec, seed);
            let layers = report::layer_metrics(Some(&t));
            report::print_layers(spec, seed, &layers);
            std::fs::create_dir_all(results).map_err(|e| format!("{RESULTS_DIR}: {e}"))?;
            let path = results.join(format!("{}.trace.jsonl", spec.name));
            t.log
                .write_jsonl(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let metrics: Vec<_> = layers
                .iter()
                .map(|m| (m.name.clone(), m.unit, m.value))
                .collect();
            println!("{}", report::result_line(t.attempted, t.failed, &metrics));
            Ok(t.failed == 0)
        }
        other => Err(format!("--trace {other:?} is neither 0 nor 1")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => compare::compare(a, b),
            _ => Err("usage: lcbench compare <a.jsonl> <b.jsonl>".into()),
        },
        Some("check") => seed(&args).map(check::check),
        Some("spec") => {
            print!("{}", report::benchmark_json());
            Ok(true)
        }
        _ => run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("lcbench: {msg}");
            ExitCode::from(2)
        }
    }
}
