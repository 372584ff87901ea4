//! `reproduce` — regenerate the paper's figures and the golden tables.
//!
//! ```text
//! reproduce [--quick] [all | <name>...]
//! reproduce explore --replay <case-file>
//! ```
//!
//! Names come from [`lclog_bench::EXPERIMENTS`]; with none, every table
//! runs. An unknown name or flag prints the names and exits 2. Tables
//! are printed to stdout and saved under `results/`. `--quick` shrinks
//! only the figures: a golden table has one size. `--replay` re-executes
//! a counterexample case file (EXP1 saves one on divergence) through the
//! deterministic runner and prints the per-step timeline.

use lclog_bench::{Sweep, EXPERIMENTS};
use std::path::Path;

/// Replay a counterexample case file through the deterministic runner
/// and print a per-step timeline. Returns an error string for `main`
/// to surface with a nonzero exit.
fn replay(path: &str) -> Result<(), String> {
    use lclog_explore::{replay_trace, ReplayCase, Verdict};

    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let case: ReplayCase = text.parse().map_err(|e| format!("{path}: {e}"))?;
    println!("replaying {path}");
    print!("{case}");
    println!();
    let (out, timeline) = replay_trace(&case);
    for (i, step) in timeline.iter().enumerate() {
        println!(
            "  step {i:3}  {}{}",
            step.action,
            if step.chosen() {
                format!("  [picked {} of {}]", step.picked, step.arity)
            } else {
                String::new()
            }
        );
    }
    println!();
    match &out.verdict {
        Verdict::Completed => println!("verdict: completed"),
        Verdict::Wedged { unfinished } => {
            println!("verdict: WEDGED — unfinished ranks {unfinished:?}")
        }
        Verdict::Desynced => println!("verdict: DESYNCED"),
        Verdict::LogFreed {
            sender,
            receiver,
            send_index,
        } => println!("verdict: LOG FREED — {sender}'s log lost {send_index} to {receiver}"),
        Verdict::Aborted => println!("verdict: aborted by decider"),
    }
    println!("faults injected: {}", out.faults_injected);
    println!("delivered:       {}", out.delivered);
    println!("digests:         {:?}", out.digests);
    Ok(())
}

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!("reproduce: {problem}");
    eprintln!("usage: reproduce [--quick] [all | <name>...]");
    eprintln!("       reproduce explore --replay <case-file>");
    eprintln!("names: {}", names.join(" "));
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut replay_path = None;
    let mut names: Vec<&str> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--replay" => {
                let path = args.next();
                replay_path =
                    Some(path.unwrap_or_else(|| usage("--replay needs a case-file path")));
            }
            "all" => names.extend(EXPERIMENTS.iter().map(|e| e.name)),
            other => match EXPERIMENTS.iter().find(|e| e.name == other) {
                Some(e) => names.push(e.name),
                None => usage(&format!("unknown table or flag `{other}`")),
            },
        }
    }
    if let Some(path) = replay_path {
        if let Err(e) = replay(&path) {
            eprintln!("replay failed: {e}");
            std::process::exit(1);
        }
        return;
    }

    let sweep = Sweep::new(quick);
    println!(
        "lclog reproduction — figures at class {}, procs {:?}{}",
        sweep.cfg.class,
        sweep.cfg.procs,
        if quick { " (quick)" } else { "" }
    );
    println!();
    let dir = Path::new("results");
    for e in EXPERIMENTS
        .iter()
        .filter(|e| names.is_empty() || names.contains(&e.name))
    {
        let out = e.output(&sweep);
        print!("{}", out.table.render());
        for (file, text) in out.files(e.csv) {
            let path = dir.join(file);
            match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
                Ok(()) => println!("(saved {})", path.display()),
                Err(err) => eprintln!("cannot save {}: {err}", path.display()),
            }
        }
        println!();
    }
}
