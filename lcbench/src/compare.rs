//! `lcbench compare <a.jsonl> <b.jsonl>`: two sets of untraced runs
//! (history lines), side by side. One row per workload × end-to-end
//! metric with both medians and quartiles over the runs of each set,
//! the change in percent, the metric's bound, and a verdict:
//!
//! * `unresolved` — either set's inter-quartile range is wider than
//!   the bound, so the sets cannot settle a difference of that size;
//! * `worse` — `b`'s median is worse than `a`'s by more than the bound;
//! * `better` — `b`'s median is better by more than the bound and by
//!   more than `a`'s own inter-quartile range;
//! * `same` — otherwise.

use crate::json::{parse, Value};
use crate::stats::{median, quartiles};
use crate::workloads::{END_TO_END, SPECS};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Judge one metric: `a` and `b` are each set's per-run values.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let (iqr_a, iqr_b) = (spread(a), spread(b));
    // Positive = worse, as a share of a's median.
    let worse_by = if higher_is_better { ma - mb } else { mb - ma };
    let worsening = worse_by / ma.abs().max(f64::MIN_POSITIVE);
    let verdict = if iqr_a / ma.abs() > bound || iqr_b / mb.abs() > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if -worsening > bound && -worsening * ma.abs() > iqr_a {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worsening * 100.0, verdict)
}

fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    q3 - q1
}

/// Per workload: per metric the runs' medians, plus failures and attempts.
#[derive(Default)]
struct Set {
    metrics: BTreeMap<(String, String), Vec<f64>>,
    failed: BTreeMap<String, (f64, f64)>,
}

fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = Set::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let field = |key: &str| v.get(key).ok_or(format!("{path}:{}: no \"{key}\"", i + 1));
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let f = set.failed.entry(workload.clone()).or_default();
        f.0 += field("failed")?.as_f64().unwrap_or(0.0);
        f.1 += field("attempted")?.as_f64().unwrap_or(0.0);
        let Value::Obj(metrics) = field("metrics")? else {
            return Err(format!("{path}:{}: \"metrics\" is not an object", i + 1));
        };
        for (name, summary) in metrics {
            if let Some(m) = summary.get("median").and_then(Value::as_f64) {
                set.metrics
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(m);
            }
        }
    }
    Ok(set)
}

/// Print the table; `Ok(true)` when nothing got worse.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut ok = true;
    println!(
        "{:<15} {:<24} {:>12} {:>10} {:>12} {:>10} {:>8} {:>6}  verdict",
        "workload", "metric", "a.median", "a.iqr", "b.median", "b.iqr", "worse%", "bound%"
    );
    for spec in &SPECS {
        for (name, _, higher, bound) in END_TO_END {
            let key = (spec.name.to_string(), name.to_string());
            let (Some(va), Some(vb)) = (a.metrics.get(&key), b.metrics.get(&key)) else {
                continue;
            };
            let (pct, v) = verdict(va, vb, higher, bound);
            ok &= v != Verdict::Worse;
            println!(
                "{:<15} {:<24} {:>12.4} {:>10.4} {:>12.4} {:>10.4} {:>+8.2} {:>6.1}  {}",
                spec.name,
                name,
                median(va),
                spread(va),
                median(vb),
                spread(vb),
                pct,
                bound * 100.0,
                format!("{v:?}").to_lowercase()
            );
        }
        let share = |s: &Set| s.failed.get(spec.name).map_or(0.0, |(f, n)| f / n.max(1.0));
        if share(&b) > share(&a) {
            println!(
                "{:<15} failed share rose: {} -> {}",
                spec.name,
                share(&a),
                share(&b)
            );
            ok = false;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shift = |d: f64| a.map(|x| x + d);
        // Lower is better, bound 10 %.
        assert_eq!(verdict(&a, &shift(5.0), false, 0.10).1, Verdict::Same);
        assert_eq!(verdict(&a, &shift(15.0), false, 0.10).1, Verdict::Worse);
        assert_eq!(verdict(&a, &shift(-15.0), false, 0.10).1, Verdict::Better);
        // Higher is better: the same shifts read the other way.
        assert_eq!(verdict(&a, &shift(15.0), true, 0.10).1, Verdict::Better);
        assert_eq!(verdict(&a, &shift(-15.0), true, 0.10).1, Verdict::Worse);
        // A set noisier than the bound settles nothing.
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            verdict(&noisy, &shift(30.0), false, 0.10).1,
            Verdict::Unresolved
        );
        // An exact count: any worsening is worse, equality is same.
        assert_eq!(verdict(&[8.0; 5], &[8.0; 5], false, 0.0).1, Verdict::Same);
        assert_eq!(verdict(&[8.0; 5], &[9.0; 5], false, 0.0).1, Verdict::Worse);
        let (pct, _) = verdict(&a, &shift(15.0), false, 0.10);
        assert!((pct - 15.0).abs() < 1e-9);
    }
}
