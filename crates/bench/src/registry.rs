//! The one list of tables `reproduce` prints, and what each promises.
//!
//! A **figure** (Figs. 6–8) is sized by `--quick`, printed and archived
//! under `results/`, and never compared: its columns read wall clocks or
//! threads. A **golden** table has one size, and every cell replays byte
//! for byte; the test suite regenerates each one and compares it with
//! the committed `results/<csv>.csv`.

use crate::experiments::{
    ablation_chaos, explore_table, fig6_table, fig7_table, fig8_table, hotpath_table,
    log_ship_table, overhead_matrix, scaling_table, ExpConfig, OverheadCell,
};
use crate::table::Table;
use lclog_explore::ReplayCase;
use std::cell::OnceCell;

/// File under `results/` that EXP1's shrunk counterexample is saved to.
pub const COUNTEREXAMPLE: &str = "explore_counterexample.case";

/// The figure sweep one `reproduce` run shares: its size and, once
/// Fig. 6 or Fig. 7 asks for it, the fault-free overhead matrix both
/// read.
pub struct Sweep {
    /// Size of every figure run.
    pub cfg: ExpConfig,
    cells: OnceCell<Vec<OverheadCell>>,
}

impl Sweep {
    /// The paper's sweep, or a fast one for smoke runs.
    pub fn new(quick: bool) -> Self {
        Sweep {
            cfg: if quick {
                ExpConfig::quick()
            } else {
                ExpConfig::full()
            },
            cells: OnceCell::new(),
        }
    }

    /// The overhead matrix, run on first use.
    pub fn cells(&self) -> &[OverheadCell] {
        self.cells.get_or_init(|| overhead_matrix(&self.cfg))
    }
}

/// How a table runs, and what its bytes promise.
pub enum Run {
    /// A paper figure: sized by the sweep, not compared.
    Figure(fn(&Sweep) -> Table),
    /// A golden table: one size, compared byte for byte by the tests.
    Golden(fn() -> Output),
}

/// What one run of a registered table produced.
pub struct Output {
    /// The table, printed and saved as `results/<csv>.csv`.
    pub table: Table,
    /// EXP1's shrunk counterexample, saved as [`COUNTEREXAMPLE`].
    pub case: Option<ReplayCase>,
}

impl From<Table> for Output {
    fn from(table: Table) -> Self {
        Output { table, case: None }
    }
}

impl Output {
    /// Every file this output saves under `results/`, with its bytes.
    pub fn files(&self, csv: &str) -> Vec<(String, String)> {
        let mut files = vec![(format!("{csv}.csv"), self.table.to_csv())];
        if let Some(case) = &self.case {
            files.push((COUNTEREXAMPLE.to_string(), case.to_string()));
        }
        files
    }
}

/// One table `reproduce` can print.
pub struct Experiment {
    /// Name on the `reproduce` command line.
    pub name: &'static str,
    /// File stem of its CSV under `results/`.
    pub csv: &'static str,
    /// How it runs.
    pub run: Run,
}

impl Experiment {
    /// Run the table (a figure at the sweep's size).
    pub fn output(&self, sweep: &Sweep) -> Output {
        match self.run {
            Run::Figure(f) => f(sweep).into(),
            Run::Golden(f) => f(),
        }
    }
}

/// Every table, in the order `reproduce` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig6",
        csv: "fig6_piggyback",
        run: Run::Figure(|s| fig6_table(s.cells())),
    },
    Experiment {
        name: "fig7",
        csv: "fig7_tracking",
        run: Run::Figure(|s| fig7_table(s.cells())),
    },
    Experiment {
        name: "fig8",
        csv: "fig8_blocking",
        run: Run::Figure(|s| fig8_table(&s.cfg)),
    },
    Experiment {
        name: "ablation-chaos",
        csv: "ablation_chaos",
        run: Run::Golden(|| ablation_chaos().into()),
    },
    Experiment {
        name: "explore",
        csv: "explore",
        run: Run::Golden(|| {
            let (table, case) = explore_table();
            Output { table, case }
        }),
    },
    Experiment {
        name: "log-ship",
        csv: "log_ship",
        run: Run::Golden(|| log_ship_table().into()),
    },
    Experiment {
        name: "scaling",
        csv: "scaling",
        run: Run::Golden(|| scaling_table().into()),
    },
    Experiment {
        name: "hotpath",
        csv: "hotpath",
        run: Run::Golden(|| hotpath_table().into()),
    },
];

/// A committed file under the repository's `results/`.
#[cfg(test)]
pub(crate) fn committed(file: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Where a fresh file first departs from the committed one.
    fn first_difference(file: &str, fresh: &str) -> Option<String> {
        let committed = committed(file);
        if committed == fresh {
            return None;
        }
        let (a, b): (Vec<&str>, Vec<&str>) = (committed.lines().collect(), fresh.lines().collect());
        let n = a.len().max(b.len());
        let i = (0..n).find(|&i| a.get(i) != b.get(i)).unwrap_or(n);
        let end = "<end of file>";
        Some(format!(
            "results/{file} line {}\n  committed: {}\n  fresh:     {}",
            i + 1,
            a.get(i).unwrap_or(&end),
            b.get(i).unwrap_or(&end)
        ))
    }

    #[test]
    fn golden_tables_replay_byte_for_byte() {
        // One thread per table: EXP1 alone takes most of the time.
        let diffs: Vec<String> = std::thread::scope(|s| {
            let runs: Vec<_> = EXPERIMENTS
                .iter()
                .filter_map(|e| match e.run {
                    Run::Golden(f) => Some((e, s.spawn(f))),
                    Run::Figure(_) => None,
                })
                .collect();
            runs.into_iter()
                .flat_map(|(e, run)| {
                    let out = run.join().expect("golden table run");
                    out.files(e.csv)
                        .into_iter()
                        .filter_map(|(file, fresh)| first_difference(&file, &fresh))
                        .map(|diff| {
                            format!(
                                "{diff}\n  if the change is intended, regenerate with \
                                 `cargo run --release -p lclog-bench --bin reproduce -- {}`",
                                e.name
                            )
                        })
                        .collect::<Vec<_>>()
                })
                .collect()
        });
        assert!(
            diffs.is_empty(),
            "golden tables moved:\n{}",
            diffs.join("\n")
        );
    }
}
