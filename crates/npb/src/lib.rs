//! # lclog-npb
//!
//! Communication-kernel ports of the three NAS NPB2.3 benchmarks the
//! paper evaluates with — LU, BT and SP — targeting the lclog runtime
//! instead of MPI.
//!
//! These are not the full CFD solvers: they are scaled-down kernels
//! with the *same decomposition, message pattern, message sizes and
//! state-size character* as the originals, performing real `f64`
//! stencil arithmetic so that every run yields a deterministic
//! residual digest (the recovery-correctness check). The paper uses
//! the three codes precisely for their communication character
//! (§IV):
//!
//! * **LU** — pipelined SSOR wavefront sweeps over a 2-D process
//!   grid: *high message frequency, small messages, small
//!   checkpoints* (two boundary exchanges per k-plane per sweep).
//! * **BT** — ADI with 5-component block faces: *low message
//!   frequency, large messages, large checkpoints*.
//! * **SP** — ADI with scalar faces exchanged twice per direction:
//!   *moderate frequency and sizes*.
//!
//! All three add a periodic residual all-reduce (the `ANY_SOURCE`
//! gather of §II.C).
//!
//! ## Example
//!
//! ```
//! use lclog_core::ProtocolKind;
//! use lclog_npb::{run_benchmark, Benchmark, Class};
//! use lclog_runtime::{ClusterConfig, RunConfig};
//!
//! let cfg = ClusterConfig::new(4, RunConfig::new(ProtocolKind::Tdi));
//! let report = run_benchmark(Benchmark::Lu, Class::Test, &cfg).unwrap();
//! assert_eq!(report.digests.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bt;
mod cg;
mod field;
mod grid;
mod lu;
mod sp;

pub use bt::BtApp;
pub use cg::CgApp;
pub use field::Field3;
pub use grid::ProcGrid;
pub use lu::LuApp;
pub use sp::SpApp;

use lclog_runtime::{Cluster, ClusterConfig, RunReport};

/// Which NPB kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// SSOR wavefront: many small messages.
    Lu,
    /// Block ADI: few large messages, big state.
    Bt,
    /// Scalar ADI: moderate messages.
    Sp,
    /// Conjugate gradient (extension): collective-dominated.
    Cg,
}

impl Benchmark {
    /// Display name ("LU", "BT", "SP").
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Lu => "LU",
            Benchmark::Bt => "BT",
            Benchmark::Sp => "SP",
            Benchmark::Cg => "CG",
        }
    }

    /// The paper's three benchmarks in its reporting order.
    pub const ALL: [Benchmark; 3] = [Benchmark::Lu, Benchmark::Bt, Benchmark::Sp];

    /// All implemented workloads including the CG extension.
    pub const EXTENDED: [Benchmark; 4] =
        [Benchmark::Lu, Benchmark::Bt, Benchmark::Sp, Benchmark::Cg];
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Problem scale (stands in for NPB's S/W/A classes, sized so that
/// test-suite runs finish in milliseconds and benchmark runs in
/// seconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Tiny grids, few iterations — unit/integration tests.
    Test,
    /// Benchmark default.
    Small,
    /// Larger sweep point for scaling studies.
    Medium,
}

impl Class {
    /// `(global_nx, global_ny, global_nz, iterations)` for LU-style
    /// grids; BT/SP derive their own dimensions from the same base.
    pub fn lu_dims(self) -> (usize, usize, usize, u64) {
        match self {
            Class::Test => (16, 16, 6, 3),
            Class::Small => (32, 32, 12, 6),
            Class::Medium => (48, 48, 18, 10),
        }
    }

    /// Inner relaxation sweeps per plane/pass — the compute weight of
    /// one step. Scaled with class so benchmark-class runs have the
    /// realistic compute-to-communication ratio of the original codes
    /// (one step of real NPB does far more arithmetic per exchanged
    /// byte than a toy stencil).
    pub fn inner_reps(self) -> usize {
        match self {
            Class::Test => 2,
            Class::Small => 8,
            Class::Medium => 16,
        }
    }

    /// `(global_n, iterations)` for the cubic BT/SP grids.
    pub fn adi_dims(self) -> (usize, u64) {
        match self {
            Class::Test => (12, 3),
            Class::Small => (24, 6),
            Class::Medium => (36, 10),
        }
    }
}

impl std::fmt::Display for Class {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Class::Test => "test",
            Class::Small => "small",
            Class::Medium => "medium",
        };
        f.write_str(s)
    }
}

/// Run one benchmark on a configured cluster and return its report.
pub fn run_benchmark(
    bench: Benchmark,
    class: Class,
    cfg: &ClusterConfig,
) -> Result<RunReport, String> {
    match bench {
        Benchmark::Lu => Cluster::run(cfg, LuApp { class }),
        Benchmark::Bt => Cluster::run(cfg, BtApp { class }),
        Benchmark::Sp => Cluster::run(cfg, SpApp { class }),
        Benchmark::Cg => Cluster::run(cfg, CgApp { class }),
    }
}
