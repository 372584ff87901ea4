//! LU — the pipelined SSOR wavefront kernel.
//!
//! NPB's LU factorizes over a 2-D process grid and performs, per
//! iteration, a lower-triangular sweep (data flows from the north-west
//! corner to the south-east) and an upper-triangular sweep (the
//! reverse), exchanging one boundary row and one boundary column *per
//! k-plane per sweep*. That is the paper's "high message frequency
//! and relatively small checkpoint size" workload: `2 × nz` small
//! messages per neighbour pair per iteration.
//!
//! One runtime step = one k-plane of one sweep (or the residual
//! all-reduce), so checkpoints and injected failures land at every
//! pipeline stage.

use crate::{Class, Field3, ProcGrid};
use lclog_runtime::collectives::allreduce_sum_f64;
use lclog_runtime::{Fault, RankApp, RankCtx, RecvSpec, StepStatus};
use lclog_wire::impl_wire_struct;

const TAG_NS_LOWER: u32 = 100;
const TAG_EW_LOWER: u32 = 101;
const TAG_NS_UPPER: u32 = 102;
const TAG_EW_UPPER: u32 = 103;
/// Collective tags must be unique per invocation.
const TAG_NORM_BASE: u32 = 1_000_000;

/// Boundary value outside the global domain.
const BC: f64 = 1.0;

const PHASE_LOWER: u64 = 0;
const PHASE_UPPER: u64 = 1;
const PHASE_NORM: u64 = 2;

/// The LU application (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct LuApp {
    /// Problem scale.
    pub class: Class,
}

/// Checkpointable per-rank LU state.
#[derive(Debug, Clone, PartialEq)]
pub struct LuState {
    /// Completed outer iterations.
    pub iter: u64,
    /// Current phase (lower sweep / upper sweep / norm).
    pub phase: u64,
    /// Plane counter within the current sweep.
    pub k: u64,
    /// The local solution block.
    pub u: Field3,
    /// Smoothed residual history.
    pub residual: f64,
}
impl_wire_struct!(LuState {
    iter,
    phase,
    k,
    u,
    residual
});

impl RankApp for LuApp {
    type State = LuState;

    fn init(&self, rank: usize, n: usize) -> LuState {
        let (gnx, gny, gnz, _) = self.class.lu_dims();
        let g = ProcGrid::new(rank, n);
        let nx = ProcGrid::split(gnx, g.px, g.rx);
        let ny = ProcGrid::split(gny, g.py, g.ry);
        let x0 = ProcGrid::offset(gnx, g.px, g.rx);
        let y0 = ProcGrid::offset(gny, g.py, g.ry);
        // Initial condition from global coordinates: digests depend on
        // the global problem, not the decomposition.
        let u = Field3::init(nx, ny, gnz, 1, |_, i, j, k| {
            let (gi, gj) = ((x0 + i) as f64, (y0 + j) as f64);
            1.0 + 0.01 * (gi + 2.0 * gj + 3.0 * k as f64) % 1.7
        });
        LuState {
            iter: 0,
            phase: PHASE_LOWER,
            k: 0,
            u,
            residual: 0.0,
        }
    }

    async fn step(&self, ctx: &mut RankCtx<'_>, state: &mut LuState) -> Result<StepStatus, Fault> {
        let (_, _, gnz, iters) = self.class.lu_dims();
        if state.iter >= iters {
            return Ok(StepStatus::Done);
        }
        let g = ProcGrid::new(ctx.rank(), ctx.n());
        match state.phase {
            PHASE_LOWER => {
                let k = state.k as usize;
                lower_plane(ctx, &g, &mut state.u, k, self.class.inner_reps()).await?;
                state.k += 1;
                if state.k as usize == gnz {
                    state.phase = PHASE_UPPER;
                    state.k = 0;
                }
            }
            PHASE_UPPER => {
                let k = gnz - 1 - state.k as usize;
                upper_plane(ctx, &g, &mut state.u, k, self.class.inner_reps()).await?;
                state.k += 1;
                if state.k as usize == gnz {
                    state.phase = PHASE_NORM;
                    state.k = 0;
                }
            }
            _ => {
                let local = state.u.sum_sq();
                let tag = TAG_NORM_BASE + (state.iter as u32) * 2;
                let total = allreduce_sum_f64(ctx, tag, local).await?;
                state.residual = 0.5 * state.residual + 0.5 * total;
                state.iter += 1;
                state.phase = PHASE_LOWER;
            }
        }
        Ok(StepStatus::Continue)
    }

    fn digest(&self, state: &LuState) -> u64 {
        state.u.digest() ^ state.residual.to_bits() ^ state.iter
    }
}

/// Lower-triangular SSOR relaxation of plane `k`: data flows
/// north-west → south-east.
async fn lower_plane(
    ctx: &mut RankCtx<'_>,
    g: &ProcGrid,
    u: &mut Field3,
    k: usize,
    reps: usize,
) -> Result<(), Fault> {
    let (nx, ny) = (u.nx, u.ny);
    let north_ghost: Vec<f64> = match g.north() {
        Some(nr) => ctx.recv_value(RecvSpec::from(nr, TAG_NS_LOWER)).await?.1,
        None => vec![BC; nx],
    };
    let west_ghost: Vec<f64> = match g.west() {
        Some(wr) => ctx.recv_value(RecvSpec::from(wr, TAG_EW_LOWER)).await?.1,
        None => vec![BC; ny],
    };
    for _ in 0..reps {
        #[allow(clippy::needless_range_loop)]
        for j in 0..ny {
            for i in 0..nx {
                let w = if i > 0 { u.get(0, i - 1, j, k) } else { west_ghost[j] };
                let nv = if j > 0 { u.get(0, i, j - 1, k) } else { north_ghost[i] };
                let b = if k > 0 { u.get(0, i, j, k - 1) } else { BC };
                let v = 0.4 * u.get(0, i, j, k) + 0.25 * w + 0.25 * nv + 0.1 * b;
                u.set(0, i, j, k, v);
            }
        }
    }
    if let Some(sr) = g.south() {
        ctx.send_value(sr, TAG_NS_LOWER, &u.pack_row(ny - 1, k))
            .await?;
    }
    if let Some(er) = g.east() {
        ctx.send_value(er, TAG_EW_LOWER, &u.pack_col(nx - 1, k))
            .await?;
    }
    Ok(())
}

/// Upper-triangular SSOR relaxation of plane `k`: data flows
/// south-east → north-west.
async fn upper_plane(
    ctx: &mut RankCtx<'_>,
    g: &ProcGrid,
    u: &mut Field3,
    k: usize,
    reps: usize,
) -> Result<(), Fault> {
    let (nx, ny, nz) = (u.nx, u.ny, u.nz);
    let south_ghost: Vec<f64> = match g.south() {
        Some(sr) => ctx.recv_value(RecvSpec::from(sr, TAG_NS_UPPER)).await?.1,
        None => vec![BC; nx],
    };
    let east_ghost: Vec<f64> = match g.east() {
        Some(er) => ctx.recv_value(RecvSpec::from(er, TAG_EW_UPPER)).await?.1,
        None => vec![BC; ny],
    };
    for _ in 0..reps {
        for j in (0..ny).rev() {
            for i in (0..nx).rev() {
                let e = if i + 1 < nx { u.get(0, i + 1, j, k) } else { east_ghost[j] };
                let s = if j + 1 < ny { u.get(0, i, j + 1, k) } else { south_ghost[i] };
                let a = if k + 1 < nz { u.get(0, i, j, k + 1) } else { BC };
                let v = 0.4 * u.get(0, i, j, k) + 0.25 * e + 0.25 * s + 0.1 * a;
                u.set(0, i, j, k, v);
            }
        }
    }
    if let Some(nr) = g.north() {
        ctx.send_value(nr, TAG_NS_UPPER, &u.pack_row(0, k)).await?;
    }
    if let Some(wr) = g.west() {
        ctx.send_value(wr, TAG_EW_UPPER, &u.pack_col(0, k)).await?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lclog_wire::{decode_from_slice, encode_to_vec};

    #[test]
    fn init_uses_global_coordinates() {
        // The union of 4 ranks' blocks must equal the 1-rank block.
        let app = LuApp { class: Class::Test };
        let whole = app.init(0, 1);
        let (gnx, _, _, _) = Class::Test.lu_dims();
        for rank in 0..4 {
            let part = app.init(rank, 4);
            let g = ProcGrid::new(rank, 4);
            let x0 = ProcGrid::offset(gnx, g.px, g.rx);
            let y0 = ProcGrid::offset(Class::Test.lu_dims().1, g.py, g.ry);
            for k in 0..part.u.nz {
                for j in 0..part.u.ny {
                    for i in 0..part.u.nx {
                        assert_eq!(
                            part.u.get(0, i, j, k),
                            whole.u.get(0, x0 + i, y0 + j, k),
                            "rank {rank} cell ({i},{j},{k})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn state_wire_roundtrip() {
        let app = LuApp { class: Class::Test };
        let state = app.init(1, 4);
        let back: LuState = decode_from_slice(&encode_to_vec(&state)).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn digests_differ_between_ranks() {
        let app = LuApp { class: Class::Test };
        let a = app.digest(&app.init(0, 4));
        let b = app.digest(&app.init(1, 4));
        assert_ne!(a, b);
    }
}
