//! BT — the block-tridiagonal ADI kernel.
//!
//! NPB's BT solves 5×5 block systems along each coordinate direction
//! per iteration. Its communication character — the reason the paper
//! picked it — is *few but large* messages (whole subdomain faces of
//! 5-component data, one per direction sweep) and a *large checkpoint*
//! (5-component solution plus workspace). One runtime step = one
//! direction sweep (or the residual all-reduce).

use crate::{Class, Field3, ProcGrid};
use lclog_runtime::collectives::allreduce_sum_f64;
use lclog_runtime::{Fault, RankApp, RankCtx, RecvSpec, StepStatus};
use lclog_wire::impl_wire_struct;

const TAG_X: u32 = 200;
const TAG_Y: u32 = 201;
const TAG_NORM_BASE: u32 = 2_000_000;
const BC: f64 = 1.0;
/// BT's block size: 5 flow variables per cell.
const COMPS: usize = 5;

const PHASE_X: u64 = 0;
const PHASE_Y: u64 = 1;
const PHASE_Z: u64 = 2;
const PHASE_NORM: u64 = 3;

/// The BT application (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct BtApp {
    /// Problem scale.
    pub class: Class,
}

/// Checkpointable per-rank BT state: solution plus right-hand-side
/// workspace — deliberately the heaviest checkpoint of the three
/// kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct BtState {
    /// Completed outer iterations.
    pub iter: u64,
    /// Current phase (x / y / z sweep or norm).
    pub phase: u64,
    /// 5-component solution block.
    pub u: Field3,
    /// 5-component workspace (rhs), checkpointed like the original's
    /// `rhs`/`lhs` arrays.
    pub rhs: Field3,
    /// Smoothed residual history.
    pub residual: f64,
}
impl_wire_struct!(BtState {
    iter,
    phase,
    u,
    rhs,
    residual
});

impl RankApp for BtApp {
    type State = BtState;

    fn init(&self, rank: usize, n: usize) -> BtState {
        let (gn, _) = self.class.adi_dims();
        let g = ProcGrid::new(rank, n);
        let nx = ProcGrid::split(gn, g.px, g.rx);
        let ny = ProcGrid::split(gn, g.py, g.ry);
        let x0 = ProcGrid::offset(gn, g.px, g.rx);
        let y0 = ProcGrid::offset(gn, g.py, g.ry);
        let u = Field3::init(nx, ny, gn, COMPS, |c, i, j, k| {
            1.0 + 0.02 * ((c + 1) as f64) * ((x0 + i) as f64 + 1.3 * (y0 + j) as f64 + 0.7 * k as f64) % 2.1
        });
        let rhs = Field3::init(nx, ny, gn, COMPS, |_, _, _, _| 0.0);
        BtState {
            iter: 0,
            phase: PHASE_X,
            u,
            rhs,
            residual: 0.0,
        }
    }

    async fn step(&self, ctx: &mut RankCtx<'_>, state: &mut BtState) -> Result<StepStatus, Fault> {
        let (_, iters) = self.class.adi_dims();
        if state.iter >= iters {
            return Ok(StepStatus::Done);
        }
        let g = ProcGrid::new(ctx.rank(), ctx.n());
        match state.phase {
            PHASE_X => {
                // Forward line solve along x; data flows west → east as
                // one whole 5-component face.
                let (ny, nz) = (state.u.ny, state.u.nz);
                let ghost: Vec<f64> = match g.west() {
                    Some(wr) => ctx.recv_value(RecvSpec::from(wr, TAG_X)).await?.1,
                    None => vec![BC; ny * nz * COMPS],
                };
                for _ in 0..self.class.inner_reps() {
                    sweep_x(&mut state.u, &mut state.rhs, &ghost);
                }
                if let Some(er) = g.east() {
                    ctx.send_value(er, TAG_X, &state.u.pack_face_x(state.u.nx - 1))
                        .await?;
                }
                state.phase = PHASE_Y;
            }
            PHASE_Y => {
                let (nx, nz) = (state.u.nx, state.u.nz);
                let ghost: Vec<f64> = match g.north() {
                    Some(nr) => ctx.recv_value(RecvSpec::from(nr, TAG_Y)).await?.1,
                    None => vec![BC; nx * nz * COMPS],
                };
                for _ in 0..self.class.inner_reps() {
                    sweep_y(&mut state.u, &mut state.rhs, &ghost);
                }
                if let Some(sr) = g.south() {
                    ctx.send_value(sr, TAG_Y, &state.u.pack_face_y(state.u.ny - 1))
                        .await?;
                }
                state.phase = PHASE_Z;
            }
            PHASE_Z => {
                // z is undecomposed: a purely local solve.
                for _ in 0..self.class.inner_reps() {
                    sweep_z(&mut state.u, &mut state.rhs);
                }
                state.phase = PHASE_NORM;
            }
            _ => {
                let local = state.u.sum_sq() + 0.25 * state.rhs.sum_sq();
                let tag = TAG_NORM_BASE + (state.iter as u32) * 2;
                let total = allreduce_sum_f64(ctx, tag, local).await?;
                state.residual = 0.5 * state.residual + 0.5 * total;
                state.iter += 1;
                state.phase = PHASE_X;
            }
        }
        Ok(StepStatus::Continue)
    }

    fn digest(&self, state: &BtState) -> u64 {
        state.u.digest() ^ state.rhs.digest().rotate_left(1) ^ state.residual.to_bits()
            ^ state.iter
    }
}

/// Forward relaxation along x, consuming the west ghost face (layout
/// matches [`Field3::pack_face_x`]: `[c][k][j]`).
fn sweep_x(u: &mut Field3, rhs: &mut Field3, ghost: &[f64]) {
    let (nx, ny, nz) = (u.nx, u.ny, u.nz);
    for c in 0..COMPS {
        for k in 0..nz {
            for j in 0..ny {
                let g = ghost[(c * nz + k) * ny + j];
                let first = 0.55 * u.get(c, 0, j, k) + 0.45 * g;
                u.set(c, 0, j, k, first);
                for i in 1..nx {
                    let v = 0.55 * u.get(c, i, j, k) + 0.45 * u.get(c, i - 1, j, k);
                    u.set(c, i, j, k, v);
                }
                for i in 0..nx {
                    let r = 0.5 * rhs.get(c, i, j, k) + 0.5 * u.get(c, i, j, k);
                    rhs.set(c, i, j, k, r);
                }
            }
        }
    }
}

/// Forward relaxation along y, consuming the north ghost face (layout
/// matches [`Field3::pack_face_y`]: `[c][k][i]`).
fn sweep_y(u: &mut Field3, rhs: &mut Field3, ghost: &[f64]) {
    let (nx, ny, nz) = (u.nx, u.ny, u.nz);
    for c in 0..COMPS {
        for k in 0..nz {
            for i in 0..nx {
                let g = ghost[(c * nz + k) * nx + i];
                let first = 0.55 * u.get(c, i, 0, k) + 0.45 * g;
                u.set(c, i, 0, k, first);
                for j in 1..ny {
                    let v = 0.55 * u.get(c, i, j, k) + 0.45 * u.get(c, i, j - 1, k);
                    u.set(c, i, j, k, v);
                }
                for j in 0..ny {
                    let r = 0.5 * rhs.get(c, i, j, k) + 0.5 * u.get(c, i, j, k);
                    rhs.set(c, i, j, k, r);
                }
            }
        }
    }
}

/// Local relaxation along the undecomposed z axis.
fn sweep_z(u: &mut Field3, rhs: &mut Field3) {
    let (nx, ny, nz) = (u.nx, u.ny, u.nz);
    for c in 0..COMPS {
        for j in 0..ny {
            for i in 0..nx {
                for k in 1..nz {
                    let v = 0.55 * u.get(c, i, j, k) + 0.45 * u.get(c, i, j, k - 1);
                    u.set(c, i, j, k, v);
                }
                for k in 0..nz {
                    let r = 0.5 * rhs.get(c, i, j, k) + 0.5 * u.get(c, i, j, k);
                    rhs.set(c, i, j, k, r);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lclog_wire::{decode_from_slice, encode_to_vec};

    #[test]
    fn state_is_heavyweight() {
        let app = BtApp { class: Class::Test };
        let bt = app.init(0, 4);
        let lu = crate::LuApp { class: Class::Test }.init(0, 4);
        // BT's checkpoint (u + rhs, 5 components each) dwarfs LU's.
        assert!(bt.u.len() + bt.rhs.len() > 4 * lu.u.len());
    }

    #[test]
    fn state_wire_roundtrip() {
        let app = BtApp { class: Class::Test };
        let state = app.init(2, 4);
        let back: BtState = decode_from_slice(&encode_to_vec(&state)).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn sweeps_preserve_boundedness() {
        // All update coefficients are convex combinations: values stay
        // within the initial range forever (no NaN/∞ drift over long
        // runs).
        let app = BtApp { class: Class::Test };
        let mut s = app.init(0, 1);
        let ghost_x = vec![BC; s.u.ny * s.u.nz * COMPS];
        let ghost_y = vec![BC; s.u.nx * s.u.nz * COMPS];
        for _ in 0..100 {
            sweep_x(&mut s.u, &mut s.rhs, &ghost_x);
            sweep_y(&mut s.u, &mut s.rhs, &ghost_y);
            sweep_z(&mut s.u, &mut s.rhs);
        }
        assert!(s.u.sum_sq().is_finite());
        assert!(s.rhs.sum_sq().is_finite());
    }
}
