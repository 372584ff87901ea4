//! SP — the scalar-pentadiagonal ADI kernel.
//!
//! NPB's SP runs the same multi-partition ADI structure as BT but with
//! scalar (not 5×5 block) systems, solved with a forward *and* a
//! backward substitution per direction — twice the exchanges of BT at
//! a fifth of the payload. That yields the paper's "moderate message
//! frequency and checkpoint size, relative to LU and BT". One runtime
//! step = one substitution pass (or the residual all-reduce).

use crate::{Class, Field3, ProcGrid};
use lclog_runtime::collectives::allreduce_sum_f64;
use lclog_runtime::{Fault, RankApp, RankCtx, RecvSpec, StepStatus};
use lclog_wire::impl_wire_struct;

const TAG_X_FWD: u32 = 300;
const TAG_X_BWD: u32 = 301;
const TAG_Y_FWD: u32 = 302;
const TAG_Y_BWD: u32 = 303;
const TAG_NORM_BASE: u32 = 3_000_000;
const BC: f64 = 1.0;

const PHASE_X_FWD: u64 = 0;
const PHASE_X_BWD: u64 = 1;
const PHASE_Y_FWD: u64 = 2;
const PHASE_Y_BWD: u64 = 3;
const PHASE_Z: u64 = 4;
const PHASE_NORM: u64 = 5;

/// The SP application (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct SpApp {
    /// Problem scale.
    pub class: Class,
}

/// Checkpointable per-rank SP state.
#[derive(Debug, Clone, PartialEq)]
pub struct SpState {
    /// Completed outer iterations.
    pub iter: u64,
    /// Current phase.
    pub phase: u64,
    /// Scalar solution block.
    pub u: Field3,
    /// Smoothed residual history.
    pub residual: f64,
}
impl_wire_struct!(SpState {
    iter,
    phase,
    u,
    residual
});

impl RankApp for SpApp {
    type State = SpState;

    fn init(&self, rank: usize, n: usize) -> SpState {
        let (gn, _) = self.class.adi_dims();
        let g = ProcGrid::new(rank, n);
        let nx = ProcGrid::split(gn, g.px, g.rx);
        let ny = ProcGrid::split(gn, g.py, g.ry);
        let x0 = ProcGrid::offset(gn, g.px, g.rx);
        let y0 = ProcGrid::offset(gn, g.py, g.ry);
        let u = Field3::init(nx, ny, gn, 1, |_, i, j, k| {
            1.0 + 0.015 * ((x0 + i) as f64 * 0.9 + (y0 + j) as f64 * 1.1 + k as f64 * 0.6) % 1.9
        });
        SpState {
            iter: 0,
            phase: PHASE_X_FWD,
            u,
            residual: 0.0,
        }
    }

    async fn step(&self, ctx: &mut RankCtx<'_>, state: &mut SpState) -> Result<StepStatus, Fault> {
        let (_, iters) = self.class.adi_dims();
        if state.iter >= iters {
            return Ok(StepStatus::Done);
        }
        let g = ProcGrid::new(ctx.rank(), ctx.n());
        let u = &mut state.u;
        match state.phase {
            PHASE_X_FWD => {
                let ghost: Vec<f64> = match g.west() {
                    Some(wr) => ctx.recv_value(RecvSpec::from(wr, TAG_X_FWD)).await?.1,
                    None => vec![BC; u.ny * u.nz],
                };
                for _ in 0..self.class.inner_reps() {
                    pass_x(u, &ghost, true);
                }
                if let Some(er) = g.east() {
                    ctx.send_value(er, TAG_X_FWD, &u.pack_face_x(u.nx - 1))
                        .await?;
                }
                state.phase = PHASE_X_BWD;
            }
            PHASE_X_BWD => {
                let ghost: Vec<f64> = match g.east() {
                    Some(er) => ctx.recv_value(RecvSpec::from(er, TAG_X_BWD)).await?.1,
                    None => vec![BC; u.ny * u.nz],
                };
                for _ in 0..self.class.inner_reps() {
                    pass_x(u, &ghost, false);
                }
                if let Some(wr) = g.west() {
                    ctx.send_value(wr, TAG_X_BWD, &u.pack_face_x(0)).await?;
                }
                state.phase = PHASE_Y_FWD;
            }
            PHASE_Y_FWD => {
                let ghost: Vec<f64> = match g.north() {
                    Some(nr) => ctx.recv_value(RecvSpec::from(nr, TAG_Y_FWD)).await?.1,
                    None => vec![BC; u.nx * u.nz],
                };
                for _ in 0..self.class.inner_reps() {
                    pass_y(u, &ghost, true);
                }
                if let Some(sr) = g.south() {
                    ctx.send_value(sr, TAG_Y_FWD, &u.pack_face_y(u.ny - 1))
                        .await?;
                }
                state.phase = PHASE_Y_BWD;
            }
            PHASE_Y_BWD => {
                let ghost: Vec<f64> = match g.south() {
                    Some(sr) => ctx.recv_value(RecvSpec::from(sr, TAG_Y_BWD)).await?.1,
                    None => vec![BC; u.nx * u.nz],
                };
                for _ in 0..self.class.inner_reps() {
                    pass_y(u, &ghost, false);
                }
                if let Some(nr) = g.north() {
                    ctx.send_value(nr, TAG_Y_BWD, &u.pack_face_y(0)).await?;
                }
                state.phase = PHASE_Z;
            }
            PHASE_Z => {
                for _ in 0..self.class.inner_reps() {
                    pass_z(u);
                }
                state.phase = PHASE_NORM;
            }
            _ => {
                let local = u.sum_sq();
                let tag = TAG_NORM_BASE + (state.iter as u32) * 2;
                let total = allreduce_sum_f64(ctx, tag, local).await?;
                state.residual = 0.5 * state.residual + 0.5 * total;
                state.iter += 1;
                state.phase = PHASE_X_FWD;
            }
        }
        Ok(StepStatus::Continue)
    }

    fn digest(&self, state: &SpState) -> u64 {
        state.u.digest() ^ state.residual.to_bits() ^ state.iter
    }
}

/// One substitution pass along x (`forward`: west → east).
fn pass_x(u: &mut Field3, ghost: &[f64], forward: bool) {
    let (nx, ny, nz) = (u.nx, u.ny, u.nz);
    for k in 0..nz {
        for j in 0..ny {
            let g = ghost[k * ny + j];
            if forward {
                u.set(0, 0, j, k, 0.6 * u.get(0, 0, j, k) + 0.4 * g);
                for i in 1..nx {
                    let v = 0.6 * u.get(0, i, j, k) + 0.4 * u.get(0, i - 1, j, k);
                    u.set(0, i, j, k, v);
                }
            } else {
                u.set(0, nx - 1, j, k, 0.6 * u.get(0, nx - 1, j, k) + 0.4 * g);
                for i in (0..nx - 1).rev() {
                    let v = 0.6 * u.get(0, i, j, k) + 0.4 * u.get(0, i + 1, j, k);
                    u.set(0, i, j, k, v);
                }
            }
        }
    }
}

/// One substitution pass along y (`forward`: north → south).
fn pass_y(u: &mut Field3, ghost: &[f64], forward: bool) {
    let (nx, ny, nz) = (u.nx, u.ny, u.nz);
    for k in 0..nz {
        for i in 0..nx {
            let g = ghost[k * nx + i];
            if forward {
                u.set(0, i, 0, k, 0.6 * u.get(0, i, 0, k) + 0.4 * g);
                for j in 1..ny {
                    let v = 0.6 * u.get(0, i, j, k) + 0.4 * u.get(0, i, j - 1, k);
                    u.set(0, i, j, k, v);
                }
            } else {
                u.set(0, i, ny - 1, k, 0.6 * u.get(0, i, ny - 1, k) + 0.4 * g);
                for j in (0..ny - 1).rev() {
                    let v = 0.6 * u.get(0, i, j, k) + 0.4 * u.get(0, i, j + 1, k);
                    u.set(0, i, j, k, v);
                }
            }
        }
    }
}

/// Local bidirectional pass along the undecomposed z axis.
fn pass_z(u: &mut Field3) {
    let (nx, ny, nz) = (u.nx, u.ny, u.nz);
    for j in 0..ny {
        for i in 0..nx {
            for k in 1..nz {
                let v = 0.6 * u.get(0, i, j, k) + 0.4 * u.get(0, i, j, k - 1);
                u.set(0, i, j, k, v);
            }
            for k in (0..nz - 1).rev() {
                let v = 0.6 * u.get(0, i, j, k) + 0.4 * u.get(0, i, j, k + 1);
                u.set(0, i, j, k, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lclog_wire::{decode_from_slice, encode_to_vec};

    #[test]
    fn state_wire_roundtrip() {
        let app = SpApp { class: Class::Test };
        let state = app.init(3, 4);
        let back: SpState = decode_from_slice(&encode_to_vec(&state)).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn sp_checkpoint_sits_between_lu_and_bt() {
        let lu = crate::LuApp { class: Class::Test }.init(0, 4);
        let sp = SpApp { class: Class::Test }.init(0, 4);
        let bt = crate::BtApp { class: Class::Test }.init(0, 4);
        let lu_size = lu.u.len();
        let sp_size = sp.u.len();
        let bt_size = bt.u.len() + bt.rhs.len();
        assert!(sp_size < bt_size, "SP ({sp_size}) < BT ({bt_size})");
        // SP's cubic grid is at least as heavy as LU's flatter one at
        // the same class, but far below BT's 10 components.
        assert!(sp_size * 5 <= bt_size * 2);
        assert!(lu_size <= bt_size / 4, "LU ({lu_size}) small vs BT ({bt_size})");
    }

    #[test]
    fn passes_preserve_boundedness() {
        let app = SpApp { class: Class::Test };
        let mut s = app.init(0, 1);
        let gx = vec![BC; s.u.ny * s.u.nz];
        let gy = vec![BC; s.u.nx * s.u.nz];
        for _ in 0..200 {
            pass_x(&mut s.u, &gx, true);
            pass_x(&mut s.u, &gx, false);
            pass_y(&mut s.u, &gy, true);
            pass_y(&mut s.u, &gy, false);
            pass_z(&mut s.u);
        }
        assert!(s.u.sum_sq().is_finite());
    }
}
