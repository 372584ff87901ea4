//! Collective operations built over point-to-point messaging, like the
//! NPB codes use on top of MPI.
//!
//! Every collective takes a `tag` that must be **unique per
//! invocation** on each rank (derive it from the step counter). With
//! unique tags the gather sides can post genuinely non-deterministic
//! `ANY_SOURCE` receives — the §II.C situation ("suppose every process
//! sends its result to `P_0` to calculate their sum; any delivery
//! order does not impact its correct outcome") — while remaining
//! safely matched. Folds are made order-insensitive by collecting
//! first and combining in rank order, so results (and recovery
//! digests) are bit-identical no matter which arrival order TDI's
//! relaxed replay produces.

use crate::fault::Fault;
use crate::message::RecvSpec;
use crate::process::RankCtx;
use lclog_core::Rank;
use lclog_wire::{Decode, Encode};

/// Synchronize all ranks. Linear algorithm: everyone reports to rank
/// 0 (`ANY_SOURCE` gather), rank 0 releases everyone.
pub async fn barrier(ctx: &mut RankCtx<'_>, tag: u32) -> Result<(), Fault> {
    let n = ctx.n();
    if n == 1 {
        return Ok(());
    }
    if ctx.rank() == 0 {
        for _ in 1..n {
            ctx.recv(RecvSpec::any_source(tag)).await?;
        }
        for dst in 1..n {
            ctx.send(dst, tag, &[]).await?;
        }
    } else {
        ctx.send(0, tag, &[]).await?;
        ctx.recv(RecvSpec::from(0, tag)).await?;
    }
    Ok(())
}

/// Broadcast `value` from `root` to every rank; returns the value
/// everywhere.
pub async fn broadcast<T: Encode + Decode + Clone>(
    ctx: &mut RankCtx<'_>,
    root: Rank,
    tag: u32,
    value: Option<T>,
) -> Result<T, Fault> {
    if ctx.rank() == root {
        // A missing root value is an application-level contract
        // violation, but aborting the process would take every healthy
        // rank down with it — surface a fault on this rank only.
        let Some(v) = value else {
            return Err(Fault::Collective("root supplied no broadcast value"));
        };
        for dst in 0..ctx.n() {
            if dst != root {
                ctx.send_value(dst, tag, &v).await?;
            }
        }
        Ok(v)
    } else {
        let (_, v) = ctx.recv_value::<T>(RecvSpec::from(root, tag)).await?;
        Ok(v)
    }
}

/// Reduce values to `root` with a fold applied in **rank order**
/// (collect-then-combine keeps floating-point results identical across
/// arrival orders). Returns `Some(result)` at the root, `None`
/// elsewhere.
pub async fn reduce<T, F>(
    ctx: &mut RankCtx<'_>,
    root: Rank,
    tag: u32,
    value: T,
    mut fold: F,
) -> Result<Option<T>, Fault>
where
    T: Encode + Decode + Clone,
    F: FnMut(T, T) -> T,
{
    let n = ctx.n();
    if ctx.rank() != root {
        ctx.send_value(root, tag, &value).await?;
        return Ok(None);
    }
    let mut contributions: Vec<Option<T>> = (0..n).map(|_| None).collect();
    contributions[root] = Some(value);
    let mut filled = 1;
    while filled < n {
        // Non-deterministic delivery: take whichever rank's
        // contribution becomes deliverable first. A dead contributor
        // surfaces here as a `Fault` from `recv_value` (unreachable),
        // which `?` propagates so the survivor
        // takes the normal recovery path instead of panicking.
        let (src, v) = ctx.recv_value::<T>(RecvSpec::any_source(tag)).await?;
        if contributions[src].is_some() {
            // A duplicate slipped past suppression (e.g. a re-executed
            // sender reusing this collective's tag). Folding it would
            // silently corrupt the result; fault this rank instead.
            return Err(Fault::Collective("duplicate contribution in reduce"));
        }
        contributions[src] = Some(v);
        filled += 1;
    }
    // `filled == n` and duplicates were rejected, so every slot is
    // occupied; fold in rank order for bit-identical results.
    let mut iter = contributions.into_iter().flatten();
    let first = iter.next().ok_or(Fault::Collective("empty reduce"))?;
    Ok(Some(iter.fold(first, &mut fold)))
}

/// Sum-reduce `f64` values to `root`.
pub async fn reduce_sum_f64(
    ctx: &mut RankCtx<'_>,
    root: Rank,
    tag: u32,
    value: f64,
) -> Result<Option<f64>, Fault> {
    reduce(ctx, root, tag, value, |a, b| a + b).await
}

/// All-ranks sum: reduce to rank 0, then broadcast. Uses `tag` and
/// `tag + 1`.
pub async fn allreduce_sum_f64(ctx: &mut RankCtx<'_>, tag: u32, value: f64) -> Result<f64, Fault> {
    let total = reduce_sum_f64(ctx, 0, tag, value).await?;
    broadcast(ctx, 0, tag + 1, total).await
}

/// Gather one value per rank at `root` (in rank order). Returns
/// `Some(values)` at the root, `None` elsewhere.
pub async fn gather<T: Encode + Decode + Clone>(
    ctx: &mut RankCtx<'_>,
    root: Rank,
    tag: u32,
    value: T,
) -> Result<Option<Vec<T>>, Fault> {
    let n = ctx.n();
    if ctx.rank() != root {
        ctx.send_value(root, tag, &value).await?;
        return Ok(None);
    }
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    slots[root] = Some(value);
    let mut filled = 1;
    while filled < n {
        let (src, v) = ctx.recv_value::<T>(RecvSpec::any_source(tag)).await?;
        if slots[src].is_some() {
            return Err(Fault::Collective("duplicate contribution in gather"));
        }
        slots[src] = Some(v);
        filled += 1;
    }
    // Every slot occupied (see `reduce`): collect in rank order.
    Ok(Some(slots.into_iter().flatten().collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::config::RunConfig;
    use crate::fault::StepStatus;
    use crate::process::RankApp;
    use lclog_core::ProtocolKind;
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// The collective misuse each test drives.
    #[derive(Clone, Copy)]
    enum Body {
        /// The root of a broadcast supplies no value.
        BroadcastWithoutValue,
        /// Rank 1 contributes twice to rank 0's reduce.
        DoubleReduce,
        /// Rank 2 contributes twice to rank 0's gather.
        DoubleGather,
    }

    impl Body {
        async fn run(self, ctx: &mut RankCtx<'_>) -> Result<(), Fault> {
            match (self, ctx.rank()) {
                (Body::BroadcastWithoutValue, _) => {
                    broadcast::<u64>(ctx, 0, 7, None).await.map(drop)
                }
                (Body::DoubleReduce, 0) => reduce(ctx, 0, 9, 0.5f64, |a, b| a + b).await.map(drop),
                (Body::DoubleReduce, 1) => {
                    ctx.send_value(0, 9, &1.0f64).await?;
                    ctx.send_value(0, 9, &2.0f64).await // illegal second contribution
                }
                (Body::DoubleGather, 0) => gather(ctx, 0, 11, 1u64).await.map(drop),
                (Body::DoubleGather, 2) => {
                    ctx.send_value(0, 11, &7u64).await?;
                    ctx.send_value(0, 11, &8u64).await
                }
                _ => Ok(()),
            }
        }
    }

    /// One step of `body` on every rank of an `n`-rank cluster; rank
    /// 0's fault is kept, and every rank finishes regardless, so a
    /// faulting collective reports instead of rejoining.
    struct OneStep {
        body: Body,
        fault: Arc<Mutex<Option<Fault>>>,
    }

    impl RankApp for OneStep {
        type State = u64;

        fn init(&self, _rank: Rank, _n: usize) -> u64 {
            0
        }

        async fn step(&self, ctx: &mut RankCtx<'_>, _state: &mut u64) -> Result<StepStatus, Fault> {
            if let Err(fault) = self.body.run(ctx).await {
                if ctx.rank() == 0 {
                    *self.fault.lock() = Some(fault);
                }
            }
            Ok(StepStatus::Done)
        }

        fn digest(&self, _state: &u64) -> u64 {
            0
        }
    }

    fn rank0_fault(n: usize, body: Body) -> Fault {
        let fault = Arc::new(Mutex::new(None));
        let app = OneStep {
            body,
            fault: Arc::clone(&fault),
        };
        Cluster::run(
            &ClusterConfig::new(n, RunConfig::new(ProtocolKind::Tdi)),
            app,
        )
        .unwrap();
        let fault = fault.lock().take();
        fault.expect("rank 0 faulted")
    }

    // Regression: `broadcast` with a root that supplies no value used
    // to hit `expect("root must supply...")` and abort the process.
    #[test]
    fn broadcast_root_without_value_faults_instead_of_panicking() {
        let err = rank0_fault(1, Body::BroadcastWithoutValue);
        assert!(matches!(err, Fault::Collective(_)), "got {err}");
    }

    // Regression: a double contribution (same tag, same sender, fresh
    // send_index — so receiver dedup rightly passes both) used to leave
    // a `None` slot behind and abort in `expect("contribution recorded")`.
    // It must now surface as a single-rank `Fault::Collective`.
    #[test]
    fn duplicate_contribution_faults_reduce_root() {
        let err = rank0_fault(3, Body::DoubleReduce);
        assert!(
            matches!(err, Fault::Collective(msg) if msg.contains("reduce")),
            "got {err}"
        );
    }

    #[test]
    fn duplicate_contribution_faults_gather_root() {
        let err = rank0_fault(3, Body::DoubleGather);
        assert!(
            matches!(err, Fault::Collective(msg) if msg.contains("gather")),
            "got {err}"
        );
    }
}
