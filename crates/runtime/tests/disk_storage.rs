//! Cluster runs on the real-file stable-storage backend: checkpoints
//! and event logs land on disk and recovery reads them back.

use lclog_core::ProtocolKind;
use lclog_runtime::{
    CheckpointPolicy, Cluster, ClusterConfig, FailurePlan, Fault, RankApp, RankCtx, RecvSpec,
    RunConfig, StepStatus, StorageKind,
};
use lclog_wire::impl_wire_struct;

#[derive(Clone)]
struct Ring {
    rounds: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct St {
    round: u64,
    value: u64,
}
impl_wire_struct!(St { round, value });

impl RankApp for Ring {
    type State = St;
    fn init(&self, rank: usize, _n: usize) -> St {
        St {
            round: 0,
            value: rank as u64 + 7,
        }
    }
    async fn step(&self, ctx: &mut RankCtx<'_>, st: &mut St) -> Result<StepStatus, Fault> {
        if st.round >= self.rounds {
            return Ok(StepStatus::Done);
        }
        let n = ctx.n();
        let right = (ctx.rank() + 1) % n;
        let left = (ctx.rank() + n - 1) % n;
        ctx.send_value(right, 3, &st.value).await?;
        let (_, v): (_, u64) = ctx.recv_value(RecvSpec::from(left, 3)).await?;
        st.value = st.value.rotate_left(7) ^ v;
        st.round += 1;
        Ok(StepStatus::Continue)
    }
    fn digest(&self, st: &St) -> u64 {
        st.value ^ st.round
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lclog-disk-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn disk_backed_recovery_matches_memory_backed() {
    let app = Ring { rounds: 14 };
    let base = ClusterConfig::new(
        4,
        RunConfig::new(ProtocolKind::Tdi).with_checkpoint(CheckpointPolicy::EverySteps(4)),
    );
    let mem = Cluster::run(&base, app.clone()).unwrap().digests;
    let dir = temp_dir("tdi");
    let disk_cfg = base
        .with_storage(StorageKind::Disk(dir.clone()))
        .with_failures(FailurePlan::kill_at(2, 7));
    let report = Cluster::run(&disk_cfg, app).expect("disk-backed recovered run");
    assert_eq!(report.kills, 1);
    assert_eq!(report.digests, mem);
    // Checkpoint files actually exist on disk.
    let blobs = std::fs::read_dir(dir.join("blobs")).unwrap().count();
    assert!(blobs >= 4, "expected one checkpoint blob per rank, saw {blobs}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn disk_backed_event_logger_for_tel() {
    let app = Ring { rounds: 10 };
    let dir = temp_dir("tel");
    let cfg = ClusterConfig::new(
        3,
        RunConfig::new(ProtocolKind::Tel).with_checkpoint(CheckpointPolicy::EverySteps(3)),
    )
    .with_storage(StorageKind::Disk(dir.clone()))
    .with_failures(FailurePlan::kill_at(1, 5));
    let clean = Cluster::run(
        &ClusterConfig::new(
            3,
            RunConfig::new(ProtocolKind::Tel).with_checkpoint(CheckpointPolicy::EverySteps(3)),
        ),
        app.clone(),
    )
    .unwrap()
    .digests;
    let report = Cluster::run(&cfg, app).expect("disk TEL run");
    assert_eq!(report.digests, clean);
    // Determinant logs landed on disk.
    let logs = std::fs::read_dir(dir.join("logs")).unwrap().count();
    assert!(logs >= 1, "expected event-log files, saw {logs}");
    let _ = std::fs::remove_dir_all(dir);
}
