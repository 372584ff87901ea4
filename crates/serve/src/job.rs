//! Tenant job descriptions: the SUBMIT grammar and what it turns into.

use crate::workload::{Workload, WorkloadKind};
use lclog_core::ProtocolKind;
use lclog_runtime::{CheckpointPolicy, ClusterConfig, DetectorConfig, FailurePlan};
use std::time::Duration;

/// The fault a tenant asks the service to inject mid-job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Victim rank (job-local).
    pub rank: usize,
    /// Step its first incarnation dies at.
    pub at_step: u64,
    /// Node loss: also wipe the victim's local generations, forcing a
    /// restore from the service's remote store.
    pub wipe: bool,
    /// Additionally tear the newest remote generation (restore must
    /// fall back one generation). Implies `wipe`.
    pub corrupt: bool,
}

/// A parsed SUBMIT request: everything that defines one tenant job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Communication kernel.
    pub kind: WorkloadKind,
    /// Rank count.
    pub n: usize,
    /// Dependency-tracking protocol.
    pub protocol: ProtocolKind,
    /// Rounds of the workload.
    pub rounds: u64,
    /// Checkpoint every this many steps.
    pub ckpt: u64,
    /// Detect failures instead of announcing them.
    pub detector: bool,
    /// Mid-job fault injection, if any.
    pub fault: Option<FaultSpec>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            kind: WorkloadKind::Ring,
            n: 4,
            protocol: ProtocolKind::Tdi,
            rounds: 8,
            ckpt: 2,
            detector: false,
            fault: None,
        }
    }
}

fn parse_protocol(s: &str) -> Result<ProtocolKind, String> {
    match s {
        "tdi" => Ok(ProtocolKind::Tdi),
        "tdis" => Ok(ProtocolKind::TdiSparse(8)),
        "tag" => Ok(ProtocolKind::Tag),
        "tagf" => Ok(ProtocolKind::TagF(2)),
        "tel" => Ok(ProtocolKind::Tel),
        "pes" => Ok(ProtocolKind::Pessim),
        other => Err(format!(
            "unknown protocol {other:?} (tdi|tdis|tag|tagf|tel|pes)"
        )),
    }
}

fn parse_bool(key: &str, s: &str) -> Result<bool, String> {
    match s {
        "on" | "true" | "1" => Ok(true),
        "off" | "false" | "0" => Ok(false),
        other => Err(format!("{key}={other:?} is not on|off")),
    }
}

impl JobSpec {
    /// Parse the `key=value` words of a SUBMIT request.
    ///
    /// ```text
    /// SUBMIT kind=ring n=8 proto=tdi rounds=12 ckpt=4 \
    ///        detector=off kill=1@4 wipe=on corrupt=off
    /// ```
    pub fn parse<'a>(words: impl Iterator<Item = &'a str>) -> Result<Self, String> {
        let mut spec = JobSpec::default();
        let mut wipe = false;
        let mut corrupt = false;
        for word in words {
            let (key, value) = word
                .split_once('=')
                .ok_or_else(|| format!("malformed argument {word:?} (want key=value)"))?;
            match key {
                "kind" => spec.kind = WorkloadKind::parse(value)?,
                "n" => {
                    spec.n = value
                        .parse()
                        .map_err(|_| format!("n={value:?} is not a rank count"))?;
                    if spec.n == 0 || spec.n > 4096 {
                        return Err(format!("n={} out of range 1..=4096", spec.n));
                    }
                }
                "proto" => spec.protocol = parse_protocol(value)?,
                "rounds" => {
                    spec.rounds = value
                        .parse()
                        .map_err(|_| format!("rounds={value:?} is not a number"))?
                }
                "ckpt" => {
                    spec.ckpt = value
                        .parse()
                        .map_err(|_| format!("ckpt={value:?} is not a step count"))?;
                    if spec.ckpt == 0 {
                        return Err("ckpt=0: checkpoint period must be positive".into());
                    }
                }
                "detector" => spec.detector = parse_bool("detector", value)?,
                "kill" => {
                    let (rank, step) = value.split_once('@').ok_or_else(|| {
                        format!("kill={value:?} is not rank@step (e.g. kill=1@4)")
                    })?;
                    spec.fault = Some(FaultSpec {
                        rank: rank
                            .parse()
                            .map_err(|_| format!("kill rank {rank:?} is not a rank"))?,
                        at_step: step
                            .parse()
                            .map_err(|_| format!("kill step {step:?} is not a step"))?,
                        wipe: false,
                        corrupt: false,
                    });
                }
                "wipe" => wipe = parse_bool("wipe", value)?,
                "corrupt" => corrupt = parse_bool("corrupt", value)?,
                other => return Err(format!("unknown SUBMIT key {other:?}")),
            }
        }
        if let Some(fault) = &mut spec.fault {
            fault.wipe = wipe || corrupt;
            fault.corrupt = corrupt;
            if fault.rank >= spec.n {
                return Err(format!(
                    "kill rank {} out of range for n={}",
                    fault.rank, spec.n
                ));
            }
        } else if wipe || corrupt {
            return Err("wipe/corrupt need a kill=rank@step".into());
        }
        Ok(spec)
    }

    /// One-line description for MEMBERS / logs.
    pub fn describe(&self) -> String {
        format!(
            "kind={} n={} proto={} rounds={}{}{}",
            self.kind.name(),
            self.n,
            self.protocol,
            self.rounds,
            if self.detector { " detector=on" } else { "" },
            match &self.fault {
                Some(f) => format!(
                    " kill={}@{}{}{}",
                    f.rank,
                    f.at_step,
                    if f.wipe { " wipe" } else { "" },
                    if f.corrupt { " corrupt" } else { "" }
                ),
                None => String::new(),
            },
        )
    }

    /// The failure plan this spec's fault describes.
    pub fn failure_plan(&self) -> FailurePlan {
        match &self.fault {
            None => FailurePlan::none(),
            Some(f) if f.corrupt => FailurePlan::none().and_kill_wipe_corrupt(f.rank, f.at_step),
            Some(f) if f.wipe => FailurePlan::kill_wipe_at(f.rank, f.at_step),
            Some(f) => FailurePlan::kill_at(f.rank, f.at_step),
        }
    }

    /// The cluster configuration of this job in the `rank_base`
    /// namespace the service allocated for it.
    pub fn cluster_config(&self, rank_base: usize) -> ClusterConfig {
        let mut run = lclog_runtime::RunConfig::new(self.protocol)
            .with_checkpoint(CheckpointPolicy::EverySteps(self.ckpt));
        if self.detector {
            run = run.with_detector(DetectorConfig::default());
        }
        ClusterConfig::new(self.n, run)
            .with_rank_base(rank_base)
            .with_failures(self.failure_plan())
            .with_max_wall(Duration::from_secs(120))
    }

    /// The workload instance this spec runs.
    pub fn workload(&self) -> Workload {
        Workload::new(self.kind, self.rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<JobSpec, String> {
        JobSpec::parse(s.split_whitespace())
    }

    #[test]
    fn parses_a_full_submit_line() {
        let spec = parse("kind=pairs n=6 proto=tdis rounds=10 ckpt=3 kill=2@4 wipe=on").unwrap();
        assert_eq!(spec.kind, WorkloadKind::Pairs);
        assert_eq!(spec.n, 6);
        assert_eq!(spec.protocol, ProtocolKind::TdiSparse(8));
        assert_eq!(spec.rounds, 10);
        let fault = spec.fault.unwrap();
        assert_eq!((fault.rank, fault.at_step), (2, 4));
        assert!(fault.wipe);
        assert!(!fault.corrupt);
    }

    #[test]
    fn rejects_malformed_submits() {
        assert!(parse("kind=torus").unwrap_err().contains("workload kind"));
        assert!(parse("n=0").unwrap_err().contains("out of range"));
        assert!(parse("proto=xyz").unwrap_err().contains("protocol"));
        assert!(parse("kill=9").unwrap_err().contains("rank@step"));
        assert!(parse("n=4 kill=7@2").unwrap_err().contains("out of range"));
        assert!(parse("wipe=on").unwrap_err().contains("need a kill"));
        assert!(parse("engine=threads")
            .unwrap_err()
            .contains("unknown SUBMIT key"));
        assert!(parse("frobnicate=yes").unwrap_err().contains("unknown"));
        assert!(parse("detector=on").unwrap().detector);
    }

    #[test]
    fn corrupt_implies_wipe() {
        let spec = parse("kill=1@3 corrupt=on").unwrap();
        let fault = spec.fault.unwrap();
        assert!(fault.wipe && fault.corrupt);
    }
}
