//! The persistent cluster service: one warm runtime (shared stable
//! storage, one replication pipeline, a shared sweep pool) serving
//! concurrent tenant jobs, plus the line-oriented TCP front end.
//!
//! ## Isolation model
//!
//! Every job gets its **own** fabric, virtual clock and service slot (a
//! [`TaskJob`] builds all three), so co-resident tenants cannot
//! interfere through the network by construction. What they *do* share
//! is durable: one stable-storage backend and one replication pipeline,
//! namespaced by a monotonically allocated, never-reused `rank_base` —
//! tenant A's generations live under `ckpt/<base_A + rank>/` (event
//! logs under `eventlog/<base_A + rank>`), tenant B's under
//! `ckpt/<base_B + rank>/`, and a node-loss restore pulls exactly its
//! own global rank from the shared remote manifest.
//!
//! ## Scheduling model
//!
//! Every job — any protocol, detected failures included — is a
//! [`TaskJob`] multiplexed onto one shared worker pool: each pool
//! thread round-robins over every active job, claiming a whole round of
//! each with [`TaskJob::try_round`], then steps the service-wide
//! replicator (on the wall clock) until it is idle. A job or a
//! replicator another pool thread is driving is skipped, never waited
//! on, so a busy job never convoys the pool — that is the fairness
//! mechanism — and different jobs run in parallel on different
//! threads.

use crate::job::JobSpec;
use crate::workload::Workload;
use lclog_runtime::{
    Clock, DetectorReport, EventSink, Replicator, ReplicatorConfig, RunReport, TaskJob, TasksEnv,
};
use lclog_runtime::{DataPlaneStats, ReplicatorStats};
use lclog_core::TrackingStats;
use lclog_stable::{MemRemote, MemStore, StableStorage};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bounds (ms) of the job-latency histogram buckets; the last
/// bucket is unbounded.
const LATENCY_BOUNDS_MS: [u64; 9] = [5, 10, 25, 50, 100, 250, 500, 1000, 5000];

/// Completed-job latency histogram (fixed millisecond buckets).
#[derive(Debug, Default, Clone)]
struct LatencyHist {
    counts: [u64; LATENCY_BOUNDS_MS.len() + 1],
}

impl LatencyHist {
    fn record(&mut self, wall: Duration) {
        let ms = wall.as_millis() as u64;
        let bucket = LATENCY_BOUNDS_MS
            .iter()
            .position(|&b| ms <= b)
            .unwrap_or(LATENCY_BOUNDS_MS.len());
        self.counts[bucket] += 1;
    }

    fn render_into(&self, out: &mut String) {
        let mut lo = 0;
        for (i, &count) in self.counts.iter().enumerate() {
            match LATENCY_BOUNDS_MS.get(i) {
                Some(&hi) => out.push_str(&format!("latency_ms_{lo}_{hi}={count}\n")),
                None => out.push_str(&format!("latency_ms_{lo}_inf={count}\n")),
            }
            lo = LATENCY_BOUNDS_MS.get(i).copied().unwrap_or(lo);
        }
    }
}

/// Where a job currently is in its lifecycle.
enum JobState {
    /// Being swept by the shared pool.
    Running(Arc<TaskJob<Workload>>),
    /// Done: the report (or failure) is held for REPORT/DIGESTS.
    Finished {
        report: Box<Result<RunReport, String>>,
        wall: Duration,
    },
}

/// One tenant job held by the service.
struct JobEntry {
    id: u64,
    spec: JobSpec,
    rank_base: usize,
    submitted: Instant,
    state: Mutex<JobState>,
}

/// Everything the pool threads and the TCP connections share.
struct Inner {
    storage: Arc<dyn StableStorage>,
    replicator: Arc<Replicator>,
    env: TasksEnv,
    jobs: Mutex<BTreeMap<u64, Arc<JobEntry>>>,
    next_id: AtomicU64,
    /// Monotonic, never reused: each job's rank namespace is carved
    /// out of `0..` in submit order (`n + 1` slots: `n` ranks plus the
    /// job's stable-service slot).
    next_base: AtomicUsize,
    draining: AtomicBool,
    stop: AtomicBool,
    hist: Mutex<LatencyHist>,
    /// Cross-job aggregates folded in as jobs finish.
    totals: Mutex<(TrackingStats, DataPlaneStats)>,
    last_detector: Mutex<Option<DetectorReport>>,
    jobs_finished: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_retired: AtomicU64,
    kills_total: AtomicU64,
    generations_cleared: AtomicU64,
    /// Where the TCP listener ended up (used to wake the accept loop
    /// at shutdown).
    bound: Mutex<Option<SocketAddr>>,
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Sweep-pool threads shared by all jobs.
    pub workers: usize,
    /// Replication pipeline knobs for the service-wide replicator.
    pub replicator: ReplicatorConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            replicator: ReplicatorConfig::default(),
        }
    }
}

/// The persistent cluster service. Construct with [`Service::start`],
/// talk to it in-process (submit/status/report) or over TCP
/// ([`Service::listen`] + [`crate::Client`]).
pub struct Service {
    inner: Arc<Inner>,
    pool: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Service {
    /// Bring up the warm runtime: shared storage, the service-wide
    /// replicator (stepped by the pool), and `cfg.workers` sweep
    /// threads.
    pub fn start(cfg: ServiceConfig) -> Arc<Self> {
        let storage: Arc<dyn StableStorage> = Arc::new(MemStore::new());
        let replicator = Arc::new(Replicator::new(
            Arc::new(MemRemote::new()),
            cfg.replicator.clone(),
            Clock::Real,
            EventSink::disabled(),
            0,
        ));
        let inner = Arc::new(Inner {
            env: TasksEnv {
                storage: Arc::clone(&storage),
                replicator: Some(Arc::clone(&replicator)),
            },
            storage,
            replicator,
            jobs: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            next_base: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            hist: Mutex::new(LatencyHist::default()),
            totals: Mutex::new((TrackingStats::default(), DataPlaneStats::default())),
            last_detector: Mutex::new(None),
            jobs_finished: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_retired: AtomicU64::new(0),
            kills_total: AtomicU64::new(0),
            generations_cleared: AtomicU64::new(0),
            bound: Mutex::new(None),
        });
        let pool = (0..cfg.workers.max(1))
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("lclog-serve-{w}"))
                    .spawn(move || pool_worker(&inner))
                    .expect("spawn sweep worker")
            })
            .collect();
        Arc::new(Service {
            inner,
            pool: Mutex::new(pool),
        })
    }

    /// The shared local stable storage (tests inspect namespaces).
    pub fn storage(&self) -> &Arc<dyn StableStorage> {
        &self.inner.storage
    }

    /// Submit a job; returns its id. Refused while draining.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, String> {
        if self.inner.draining.load(Ordering::Acquire) {
            return Err("service is draining; submits are closed".into());
        }
        let rank_base = self
            .inner
            .next_base
            .fetch_add(spec.n + 1, Ordering::Relaxed);
        let job = TaskJob::with_env(
            &spec.cluster_config(rank_base),
            spec.workload(),
            &self.inner.env,
        )?;
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(JobEntry {
            id,
            spec,
            rank_base,
            submitted: Instant::now(),
            state: Mutex::new(JobState::Running(Arc::new(job))),
        });
        self.inner.jobs.lock().insert(id, entry);
        Ok(id)
    }

    /// One-line lifecycle probe.
    pub fn status(&self, id: u64) -> Result<String, String> {
        let entry = self.entry(id)?;
        let state = entry.state.lock();
        Ok(match &*state {
            JobState::Running(driver) => {
                let (done, total) = driver.progress();
                format!(
                    "id={id} state=running done={done}/{total} kills={}",
                    driver.kills_fired()
                )
            }
            JobState::Finished { report, wall } => match report.as_ref() {
                Ok(r) => format!(
                    "id={id} state=finished wall_ms={} kills={}",
                    wall.as_millis(),
                    r.kills
                ),
                Err(e) => format!("id={id} state=failed error={e:?}"),
            },
        })
    }

    /// The finished job's report (error while still running).
    pub fn report(&self, id: u64) -> Result<RunReport, String> {
        let entry = self.entry(id)?;
        let state = entry.state.lock();
        match &*state {
            JobState::Finished { report, .. } => (**report).clone(),
            _ => Err(format!("job {id} is still running")),
        }
    }

    /// Block until job `id` finishes (or `timeout` passes), then
    /// return its report.
    pub fn wait(&self, id: u64, timeout: Duration) -> Result<RunReport, String> {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let entry = self.entry(id)?;
                let state = entry.state.lock();
                if let JobState::Finished { report, .. } = &*state {
                    return (**report).clone();
                }
            }
            if Instant::now() >= deadline {
                return Err(format!("timed out waiting for job {id}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Drop a finished job from the registry (its generations were
    /// GC'd when it finished).
    pub fn retire(&self, id: u64) -> Result<(), String> {
        let entry = self.entry(id)?;
        {
            let state = entry.state.lock();
            if !matches!(&*state, JobState::Finished { .. }) {
                return Err(format!("job {id} is still running"));
            }
        }
        self.inner.jobs.lock().remove(&id);
        self.inner.jobs_retired.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The membership view: every held job and its rank namespace.
    pub fn members(&self) -> String {
        let mut out = String::new();
        for entry in self.inner.jobs.lock().values() {
            let state = match &*entry.state.lock() {
                JobState::Running(_) => "running",
                JobState::Finished { report, .. } if report.is_ok() => "finished",
                JobState::Finished { .. } => "failed",
            };
            out.push_str(&format!(
                "job id={} state={state} ranks={}..{} {}\n",
                entry.id,
                entry.rank_base,
                entry.rank_base + entry.spec.n,
                entry.spec.describe()
            ));
        }
        out
    }

    /// Drain the replicator's backlog now; true when the remote holds
    /// everything offered before the call.
    pub fn snapshot_now(&self) -> bool {
        self.inner.replicator.drain()
    }

    /// Graceful shutdown, phase 1: close submits, wait for running
    /// jobs, then drain the replicator. Returns `(finished jobs,
    /// remote synced)`.
    pub fn drain(&self, timeout: Duration) -> (u64, bool) {
        self.inner.draining.store(true, Ordering::Release);
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            let busy = self
                .inner
                .jobs
                .lock()
                .values()
                .any(|e| !matches!(&*e.state.lock(), JobState::Finished { .. }));
            if !busy {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let synced = self.inner.replicator.drain();
        (self.inner.jobs_finished.load(Ordering::Relaxed), synced)
    }

    /// Graceful shutdown, phase 2: stop the sweep pool and the
    /// listener, and join them.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::Release);
        // Wake the accept loop with a throwaway connection.
        if let Some(addr) = *self.inner.bound.lock() {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        }
        for handle in self.pool.lock().drain(..) {
            let _ = handle.join();
        }
    }

    /// `key=value` metrics text: job counters, cross-job tracking and
    /// data-plane aggregates, live replicator stats, the last detector
    /// report, and the completed-job latency histogram.
    pub fn metrics(&self) -> String {
        let inner = &self.inner;
        let active = inner
            .jobs
            .lock()
            .values()
            .filter(|e| !matches!(&*e.state.lock(), JobState::Finished { .. }))
            .count();
        let mut out = String::new();
        let submitted = inner.next_id.load(Ordering::Relaxed) - 1;
        out.push_str(&format!("jobs_submitted={submitted}\n"));
        out.push_str(&format!("jobs_active={active}\n"));
        out.push_str(&format!(
            "jobs_finished={}\n",
            inner.jobs_finished.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "jobs_failed={}\n",
            inner.jobs_failed.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "jobs_retired={}\n",
            inner.jobs_retired.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "kills_total={}\n",
            inner.kills_total.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "generations_cleared={}\n",
            inner.generations_cleared.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "draining={}\n",
            inner.draining.load(Ordering::Relaxed)
        ));
        {
            let totals = inner.totals.lock();
            out.push_str(&format!("delivers_total={}\n", totals.0.delivers));
            out.push_str(&format!(
                "piggyback_bytes_total={}\n",
                totals.0.piggyback_bytes
            ));
            out.push_str(&format!("frames_built_total={}\n", totals.1.frames_built));
            out.push_str(&format!(
                "retransmit_frames_total={}\n",
                totals.1.retransmit_frames
            ));
            out.push_str(&format!(
                "acks_coalesced_total={}\n",
                totals.1.acks_coalesced
            ));
        }
        let repl: ReplicatorStats = inner.replicator.stats();
        out.push_str(&format!("repl_objects_shipped={}\n", repl.objects_shipped));
        out.push_str(&format!("repl_bytes_shipped={}\n", repl.bytes_shipped));
        out.push_str(&format!("repl_retries={}\n", repl.retries));
        out.push_str(&format!("repl_restores={}\n", repl.restores));
        out.push_str(&format!("repl_resyncs={}\n", repl.resyncs));
        out.push_str(&format!(
            "repl_degraded_windows={}\n",
            repl.degraded_windows
        ));
        out.push_str(&format!("repl_spill_peak_bytes={}\n", repl.spill_peak_bytes));
        if let Some(det) = &*inner.last_detector.lock() {
            out.push_str(&format!("det_declarations={}\n", det.declarations));
            out.push_str(&format!("det_false_kills={}\n", det.false_kills));
            out.push_str(&format!("det_gate_timeouts={}\n", det.gate_timeouts));
            out.push_str(&format!(
                "det_mean_latency_us={}\n",
                det.mean_latency().unwrap_or_default().as_micros()
            ));
        }
        inner.hist.lock().render_into(&mut out);
        out
    }

    /// Bind the TCP front end on `addr` (e.g. `127.0.0.1:0`) and start
    /// the accept loop. Returns the bound address.
    pub fn listen(self: &Arc<Self>, addr: &str) -> std::io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        *self.inner.bound.lock() = Some(bound);
        let service = Arc::clone(self);
        let accept = std::thread::Builder::new()
            .name("lclog-serve-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if service.inner.stop.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(stream) = stream else { continue };
                    let service = Arc::clone(&service);
                    let _ = std::thread::Builder::new()
                        .name("lclog-serve-conn".into())
                        .spawn(move || service.serve_connection(stream));
                }
            })?;
        self.pool.lock().push(accept);
        Ok(bound)
    }

    /// One connection: a loop of request lines, one response each.
    fn serve_connection(&self, stream: TcpStream) {
        // Line-sized responses must not sit in Nagle's buffer.
        let _ = stream.set_nodelay(true);
        let mut reader = BufReader::new(match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        });
        let mut writer = stream;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            let response = self.handle(line.trim());
            if writer.write_all(response.as_bytes()).is_err()
                || writer.write_all(b"\n").is_err()
            {
                return;
            }
            if self.inner.stop.load(Ordering::Acquire) {
                return;
            }
        }
    }

    /// Dispatch one request line to a response (no trailing newline).
    /// Multi-line responses (METRICS, MEMBERS) end with `END`.
    pub fn handle(&self, line: &str) -> String {
        let mut words = line.split_whitespace();
        let verb = words.next().unwrap_or("");
        let id_arg = |words: &mut dyn Iterator<Item = &str>| -> Result<u64, String> {
            words
                .next()
                .ok_or_else(|| "missing job id".to_string())?
                .parse()
                .map_err(|_| "job id is not a number".to_string())
        };
        match verb {
            "PING" => "OK pong".into(),
            "SUBMIT" => match JobSpec::parse(words).and_then(|spec| self.submit(spec)) {
                Ok(id) => {
                    let base = self
                        .inner
                        .jobs
                        .lock()
                        .get(&id)
                        .map(|e| e.rank_base)
                        .unwrap_or(0);
                    format!("OK id={id} base={base}")
                }
                Err(e) => format!("ERR {e}"),
            },
            "STATUS" => match id_arg(&mut words).and_then(|id| self.status(id)) {
                Ok(s) => format!("OK {s}"),
                Err(e) => format!("ERR {e}"),
            },
            "REPORT" => match id_arg(&mut words).and_then(|id| Ok((id, self.report(id)?))) {
                Ok((id, r)) => {
                    let mut line = format!(
                        "OK id={id} wall_ms={} kills={} delivers={} net_msgs={} digests={}",
                        r.wall.as_millis(),
                        r.kills,
                        r.stats.delivers,
                        r.net_msgs,
                        render_digests(&r.digests)
                    );
                    if let Some(repl) = &r.replicator {
                        line.push_str(&format!(
                            " repl_shipped={} repl_restores={}",
                            repl.objects_shipped, repl.restores
                        ));
                    }
                    if let Some(det) = &r.detector {
                        line.push_str(&format!(
                            " det_declarations={} det_false_kills={}",
                            det.declarations, det.false_kills
                        ));
                    }
                    line
                }
                Err(e) => format!("ERR {e}"),
            },
            "DIGESTS" => match id_arg(&mut words).and_then(|id| Ok((id, self.report(id)?))) {
                Ok((id, r)) => format!("OK id={id} {}", render_digests(&r.digests)),
                Err(e) => format!("ERR {e}"),
            },
            "RETIRE" => match id_arg(&mut words).and_then(|id| self.retire(id).map(|_| id)) {
                Ok(id) => format!("OK retired id={id}"),
                Err(e) => format!("ERR {e}"),
            },
            "MEMBERS" => format!("{}END", self.members()),
            "METRICS" => format!("{}END", self.metrics()),
            "SNAPSHOT" => format!("OK synced={}", self.snapshot_now()),
            "DRAIN" => {
                let (finished, synced) = self.drain(Duration::from_secs(60));
                format!("OK drained jobs={finished} synced={synced}")
            }
            "" => "ERR empty request".into(),
            other => format!("ERR unknown command {other:?}"),
        }
    }

    fn entry(&self, id: u64) -> Result<Arc<JobEntry>, String> {
        self.inner
            .jobs
            .lock()
            .get(&id)
            .cloned()
            .ok_or_else(|| format!("unknown job {id}"))
    }
}

/// Hex digest list, comma separated — stable across REPORT/DIGESTS
/// and trivially diffable between runs.
fn render_digests(digests: &[u64]) -> String {
    digests
        .iter()
        .map(|d| format!("{d:016x}"))
        .collect::<Vec<_>>()
        .join(",")
}

impl Inner {
    /// Record a finished job exactly once: fold its aggregates into
    /// the service totals, record its latency, and park the report.
    fn finalize(&self, entry: &JobEntry, result: Result<RunReport, String>, gens_cleared: usize) {
        let mut state = entry.state.lock();
        if matches!(&*state, JobState::Finished { .. }) {
            return;
        }
        let wall = entry.submitted.elapsed();
        match &result {
            Ok(report) => {
                self.jobs_finished.fetch_add(1, Ordering::Relaxed);
                self.kills_total
                    .fetch_add(report.kills as u64, Ordering::Relaxed);
                let mut totals = self.totals.lock();
                totals.0.merge(&report.stats);
                totals.1.merge(&report.data_plane);
                if let Some(det) = &report.detector {
                    *self.last_detector.lock() = Some(det.clone());
                }
            }
            Err(_) => {
                self.jobs_failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.generations_cleared
            .fetch_add(gens_cleared as u64, Ordering::Relaxed);
        self.hist.lock().record(wall);
        *state = JobState::Finished {
            report: Box::new(result),
            wall,
        };
    }
}

/// One shared pool thread: round-robin over every active job, running
/// one round of each that no other pool thread holds and finalizing
/// jobs that completed, then step the replicator until it is idle or
/// another pool thread holds it.
fn pool_worker(inner: &Arc<Inner>) {
    loop {
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        let entries: Vec<Arc<JobEntry>> = inner.jobs.lock().values().cloned().collect();
        let mut progressed = false;
        for entry in &entries {
            let driver = match &*entry.state.lock() {
                JobState::Running(driver) => Arc::clone(driver),
                _ => continue,
            };
            // A round always moves the job's virtual clock, so it is
            // progress even when no frame moved.
            let Some(finished) = driver.try_round() else {
                continue;
            };
            progressed = true;
            if finished {
                // Report first, then GC: a finished tenant's ranks
                // never restore again, and a long-running service must
                // not accumulate dead tenants' generations.
                let report = driver.report();
                let gens = driver.clear_generations();
                inner.finalize(entry, report, gens);
            }
        }
        // Ship the backlog the pass offered, so the spill buffer never
        // has to shed a generation a torn-upload restore falls back to.
        while inner.replicator.step() {
            progressed = true;
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use lclog_runtime::run_tasks;

    fn spec(args: &str) -> JobSpec {
        JobSpec::parse(args.split_whitespace()).expect("test spec parses")
    }

    /// The fault-free digests a spec must converge to, computed by a
    /// standalone batch run (no service, no namespace, no faults).
    fn expected_digests(spec: &JobSpec) -> Vec<u64> {
        let mut clean = spec.clone();
        clean.fault = None;
        run_tasks(&clean.cluster_config(0), clean.workload())
            .expect("standalone fault-free run")
            .digests
    }

    #[test]
    fn concurrent_tenants_with_a_mid_job_wipe_do_not_interfere() {
        let service = Service::start(ServiceConfig::default());
        let specs = [
            spec("kind=ring n=4 proto=tdi rounds=8"),
            spec("kind=ring n=5 proto=tdis rounds=8"),
            spec("kind=pairs n=4 proto=tag rounds=8"),
            spec("kind=ring n=4 proto=tdi rounds=10 kill=1@4 wipe=on"),
        ];
        let ids: Vec<u64> = specs
            .iter()
            .map(|s| service.submit(s.clone()).expect("submit"))
            .collect();
        for (spec, id) in specs.iter().zip(&ids) {
            let report = service.wait(*id, Duration::from_secs(60)).expect("job ok");
            assert_eq!(
                report.digests,
                expected_digests(spec),
                "job {id} must land on its fault-free digests"
            );
            if spec.fault.is_some() {
                assert!(report.kills >= 1, "the planned wipe kill must fire");
                let repl = report.replicator.expect("env jobs report replicator stats");
                assert!(repl.restores >= 1, "the wipe must restore from the remote");
            }
        }
        service.shutdown();
    }

    #[test]
    fn finished_tenants_generations_are_gcd_and_namespaces_stay_apart() {
        let service = Service::start(ServiceConfig::default());
        let a = service
            .submit(spec("kind=ring n=3 proto=tdi rounds=6"))
            .unwrap();
        service.wait(a, Duration::from_secs(30)).unwrap();
        // Finished tenant a was GC'd by the pool.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !service.storage().keys_with_prefix("ckpt/0/").is_empty()
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            service.storage().keys_with_prefix("ckpt/0/").is_empty(),
            "a finished tenant's generations must be GC'd"
        );
        // Tenant b gets a fresh namespace past a's (never reused).
        let b = service
            .submit(spec("kind=ring n=3 proto=tdi rounds=6"))
            .unwrap();
        let base = {
            let entry = service.entry(b).unwrap();
            entry.rank_base
        };
        assert!(base >= 4, "rank namespaces must never be reused");
        service.wait(b, Duration::from_secs(30)).unwrap();
        service.retire(b).unwrap();
        assert!(service.report(b).is_err(), "retired jobs are gone");
        service.shutdown();
    }

    #[test]
    fn drain_closes_submits_and_syncs_the_replicator() {
        let service = Service::start(ServiceConfig::default());
        let id = service
            .submit(spec("kind=ring n=4 proto=tdi rounds=6"))
            .unwrap();
        let (finished, synced) = service.drain(Duration::from_secs(60));
        assert!(finished >= 1, "drain waits for running jobs");
        assert!(synced, "drain leaves the remote caught up");
        assert!(
            service
                .submit(spec("kind=ring n=4 proto=tdi rounds=6"))
                .unwrap_err()
                .contains("draining"),
            "submits are closed while draining"
        );
        // The drained job is still reportable.
        assert!(service.report(id).is_ok());
        service.shutdown();
    }

    #[test]
    fn detector_job_feeds_the_metrics_endpoint() {
        let service = Service::start(ServiceConfig::default());
        let id = service
            .submit(spec(
                "kind=ring n=4 proto=tdi rounds=8 detector=on kill=1@4",
            ))
            .unwrap();
        let report = service.wait(id, Duration::from_secs(60)).expect("job ok");
        assert_eq!(
            report.digests,
            expected_digests(&spec("kind=ring n=4 proto=tdi rounds=8"))
        );
        let det = report.detector.expect("detector jobs report the detector");
        assert!(det.declarations >= 1, "the kill must be declared dead");
        let metrics = service.metrics();
        assert!(
            metrics.contains("det_declarations="),
            "metrics must carry the last detector report:\n{metrics}"
        );
        service.shutdown();
    }

    /// TEL tenants share the service's storage and replicator, so each
    /// one's event log lives under its own global ranks: co-resident
    /// tenants never append to one key, and retiring one drops only its
    /// own logs.
    #[test]
    fn tel_tenants_keep_their_event_logs_apart() {
        let service = Service::start(ServiceConfig::default());
        let (long, short) = (
            spec("kind=pairs n=4 proto=tel rounds=3000"),
            spec("kind=ring n=3 proto=tel rounds=4"),
        );
        let logged = |rank: usize| service.storage().log_len(&format!("eventlog/{rank}"));
        let b = service.submit(long.clone()).unwrap();
        let base_b = service.entry(b).unwrap().rank_base;
        let deadline = Instant::now() + Duration::from_secs(30);
        while logged(base_b) == 0 {
            assert!(Instant::now() < deadline, "the long tenant never logged");
            std::thread::sleep(Duration::from_millis(1));
        }
        let a = service.submit(short.clone()).unwrap();
        let base_a = service.entry(a).unwrap().rank_base;
        assert!(base_b + long.n < base_a, "namespaces are disjoint");
        assert_eq!(
            service.wait(a, Duration::from_secs(60)).unwrap().digests,
            expected_digests(&short)
        );
        assert!(
            (base_a..base_a + short.n).all(|rank| logged(rank) == 0),
            "a finished tenant's event logs are GC'd"
        );
        // Read b's log before its status: b still running afterwards
        // means its log was read before its own GC.
        let b_logged = logged(base_b);
        assert!(
            service.status(b).unwrap().contains("state=running"),
            "the long tenant must outlive the short one"
        );
        assert!(
            b_logged > 0,
            "the running tenant's event log must survive a's GC"
        );
        assert_eq!(
            service.wait(b, Duration::from_secs(120)).unwrap().digests,
            expected_digests(&long)
        );
        assert!((base_b..base_b + long.n).all(|rank| logged(rank) == 0));
        service.shutdown();
    }

    #[test]
    fn tcp_front_end_round_trips_the_whole_protocol() {
        let service = Service::start(ServiceConfig::default());
        let addr = service.listen("127.0.0.1:0").expect("bind loopback");
        let mut client = Client::connect(addr).expect("connect");
        assert_eq!(client.request("PING").unwrap(), "OK pong");
        let id = client
            .request_field("SUBMIT kind=ring n=4 proto=tdi rounds=8 kill=2@3 wipe=on", "id")
            .expect("submit over tcp");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let status = client.request(&format!("STATUS {id}")).unwrap();
            assert!(status.starts_with("OK"), "{status}");
            if status.contains("state=finished") {
                break;
            }
            assert!(
                !status.contains("state=failed"),
                "job failed over tcp: {status}"
            );
            assert!(Instant::now() < deadline, "tcp job timed out: {status}");
            std::thread::sleep(Duration::from_millis(2));
        }
        let report = client.request(&format!("REPORT {id}")).unwrap();
        assert!(report.contains("kills=1"), "{report}");
        assert!(report.contains("repl_restores=1"), "{report}");
        let digests = client.request(&format!("DIGESTS {id}")).unwrap();
        let expected = render_digests(&expected_digests(&spec(
            "kind=ring n=4 proto=tdi rounds=8",
        )));
        assert!(
            digests.ends_with(&expected),
            "tcp digests {digests:?} != fault-free {expected:?}"
        );
        let members = client.request("MEMBERS").unwrap();
        assert!(members.contains(&format!("id={id} state=finished")), "{members}");
        let metrics = client.request("METRICS").unwrap();
        for key in [
            "jobs_finished=1",
            "repl_objects_shipped=",
            "delivers_total=",
            "latency_ms_0_5=",
        ] {
            assert!(metrics.contains(key), "missing {key} in:\n{metrics}");
        }
        assert_eq!(
            client.request("SNAPSHOT").unwrap(),
            "OK synced=true"
        );
        assert_eq!(
            client.request(&format!("RETIRE {id}")).unwrap(),
            format!("OK retired id={id}")
        );
        assert!(client
            .request(&format!("REPORT {id}"))
            .unwrap()
            .starts_with("ERR unknown job"));
        assert!(client.request("BOGUS").unwrap().starts_with("ERR"));
        service.shutdown();
    }
}
