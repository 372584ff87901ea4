//! The two communication engines of Fig. 4.
//!
//! **Blocking** (Fig. 4a): the application thread itself moves every
//! byte. Sends above the eager threshold wait for the receiver's
//! ingestion acknowledgement, and incoming traffic — application
//! messages, checkpoint notices, and peers' recovery requests — is
//! serviced only while the application sits inside a runtime call.
//! A failed peer therefore stalls its neighbours, which is exactly the
//! effect Fig. 8 quantifies.
//!
//! **Non-blocking** (Fig. 4b): a dedicated communication thread drains
//! the fabric continuously (the receiving queue of the paper's scheme;
//! the fabric channel itself plays the role of the sending queue "A",
//! since handing an envelope to the fabric never blocks). Application
//! sends return immediately and recovery traffic is serviced even
//! while the application computes.
//!
//! The kernel is `Sync` (one state lock inside), so both threads call
//! it directly — the comm thread's `ingest_batch` and the app thread's
//! `try_deliver`/`app_send`. The only coordination between them
//! outside the kernel is the [`Notifier`]: an eventcount the
//! comm thread bumps after every ingestion batch so the app thread can
//! sleep without a missed-wakeup race (read the generation *before*
//! checking the condition; wait only past that generation).

use crate::backoff::Backoff;
use crate::config::CommMode;
use crate::fault::Fault;
use crate::kernel::{Kernel, KernelSnapshot};
use crate::message::{AppMsg, RecvSpec};
use bytes::Bytes;
use lclog_core::Rank;
use lclog_simnet::{Endpoint, RecvError, SimNet};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Eventcount: "something may have changed" edges from the comm
/// thread to the app thread. Waiters snapshot [`Notifier::generation`]
/// *before* testing their condition and then sleep only
/// [`Notifier::wait_past`] that snapshot — a notification between test
/// and sleep makes the sleep return immediately, so no edge is lost.
struct Notifier {
    gen: Mutex<u64>,
    cv: Condvar,
}

impl Notifier {
    fn new() -> Self {
        Notifier {
            gen: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Current generation; pass to [`Notifier::wait_past`].
    fn generation(&self) -> u64 {
        *self.gen.lock()
    }

    /// Signal all waiters that state changed.
    fn notify(&self) {
        *self.gen.lock() += 1;
        self.cv.notify_all();
    }

    /// Sleep until the generation moves past `seen` (or `timeout`).
    /// Returns true when it timed out with no progress observed.
    fn wait_past(&self, seen: u64, timeout: Duration) -> bool {
        let mut gen = self.gen.lock();
        if *gen != seen {
            return false;
        }
        self.cv.wait_for(&mut gen, timeout).timed_out()
    }
}

/// Shared engine state.
struct Shared {
    kernel: Kernel,
    notifier: Notifier,
    /// Set when this incarnation is dead (crashed) — runtime calls
    /// fail with [`Fault::Killed`].
    dead: AtomicBool,
    /// Set by the cluster when the whole run is over (or aborted) —
    /// runtime calls fail with [`Fault::Shutdown`].
    shutdown: Arc<AtomicBool>,
}

/// One rank incarnation's communication engine.
pub struct Engine {
    shared: Arc<Shared>,
    /// Owned by the app thread in blocking mode; `None` when the comm
    /// thread owns it.
    endpoint: Option<Endpoint>,
    comm: Option<JoinHandle<()>>,
    net: SimNet,
    me: Rank,
    mode: CommMode,
    poll: Duration,
    retry: Duration,
}

impl Engine {
    /// Wrap a kernel and start the engine for `mode`.
    pub fn new(kernel: Kernel, endpoint: Endpoint, shutdown: Arc<AtomicBool>) -> Self {
        let me = kernel.me();
        let mode = kernel.cfg().comm;
        let poll = kernel.cfg().poll_interval;
        let retry = kernel.cfg().retry_interval;
        let net = kernel.net_handle();
        let shared = Arc::new(Shared {
            kernel,
            notifier: Notifier::new(),
            dead: AtomicBool::new(false),
            shutdown,
        });
        let (endpoint, comm) = match mode {
            CommMode::Blocking { .. } => (Some(endpoint), None),
            CommMode::NonBlocking => {
                let handle = spawn_comm_thread(Arc::clone(&shared), endpoint, poll);
                (None, Some(handle))
            }
        };
        Engine {
            shared,
            endpoint,
            comm,
            net,
            me,
            mode,
            poll,
            retry,
        }
    }

    /// This rank.
    pub fn me(&self) -> Rank {
        self.me
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.shared.kernel.n()
    }

    /// Poll-interval schedule for wait loops: start fine-grained so an
    /// active channel answers quickly, back off to `poll_interval`
    /// when idle.
    fn poll_backoff(&self) -> Backoff {
        Backoff::new((self.poll / 8).max(Duration::from_micros(1)), self.poll)
    }

    fn check_live(&self) -> Result<(), Fault> {
        if self.shared.dead.load(Ordering::Relaxed) {
            return Err(Fault::Killed);
        }
        if self.shared.kernel.is_fenced() {
            return Err(Fault::Fenced);
        }
        if self.shared.kernel.is_desynced() {
            return Err(Fault::Desync);
        }
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return Err(Fault::Shutdown);
        }
        Ok(())
    }

    /// True once a membership view declared this live incarnation dead
    /// (a false suspicion caught it). The harness treats it as a crash.
    pub fn is_fenced(&self) -> bool {
        self.shared.kernel.is_fenced()
    }

    /// Drain the fabric inbox into the kernel (blocking mode only —
    /// the app thread owns the endpoint). Envelopes are handed to the
    /// kernel as one batch, so acks coalesce to one cumulative frame
    /// per peer.
    fn pump(&self) -> Result<(), Fault> {
        let ep = self.endpoint.as_ref().expect("pump in blocking mode");
        let mut batch = Vec::new();
        loop {
            match ep.try_recv() {
                Ok(env) => batch.push(env),
                Err(RecvError::Empty) => break,
                Err(RecvError::Dead) => {
                    self.shared.dead.store(true, Ordering::Relaxed);
                    return Err(Fault::Killed);
                }
                Err(RecvError::Timeout) => unreachable!("try_recv never times out"),
            }
        }
        if !batch.is_empty() {
            self.shared.kernel.ingest_batch(batch);
        }
        self.shared.kernel.tick();
        Ok(())
    }

    /// Send an application message (both modes).
    pub fn send(&self, dst: Rank, tag: u32, data: Bytes) -> Result<(), Fault> {
        self.check_live()?;
        let kernel = &self.shared.kernel;
        match self.mode {
            CommMode::NonBlocking => {
                // Pessimistic logging: hold the send until the logger
                // has acknowledged our delivery determinants (the comm
                // thread ingests the ack and notifies).
                let mut backoff = self.poll_backoff();
                loop {
                    let seen = self.shared.notifier.generation();
                    if kernel.send_ready() {
                        break;
                    }
                    self.check_live()?;
                    self.shared.notifier.wait_past(seen, backoff.next_wait());
                }
                kernel.app_send(dst, tag, data, false);
                Ok(())
            }
            CommMode::Blocking { eager_threshold } => {
                self.pump()?;
                // Pessimistic send gate: service the inbox until the
                // logger ack arrives.
                let mut backoff = self.poll_backoff();
                loop {
                    if kernel.send_ready() {
                        break;
                    }
                    self.check_live()?;
                    let ep = self.endpoint.as_ref().expect("blocking mode endpoint");
                    match ep.recv_timeout(backoff.next_wait()) {
                        Ok(env) => {
                            kernel.ingest(env);
                            backoff.reset();
                        }
                        Err(RecvError::Timeout) => kernel.tick(),
                        Err(RecvError::Dead) => {
                            self.shared.dead.store(true, Ordering::Relaxed);
                            return Err(Fault::Killed);
                        }
                        Err(RecvError::Empty) => unreachable!(),
                    }
                }
                let needs_ack = data.len() > eager_threshold;
                let (send_index, transmitted) = kernel.app_send(dst, tag, data, needs_ack);
                if !(needs_ack && transmitted) {
                    return Ok(());
                }
                // Rendezvous: wait for the receiver's ingestion ack,
                // servicing our own inbox meanwhile (a blocked sender
                // must still answer ROLLBACKs or the system deadlocks).
                let ep = self.endpoint.as_ref().expect("blocking mode endpoint");
                let mut last_resend = Instant::now();
                let mut backoff = self.poll_backoff();
                loop {
                    self.check_live()?;
                    self.pump()?;
                    let (acked, unreachable) = kernel.rendezvous_progress(dst);
                    if acked >= send_index {
                        return Ok(());
                    }
                    // The reliability layer has written the peer off:
                    // fail the send instead of spinning on a rendezvous
                    // that can never complete.
                    if unreachable {
                        return Err(Fault::Unreachable(dst));
                    }
                    match ep.recv_timeout(backoff.next_wait()) {
                        Ok(env) => {
                            kernel.ingest(env);
                            backoff.reset();
                        }
                        Err(RecvError::Timeout) => {}
                        Err(RecvError::Dead) => {
                            self.shared.dead.store(true, Ordering::Relaxed);
                            return Err(Fault::Killed);
                        }
                        Err(RecvError::Empty) => unreachable!(),
                    }
                    if last_resend.elapsed() >= self.retry {
                        // The receiver may have died and respawned; its
                        // incarnation will ack (or discard-and-ack) the
                        // retransmission.
                        kernel.resend_unacked(dst, send_index);
                        last_resend = Instant::now();
                    }
                }
            }
        }
    }

    /// Blocking receive matching `spec` (both modes).
    pub fn recv(&self, spec: RecvSpec) -> Result<AppMsg, Fault> {
        let kernel = &self.shared.kernel;
        let started = Instant::now();
        let mut dumped = false;
        let mut backoff = self.poll_backoff();
        match self.mode {
            CommMode::Blocking { .. } => loop {
                self.check_live()?;
                self.pump()?;
                if let Some(msg) = kernel.try_deliver(spec) {
                    return Ok(msg);
                }
                if !dumped
                    && started.elapsed() > Duration::from_secs(5)
                    && std::env::var_os("LCLOG_TRACE").is_some()
                {
                    dumped = true;
                    eprintln!("[stall] rank {} recv {:?}: {:?}", self.me, spec, kernel);
                }
                let ep = self.endpoint.as_ref().expect("blocking mode endpoint");
                match ep.recv_timeout(backoff.next_wait()) {
                    Ok(env) => {
                        kernel.ingest(env);
                        backoff.reset();
                    }
                    Err(RecvError::Timeout) => {}
                    Err(RecvError::Dead) => {
                        self.shared.dead.store(true, Ordering::Relaxed);
                        return Err(Fault::Killed);
                    }
                    Err(RecvError::Empty) => unreachable!(),
                }
            },
            CommMode::NonBlocking => loop {
                self.check_live()?;
                // Generation first, condition second: an ingestion
                // that lands between the two makes wait_past return
                // immediately instead of being missed.
                let seen = self.shared.notifier.generation();
                if let Some(msg) = kernel.try_deliver(spec) {
                    return Ok(msg);
                }
                if !dumped
                    && started.elapsed() > Duration::from_secs(5)
                    && std::env::var_os("LCLOG_TRACE").is_some()
                {
                    dumped = true;
                    eprintln!("[stall] rank {} recv {:?}: {:?}", self.me, spec, kernel);
                }
                if !self.shared.notifier.wait_past(seen, backoff.next_wait()) {
                    backoff.reset();
                }
            },
        }
    }

    /// Non-blocking receive: deliver the first queued message matching
    /// `spec` if its dependency gate opens right now, else `Ok(None)`.
    /// The poll-style primitive cooperative task engines are built on —
    /// a task must never park its worker thread in [`Engine::recv`].
    pub fn try_recv(&self, spec: RecvSpec) -> Result<Option<AppMsg>, Fault> {
        self.check_live()?;
        if matches!(self.mode, CommMode::Blocking { .. }) {
            self.pump()?;
        }
        Ok(self.shared.kernel.try_deliver(spec))
    }

    /// Take a checkpoint if the policy says one is due after `step`.
    pub fn maybe_checkpoint(&self, app_state: impl FnOnce() -> Vec<u8>, step: u64) -> bool {
        let kernel = &self.shared.kernel;
        if kernel.checkpoint_due(step) {
            kernel.do_checkpoint(app_state(), step);
            true
        } else {
            false
        }
    }

    /// Unconditional checkpoint after `step`.
    pub fn checkpoint_now(&self, app_state: Vec<u8>, step: u64) {
        self.shared.kernel.do_checkpoint(app_state, step);
    }

    /// Simulate a crash of this incarnation: sever the fabric endpoint
    /// (in-flight and queued messages are lost) and poison all runtime
    /// calls. Volatile kernel state dies with the thread.
    pub fn crash(&mut self) {
        self.net.kill(self.me);
        self.shared.dead.store(true, Ordering::Relaxed);
        self.shared.notifier.notify();
        if let Some(handle) = self.comm.take() {
            let _ = handle.join();
        }
    }

    /// After the application finishes, keep servicing peers (log
    /// resends for late failures, acks, checkpoint notices) until the
    /// whole cluster is done.
    pub fn serve_until_shutdown(&self) {
        let mut backoff = self.poll_backoff();
        while !self.shared.shutdown.load(Ordering::Relaxed) {
            if self.shared.dead.load(Ordering::Relaxed) {
                return;
            }
            // A false suspicion can fence even a finished rank; return
            // so the harness can crash-and-respawn it (peers reject a
            // fenced incarnation's frames, so serving is pointless).
            if self.shared.kernel.is_fenced() {
                return;
            }
            match self.mode {
                CommMode::Blocking { .. } => {
                    if self.pump().is_err() {
                        return;
                    }
                    let ep = self.endpoint.as_ref().expect("blocking mode endpoint");
                    match ep.recv_timeout(backoff.next_wait()) {
                        Ok(env) => {
                            self.shared.kernel.ingest(env);
                            backoff.reset();
                        }
                        Err(RecvError::Timeout) => {}
                        Err(_) => return,
                    }
                }
                CommMode::NonBlocking => {
                    // The comm thread does the serving; this thread
                    // only waits for the shutdown flag.
                    std::thread::sleep(backoff.next_wait());
                }
            }
        }
    }

    /// Consistent cross-layer snapshot of the kernel (statistics, log
    /// pressure, recovery phase).
    pub fn snapshot(&self) -> KernelSnapshot {
        self.shared.kernel.snapshot()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Stop the comm thread; without marking dead it would keep
        // polling a live endpoint forever.
        self.shared.dead.store(true, Ordering::Relaxed);
        self.shared.notifier.notify();
        if let Some(handle) = self.comm.take() {
            let _ = handle.join();
        }
    }
}

fn spawn_comm_thread(shared: Arc<Shared>, endpoint: Endpoint, poll: Duration) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("lclog-comm-{}", endpoint.rank()))
        .spawn(move || {
            let mut backoff = Backoff::new((poll / 8).max(Duration::from_micros(1)), poll);
            loop {
                if shared.dead.load(Ordering::Relaxed) || shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                match endpoint.recv_timeout(backoff.next_wait()) {
                    Ok(env) => {
                        backoff.reset();
                        // Drain whatever else is queued and hand the
                        // kernel one batch — acks coalesce per peer —
                        // before waking the app thread.
                        let mut batch = vec![env];
                        while let Ok(env) = endpoint.try_recv() {
                            batch.push(env);
                        }
                        shared.kernel.ingest_batch(batch);
                        shared.kernel.tick();
                        shared.notifier.notify();
                    }
                    Err(RecvError::Timeout) => {
                        shared.kernel.tick();
                        shared.notifier.notify();
                    }
                    Err(RecvError::Dead) => {
                        shared.dead.store(true, Ordering::Relaxed);
                        shared.notifier.notify();
                        return;
                    }
                    Err(RecvError::Empty) => unreachable!(),
                }
            }
        })
        .expect("spawn comm thread")
}
