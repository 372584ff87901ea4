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
//! it directly. Whichever thread owns the endpoint runs the one inbox
//! step (`Shared::service_inbox`: wait, drain, `ingest_batch`, `tick`,
//! notify) — the comm thread in a loop, the app thread from inside the
//! one wait loop (`Engine::wait_for`) that the send gate, the
//! rendezvous, `recv` and `serve_until_shutdown` all are. The only
//! coordination outside the kernel is the [`Notifier`]: an eventcount
//! bumped after every inbox step so the app thread can sleep without a
//! missed-wakeup race (read the generation *before* checking the
//! condition; wait only past that generation).

use crate::backoff::Backoff;
use crate::config::CommMode;
use crate::fault::Fault;
use crate::kernel::{Kernel, RETRY_INTERVAL};
use crate::message::{AppMsg, RecvSpec};
use bytes::Bytes;
use lclog_core::Rank;
use lclog_simnet::{Endpoint, RecvError};
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

/// How long a blocked operation sleeps between queue polls once its
/// channel has gone idle.
const POLL_INTERVAL: Duration = Duration::from_micros(200);

/// Poll-interval schedule for wait loops: start fine-grained so an
/// active channel answers quickly, back off to [`POLL_INTERVAL`] when
/// idle.
fn poll_backoff() -> Backoff {
    Backoff::new(POLL_INTERVAL / 8, POLL_INTERVAL)
}

/// Engine state both threads of a rank see.
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

impl Shared {
    /// One inbox step, on the thread that owns `endpoint`: wait up to
    /// `wait` for an envelope, drain whatever else is queued, hand the
    /// kernel one batch — acks coalesce to one cumulative frame per
    /// peer — run its timers, and wake whoever sleeps on the notifier.
    /// True if anything arrived.
    fn service_inbox(&self, endpoint: &Endpoint, wait: Duration) -> Result<bool, Fault> {
        let arrived = match endpoint.recv_timeout(wait) {
            Ok(env) => {
                let mut batch = vec![env];
                while let Ok(env) = endpoint.try_recv() {
                    batch.push(env);
                }
                self.kernel.ingest_batch(batch);
                true
            }
            Err(RecvError::Timeout) => false,
            Err(_) => {
                self.dead.store(true, Ordering::Relaxed);
                self.notifier.notify();
                return Err(Fault::Killed);
            }
        };
        self.kernel.tick();
        self.notifier.notify();
        Ok(arrived)
    }
}

/// One rank incarnation's communication engine.
pub struct Engine {
    shared: Arc<Shared>,
    /// Owned by the app thread in blocking mode; `None` when the comm
    /// thread owns it.
    endpoint: Option<Endpoint>,
    comm: Option<JoinHandle<()>>,
}

impl Engine {
    /// Wrap a kernel and start the engine for its configured mode.
    pub fn new(kernel: Kernel, endpoint: Endpoint, shutdown: Arc<AtomicBool>) -> Self {
        let mode = kernel.cfg().comm;
        let shared = Arc::new(Shared {
            kernel,
            notifier: Notifier::new(),
            dead: AtomicBool::new(false),
            shutdown,
        });
        let (endpoint, comm) = match mode {
            CommMode::Blocking { .. } => (Some(endpoint), None),
            CommMode::NonBlocking => (None, Some(spawn_comm_thread(Arc::clone(&shared), endpoint))),
        };
        Engine {
            shared,
            endpoint,
            comm,
        }
    }

    /// This rank.
    pub fn me(&self) -> Rank {
        self.shared.kernel.me()
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.shared.kernel.n()
    }

    /// The kernel underneath (checkpoints, snapshots, fencing state).
    pub(crate) fn kernel(&self) -> &Kernel {
        &self.shared.kernel
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

    /// Blocking mode: service whatever is queued without waiting —
    /// incoming traffic is handled only inside runtime calls (Fig. 4a).
    fn pump(&self) -> Result<(), Fault> {
        if let Some(endpoint) = &self.endpoint {
            self.shared.service_inbox(endpoint, Duration::ZERO)?;
        }
        Ok(())
    }

    /// The one wait loop: until `ready` yields, the incarnation dies or
    /// the run ends, keep the inbox serviced — by this thread in
    /// blocking mode (a blocked rank must still answer `ROLLBACK`s or
    /// the system deadlocks), by sleeping on the comm thread's notifier
    /// otherwise. The notifier generation is read *before* `ready`
    /// runs, so an ingestion landing between the two cuts the sleep
    /// short instead of being missed.
    fn wait_for<T>(
        &self,
        mut ready: impl FnMut(&Kernel) -> Result<Option<T>, Fault>,
    ) -> Result<T, Fault> {
        let mut backoff = poll_backoff();
        loop {
            self.check_live()?;
            let seen = self.shared.notifier.generation();
            if let Some(out) = ready(&self.shared.kernel)? {
                return Ok(out);
            }
            let progressed = match &self.endpoint {
                Some(endpoint) => self.shared.service_inbox(endpoint, backoff.next_wait())?,
                None => !self.shared.notifier.wait_past(seen, backoff.next_wait()),
            };
            if progressed {
                backoff.reset();
            }
        }
    }

    /// Send an application message (both modes).
    pub fn send(&self, dst: Rank, tag: u32, data: Bytes) -> Result<(), Fault> {
        self.pump()?;
        // Pessimistic logging: hold the send until the logger has
        // acknowledged our delivery determinants.
        self.wait_for(|kernel| Ok(kernel.send_ready().then_some(())))?;
        let needs_ack = match self.shared.kernel.cfg().comm {
            CommMode::Blocking { eager_threshold } => data.len() > eager_threshold,
            CommMode::NonBlocking => false,
        };
        let (send_index, transmitted) = self.shared.kernel.app_send(dst, tag, data, needs_ack);
        if !(needs_ack && transmitted) {
            return Ok(());
        }
        // Rendezvous: wait for the receiver's ingestion ack.
        let mut last_resend = Instant::now();
        self.wait_for(|kernel| {
            let (acked, unreachable) = kernel.rendezvous_progress(dst);
            if acked >= send_index {
                return Ok(Some(()));
            }
            // The reliability layer has written the peer off: fail the
            // send instead of spinning on a rendezvous that can never
            // complete.
            if unreachable {
                return Err(Fault::Unreachable(dst));
            }
            if last_resend.elapsed() >= RETRY_INTERVAL {
                // The receiver may have died and respawned; its
                // incarnation will ack (or discard-and-ack) the
                // retransmission.
                kernel.resend_unacked(dst, send_index);
                last_resend = Instant::now();
            }
            Ok(None)
        })
    }

    /// Blocking receive matching `spec` (both modes).
    pub fn recv(&self, spec: RecvSpec) -> Result<AppMsg, Fault> {
        let started = Instant::now();
        let mut dumped = false;
        self.wait_for(|kernel| {
            let msg = kernel.try_deliver(spec);
            if msg.is_none()
                && !dumped
                && started.elapsed() > Duration::from_secs(5)
                && std::env::var_os("LCLOG_TRACE").is_some()
            {
                dumped = true;
                eprintln!("[stall] rank {} recv {:?}: {:?}", kernel.me(), spec, kernel);
            }
            Ok(msg)
        })
    }

    /// Non-blocking receive: deliver the first queued message matching
    /// `spec` if its dependency gate opens right now, else `Ok(None)`.
    /// The poll-style primitive cooperative task engines are built on —
    /// a task must never park its worker thread in [`Engine::recv`].
    pub fn try_recv(&self, spec: RecvSpec) -> Result<Option<AppMsg>, Fault> {
        self.check_live()?;
        self.pump()?;
        Ok(self.shared.kernel.try_deliver(spec))
    }

    /// After the application finishes, keep servicing peers (log
    /// resends for late failures, acks, checkpoint notices) until the
    /// whole cluster is done — or this incarnation is fenced: a false
    /// suspicion can catch even a finished rank, and peers reject a
    /// fenced incarnation's frames, so serving on is pointless.
    pub fn serve_until_shutdown(&self) {
        let _ = self.wait_for(|_| Ok(None::<()>));
    }

    /// Stop this incarnation: poison all runtime calls and join the
    /// comm thread, after which nothing touches the kernel but the
    /// caller. Volatile kernel state dies with the engine.
    pub(crate) fn halt(&mut self) {
        self.shared.dead.store(true, Ordering::Relaxed);
        self.shared.notifier.notify();
        if let Some(handle) = self.comm.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Without marking dead the comm thread would keep polling a
        // live endpoint forever.
        self.halt();
    }
}

fn spawn_comm_thread(shared: Arc<Shared>, endpoint: Endpoint) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("lclog-comm-{}", endpoint.rank()))
        .spawn(move || {
            let mut backoff = poll_backoff();
            while !shared.dead.load(Ordering::Relaxed) && !shared.shutdown.load(Ordering::Relaxed) {
                match shared.service_inbox(&endpoint, backoff.next_wait()) {
                    Ok(true) => backoff.reset(),
                    Ok(false) => {}
                    Err(_) => return,
                }
            }
        })
        .expect("spawn comm thread")
}
