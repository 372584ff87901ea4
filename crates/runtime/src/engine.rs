//! The rank side of Fig. 4 under the round driver of
//! [`crate::Cluster::run`]: every rank's application runs on a stack of
//! its own until it **parks** — inside a runtime call that cannot
//! proceed ([`Wait`]: nothing deliverable, the PES send gate, a
//! rendezvous), at `Done`, or at its death. The [`Stage`] is the
//! hand-off: a park records why and returns when the driver resumes the
//! rank, which it does only once the wait can end (something was
//! ingested for it, its gate opened, its rendezvous was acknowledged)
//! or the rank was fenced or desynchronized — so parks stay rare.
//!
//! Both modes of Fig. 4 ingest at the round boundary, where every rank
//! is parked. [`CommMode::Blocking`] (Fig. 4a) keeps its rendezvous: a
//! send above the eager threshold parks until the receiver's ingestion
//! ack, and the kernel's `tick` resends it every
//! [`crate::RETRY_INTERVAL`] on the run's clock. [`CommMode::NonBlocking`]
//! (Fig. 4b) sends return at once.

use crate::config::CommMode;
use crate::env::Death;
use crate::fault::Fault;
use crate::kernel::Kernel;
use crate::message::{AppMsg, RecvSpec};
use bytes::Bytes;
use lclog_core::Rank;
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::sync::Arc;

/// What a rank parked inside a runtime call waits for.
#[derive(Debug, Clone, Copy)]
#[allow(dead_code)] // the spec is read by the watchdog's report
pub(crate) enum Wait {
    /// A deliverable message matching the spec.
    Recv(RecvSpec),
    /// The protocol's send gate (PES holds sends while its
    /// determinants are unlogged).
    SendGate,
    /// The receiver's ingestion ack of rendezvous send `send_index`.
    Rendezvous { dst: Rank, send_index: u64 },
    /// The next round: a task state machine returned
    /// [`crate::TaskPoll::Pending`].
    NextRound,
}

impl Wait {
    /// May the wait end, now that the boundary `ingested` something
    /// for `kernel` or not?
    pub(crate) fn may_end(&self, kernel: &Kernel, ingested: bool) -> bool {
        match *self {
            Wait::Recv(_) => ingested,
            Wait::SendGate => kernel.send_ready(),
            Wait::Rendezvous { dst, send_index } => {
                let (acked, unreachable) = kernel.rendezvous_progress(dst);
                acked >= send_index || unreachable
            }
            Wait::NextRound => true,
        }
    }
}

/// Why a rank stopped running this round.
pub(crate) enum Park {
    /// Inside a runtime call that cannot proceed, at `step`.
    Call { wait: Wait, step: u64 },
    /// The application finished after `step`: its final state, encoded,
    /// and its digest.
    Done {
        step: u64,
        image: Vec<u8>,
        digest: u64,
    },
    /// The incarnation died at `step`.
    Dead { step: u64, death: Death },
    /// The rank's stack panicked; the run cannot finish.
    Panicked,
}

/// What the driver answers a park with: carry on (the wait may end, a
/// finished rank was fenced, a dead one's successor is up), or unwind.
pub(crate) enum Resume {
    Run,
    Shutdown,
}

#[derive(Default)]
struct Turn {
    park: Option<Park>,
    resume: Option<Resume>,
}

struct Seat {
    turn: Mutex<Turn>,
    cv: Condvar,
}

/// The hand-off between the round driver and the rank stacks: a seat
/// per rank, and the count of ranks running this round.
pub(crate) struct Stage {
    seats: Vec<Seat>,
    running: Mutex<usize>,
    all_parked: Condvar,
}

impl Stage {
    /// `n` seats, every rank running (a stack starts its first round).
    pub(crate) fn new(n: usize) -> Self {
        Stage {
            seats: (0..n)
                .map(|_| Seat {
                    turn: Mutex::new(Turn::default()),
                    cv: Condvar::new(),
                })
                .collect(),
            running: Mutex::new(n),
            all_parked: Condvar::new(),
        }
    }

    /// Rank side: record `park`, sleep until the driver resumes `rank`.
    pub(crate) fn park(&self, rank: Rank, park: Park) -> Resume {
        let seat = &self.seats[rank];
        let mut turn = seat.turn.lock();
        turn.park = Some(park);
        self.parked();
        loop {
            if let Some(resume) = turn.resume.take() {
                return resume;
            }
            seat.cv.wait(&mut turn);
        }
    }

    /// Rank side, on a panicking stack: stop counting it as running.
    pub(crate) fn abandon(&self, rank: Rank) {
        self.seats[rank].turn.lock().park = Some(Park::Panicked);
        self.parked();
    }

    fn parked(&self) {
        let mut running = self.running.lock();
        *running -= 1;
        if *running == 0 {
            self.all_parked.notify_one();
        }
    }

    /// Driver side: wait until every running rank has parked.
    pub(crate) fn wait_all_parked(&self) {
        let mut running = self.running.lock();
        while *running > 0 {
            self.all_parked.wait(&mut running);
        }
    }

    /// Driver side: why `rank` parked, if it ran this round.
    pub(crate) fn take_park(&self, rank: Rank) -> Option<Park> {
        self.seats[rank].turn.lock().park.take()
    }

    /// Driver side: resume parked `rank`.
    pub(crate) fn resume(&self, rank: Rank, resume: Resume) {
        *self.running.lock() += 1;
        let seat = &self.seats[rank];
        seat.turn.lock().resume = Some(resume);
        seat.cv.notify_one();
    }
}

/// One rank incarnation's runtime calls, on its own stack.
pub struct Engine<'a> {
    kernel: Arc<Kernel>,
    stage: &'a Stage,
    /// Set once the driver answered a park with [`Resume::Shutdown`].
    over: Cell<bool>,
}

impl<'a> Engine<'a> {
    /// Calls of `kernel`'s incarnation, parking on `stage`.
    pub(crate) fn new(kernel: Arc<Kernel>, stage: &'a Stage) -> Self {
        Engine {
            kernel,
            stage,
            over: Cell::new(false),
        }
    }

    /// The kernel underneath (checkpoints, snapshots, fencing state).
    pub(crate) fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// True once the run is over: every call fails with
    /// [`Fault::Shutdown`].
    pub(crate) fn is_over(&self) -> bool {
        self.over.get()
    }

    fn check_live(&self) -> Result<(), Fault> {
        if self.over.get() {
            return Err(Fault::Shutdown);
        }
        if self.kernel.is_fenced() {
            return Err(Fault::Fenced);
        }
        if self.kernel.is_desynced() {
            return Err(Fault::Desync);
        }
        Ok(())
    }

    /// Park in a call at `step` until the driver resumes this rank.
    fn park(&self, wait: Wait, step: u64) {
        if let Resume::Shutdown = self.stage.park(self.kernel.me(), Park::Call { wait, step }) {
            self.over.set(true);
        }
    }

    /// The one wait loop: until `ready` yields, the incarnation is
    /// fenced or desynchronized, or the run ends, park on `wait`.
    fn park_until<T>(
        &self,
        wait: Wait,
        step: u64,
        mut ready: impl FnMut(&Kernel) -> Result<Option<T>, Fault>,
    ) -> Result<T, Fault> {
        loop {
            self.check_live()?;
            if let Some(out) = ready(&self.kernel)? {
                return Ok(out);
            }
            self.park(wait, step);
        }
    }

    /// Send an application message at `step` (both modes).
    pub fn send(&self, dst: Rank, tag: u32, data: Bytes, step: u64) -> Result<(), Fault> {
        // Pessimistic logging: hold the send until the logger has
        // acknowledged our delivery determinants.
        self.park_until(Wait::SendGate, step, |kernel| {
            Ok(kernel.send_ready().then_some(()))
        })?;
        let needs_ack = match self.kernel.cfg().comm {
            CommMode::Blocking { eager_threshold } => data.len() > eager_threshold,
            CommMode::NonBlocking => false,
        };
        let (send_index, transmitted) = self.kernel.app_send(dst, tag, data, needs_ack);
        if !(needs_ack && transmitted) {
            return Ok(());
        }
        // Rendezvous: wait for the receiver's ingestion ack.
        self.park_until(Wait::Rendezvous { dst, send_index }, step, |kernel| {
            let (acked, unreachable) = kernel.rendezvous_progress(dst);
            if acked >= send_index {
                return Ok(Some(()));
            }
            // The reliability layer has written the peer off: fail the
            // send instead of parking on a rendezvous that can never
            // complete.
            if unreachable {
                return Err(Fault::Unreachable(dst));
            }
            Ok(None)
        })
    }

    /// Blocking receive matching `spec` at `step` (both modes).
    pub fn recv(&self, spec: RecvSpec, step: u64) -> Result<AppMsg, Fault> {
        self.park_until(
            Wait::Recv(spec),
            step,
            |kernel| Ok(kernel.try_deliver(spec)),
        )
    }

    /// Park at `step` until the next round (a task state machine is
    /// pending).
    pub(crate) fn next_round(&self, step: u64) -> Result<(), Fault> {
        self.check_live()?;
        self.park(Wait::NextRound, step);
        self.check_live()
    }
}
