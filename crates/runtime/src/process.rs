//! Application-facing API: the [`RankApp`] trait parallel programs
//! implement, the [`RankCtx`] handle their steps receive, and how a
//! rank runs under the one driver ([`crate::TaskJob`]).
//!
//! `step` is an `async fn`: a runtime call that cannot proceed ([`Wait`]:
//! nothing deliverable, the PES send gate, a rendezvous) records why and
//! returns `Poll::Pending`, and the driver polls the step again on its
//! next sweep, after it ingested the rank's inbox. [`Steps`] is that
//! adapter: a [`TaskApp`] whose poll drives one owned step future, so
//! no rank needs a stack of its own and a run repeats exactly.
//!
//! Both modes of Fig. 4 ingest at the sweep. [`CommMode::Blocking`]
//! (Fig. 4a) keeps its rendezvous: a send above the eager threshold
//! waits for the receiver's ingestion ack, and the kernel's `tick`
//! resends it every [`crate::RETRY_INTERVAL`] on the run's clock.
//! [`CommMode::NonBlocking`] (Fig. 4b) sends return at once.

use crate::config::CommMode;
use crate::fault::{Fault, StepStatus};
use crate::kernel::Kernel;
use crate::message::{AppMsg, RecvSpec};
use crate::tasks::{TaskApp, TaskCtx, TaskPoll};
use bytes::Bytes;
use lclog_core::Rank;
use lclog_wire::{Decode, Encode, Reader, WireError};
use std::cell::Cell;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// A parallel application runnable under rollback recovery.
///
/// The runtime executes `step` repeatedly on every rank, checkpointing
/// *between* steps, and — after a failure — re-executes from the last
/// checkpointed step. Correct recovery therefore requires the paper's
/// execution-model contract:
///
/// * `step` must be a deterministic function of `(state, received
///   messages)`;
/// * a receive posted with a specific [`RecvSpec::source`] expresses
///   order-*sensitive* delivery;
/// * a receive posted with `ANY_SOURCE` promises the program's outcome
///   does not depend on which matching message arrives first (the
///   observation of §II.C on which TDI's relaxation rests).
pub trait RankApp: 'static {
    /// Serializable per-rank state; everything the computation needs
    /// to resume from a checkpoint.
    type State: Encode + Decode;

    /// Deterministic initial state of `rank` in an `n`-rank run.
    fn init(&self, rank: Rank, n: usize) -> Self::State;

    /// Execute one application step (write it as an `async fn` and
    /// `.await` the runtime calls).
    fn step(
        &self,
        ctx: &mut RankCtx<'_>,
        state: &mut Self::State,
    ) -> impl Future<Output = Result<StepStatus, Fault>>;

    /// A verification digest of the final state: identical across
    /// fault-free and recovered runs (the reproduction's central
    /// correctness check).
    fn digest(&self, state: &Self::State) -> u64;
}

/// What a rank's pending runtime call waits for (the watchdog names it).
#[derive(Debug, Clone, Copy)]
#[allow(dead_code)] // the fields are read by the watchdog's report
pub(crate) enum Wait {
    /// A deliverable message matching the spec.
    Recv(RecvSpec),
    /// The protocol's send gate (PES holds sends while its
    /// determinants are unlogged).
    SendGate,
    /// The receiver's ingestion ack of rendezvous send `send_index`.
    Rendezvous { dst: Rank, send_index: u64 },
}

/// The runtime handle passed to [`RankApp::step`].
pub struct RankCtx<'a> {
    kernel: &'a Kernel,
    step: u64,
    /// Where the step's pending call records its [`Wait`].
    wait: &'a Cell<Option<Wait>>,
}

impl<'a> RankCtx<'a> {
    /// This process's rank.
    pub fn rank(&self) -> Rank {
        self.kernel.me()
    }

    /// Number of application ranks.
    pub fn n(&self) -> usize {
        self.kernel.n()
    }

    /// The current application step index.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Send `data` to `dst` under `tag`. In blocking mode a payload
    /// above the eager threshold waits for the receiver (Fig. 4a); in
    /// non-blocking mode it returns immediately (Fig. 4b). Either way
    /// a PES send waits for the protocol's gate.
    pub async fn send(&mut self, dst: Rank, tag: u32, data: &[u8]) -> Result<(), Fault> {
        self.send_bytes(dst, tag, Bytes::copy_from_slice(data))
            .await
    }

    /// Zero-copy variant of [`RankCtx::send`].
    pub async fn send_bytes(&mut self, dst: Rank, tag: u32, data: Bytes) -> Result<(), Fault> {
        // Pessimistic logging: hold the send until the logger has
        // acknowledged our delivery determinants.
        self.until(Wait::SendGate, |kernel| {
            Ok(kernel.send_ready().then_some(()))
        })
        .await?;
        let needs_ack = match self.kernel.cfg().comm {
            CommMode::Blocking { eager_threshold } => data.len() > eager_threshold,
            CommMode::NonBlocking => false,
        };
        let (send_index, transmitted) = self.kernel.app_send(dst, tag, data, needs_ack);
        if !(needs_ack && transmitted) {
            return Ok(());
        }
        // Rendezvous: wait for the receiver's ingestion ack.
        self.until(Wait::Rendezvous { dst, send_index }, |kernel| {
            Ok((kernel.rendezvous_progress(dst) >= send_index).then_some(()))
        })
        .await
    }

    /// Send an [`Encode`]-able value.
    pub async fn send_value<T: Encode>(
        &mut self,
        dst: Rank,
        tag: u32,
        value: &T,
    ) -> Result<(), Fault> {
        let data = Bytes::from(lclog_wire::encode_to_vec(value));
        self.send_bytes(dst, tag, data).await
    }

    /// Wait until a message matching `spec` is deliverable: the step
    /// stays pending until a later sweep ingests one for it.
    pub async fn recv(&mut self, spec: RecvSpec) -> Result<AppMsg, Fault> {
        self.until(Wait::Recv(spec), |kernel| Ok(kernel.try_deliver(spec)))
            .await
    }

    /// Receive and decode a value. A payload that does not decode as
    /// `T` is wire input this incarnation cannot trust — it surfaces
    /// as [`Fault::Desync`] (crash-and-rebuild through the rollback
    /// path) rather than a process abort.
    pub async fn recv_value<T: Decode>(&mut self, spec: RecvSpec) -> Result<(Rank, T), Fault> {
        let msg = self.recv(spec).await?;
        match lclog_wire::decode_from_slice(&msg.data) {
            Ok(value) => Ok((msg.src, value)),
            Err(_) => Err(Fault::Desync),
        }
    }

    /// The one wait: until `ready` yields, or the incarnation is
    /// desynchronized, record `wait` and stay pending.
    async fn until<T>(
        &self,
        wait: Wait,
        mut ready: impl FnMut(&Kernel) -> Result<Option<T>, Fault>,
    ) -> Result<T, Fault> {
        poll_fn(|_| {
            if self.kernel.is_desynced() {
                return Poll::Ready(Err(Fault::Desync));
            }
            match ready(self.kernel) {
                Ok(Some(out)) => Poll::Ready(Ok(out)),
                Err(fault) => Poll::Ready(Err(fault)),
                Ok(None) => {
                    self.wait.set(Some(wait));
                    Poll::Pending
                }
            }
        })
        .await
    }
}

/// A [`RankApp`] run as a [`TaskApp`]: each poll drives the rank's one
/// step future, which owns the state while the step is in flight; a
/// pending call is [`TaskPoll::Pending`], polled again on a later sweep
/// (a pending receive once something was ingested for the rank). This
/// is how [`crate::Cluster::run`] runs on the tasks driver.
pub(crate) struct Steps<A>(pub(crate) Rc<A>);

type StepFuture<S> = Pin<Box<dyn Future<Output = (S, Result<StepStatus, Fault>)>>>;

/// [`Steps`]' per-rank state: the application state between steps, or
/// the step in flight that holds it.
pub(crate) struct Stepping<S> {
    state: Option<S>,
    in_flight: Option<StepFuture<S>>,
    wait: Rc<Cell<Option<Wait>>>,
}

impl<S> Stepping<S> {
    fn between(state: S) -> Self {
        Stepping {
            state: Some(state),
            in_flight: None,
            wait: Rc::default(),
        }
    }

    fn state(&self) -> &S {
        self.state
            .as_ref()
            .expect("the driver reads a rank's state only between steps")
    }
}

impl<S: Encode> Encode for Stepping<S> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.state().encode(buf)
    }

    fn encoded_len(&self) -> usize {
        self.state().encoded_len()
    }
}

impl<S: Decode> Decode for Stepping<S> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        S::decode(reader).map(Stepping::between)
    }
}

impl<A: RankApp> TaskApp for Steps<A> {
    type State = Stepping<A::State>;

    fn init(&self, rank: Rank, n: usize) -> Self::State {
        Stepping::between(self.0.init(rank, n))
    }

    fn poll(&self, ctx: &mut TaskCtx<'_>, st: &mut Self::State) -> Result<TaskPoll, Fault> {
        let step = st.in_flight.get_or_insert_with(|| {
            let (app, kernel, wait) = (Rc::clone(&self.0), ctx.kernel_rc(), Rc::clone(&st.wait));
            let (mut state, step) = (st.state.take().expect("between steps"), ctx.step());
            Box::pin(async move {
                let mut ctx = RankCtx {
                    kernel: &kernel,
                    step,
                    wait: &wait,
                };
                let out = app.step(&mut ctx, &mut state).await;
                (state, out)
            })
        });
        let Poll::Ready((state, out)) = step.as_mut().poll(&mut Context::from_waker(Waker::noop()))
        else {
            ctx.wait = st.wait.take();
            return Ok(TaskPoll::Pending);
        };
        (st.state, st.in_flight) = (Some(state), None);
        match out? {
            StepStatus::Continue => Ok(TaskPoll::Step),
            StepStatus::Done => Ok(TaskPoll::Done),
        }
    }

    fn digest(&self, st: &Self::State) -> u64 {
        self.0.digest(st.state())
    }
}
