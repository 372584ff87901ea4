//! Application-facing API: the [`RankApp`] trait parallel programs
//! implement and the [`RankCtx`] handle their steps receive.

use crate::engine::Engine;
use crate::fault::{Fault, StepStatus};
use crate::message::{AppMsg, RecvSpec};
use bytes::Bytes;
use lclog_core::Rank;
use lclog_wire::{Decode, Encode};

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
pub trait RankApp: Send + Sync + 'static {
    /// Serializable per-rank state; everything the computation needs
    /// to resume from a checkpoint.
    type State: Encode + Decode + Send;

    /// Deterministic initial state of `rank` in an `n`-rank run.
    fn init(&self, rank: Rank, n: usize) -> Self::State;

    /// Execute one application step.
    fn step(&self, ctx: &mut RankCtx<'_>, state: &mut Self::State) -> Result<StepStatus, Fault>;

    /// A verification digest of the final state: identical across
    /// fault-free and recovered runs (the reproduction's central
    /// correctness check).
    fn digest(&self, state: &Self::State) -> u64;
}

/// The runtime handle passed to [`RankApp::step`].
pub struct RankCtx<'a> {
    engine: &'a Engine<'a>,
    step: u64,
}

impl<'a> RankCtx<'a> {
    pub(crate) fn new(engine: &'a Engine<'a>, step: u64) -> Self {
        RankCtx { engine, step }
    }

    pub(crate) fn engine(&self) -> &'a Engine<'a> {
        self.engine
    }

    /// This process's rank.
    pub fn rank(&self) -> Rank {
        self.engine.kernel().me()
    }

    /// Number of application ranks.
    pub fn n(&self) -> usize {
        self.engine.kernel().n()
    }

    /// The current application step index.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Send `data` to `dst` under `tag`. In blocking mode a payload
    /// above the eager threshold waits for the receiver (Fig. 4a); in
    /// non-blocking mode it returns immediately (Fig. 4b). Either way
    /// a PES send waits for the protocol's gate.
    pub fn send(&mut self, dst: Rank, tag: u32, data: &[u8]) -> Result<(), Fault> {
        self.send_bytes(dst, tag, Bytes::copy_from_slice(data))
    }

    /// Zero-copy variant of [`RankCtx::send`].
    pub fn send_bytes(&mut self, dst: Rank, tag: u32, data: Bytes) -> Result<(), Fault> {
        self.engine.send(dst, tag, data, self.step)
    }

    /// Send an [`Encode`]-able value.
    pub fn send_value<T: Encode>(&mut self, dst: Rank, tag: u32, value: &T) -> Result<(), Fault> {
        self.send_bytes(dst, tag, Bytes::from(lclog_wire::encode_to_vec(value)))
    }

    /// Wait until a message matching `spec` is deliverable: the rank
    /// parks until a later round ingests something for it.
    pub fn recv(&mut self, spec: RecvSpec) -> Result<AppMsg, Fault> {
        self.engine.recv(spec, self.step)
    }

    /// Receive and decode a value. A payload that does not decode as
    /// `T` is wire input this incarnation cannot trust — it surfaces
    /// as [`Fault::Desync`] (crash-and-rebuild through the rollback
    /// path) rather than a process abort.
    pub fn recv_value<T: Decode>(&mut self, spec: RecvSpec) -> Result<(Rank, T), Fault> {
        let msg = self.recv(spec)?;
        match lclog_wire::decode_from_slice(&msg.data) {
            Ok(value) => Ok((msg.src, value)),
            Err(_) => Err(Fault::Desync),
        }
    }
}
