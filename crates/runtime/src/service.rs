//! The TEL event-logger service (\[5\] in the paper): a stable node
//! that durably stores determinants and acknowledges them, ending
//! their causal piggybacking.
//!
//! The service occupies fabric slot `n` (see [`crate::logger_rank`])
//! and is assumed never to fail — the same assumption the baseline
//! protocol itself makes about its stable storage. Its replies are
//! plain encoded `WireMsg`s on the reliable fabric, like every rank's.
//!
//! The slot has no other role: failures are announced, so no service
//! certifies deaths. The one round driver steps the polled
//! [`EventLogger`] at the end of every round, before the run's
//! replicator.

use crate::env::RunEnv;
use crate::events::{EventKind, EventSink};
use crate::message::WireMsg;
use crate::transport::Transport;
use lclog_core::{Determinant, Rank};
use lclog_simnet::{Endpoint, Envelope};
use lclog_stable::CheckpointStore;
use lclog_wire::encode_to_vec;
use std::collections::HashMap;

/// Stable-storage key of the event log of `rank`.
fn event_log_key(rank: usize) -> String {
    format!("eventlog/{rank}")
}

/// The event logger of one run, on its service slot. It answers:
///
/// * [`WireMsg::LogDets`] — append the submitter's determinants to
///   stable storage and reply [`WireMsg::LogAck`] with the highest
///   contiguously stored deliver index;
/// * [`WireMsg::LogQuery`] — return every stored determinant of the
///   queried (failed) rank as [`WireMsg::LogQueryResp`].
pub(crate) struct EventLogger {
    endpoint: Endpoint,
    transport: Transport,
    sink: EventSink,
    ckpts: CheckpointStore,
    /// In-memory mirror of stable storage for fast queries; the stable
    /// copy is authoritative and written first.
    dets: HashMap<Rank, Vec<Determinant>>,
    acked: HashMap<Rank, u64>,
}

impl EventLogger {
    /// Attach the run's service slot when its protocol uses an event
    /// logger. Call before any kernel sends to it.
    pub(crate) fn attach(env: &RunEnv) -> Option<Self> {
        if !env.run.protocol.uses_event_logger() {
            return None;
        }
        let (net, me) = (env.net(), crate::logger_rank(env.n));
        Some(EventLogger {
            endpoint: net.attach(me),
            transport: Transport::new(me, net.clone()),
            sink: env.sink.clone(),
            ckpts: env.ckpts.clone(),
            dets: HashMap::new(),
            acked: HashMap::new(),
        })
    }

    /// Answer everything queued. True if anything arrived.
    pub(crate) fn step(&mut self) -> bool {
        let mut arrived = false;
        while let Ok(env) = self.endpoint.try_recv() {
            arrived = true;
            self.handle(env);
        }
        arrived
    }

    fn handle(&mut self, env: Envelope) {
        let src = env.src;
        let Ok(msg) = lclog_wire::decode_from_bytes::<WireMsg>(&env.payload) else {
            return;
        };
        let me = self.endpoint.rank();
        match msg {
            WireMsg::LogDets(batch) => {
                let key = event_log_key(src);
                let count = batch.len();
                let upto = self.acked.entry(src).or_insert(0);
                for det in batch {
                    // A rank logs only its own deliveries; a
                    // determinant filed under another receiver is
                    // forged: counted and dropped.
                    if det.receiver as Rank != src {
                        self.transport.corrupt_detected += 1;
                        continue;
                    }
                    // Stable first, then the mirror.
                    self.ckpts.storage().append(&key, &encode_to_vec(&det));
                    self.dets.entry(src).or_default().push(det);
                    if det.deliver_index > *upto {
                        *upto = det.deliver_index;
                    }
                }
                let upto = *upto;
                self.sink.emit(
                    me,
                    EventKind::LoggerStored {
                        from: src,
                        count,
                        upto,
                    },
                );
                self.transport.send_msg(src, &WireMsg::LogAck(upto));
            }
            WireMsg::LogQuery(failed) => {
                let found = self
                    .dets
                    .get(&(failed as Rank))
                    .cloned()
                    .unwrap_or_default();
                self.sink.emit(
                    me,
                    EventKind::LoggerQueried {
                        failed: failed as Rank,
                        count: found.len(),
                    },
                );
                self.transport.send_msg(src, &WireMsg::LogQueryResp(found));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::config::RunConfig;
    use lclog_core::ProtocolKind;

    /// Regression: a determinant filed under another rank used to trip
    /// a `debug_assert!` in the service; any fabric peer can
    /// send one, so it is dropped and the service keeps answering.
    #[test]
    fn determinant_filed_under_another_receiver_is_dropped() {
        let env = RunEnv::open(&ClusterConfig::new(2, RunConfig::new(ProtocolKind::Tel)))
            .expect("in-memory storage opens");
        let logger = crate::logger_rank(2);
        let mut service = EventLogger::attach(&env).expect("TEL runs the service");
        let net = env.net();
        let ep0 = net.attach(0);
        let mut rank0 = Transport::new(0, net.clone());
        let det = |receiver| Determinant {
            sender: 1,
            send_index: 1,
            receiver,
            deliver_index: 1,
        };
        rank0.send_msg(logger, &WireMsg::LogDets(vec![det(1), det(0)]));
        rank0.send_msg(logger, &WireMsg::LogQuery(1));
        rank0.send_msg(logger, &WireMsg::LogQuery(0));
        assert!(service.step());
        let mut answers = Vec::new();
        while let Ok(env) = ep0.try_recv() {
            if let Ok(WireMsg::LogQueryResp(found)) = lclog_wire::decode_from_bytes(&env.payload) {
                answers.push(found);
            }
        }
        assert_eq!(answers, [vec![], vec![det(0)]]);
    }
}
