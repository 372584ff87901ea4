//! The TEL event-logger service (\[5\] in the paper): a stable node
//! that durably stores determinants and acknowledges them, ending
//! their causal piggybacking.
//!
//! The service occupies fabric slot `n` (see [`crate::logger_rank`])
//! and is assumed never to fail — the same assumption the baseline
//! protocol itself makes about its stable storage. It still speaks the
//! reliability layer: its replies are sequenced, CRC-framed, and
//! retransmitted, so a chaos fabric cannot silently eat a `LOG_ACK`
//! and wedge a pessimistic sender.
//!
//! When failures are *detected* rather than announced, the same stable
//! slot doubles as the **membership arbiter**: it turns `Suspect`
//! reports into at-most-once death declarations (see
//! [`crate::detector::MembershipTable`]) and broadcasts the certified
//! `(epoch, floor[])` view to every rank, which fences the declared
//! incarnation at their transports.

use crate::backoff::Backoff;
use crate::clock::Clock;
use crate::env::RunEnv;
use crate::events::EventKind;
use crate::message::WireMsg;
use crate::transport::{decode_envelope, Ingest, Transport, TransportConfig};
use lclog_core::{Determinant, Rank};
use lclog_simnet::RecvError;
use lclog_wire::encode_to_vec;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Spawn the event-logger thread on the run's service slot, writing
/// through the run's (shipping) stable storage. It answers:
///
/// * [`WireMsg::LogDets`] — append the submitter's determinants to
///   stable storage and reply [`WireMsg::LogAck`] with the highest
///   contiguously stored deliver index;
/// * [`WireMsg::LogQuery`] — return every stored determinant of the
///   queried (failed) rank as [`WireMsg::LogQueryResp`];
/// * [`WireMsg::Suspect`] — when `membership` is present, declare the
///   suspected incarnation dead (at most once) and broadcast the new
///   certified view; a stale suspicion is answered with the current
///   view so the suspecter can catch up instead of killing a
///   successor incarnation.
pub(crate) fn spawn_event_logger(env: &RunEnv) -> JoinHandle<()> {
    let net = env.net().clone();
    let endpoint = net.attach(crate::logger_rank(env.n));
    let storage = Arc::clone(env.ckpts.storage());
    let shutdown = Arc::clone(&env.shutdown);
    let sink = env.sink.clone();
    let membership = env.membership.clone();
    std::thread::Builder::new()
        .name("lclog-event-logger".into())
        .spawn(move || {
            let me = endpoint.rank();
            let mut transport =
                Transport::new(me, net.n(), net.clone(), TransportConfig::standard(Clock::Real));
            transport.events = sink.clone();
            // In-memory mirror of stable storage for fast queries; the
            // stable copy is authoritative and written first.
            let mut dets: HashMap<Rank, Vec<Determinant>> = HashMap::new();
            let mut acked: HashMap<Rank, u64> = HashMap::new();
            let mut backoff = Backoff::new(Duration::from_micros(100), Duration::from_millis(5));
            loop {
                if shutdown.load(Ordering::Relaxed) {
                    return;
                }
                let env = match endpoint.recv_timeout(backoff.next_wait()) {
                    Ok(env) => env,
                    Err(RecvError::Timeout) => {
                        transport.tick();
                        continue;
                    }
                    Err(_) => return,
                };
                let src = env.src;
                let got = transport.ingest(src, decode_envelope(&env));
                // Inbound data frames mark their channel ack-pending;
                // the service is single-threaded and cold, so flush
                // the coalesced ack right away.
                transport.flush_acks();
                let Ingest::Data(inner) = got else {
                    continue;
                };
                backoff.reset();
                let msg: WireMsg = match lclog_wire::decode_from_bytes(&inner) {
                    Ok(m) => m,
                    Err(_) => continue,
                };
                match msg {
                    WireMsg::LogDets(batch) => {
                        let key = format!("eventlog/{src}");
                        let count = batch.len();
                        let upto = acked.entry(src).or_insert(0);
                        for det in batch {
                            // A rank logs only its own deliveries; a
                            // determinant filed under another receiver
                            // is forged: counted and dropped.
                            if det.receiver as Rank != src {
                                transport.corrupt_detected += 1;
                                continue;
                            }
                            // Stable first, then the mirror.
                            storage.append(&key, &encode_to_vec(&det));
                            dets.entry(src).or_default().push(det);
                            if det.deliver_index > *upto {
                                *upto = det.deliver_index;
                            }
                        }
                        let ack = WireMsg::LogAck(*upto);
                        sink.emit(
                            me,
                            EventKind::LoggerStored {
                                from: src,
                                count,
                                upto: *upto,
                            },
                        );
                        transport.send_msg(src, &ack);
                    }
                    WireMsg::LogQuery(failed) => {
                        let found = dets
                            .get(&(failed as Rank))
                            .cloned()
                            .unwrap_or_default();
                        sink.emit(
                            me,
                            EventKind::LoggerQueried {
                                failed: failed as Rank,
                                count: found.len(),
                            },
                        );
                        let resp = WireMsg::LogQueryResp(found);
                        transport.send_msg(src, &resp);
                    }
                    WireMsg::Suspect(s) => {
                        let Some(table) = &membership else {
                            continue; // announced-failures run: ignore
                        };
                        let suspect = s.rank as Rank;
                        match table.declare(suspect, s.incarnation) {
                            Some(view) => {
                                sink.emit(
                                    me,
                                    EventKind::MembershipBumped {
                                        epoch: view.epoch,
                                        dead: suspect,
                                        incarnation: s.incarnation,
                                    },
                                );
                                // Certified view to every application
                                // rank — including the victim, whose
                                // transport will self-fence if it is
                                // in fact still alive.
                                let msg = WireMsg::Membership(view);
                                for k in 0..me {
                                    transport.send_msg(k, &msg);
                                }
                            }
                            None => {
                                // Stale: that incarnation is already
                                // below the floor. Re-send the current
                                // view so the suspecter fences it too.
                                transport.send_msg(src, &WireMsg::Membership(table.view()));
                            }
                        }
                    }
                    _ => {}
                }
            }
        })
        .expect("spawn event logger")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::config::RunConfig;
    use lclog_core::ProtocolKind;
    use std::time::Instant;

    /// Regression: a determinant filed under another rank used to trip
    /// a `debug_assert!` in the service thread; any fabric peer can
    /// send one, so it is dropped and the service keeps answering.
    #[test]
    fn determinant_filed_under_another_receiver_is_dropped() {
        let env = RunEnv::open(&ClusterConfig::new(2, RunConfig::new(ProtocolKind::Tel)), None)
            .expect("in-memory storage opens");
        let logger = crate::logger_rank(2);
        let service = spawn_event_logger(&env);
        let net = env.net();
        let ep0 = net.attach(0);
        let mut rank0 = Transport::new(0, net.n(), net.clone(), TransportConfig::standard(Clock::Real));
        let det = |receiver| Determinant { sender: 1, send_index: 1, receiver, deliver_index: 1 };
        rank0.send_msg(logger, &WireMsg::LogDets(vec![det(1), det(0)]));
        rank0.send_msg(logger, &WireMsg::LogQuery(1));
        rank0.send_msg(logger, &WireMsg::LogQuery(0));
        let mut answers = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while answers.len() < 2 {
            assert!(Instant::now() < deadline, "service stopped answering");
            let Ok(env) = ep0.recv_timeout(Duration::from_millis(10)) else {
                continue;
            };
            if let Ingest::Data(inner) = rank0.ingest(logger, decode_envelope(&env)) {
                if let Ok(WireMsg::LogQueryResp(found)) = lclog_wire::decode_from_bytes(&inner) {
                    answers.push(found);
                }
            }
        }
        assert_eq!(answers, [vec![], vec![det(0)]]);
        env.shutdown.store(true, Ordering::Relaxed);
        service.join().unwrap();
    }
}
