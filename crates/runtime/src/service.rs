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
use crate::detector::MembershipTable;
use crate::events::{EventKind, EventSink};
use crate::message::WireMsg;
use crate::transport::{decode_envelope, Ingest, Transport, TransportConfig};
use lclog_core::{Determinant, Rank};
use lclog_simnet::{Endpoint, RecvError, SimNet};
use lclog_stable::StableStorage;
use lclog_wire::encode_to_vec;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Spawn the event-logger thread. It answers:
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
pub fn spawn_event_logger(
    net: SimNet,
    endpoint: Endpoint,
    storage: Arc<dyn StableStorage>,
    shutdown: Arc<AtomicBool>,
    sink: EventSink,
    membership: Option<Arc<MembershipTable>>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("lclog-event-logger".into())
        .spawn(move || {
            let me = endpoint.rank();
            let mut transport = Transport::new(
                me,
                net.n(),
                net.clone(),
                TransportConfig {
                    timeout: Duration::from_millis(2),
                    cap: Duration::from_millis(50),
                    budget: 40,
                    clock: Clock::Real,
                },
            );
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
                            debug_assert_eq!(det.receiver as Rank, src);
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
