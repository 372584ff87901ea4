//! A miniature message-passing simulator driving the protocol objects
//! directly (no runtime, no threads): a random script of sends and a
//! random gate-respecting delivery scheduler, used to property-check
//! the protocol invariants the paper's correctness argument (§III.D)
//! rests on.

use lclog_core::{make_protocol, DeliveryVerdict, LoggingProtocol, ProtocolKind, Rank};
use proptest::prelude::*;
use std::collections::VecDeque;

/// One in-flight message.
#[derive(Debug, Clone)]
struct Msg {
    src: Rank,
    dst: Rank,
    send_index: u64,
    piggyback: Vec<u8>,
}

/// Deterministic mini-cluster over the protocol objects.
struct Sim {
    procs: Vec<Box<dyn LoggingProtocol>>,
    /// Per (src,dst) channel, FIFO.
    channels: Vec<VecDeque<Msg>>,
    send_counts: Vec<u64>,
    deliver_counts: Vec<u64>,
    n: usize,
}

impl Sim {
    fn new(kind: ProtocolKind, n: usize) -> Self {
        Sim {
            procs: (0..n).map(|r| make_protocol(kind, r, n)).collect(),
            channels: (0..n * n).map(|_| VecDeque::new()).collect(),
            send_counts: vec![0; n * n],
            deliver_counts: vec![0; n * n],
            n,
        }
    }

    fn send(&mut self, src: Rank, dst: Rank) {
        let idx = &mut self.send_counts[src * self.n + dst];
        *idx += 1;
        let send_index = *idx;
        let art = self.procs[src].on_send(dst, send_index);
        self.channels[src * self.n + dst].push_back(Msg {
            src,
            dst,
            send_index,
            piggyback: art.piggyback,
        });
    }

    /// Channels whose head message passes FIFO + protocol gates.
    fn deliverable_channels(&self) -> Vec<usize> {
        (0..self.n * self.n)
            .filter(|&c| {
                self.channels[c].front().is_some_and(|m| {
                    self.deliver_counts[c] + 1 == m.send_index
                        && matches!(
                            self.procs[m.dst].deliverable(m.src, m.send_index, &m.piggyback),
                            DeliveryVerdict::Deliver
                        )
                })
            })
            .collect()
    }

    fn deliver_from(&mut self, channel: usize) {
        let m = self.channels[channel].pop_front().expect("head present");
        self.deliver_counts[channel] += 1;
        self.procs[m.dst]
            .on_deliver(m.src, m.send_index, &m.piggyback)
            .expect("gate approved");
        // Model an instantly-responsive event logger: it acks each
        // determinant as soon as the delivery creates it.
        if self.procs[m.dst].kind().uses_event_logger() {
            let upto = self.procs[m.dst].delivered_total();
            let _ = self.procs[m.dst].drain_determinants_for_logger();
            self.procs[m.dst].on_logger_ack(upto);
        }
    }

    fn in_flight(&self) -> usize {
        self.channels.iter().map(VecDeque::len).sum()
    }
}

/// A random communication script: (src, dst) pairs. Sends happen up
/// front (interleaved with deliveries by the scheduler picks).
fn script_strategy(n: usize, len: usize) -> impl Strategy<Value = Vec<(Rank, Rank)>> {
    proptest::collection::vec((0..n, 0..n), 0..len)
}

fn all_kinds() -> impl Strategy<Value = ProtocolKind> {
    prop_oneof![
        Just(ProtocolKind::Tdi),
        Just(ProtocolKind::Tag),
        Just(ProtocolKind::Tel),
    ]
}

/// Run: interleave sends and random deliveries (seeded), then drain.
/// Returns delivered totals per process. Panics (test failure) if the
/// system wedges with messages in flight but no open gate.
fn run_schedule(kind: ProtocolKind, n: usize, script: &[(Rank, Rank)], seed: u64) -> Vec<u64> {
    let mut sim = Sim::new(kind, n);
    let mut rng = seed;
    let mut next = || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (rng >> 33) as usize
    };
    for &(src, dst) in script {
        sim.send(src, dst);
        // Randomly deliver between 0 and 2 pending messages.
        for _ in 0..(next() % 3) {
            let open = sim.deliverable_channels();
            if open.is_empty() {
                break;
            }
            let pick = open[next() % open.len()];
            sim.deliver_from(pick);
        }
    }
    // Drain.
    while sim.in_flight() > 0 {
        let open = sim.deliverable_channels();
        assert!(
            !open.is_empty(),
            "{kind}: wedged with {} messages in flight (no orphan-free schedule)",
            sim.in_flight()
        );
        let pick = open[next() % open.len()];
        sim.deliver_from(pick);
    }
    (0..n).map(|r| sim.procs[r].delivered_total()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Liveness in normal operation: no protocol's gate can wedge a
    /// FIFO-respecting scheduler, for any script and any schedule.
    #[test]
    fn prop_no_protocol_wedges_in_normal_operation(
        kind in all_kinds(),
        script in script_strategy(4, 60),
        seed in any::<u64>(),
    ) {
        let delivered = run_schedule(kind, 4, &script, seed);
        let total: u64 = delivered.iter().sum();
        prop_assert_eq!(total, script.len() as u64, "every send is delivered exactly once");
    }

    /// Delivery-order invariance of TDI's state: whatever
    /// gate-respecting schedule runs, each process ends at the same
    /// interval index (the foundation of the paper's claim that
    /// relaxed-order recovery is consistent).
    #[test]
    fn prop_tdi_delivered_totals_schedule_invariant(
        script in script_strategy(4, 50),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let a = run_schedule(ProtocolKind::Tdi, 4, &script, seed_a);
        let b = run_schedule(ProtocolKind::Tdi, 4, &script, seed_b);
        prop_assert_eq!(a, b);
    }

    /// TDI's piggyback is always exactly n identifiers, whatever the
    /// script and schedule.
    #[test]
    fn prop_piggyback_size_relations(
        script in script_strategy(4, 40),
        seed in any::<u64>(),
    ) {
        let n = 4;
        let mut tdi = Sim::new(ProtocolKind::Tdi, n);
        let mut rng = seed;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as usize
        };
        for &(src, dst) in &script {
            tdi.send(src, dst);
            if next() % 2 == 0 {
                let open = tdi.deliverable_channels();
                if let Some(&c) = open.first() {
                    tdi.deliver_from(c);
                }
            }
        }
        let t = tdi.procs[0].on_send(1, 1_000).id_count;
        prop_assert_eq!(t, n as u64);
    }
}

/// A script once recorded as a failing case of
/// `prop_no_protocol_wedges_in_normal_operation` (it shrank to a
/// pessimistic-logging run); it must drain without wedging under every
/// protocol, each rank delivering what was sent to it.
#[test]
fn recorded_script_drains_under_every_protocol() {
    let script = [(1, 1), (0, 0), (1, 0)];
    for kind in ProtocolKind::EXTENDED {
        let delivered = run_schedule(kind, 4, &script, 523_705_850_432_717_668);
        assert_eq!(delivered, [2, 1, 0, 0], "{kind}");
    }
}

/// Non-property regression: a deterministic TDI recovery replay in an
/// adversarial order still converges to the original state.
#[test]
fn tdi_relaxed_replay_reaches_original_vector() {
    use lclog_core::Tdi;
    let n = 3;
    // Original execution at P2: deliver (0,#1), (1,#1), (0,#2).
    let mut p0 = Tdi::new(0, n);
    let mut p1 = Tdi::new(1, n);
    let mut p2 = Tdi::new(2, n);
    let a = p0.on_send(2, 1);
    let b = p1.on_send(2, 1);
    p2.on_deliver(0, 1, &a.piggyback).unwrap();
    p2.on_deliver(1, 1, &b.piggyback).unwrap();
    let c = p0.on_send(2, 2);
    p2.on_deliver(0, 2, &c.piggyback).unwrap();
    let original = p2.depend_interval().clone();

    // Recovery replay in a different (gate-legal) order: b first.
    let mut p2r = Tdi::new(2, n);
    p2r.on_deliver(1, 1, &b.piggyback).unwrap();
    p2r.on_deliver(0, 1, &a.piggyback).unwrap();
    p2r.on_deliver(0, 2, &c.piggyback).unwrap();
    assert_eq!(p2r.depend_interval(), &original, "join-semilattice merge is order-invariant");
}
