//! Behavioural tests of the simulated fabric: FIFO, reordering,
//! crash-loss semantics, incarnations, and traffic accounting.

use bytes::Bytes;
use lclog_simnet::{Clock, NetConfig, RecvError, SendError, SimClock, SimNet};
use std::time::Duration;

const TICK: Duration = Duration::from_millis(500);

fn payload(tag: u8) -> Bytes {
    Bytes::copy_from_slice(&[tag])
}

#[test]
fn direct_delivery_roundtrip() {
    let net = SimNet::new(2, NetConfig::direct());
    let _ep0 = net.attach(0);
    let ep1 = net.attach(1);
    net.send(0, 1, payload(7)).unwrap();
    let env = ep1.recv_timeout(TICK).unwrap();
    assert_eq!(env.src, 0);
    assert_eq!(env.dst, 1);
    assert_eq!(env.seq, 1);
    assert_eq!(&env.payload[..], &[7]);
}

#[test]
fn per_pair_seq_increments() {
    let net = SimNet::new(2, NetConfig::direct());
    let _ep0 = net.attach(0);
    let ep1 = net.attach(1);
    for _ in 0..3 {
        net.send(0, 1, payload(0)).unwrap();
    }
    let seqs: Vec<u64> = (0..3).map(|_| ep1.recv_timeout(TICK).unwrap().seq).collect();
    assert_eq!(seqs, vec![1, 2, 3]);
}

#[test]
fn delayed_model_preserves_per_pair_fifo() {
    // Large jitter relative to base: cross-pair reordering is nearly
    // certain, but per-pair FIFO must hold exactly.
    let net = SimNet::new(3, NetConfig::delayed(
        Duration::from_micros(10),
        Duration::ZERO,
        Duration::from_millis(2),
        0xFEED,
    ));
    let _ep0 = net.attach(0);
    let _ep1 = net.attach(1);
    let ep2 = net.attach(2);
    const PER_SENDER: usize = 50;
    for i in 0..PER_SENDER {
        net.send(0, 2, payload(i as u8)).unwrap();
        net.send(1, 2, payload(i as u8)).unwrap();
    }
    let mut last_seq = [0u64; 2];
    for _ in 0..2 * PER_SENDER {
        let env = ep2.recv_timeout(TICK).unwrap();
        assert_eq!(
            env.seq,
            last_seq[env.src] + 1,
            "per-pair FIFO violated for src {}",
            env.src
        );
        last_seq[env.src] = env.seq;
    }
    assert_eq!(last_seq, [PER_SENDER as u64; 2]);
}

#[test]
fn delayed_model_reorders_across_pairs() {
    // With per-KiB cost, a huge message from rank 0 sent *before* a
    // tiny message from rank 1 should usually arrive after it.
    let net = SimNet::new(3, NetConfig::delayed(
        Duration::from_micros(10),
        Duration::from_micros(200),
        Duration::ZERO,
        1,
    ));
    let _ep0 = net.attach(0);
    let _ep1 = net.attach(1);
    let ep2 = net.attach(2);
    net.send(0, 2, Bytes::from(vec![0u8; 64 * 1024])).unwrap();
    net.send(1, 2, payload(1)).unwrap();
    let first = ep2.recv_timeout(TICK).unwrap();
    assert_eq!(first.src, 1, "small message should overtake the large one");
    let second = ep2.recv_timeout(TICK).unwrap();
    assert_eq!(second.src, 0);
}

#[test]
fn kill_drops_queued_and_future_messages() {
    let net = SimNet::new(2, NetConfig::direct());
    let _ep0 = net.attach(0);
    let ep1 = net.attach(1);
    net.send(0, 1, payload(1)).unwrap();
    net.kill(1);
    // Queued message is lost: the dead endpoint refuses to read.
    assert_eq!(ep1.recv_timeout(TICK).unwrap_err(), RecvError::Dead);
    assert!(!ep1.is_alive());
    // Sends to a dead rank succeed but are dropped.
    net.send(0, 1, payload(2)).unwrap();
    assert_eq!(net.stats().msgs_dropped_dead(), 1);
}

#[test]
fn respawn_gets_fresh_empty_inbox() {
    let net = SimNet::new(2, NetConfig::direct());
    let _ep0 = net.attach(0);
    let ep1 = net.attach(1);
    net.send(0, 1, payload(1)).unwrap();
    net.kill(1);
    let ep1b = net.respawn(1);
    assert_eq!(ep1b.incarnation(), 2);
    assert!(ep1b.is_alive());
    assert!(!ep1.is_alive());
    // Old queued message is gone; a fresh one arrives.
    assert_eq!(ep1b.try_recv().unwrap_err(), RecvError::Empty);
    net.send(0, 1, payload(9)).unwrap();
    let env = ep1b.recv_timeout(TICK).unwrap();
    assert_eq!(&env.payload[..], &[9]);
    // Fabric seq keeps counting across incarnations.
    assert_eq!(env.seq, 2);
}

#[test]
fn stale_endpoint_cannot_steal_new_incarnation_traffic() {
    let net = SimNet::new(2, NetConfig::direct());
    let _ep0 = net.attach(0);
    let ep1_old = net.attach(1);
    net.kill(1);
    let ep1_new = net.respawn(1);
    net.send(0, 1, payload(3)).unwrap();
    assert_eq!(ep1_old.recv_timeout(TICK).unwrap_err(), RecvError::Dead);
    assert_eq!(&ep1_new.recv_timeout(TICK).unwrap().payload[..], &[3]);
}

#[test]
fn send_to_bad_rank_errors() {
    let net = SimNet::new(2, NetConfig::direct());
    assert_eq!(net.send(0, 5, payload(0)).unwrap_err(), SendError::BadRank(5));
    assert_eq!(net.send(9, 1, payload(0)).unwrap_err(), SendError::BadRank(9));
}

#[test]
fn stats_account_for_traffic() {
    let net = SimNet::new(2, NetConfig::direct());
    let _ep0 = net.attach(0);
    let ep1 = net.attach(1);
    net.send(0, 1, Bytes::from(vec![0u8; 10])).unwrap();
    net.send(0, 1, Bytes::from(vec![0u8; 20])).unwrap();
    let _ = ep1.recv_timeout(TICK).unwrap();
    let _ = ep1.recv_timeout(TICK).unwrap();
    assert_eq!(net.stats().msgs_sent(), 2);
    assert_eq!(net.stats().bytes_sent(), 30);
    assert_eq!(net.stats().msgs_delivered(), 2);
    assert_eq!(net.stats().msgs_dropped_dead(), 0);
}

#[test]
fn frames_in_flight_outlive_the_last_handle_and_arrive_when_due() {
    let clock = SimClock::new();
    let ep1;
    {
        let net = SimNet::with_clock(
            2,
            NetConfig::delayed(Duration::from_millis(5), Duration::ZERO, Duration::ZERO, 7),
            Clock::Sim(clock.clone()),
        );
        let _ep0 = net.attach(0);
        ep1 = net.attach(1);
        for i in 0..10 {
            net.send(0, 1, payload(i)).unwrap();
        }
        // `net`, the only handle, drops here with all ten in flight.
    }
    clock.advance(Duration::from_millis(4));
    assert_eq!(ep1.try_recv().unwrap_err(), RecvError::Empty, "not due yet");
    clock.advance(Duration::from_millis(1));
    let tags: Vec<u8> = std::iter::from_fn(|| ep1.try_recv().ok().map(|e| e.payload[0])).collect();
    assert_eq!(tags, (0..10).collect::<Vec<u8>>());
}

#[test]
fn kill_drops_frames_in_flight_toward_the_slot() {
    // A frame still in flight at the kill belongs to the dead
    // incarnation: the successor, respawned at once, never sees it.
    let net = SimNet::new(
        2,
        NetConfig::delayed(Duration::from_millis(5), Duration::ZERO, Duration::ZERO, 3),
    );
    let _ep0 = net.attach(0);
    let _ep1 = net.attach(1);
    net.send(0, 1, payload(1)).unwrap();
    net.kill(1);
    let successor = net.respawn(1);
    assert_eq!(
        successor
            .recv_timeout(Duration::from_millis(50))
            .unwrap_err(),
        RecvError::Timeout
    );
    assert_eq!(net.stats().msgs_dropped_dead(), 1);
    // What is sent to the successor still arrives.
    net.send(0, 1, payload(2)).unwrap();
    assert_eq!(&successor.recv_timeout(TICK).unwrap().payload[..], &[2]);
}

#[test]
fn timeout_when_no_traffic() {
    let net = SimNet::new(1, NetConfig::direct());
    let ep0 = net.attach(0);
    assert_eq!(
        ep0.recv_timeout(Duration::from_millis(10)).unwrap_err(),
        RecvError::Timeout
    );
}

#[test]
fn n_reports_slot_count() {
    let net = SimNet::new(5, NetConfig::direct());
    assert_eq!(net.n(), 5);
}

#[test]
fn self_send_works() {
    let net = SimNet::new(1, NetConfig::direct());
    let ep0 = net.attach(0);
    net.send(0, 0, payload(4)).unwrap();
    let env = ep0.recv_timeout(TICK).unwrap();
    assert_eq!(env.src, 0);
    assert_eq!(&env.payload[..], &[4]);
}

#[test]
fn shared_bus_serializes_transmissions() {
    // Two large frames submitted back-to-back: the second's delivery
    // is delayed by the first's transmission time on the shared
    // medium (even though they go to different receivers).
    let net = SimNet::new(3, NetConfig {
        delivery: lclog_simnet::DeliveryModel::SharedBus {
            latency: Duration::from_micros(10),
            bytes_per_sec: 10 * 1024 * 1024, // 10 MiB/s: 1 MiB ≈ 100 ms
        },
        chaos: None,
    });
    let _ep0 = net.attach(0);
    let ep1 = net.attach(1);
    let ep2 = net.attach(2);
    let big = Bytes::from(vec![0u8; 1024 * 1024]);
    let start = std::time::Instant::now();
    net.send(0, 1, big.clone()).unwrap();
    net.send(0, 2, Bytes::from_static(b"tiny")).unwrap();
    let _ = ep1.recv_timeout(Duration::from_secs(5)).unwrap();
    let first_done = start.elapsed();
    let _ = ep2.recv_timeout(Duration::from_secs(5)).unwrap();
    let second_done = start.elapsed();
    assert!(
        first_done >= Duration::from_millis(80),
        "big frame should take ~100 ms on the bus, took {first_done:?}"
    );
    assert!(
        second_done >= first_done,
        "the tiny frame must queue behind the big one"
    );
}

#[test]
fn shared_bus_preserves_per_pair_fifo() {
    let net = SimNet::new(2, NetConfig::shared_bus());
    let _ep0 = net.attach(0);
    let ep1 = net.attach(1);
    for _ in 0..40 {
        net.send(0, 1, payload(0)).unwrap();
    }
    let mut last = 0;
    for _ in 0..40 {
        let env = ep1.recv_timeout(TICK).unwrap();
        assert_eq!(env.seq, last + 1);
        last = env.seq;
    }
}

// ---------------------------------------------------------------
// Held (deterministic-simulation) delivery model
// ---------------------------------------------------------------

#[test]
fn held_mode_parks_until_scheduler_releases() {
    let net = SimNet::new(2, NetConfig::held());
    let _ep0 = net.attach(0);
    let ep1 = net.attach(1);
    net.send(0, 1, payload(1)).unwrap();
    net.send(0, 1, payload(2)).unwrap();
    // Nothing moves on its own.
    assert!(matches!(ep1.try_recv(), Err(RecvError::Empty)));
    assert_eq!(net.held_channels(), vec![(0, 1, 2)]);
    // Releases are explicit and per-channel FIFO.
    assert!(net.held_deliver(0, 1));
    let env = ep1.try_recv().unwrap();
    assert_eq!(&env.payload[..], &[1]);
    assert!(net.held_deliver(0, 1));
    assert_eq!(&ep1.try_recv().unwrap().payload[..], &[2]);
    assert!(!net.held_deliver(0, 1), "channel drained");
    assert!(net.held_channels().is_empty());
}

#[test]
fn held_deliver_all_flushes_every_channel() {
    let net = SimNet::new(3, NetConfig::held());
    let _ep0 = net.attach(0);
    let ep1 = net.attach(1);
    let ep2 = net.attach(2);
    net.send(0, 1, payload(1)).unwrap();
    net.send(2, 1, payload(2)).unwrap();
    net.send(0, 2, payload(3)).unwrap();
    assert_eq!(net.held_deliver_all(), 3);
    assert!(ep1.try_recv().is_ok());
    assert!(ep1.try_recv().is_ok());
    assert!(ep2.try_recv().is_ok());
    assert!(net.held_channels().is_empty());
}

#[test]
fn held_scheduler_controls_cross_channel_order() {
    // The same two sends, released in opposite orders, arrive in
    // opposite orders — arrival order is the scheduler's decision.
    for flip in [false, true] {
        let net = SimNet::new(3, NetConfig::held());
        let _ep0 = net.attach(0);
        let _ep1 = net.attach(1);
        let ep2 = net.attach(2);
        net.send(0, 2, payload(10)).unwrap();
        net.send(1, 2, payload(20)).unwrap();
        let order: [(usize, u8); 2] = if flip {
            [(1, 20), (0, 10)]
        } else {
            [(0, 10), (1, 20)]
        };
        for (src, tag) in order {
            assert!(net.held_deliver(src, 2));
            let env = ep2.try_recv().unwrap();
            assert_eq!(env.src, src);
            assert_eq!(&env.payload[..], &[tag]);
        }
    }
}

#[test]
fn non_held_fabric_reports_empty_held_state() {
    let net = SimNet::new(2, NetConfig::direct());
    let _ep0 = net.attach(0);
    let _ep1 = net.attach(1);
    net.send(0, 1, payload(1)).unwrap();
    assert!(net.held_channels().is_empty());
    assert!(!net.held_deliver(0, 1));
    assert_eq!(net.held_deliver_all(), 0);
}
