//! Chaos fault-model integration tests: injected faults are visible in
//! the counters, and a seeded schedule replays identically.

use bytes::Bytes;
use lclog_simnet::{ChaosConfig, NetConfig, Partition, RecvError, SimNet};
use std::time::Duration;

const TICK: Duration = Duration::from_millis(200);

/// Runs a fixed scripted traffic pattern and returns
/// `(fault counters, digest of every delivered (src, seq, payload))`.
fn scripted_run(chaos: ChaosConfig) -> ([u64; 5], u64) {
    let net = SimNet::new(3, NetConfig::direct().with_chaos(chaos));
    let _ep0 = net.attach(0);
    let ep1 = net.attach(1);
    let ep2 = net.attach(2);
    for i in 0..400u32 {
        let payload = Bytes::from(i.to_le_bytes().to_vec());
        net.send(0, 1, payload.clone()).unwrap();
        net.send(0, 2, payload.clone()).unwrap();
        net.send(1, 2, payload).unwrap();
    }
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut absorb = |b: u8| {
        digest ^= b as u64;
        digest = digest.wrapping_mul(0x100_0000_01b3);
    };
    for ep in [&ep1, &ep2] {
        loop {
            match ep.try_recv() {
                Ok(env) => {
                    absorb(env.src as u8);
                    for b in env.seq.to_le_bytes() {
                        absorb(b);
                    }
                    for &b in env.payload.iter() {
                        absorb(b);
                    }
                }
                Err(RecvError::Empty) => break,
                Err(e) => panic!("unexpected recv error: {e}"),
            }
        }
    }
    let s = net.stats();
    (
        [
            s.chaos_dropped(),
            s.chaos_duplicated(),
            s.chaos_corrupted(),
            s.chaos_stalled(),
            s.partition_dropped(),
        ],
        digest,
    )
}

fn noisy(seed: u64) -> ChaosConfig {
    ChaosConfig::seeded(seed)
        .with_drop(0.05)
        .with_duplicate(0.02)
        .with_corrupt(0.01)
        .with_partition(Partition {
            group: vec![0],
            from_seq: 50,
            to_seq: 80,
        })
}

#[test]
fn seeded_schedule_replays_identically() {
    let (counters_a, digest_a) = scripted_run(noisy(0xC0FFEE));
    let (counters_b, digest_b) = scripted_run(noisy(0xC0FFEE));
    assert_eq!(counters_a, counters_b, "fault counters must replay");
    assert_eq!(digest_a, digest_b, "delivered stream must replay");
    // Faults actually fired.
    assert!(counters_a[0] > 0, "expected drops, got {counters_a:?}");
    assert!(counters_a[1] > 0, "expected duplicates, got {counters_a:?}");
    assert!(counters_a[2] > 0, "expected corruptions, got {counters_a:?}");
    assert_eq!(counters_a[4], 60, "two crossing links x 30-seq window");
    // A different seed yields a different schedule.
    let (counters_c, digest_c) = scripted_run(noisy(0xBEEF));
    assert!(
        counters_a != counters_c || digest_a != digest_c,
        "different seeds should not collide"
    );
}

#[test]
fn clean_chaos_config_is_transparent() {
    let (counters, _) = scripted_run(ChaosConfig::seeded(1));
    assert_eq!(counters, [0, 0, 0, 0, 0]);
    let net = SimNet::new(2, NetConfig::direct().with_chaos(ChaosConfig::seeded(1)));
    let _ep0 = net.attach(0);
    let ep1 = net.attach(1);
    net.send(0, 1, Bytes::from_static(b"hi")).unwrap();
    assert_eq!(&ep1.recv_timeout(TICK).unwrap().payload[..], b"hi");
}

#[test]
fn duplicates_share_the_fabric_seq() {
    // With duplicate_p = 1 every envelope arrives exactly twice and
    // both copies carry the same per-pair sequence number.
    let net = SimNet::new(2, NetConfig::direct().with_chaos(ChaosConfig::seeded(9).with_duplicate(1.0)));
    let _ep0 = net.attach(0);
    let ep1 = net.attach(1);
    net.send(0, 1, Bytes::from_static(b"x")).unwrap();
    let a = ep1.recv_timeout(TICK).unwrap();
    let b = ep1.recv_timeout(TICK).unwrap();
    assert_eq!(a.seq, b.seq);
    assert_eq!(&a.payload[..], &b.payload[..]);
    assert_eq!(net.stats().chaos_duplicated(), 1);
}

#[test]
fn corruption_flips_exactly_one_bit() {
    let net = SimNet::new(2, NetConfig::direct().with_chaos(ChaosConfig::seeded(3).with_corrupt(1.0)));
    let _ep0 = net.attach(0);
    let ep1 = net.attach(1);
    let clean = vec![0u8; 32];
    net.send(0, 1, Bytes::from(clean.clone())).unwrap();
    let env = ep1.recv_timeout(TICK).unwrap();
    let flipped: u32 = env
        .payload
        .iter()
        .zip(clean.iter())
        .map(|(a, b)| (a ^ b).count_ones())
        .sum();
    assert_eq!(flipped, 1, "exactly one bit must differ");
    assert_eq!(net.stats().chaos_corrupted(), 1);
}

#[test]
fn stalls_delay_but_deliver() {
    let stall = Duration::from_millis(20);
    let chaos = ChaosConfig::seeded(5).with_heavy_tail(1.0, stall, 0.0, stall);
    let net = SimNet::new(2, NetConfig::direct().with_chaos(chaos));
    let _ep0 = net.attach(0);
    let ep1 = net.attach(1);
    let start = std::time::Instant::now();
    net.send(0, 1, Bytes::from_static(b"slow")).unwrap();
    let env = ep1.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(&env.payload[..], b"slow");
    assert!(
        start.elapsed() >= Duration::from_millis(15),
        "stall should impose noticeable delay, took {:?}",
        start.elapsed()
    );
    assert_eq!(net.stats().chaos_stalled(), 1);
}

#[test]
fn partition_severs_only_the_window() {
    let chaos = ChaosConfig::seeded(11).with_partition(Partition {
        group: vec![0],
        from_seq: 2,
        to_seq: 3,
    });
    let net = SimNet::new(2, NetConfig::direct().with_chaos(chaos));
    let _ep0 = net.attach(0);
    let ep1 = net.attach(1);
    for i in 0..4u8 {
        net.send(0, 1, Bytes::from(vec![i])).unwrap();
    }
    let seqs: Vec<u64> = std::iter::from_fn(|| ep1.try_recv().ok().map(|e| e.seq)).collect();
    assert_eq!(seqs, vec![1, 3, 4], "seq 2 falls in the partition window");
    assert_eq!(net.stats().partition_dropped(), 1);
}
