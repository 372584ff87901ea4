//! Chaos stall integration tests: stalls are visible in the counters,
//! delay without losing or reordering anything, and a seeded schedule
//! replays identically.

use bytes::Bytes;
use lclog_simnet::{ChaosConfig, Clock, NetConfig, RecvError, SimClock, SimNet};
use std::time::Duration;

/// Runs a fixed scripted traffic pattern on a virtual clock and returns
/// `(stalled envelopes, digest of every delivered (src, seq, payload)
/// in arrival order, virtual time when the last one arrived)`.
fn scripted_run(chaos: ChaosConfig) -> (u64, u64, Duration) {
    let clock = SimClock::new();
    let net = SimNet::with_clock(
        3,
        NetConfig::direct().with_chaos(chaos),
        Clock::Sim(clock.clone()),
    );
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
    let mut received = 0;
    let mut last = Duration::ZERO;
    while received < 1200 {
        for ep in [&ep1, &ep2] {
            loop {
                match ep.try_recv() {
                    Ok(env) => {
                        received += 1;
                        last = clock.elapsed();
                        absorb(env.src as u8);
                        for b in env.seq.to_le_bytes() {
                            absorb(b);
                        }
                        for &b in env.head.iter() {
                            absorb(b);
                        }
                    }
                    Err(RecvError::Empty) => break,
                    Err(e) => panic!("unexpected recv error: {e}"),
                }
            }
        }
        clock.advance(Duration::from_micros(100));
        assert!(clock.elapsed() < Duration::from_secs(10), "envelopes lost");
    }
    (net.stats().chaos_stalled(), digest, last)
}

fn noisy(seed: u64) -> ChaosConfig {
    ChaosConfig::seeded(seed).with_heavy_tail(
        0.05,
        Duration::from_millis(2),
        1.0,
        Duration::from_millis(20),
    )
}

#[test]
fn seeded_schedule_replays_identically() {
    let (stalled_a, digest_a, last_a) = scripted_run(noisy(0xC0FFEE));
    let (stalled_b, digest_b, last_b) = scripted_run(noisy(0xC0FFEE));
    assert_eq!(stalled_a, stalled_b, "stall counter must replay");
    assert_eq!(digest_a, digest_b, "delivered stream must replay");
    assert_eq!(last_a, last_b, "release times must replay");
    // Stalls actually fired, and held the run back.
    assert!(stalled_a > 0, "expected stalls");
    assert!(last_a > Duration::ZERO);
    // A different seed yields a different schedule.
    let (stalled_c, digest_c, last_c) = scripted_run(noisy(0xBEEF));
    assert!(
        (stalled_a, digest_a, last_a) != (stalled_c, digest_c, last_c),
        "different seeds should not collide"
    );
}

#[test]
fn clean_chaos_config_is_transparent() {
    // No stall: everything arrives at once, in the order a fabric
    // without a chaos model delivers it.
    let (stalled, digest, last) = scripted_run(ChaosConfig::seeded(1));
    assert_eq!((stalled, last), (0, Duration::ZERO));
    let (_, clean_digest, _) = scripted_run(ChaosConfig::seeded(2));
    assert_eq!(digest, clean_digest, "seed is irrelevant without stalls");
    let net = SimNet::new(2, NetConfig::direct().with_chaos(ChaosConfig::seeded(1)));
    assert!(!NetConfig::direct().with_chaos(ChaosConfig::seeded(1)).is_timed());
    let _ep0 = net.attach(0);
    let ep1 = net.attach(1);
    net.send(0, 1, Bytes::from_static(b"hi")).unwrap();
    assert_eq!(&ep1.try_recv().unwrap().head[..], b"hi");
}

#[test]
fn stalls_delay_but_deliver() {
    let stall = Duration::from_millis(20);
    let chaos = ChaosConfig::seeded(5).with_heavy_tail(1.0, stall, 0.0, stall);
    let clock = SimClock::new();
    let net = SimNet::with_clock(
        2,
        NetConfig::direct().with_chaos(chaos),
        Clock::Sim(clock.clone()),
    );
    let _ep0 = net.attach(0);
    let ep1 = net.attach(1);
    net.send(0, 1, Bytes::from_static(b"slow")).unwrap();
    clock.advance(stall - Duration::from_micros(1));
    assert_eq!(
        ep1.try_recv().unwrap_err(),
        RecvError::Empty,
        "still stalled"
    );
    clock.advance(Duration::from_micros(1));
    let env = ep1.try_recv().unwrap();
    assert_eq!(&env.head[..], b"slow");
    assert_eq!(net.stats().chaos_stalled(), 1);
}
