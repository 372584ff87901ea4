//! Property tests for the sender-based message log: the resend set is
//! always exactly the retained suffix per destination, whatever
//! interleaving of inserts and GC releases occurred.

use bytes::Bytes;
use lclog_runtime::{LogEntry, SenderLog};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    /// Log the next message to `dst`.
    Send { dst: usize },
    /// `CHECKPOINT_ADVANCE` from `dst` covering `upto` (clamped to
    /// what was actually sent).
    Release { dst: usize, upto_fraction: u8 },
}

fn arb_ops(n: usize, len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0..n).prop_map(|dst| Op::Send { dst }),
            ((0..n), any::<u8>()).prop_map(|(dst, upto_fraction)| Op::Release {
                dst,
                upto_fraction
            }),
        ],
        0..len,
    )
}

proptest! {
    #[test]
    fn prop_log_retains_exactly_the_unreleased_suffix(ops in arb_ops(3, 120)) {
        let n = 3;
        let mut log = SenderLog::new(n);
        let mut sent = vec![0u64; n];
        let mut released = vec![0u64; n];
        for op in ops {
            match op {
                Op::Send { dst } => {
                    sent[dst] += 1;
                    log.insert(LogEntry::new(
                        dst as u32,
                        sent[dst],
                        0,
                        Bytes::from_static(&[1, 2]),
                        false,
                        Bytes::from_static(b"x"),
                    ));
                }
                Op::Release { dst, upto_fraction } => {
                    let upto = (sent[dst] * upto_fraction as u64) / 255;
                    log.release(dst, upto);
                    released[dst] = released[dst].max(upto);
                }
            }
        }
        // Model: per dst, entries (released[dst], sent[dst]] remain.
        let mut expected: BTreeMap<(usize, u64), ()> = BTreeMap::new();
        for dst in 0..n {
            for idx in released[dst] + 1..=sent[dst] {
                expected.insert((dst, idx), ());
            }
        }
        let mut actual: BTreeMap<(usize, u64), ()> = BTreeMap::new();
        for dst in 0..n {
            for e in log.entries_after(dst, 0) {
                actual.insert((dst, e.send_index), ());
            }
        }
        prop_assert_eq!(actual, expected);
        prop_assert_eq!(log.len(), log.entries().cloned().collect::<Vec<_>>().len());
        // Checkpoint roundtrip preserves content.
        let rebuilt = SenderLog::from_entries(n, log.entries().cloned().collect::<Vec<_>>());
        prop_assert_eq!(rebuilt.len(), log.len());
        prop_assert_eq!(rebuilt.bytes(), log.bytes());
    }

    #[test]
    fn prop_entries_after_is_a_suffix(ops in arb_ops(2, 60), from in 0u64..30) {
        let mut log = SenderLog::new(2);
        let mut sent = [0u64; 2];
        for op in ops {
            if let Op::Send { dst } = op {
                sent[dst] += 1;
                log.insert(LogEntry::new(
                    dst as u32,
                    sent[dst],
                    0,
                    Bytes::new(),
                    false,
                    Bytes::new(),
                ));
            }
        }
        let suffix: Vec<u64> = log.entries_after(0, from).map(|e| e.send_index).collect();
        // Strictly increasing, all > from, contiguous to the end.
        prop_assert!(suffix.windows(2).all(|w| w[0] + 1 == w[1]));
        prop_assert!(suffix.iter().all(|&i| i > from));
        if let Some(&last) = suffix.last() {
            prop_assert_eq!(last, sent[0]);
        }
    }
}
