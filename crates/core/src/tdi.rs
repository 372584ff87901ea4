//! TDI — Tracking by Dependent Interval (§III of the paper).
//!
//! Dependency tracking is relaxed from *per-message delivery order*
//! (the PWD model) to *per-process delivered-message counts*: each
//! process maintains one `depend_interval[n]` vector, piggybacks it on
//! every send, and merges piggybacked vectors on every delivery. A
//! recovering process may deliver a logged message as soon as the
//! message's recorded `depend_interval[me]` is covered by its own
//! delivery count — no waiting for one specific message, no
//! antecedence graph, no increment computation.

use crate::protocol::{DeliveryVerdict, LoggingProtocol, SendArtifacts};
use crate::vectors::{counts_len, read_counts, write_counts};
use crate::{DependVector, ProtocolError, ProtocolKind, Rank};
use lclog_wire::{Encode, Reader, WireError};

/// The paper's lightweight causal message-logging protocol.
#[derive(Debug, Clone)]
pub struct Tdi {
    me: Rank,
    n: usize,
    /// `depend_interval` of Algorithm 1: element `me` counts local
    /// deliveries; other elements are transitive interval knowledge.
    depend: DependVector,
}

impl Tdi {
    /// New instance for process `me` of `n`, all intervals zero.
    pub fn new(me: Rank, n: usize) -> Self {
        assert!(me < n, "rank {me} out of range for n={n}");
        Tdi {
            me,
            n,
            depend: DependVector::zeroed(n),
        }
    }

    /// Current dependency vector (exposed for tests and examples).
    pub fn depend_interval(&self) -> &DependVector {
        &self.depend
    }

    /// The piggyback's element `me`, all the gate reads, after checking
    /// the whole piggyback in place.
    fn entry_for_me(&self, piggyback: &[u8]) -> Result<u64, ProtocolError> {
        DependVector::encoded_entry(piggyback, self.n, self.me).map_err(|e| match e {
            WireError::TrailingBytes { .. } => {
                ProtocolError::Corrupt("TDI piggyback trailing bytes")
            }
            _ => ProtocolError::Corrupt("TDI piggyback vector"),
        })
    }
}

/// Piggyback capacity beyond `n` bytes. `n` bytes hold the vector
/// while every element is below 0x80; the slack holds a few larger
/// ones (a pair that has exchanged many messages) before the buffer
/// has to grow, without a pass over the vector to size it exactly.
const PIGGYBACK_SLACK: usize = 16;

impl LoggingProtocol for Tdi {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Tdi
    }

    fn n(&self) -> usize {
        self.n
    }

    fn me(&self) -> Rank {
        self.me
    }

    fn delivered_total(&self) -> u64 {
        self.depend[self.me]
    }

    fn interval_vector(&self) -> Option<Vec<u64>> {
        Some(self.depend.as_slice().to_vec())
    }

    fn on_send(&mut self, _dst: Rank, _send_index: u64) -> SendArtifacts {
        // Algorithm 1 line 11: piggyback the whole depend_interval
        // vector — n identifiers, independent of message history.
        let mut piggyback = Vec::with_capacity(self.n + PIGGYBACK_SLACK);
        self.depend.encode(&mut piggyback);
        SendArtifacts {
            piggyback,
            id_count: self.n as u64,
        }
    }

    fn deliverable(&self, _src: Rank, _send_index: u64, piggyback: &[u8]) -> DeliveryVerdict {
        // Algorithm 1 line 17: deliver iff we have already delivered
        // at least as many messages as the sender saw us depend on.
        match self.entry_for_me(piggyback) {
            Ok(needs) if needs <= self.depend[self.me] => DeliveryVerdict::Deliver,
            _ => DeliveryVerdict::Wait,
        }
    }

    fn on_deliver(
        &mut self,
        src: Rank,
        send_index: u64,
        piggyback: &[u8],
    ) -> Result<(), ProtocolError> {
        if self.entry_for_me(piggyback)? > self.depend[self.me] {
            return Err(ProtocolError::NotDeliverable { src, send_index });
        }
        // Lines 20, 22–24: advance own interval, join the rest. The
        // piggyback was checked whole above, so the merge cannot stop
        // part-way; an own count that cannot grow changes nothing.
        self.depend.increment(self.me)?;
        self.depend
            .merge_encoded(piggyback, self.me)
            .map_err(|_| ProtocolError::Corrupt("TDI piggyback vector"))
    }

    fn checkpoint_bytes(&self) -> Vec<u8> {
        let depend = self.depend.as_slice();
        let mut buf = Vec::with_capacity(counts_len(depend));
        write_counts(&mut buf, depend);
        buf
    }

    fn restore_from_checkpoint(&mut self, bytes: &[u8]) -> Result<(), ProtocolError> {
        let mut r = Reader::new(bytes);
        let v = read_counts(&mut r)
            .and_then(|v| r.finish().map(|()| v))
            .map_err(|_| ProtocolError::Corrupt("TDI checkpoint"))?;
        if v.len() != self.n {
            return Err(ProtocolError::Corrupt("TDI checkpoint length"));
        }
        self.depend = DependVector::from_vec(v);
        Ok(())
    }

    // TDI needs no replay script: install_recovery_info and
    // determinants_for keep their no-op defaults, and the deliverable
    // gate above is the *entire* rolling-forward order constraint —
    // the paper's headline relaxation.
}

#[cfg(test)]
mod tests {
    use super::*;
    use lclog_wire::{varint, Reader};
    use proptest::prelude::*;

    fn artifacts(p: &mut Tdi, dst: Rank, idx: u64) -> Vec<u8> {
        p.on_send(dst, idx).piggyback
    }

    #[test]
    fn piggyback_is_always_n_identifiers() {
        let mut p = Tdi::new(0, 8);
        for i in 1..=100 {
            let a = p.on_send(1, i);
            assert_eq!(a.id_count, 8);
        }
    }

    #[test]
    fn fig1_scenario_dependency_gate() {
        // Four processes as in Fig. 1. P1 delivers m0 (from P0) and m2
        // (from P2); P2 delivers m3 (from P1) ... finally m5 from P2
        // to P1 depends on 2 deliveries at P1.
        let mut p0 = Tdi::new(0, 4);
        let mut p1 = Tdi::new(1, 4);
        let mut p2 = Tdi::new(2, 4);
        let mut p3 = Tdi::new(3, 4);

        // m0: P0 -> P1, m1: P3 -> P2, m2: P2 -> P1 (after P2 delivers m1)
        let m0 = artifacts(&mut p0, 1, 1);
        let m1 = artifacts(&mut p3, 2, 1);
        p2.on_deliver(3, 1, &m1).unwrap();
        let m2 = artifacts(&mut p2, 1, 1);

        // m0 and m2 both depend on 0 deliveries at P1: deliverable in
        // any order (the paper's relaxation).
        assert_eq!(p1.deliverable(0, 1, &m0), DeliveryVerdict::Deliver);
        assert_eq!(p1.deliverable(2, 1, &m2), DeliveryVerdict::Deliver);
        p1.on_deliver(2, 1, &m2).unwrap(); // reverse of "original" order
        p1.on_deliver(0, 1, &m0).unwrap();
        assert_eq!(p1.delivered_total(), 2);

        // m3: P1 -> P2 now depends on 2 deliveries at P1.
        let m3 = artifacts(&mut p1, 2, 1);
        p2.on_deliver(1, 1, &m3).unwrap();
        // m4: P3 -> P2; P2's vector now (0, 2, 2, 1) after delivering
        // m1, m3 ... deliver m4 too.
        let m4 = artifacts(&mut p3, 2, 2);
        p2.on_deliver(3, 2, &m4).unwrap();

        // m5: P2 -> P1. Its piggyback must record P1's interval 2.
        let m5 = artifacts(&mut p2, 1, 2);

        // A fresh incarnation of P1 (delivered 0) must wait for m5...
        let p1_fresh = Tdi::new(1, 4);
        assert_eq!(p1_fresh.deliverable(2, 2, &m5), DeliveryVerdict::Wait);
        // ...but the up-to-date P1 can deliver it.
        assert_eq!(p1.deliverable(2, 2, &m5), DeliveryVerdict::Deliver);
    }

    #[test]
    fn merge_updates_transitive_knowledge() {
        let mut p0 = Tdi::new(0, 3);
        let mut p1 = Tdi::new(1, 3);
        // P0 delivers 2 messages from P1 (both depend on nothing).
        let a = artifacts(&mut p1, 0, 1);
        let b = artifacts(&mut p1, 0, 2);
        p0.on_deliver(1, 1, &a).unwrap();
        p0.on_deliver(1, 2, &b).unwrap();
        assert_eq!(p0.depend_interval().as_slice(), &[2, 0, 0]);

        // P2 delivers a message from P0 and learns P0's interval.
        let mut p2 = Tdi::new(2, 3);
        let c = artifacts(&mut p0, 2, 1);
        p2.on_deliver(0, 1, &c).unwrap();
        assert_eq!(p2.depend_interval().as_slice(), &[2, 0, 1]);
    }

    #[test]
    fn on_deliver_rejects_unsatisfied_dependency() {
        let mut sender = Tdi::new(0, 2);
        // Sender has delivered 3 messages (simulate).
        for i in 1..=3 {
            let self_m = sender.on_send(0, i).piggyback;
            sender.on_deliver(0, i, &self_m).unwrap();
        }
        let m = sender.on_send(1, 1).piggyback;
        // m depends on 3 deliveries at... wait, element checked is the
        // *receiver's*: craft a piggyback whose element for rank 1 is 5.
        let forged = lclog_wire::encode_to_vec(&DependVector::from_vec(vec![0, 5]));
        let mut recv = Tdi::new(1, 2);
        assert_eq!(recv.deliverable(0, 1, &forged), DeliveryVerdict::Wait);
        assert!(matches!(
            recv.on_deliver(0, 1, &forged),
            Err(ProtocolError::NotDeliverable { .. })
        ));
        // The legitimate message delivers fine.
        assert_eq!(recv.deliverable(0, 1, &m), DeliveryVerdict::Deliver);
        recv.on_deliver(0, 1, &m).unwrap();
        assert_eq!(recv.depend_interval().as_slice(), &[3, 1]);
    }

    #[test]
    fn corrupt_piggyback_waits_not_panics() {
        let p = Tdi::new(0, 4);
        assert_eq!(p.deliverable(1, 1, &[0xFF]), DeliveryVerdict::Wait);
        let mut p = p;
        assert!(matches!(
            p.on_deliver(1, 1, &[0xFF]),
            Err(ProtocolError::Corrupt(_))
        ));
    }

    #[test]
    fn checkpoint_roundtrip() {
        let mut p = Tdi::new(1, 3);
        let m = Tdi::new(0, 3).on_send(1, 1).piggyback;
        p.on_deliver(0, 1, &m).unwrap();
        let blob = p.checkpoint_bytes();
        let mut fresh = Tdi::new(1, 3);
        fresh.restore_from_checkpoint(&blob).unwrap();
        assert_eq!(fresh.depend_interval(), p.depend_interval());
        assert_eq!(fresh.delivered_total(), 1);
    }

    #[test]
    fn restore_rejects_wrong_length() {
        let blob = lclog_wire::encode_to_vec(&vec![1u64, 2]);
        let mut p = Tdi::new(0, 3);
        assert!(matches!(
            p.restore_from_checkpoint(&blob),
            Err(ProtocolError::Corrupt(_))
        ));
    }

    #[test]
    fn self_message_delivery() {
        let mut p = Tdi::new(0, 2);
        let m = p.on_send(0, 1).piggyback;
        assert_eq!(p.deliverable(0, 1, &m), DeliveryVerdict::Deliver);
        p.on_deliver(0, 1, &m).unwrap();
        assert_eq!(p.delivered_total(), 1);
    }

    /// The reference decoder the in-place gate and merge replaced: one
    /// LEB128 varint at a time into a fresh vector, then no trailing
    /// bytes.
    fn decode_n(bytes: &[u8], n: usize) -> Option<DependVector> {
        let mut r = Reader::new(bytes);
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let (mut value, mut shift) = (0u64, 0u32);
            loop {
                let byte = r.take_byte().ok()?;
                let low = (byte & 0x7F) as u64;
                if shift == 63 && low > 1 {
                    return None;
                }
                value |= low << shift;
                if byte & 0x80 == 0 {
                    break;
                }
                shift += 7;
                if shift > 63 {
                    return None;
                }
            }
            values.push(value);
        }
        r.finish().ok()?;
        Some(DependVector::from_vec(values))
    }

    /// `piggyback` meets `p`'s gate and merge as the reference says it
    /// must: rejected bytes wait, fail as `Corrupt` and change nothing;
    /// accepted ones gate on the reference's element `me` and merge to
    /// the reference's `increment` + `merge_from`.
    fn agrees_with_reference(p: &Tdi, piggyback: &[u8]) {
        let me = p.me();
        let reference = decode_n(piggyback, p.n());
        let gate_open = reference.as_ref().is_some_and(|v| v[me] <= p.depend[me]);
        let verdict = if gate_open {
            DeliveryVerdict::Deliver
        } else {
            DeliveryVerdict::Wait
        };
        assert_eq!(p.deliverable(1, 1, piggyback), verdict);
        let mut merged = p.clone();
        let result = merged.on_deliver(1, 1, piggyback);
        match reference {
            None => {
                assert!(
                    matches!(result, Err(ProtocolError::Corrupt(_))),
                    "{result:?}"
                );
                assert_eq!(merged.depend_interval(), p.depend_interval());
            }
            Some(_) if !gate_open => {
                assert!(matches!(result, Err(ProtocolError::NotDeliverable { .. })));
                assert_eq!(merged.depend_interval(), p.depend_interval());
            }
            // The own count cannot take one more delivery.
            Some(_) if p.depend[me] == u64::MAX => {
                assert!(
                    matches!(result, Err(ProtocolError::Corrupt(_))),
                    "{result:?}"
                );
                assert_eq!(merged.depend_interval(), p.depend_interval());
            }
            Some(v) => {
                assert_eq!(result, Ok(()));
                let mut expected = p.depend.clone();
                expected.increment(me).unwrap();
                expected.merge_from(&v, me);
                assert_eq!(merged.depend_interval(), &expected);
            }
        }
    }

    /// `n` entries: all below 0x80 (whole 8-byte words of single-byte
    /// varints, the common shape), mostly below 0x80, or any mix of
    /// values whose varints take 1, 2, 3 and 10 bytes.
    fn entries(n: usize) -> impl Strategy<Value = Vec<u64>> {
        let small = || 0u64..128;
        let edges = || {
            prop_oneof![
                Just(0u64),
                Just(127u64),
                Just(128u64),
                Just(16_383u64),
                Just(16_384u64),
                Just(u64::MAX),
                any::<u64>(),
            ]
        };
        prop_oneof![
            proptest::collection::vec(small(), n),
            proptest::collection::vec(
                prop_oneof![
                    small(),
                    small(),
                    small(),
                    small(),
                    small(),
                    small(),
                    edges()
                ],
                n
            ),
            proptest::collection::vec(edges(), n),
        ]
    }

    /// A receiver of `n` ranks (rank `me`, with vector `mine`) and a
    /// piggybacked vector of the same width.
    fn case() -> impl Strategy<Value = (Tdi, Vec<u64>)> {
        (1usize..600).prop_flat_map(|n| {
            (0..n, entries(n), entries(n)).prop_map(move |(me, mine, theirs)| {
                let mut p = Tdi::new(me, n);
                p.depend = DependVector::from_vec(mine);
                (p, theirs)
            })
        })
    }

    proptest! {
        /// The in-place gate and merge accept exactly what the
        /// reference decoder accepts and compute what it computes, on
        /// the piggyback and on every hostile variant of it.
        #[test]
        fn gate_and_merge_match_the_reference_on_hostile_bytes(
            (p, theirs) in case(),
            at in any::<u64>(),
        ) {
            let bytes = lclog_wire::encode_to_vec(&DependVector::from_vec(theirs.clone()));
            agrees_with_reference(&p, &bytes);
            // A piggyback whose element `me` the gate admits.
            let mut admitted = theirs.clone();
            admitted[p.me()] = p.depend[p.me()];
            agrees_with_reference(&p, &lclog_wire::encode_to_vec(&DependVector::from_vec(admitted)));
            for cut in 0..bytes.len() {
                agrees_with_reference(&p, &bytes[..cut]);
            }
            for extra in [0x00u8, 0x01, 0x7F, 0x80, 0xFF] {
                let mut longer = bytes.clone();
                longer.push(extra);
                agrees_with_reference(&p, &longer);
            }
            // One element re-encoded: overlong (11 bytes), overflowing
            // (a tenth byte above 1), or padded with a zero group, which
            // the reference accepts.
            let k = (at % theirs.len() as u64) as usize;
            let mut overflowing = vec![0x80u8; 9];
            overflowing.push(0x02);
            let mut padded = Vec::new();
            varint::write_u64(&mut padded, theirs[k] & (u64::MAX >> 8));
            *padded.last_mut().expect("one byte at least") |= 0x80;
            padded.push(0x00);
            for replacement in [vec![0x80u8; 11], overflowing, padded] {
                let mut hostile = Vec::new();
                for (i, &v) in theirs.iter().enumerate() {
                    if i == k {
                        hostile.extend_from_slice(&replacement);
                    } else {
                        varint::write_u64(&mut hostile, v);
                    }
                }
                agrees_with_reference(&p, &hostile);
            }
        }
    }
}
