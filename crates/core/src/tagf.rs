//! TAG-f — causal tracking bounded by a failure hypothesis, in the
//! style of Alvisi / Bhatia–Marzullo (\[8\] in the paper).
//!
//! Under the assumption of at most `f` simultaneous failures, a
//! determinant only needs to reach `f + 1` processes: any failure
//! pattern then leaves at least one holder alive. Each determinant is
//! therefore piggybacked *together with its known holder set* (the
//! "extra tracking information" of \[8\], counted in the piggyback
//! metric: 4 identifiers per determinant plus one per holder entry),
//! and drops out of piggybacks as soon as `f + 1` holders are proven.
//!
//! This sits between the paper's TAG baseline (no failure hypothesis,
//! conservative re-piggybacking forever) and TDI (a single vector):
//! the ablation benchmarks show TAG-f's piggyback plateauing at a
//! level set by `f` and the communication topology, still above TDI's
//! flat `n`.

use crate::protocol::{DeliveryVerdict, LoggingProtocol, SendArtifacts};
use crate::{Determinant, ProtocolError, ProtocolKind, Rank, ReplayScript};
use std::collections::{BTreeMap, BTreeSet};

type DetKey = (u32, u64);

/// A determinant plus the processes proven to hold it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Tracked {
    det: Determinant,
    holders: BTreeSet<u32>,
}

/// f-bounded antecedence tracking.
#[derive(Debug, Clone)]
pub struct TagF {
    me: Rank,
    n: usize,
    f: u32,
    deliver_count: u64,
    graph: BTreeMap<DetKey, Tracked>,
    replay: ReplayScript,
}

impl TagF {
    /// New instance for process `me` of `n`, tolerating up to `f`
    /// simultaneous failures.
    pub fn new(me: Rank, n: usize, f: u32) -> Self {
        assert!(me < n, "rank {me} out of range for n={n}");
        assert!((f as usize) < n, "f={f} must be smaller than n={n}");
        TagF {
            me,
            n,
            f,
            deliver_count: 0,
            graph: BTreeMap::new(),
            replay: ReplayScript::new(),
        }
    }

    /// The failure bound.
    pub fn f(&self) -> u32 {
        self.f
    }

    /// Determinants currently tracked (stable + propagating).
    pub fn graph_len(&self) -> usize {
        self.graph.len()
    }

    /// Determinants still below `f + 1` proven holders (the ones every
    /// send must carry).
    pub fn propagating_len(&self) -> usize {
        self.graph
            .values()
            .filter(|t| t.holders.len() <= self.f as usize)
            .count()
    }

    fn decode_piggyback(
        piggyback: &[u8],
    ) -> Result<Vec<(Determinant, Vec<u32>)>, ProtocolError> {
        lclog_wire::decode_from_slice(piggyback)
            .map_err(|_| ProtocolError::Corrupt("TAG-f piggyback"))
    }
}

impl LoggingProtocol for TagF {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::TagF(self.f)
    }

    fn n(&self) -> usize {
        self.n
    }

    fn me(&self) -> Rank {
        self.me
    }

    fn delivered_total(&self) -> u64 {
        self.deliver_count
    }

    fn on_send(&mut self, dst: Rank, _send_index: u64) -> SendArtifacts {
        // Carry every determinant that (a) has not provably reached
        // f + 1 processes and (b) the destination is not already a
        // proven holder of. The holder set rides along so receivers
        // inherit our knowledge.
        let mut payload: Vec<(Determinant, Vec<u32>)> = Vec::new();
        let mut id_count = 0u64;
        for t in self.graph.values() {
            if t.holders.len() > self.f as usize || t.holders.contains(&(dst as u32)) {
                continue;
            }
            id_count += Determinant::ID_COUNT + t.holders.len() as u64;
            payload.push((t.det, t.holders.iter().copied().collect()));
        }
        SendArtifacts {
            piggyback: lclog_wire::encode_to_vec(&payload),
            id_count,
        }
    }

    fn deliverable(&self, src: Rank, send_index: u64, _piggyback: &[u8]) -> DeliveryVerdict {
        if self.replay.allows(src, send_index, self.deliver_count + 1) {
            DeliveryVerdict::Deliver
        } else {
            DeliveryVerdict::Wait
        }
    }

    fn on_deliver(
        &mut self,
        src: Rank,
        send_index: u64,
        piggyback: &[u8],
    ) -> Result<(), ProtocolError> {
        if !self.replay.allows(src, send_index, self.deliver_count + 1) {
            return Err(ProtocolError::NotDeliverable { src, send_index });
        }
        let payload = Self::decode_piggyback(piggyback)?;
        for (det, holders) in payload {
            let entry = self.graph.entry(det.key()).or_insert_with(|| Tracked {
                det,
                holders: BTreeSet::new(),
            });
            entry.holders.extend(holders);
            // The sender and ourselves are now proven holders too.
            entry.holders.insert(src as u32);
            entry.holders.insert(self.me as u32);
            entry.holders.insert(det.receiver); // creator always holds
        }
        self.deliver_count += 1;
        let own = Determinant {
            sender: src as u32,
            send_index,
            receiver: self.me as u32,
            deliver_index: self.deliver_count,
        };
        let mut holders = BTreeSet::new();
        holders.insert(self.me as u32);
        self.graph.insert(own.key(), Tracked { det: own, holders });
        Ok(())
    }

    fn checkpoint_bytes(&self) -> Vec<u8> {
        let flat: Vec<(Determinant, Vec<u32>)> = self
            .graph
            .values()
            .map(|t| (t.det, t.holders.iter().copied().collect()))
            .collect();
        lclog_wire::encode_to_vec(&(self.deliver_count, flat))
    }

    fn restore_from_checkpoint(&mut self, bytes: &[u8]) -> Result<(), ProtocolError> {
        let (deliver_count, flat): (u64, Vec<(Determinant, Vec<u32>)>) =
            lclog_wire::decode_from_slice(bytes)
                .map_err(|_| ProtocolError::Corrupt("TAG-f checkpoint"))?;
        self.deliver_count = deliver_count;
        self.graph = flat
            .into_iter()
            .map(|(det, holders)| {
                (
                    det.key(),
                    Tracked {
                        det,
                        holders: holders.into_iter().collect(),
                    },
                )
            })
            .collect();
        self.replay = ReplayScript::new();
        Ok(())
    }

    fn on_local_checkpoint(&mut self) {
        // Unlike the unbounded TAG baseline, the f-bounded protocol
        // may prune: deliveries covered by our checkpoint can never be
        // replayed.
        let me = self.me as u32;
        let upto = self.deliver_count;
        self.graph.retain(|&(r, idx), _| !(r == me && idx <= upto));
    }

    fn on_peer_checkpoint(&mut self, peer: Rank, peer_delivered_total: u64) {
        self.graph
            .retain(|&(r, idx), _| !(r == peer as u32 && idx <= peer_delivered_total));
    }

    fn prunes_on_peer_checkpoint(&self) -> bool {
        true
    }

    fn determinants_for(&self, failed: Rank) -> Vec<Determinant> {
        self.graph
            .values()
            .filter(|t| t.det.receiver as Rank == failed)
            .map(|t| t.det)
            .collect()
    }

    fn install_recovery_info(&mut self, dets: Vec<Determinant>) {
        let relevant = dets
            .into_iter()
            .filter(|d| d.deliver_index > self.deliver_count);
        self.replay.install(self.me, relevant);
    }

    fn needs_full_recovery_info(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(from: &mut TagF, to: &mut TagF, send_index: u64) -> u64 {
        let a = from.on_send(to.me(), send_index);
        to.on_deliver(from.me(), send_index, &a.piggyback).unwrap();
        a.id_count
    }

    #[test]
    fn determinant_stops_propagating_after_f_plus_one_holders() {
        // f = 1 in a 4-process system: two holders suffice.
        let mut p0 = TagF::new(0, 4, 1);
        let mut p1 = TagF::new(1, 4, 1);
        let mut p2 = TagF::new(2, 4, 1);
        pass(&mut p0, &mut p1, 1); // det A created at p1: holders {1}
        assert_eq!(p1.propagating_len(), 1);
        // p1 -> p2 carries A (4 ids + 1 holder entry).
        let ids = pass(&mut p1, &mut p2, 1);
        assert_eq!(ids, 5);
        // p2 now holds A with holders {0?, no: {1, 2}} plus its own
        // new det B. A has 2 holders = f+1: stable at p2.
        assert_eq!(p2.propagating_len(), 1, "only B still propagates");
        // p2 -> p3... would carry B and NOT A.
        let art = p2.on_send(3, 1);
        let payload: Vec<(Determinant, Vec<u32>)> =
            lclog_wire::decode_from_slice(&art.piggyback).unwrap();
        assert_eq!(payload.len(), 1);
        assert_eq!(payload[0].0.receiver, 2, "only p2's own det travels");
    }

    #[test]
    fn holder_knowledge_rides_with_determinants() {
        let mut p0 = TagF::new(0, 5, 2); // f = 2: need 3 holders
        let mut p1 = TagF::new(1, 5, 2);
        let mut p2 = TagF::new(2, 5, 2);
        pass(&mut p0, &mut p1, 1); // det A at p1
        pass(&mut p1, &mut p2, 1); // p2 learns A with holders {1,2}
        let art = p2.on_send(3, 1);
        let payload: Vec<(Determinant, Vec<u32>)> =
            lclog_wire::decode_from_slice(&art.piggyback).unwrap();
        let a = payload.iter().find(|(d, _)| d.receiver == 1).unwrap();
        assert_eq!(a.1, vec![1, 2], "holder set travels with the det");
    }

    #[test]
    fn no_resend_to_proven_holder() {
        let mut p0 = TagF::new(0, 4, 2);
        let mut p1 = TagF::new(1, 4, 2);
        pass(&mut p0, &mut p1, 1); // A at p1 (holders {1})
        pass(&mut p1, &mut p0, 1); // p0 learns A (holders {0,1}), B at p0
        // p0 -> p1: A skipped (p1 is a holder), B carried.
        let art = p0.on_send(1, 2);
        let payload: Vec<(Determinant, Vec<u32>)> =
            lclog_wire::decode_from_slice(&art.piggyback).unwrap();
        assert_eq!(payload.len(), 1);
        assert_eq!(payload[0].0.receiver, 0);
    }

    #[test]
    fn replay_script_enforced_like_other_pwd_protocols() {
        let mut p = TagF::new(1, 3, 1);
        p.install_recovery_info(vec![Determinant {
            sender: 2,
            send_index: 1,
            receiver: 1,
            deliver_index: 1,
        }]);
        let empty = lclog_wire::encode_to_vec(&Vec::<(Determinant, Vec<u32>)>::new());
        assert_eq!(p.deliverable(0, 1, &empty), DeliveryVerdict::Wait);
        assert_eq!(p.deliverable(2, 1, &empty), DeliveryVerdict::Deliver);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_holders() {
        let mut p0 = TagF::new(0, 3, 1);
        let mut p1 = TagF::new(1, 3, 1);
        pass(&mut p0, &mut p1, 1);
        pass(&mut p1, &mut p0, 1);
        let blob = p0.checkpoint_bytes();
        let mut fresh = TagF::new(0, 3, 1);
        fresh.restore_from_checkpoint(&blob).unwrap();
        assert_eq!(fresh.deliver_count, p0.deliver_count);
        assert_eq!(fresh.graph, p0.graph);
    }

    #[test]
    fn checkpoints_prune_covered_determinants() {
        let mut p0 = TagF::new(0, 3, 1);
        let mut p1 = TagF::new(1, 3, 1);
        pass(&mut p0, &mut p1, 1);
        pass(&mut p1, &mut p0, 1);
        assert!(p0.graph_len() >= 2);
        p0.on_peer_checkpoint(1, 1); // p1's delivery now durable
        assert_eq!(p0.determinants_for(1).len(), 0);
        p0.on_local_checkpoint();
        assert_eq!(p0.determinants_for(0).len(), 0);
    }

    #[test]
    fn corrupt_piggyback_is_an_error() {
        let mut p = TagF::new(0, 2, 1);
        assert!(matches!(
            p.on_deliver(1, 1, &[0xFF]),
            Err(ProtocolError::Corrupt(_))
        ));
    }

    #[test]
    #[should_panic(expected = "f=3 must be smaller than n=3")]
    fn f_must_be_below_n() {
        let _ = TagF::new(0, 3, 3);
    }
}
