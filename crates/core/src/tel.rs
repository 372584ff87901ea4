//! TEL — causal logging with a stable event logger, the
//! Bouteiller-style baseline (\[5,9\] in the paper).
//!
//! Determinants are still created per delivery (PWD), but each process
//! ships its own determinants asynchronously to a stable event-logger
//! service; causal piggybacking covers a determinant only until the
//! logger's acknowledgement arrives. Piggyback volume therefore tracks
//! the *unstabilized window* rather than full history — smaller than
//! TAG, still far larger than TDI's fixed vector, and it adds logger
//! round-trip traffic (the "extra notification messages" of §V).
//!
//! Each message also carries the sender's stability-knowledge vector
//! (`n` extra identifiers, one stable count per process) so receivers
//! prune third-party determinants they are still carrying — the
//! distributed stability gossip of \[9\].

use crate::protocol::{DeliveryVerdict, LoggingProtocol, SendArtifacts};
use crate::{Determinant, ProtocolError, ProtocolKind, Rank, ReplayScript};
use std::collections::BTreeMap;

type DetKey = (u32, u64);

/// Event-logger causal logging baseline.
#[derive(Debug, Clone)]
pub struct Tel {
    me: Rank,
    n: usize,
    deliver_count: u64,
    /// Own determinants not yet acknowledged stable by the logger,
    /// keyed by deliver_index.
    own_unstable: BTreeMap<u64, Determinant>,
    /// Determinants of other processes carried causally until known
    /// stable.
    foreign_unstable: BTreeMap<DetKey, Determinant>,
    /// `stable_counts[r]`: the logger stably holds `r`'s determinants
    /// up to this deliver_index (as far as we know).
    stable_counts: Vec<u64>,
    /// Determinants created since the last drain to the logger.
    pending_logger: Vec<Determinant>,
    replay: ReplayScript,
}

impl Tel {
    /// New instance for process `me` of `n`.
    pub fn new(me: Rank, n: usize) -> Self {
        assert!(me < n, "rank {me} out of range for n={n}");
        Tel {
            me,
            n,
            deliver_count: 0,
            own_unstable: BTreeMap::new(),
            foreign_unstable: BTreeMap::new(),
            stable_counts: vec![0; n],
            pending_logger: Vec::new(),
            replay: ReplayScript::new(),
        }
    }

    /// Number of determinants currently piggybacked on every send.
    pub fn unstable_len(&self) -> usize {
        self.own_unstable.len() + self.foreign_unstable.len()
    }

    fn decode_piggyback(
        piggyback: &[u8],
    ) -> Result<(Vec<Determinant>, Vec<u64>), ProtocolError> {
        lclog_wire::decode_from_slice(piggyback)
            .map_err(|_| ProtocolError::Corrupt("TEL piggyback"))
    }

    fn prune_stable(&mut self, rank: u32, upto: u64) {
        self.foreign_unstable
            .retain(|&(r, idx), _| !(r == rank && idx <= upto));
        if rank as Rank == self.me {
            self.own_unstable.retain(|&idx, _| idx > upto);
        }
    }
}

impl LoggingProtocol for Tel {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Tel
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

    fn on_send(&mut self, _dst: Rank, _send_index: u64) -> SendArtifacts {
        let dets: Vec<Determinant> = self
            .own_unstable
            .values()
            .chain(self.foreign_unstable.values())
            .copied()
            .collect();
        let payload = (dets, self.stable_counts.clone());
        let piggyback = lclog_wire::encode_to_vec(&payload);
        SendArtifacts {
            piggyback,
            // 4 identifiers per determinant + n stability counters.
            id_count: payload.0.len() as u64 * Determinant::ID_COUNT + self.n as u64,
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
        let (dets, sender_stable) = Self::decode_piggyback(piggyback)?;
        if sender_stable.len() != self.n {
            return Err(ProtocolError::Corrupt("TEL stability vector length"));
        }
        // Merge the sender's stability knowledge: anything the logger
        // durably holds need not be carried any further.
        for (r, &upto) in sender_stable.iter().enumerate() {
            if upto > self.stable_counts[r] {
                self.stable_counts[r] = upto;
                self.prune_stable(r as u32, upto);
            }
        }
        for det in dets {
            let owner = det.receiver as Rank;
            if owner == self.me {
                // Our own determinant echoed back; we either still
                // hold it or it is already stable/checkpoint-covered.
                continue;
            }
            if det.deliver_index > self.stable_counts[owner] {
                self.foreign_unstable.insert(det.key(), det);
            }
        }
        self.deliver_count += 1;
        let own = Determinant {
            sender: src as u32,
            send_index,
            receiver: self.me as u32,
            deliver_index: self.deliver_count,
        };
        self.own_unstable.insert(own.deliver_index, own);
        self.pending_logger.push(own);
        Ok(())
    }

    fn checkpoint_bytes(&self) -> Vec<u8> {
        let own: Vec<Determinant> = self.own_unstable.values().copied().collect();
        let foreign: Vec<Determinant> = self.foreign_unstable.values().copied().collect();
        lclog_wire::encode_to_vec(&(
            self.deliver_count,
            own,
            foreign,
            self.stable_counts.clone(),
        ))
    }

    fn restore_from_checkpoint(&mut self, bytes: &[u8]) -> Result<(), ProtocolError> {
        let (deliver_count, own, foreign, stable): (
            u64,
            Vec<Determinant>,
            Vec<Determinant>,
            Vec<u64>,
        ) = lclog_wire::decode_from_slice(bytes)
            .map_err(|_| ProtocolError::Corrupt("TEL checkpoint"))?;
        if stable.len() != self.n {
            return Err(ProtocolError::Corrupt("TEL checkpoint stable length"));
        }
        self.deliver_count = deliver_count;
        self.own_unstable = own.into_iter().map(|d| (d.deliver_index, d)).collect();
        self.foreign_unstable = foreign.into_iter().map(|d| (d.key(), d)).collect();
        self.stable_counts = stable;
        self.pending_logger.clear();
        self.replay = ReplayScript::new();
        Ok(())
    }

    fn on_local_checkpoint(&mut self) {
        // Deliveries covered by the checkpoint can never be replayed;
        // their determinants are obsolete even if the logger never
        // acked them.
        let upto = self.deliver_count;
        self.own_unstable.retain(|&idx, _| idx > upto);
    }

    fn on_peer_checkpoint(&mut self, peer: Rank, peer_delivered_total: u64) {
        self.foreign_unstable
            .retain(|&(r, idx), _| !(r == peer as u32 && idx <= peer_delivered_total));
    }

    fn prunes_on_peer_checkpoint(&self) -> bool {
        true
    }

    fn determinants_for(&self, failed: Rank) -> Vec<Determinant> {
        // The stable portion lives at the event logger; the runtime
        // queries it separately. We contribute the unstable window.
        self.foreign_unstable
            .values()
            .filter(|d| d.receiver as Rank == failed)
            .copied()
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

    fn drain_determinants_for_logger(&mut self) -> Vec<Determinant> {
        std::mem::take(&mut self.pending_logger)
    }

    fn on_logger_ack(&mut self, upto: u64) {
        if upto > self.stable_counts[self.me] {
            self.stable_counts[self.me] = upto;
            let me = self.me as u32;
            self.prune_stable(me, upto);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(from: &mut Tel, to: &mut Tel, send_index: u64) -> u64 {
        let a = from.on_send(to.me(), send_index);
        to.on_deliver(from.me(), send_index, &a.piggyback).unwrap();
        a.id_count
    }

    #[test]
    fn unstable_window_grows_until_ack() {
        let mut p0 = Tel::new(0, 2);
        let mut p1 = Tel::new(1, 2);
        assert_eq!(pass(&mut p0, &mut p1, 1), 2); // no dets yet, +n counters
        assert_eq!(pass(&mut p1, &mut p0, 1), 6); // 1 det * 4 + n
        assert_eq!(pass(&mut p0, &mut p1, 2), 10); // 2 dets * 4 + n
        // Logger acks p1's first determinant.
        p1.on_logger_ack(1);
        // p1 delivered twice (dets at idx 1,2) and holds p0's det;
        // ack(1) removes own idx 1 → own {2} + foreign {p0's 1} = 2.
        assert_eq!(p1.unstable_len(), 2);
        let a = p1.on_send(0, 2);
        assert_eq!(a.id_count, 10);
    }

    #[test]
    fn stability_propagates_via_header_counter() {
        let mut p0 = Tel::new(0, 3);
        let mut p1 = Tel::new(1, 3);
        let mut p2 = Tel::new(2, 3);
        pass(&mut p0, &mut p1, 1); // p1 det @1
        pass(&mut p1, &mut p2, 1); // p2 carries p1's det
        assert_eq!(p2.unstable_len(), 2); // p1's det + own det
        // Logger acks p1; p1's next message tells p2.
        p1.on_logger_ack(1);
        pass(&mut p1, &mut p2, 2);
        // p2 pruned p1's stable det; now holds own dets (2) only...
        // p1's message also carried nothing new that is unstable.
        assert_eq!(
            p2.foreign_unstable.values().filter(|d| d.receiver == 1).count(),
            0
        );
    }

    #[test]
    fn drain_hands_over_each_det_once() {
        let mut p0 = Tel::new(0, 2);
        let mut p1 = Tel::new(1, 2);
        pass(&mut p0, &mut p1, 1);
        pass(&mut p0, &mut p1, 2);
        let drained = p1.drain_determinants_for_logger();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].deliver_index, 1);
        assert_eq!(drained[1].deliver_index, 2);
        assert!(p1.drain_determinants_for_logger().is_empty());
    }

    #[test]
    fn replay_script_gates_delivery() {
        let mut p = Tel::new(0, 2);
        p.install_recovery_info(vec![Determinant {
            sender: 1,
            send_index: 2,
            receiver: 0,
            deliver_index: 1,
        }]);
        let empty = lclog_wire::encode_to_vec(&(Vec::<Determinant>::new(), vec![0u64; 2]));
        assert_eq!(p.deliverable(1, 1, &empty), DeliveryVerdict::Wait);
        assert_eq!(p.deliverable(1, 2, &empty), DeliveryVerdict::Deliver);
    }

    #[test]
    fn checkpoint_roundtrip() {
        let mut p0 = Tel::new(0, 2);
        let mut p1 = Tel::new(1, 2);
        pass(&mut p0, &mut p1, 1);
        pass(&mut p1, &mut p0, 1);
        let blob = p0.checkpoint_bytes();
        let mut fresh = Tel::new(0, 2);
        fresh.restore_from_checkpoint(&blob).unwrap();
        assert_eq!(fresh.deliver_count, p0.deliver_count);
        assert_eq!(fresh.own_unstable, p0.own_unstable);
        assert_eq!(fresh.foreign_unstable, p0.foreign_unstable);
        assert_eq!(fresh.stable_counts, p0.stable_counts);
    }

    #[test]
    fn local_checkpoint_prunes_own_window() {
        let mut p0 = Tel::new(0, 2);
        let mut p1 = Tel::new(1, 2);
        pass(&mut p0, &mut p1, 1);
        assert_eq!(p1.own_unstable.len(), 1);
        p1.on_local_checkpoint();
        assert_eq!(p1.own_unstable.len(), 0);
    }

    #[test]
    fn survivor_contribution_covers_unstable_window() {
        let mut p0 = Tel::new(0, 3);
        let mut p1 = Tel::new(1, 3);
        let mut p2 = Tel::new(2, 3);
        pass(&mut p0, &mut p1, 1);
        pass(&mut p1, &mut p2, 1);
        let dets = p2.determinants_for(1);
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].receiver, 1);
    }

    #[test]
    fn corrupt_piggyback_is_an_error() {
        let mut p = Tel::new(0, 2);
        assert!(matches!(
            p.on_deliver(1, 1, &[0x09]),
            Err(ProtocolError::Corrupt(_))
        ));
    }

    #[test]
    fn wants_event_logger() {
        assert!(Tel::new(0, 2).kind().uses_event_logger());
    }
}
