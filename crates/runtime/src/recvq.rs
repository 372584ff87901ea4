//! The receiving queue (queue "B" of Fig. 4b): messages that have
//! arrived but have not yet been delivered to the application.
//!
//! A message waits here when (a) the application has not posted a
//! matching receive, (b) its per-sender FIFO predecessor has not been
//! delivered, or (c) the protocol's dependency gate says
//! [`DeliveryVerdict::Wait`] — during recovery, logged messages can
//! arrive in any order (§III.E) and this queue is where they sit until
//! deliverable.
//!
//! Layout: one FIFO lane per sender, each entry carrying a globally
//! monotone arrival stamp. Dedup (`contains`) and pruning
//! (`drop_repetitive`) touch only the one lane they concern instead of
//! rescanning every queued message, and matched extraction compares at
//! most one candidate per lane instead of gate-probing the whole
//! arrival sequence. The stamp total-orders candidates across lanes,
//! so extraction still returns the globally first match in arrival
//! order — the lane split changes cost, not semantics. The per-lane
//! candidate view is also what the schedule explorer permutes: every
//! lane whose head candidate passes the gate is a legal next delivery
//! ([`RecvQueue::eligible_sources`]).
//!
//! Arrival stamps are assigned at admission, one envelope at a time
//! in the order the engine drained them from the fabric: per sender
//! that is transport order, and the cross-lane total order is whatever
//! interleaving the drain observed — exactly the order-insensitivity
//! the explorer already checks.
//!
//! [`DeliveryVerdict::Wait`]: lclog_core::DeliveryVerdict

use crate::message::{AppWire, RecvSpec};
use lclog_core::Rank;
use std::collections::VecDeque;

/// A queued, not-yet-delivered application message.
#[derive(Debug, Clone)]
pub struct Pending {
    /// Sending rank.
    pub src: Rank,
    /// Wire contents (tag, send_index, piggyback, payload).
    pub wire: AppWire,
}

#[derive(Debug, Clone)]
struct Stamped {
    /// Global arrival order across all lanes (monotone, never reused).
    arrival: u64,
    wire: AppWire,
}

/// One sender's arrivals, in arrival order.
#[derive(Debug, Default, Clone)]
struct Lane {
    entries: VecDeque<Stamped>,
    /// Highest `send_index` ever pushed into this lane — an upper
    /// bound on every queued entry. Lets [`RecvQueue::contains`]
    /// reject above-bound probes without scanning, which is the
    /// steady-state case: per-sender FIFO transport means every fresh
    /// arrival carries a new high index, so admitting a B-message
    /// backlog dedups in O(B) instead of O(B²). Below-bound probes
    /// (recovery resends reusing pre-crash indices) fall back to the
    /// lane scan.
    ceil: u64,
}

/// FIFO-arrival buffer with matched extraction, laned per sender.
#[derive(Debug, Default, Clone)]
pub struct RecvQueue {
    /// `lanes[src]` holds that sender's arrivals in order. Lanes are
    /// grown on demand so the queue needs no up-front rank count.
    lanes: Vec<Lane>,
    /// Next arrival stamp to hand out.
    next_arrival: u64,
    /// Total queued messages across all lanes.
    len: usize,
}

impl RecvQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty queue with lanes pre-allocated for `ranks` senders.
    pub fn with_ranks(ranks: usize) -> Self {
        Self {
            lanes: (0..ranks).map(|_| Lane::default()).collect(),
            next_arrival: 0,
            len: 0,
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    #[allow(dead_code)] // keeps the len/is_empty pair complete
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is a message with this identity already queued? (Duplicate
    /// resends during recovery are dropped at ingestion.) Scans only
    /// the sender's own lane.
    pub fn contains(&self, src: Rank, send_index: u64) -> bool {
        self.lanes.get(src).is_some_and(|lane| {
            send_index <= lane.ceil
                && lane.entries.iter().any(|s| s.wire.send_index == send_index)
        })
    }

    /// Append an arrival.
    pub fn push(&mut self, pending: Pending) {
        if pending.src >= self.lanes.len() {
            self.lanes.resize_with(pending.src + 1, Lane::default);
        }
        let arrival = self.next_arrival;
        self.next_arrival += 1;
        let lane = &mut self.lanes[pending.src];
        lane.ceil = lane.ceil.max(pending.wire.send_index);
        lane.entries.push_back(Stamped {
            arrival,
            wire: pending.wire,
        });
        self.len += 1;
    }

    /// Position of the first entry in `src`'s lane that matches `spec`
    /// and passes `gate`, if any.
    fn lane_candidate(
        &self,
        src: Rank,
        spec: RecvSpec,
        gate: &mut impl FnMut(Rank, u64, &[u8]) -> bool,
    ) -> Option<usize> {
        let entries = &self.lanes[src].entries;
        // At large n nearly every lane is empty and a deliver is this
        // scan; the explicit test keeps an empty lane to one compare
        // however the closure chain below happens to be inlined.
        if entries.is_empty() {
            return None;
        }
        entries.iter().position(|s| {
            spec.matches(src, s.wire.tag) && gate(src, s.wire.send_index, &s.wire.piggyback)
        })
    }

    /// Lanes this spec can draw from: all of them for an `ANY_SOURCE`
    /// receive, exactly one otherwise.
    fn lane_range(&self, spec: RecvSpec) -> std::ops::Range<Rank> {
        match spec.source {
            Some(src) if src < self.lanes.len() => src..src + 1,
            Some(_) => 0..0,
            None => 0..self.lanes.len(),
        }
    }

    /// Remove and return the first message (in global arrival order)
    /// that matches `spec` *and* satisfies `gate`. `gate` receives
    /// `(src, send_index, piggyback)` and implements the FIFO +
    /// protocol delivery conditions; it must be a pure predicate of
    /// the current queue state (it may be probed in any lane order).
    pub fn take_first_matching(
        &mut self,
        spec: RecvSpec,
        mut gate: impl FnMut(Rank, u64, &[u8]) -> bool,
    ) -> Option<Pending> {
        let mut best: Option<(u64, Rank, usize)> = None;
        for src in self.lane_range(spec) {
            if let Some(pos) = self.lane_candidate(src, spec, &mut gate) {
                let arrival = self.lanes[src].entries[pos].arrival;
                if best.is_none_or(|(a, _, _)| arrival < a) {
                    best = Some((arrival, src, pos));
                }
            }
        }
        let (_, src, pos) = best?;
        let stamped = self.lanes[src].entries.remove(pos).expect("candidate position");
        self.len -= 1;
        Some(Pending {
            src,
            wire: stamped.wire,
        })
    }

    /// Remove the message with this exact identity, wherever it sits
    /// in its lane. Returns `None` if it is not queued.
    pub fn take_exact(&mut self, src: Rank, send_index: u64) -> Option<Pending> {
        let lane = self.lanes.get_mut(src)?;
        let pos = lane
            .entries
            .iter()
            .position(|s| s.wire.send_index == send_index)?;
        let stamped = lane.entries.remove(pos).expect("candidate position");
        self.len -= 1;
        Some(Pending {
            src,
            wire: stamped.wire,
        })
    }

    /// Senders that could legally satisfy `spec` right now, ordered by
    /// the arrival stamp of each lane's first passing candidate (so
    /// index 0 is what [`take_first_matching`] would pick). Every
    /// element is a *legal* alternative next delivery — this is the
    /// schedule explorer's choice-point set.
    ///
    /// [`take_first_matching`]: RecvQueue::take_first_matching
    pub fn eligible_sources(
        &self,
        spec: RecvSpec,
        mut gate: impl FnMut(Rank, u64, &[u8]) -> bool,
    ) -> Vec<Rank> {
        let mut found: Vec<(u64, Rank)> = Vec::new();
        for src in self.lane_range(spec) {
            if let Some(pos) = self.lane_candidate(src, spec, &mut gate) {
                found.push((self.lanes[src].entries[pos].arrival, src));
            }
        }
        found.sort_unstable();
        found.into_iter().map(|(_, src)| src).collect()
    }

    /// Compact view for diagnostics: `(src, send_index, tag)` per
    /// queued message, in global arrival order.
    pub fn summary(&self) -> Vec<(Rank, u64, u32)> {
        let mut rows: Vec<(u64, Rank, u64, u32)> = self
            .lanes
            .iter()
            .enumerate()
            .flat_map(|(src, lane)| {
                lane.entries
                    .iter()
                    .map(move |s| (s.arrival, src, s.wire.send_index, s.wire.tag))
            })
            .collect();
        rows.sort_unstable();
        rows.into_iter()
            .map(|(_, src, idx, tag)| (src, idx, tag))
            .collect()
    }

    /// Drop queued messages from `src` whose `send_index` is already
    /// covered by the receiver's delivery counter (repetitive messages
    /// that slipped in before the counter advanced). Touches only the
    /// front of that sender's lane: O(dropped), normally zero.
    ///
    /// Front-only is sufficient because covered entries cannot hide
    /// mid-lane — admission rejects indices at or below the counter
    /// (`Admit::Repetitive`), `contains` dedup keeps at most one copy
    /// per identity queued, and the counter only passes an index by
    /// delivering that sole copy (which extraction removes). The
    /// predecessor of this method ran a full-lane `retain` on every
    /// delivery, which made draining a B-message backlog O(B²) — the
    /// HP1 contended cell's 200k-send backlog took minutes to drain;
    /// see `drains_large_backlog_in_linear_time`.
    pub fn drop_repetitive(&mut self, src: Rank, upto: u64) {
        let Some(lane) = self.lanes.get_mut(src) else {
            return;
        };
        while lane
            .entries
            .front()
            .is_some_and(|s| s.wire.send_index <= upto)
        {
            lane.entries.pop_front();
            self.len -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn pending(src: Rank, tag: u32, send_index: u64) -> Pending {
        Pending {
            src,
            wire: AppWire {
                tag,
                send_index,
                piggyback: Bytes::new(),
                needs_ack: false,
                data: Bytes::new(),
            },
        }
    }

    #[test]
    fn takes_in_arrival_order() {
        let mut q = RecvQueue::new();
        q.push(pending(0, 1, 1));
        q.push(pending(1, 1, 1));
        let taken = q.take_first_matching(RecvSpec::any(), |_, _, _| true).unwrap();
        assert_eq!(taken.src, 0);
        let taken = q.take_first_matching(RecvSpec::any(), |_, _, _| true).unwrap();
        assert_eq!(taken.src, 1);
        assert!(q.is_empty());
    }

    #[test]
    fn spec_filters_and_gate_blocks() {
        let mut q = RecvQueue::new();
        q.push(pending(0, 1, 2)); // FIFO gap: index 1 not delivered
        q.push(pending(2, 1, 1));
        // Gate admits only contiguous indices starting at 1.
        let gate = |_src: Rank, idx: u64, _pb: &[u8]| idx == 1;
        let taken = q.take_first_matching(RecvSpec::any_source(1), gate).unwrap();
        assert_eq!(taken.src, 2);
        // The gapped message stays queued.
        assert_eq!(q.len(), 1);
        assert!(q.contains(0, 2));
    }

    #[test]
    fn source_specific_spec_skips_other_senders() {
        let mut q = RecvQueue::new();
        q.push(pending(0, 7, 1));
        q.push(pending(1, 7, 1));
        let taken = q
            .take_first_matching(RecvSpec::from(1, 7), |_, _, _| true)
            .unwrap();
        assert_eq!(taken.src, 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drop_repetitive_prunes_stale_entries() {
        let mut q = RecvQueue::new();
        q.push(pending(0, 1, 1));
        q.push(pending(0, 1, 2));
        q.push(pending(1, 1, 1));
        q.drop_repetitive(0, 1);
        assert_eq!(q.len(), 2);
        assert!(!q.contains(0, 1));
        assert!(q.contains(0, 2));
        assert!(q.contains(1, 1));
    }

    #[test]
    fn drains_large_backlog_in_linear_time() {
        // The batched data plane can admit a whole send backlog in one
        // ingest round, then deliver it in one drain loop. Both halves
        // must be O(backlog): `contains` short-circuits on the lane
        // ceiling for every fresh (new-high-index) arrival, and
        // `drop_repetitive` pops only covered front entries. The old
        // full-lane scans made this O(B²) — at this B the test (and
        // HP1's full-mode drain) ran for minutes instead of
        // milliseconds.
        const B: u64 = 100_000;
        let mut q = RecvQueue::with_ranks(2);
        for idx in 1..=B {
            assert!(!q.contains(0, idx));
            q.push(pending(0, 1, idx));
        }
        assert_eq!(q.len(), B as usize);
        let mut counter = 0u64;
        while let Some(p) =
            q.take_first_matching(RecvSpec::any(), |_, idx, _| idx == counter + 1)
        {
            counter = p.wire.send_index;
            q.drop_repetitive(0, counter);
        }
        assert_eq!(counter, B);
        assert!(q.is_empty());
    }

    #[test]
    fn no_match_returns_none_and_keeps_queue() {
        let mut q = RecvQueue::new();
        q.push(pending(0, 1, 1));
        assert!(q
            .take_first_matching(RecvSpec::any_source(9), |_, _, _| true)
            .is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn eligible_sources_lists_lanes_in_arrival_order() {
        let mut q = RecvQueue::with_ranks(4);
        q.push(pending(2, 1, 1));
        q.push(pending(0, 1, 2)); // FIFO-blocked
        q.push(pending(1, 1, 1));
        q.push(pending(2, 1, 2)); // behind 2's candidate
        let gate = |_src: Rank, idx: u64, _pb: &[u8]| idx == 1;
        assert_eq!(q.eligible_sources(RecvSpec::any(), gate), vec![2, 1]);
        // A sourced spec narrows to one lane.
        assert_eq!(q.eligible_sources(RecvSpec::from(1, 1), gate), vec![1]);
        assert!(q
            .eligible_sources(RecvSpec::from(0, 1), gate)
            .is_empty());
        // Whatever eligible_sources ranks first is what extraction takes.
        let taken = q.take_first_matching(RecvSpec::any(), gate).unwrap();
        assert_eq!(taken.src, 2);
    }

    #[test]
    fn tag_mismatch_ahead_of_candidate_does_not_hide_it() {
        let mut q = RecvQueue::new();
        // Lane 0: a tag-5 message first, then a tag-1 message. A
        // receive for tag 1 must see past the non-matching head.
        q.push(pending(0, 5, 1));
        q.push(pending(0, 1, 2));
        let gate = |_src: Rank, _idx: u64, _pb: &[u8]| true;
        assert_eq!(q.eligible_sources(RecvSpec::any_source(1), gate), vec![0]);
        let taken = q.take_first_matching(RecvSpec::any_source(1), gate).unwrap();
        assert_eq!(taken.wire.tag, 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn take_exact_reaches_mid_lane_entries() {
        let mut q = RecvQueue::new();
        q.push(pending(0, 5, 1));
        q.push(pending(0, 1, 2));
        q.push(pending(0, 1, 3));
        let taken = q.take_exact(0, 2).unwrap();
        assert_eq!(taken.wire.send_index, 2);
        assert_eq!(q.len(), 2);
        assert!(q.contains(0, 1));
        assert!(q.contains(0, 3));
        assert!(q.take_exact(7, 1).is_none());
    }

    #[test]
    fn global_arrival_order_breaks_cross_lane_ties() {
        let mut q = RecvQueue::new();
        // Interleave arrivals across three lanes; extraction must
        // follow push order exactly, not lane index order.
        for (src, idx) in [(2, 1), (0, 1), (1, 1), (2, 2), (0, 2)] {
            q.push(pending(src, 1, idx));
        }
        let mut order = Vec::new();
        while let Some(p) = q.take_first_matching(RecvSpec::any(), |_, _, _| true) {
            order.push((p.src, p.wire.send_index));
        }
        assert_eq!(order, vec![(2, 1), (0, 1), (1, 1), (2, 2), (0, 2)]);
    }
}
