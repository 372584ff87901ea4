use crate::{ProtocolError, Rank};
use lclog_wire::{varint, Decode, Encode, Reader, WireError};
use std::ops::Index;

/// The paper's `depend_interval[n]` vector: element `i` of process
/// `P_i` counts the messages `P_i` has delivered (its current process
/// state interval index); every other element is the highest interval
/// index of that process the owner transitively depends on.
///
/// Merging piggybacked vectors element-wise with `max` makes this a
/// join-semilattice — the property the protocol's correctness rests
/// on, checked by property tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependVector(Vec<u64>);

impl DependVector {
    /// The all-zero vector for an `n`-process system.
    pub fn zeroed(n: usize) -> Self {
        DependVector(vec![0; n])
    }

    /// Build from raw counts.
    pub fn from_vec(v: Vec<u64>) -> Self {
        DependVector(v)
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when tracking zero processes (never in practice).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Increment the owner's own interval index (one more delivery).
    /// A count already at `u64::MAX` (reachable only from a forged
    /// checkpoint image) is `Corrupt` and stays as it was.
    pub fn increment(&mut self, me: Rank) -> Result<(), ProtocolError> {
        self.0[me] = self.0[me]
            .checked_add(1)
            .ok_or(ProtocolError::Corrupt("own delivery count overflows"))?;
        Ok(())
    }

    /// Element-wise max with `other`, skipping the owner's own element
    /// exactly as Algorithm 1 lines 22–24 do (the local count is
    /// authoritative and always ≥ any piggybacked view of it).
    pub fn merge_from(&mut self, other: &DependVector, me: Rank) {
        debug_assert_eq!(self.0.len(), other.0.len());
        for (k, (mine, theirs)) in self.0.iter_mut().zip(other.0.iter()).enumerate() {
            if k != me && *theirs > *mine {
                *mine = *theirs;
            }
        }
    }

    /// Full element-wise join (used by tests for the lattice laws).
    pub fn join(&self, other: &DependVector) -> DependVector {
        DependVector(
            self.0
                .iter()
                .zip(other.0.iter())
                .map(|(a, b)| (*a).max(*b))
                .collect(),
        )
    }

    /// `self[k] <= other[k]` for every `k`.
    pub fn dominated_by(&self, other: &DependVector) -> bool {
        self.0.iter().zip(other.0.iter()).all(|(a, b)| a <= b)
    }

    /// Raw slice access.
    pub fn as_slice(&self) -> &[u64] {
        &self.0
    }
}

impl Index<Rank> for DependVector {
    type Output = u64;
    fn index(&self, rank: Rank) -> &u64 {
        &self.0[rank]
    }
}

impl Encode for DependVector {
    fn encode(&self, buf: &mut Vec<u8>) {
        // Encoded as `n` varints with no length prefix: every party
        // knows `n`, and Fig. 6 counts exactly n identifiers.
        varint::write_run(buf, &self.0);
    }
    fn encoded_len(&self) -> usize {
        self.0.iter().map(|v| varint::len_u64(*v)).sum()
    }
}

impl DependVector {
    /// Element `k` of an encoded `n`-vector, read in place: the whole
    /// encoding is checked (exactly `n` varints, nothing after them)
    /// and nothing is materialised.
    pub(crate) fn encoded_entry(bytes: &[u8], n: usize, k: Rank) -> Result<u64, WireError> {
        let mut reader = Reader::new(bytes);
        let mut entry = 0;
        varint::read_run(&mut reader, n, |i, v| {
            if i == k {
                entry = v;
            }
        })?;
        reader.finish()?;
        Ok(entry)
    }

    /// [`DependVector::merge_from`] with the other vector still
    /// encoded, straight from its bytes in one pass. It merges as it
    /// reads, so an encoding that fails part-way leaves the elements
    /// before the failure merged: check the bytes with
    /// [`DependVector::encoded_entry`] first.
    pub(crate) fn merge_encoded(&mut self, bytes: &[u8], me: Rank) -> Result<(), WireError> {
        let mut reader = Reader::new(bytes);
        let mine = &mut self.0;
        varint::read_run(&mut reader, mine.len(), |k, theirs| {
            if k != me && theirs > mine[k] {
                mine[k] = theirs;
            }
        })?;
        reader.finish()
    }
}

/// A per-peer counter vector: the paper's `last_send_index[n]` /
/// `last_deliver_index[n]` (and friends). Element `j` counts events
/// involving peer `j`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CounterVector(Vec<u64>);

impl CounterVector {
    /// All-zero counters for an `n`-process system.
    pub fn zeroed(n: usize) -> Self {
        CounterVector(vec![0; n])
    }

    /// Build from raw counts.
    pub fn from_vec(v: Vec<u64>) -> Self {
        CounterVector(v)
    }

    /// Number of peers tracked.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Current count for peer `j`.
    pub fn get(&self, j: Rank) -> u64 {
        self.0[j]
    }

    /// Set the count for peer `j`.
    pub fn set(&mut self, j: Rank, value: u64) {
        self.0[j] = value;
    }

    /// Increment and return the new count for peer `j`.
    pub fn bump(&mut self, j: Rank) -> u64 {
        self.0[j] += 1;
        self.0[j]
    }

    /// Sum of all counters (e.g. total messages delivered).
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Raw slice access.
    pub fn as_slice(&self) -> &[u64] {
        &self.0
    }
}

impl Index<Rank> for CounterVector {
    type Output = u64;
    fn index(&self, rank: Rank) -> &u64 {
        &self.0[rank]
    }
}

/// Append `counts` as a checkpoint image stores a per-peer vector: a
/// varint length, then the counts as back-to-back varints, so a peer
/// never heard from costs one byte, not eight.
pub(crate) fn write_counts(buf: &mut Vec<u8>, counts: &[u64]) {
    varint::write_u64(buf, counts.len() as u64);
    varint::write_run(buf, counts);
}

/// Bytes [`write_counts`] appends for `counts`.
pub(crate) fn counts_len(counts: &[u64]) -> usize {
    varint::len_u64(counts.len() as u64) + varint::run_len(counts)
}

/// Read what [`write_counts`] wrote. A declared length the rest of the
/// input cannot hold — every count takes at least one byte — is
/// refused before anything is allocated.
pub(crate) fn read_counts(reader: &mut Reader<'_>) -> Result<Vec<u64>, WireError> {
    let declared = varint::read_u64(reader)?;
    let len = usize::try_from(declared)
        .ok()
        .filter(|&len| len <= reader.remaining())
        .ok_or(WireError::LengthOverflow { declared })?;
    let mut counts = vec![0; len];
    varint::read_run(reader, len, |k, v| counts[k] = v)?;
    Ok(counts)
}

impl Encode for CounterVector {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_counts(buf, &self.0);
    }
    fn encoded_len(&self) -> usize {
        counts_len(&self.0)
    }
}

impl Decode for CounterVector {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        read_counts(reader).map(CounterVector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lclog_wire::encode_to_vec;
    use proptest::prelude::*;

    #[test]
    fn increment_and_merge_follow_algorithm_1() {
        // Fig. 1 worked example from §III.B: before P1 delivers m5 its
        // vector is (0,2,1,0); m5 carries (0,2,2,1); after delivery it
        // must be (0,3,2,1)... the paper says (0,2,2,1) *before* the
        // increment for m5 itself is applied to element 1; our
        // on_deliver applies increment-then-merge, so check both
        // pieces separately here.
        let mut mine = DependVector::from_vec(vec![0, 2, 1, 0]);
        let piggy = DependVector::from_vec(vec![0, 2, 2, 1]);
        mine.merge_from(&piggy, 1);
        assert_eq!(mine.as_slice(), &[0, 2, 2, 1]);
        mine.increment(1).unwrap();
        assert_eq!(mine.as_slice(), &[0, 3, 2, 1]);
    }

    #[test]
    fn merge_skips_own_element() {
        let mut mine = DependVector::from_vec(vec![5, 0]);
        let piggy = DependVector::from_vec(vec![9, 9]);
        mine.merge_from(&piggy, 0);
        assert_eq!(mine.as_slice(), &[5, 9]);
    }

    #[test]
    fn depend_vector_fixed_width_roundtrip() {
        let v = DependVector::from_vec(vec![0, 300, u64::MAX, 7]);
        let bytes = encode_to_vec(&v);
        for k in 0..4 {
            assert_eq!(DependVector::encoded_entry(&bytes, 4, k), Ok(v[k]));
        }
        // Element 1 is the owner's: its 300 is not merged.
        let mut mine = DependVector::from_vec(vec![1, 1, 1, 9]);
        mine.merge_encoded(&bytes, 1).unwrap();
        assert_eq!(mine.as_slice(), &[1, 1, u64::MAX, 9]);
        assert!(
            DependVector::encoded_entry(&bytes, 3, 0).is_err(),
            "trailing bytes"
        );
        assert!(
            DependVector::encoded_entry(&bytes, 5, 0).is_err(),
            "short input"
        );
    }

    #[test]
    fn counter_vector_ops() {
        let mut c = CounterVector::zeroed(3);
        assert_eq!(c.bump(1), 1);
        assert_eq!(c.bump(1), 2);
        c.set(2, 7);
        assert_eq!(c.get(0), 0);
        assert_eq!(c[1], 2);
        assert_eq!(c.total(), 9);
        let bytes = encode_to_vec(&c);
        let back: CounterVector = lclog_wire::decode_from_slice(&bytes).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn counter_vector_is_a_length_then_a_varint_run() {
        let c = CounterVector::from_vec(vec![0, 300, 7, u64::MAX]);
        let mut expect = vec![4, 0, 0xAC, 0x02, 7];
        expect.extend_from_slice(&[0xFF; 9]);
        expect.push(0x01);
        assert_eq!(encode_to_vec(&c), expect);
        assert_eq!(c.encoded_len(), expect.len());
        let decode = lclog_wire::decode_from_slice::<CounterVector>;
        assert_eq!(decode(&expect), Ok(c));
        // A length the input cannot hold, an overlong varint, a run
        // shorter than declared: typed errors, never a panic.
        assert_eq!(
            decode(&[0xFF, 0xFF, 0xFF, 0x7F, 1, 2]),
            Err(WireError::LengthOverflow {
                declared: 0x0FFF_FFFF
            })
        );
        assert_eq!(
            decode(&[1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80]),
            Err(WireError::VarintOverflow)
        );
        assert!(decode(&[3, 1, 2]).is_err());
        assert!(decode(&[2, 1, 2, 3]).is_err(), "trailing bytes");
    }

    fn arb_vec(n: usize) -> impl Strategy<Value = DependVector> {
        proptest::collection::vec(0u64..1000, n).prop_map(DependVector::from_vec)
    }

    proptest! {
        // The join-semilattice laws TDI's correctness relies on.
        #[test]
        fn prop_join_commutative(a in arb_vec(6), b in arb_vec(6)) {
            prop_assert_eq!(a.join(&b), b.join(&a));
        }

        #[test]
        fn prop_join_associative(a in arb_vec(4), b in arb_vec(4), c in arb_vec(4)) {
            prop_assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
        }

        #[test]
        fn prop_join_idempotent(a in arb_vec(5)) {
            prop_assert_eq!(a.join(&a), a);
        }

        #[test]
        fn prop_join_is_upper_bound(a in arb_vec(5), b in arb_vec(5)) {
            let j = a.join(&b);
            prop_assert!(a.dominated_by(&j));
            prop_assert!(b.dominated_by(&j));
        }

        #[test]
        fn prop_merge_from_matches_join_except_own(
            a in arb_vec(5), b in arb_vec(5), me in 0usize..5)
        {
            let mut merged = a.clone();
            merged.merge_from(&b, me);
            let join = a.join(&b);
            for k in 0..5 {
                if k == me {
                    prop_assert_eq!(merged[k], a[k]);
                } else {
                    prop_assert_eq!(merged[k], join[k]);
                }
            }
        }

        #[test]
        fn prop_monotone_merge_never_decreases(a in arb_vec(5), b in arb_vec(5)) {
            let mut merged = a.clone();
            merged.merge_from(&b, 2);
            prop_assert!(a.dominated_by(&merged));
        }
    }
}
