use crate::Rank;
use bytes::Bytes;

/// A message in flight on the fabric.
///
/// `seq` is a fabric-level sequence number unique per `(src, dst)`
/// pair and monotonically increasing in send order; the delay models
/// hash it into jitter and chaos fates, and tests use it to assert the
/// FIFO guarantee. Protocol-level indices
/// (send_index etc.) live inside `payload` and are independent of it.
/// The logical frame is the concatenation `payload ++ body`. Most
/// envelopes carry a single contiguous buffer (`body` empty); the
/// zero-copy resend path sends a small fresh header in `payload` and a
/// refcounted window into an existing allocation (sender log entry) in
/// `body`, avoiding any payload copy. The fabric treats the pair as
/// one unit: chaos corruption picks a bit across both segments and the
/// delay model charges for their combined size.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending rank.
    pub src: Rank,
    /// Destination rank.
    pub dst: Rank,
    /// Per `(src, dst)` fabric sequence number, starting at 1.
    pub seq: u64,
    /// First (or only) segment of the frame.
    pub payload: Bytes,
    /// Optional second segment (zero-copy tail); empty for
    /// single-buffer frames.
    pub body: Bytes,
}

impl Envelope {
    /// Total frame size in bytes across both segments (what the delay
    /// model charges for).
    pub fn len(&self) -> usize {
        self.payload.len() + self.body.len()
    }

    /// True when the frame is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty() && self.body.is_empty()
    }

    /// The frame as one contiguous buffer. Zero-copy when `body` is
    /// empty; otherwise the segments are joined into a fresh
    /// allocation (diagnostic/test use — the hot path reads segments
    /// in place).
    pub fn contiguous(&self) -> Bytes {
        if self.body.is_empty() {
            self.payload.clone()
        } else {
            let mut joined = Vec::with_capacity(self.len());
            joined.extend_from_slice(&self.payload);
            joined.extend_from_slice(&self.body);
            Bytes::from(joined)
        }
    }
}
