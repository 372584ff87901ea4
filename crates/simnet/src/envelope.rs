use crate::Rank;
use bytes::Bytes;

/// A message in flight on the fabric.
///
/// `seq` is a fabric-level sequence number unique per `(src, dst)`
/// pair and monotonically increasing in send order; the delay models
/// hash it into jitter, and tests use it to assert the FIFO guarantee.
/// Protocol-level indices (send_index etc.) live inside `payload` and
/// are independent of it. The payload is one refcounted buffer: a
/// resend hands the fabric the very bytes the sender log holds.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending rank.
    pub src: Rank,
    /// Destination rank.
    pub dst: Rank,
    /// Per `(src, dst)` fabric sequence number, starting at 1.
    pub seq: u64,
    /// The frame.
    pub payload: Bytes,
}

impl Envelope {
    /// Frame size in bytes (what the delay model charges for).
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True when the frame is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}
