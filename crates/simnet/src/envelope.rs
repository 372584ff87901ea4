use crate::Rank;
use bytes::Bytes;

/// A message in flight on the fabric.
///
/// `seq` is a fabric-level sequence number unique per `(src, dst)`
/// pair and monotonically increasing in send order; the delay models
/// hash it into jitter, and tests use it to assert the FIFO guarantee.
/// Protocol-level indices (send_index etc.) live inside the frame and
/// are independent of it.
///
/// The frame is `head ++ body`, two refcounted segments. A sender that
/// shares a buffer it already holds — an application payload — passes
/// it as `body` and writes only what precedes it into `head`; every
/// other frame is all `head`, with `body` empty. A resend hands the
/// fabric the very segments the sender log holds.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending rank.
    pub src: Rank,
    /// Destination rank.
    pub dst: Rank,
    /// Per `(src, dst)` fabric sequence number, starting at 1.
    pub seq: u64,
    /// The frame's first segment (the whole frame when `body` is
    /// empty).
    pub head: Bytes,
    /// The frame's second segment: the bytes that follow `head`.
    pub body: Bytes,
}

impl Envelope {
    /// Frame size in bytes, both segments (what the delay model
    /// charges for).
    pub fn len(&self) -> usize {
        self.head.len() + self.body.len()
    }

    /// True when the frame is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
