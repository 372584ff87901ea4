use lclog_wire::impl_wire_struct;
use std::fmt;

/// Identifier of a process (0-based, dense). Re-exported by the
/// runtime so all layers agree.
pub type Rank = usize;

/// Which dependency-tracking protocol to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// The paper's lightweight dependent-interval protocol.
    Tdi,
    /// Antecedence-graph baseline (Manetho / LogOn style).
    Tag,
    /// Event-logger baseline (Bouteiller style).
    Tel,
    /// Extension: f-bounded causal tracking (Alvisi / Bhatia–Marzullo
    /// style, \[8\]), tolerating at most `f` simultaneous failures.
    TagF(u32),
    /// Extension: pessimistic (synchronous) logging — zero piggyback,
    /// logger round-trip on every delivery's critical path.
    Pessim,
    /// Extension: TDI over sparse per-channel delta frames (only the
    /// vector entries changed since the last frame on the channel,
    /// with a FULL resync frame forced every `k` deltas). Same
    /// protocol state and gate as [`ProtocolKind::Tdi`]; O(changes)
    /// wire bytes instead of O(n).
    TdiSparse(u32),
}

impl ProtocolKind {
    /// Short family name ("TDI", "TAG", "TEL", "TAG-f", "PES").
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Tdi => "TDI",
            ProtocolKind::Tag => "TAG",
            ProtocolKind::Tel => "TEL",
            ProtocolKind::TagF(_) => "TAG-f",
            ProtocolKind::Pessim => "PES",
            ProtocolKind::TdiSparse(_) => "TDI-S",
        }
    }

    /// The paper's three protocols, in its figures' order (the two
    /// extension baselines are excluded from figure reproduction).
    pub const ALL: [ProtocolKind; 3] = [ProtocolKind::Tdi, ProtocolKind::Tag, ProtocolKind::Tel];

    /// Whether the runtime must provision the stable event-logger
    /// service for this protocol.
    pub fn uses_event_logger(self) -> bool {
        matches!(self, ProtocolKind::Tel | ProtocolKind::Pessim)
    }

    /// Every implemented protocol (figure trio + extensions with a
    /// representative f and a small sparse resync interval).
    pub const EXTENDED: [ProtocolKind; 6] = [
        ProtocolKind::Tdi,
        ProtocolKind::Tag,
        ProtocolKind::Tel,
        ProtocolKind::TagF(1),
        ProtocolKind::Pessim,
        ProtocolKind::TdiSparse(4),
    ];
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolKind::TagF(bound) => write!(f, "TAG-f{bound}"),
            ProtocolKind::TdiSparse(k) => write!(f, "TDI-S{k}"),
            other => f.write_str(other.name()),
        }
    }
}

/// The metadata of one non-deterministic delivery event under the PWD
/// model — "the unique identifier of a message, including the sender
/// identifier and the sending order number, as well as the receiver
/// identifier and the delivery order number" (§II.A). Four
/// identifiers; the unit of Fig. 6's piggyback accounting for TAG and
/// TEL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Determinant {
    /// Rank that sent the message.
    pub sender: u32,
    /// Per-(sender → receiver) send order number, starting at 1.
    pub send_index: u64,
    /// Rank that delivered the message.
    pub receiver: u32,
    /// Position in the receiver's total delivery sequence, starting
    /// at 1.
    pub deliver_index: u64,
}

impl_wire_struct!(Determinant {
    sender,
    send_index,
    receiver,
    deliver_index
});

impl Determinant {
    /// Number of identifiers a determinant contributes to piggyback
    /// accounting (paper §III.A: "the size of the metadata of a
    /// message is 4").
    pub const ID_COUNT: u64 = 4;

    /// The key that makes a determinant unique: a receiver delivers
    /// exactly one message at each position of its delivery sequence.
    pub fn key(&self) -> (u32, u64) {
        (self.receiver, self.deliver_index)
    }
}

/// Errors surfaced by protocol implementations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A piggyback or checkpoint blob failed to decode.
    Corrupt(&'static str),
    /// `on_deliver` was called for a message the protocol's gate had
    /// not approved (caller bug).
    NotDeliverable {
        /// Sending rank of the rejected message.
        src: Rank,
        /// Its per-pair send index.
        send_index: u64,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Corrupt(what) => write!(f, "corrupt protocol data: {what}"),
            ProtocolError::NotDeliverable { src, send_index } => write!(
                f,
                "message (src {src}, send_index {send_index}) delivered without passing the gate"
            ),
        }
    }
}

impl std::error::Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;
    use lclog_wire::{decode_from_slice, encode_to_vec};

    #[test]
    fn determinant_roundtrip() {
        let d = Determinant {
            sender: 3,
            send_index: 17,
            receiver: 1,
            deliver_index: 42,
        };
        let back: Determinant = decode_from_slice(&encode_to_vec(&d)).unwrap();
        assert_eq!(back, d);
        assert_eq!(d.key(), (1, 42));
    }

    #[test]
    fn protocol_kind_names() {
        assert_eq!(ProtocolKind::Tdi.to_string(), "TDI");
        assert_eq!(ProtocolKind::Tag.to_string(), "TAG");
        assert_eq!(ProtocolKind::Tel.to_string(), "TEL");
        assert_eq!(ProtocolKind::TagF(2).to_string(), "TAG-f2");
        assert_eq!(ProtocolKind::TagF(2).name(), "TAG-f");
        assert_eq!(ProtocolKind::Pessim.to_string(), "PES");
        assert_eq!(ProtocolKind::TdiSparse(32).to_string(), "TDI-S32");
        assert_eq!(ProtocolKind::TdiSparse(32).name(), "TDI-S");
        assert!(!ProtocolKind::TdiSparse(32).uses_event_logger());
        assert_eq!(ProtocolKind::ALL.len(), 3);
        assert_eq!(ProtocolKind::EXTENDED.len(), 6);
    }
}
