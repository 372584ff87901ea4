//! Round-trip property test for every [`WireMsg`] variant, plus the
//! zero-copy guarantee the data plane is built on: decoding from a
//! refcounted frame must hand back `Bytes` fields that *alias* the
//! frame allocation (windows, not copies).
//!
//! The generator is a seeded splitmix64 — fully deterministic, so CI
//! never sees a flaky shrink and any failure reproduces from its seed.

use bytes::{Bytes, BytesMut};
use lclog_core::Determinant;
use lclog_runtime::{AppWire, CkptAdvanceWire, ResponseWire, RollbackWire, WireMsg};
use lclog_wire::{decode_from_bytes, encode_into, encode_to_bytes};

/// splitmix64 (Steele et al.): tiny, seedable, and good enough to
/// exercise varint length boundaries.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// Byte vector of `min..min + spread` bytes — spanning the
    /// 1-byte/2-byte varint length edge when `spread` allows.
    fn blob(&mut self, min: u64, spread: u64) -> Vec<u8> {
        let len = (min + self.below(spread)) as usize;
        (0..len).map(|_| self.next() as u8).collect()
    }

    fn det(&mut self) -> Determinant {
        Determinant {
            sender: self.below(64) as u32,
            send_index: self.next(),
            receiver: self.below(64) as u32,
            deliver_index: self.next(),
        }
    }

    fn msg(&mut self, variant: usize) -> WireMsg {
        match variant {
            0 => WireMsg::App(AppWire {
                tag: self.next() as u32,
                send_index: self.next(),
                // Non-empty, so the aliasing assertion below is
                // meaningful.
                piggyback: Bytes::from(self.blob(1, 200)),
                needs_ack: self.below(2) == 1,
                data: Bytes::from(self.blob(1, 300)),
            }),
            1 => WireMsg::Ack(self.next()),
            2 => WireMsg::Rollback(RollbackWire {
                delivered_from_you: self.next(),
                epoch: self.next(),
            }),
            3 => WireMsg::Response(ResponseWire {
                delivered_from_you: self.next(),
                dets: (0..self.below(5)).map(|_| self.det()).collect(),
                epoch: self.next(),
            }),
            4 => WireMsg::CkptAdvance(CkptAdvanceWire {
                delivered_from_you: self.next(),
                total_delivered: self.next(),
            }),
            5 => WireMsg::LogDets((0..self.below(7)).map(|_| self.det()).collect()),
            6 => WireMsg::LogAck(self.next()),
            7 => WireMsg::LogQuery(self.below(64) as u32),
            8 => WireMsg::LogQueryResp((0..self.below(4)).map(|_| self.det()).collect()),
            _ => unreachable!(),
        }
    }
}

const VARIANTS: usize = 9;

#[test]
fn roundtrip_all_variants_and_decoded_bytes_alias_the_frame() {
    let mut rng = Rng(0x5EED_0DA7);
    for round in 0..VARIANTS * 25 {
        let variant = round % VARIANTS;
        let msg = rng.msg(variant);
        let frame = encode_to_bytes(&msg);
        let back: WireMsg = decode_from_bytes(&frame)
            .unwrap_or_else(|e| panic!("round {round}: decode failed: {e:?}"));
        assert_eq!(back, msg, "round {round} (variant {variant})");
        if let WireMsg::App(w) = &back {
            assert!(
                w.piggyback.shares_allocation(&frame),
                "round {round}: piggyback must be a window into the frame"
            );
            assert!(
                w.data.shares_allocation(&frame),
                "round {round}: payload must be a window into the frame"
            );
        }
    }
}

#[test]
fn truncated_frames_error_instead_of_panicking() {
    let mut rng = Rng(0x7A11_5EED);
    for variant in 0..VARIANTS {
        let msg = rng.msg(variant);
        let frame = encode_to_bytes(&msg);
        for cut in 0..frame.len() {
            let truncated = frame.slice(..cut);
            assert!(
                decode_from_bytes::<WireMsg>(&truncated).is_err(),
                "variant {variant}: prefix of {cut}/{} bytes must not decode",
                frame.len()
            );
        }
    }
}

#[test]
fn encode_into_reused_buffer_matches_one_shot_encoding() {
    // The transport's framing path appends into a reused `BytesMut`
    // after a header; the appended bytes must be identical to the
    // one-shot encoding regardless of what precedes them.
    let mut rng = Rng(0xB0B5_1ED5);
    let mut buf = BytesMut::with_capacity(64);
    for round in 0..VARIANTS * 8 {
        let msg = rng.msg(round % VARIANTS);
        buf.clear();
        buf.put_u8(0xAA); // stand-in frame header
        encode_into(&msg, &mut buf);
        assert_eq!(buf[0], 0xAA, "round {round}");
        assert_eq!(&buf[1..], &encode_to_bytes(&msg)[..], "round {round}");
    }
}
