//! Component floors: the lower layers called on their own, with the
//! workload's message shape (payload size, `n`, protocol), so that a
//! kernel call's cost can be split into what its parts cost standalone
//! and what the kernel adds around them.
//!
//! Calls of tens of nanoseconds cannot be timed one by one; each
//! sample here is one block of [`BLOCK`] back-to-back calls divided by
//! the block length, and the reported figure is the median block.

use crate::rig::World;
use crate::stats::{median, SplitMix64};
use bytes::Bytes;
use lclog_core::make_protocol;
use lclog_runtime::{AppWire, LogEntry, Pending, RecvQueue, SenderLog, WireMsg};
use lclog_simnet::{NetConfig, SimNet};
use lclog_stable::{CheckpointStore, MemStore};
use lclog_wire::{crc32, decode_from_bytes, encode_to_bytes};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Calls timed together as one sample.
const BLOCK: u64 = 64;

/// One floor: calls made, median nanoseconds per call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Floor {
    pub n: u64,
    pub p50_ns: f64,
}

/// The floors in reporting order, named after the repo's modules.
pub const NAMES: [&str; 12] = [
    "core.on_send",
    "core.on_deliver",
    "wire.encode",
    "wire.decode",
    "wire.crc32",
    "simnet.send",
    "log.insert",
    "log.release",
    "recvq.push",
    "recvq.take",
    "stable.save",
    "stable.load",
];

#[derive(Default)]
struct Samples {
    calls: u64,
    per_call_ns: Vec<f64>,
}

impl Samples {
    fn time<R>(&mut self, units: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let ns = start.elapsed().as_nanos() as f64;
        self.calls += units;
        self.per_call_ns.push(ns / units as f64);
        r
    }

    fn floor(&self) -> Floor {
        Floor {
            n: self.calls,
            p50_ns: median(&self.per_call_ns),
        }
    }
}

/// Measure every floor over `blocks` blocks. `image` is a checkpoint
/// image as the workload's own receiver stored it (its bytes give
/// `stable.save` / `stable.load` the right size).
pub fn measure(world: &World, seed: u64, image: &[u8], blocks: usize) -> [Floor; 12] {
    let w = BLOCK;
    let mut s: [Samples; 12] = Default::default();
    let mut a = make_protocol(world.kind, 0, world.n);
    let mut b = make_protocol(world.kind, 1, world.n);
    let mut payload = vec![0u8; world.payload];
    SplitMix64::new(seed).fill(&mut payload);
    let payload = Bytes::from(payload);
    let net = SimNet::new(2, NetConfig::direct());
    let (_ep0, ep1) = (net.attach(0), net.attach(1));
    let mut log = SenderLog::new(world.n);
    let mut queue = RecvQueue::with_ranks(world.n);
    let store = CheckpointStore::new(Arc::new(MemStore::new()));

    let mut index = 0u64;
    for block in 0..blocks as u64 {
        let first = index + 1;
        let piggybacks: Vec<Vec<u8>> = s[0].time(w, || {
            (0..w).map(|i| a.on_send(1, first + i).piggyback).collect()
        });
        s[1].time(w, || {
            for (i, pb) in piggybacks.iter().enumerate() {
                b.on_deliver(0, first + i as u64, pb)
                    .expect("in-order deliver");
            }
        });
        let wires: Vec<AppWire> = piggybacks
            .into_iter()
            .enumerate()
            .map(|(i, pb)| AppWire {
                tag: 7,
                send_index: first + i as u64,
                piggyback: Bytes::from(pb),
                needs_ack: false,
                data: payload.clone(),
            })
            .collect();
        let msgs: Vec<WireMsg> = wires.iter().cloned().map(WireMsg::App).collect();
        let encoded: Vec<Bytes> = s[2].time(w, || msgs.iter().map(encode_to_bytes).collect());
        s[3].time(w, || {
            for bytes in &encoded {
                black_box(decode_from_bytes::<WireMsg>(bytes).expect("own encoding"));
            }
        });
        s[4].time(w, || {
            for bytes in &encoded {
                black_box(crc32(bytes));
            }
        });
        let frames = encoded.clone();
        s[5].time(w, || {
            for bytes in frames {
                net.send(0, 1, bytes).expect("both ranks attached");
            }
        });
        while ep1.try_recv().is_ok() {}
        let entries: Vec<LogEntry> = encoded
            .iter()
            .map(|bytes| LogEntry::from_wire(1, bytes.clone()).expect("own encoding"))
            .collect();
        s[6].time(w, || {
            for entry in entries {
                log.insert(entry);
            }
        });
        index += w;
        s[7].time(w, || log.release(1, index));
        s[8].time(w, || {
            for wire in wires {
                queue.push(Pending { src: 0, wire });
            }
        });
        s[9].time(w, || {
            for i in 0..w {
                black_box(queue.take_exact(0, first + i));
            }
        });
        s[10].time(1, || store.save(1, block + 1, image));
        s[11].time(1, || black_box(store.load_latest(1)));
        // A checkpoint on both sides, so tracking state stays bounded
        // the way it does under the workload's own checkpoints.
        b.on_local_checkpoint();
        a.on_peer_checkpoint(1, b.delivered_total());
    }
    assert!(log.is_empty() && queue.is_empty());
    s.map(|samples| samples.floor())
}
