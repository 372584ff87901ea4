//! Per-operation cost of the kernel hot path — `app_send`, `ingest`,
//! `try_deliver` — with and without a concurrent communication thread
//! hammering the same kernel (the contention the paper's Fig. 4b
//! architecture is supposed to avoid).
//!
//! The kernel is a `Sync` facade over three separately-locked layers
//! and a per-peer-sharded transport (DESIGN.md §4, §11), so app-side
//! sends (`tracking`, then `recovery` + one shard) and comm-side
//! ingest (`delivery` + shards) proceed concurrently instead of
//! serializing on a whole-kernel mutex.
//!
//! Receiver-side servicing (draining the fabric, delivering, and the
//! periodic checkpoint that garbage-collects the sender log) runs
//! *untimed* in `iter_batched` setup for the uncontended numbers, so
//! the timed closure is exactly one kernel operation against bounded
//! state.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lclog_core::ProtocolKind;
use lclog_runtime::{Kernel, RecvSpec, RunConfig};
use lclog_simnet::{NetConfig, SimNet};
use lclog_stable::{CheckpointStore, MemStore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const PAYLOAD: usize = 256;
/// Deliveries between receiver checkpoints (sender-log GC cadence).
const CKPT_EVERY: u64 = 1024;

struct Pair {
    _net: SimNet,
    k0: Arc<Kernel>,
    k1: Arc<Kernel>,
    ep0: lclog_simnet::Endpoint,
    ep1: lclog_simnet::Endpoint,
    delivered: u64,
    ckpts: u64,
}

fn pair() -> Pair {
    let net = SimNet::new(3, NetConfig::direct());
    let store = CheckpointStore::new(Arc::new(MemStore::new()));
    let ep0 = net.attach(0);
    let ep1 = net.attach(1);
    let k0 = Arc::new(Kernel::new(
        0,
        2,
        RunConfig::new(ProtocolKind::Tdi),
        net.clone(),
        store.clone(),
    ));
    let k1 = Arc::new(Kernel::new(
        1,
        2,
        RunConfig::new(ProtocolKind::Tdi),
        net.clone(),
        store,
    ));
    Pair {
        _net: net,
        k0,
        k1,
        ep0,
        ep1,
        delivered: 0,
        ckpts: 0,
    }
}

impl Pair {
    /// One round of the comm-thread role for both ranks: drain fabric
    /// inboxes into the kernels, deliver on rank 1, checkpoint every
    /// `CKPT_EVERY` deliveries so rank 0's sender log stays bounded.
    fn service(&mut self) {
        while let Ok(env) = self.ep1.try_recv() {
            self.k1.ingest(env);
        }
        while self.k1.try_deliver(RecvSpec::any()).is_some() {
            self.delivered += 1;
            if self.delivered.is_multiple_of(CKPT_EVERY) {
                self.ckpts += 1;
                self.k1.do_checkpoint(Vec::new(), self.ckpts);
            }
        }
        while let Ok(env) = self.ep0.try_recv() {
            self.k0.ingest(env);
        }
    }
}

fn bench_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_hot_path");
    group.sample_size(20_000);

    let data = bytes::Bytes::from(vec![7u8; PAYLOAD]);

    // app_send with nobody else touching the kernel; receiver-side
    // servicing happens untimed between operations.
    {
        let mut p = pair();
        let k0 = Arc::clone(&p.k0);
        let data = data.clone();
        group.bench_function("app_send/uncontended", |b| {
            b.iter_batched(
                || p.service(),
                |()| k0.app_send(1, 0, data.clone(), false),
                BatchSize::SmallInput,
            )
        });
    }

    // app_send while a comm thread concurrently ingests acks, delivers
    // on the peer, checkpoints, and drives retransmission timers —
    // the Fig. 4b comm/app split exercising the same kernel.
    {
        let mut p = pair();
        let k0 = Arc::clone(&p.k0);
        let stop = Arc::new(AtomicBool::new(false));
        let comm = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    p.service();
                    p.k0.tick();
                    p.k1.tick();
                    std::hint::spin_loop();
                }
            })
        };
        let data = data.clone();
        group.bench_function("app_send/contended", |b| {
            b.iter(|| k0.app_send(1, 0, data.clone(), false))
        });
        stop.store(true, Ordering::Relaxed);
        comm.join().unwrap();
    }

    // Receiver side: one envelope ingested and delivered, with the
    // send + fabric hop and ack-return untimed in setup.
    {
        let mut p = pair();
        let k1 = Arc::clone(&p.k1);
        group.bench_function("ingest_try_deliver/uncontended", |b| {
            b.iter_batched(
                || {
                    p.service();
                    p.k0.app_send(1, 0, data.clone(), false);
                    p.ep1.try_recv().expect("direct fabric delivers")
                },
                |env| {
                    k1.ingest(env);
                    k1.try_deliver(RecvSpec::any())
                },
                BatchSize::SmallInput,
            )
        });
    }

    group.finish();
}

/// Frames/sec saturation: 1–8 producer threads hammer `app_send` on
/// the same kernel while a service thread drains, delivers, and
/// checkpoints. The reported value is wall time per frame aggregated
/// across producers (throughput = 1e9 / value frames/sec).
fn bench_saturation(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_saturation");
    // One sample = this many sends per producer; large enough that
    // the scoped-thread spawn cost disappears into the noise.
    group.sample_size(50_000);

    let data = bytes::Bytes::from(vec![7u8; PAYLOAD]);
    for producers in [1usize, 2, 4, 8] {
        let mut p = pair();
        let k0 = Arc::clone(&p.k0);
        let stop = Arc::new(AtomicBool::new(false));
        // Service-only comm loop: the direct fabric never loses
        // frames, so retransmit ticks would only add timer noise to a
        // throughput probe.
        let comm = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    p.service();
                    std::hint::spin_loop();
                }
            })
        };
        let data = data.clone();
        group.bench_function(format!("app_send/{producers}_producers"), |b| {
            b.iter_custom(|iters| {
                let start = Instant::now();
                std::thread::scope(|s| {
                    for _ in 0..producers {
                        let k0 = &k0;
                        let data = data.clone();
                        s.spawn(move || {
                            for _ in 0..iters {
                                k0.app_send(1, 0, data.clone(), false);
                            }
                        });
                    }
                });
                // `producers * iters` frames went out in `elapsed`;
                // report the per-frame aggregate for `iters` frames.
                start.elapsed() / producers as u32
            })
        });
        stop.store(true, Ordering::Relaxed);
        comm.join().unwrap();
    }

    group.finish();
}

criterion_group!(benches, bench_hot_path, bench_saturation);
criterion_main!(benches);
