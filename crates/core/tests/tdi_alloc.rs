//! Dense TDI's per-message calls allocate nothing but the piggyback.
//!
//! A counting global allocator pins the allocations of `on_send`,
//! `deliverable` and `on_deliver` at n = 512 exactly, so a change that
//! brings back a decoded vector (or a sizing pass that allocates) fails
//! here, whatever the machine's speed. The binary holds one test, and
//! only the test's own thread is counted.

use lclog_core::{DeliveryVerdict, LoggingProtocol, ProtocolError, Tdi};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting every allocation and reallocation
/// made on the calling thread.
struct Counting;

// SAFETY: every call is passed unchanged to `System`, which meets the
// `GlobalAlloc` contract; counting touches only a thread-local `Cell`
// with a const initialiser, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn per_message_calls_allocate_only_the_piggyback() {
    const N: usize = 512;
    let (sender, receiver) = (0, 1);
    let mut src = Tdi::new(sender, N);
    let mut dst = Tdi::new(receiver, N);
    // Give the sender's vector the shape of a busy run: its own entry
    // and its partner's past 0x80 (two-byte varints), a spread of
    // small entries learnt from the rest.
    for i in 1..=300 {
        let m = dst.on_send(sender, i).piggyback;
        src.on_deliver(receiver, i, &m).unwrap();
        let back = src.on_send(receiver, i).piggyback;
        dst.on_deliver(sender, i, &back).unwrap();
    }
    for peer in (2..N).step_by(3) {
        let mut p = Tdi::new(peer, N);
        for i in 1..=(peer as u64 % 100) {
            let own = p.on_send(peer, i).piggyback;
            p.on_deliver(peer, i, &own).unwrap();
        }
        let m = p.on_send(sender, 1).piggyback;
        src.on_deliver(peer, 1, &m).unwrap();
    }

    let (artifacts, sent) = allocations(|| src.on_send(receiver, 301));
    assert_eq!(sent, 1, "on_send allocates the piggyback and nothing else");
    let piggyback = artifacts.piggyback;
    assert!(piggyback.len() > N, "some entries take two bytes");

    let (verdict, gated) = allocations(|| dst.deliverable(sender, 301, &piggyback));
    assert_eq!(verdict, DeliveryVerdict::Deliver);
    assert_eq!(gated, 0, "the gate reads element `me` in place");

    let before = dst.depend_interval()[receiver];
    let (merged, merge_allocs) = allocations(|| dst.on_deliver(sender, 301, &piggyback));
    assert_eq!(merged, Ok(()));
    assert_eq!(merge_allocs, 0, "the merge runs straight from the bytes");
    assert_eq!(dst.depend_interval()[receiver], before + 1);
    assert_eq!(dst.depend_interval().as_slice(), {
        let mut expected = src.depend_interval().as_slice().to_vec();
        expected[receiver] = before + 1;
        expected
    });

    // A rejected piggyback costs nothing either.
    let torn = &piggyback[..piggyback.len() - 1];
    let (verdict, gated) = allocations(|| dst.deliverable(sender, 302, torn));
    assert_eq!((verdict, gated), (DeliveryVerdict::Wait, 0));
    let (rejected, merge_allocs) = allocations(|| dst.on_deliver(sender, 302, torn));
    assert!(matches!(rejected, Err(ProtocolError::Corrupt(_))));
    assert_eq!(merge_allocs, 0);
}
