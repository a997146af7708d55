//! A large-message ping-pong in steady state must not allocate wire
//! buffers: frames and reassembly buffers come from the recycling caches,
//! and rendezvous chunks are framed straight from the payload.
//!
//! A counting global allocator records, per thread, the allocations of
//! at least [`LARGE`] bytes; the ping-pong is co-polled on the test
//! thread, so the count covers both cores.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;
use nm_core::{CommCore, CoreBuilder, CoreConfig, GateId, Request};
use nm_fabric::{Fabric, WireModel};

/// Smallest allocation counted: a page.
const LARGE: usize = 4096;
/// Payload of one message, 64 rendezvous chunks.
const MSG: usize = 1 << 20;

struct Counting;

thread_local! {
    static LARGE_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// thread-local counter is a const-initialised `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `System.alloc`, which this forwards to.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System.alloc_zeroed`, which this forwards to.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as `System.realloc`, which this forwards to.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator with `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: same contract as `System.dealloc`, which this forwards to.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count(size: usize) {
    if size >= LARGE {
        // `try_with`: the counter may already be gone in a thread's
        // destructors.
        let _ = LARGE_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One round: `a` sends `ping` to `b`, `b` sends `pong` back, both cores
/// co-polled until every request completes; the payloads are checked and
/// dropped.
fn round(a: &CommCore, b: &CommCore, ping: &Bytes, pong: &Bytes) {
    let g = GateId(0);
    let recv_b = b.irecv(g, 1).unwrap();
    let send_a = a.isend(g, 1, ping.clone()).unwrap();
    settle(a, b, &[&recv_b, &send_a]);
    let recv_a = a.irecv(g, 2).unwrap();
    let send_b = b.isend(g, 2, pong.clone()).unwrap();
    settle(a, b, &[&recv_a, &send_b]);
    assert!(recv_b.take_data().unwrap() == *ping);
    assert!(recv_a.take_data().unwrap() == *pong);
}

fn settle(a: &CommCore, b: &CommCore, reqs: &[&Request]) {
    while !reqs.iter().all(|r| r.is_complete()) {
        a.progress();
        b.progress();
    }
}

#[test]
fn large_pingpong_allocates_no_wire_buffers() {
    let fabric = Fabric::real_time();
    let (pa, pb) = fabric.pair(&[WireModel::ideal()], true);
    let a: Arc<CommCore> = CoreBuilder::new(CoreConfig::default())
        .add_gate(pa.drivers())
        .build();
    let b: Arc<CommCore> = CoreBuilder::new(CoreConfig::default())
        .add_gate(pb.drivers())
        .build();
    let ping = Bytes::from((0..MSG).map(|i| i as u8).collect::<Vec<u8>>());
    let pong = Bytes::from((0..MSG).map(|i| (i / 7) as u8).collect::<Vec<u8>>());

    for _ in 0..8 {
        round(&a, &b, &ping, &pong);
    }
    let before = LARGE_ALLOCS.with(Cell::get);
    for _ in 0..32 {
        round(&a, &b, &ping, &pong);
    }
    let large = LARGE_ALLOCS.with(Cell::get) - before;
    assert_eq!(
        large, 0,
        "32 rounds of 2 x 1 MiB made {large} allocations of >= {LARGE} B"
    );
}
