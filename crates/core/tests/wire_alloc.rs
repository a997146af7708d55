//! Decoding must not allocate in proportion to a length read off the wire.
//!
//! A counting global allocator records the bytes each thread requests, so
//! the measurement covers exactly the decode calls below.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nm_core::wire::{decode_frame, decode_packet, encode_frame, WireError};

struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// thread-local counter is a const-initialised `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `System.alloc`, which this forwards to.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System.dealloc`, which this forwards to.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

#[test]
fn hostile_entry_count_does_not_size_an_allocation() {
    // A CRC-valid frame whose packet claims 65 535 entries in 0 bytes.
    let framed = encode_frame(0, 0, 0, 0, &[0xFF, 0xFF]);
    let (result, bytes) = allocated_by(|| {
        let frame = decode_frame(framed).expect("the checksum is valid");
        decode_packet(frame.payload)
    });
    assert_eq!(result, Err(WireError::Truncated));
    assert!(bytes < 4096, "decoding allocated {bytes} bytes");
}
