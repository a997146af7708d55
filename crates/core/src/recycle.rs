//! Process-wide, bounded caches of large wire buffers.
//!
//! A 1 MiB rendezvous needs 64 frames of 16 KiB and one reassembly
//! buffer. Freed after every message, memory of that size goes back to
//! the kernel and is faulted in again on the next one, and the page
//! faults, not the copies, bound the large-message speed. Rendezvous
//! chunk frames and reassembly buffers are therefore taken from a free
//! list here, leave as [`Bytes::from_owner`] views of a [`Pooled`]
//! vector, and return to the list when the last view drops, on whichever
//! thread that happens. A list that is full, or a vector above its
//! cache's capacity cap, lets the vector be freed instead.
//!
//! The caches are shared by every core of the process: the frames one
//! core builds are dropped by the core that decodes them, and one pool
//! per core would sit full on the receiving side. Each free list is a
//! lock-free [`MpmcRing`], so taking and returning a buffer takes no lock.
//!
//! Worst-case retained memory is `FRAME_SLOTS × FRAME_MAX +
//! REASSEMBLY_SLOTS × REASSEMBLY_MAX` = 4 MiB + 8 MiB = 12 MiB.

use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;

use bytes::Bytes;
use nm_fabric::MpmcRing;

/// Free frame buffers kept: a 1 MiB rendezvous in flight in each
/// direction.
const FRAME_SLOTS: usize = 128;
/// Largest frame buffer kept, the Myri-10G MTU.
const FRAME_MAX: usize = 32 * 1024;
/// Free reassembly buffers kept.
const REASSEMBLY_SLOTS: usize = 4;
/// Largest reassembly buffer kept. A longer rendezvous, or an RTS with a
/// hostile `total`, gets a fresh lazily mapped allocation instead of a
/// reused buffer it would have to `memset`.
const REASSEMBLY_MAX: usize = 2 << 20;

/// Frame buffers.
pub(crate) static FRAMES: Cache = Cache::new(FRAME_SLOTS, FRAME_MAX);
/// Rendezvous reassembly buffers.
pub(crate) static REASSEMBLY: Cache = Cache::new(REASSEMBLY_SLOTS, REASSEMBLY_MAX);

/// A bounded free list of byte vectors.
pub(crate) struct Cache {
    slots: usize,
    max_capacity: usize,
    free: OnceLock<MpmcRing<Vec<u8>>>,
}

impl Cache {
    const fn new(slots: usize, max_capacity: usize) -> Cache {
        Cache {
            slots,
            max_capacity,
            free: OnceLock::new(),
        }
    }

    fn free(&self) -> &MpmcRing<Vec<u8>> {
        self.free.get_or_init(|| MpmcRing::new(self.slots))
    }

    /// A cached vector if `len` is under the cap and the list is not
    /// empty.
    fn reuse(&self, len: usize) -> Option<Vec<u8>> {
        (len <= self.max_capacity)
            .then(|| self.free().pop())
            .flatten()
    }

    /// An empty buffer with room for `capacity` bytes.
    pub(crate) fn empty(&'static self, capacity: usize) -> Pooled {
        let mut vec = self.reuse(capacity).unwrap_or_default();
        vec.clear();
        vec.reserve_exact(capacity);
        Pooled::new(vec, self)
    }

    /// `len` zero bytes. A reused buffer is zeroed here; a fresh one
    /// comes zeroed from the allocator.
    pub(crate) fn zeroed(&'static self, len: usize) -> Pooled {
        let vec = match self.reuse(len) {
            Some(mut vec) => {
                vec.clear();
                vec.reserve_exact(len);
                vec.resize(len, 0);
                vec
            }
            None => vec![0; len],
        };
        Pooled::new(vec, self)
    }

    fn put(&self, vec: Vec<u8>) {
        if vec.capacity() != 0 && vec.capacity() <= self.max_capacity {
            // A full list hands the vector back, and it is freed here.
            let _ = self.free().push(vec);
        }
    }
}

/// A vector that returns to its [`Cache`] when dropped.
pub(crate) struct Pooled {
    vec: Vec<u8>,
    cache: &'static Cache,
    /// Keeps the allocation `Bytes::from_owner` makes for each frame (two
    /// counts and this owner) over 120 bytes, out of glibc's fastbins.
    /// A rendezvous drops its 64 frame owners together. As fastbin chunks
    /// they are not merged into reusable free space until some large
    /// allocation happens, and the cached steady state makes none, so
    /// the next burst of other allocations (building a stack) had to
    /// fault in fresh heap pages. EXPERIMENTS.md, "Datapath", has the
    /// measurement.
    _unfast: [u64; 10],
}

const _: () = assert!(2 * size_of::<usize>() + size_of::<Pooled>() > 120);

impl Pooled {
    fn new(vec: Vec<u8>, cache: &'static Cache) -> Pooled {
        Pooled {
            vec,
            cache,
            _unfast: [0; 10],
        }
    }

    /// An immutable view; the vector returns to its cache when the last
    /// view of it drops.
    pub(crate) fn freeze(self) -> Bytes {
        Bytes::from_owner(self)
    }
}

impl Deref for Pooled {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.vec
    }
}

impl DerefMut for Pooled {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.vec
    }
}

impl AsRef<[u8]> for Pooled {
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

impl Drop for Pooled {
    fn drop(&mut self) {
        self.cache.put(std::mem::take(&mut self.vec));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reused_buffer_is_zeroed() {
        static CACHE: Cache = Cache::new(2, 4096);
        let mut buf = CACHE.zeroed(1000);
        let addr = buf.as_ptr();
        buf.fill(0xFF);
        drop(buf.freeze());
        let again = CACHE.zeroed(1000);
        assert_eq!(again.as_ptr(), addr, "the buffer was not reused");
        assert!(again.iter().all(|&b| b == 0));
        // A longer request grows the reused buffer, zeroed throughout.
        drop(again);
        assert!(CACHE.zeroed(3000).iter().all(|&b| b == 0));
    }

    #[test]
    fn retention_never_exceeds_the_slots() {
        static CACHE: Cache = Cache::new(4, 4096);
        let bufs: Vec<Pooled> = (0..10).map(|_| CACHE.empty(2048)).collect();
        drop(bufs);
        assert_eq!(CACHE.free().len(), 4);
        let again: Vec<Pooled> = (0..10).map(|_| CACHE.empty(2048)).collect();
        assert_eq!(CACHE.free().len(), 0);
        drop(again);
        assert_eq!(CACHE.free().len(), 4);
    }

    #[test]
    fn over_cap_buffer_is_freed() {
        static CACHE: Cache = Cache::new(4, 4096);
        drop(CACHE.zeroed(4097).freeze());
        drop(CACHE.empty(5000));
        assert_eq!(CACHE.free().len(), 0);
        drop(CACHE.zeroed(4096));
        assert_eq!(CACHE.free().len(), 1);
        // A cached buffer is not handed to an over-cap request.
        drop(CACHE.zeroed(8192));
        assert_eq!(CACHE.free().len(), 1);
    }

    #[test]
    fn buffer_dropped_on_another_thread_returns() {
        static CACHE: Cache = Cache::new(4, 4096);
        let mut buf = CACHE.empty(3000);
        buf.extend_from_slice(&[7; 3000]);
        let addr = buf.as_ptr();
        let bytes = buf.freeze();
        let view = bytes.slice(100..200);
        drop(bytes);
        assert_eq!(CACHE.free().len(), 0, "a view still holds the buffer");
        std::thread::spawn(move || assert_eq!(view[0], 7))
            .join()
            .unwrap();
        assert_eq!(CACHE.free().len(), 1);
        assert_eq!(CACHE.empty(10).as_ptr(), addr);
    }
}
