//! Vendored, dependency-free subset of the [`bytes`] crate.
//!
//! The build environment for this repository has no network access to
//! crates.io, so the workspace ships minimal local implementations of the
//! third-party APIs it consumes (see `compat/README.md`). This crate
//! reimplements exactly the surface the nomad stack uses:
//!
//! * [`Bytes`] — cheaply clonable, sliceable immutable buffer (shared
//!   storage + range). [`freeze`] and `From<Vec<u8>>` are O(1), as
//!   upstream: a buffer over 1 KiB keeps its vector (`Arc<Vec<u8>>`), and
//!   a shorter one is copied once into an `Arc<[u8]>`; [`from_owner`]
//!   wraps any owned byte container, without a copy, and drops it once
//!   after the last view,
//! * [`BytesMut`] — growable write buffer that [`freeze`]s into [`Bytes`],
//! * [`Buf`] / [`BufMut`] — big-endian cursor read/write traits (`BufMut`
//!   also on `Vec<u8>`, as upstream).
//!
//! Semantics (big-endian integer encoding, `split_to`, `slice`) match the
//! real crate so the wire format stays compatible if the real dependency is
//! ever restored.
//!
//! [`bytes`]: https://docs.rs/bytes
//! [`freeze`]: BytesMut::freeze
//! [`from_owner`]: Bytes::from_owner

#![warn(missing_docs)]

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable immutable contiguous slice of memory.
#[derive(Clone)]
pub struct Bytes {
    data: Storage,
    start: usize,
    end: usize,
}

/// Buffers up to this many bytes are copied next to their reference
/// counts; longer ones keep the vector they arrive in.
const INLINE_MAX: usize = 1024;

/// The shared buffer behind a [`Bytes`] view.
#[derive(Clone)]
enum Storage {
    /// One allocation holding the counts and the bytes. Copying a short
    /// buffer costs less than a second allocation and its later free, and
    /// a reader on another thread fetches one cache line instead of two:
    /// with `Arc<Vec<u8>>` at every size, 8 B messages handed between an
    /// application and a progression thread lost ≈12 % of their rate.
    Inline(Arc<[u8]>),
    /// The original vector, moved in without a copy.
    Vec(Arc<Vec<u8>>),
    /// A caller's container, dropped once after the last view.
    Owner(Arc<dyn AsRef<[u8]> + Send + Sync>),
}

impl Storage {
    fn as_slice(&self) -> &[u8] {
        match self {
            Storage::Inline(b) => b,
            Storage::Vec(v) => v,
            Storage::Owner(o) => (**o).as_ref(),
        }
    }
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub fn new() -> Self {
        Bytes::from_vec(Vec::new())
    }

    /// Creates `Bytes` from a static slice (copies; the real crate borrows,
    /// which is indistinguishable to callers).
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::copy_from_slice(data)
    }

    /// Copies `data` into a new `Bytes`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from_vec(data.to_vec())
    }

    /// Wraps `owner` without copying its bytes. Views and clones share
    /// it, and it is dropped exactly once, when the last of them is.
    ///
    /// Upstream (bytes ≥ 1.9) asks only for `Send`; this shim keeps the
    /// owner behind an `Arc`, so it must be `Sync` as well. `as_ref` must
    /// return the same bytes every time it is called.
    pub fn from_owner<T>(owner: T) -> Self
    where
        T: AsRef<[u8]> + Send + Sync + 'static,
    {
        let end = owner.as_ref().len();
        Bytes {
            data: Storage::Owner(Arc::new(owner)),
            start: 0,
            end,
        }
    }

    fn from_vec(v: Vec<u8>) -> Self {
        let end = v.len();
        let data = if end <= INLINE_MAX {
            Storage::Inline(Arc::from(v))
        } else {
            Storage::Vec(Arc::new(v))
        };
        Bytes {
            data,
            start: 0,
            end,
        }
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-view of `self` for the given range (no copy).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> Self {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = self.slice(..at);
        self.start += at;
        head
    }

    /// Copies the view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data.as_slice()[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from_vec(v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from_vec(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

/// A unique, growable byte buffer; freeze it into [`Bytes`] when done.
#[derive(Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// Creates an empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if no bytes have been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    /// Creates a buffer of `len` zero bytes.
    pub fn zeroed(len: usize) -> Self {
        BytesMut { buf: vec![0; len] }
    }

    /// Converts the accumulated bytes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from_vec(self.buf)
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        BytesMut { buf: s.to_vec() }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BytesMut")
            .field("len", &self.len())
            .finish()
    }
}

/// Read cursor over a byte source; integers decode big-endian, matching the
/// real `bytes` crate.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes as a contiguous slice.
    fn chunk(&self) -> &[u8];
    /// Advances the cursor by `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// `true` if any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }

    /// Copies `dst.len()` bytes out, advancing past them.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "copy_to_slice underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
    }
}

/// Write cursor; integers encode big-endian, matching the real `bytes`
/// crate.
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, s: &[u8]);

    /// Writes one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Writes a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_integers_big_endian() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(7);
        m.put_u16(0x0102);
        m.put_u32(0xdeadbeef);
        m.put_u64(0x0123_4567_89ab_cdef);
        assert_eq!(m.len(), 15);
        // Big-endian on the wire.
        assert_eq!(&m[1..3], &[0x01, 0x02]);
        let mut b = m.freeze();
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u16(), 0x0102);
        assert_eq!(b.get_u32(), 0xdeadbeef);
        assert_eq!(b.get_u64(), 0x0123_4567_89ab_cdef);
        assert!(!b.has_remaining());
    }

    #[test]
    fn slice_and_split_share_storage() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.as_ptr(), b[2..].as_ptr());
        let mut rest = b.clone();
        let head = rest.split_to(2);
        assert_eq!(&head[..], &[0, 1]);
        assert_eq!(&rest[..], &[2, 3, 4, 5]);
        assert_eq!(head.as_ptr(), b.as_ptr());
        assert_eq!(rest.as_ptr(), b[2..].as_ptr());
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn freeze_and_from_vec_keep_a_long_buffer() {
        let v = vec![7u8; INLINE_MAX + 1];
        let addr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), addr);

        let mut m = BytesMut::with_capacity(4096);
        m.put_slice(&[3; 4000]);
        let addr = m.as_ptr();
        let frozen = m.freeze();
        assert_eq!(frozen.as_ptr(), addr);

        let mut rest = frozen.clone();
        let head = rest.split_to(6);
        assert_eq!(head.as_ptr(), addr);
        assert_eq!(rest.as_ptr(), frozen[6..].as_ptr());
        assert_eq!(frozen.slice(2..5).as_ptr(), frozen[2..].as_ptr());
    }

    /// Counts its drops; its bytes live at a fixed address.
    struct Owner {
        bytes: Vec<u8>,
        drops: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl AsRef<[u8]> for Owner {
        fn as_ref(&self) -> &[u8] {
            &self.bytes
        }
    }

    impl Drop for Owner {
        fn drop(&mut self) {
            self.drops.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    #[test]
    fn from_owner_shares_without_copy_and_drops_once() {
        let drops = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let bytes: Vec<u8> = (0..=255).collect();
        let addr = bytes.as_ptr();
        let b = Bytes::from_owner(Owner {
            bytes,
            drops: Arc::clone(&drops),
        });
        assert_eq!(b.len(), 256);
        assert_eq!(b.as_ptr(), addr, "from_owner must not copy");

        let mut rest = b.slice(16..);
        let head = rest.split_to(4);
        let copy = b.clone();
        assert_eq!(&head[..], &[16, 17, 18, 19]);
        assert_eq!(head.as_ptr(), addr.wrapping_add(16));
        assert_eq!(rest.as_ptr(), addr.wrapping_add(20));
        drop(b);
        drop(copy);
        drop(head);
        assert_eq!(drops.load(std::sync::atomic::Ordering::SeqCst), 0);
        assert_eq!(rest[0], 20, "the last view still reads the owner");
        let moved = std::thread::spawn(move || rest.len()).join().unwrap();
        assert_eq!(moved, 236);
        assert_eq!(drops.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn equality_and_debug() {
        assert_eq!(Bytes::from_static(b"abc"), Bytes::from(vec![97, 98, 99]));
        assert_eq!(format!("{:?}", Bytes::from_static(b"a\x00")), "b\"a\\x00\"");
        assert!(Bytes::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "split_to out of bounds")]
    fn split_past_end_panics() {
        let mut b = Bytes::from_static(b"x");
        let _ = b.split_to(2);
    }
}
