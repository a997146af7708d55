//! Wire format: what the transfer layer actually puts on a NIC.
//!
//! Every wire packet is a container of one or more *entries*; aggregation
//! (the optimization layer coalescing several small messages into one
//! packet) is therefore free at the format level — an aggregated packet is
//! just a container with `count > 1`. Since the reliability layer, every
//! container travels inside a *frame* that adds integrity and sequencing:
//!
//! ```text
//! frame   := crc:u32 wseq:u32 ack:u32 flags:u8 [span:u64] packet
//! packet  := count:u16 entry*
//! entry   := kind:u8 tag:u64 seq:u32 aux:u32 len:u32 payload[len]
//! ```
//!
//! `crc` is a CRC-32 (IEEE) over everything after itself; a frame whose
//! checksum does not match is dropped before any entry is decoded
//! ([`WireError::BadChecksum`]). `wseq`/`ack` are the per-wire send
//! sequence number and cumulative acknowledgement of the reliability
//! protocol; on an unreliable wire (reliability disabled) the
//! [`FRAME_RELIABLE`] flag is clear and both fields are ignored.
//! [`FRAME_ACK_ONLY`] marks a bare acknowledgement with no packet.
//! [`FRAME_SPAN`] marks an 8-byte observability span id between the
//! flags byte and the packet; frames with span 0 omit it entirely, so
//! trace-off builds pay zero wire bytes.
//!
//! Entry kinds:
//!
//! * `EAGER` — a complete small message; `len` bytes of payload.
//! * `RTS`   — rendezvous request-to-send; `aux` = total message length.
//! * `CTS`   — clear-to-send, echoing the RTS `tag`/`seq`.
//! * `DATA`  — one rendezvous chunk; `aux` = offset into the message.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Per-entry header size in bytes.
pub const ENTRY_HEADER: usize = 1 + 8 + 4 + 4 + 4;
/// Container header size in bytes.
pub const PACKET_HEADER: usize = 2;
/// Frame header size in bytes (crc + wseq + ack + flags).
pub const FRAME_HEADER: usize = 4 + 4 + 4 + 1;
/// Extra frame bytes when [`FRAME_SPAN`] is set (the span id).
pub const FRAME_SPAN_BYTES: usize = 8;

/// Frame flag: `wseq`/`ack` are live reliability-protocol fields.
pub const FRAME_RELIABLE: u8 = 1 << 0;
/// Frame flag: bare acknowledgement, carries no packet.
pub const FRAME_ACK_ONLY: u8 = 1 << 1;
/// Frame flag: a `u64` observability span id follows the flags byte.
pub const FRAME_SPAN: u8 = 1 << 2;
const FRAME_FLAG_MASK: u8 = FRAME_RELIABLE | FRAME_ACK_ONLY | FRAME_SPAN;

/// One logical unit inside a wire packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// A complete eager message.
    Eager {
        /// Message tag.
        tag: u64,
        /// Per-gate message sequence number.
        seq: u32,
        /// Payload.
        data: Bytes,
    },
    /// Rendezvous handshake: request to send `total` bytes.
    Rts {
        /// Message tag.
        tag: u64,
        /// Rendezvous id (the sender's sequence number).
        seq: u32,
        /// Total message length.
        total: u32,
    },
    /// Rendezvous handshake: receiver is ready.
    Cts {
        /// Echoed tag.
        tag: u64,
        /// Echoed rendezvous id.
        seq: u32,
    },
    /// One chunk of a rendezvous transfer.
    Data {
        /// Message tag.
        tag: u64,
        /// Rendezvous id.
        seq: u32,
        /// Offset of this chunk in the full message.
        offset: u32,
        /// Chunk payload.
        data: Bytes,
    },
}

const KIND_EAGER: u8 = 1;
const KIND_RTS: u8 = 2;
const KIND_CTS: u8 = 3;
const KIND_DATA: u8 = 4;

impl Entry {
    /// Encoded size of this entry on the wire.
    pub fn wire_size(&self) -> usize {
        ENTRY_HEADER
            + match self {
                Entry::Eager { data, .. } | Entry::Data { data, .. } => data.len(),
                _ => 0,
            }
    }

    /// Payload length carried (0 for control entries).
    pub fn payload_len(&self) -> usize {
        match self {
            Entry::Eager { data, .. } | Entry::Data { data, .. } => data.len(),
            _ => 0,
        }
    }

    fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            Entry::Eager { tag, seq, data } => {
                buf.put_u8(KIND_EAGER);
                buf.put_u64(*tag);
                buf.put_u32(*seq);
                buf.put_u32(0);
                buf.put_u32(data.len() as u32);
                buf.put_slice(data);
            }
            Entry::Rts { tag, seq, total } => {
                buf.put_u8(KIND_RTS);
                buf.put_u64(*tag);
                buf.put_u32(*seq);
                buf.put_u32(*total);
                buf.put_u32(0);
            }
            Entry::Cts { tag, seq } => {
                buf.put_u8(KIND_CTS);
                buf.put_u64(*tag);
                buf.put_u32(*seq);
                buf.put_u32(0);
                buf.put_u32(0);
            }
            Entry::Data {
                tag,
                seq,
                offset,
                data,
            } => {
                buf.put_u8(KIND_DATA);
                buf.put_u64(*tag);
                buf.put_u32(*seq);
                buf.put_u32(*offset);
                buf.put_u32(data.len() as u32);
                buf.put_slice(data);
            }
        }
    }

    fn decode_from(buf: &mut Bytes) -> Result<Entry, WireError> {
        if buf.remaining() < ENTRY_HEADER {
            return Err(WireError::Truncated);
        }
        let kind = buf.get_u8();
        let tag = buf.get_u64();
        let seq = buf.get_u32();
        let aux = buf.get_u32();
        let len = buf.get_u32() as usize;
        match kind {
            KIND_EAGER | KIND_DATA => {
                if buf.remaining() < len {
                    return Err(WireError::Truncated);
                }
                let data = buf.split_to(len);
                Ok(if kind == KIND_EAGER {
                    Entry::Eager { tag, seq, data }
                } else {
                    Entry::Data {
                        tag,
                        seq,
                        offset: aux,
                        data,
                    }
                })
            }
            KIND_RTS => {
                if len != 0 {
                    return Err(WireError::Malformed("RTS with payload"));
                }
                Ok(Entry::Rts {
                    tag,
                    seq,
                    total: aux,
                })
            }
            KIND_CTS => {
                if len != 0 {
                    return Err(WireError::Malformed("CTS with payload"));
                }
                Ok(Entry::Cts { tag, seq })
            }
            k => Err(WireError::UnknownKind(k)),
        }
    }
}

/// Decoding failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Packet shorter than its headers claim.
    Truncated,
    /// Unknown entry kind byte.
    UnknownKind(u8),
    /// Structurally invalid entry.
    Malformed(&'static str),
    /// Frame checksum mismatch (corrupted in transit).
    BadChecksum {
        /// CRC the frame header claims.
        expected: u32,
        /// CRC computed over the received body.
        got: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated packet"),
            WireError::UnknownKind(k) => write!(f, "unknown entry kind {k}"),
            WireError::Malformed(why) => write!(f, "malformed packet: {why}"),
            WireError::BadChecksum { expected, got } => {
                write!(
                    f,
                    "frame checksum mismatch: expected {expected:#010x}, got {got:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
///
/// Computed in software so the integrity layer has no dependencies. On
/// x86-64 CPUs with `pclmulqdq` and `sse4.1`, inputs of at least 128
/// bytes are folded 64 bytes per step with carry-less multiplication
/// (Intel, "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction"); shorter inputs, the sub-16-byte tail and other CPUs use
/// a byte-at-a-time table built at compile time. Both paths compute the
/// same checksum.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= CLMUL_MIN_LEN
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `clmul::update` only needs the `pclmulqdq` and `sse4.1`
        // target features, both detected on this CPU just above.
        return !unsafe { clmul::update(!0, data) };
    }
    !crc32_table(!0, data)
}

/// Shortest input [`crc32`] hands to the carry-less-multiply kernel (the
/// cut crc32fast uses). The kernel needs one 64-byte block to start, and
/// control frames and small eager frames stay on the table loop.
const CLMUL_MIN_LEN: usize = 128;

/// Byte-at-a-time CRC-32 update of the raw (non-inverted) register.
fn crc32_table(mut crc: u32, data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB88320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    for &b in data {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// Carry-less-multiply folding for the bit-reflected IEEE polynomial.
///
/// Each fold multiplies the two 64-bit halves of a 128-bit accumulator by
/// `x^(d+32) mod P` and `x^(d-32) mod P` and adds the block `d` bits
/// further on, which moves the remainder forward without changing it
/// modulo `P`. Four accumulators fold with `d = 512` (k1, k2); they then
/// merge and absorb single blocks with `d = 128` (k3, k4); 128 bits reduce
/// to 64 (k4, k5 = `x^64 mod P`) and a Barrett step (`P`, `mu = x^64 / P`)
/// yields the 32-bit register. Every constant is bit-reflected and shifted
/// left by one, as the reflected CRC requires.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Advances the raw CRC register `crc` over `data`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(crc: u32, data: &[u8]) -> u32 {
        let (blocks, tail) = data.as_chunks::<16>();
        let (quads, singles) = blocks.as_chunks::<4>();
        let Some((first, quads)) = quads.split_first() else {
            return super::crc32_table(crc, data);
        };

        let mut acc = [
            load(&first[0]),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in quads {
            for (a, block) in acc.iter_mut().zip(quad) {
                *a = fold(*a, load(block), k1k2);
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(acc[0], acc[1], k3k4);
        x = fold(x, acc[2], k3k4);
        x = fold(x, acc[3], k3k4);
        for block in singles {
            x = fold(x, load(block), k3k4);
        }

        // 128 -> 96 -> 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction, 64 -> 32 bits (bit-reflected variant).
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;

        super::crc32_table(crc, tail)
    }

    /// `next ^ acc.lo * keys.lo ^ acc.hi * keys.hi` (carry-less).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and `_mm_loadu_si128` has
        // no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }
}

/// A decoded frame header plus its (still encoded) packet payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Per-wire send sequence number (live iff [`FRAME_RELIABLE`]).
    pub wseq: u32,
    /// Cumulative ack: all wire sequence numbers `< ack` received.
    pub ack: u32,
    /// Frame flags ([`FRAME_RELIABLE`], [`FRAME_ACK_ONLY`],
    /// [`FRAME_SPAN`]).
    pub flags: u8,
    /// Observability span id of the first message aboard (0 = none).
    pub span: u64,
    /// The contained wire packet (empty for ack-only frames).
    pub payload: Bytes,
}

impl Frame {
    /// Whether `wseq`/`ack` are live reliability-protocol fields.
    pub fn reliable(&self) -> bool {
        self.flags & FRAME_RELIABLE != 0
    }

    /// Whether this is a bare acknowledgement with no packet.
    pub fn ack_only(&self) -> bool {
        self.flags & FRAME_ACK_ONLY != 0
    }
}

/// Wraps an encoded packet in a checksummed frame.
///
/// `span` is the observability span id of the first message aboard;
/// `0` ("no span", the value in every trace-off build) clears
/// [`FRAME_SPAN`] and the frame carries no span bytes at all.
pub fn encode_frame(wseq: u32, ack: u32, flags: u8, span: u64, payload: &[u8]) -> Bytes {
    let span_bytes = if span != 0 { FRAME_SPAN_BYTES } else { 0 };
    let flags = if span != 0 {
        flags | FRAME_SPAN
    } else {
        flags & !FRAME_SPAN
    };
    let mut buf = BytesMut::with_capacity(FRAME_HEADER + span_bytes + payload.len());
    buf.put_u32(0); // crc placeholder
    buf.put_u32(wseq);
    buf.put_u32(ack);
    buf.put_u8(flags);
    if span != 0 {
        buf.put_u64(span);
    }
    buf.put_slice(payload);
    let crc = crc32(&buf[4..]);
    buf[0..4].copy_from_slice(&crc.to_be_bytes());
    buf.freeze()
}

/// Verifies and strips a frame header.
///
/// A frame that fails the checksum is reported as
/// [`WireError::BadChecksum`] *without* decoding any entry, so corrupted
/// bytes never reach protocol dispatch.
pub fn decode_frame(mut frame: Bytes) -> Result<Frame, WireError> {
    if frame.remaining() < FRAME_HEADER {
        return Err(WireError::Truncated);
    }
    let expected = frame.get_u32();
    let got = crc32(&frame);
    if expected != got {
        return Err(WireError::BadChecksum { expected, got });
    }
    let wseq = frame.get_u32();
    let ack = frame.get_u32();
    let flags = frame.get_u8();
    if flags & !FRAME_FLAG_MASK != 0 {
        return Err(WireError::Malformed("unknown frame flags"));
    }
    let span = if flags & FRAME_SPAN != 0 {
        if frame.remaining() < FRAME_SPAN_BYTES {
            return Err(WireError::Truncated);
        }
        frame.get_u64()
    } else {
        0
    };
    if flags & FRAME_ACK_ONLY != 0 && frame.has_remaining() {
        return Err(WireError::Malformed("ack-only frame with payload"));
    }
    Ok(Frame {
        wseq,
        ack,
        flags,
        span,
        payload: frame,
    })
}

/// Encodes a container of entries into one wire packet.
///
/// # Panics
/// Panics if `entries` is empty or longer than `u16::MAX`.
pub fn encode_packet(entries: &[Entry]) -> Bytes {
    assert!(!entries.is_empty(), "cannot encode an empty packet");
    assert!(entries.len() <= u16::MAX as usize, "too many entries");
    let size = PACKET_HEADER + entries.iter().map(Entry::wire_size).sum::<usize>();
    let mut buf = BytesMut::with_capacity(size);
    buf.put_u16(entries.len() as u16);
    for e in entries {
        e.encode_into(&mut buf);
    }
    debug_assert_eq!(buf.len(), size);
    buf.freeze()
}

/// Decodes one wire packet into its entries.
pub fn decode_packet(mut packet: Bytes) -> Result<Vec<Entry>, WireError> {
    if packet.remaining() < PACKET_HEADER {
        return Err(WireError::Truncated);
    }
    let count = packet.get_u16() as usize;
    if count == 0 {
        return Err(WireError::Malformed("empty container"));
    }
    // `count` comes off the wire: never reserve more entries than the
    // remaining bytes could hold.
    let mut entries = Vec::with_capacity(count.min(packet.remaining() / ENTRY_HEADER));
    for _ in 0..count {
        entries.push(Entry::decode_from(&mut packet)?);
    }
    if packet.has_remaining() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(entries: Vec<Entry>) {
        let encoded = encode_packet(&entries);
        let decoded = decode_packet(encoded).expect("decode");
        assert_eq!(decoded, entries);
    }

    #[test]
    fn eager_roundtrip() {
        roundtrip(vec![Entry::Eager {
            tag: 7,
            seq: 3,
            data: Bytes::from_static(b"hello"),
        }]);
    }

    #[test]
    fn control_roundtrips() {
        roundtrip(vec![Entry::Rts {
            tag: 1,
            seq: 2,
            total: 1 << 20,
        }]);
        roundtrip(vec![Entry::Cts { tag: 1, seq: 2 }]);
    }

    #[test]
    fn data_chunk_roundtrip() {
        roundtrip(vec![Entry::Data {
            tag: 9,
            seq: 4,
            offset: 4096,
            data: Bytes::from(vec![0xAB; 1000]),
        }]);
    }

    #[test]
    fn aggregated_container_roundtrip() {
        roundtrip(vec![
            Entry::Eager {
                tag: 1,
                seq: 0,
                data: Bytes::from_static(b"a"),
            },
            Entry::Rts {
                tag: 2,
                seq: 1,
                total: 99999,
            },
            Entry::Eager {
                tag: 3,
                seq: 2,
                data: Bytes::from_static(b"bc"),
            },
        ]);
    }

    #[test]
    fn empty_payload_eager_roundtrip() {
        roundtrip(vec![Entry::Eager {
            tag: 0,
            seq: 0,
            data: Bytes::new(),
        }]);
    }

    #[test]
    fn wire_size_matches_encoding() {
        let entries = vec![
            Entry::Eager {
                tag: 1,
                seq: 0,
                data: Bytes::from_static(b"xyz"),
            },
            Entry::Cts { tag: 1, seq: 0 },
        ];
        let expected = PACKET_HEADER + entries.iter().map(Entry::wire_size).sum::<usize>();
        assert_eq!(encode_packet(&entries).len(), expected);
    }

    #[test]
    fn truncated_packets_rejected() {
        let good = encode_packet(&[Entry::Eager {
            tag: 1,
            seq: 0,
            data: Bytes::from_static(b"abcdef"),
        }]);
        for cut in [0, 1, PACKET_HEADER, good.len() - 1] {
            let bad = good.slice(0..cut);
            assert!(
                decode_packet(bad).is_err(),
                "cut at {cut} should fail to decode"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = BytesMut::from(&encode_packet(&[Entry::Cts { tag: 0, seq: 0 }])[..]);
        bytes.put_u8(0xFF);
        assert_eq!(
            decode_packet(bytes.freeze()),
            Err(WireError::Malformed("trailing bytes"))
        );
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u16(1);
        buf.put_u8(0xEE);
        buf.put_u64(0);
        buf.put_u32(0);
        buf.put_u32(0);
        buf.put_u32(0);
        assert_eq!(
            decode_packet(buf.freeze()),
            Err(WireError::UnknownKind(0xEE))
        );
    }

    #[test]
    fn zero_count_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u16(0);
        assert!(decode_packet(buf.freeze()).is_err());
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414FA339
        );
    }

    /// Bit-at-a-time CRC-32/IEEE straight from the polynomial: the
    /// reference both the table loop and the folding kernel must match.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB88320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// Deterministic non-repeating test bytes (xorshift64).
    fn noise(len: usize) -> Vec<u8> {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_agrees_with_bitwise_reference() {
        let buf = noise(16 * 1024 + 27 + 16);
        let lengths = (0..=600).chain([4096, 16 * 1024, 16 * 1024 + 27]);
        for len in lengths {
            for offset in [0, 1, 3, 7, 13] {
                let data = &buf[offset..offset + len];
                let want = crc32_bitwise(data);
                assert_eq!(crc32(data), want, "len {len} offset {offset}");
                assert_eq!(!crc32_table(!0, data), want, "table, len {len}");
            }
        }
    }

    #[test]
    fn frame_roundtrip() {
        let packet = encode_packet(&[Entry::Eager {
            tag: 7,
            seq: 3,
            data: Bytes::from_static(b"hello"),
        }]);
        let framed = encode_frame(42, 17, FRAME_RELIABLE, 0, &packet);
        assert_eq!(framed.len(), FRAME_HEADER + packet.len());
        let frame = decode_frame(framed).expect("decode");
        assert_eq!(frame.wseq, 42);
        assert_eq!(frame.ack, 17);
        assert!(frame.reliable());
        assert!(!frame.ack_only());
        assert_eq!(frame.span, 0);
        assert_eq!(frame.payload, packet);
        assert!(decode_packet(frame.payload).is_ok());
    }

    #[test]
    fn span_frame_roundtrip() {
        let packet = encode_packet(&[Entry::Cts { tag: 1, seq: 2 }]);
        let framed = encode_frame(8, 3, FRAME_RELIABLE, 0xFEED_F00D, &packet);
        assert_eq!(framed.len(), FRAME_HEADER + FRAME_SPAN_BYTES + packet.len());
        let frame = decode_frame(framed).expect("decode");
        assert_eq!(frame.span, 0xFEED_F00D);
        assert!(frame.flags & FRAME_SPAN != 0);
        assert_eq!(frame.payload, packet);
    }

    #[test]
    fn zero_span_carries_no_span_bytes() {
        // Even if the caller passes FRAME_SPAN explicitly, span 0 must
        // clear it: decoders would otherwise read payload as a span.
        let framed = encode_frame(0, 0, FRAME_SPAN, 0, b"xy");
        assert_eq!(framed.len(), FRAME_HEADER + 2);
        let frame = decode_frame(framed).expect("decode");
        assert_eq!(frame.span, 0);
        assert_eq!(frame.flags & FRAME_SPAN, 0);
        assert_eq!(&frame.payload[..], b"xy");
    }

    #[test]
    fn span_frame_truncated_before_span_rejected() {
        let framed = encode_frame(1, 1, FRAME_RELIABLE, 77, b"payload");
        // Cut inside the span field: CRC fails first (covers all bytes),
        // so re-frame a short body with a valid checksum instead.
        let mut buf = BytesMut::new();
        buf.put_u32(0);
        buf.put_u32(1);
        buf.put_u32(1);
        buf.put_u8(FRAME_SPAN);
        buf.put_u32(0xDEAD); // only 4 of the 8 span bytes
        let crc = crc32(&buf[4..]);
        buf[0..4].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(decode_frame(buf.freeze()), Err(WireError::Truncated));
        // And the well-formed frame still decodes.
        assert_eq!(decode_frame(framed).unwrap().span, 77);
    }

    #[test]
    fn ack_only_frame_roundtrip() {
        let framed = encode_frame(0, 9, FRAME_RELIABLE | FRAME_ACK_ONLY, 0, &[]);
        let frame = decode_frame(framed).expect("decode");
        assert!(frame.ack_only());
        assert_eq!(frame.ack, 9);
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn every_single_byte_flip_is_caught() {
        let packet = encode_packet(&[Entry::Eager {
            tag: 1,
            seq: 0,
            data: Bytes::from_static(b"integrity"),
        }]);
        let framed = encode_frame(5, 2, FRAME_RELIABLE, 0x5EED, &packet);
        for i in 0..framed.len() {
            let mut bad = BytesMut::from(&framed[..]);
            bad[i] ^= 0xFF;
            let err = decode_frame(bad.freeze()).expect_err("flip must be caught");
            assert!(
                matches!(err, WireError::BadChecksum { .. }),
                "flip at {i} gave {err:?}"
            );
        }
    }

    #[test]
    fn long_frame_flips_are_caught() {
        let packet = encode_packet(&[Entry::Data {
            tag: 1,
            seq: 0,
            offset: 0,
            data: Bytes::from(noise(16 * 1024)),
        }]);
        let framed = encode_frame(5, 2, FRAME_RELIABLE, 0x5EED, &packet);
        let last = framed.len() - 1;
        for i in (0..framed.len()).step_by(16).chain([last]) {
            let mut bad = BytesMut::from(&framed[..]);
            bad[i] ^= 0xFF;
            let err = decode_frame(bad.freeze()).expect_err("flip must be caught");
            assert!(
                matches!(err, WireError::BadChecksum { .. }),
                "flip at {i} gave {err:?}"
            );
        }
    }

    #[test]
    fn truncated_frame_rejected() {
        let framed = encode_frame(0, 0, 0, 0, b"xy");
        for cut in 0..FRAME_HEADER {
            assert_eq!(
                decode_frame(framed.slice(0..cut)),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn unknown_frame_flags_rejected() {
        // Re-frame with an undefined flag bit but a valid checksum.
        let mut buf = BytesMut::new();
        buf.put_u32(0);
        buf.put_u32(0);
        buf.put_u32(0);
        buf.put_u8(0x80);
        let crc = crc32(&buf[4..]);
        buf[0..4].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(
            decode_frame(buf.freeze()),
            Err(WireError::Malformed("unknown frame flags"))
        );
    }

    #[test]
    fn ack_only_with_payload_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(0);
        buf.put_u32(0);
        buf.put_u32(3);
        buf.put_u8(FRAME_RELIABLE | FRAME_ACK_ONLY);
        buf.put_slice(b"stray");
        let crc = crc32(&buf[4..]);
        buf[0..4].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(
            decode_frame(buf.freeze()),
            Err(WireError::Malformed("ack-only frame with payload"))
        );
    }
}
