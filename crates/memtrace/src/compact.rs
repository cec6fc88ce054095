//! Compact delta-encoded trace records.
//!
//! A [`CompactBuf`] stores a batch of [`Access`] records in a flat byte
//! buffer: one flag byte per record, the address as a zigzag LEB128
//! varint delta against the previous record, and the size only when it
//! differs from the previous record's. Strided kernels encode in 2–3
//! bytes per access (vs 16 for the in-memory struct).
//!
//! The encoding is lossless for every possible `Access` (address deltas
//! wrap through `u64`), and the decoder is total: any byte sequence
//! decodes to some access sequence or terminates early — it never
//! panics, which the trace-replay fuzz suite relies on.
//!
//! `DeltaCodec` is the format's one encoder and one decoder step;
//! [`CompactBuf`] / [`CompactIter`] are the stream over it.
//!
//! # Examples
//!
//! ```
//! use memtrace::{Access, Addr, CompactBuf};
//!
//! let mut buf = CompactBuf::new();
//! buf.push(Access::read(Addr::new(0x1000), 8));
//! buf.push(Access::read(Addr::new(0x1008), 8)); // Δ=+8, same size: 2 bytes
//! buf.push(Access::write(Addr::new(0x1008), 8));
//! assert_eq!(buf.len(), 3);
//! let decoded: Vec<_> = buf.iter().collect();
//! assert_eq!(decoded[2], Access::write(Addr::new(0x1008), 8));
//! ```

use crate::access::{Access, AccessKind, Addr};

/// Flag bit 0: the record is a write (clear = read).
const FLAG_WRITE: u8 = 1 << 0;
/// Flag bit 1: the record reuses the previous record's size (no size
/// varint follows).
const FLAG_SAME_SIZE: u8 = 1 << 1;

/// Longest record: the flag byte, a 10-byte address varint, a 5-byte
/// size varint.
const MAX_RECORD_BYTES: usize = 16;

/// Writes `v` as an LEB128 varint (7 bits per byte, high bit = more)
/// into `buf` at `at`, returning one past the last byte written. A
/// `u64` takes at most 10 bytes. A record is assembled on the stack
/// and appended once.
#[inline]
fn write_varint(buf: &mut [u8], mut at: usize, mut v: u64) -> usize {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf[at] = b;
            return at + 1;
        }
        buf[at] = b | 0x80;
        at += 1;
    }
}

/// Reads an LEB128 varint starting at `*pos`. Returns `None` on a
/// truncated buffer; bits past the 64th are discarded rather than
/// overflowing, so arbitrary input can never panic.
#[inline]
fn take_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        if shift < 64 {
            v |= u64::from(b & 0x7f) << shift;
        }
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Maps a signed delta onto an unsigned varint-friendly value
/// (0, -1, 1, -2 → 0, 1, 2, 3).
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The access-record codec: the delta state one end of a stream carries
/// from record to record (both ends start from `default()`), with the
/// one encoder and the one decoder step of the wire format. A record's
/// flag byte only ever has bits 0 and 1 set, and the decoder reads no
/// others.
#[derive(Clone, Copy, Debug, Default)]
struct DeltaCodec {
    prev_addr: u64,
    prev_size: u32,
}

impl DeltaCodec {
    /// Appends the record for `access` to `bytes`.
    #[inline]
    fn encode(&mut self, access: Access, bytes: &mut Vec<u8>) {
        let addr = access.addr.raw();
        let delta = addr.wrapping_sub(self.prev_addr) as i64;
        let mut flags = 0u8;
        if access.kind == AccessKind::Write {
            flags |= FLAG_WRITE;
        }
        if access.size == self.prev_size {
            flags |= FLAG_SAME_SIZE;
        }
        // Assemble the record on the stack and append it in one go: one
        // capacity check per record instead of one per byte.
        let mut rec = [0u8; MAX_RECORD_BYTES];
        rec[0] = flags;
        let mut len = write_varint(&mut rec, 1, zigzag(delta));
        if flags & FLAG_SAME_SIZE == 0 {
            len = write_varint(&mut rec, len, u64::from(access.size));
            self.prev_size = access.size;
        }
        bytes.extend_from_slice(&rec[..len]);
        self.prev_addr = addr;
    }

    /// Decodes the record whose flag byte `flags` was read just before
    /// `*pos`, advancing `*pos` past it. Returns `None` — with the
    /// delta state untouched — when the buffer ends mid-record.
    #[inline]
    fn decode(&mut self, flags: u8, bytes: &[u8], pos: &mut usize) -> Option<Access> {
        let delta = unzigzag(take_varint(bytes, pos)?);
        let size = if flags & FLAG_SAME_SIZE == 0 {
            // Sizes wider than u32 cannot be produced by the encoder;
            // treat a hostile varint as its low 32 bits.
            take_varint(bytes, pos)? as u32
        } else {
            self.prev_size
        };
        self.prev_addr = self.prev_addr.wrapping_add(delta as u64);
        self.prev_size = size;
        let addr = Addr::new(self.prev_addr);
        Some(if flags & FLAG_WRITE == 0 {
            Access::read(addr, size)
        } else {
            Access::write(addr, size)
        })
    }
}

/// A growable batch of delta-encoded accesses. See the module docs for
/// the wire format.
#[derive(Clone, Debug, Default)]
pub struct CompactBuf {
    bytes: Vec<u8>,
    records: usize,
    codec: DeltaCodec,
}

impl CompactBuf {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        CompactBuf::default()
    }

    /// Appends one access.
    #[inline]
    pub fn push(&mut self, access: Access) {
        self.codec.encode(access, &mut self.bytes);
        self.records += 1;
    }

    /// Number of records encoded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records
    }

    /// `true` if no records are encoded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Size of the encoded byte stream.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Removes all records, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.records = 0;
        self.codec = DeltaCodec::default();
    }

    /// The raw encoded bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Decodes the records in insertion order.
    #[must_use]
    pub fn iter(&self) -> CompactIter<'_> {
        CompactIter::new(&self.bytes)
    }
}

impl<'a> IntoIterator for &'a CompactBuf {
    type Item = Access;
    type IntoIter = CompactIter<'a>;

    fn into_iter(self) -> CompactIter<'a> {
        self.iter()
    }
}

impl Extend<Access> for CompactBuf {
    fn extend<T: IntoIterator<Item = Access>>(&mut self, iter: T) {
        for access in iter {
            self.push(access);
        }
    }
}

/// Streaming decoder over a compact byte buffer.
///
/// Total over arbitrary input: a record whose varint is truncated by the
/// end of the buffer simply ends the iteration.
#[derive(Clone, Debug)]
pub struct CompactIter<'a> {
    bytes: &'a [u8],
    pos: usize,
    codec: DeltaCodec,
}

impl<'a> CompactIter<'a> {
    /// Decodes `bytes` as a compact record stream. Any byte sequence is
    /// accepted; malformed tails terminate the stream early.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        CompactIter {
            bytes,
            pos: 0,
            codec: DeltaCodec::default(),
        }
    }
}

impl Iterator for CompactIter<'_> {
    type Item = Access;

    #[inline]
    fn next(&mut self) -> Option<Access> {
        let flags = *self.bytes.get(self.pos)?;
        let mut pos = self.pos + 1;
        let access = self.codec.decode(flags, self.bytes, &mut pos)?;
        self.pos = pos;
        Some(access)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(accesses: &[Access]) {
        let mut buf = CompactBuf::new();
        buf.extend(accesses.iter().copied());
        assert_eq!(buf.len(), accesses.len());
        let decoded: Vec<_> = buf.iter().collect();
        assert_eq!(decoded, accesses);
    }

    #[test]
    fn empty_buffer_round_trips() {
        round_trip(&[]);
        let buf = CompactBuf::new();
        assert!(buf.is_empty());
        assert_eq!(buf.byte_len(), 0);
    }

    #[test]
    fn strided_reads_encode_two_bytes_per_record() {
        let mut buf = CompactBuf::new();
        for i in 0..100u64 {
            buf.push(Access::read(Addr::new(0x1000 + i * 8), 8));
        }
        // First record: flag + 2-byte delta + size byte. Every later
        // record: flag + 1-byte delta (Δ=8 zigzags to 16).
        assert_eq!(buf.byte_len(), 4 + 99 * 2);
        let decoded: Vec<_> = buf.iter().collect();
        assert_eq!(decoded.len(), 100);
        assert_eq!(decoded[99], Access::read(Addr::new(0x1000 + 99 * 8), 8));
    }

    #[test]
    fn mixed_kinds_sizes_and_backward_deltas_round_trip() {
        round_trip(&[
            Access::write(Addr::new(0xffff_ffff_ffff_fff0), 4),
            Access::read(Addr::new(0), 1),
            Access::read(Addr::new(u64::MAX), u32::MAX),
            Access::write(Addr::new(0x10), 0),
            Access::write(Addr::new(0x10), 0),
        ]);
    }

    #[test]
    fn clear_resets_delta_state() {
        let mut buf = CompactBuf::new();
        buf.push(Access::read(Addr::new(0x4000), 8));
        buf.clear();
        assert!(buf.is_empty());
        buf.push(Access::read(Addr::new(0x4000), 8));
        let decoded: Vec<_> = buf.iter().collect();
        assert_eq!(decoded, vec![Access::read(Addr::new(0x4000), 8)]);
    }

    #[test]
    fn zigzag_is_self_inverse_at_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 1 << 62, -(1 << 62)] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn truncated_and_arbitrary_bytes_never_panic() {
        let mut buf = CompactBuf::new();
        for i in 0..10u64 {
            buf.push(Access::write(Addr::new(i * 4096), 16));
        }
        let bytes = buf.as_bytes();
        for cut in 0..bytes.len() {
            let n = CompactIter::new(&bytes[..cut]).count();
            assert!(n <= 10);
        }
        // A run of continuation bytes (high bit set) must terminate
        // without overflowing the shift.
        let hostile = vec![0x00u8; 1]
            .into_iter()
            .chain([0xffu8; 64])
            .collect::<Vec<_>>();
        let _ = CompactIter::new(&hostile).count();
    }
}
