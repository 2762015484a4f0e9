//! The one byte codec under every format the engine reads and writes:
//! `PIRW` wire frames, `PIRL` log segments and records, `PIRS` session
//! snapshots and `PIRC` checkpoint manifests. [`Enc`] appends
//! little-endian fields in place and backfills reserved slots; [`Dec`]
//! is a strict cursor whose every read is range-checked (a shortfall is
//! [`CodecError::Truncated`], never an index panic); [`crc32`] guards
//! every checksummed span; and [`seal`]/[`open`] write and check the
//! envelope `PIRS` and `PIRC` share: magic, version, 3 zero bytes, `u32`
//! body length, body, CRC-32 over header + body. Format constants stay
//! with each format, which maps [`CodecError`] into its own typed error.

use std::cmp::Ordering;
use std::ops::{Range, RangeInclusive};

/// Envelope header length: magic (4) + version (1) + reserved (3) +
/// body length (4).
pub(crate) const ENVELOPE_HEADER_LEN: usize = 12;
/// Envelope trailer length: the CRC-32 over header + body.
pub(crate) const ENVELOPE_TRAILER_LEN: usize = 4;

/// Every way bytes fail to decode, or a value to encode, at this layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CodecError {
    /// The buffer ended before the layout did.
    Truncated { expected: usize, got: usize },
    /// Bytes were left over after the layout ended.
    TrailingBytes { extra: usize },
    /// A structurally invalid field (bad tag, bad UTF-8, overflow, …).
    Malformed(String),
    /// An envelope not opening with the expected magic.
    BadMagic([u8; 4]),
    /// An envelope version outside the readable range.
    UnsupportedVersion(u8),
    /// Envelope reserved header bytes that are not zero.
    NonZeroReserved,
    /// An envelope body past its format's cap (`len` saturates).
    TooLarge { len: u32, cap: u32 },
    /// A stored CRC-32 that disagrees with the bytes it covers.
    ChecksumMismatch { stored: u32, computed: u32 },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { expected, got } => {
                write!(f, "truncated: needed {expected} bytes, got {got}")
            }
            CodecError::TrailingBytes { extra } => write!(f, "{extra} trailing byte(s)"),
            CodecError::Malformed(reason) => f.write_str(reason),
            CodecError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            CodecError::NonZeroReserved => f.write_str("reserved header bytes set"),
            CodecError::TooLarge { len, cap } => {
                write!(f, "body length {len} exceeds the {cap}-byte cap")
            }
            CodecError::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
        }
    }
}

/// Little-endian field writer appending to a caller-owned buffer, so a
/// frame, record or envelope is encoded in place — straight into a batch
/// or log staging buffer — without an intermediate allocation.
pub(crate) struct Enc<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Enc<'a> {
    pub(crate) fn new(buf: &'a mut Vec<u8>) -> Self {
        Enc { buf }
    }
    /// The offset the next field lands at.
    pub(crate) fn pos(&self) -> usize {
        self.buf.len()
    }
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    /// A `u32` length prefix, then the UTF-8 bytes.
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }
    /// Overwrite the `u32` written earlier at `at` — a length or checksum
    /// known only once what follows it is encoded.
    pub(crate) fn patch_u32(&mut self, at: usize, v: u32) -> Result<(), CodecError> {
        self.patch(at, v.to_le_bytes())
    }
    /// Overwrite the `N` bytes written earlier at `at`.
    pub(crate) fn patch<const N: usize>(
        &mut self,
        at: usize,
        v: [u8; N],
    ) -> Result<(), CodecError> {
        let got = self.buf.len();
        let Some(slot) = self.buf.get_mut(at..).and_then(|rest| rest.first_chunk_mut::<N>()) else {
            return Err(CodecError::Truncated { expected: at.saturating_add(N), got });
        };
        *slot = v;
        Ok(())
    }
    /// CRC-32 of the bytes already written at `range`.
    pub(crate) fn crc(&self, range: Range<usize>) -> Result<u32, CodecError> {
        let (expected, got) = (range.end, self.buf.len());
        self.buf.get(range).map(crc32).ok_or(CodecError::Truncated { expected, got })
    }
}

/// Strict little-endian cursor over untrusted bytes.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    /// Bytes consumed so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }
    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let Some(s) = self.buf.get(self.pos..).and_then(|rest| rest.get(..n)) else {
            return Err(self.short(n));
        };
        self.pos += n;
        Ok(s)
    }
    /// Fixed-size [`take`](Self::take): the array form makes the
    /// byte-order conversions below infallible.
    pub(crate) fn take_arr<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let Some(&arr) = self.buf.get(self.pos..).and_then(|rest| rest.first_chunk::<N>()) else {
            return Err(self.short(N));
        };
        self.pos += N;
        Ok(arr)
    }
    fn short(&self, n: usize) -> CodecError {
        CodecError::Truncated { expected: self.pos.saturating_add(n), got: self.buf.len() }
    }
    /// `n` bytes and the CRC-32 stored right after them, as
    /// `(bytes, stored, computed)`.
    pub(crate) fn checked(&mut self, n: usize) -> Result<(&'a [u8], u32, u32), CodecError> {
        let covered = self.take(n)?;
        Ok((covered, self.u32()?, crc32(covered)))
    }
    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        let [b] = self.take_arr()?;
        Ok(b)
    }
    pub(crate) fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take_arr()?))
    }
    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take_arr()?))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_arr()?))
    }
    pub(crate) fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take_arr()?))
    }
    /// A `u64` that must fit this platform's `usize`.
    pub(crate) fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::Malformed(format!("{v} overflows usize")))
    }
    /// A `u32` length prefix, then that many UTF-8 bytes.
    pub(crate) fn str(&mut self) -> Result<String, CodecError> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| CodecError::Malformed("string is not UTF-8".to_string()))
    }
    /// A byte that must be `0` or `1`.
    pub(crate) fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::Malformed(format!("boolean byte must be 0/1, got {b}"))),
        }
    }
    /// Pre-allocation capacity for a claimed element count: never more
    /// than the remaining bytes could encode at `min_elem_size` bytes
    /// each, so an untrusted count cannot allocate past the buffer (the
    /// decode itself still errors `Truncated` on the shortfall).
    pub(crate) fn capacity(&self, claimed: usize, min_elem_size: usize) -> usize {
        claimed.min(self.remaining() / min_elem_size.max(1))
    }
    /// Succeed only if every byte was consumed.
    pub(crate) fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(CodecError::TrailingBytes { extra }),
        }
    }
}

/// One byte folded through eight rounds of the reflected CRC-32/IEEE
/// polynomial `0xEDB88320`.
const fn crc32_byte(mut c: u32) -> u32 {
    let mut k = 0;
    while k < 8 {
        c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        k += 1;
    }
    c
}

/// Slicing-by-8 tables, built at compile time: `tables[0]` is the
/// classic byte-at-a-time table; `tables[k][b]` folds a byte that sits
/// `k` positions ahead of the running CRC, so eight input bytes fold
/// with eight independent lookups per iteration instead of a serial
/// chain of eight.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = crc32_byte(i as u32);
        let mut k = 0;
        while k < 8 {
            tables[k][i] = c;
            c = crc32_byte(c & 0xFF) ^ (c >> 8);
            k += 1;
        }
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes` — the checksum guarding every segment
/// header, record header, record payload, snapshot and checkpoint
/// manifest. Slicing-by-8: the hot append path checksums every payload,
/// so the byte-serial dependency chain matters.
pub fn crc32(bytes: &[u8]) -> u32 {
    let tables = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let (chunks, rest) = bytes.as_chunks::<8>();
    for chunk in chunks {
        let v = u64::from_le_bytes(*chunk);
        let (lo, hi) = (v as u32 ^ c, (v >> 32) as u32);
        c = tables[7][(lo & 0xFF) as usize]
            ^ tables[6][((lo >> 8) & 0xFF) as usize]
            ^ tables[5][((lo >> 16) & 0xFF) as usize]
            ^ tables[4][(lo >> 24) as usize]
            ^ tables[3][(hi & 0xFF) as usize]
            ^ tables[2][((hi >> 8) & 0xFF) as usize]
            ^ tables[1][((hi >> 16) & 0xFF) as usize]
            ^ tables[0][(hi >> 24) as usize];
    }
    for &b in rest {
        c = tables[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Append one envelope to `out`: the header, the body `body` encodes in
/// place, and the CRC-32 over both. A body past `cap` is refused with
/// [`CodecError::TooLarge`] — the writer enforces the cap [`open`] does,
/// so nothing sealed is unreadable. On any error `out` is truncated back
/// to its original length.
pub(crate) fn seal<E: From<CodecError>>(
    out: &mut Vec<u8>,
    magic: [u8; 4],
    version: u8,
    cap: u32,
    body: impl FnOnce(&mut Enc<'_>) -> Result<(), E>,
) -> Result<(), E> {
    let start = out.len();
    let mut e = Enc::new(out);
    e.bytes(&magic);
    e.u8(version);
    e.bytes(&[0; 3]);
    e.u32(0); // body length, backfilled below
    let sealed = body(&mut e).and_then(|()| {
        let len = e.pos() - start - ENVELOPE_HEADER_LEN;
        let Some(len) = u32::try_from(len).ok().filter(|&len| len <= cap) else {
            let len = u32::try_from(len).unwrap_or(u32::MAX);
            return Err(CodecError::TooLarge { len, cap }.into());
        };
        e.patch_u32(start + 8, len)?;
        let crc = e.crc(start..e.pos())?;
        e.u32(crc);
        Ok(())
    });
    if sealed.is_err() {
        out.truncate(start);
    }
    sealed
}

/// Check one envelope spanning exactly `bytes` and return its version
/// and body. The checks run in a fixed order — short header, magic,
/// version within `versions`, reserved bytes, length within `cap`
/// (before anything is sized from it), short, trailing, checksum — so
/// no body byte is trusted before the checksum passes.
pub(crate) fn open(
    bytes: &[u8],
    magic: [u8; 4],
    versions: RangeInclusive<u8>,
    cap: u32,
) -> Result<(u8, &[u8]), CodecError> {
    let mut d = Dec::new(bytes);
    let mut header = Dec::new(d.take(ENVELOPE_HEADER_LEN)?);
    let found = header.take_arr()?;
    if found != magic {
        return Err(CodecError::BadMagic(found));
    }
    let version = header.u8()?;
    if !versions.contains(&version) {
        return Err(CodecError::UnsupportedVersion(version));
    }
    if header.take_arr()? != [0u8; 3] {
        return Err(CodecError::NonZeroReserved);
    }
    let len = header.u32()?;
    if len > cap {
        return Err(CodecError::TooLarge { len, cap });
    }
    let need = ENVELOPE_HEADER_LEN + len as usize + ENVELOPE_TRAILER_LEN;
    match bytes.len().cmp(&need) {
        Ordering::Less => return Err(CodecError::Truncated { expected: need, got: bytes.len() }),
        Ordering::Greater => return Err(CodecError::TrailingBytes { extra: bytes.len() - need }),
        Ordering::Equal => {}
    }
    let (_, stored, computed) = Dec::new(bytes).checked(need - ENVELOPE_TRAILER_LEN)?;
    if stored != computed {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    Ok((version, d.take(len as usize)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TEST";

    fn sealed(body: &[u8], cap: u32) -> Result<Vec<u8>, CodecError> {
        let mut out = vec![0xAA];
        seal(&mut out, MAGIC, 3, cap, |e| {
            e.bytes(body);
            Ok::<(), CodecError>(())
        })?;
        Ok(out.split_off(1))
    }

    #[test]
    fn seal_then_open_round_trips() {
        let bytes = sealed(b"hello", 5).unwrap();
        assert_eq!(bytes.len(), ENVELOPE_HEADER_LEN + 5 + ENVELOPE_TRAILER_LEN);
        assert_eq!(open(&bytes, MAGIC, 1..=3, 5), Ok((3, &b"hello"[..])));
        assert_eq!(open(&bytes, MAGIC, 1..=2, 5), Err(CodecError::UnsupportedVersion(3)));
    }

    #[test]
    fn sealing_one_byte_over_the_cap_fails_and_restores_the_buffer() {
        let mut out = vec![0xAA, 0xBB];
        let err = seal(&mut out, MAGIC, 1, 4, |e| {
            e.bytes(&[7; 5]);
            Ok::<(), CodecError>(())
        })
        .unwrap_err();
        assert_eq!(err, CodecError::TooLarge { len: 5, cap: 4 });
        assert_eq!(out, vec![0xAA, 0xBB], "a refused envelope leaves no partial bytes");
        // Exactly at the cap is fine.
        assert!(sealed(&[7; 4], 4).is_ok());
    }

    #[test]
    fn a_failing_body_restores_the_buffer() {
        let mut out = vec![0xAA];
        let err = seal(&mut out, MAGIC, 1, 64, |e| {
            e.u64(9);
            Err(CodecError::Malformed("no".to_string()))
        })
        .unwrap_err();
        assert_eq!(err, CodecError::Malformed("no".to_string()));
        assert_eq!(out, vec![0xAA]);
    }

    #[test]
    fn open_reports_the_most_specific_lie_first() {
        let good = sealed(b"body", 64).unwrap();
        let check = |bytes: &[u8]| open(bytes, MAGIC, 3..=3, 64).map(|(v, _)| v);
        assert_eq!(check(&good[..5]), Err(CodecError::Truncated { expected: 12, got: 5 }));
        let mut bad = good.clone();
        bad[0] = b'X';
        bad[4] = 9; // magic is checked before version
        assert_eq!(check(&bad), Err(CodecError::BadMagic(*b"XEST")));
        let mut bad = good.clone();
        bad[4] = 9;
        bad[5] = 1; // version before reserved
        assert_eq!(check(&bad), Err(CodecError::UnsupportedVersion(9)));
        let mut bad = good.clone();
        bad[7] = 1;
        bad[8] = 0xFF; // reserved before cap
        assert_eq!(check(&bad), Err(CodecError::NonZeroReserved));
        let mut bad = good.clone();
        bad[8] = 65;
        assert_eq!(check(&bad), Err(CodecError::TooLarge { len: 65, cap: 64 }));
        assert_eq!(
            check(&good[..good.len() - 1]),
            Err(CodecError::Truncated { expected: 20, got: 19 })
        );
        let mut long = good.clone();
        long.push(0);
        assert_eq!(check(&long), Err(CodecError::TrailingBytes { extra: 1 }));
        let mut bad = good.clone();
        bad[12] ^= 1;
        assert!(matches!(check(&bad), Err(CodecError::ChecksumMismatch { .. })));
    }

    #[test]
    fn dec_is_strict_and_enc_patches_in_place() {
        let mut buf = Vec::new();
        let mut e = Enc::new(&mut buf);
        e.u32(0);
        e.str("hi");
        e.patch_u32(0, 0xDEAD_BEEF).unwrap();
        assert_eq!(e.patch_u32(7, 1), Err(CodecError::Truncated { expected: 11, got: 10 }));
        let mut d = Dec::new(&buf);
        assert_eq!(d.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(d.str().as_deref(), Ok("hi"));
        assert_eq!(d.u8(), Err(CodecError::Truncated { expected: 11, got: 10 }));
        let mut d = Dec::new(&buf);
        d.take(3).unwrap();
        assert_eq!(d.finish(), Err(CodecError::TrailingBytes { extra: 7 }));
    }

    #[test]
    fn checked_spans_carry_their_crc() {
        let mut buf = b"123456789".to_vec();
        buf.extend_from_slice(&crc32(b"123456789").to_le_bytes());
        let (covered, stored, computed) = Dec::new(&buf).checked(9).unwrap();
        assert_eq!((covered, stored, computed), (&b"123456789"[..], 0xCBF4_3926, 0xCBF4_3926));
    }
}
