//! Segment file layout and the scan-truncate recovery rule.
//!
//! A segment is a flat sequence of checksummed records:
//!
//! | bytes | field | notes |
//! |---|---|---|
//! | 4 | `len` (u32 LE) | body length, ≤ [`MAX_RECORD_BYTES`] |
//! | 4 | `crc` (u32 LE) | CRC-32 (IEEE) of the body |
//! | `len` | body | `user` varint · `t` zigzag · opaque payload |
//!
//! The body's `user`/`t` prefix is what the sparse index keys on; the
//! payload is opaque to the store (the serving layer stores binary wire
//! frame payloads there). A scan stops at the first record that fails any
//! check — short header, oversized or out-of-bounds length, checksum
//! mismatch, malformed body — and reports the byte offset of the last
//! valid record boundary in a [`TornTail`]. Everything before that offset
//! is trusted; everything after is a torn tail from an interrupted write
//! and is truncated away on open. A scan never panics on arbitrary bytes.

use crate::codec::{crc32, put_varint, put_zigzag, Reader};

/// Ceiling on one record body: bounds scan-time allocations no matter what
/// a corrupt length field claims.
pub const MAX_RECORD_BYTES: usize = 1 << 20;

/// Reserved `user` id marking control records (Hello/Finish sentinels):
/// they participate in sequential replay but are invisible to per-user
/// historical reads.
pub const SENTINEL_USER: u32 = u32::MAX;

/// A torn or corrupt segment tail: scanning stopped at `offset`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the last valid record boundary — the file is intact
    /// in `[0, offset)` and must be truncated to `offset`.
    pub offset: u64,
    /// Why the record starting at `offset` was rejected.
    pub detail: String,
}

impl std::fmt::Display for TornTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "torn segment tail at byte {}: {}", self.offset, self.detail)
    }
}

impl std::error::Error for TornTail {}

/// One decoded record, borrowed from the scanned buffer.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    /// Byte offset of the record header within the segment.
    pub offset: u64,
    /// Indexed user id ([`SENTINEL_USER`] for control records).
    pub user: u32,
    /// Indexed event time.
    pub t: i64,
    /// The opaque payload.
    pub payload: &'a [u8],
}

/// Append one framed record to `buf`; returns the encoded record length.
///
/// The body is encoded straight into `buf` behind a reserved 8-byte
/// header, which is patched with the length and CRC afterwards — no
/// per-record allocation. An oversized body panics with `buf` restored to
/// its prior length, so a caller that catches the panic keeps a valid log.
pub fn append_record(buf: &mut Vec<u8>, user: u32, t: i64, payload: &[u8]) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; 8]);
    put_varint(buf, u64::from(user));
    put_zigzag(buf, t);
    buf.extend_from_slice(payload);
    let body_len = buf.len() - start - 8;
    if body_len > MAX_RECORD_BYTES {
        buf.truncate(start);
        panic!("record body {body_len} exceeds cap");
    }
    let crc = crc32(&buf[start + 8..]);
    buf[start..start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
    buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    body_len + 8
}

/// Scan `bytes` as a segment, yielding each valid record to `f` in order
/// until `f` returns `false`.
///
/// Returns `Ok(count)` on a clean stop or when the buffer is exactly a
/// whole number of valid records, otherwise `Err(TornTail)` after yielding
/// the valid prefix.
pub fn scan_records<'a>(
    bytes: &'a [u8],
    mut f: impl FnMut(RecordRef<'a>) -> bool,
) -> Result<usize, TornTail> {
    let mut off = 0usize;
    let mut count = 0usize;
    let torn = |off: usize, detail: String| TornTail { offset: off as u64, detail };
    while off < bytes.len() {
        let rest = &bytes[off..];
        if rest.len() < 8 {
            return Err(torn(off, format!("{}-byte partial record header", rest.len())));
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_RECORD_BYTES {
            return Err(torn(off, format!("record length {len} exceeds {MAX_RECORD_BYTES} cap")));
        }
        if rest.len() < 8 + len {
            return Err(torn(
                off,
                format!("record claims {len} body bytes, {} remain", rest.len() - 8),
            ));
        }
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        let body = &rest[8..8 + len];
        let got = crc32(body);
        if got != crc {
            return Err(torn(
                off,
                format!("checksum mismatch: stored {crc:#010x}, body {got:#010x}"),
            ));
        }
        let mut r = Reader::new(body);
        let rec = (|| -> Result<RecordRef<'a>, crate::codec::CodecError> {
            let user = r.varint()?;
            if user > u64::from(u32::MAX) {
                return Err(crate::codec::CodecError {
                    offset: 0,
                    detail: format!("user id {user} exceeds u32"),
                });
            }
            let t = r.zigzag()?;
            Ok(RecordRef { offset: off as u64, user: user as u32, t, payload: &body[r.pos()..] })
        })();
        match rec {
            Ok(rec) => {
                let keep_going = f(rec);
                off += 8 + len;
                count += 1;
                if !keep_going {
                    return Ok(count);
                }
            }
            Err(e) => return Err(torn(off, format!("malformed record body: {e}"))),
        }
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_segment(n: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        for i in 0..n {
            let payload = vec![i as u8; (i % 7) + 1];
            append_record(&mut buf, i as u32 % 5, 1_000 + i as i64, &payload);
        }
        buf
    }

    type Collected = (Vec<(u32, i64, Vec<u8>)>, Result<usize, TornTail>);

    fn collect(bytes: &[u8]) -> Collected {
        let mut recs = Vec::new();
        let res = scan_records(bytes, |r| {
            recs.push((r.user, r.t, r.payload.to_vec()));
            true
        });
        (recs, res)
    }

    #[test]
    fn roundtrip_scan() {
        let buf = sample_segment(20);
        let (recs, res) = collect(&buf);
        assert_eq!(res.unwrap(), 20);
        assert_eq!(recs.len(), 20);
        assert_eq!(recs[3], (3, 1_003, vec![3u8; 4]));
    }

    #[test]
    fn truncation_mid_record_reports_last_boundary() {
        let buf = sample_segment(5);
        let (full, _) = collect(&buf);
        // Cut inside the last record's body.
        let cut = buf.len() - 2;
        let (recs, res) = collect(&buf[..cut]);
        let torn = res.unwrap_err();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs, full[..4].to_vec());
        // The reported boundary is exactly where the 5th record started.
        let mut offsets = Vec::new();
        scan_records(&buf, |r| {
            offsets.push(r.offset);
            true
        })
        .unwrap();
        assert_eq!(torn.offset, offsets[4]);
    }

    #[test]
    fn scan_stops_early_when_asked() {
        let buf = sample_segment(10);
        let mut seen = 0usize;
        let n = scan_records(&buf, |_| {
            seen += 1;
            seen < 3
        })
        .unwrap();
        assert_eq!(n, 3);
        assert_eq!(seen, 3);
    }

    #[test]
    fn bit_flip_is_caught_by_checksum() {
        let mut buf = sample_segment(5);
        let flip_at = buf.len() - 3; // inside the last body
        buf[flip_at] ^= 0x10;
        let (recs, res) = collect(&buf);
        assert_eq!(recs.len(), 4);
        assert!(res.unwrap_err().detail.contains("checksum"), "expected checksum failure");
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]);
        let (recs, res) = collect(&buf);
        assert!(recs.is_empty());
        let torn = res.unwrap_err();
        assert_eq!(torn.offset, 0);
        assert!(torn.detail.contains("cap"));
    }

    /// The framing before records were encoded in place: body into its
    /// own buffer, then header and body appended.
    fn framed_via_body_vec(user: u32, t: i64, payload: &[u8]) -> Vec<u8> {
        let mut body = Vec::new();
        put_varint(&mut body, u64::from(user));
        put_zigzag(&mut body, t);
        body.extend_from_slice(payload);
        let mut out = Vec::new();
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    #[test]
    fn in_place_framing_matches_body_vec_framing() {
        let large = vec![0x5Au8; MAX_RECORD_BYTES - 32];
        let cases: [(u32, i64, &[u8]); 7] = [
            (0, 0, &[]),
            (7, -1, &[]),
            (SENTINEL_USER, 0, b"ctl"),
            (u32::MAX - 1, i64::MAX, &[1, 2, 3]),
            (u32::MAX - 1, i64::MIN, &[]),
            (1, i64::MIN, &large),
            (u32::MAX - 1, i64::MAX, &large),
        ];
        // Appending after existing bytes must leave them untouched.
        let mut buf = vec![0xEEu8; 5];
        let mut want = buf.clone();
        for (user, t, payload) in cases {
            let n = append_record(&mut buf, user, t, payload);
            let framed = framed_via_body_vec(user, t, payload);
            assert_eq!(n, framed.len());
            want.extend_from_slice(&framed);
            assert_eq!(buf, want, "user {user} t {t} payload {} bytes", payload.len());
        }
    }

    #[test]
    fn oversized_record_panics_and_leaves_buffer_intact() {
        let mut buf = Vec::new();
        append_record(&mut buf, 1, 10, b"kept");
        let before = buf.clone();
        let big = vec![0u8; MAX_RECORD_BYTES];
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            append_record(&mut buf, 2, 20, &big);
        }));
        assert!(res.is_err(), "an oversized body must panic");
        assert_eq!(buf, before, "the failed append left no partial frame");
    }

    #[test]
    fn empty_segment_is_valid() {
        let (recs, res) = collect(&[]);
        assert_eq!(res.unwrap(), 0);
        assert!(recs.is_empty());
    }
}
