//! Byte-level primitives: LEB128 varints, zigzag signed integers, raw f64
//! bits, and the CRC-32 (IEEE) checksum that guards every record. This is
//! the workspace's one scalar codec: the segment log, the snapshot files and
//! `geosocial-serve`'s binary wire all encode and decode through it, so a
//! stored record body can embed a wire frame payload without re-encoding
//! anything.

/// Structured decode failure: the byte offset where decoding stopped plus
/// what was expected there. Offsets are relative to the buffer handed to
/// the [`Reader`]; segment-level code rebases them onto file offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset (within the decoded buffer) of the failure.
    pub offset: usize,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error at byte {}: {}", self.offset, self.detail)
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for std::io::Error {
    fn from(e: CodecError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Append `v` as an LEB128 varint (1–10 bytes).
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append `v` zigzag-mapped (small magnitudes stay small, either sign).
#[inline]
pub fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Append `v`'s IEEE-754 bits, little-endian (lossless, 8 bytes).
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append a length-prefixed byte slice.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Sequential decoder over a byte slice with offset-carrying errors.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Decode from the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Current decode offset.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    #[inline]
    fn err<T>(&self, at: usize, detail: impl Into<String>) -> Result<T, CodecError> {
        Err(CodecError { offset: at, detail: detail.into() })
    }

    /// One raw byte.
    #[inline]
    pub fn byte(&mut self) -> Result<u8, CodecError> {
        match self.bytes.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => self.err(self.pos, "unexpected end of input"),
        }
    }

    /// An LEB128 varint (≤ 10 bytes, no u64 overflow).
    #[inline]
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let start = self.pos;
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return self.err(start, "truncated varint");
            };
            self.pos += 1;
            if shift == 63 && b > 1 {
                return self.err(start, "varint overflows u64");
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return self.err(start, "varint longer than 10 bytes");
            }
        }
    }

    /// A zigzag-mapped signed integer.
    #[inline]
    pub fn zigzag(&mut self) -> Result<i64, CodecError> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Eight little-endian bytes as an f64.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        let start = self.pos;
        match self.bytes.get(self.pos..self.pos + 8) {
            Some(raw) => {
                self.pos += 8;
                Ok(f64::from_bits(u64::from_le_bytes(raw.try_into().expect("8 bytes"))))
            }
            None => self.err(start, "truncated f64"),
        }
    }

    /// Eight little-endian bytes as a u64.
    #[inline]
    pub fn u64_le(&mut self) -> Result<u64, CodecError> {
        let start = self.pos;
        match self.bytes.get(self.pos..self.pos + 8) {
            Some(raw) => {
                self.pos += 8;
                Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
            }
            None => self.err(start, "truncated u64"),
        }
    }

    /// A varint that must fit a u32 (`what` names the field in the error).
    #[inline]
    pub fn u32_field(&mut self, what: &str) -> Result<u32, CodecError> {
        let v = self.varint()?;
        u32::try_from(v).or_else(|_| self.err(self.pos, format!("{what} {v} > u32::MAX")))
    }

    /// A length-prefixed byte slice, bounded by what remains.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let start = self.pos;
        let len = self.varint()? as usize;
        if len > self.remaining() {
            return self.err(start, format!("byte slice of {len} exceeds remaining input"));
        }
        let out = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Assert the input is fully consumed.
    #[inline]
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(CodecError {
                offset: self.pos,
                detail: format!("{} trailing bytes", self.bytes.len() - self.pos),
            })
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup table,
/// built at compile time — std-only, no external crc crate.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 60, -60, 63, -64, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            put_zigzag(&mut buf, v);
            assert_eq!(Reader::new(&buf).zigzag().unwrap(), v);
        }
    }

    #[test]
    fn f64_is_bit_exact() {
        for v in [0.0f64, -0.0, 1.5, f64::MIN_POSITIVE, 34.412_345_678_9, f64::NAN] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            assert_eq!(Reader::new(&buf).f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncated_input_reports_offset() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1);
        put_f64(&mut buf, 2.0);
        let mut r = Reader::new(&buf[..4]);
        r.varint().unwrap();
        let e = r.f64().unwrap_err();
        assert_eq!(e.offset, 1);
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn bytes_bounded_by_remaining() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 100);
        buf.extend_from_slice(&[0u8; 10]);
        let e = Reader::new(&buf).bytes().unwrap_err();
        assert_eq!(e.offset, 0);
    }
}
