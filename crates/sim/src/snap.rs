//! Versioned binary state snapshots.
//!
//! The daemon (`dirqd`) checkpoints a live engine so a deployment can be
//! restored bit-identically after a restart: run N epochs, snapshot,
//! restore, run M more must fingerprint equal to a straight N+M run. The
//! codec here is deliberately dumb — little-endian fixed-width fields,
//! length-prefixed sequences, four-byte ASCII section tags — so every
//! layer (core, data, lmac, net) can stream its private state through the
//! same [`SnapWriter`]/[`SnapReader`] pair without a serialisation stack.
//!
//! An on-disk *image* wraps one snapshot body with a magic, the format
//! version and a JSON header describing what was captured (preset, scheme,
//! seed, epoch), so tooling can inspect images without decoding the body;
//! see [`encode_image`]/[`frame_image`]/[`parse_image`].
//!
//! Decoding is total: malformed input yields a typed [`SnapError`], never
//! a panic. Section tags make layout drift fail loudly at the boundary
//! where reader and writer disagree instead of megabytes later.

use crate::json::Json;
use crate::rng::SimRng;

/// Version of the snapshot body layout. Bump on any change to what the
/// engine layers write; restore refuses images recorded under a different
/// version (the golden image pin catches accidental drift).
pub const SNAP_FORMAT_VERSION: u32 = 1;

/// Magic prefix of an image file.
pub const IMAGE_MAGIC: &[u8; 8] = b"DIRQSNAP";

/// The largest counter [`SnapReader::count`] accepts: 2^63. No run counts
/// that far, so a larger value comes only from a corrupt image, and every
/// accepted counter has 2^63 increments left before it overflows.
pub const MAX_COUNT: u64 = 1 << 63;

/// A snapshot decoding failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The input ended before a field could be read.
    Truncated {
        /// Byte offset where the read started.
        pos: usize,
        /// Bytes the field needed.
        needed: usize,
    },
    /// A section tag did not match the expected one.
    BadTag {
        /// Byte offset of the tag.
        pos: usize,
        /// Tag the reader expected.
        expected: [u8; 4],
        /// Tag actually present.
        found: [u8; 4],
    },
    /// The image magic was wrong (not a snapshot file).
    BadMagic,
    /// The image was recorded under an incompatible format version.
    BadVersion {
        /// Version in the image.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// A structurally valid field carried an impossible value.
    Malformed {
        /// Byte offset of the offending field.
        pos: usize,
        /// What was wrong.
        what: &'static str,
    },
    /// Decoding finished but input bytes remain.
    TrailingBytes {
        /// Offset of the first unconsumed byte.
        pos: usize,
    },
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated { pos, needed } => {
                write!(f, "snapshot truncated at byte {pos} (needed {needed} more)")
            }
            SnapError::BadTag { pos, expected, found } => write!(
                f,
                "snapshot section mismatch at byte {pos}: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            SnapError::BadMagic => write!(f, "not a snapshot image (bad magic)"),
            SnapError::BadVersion { found, expected } => {
                write!(f, "snapshot format version {found} (this build reads {expected})")
            }
            SnapError::Malformed { pos, what } => {
                write!(f, "malformed snapshot at byte {pos}: {what}")
            }
            SnapError::TrailingBytes { pos } => {
                write!(f, "trailing bytes after snapshot body (offset {pos})")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only encoder for one snapshot body.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded body.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// A four-byte ASCII section tag (layout-drift tripwire).
    pub fn tag(&mut self, tag: &[u8; 4]) {
        self.buf.extend_from_slice(tag);
    }

    /// One `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// One `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// One `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// One `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// One `u128`, little-endian.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// One `usize`, widened to `u64`.
    pub fn len_of(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// One `f64` by bit pattern (bit-identical restore, NaNs included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// One `bool` as a byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// An `Option<f64>`: presence byte plus the value when present.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        self.bool(v.is_some());
        if let Some(x) = v {
            self.f64(x);
        }
    }

    /// An `Option<u64>`: presence byte plus the value when present.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        self.bool(v.is_some());
        if let Some(x) = v {
            self.u64(x);
        }
    }

    /// An `Option<u16>`: presence byte plus the value when present.
    pub fn opt_u16(&mut self, v: Option<u16>) {
        self.bool(v.is_some());
        if let Some(x) = v {
            self.u16(x);
        }
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.len_of(v.len());
        self.buf.extend_from_slice(v);
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// A length-prefixed `f64` slice.
    pub fn f64s(&mut self, v: &[f64]) {
        self.len_of(v.len());
        for &x in v {
            self.f64(x);
        }
    }

    /// A length-prefixed `u64` slice.
    pub fn u64s(&mut self, v: &[u64]) {
        self.len_of(v.len());
        for &x in v {
            self.u64(x);
        }
    }

    /// A length-prefixed `bool` slice (one byte per element).
    pub fn bools(&mut self, v: &[bool]) {
        self.len_of(v.len());
        for &x in v {
            self.bool(x);
        }
    }

    /// A generator's raw state (resumes the stream exactly on restore).
    pub fn rng(&mut self, rng: &SimRng) {
        for word in rng.state() {
            self.u64(word);
        }
    }
}

/// Cursor-based decoder over one snapshot body.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SnapError::Truncated { pos: self.pos, needed: n })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Expect a section tag written by [`SnapWriter::tag`].
    pub fn tag(&mut self, expected: &[u8; 4]) -> Result<(), SnapError> {
        let pos = self.pos;
        let got = self.take(4)?;
        if got != expected {
            let mut found = [0u8; 4];
            found.copy_from_slice(got);
            return Err(SnapError::BadTag { pos, expected: *expected, found });
        }
        Ok(())
    }

    /// One `u8`.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// One `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// One `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// One `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// One `u128`.
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// A counter the step increments: one `u64` no larger than
    /// [`MAX_COUNT`]; a larger one is [`SnapError::Malformed`].
    pub fn count(&mut self) -> Result<u64, SnapError> {
        let pos = self.pos;
        match self.u64()? {
            n if n <= MAX_COUNT => Ok(n),
            _ => Err(SnapError::Malformed { pos, what: "counter out of range" }),
        }
    }

    /// A length-prefixed vector of counters, each read by
    /// [`SnapReader::count`].
    pub fn counts(&mut self) -> Result<Vec<u64>, SnapError> {
        let n = self.seq_len(8)?;
        (0..n).map(|_| self.count()).collect()
    }

    /// A sequence length; rejects lengths the remaining input cannot hold
    /// (`min_elem_bytes` is the smallest possible encoding of one element,
    /// making absurd lengths fail fast instead of attempting a huge
    /// allocation).
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let pos = self.pos;
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.saturating_mul(min_elem_bytes.max(1) as u64) > remaining {
            return Err(SnapError::Malformed { pos, what: "sequence length exceeds input" });
        }
        Ok(n as usize)
    }

    /// One `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// One `bool`; any byte other than 0/1 is malformed.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        let pos = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Malformed { pos, what: "bool byte not 0/1" }),
        }
    }

    /// An `Option<f64>`.
    pub fn opt_f64(&mut self) -> Result<Option<f64>, SnapError> {
        Ok(if self.bool()? { Some(self.f64()?) } else { None })
    }

    /// An `Option<u64>`.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        Ok(if self.bool()? { Some(self.u64()?) } else { None })
    }

    /// An `Option<u16>`.
    pub fn opt_u16(&mut self) -> Result<Option<u16>, SnapError> {
        Ok(if self.bool()? { Some(self.u16()?) } else { None })
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.seq_len(1)?;
        self.take(n)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapError> {
        let pos = self.pos;
        std::str::from_utf8(self.bytes()?)
            .map_err(|_| SnapError::Malformed { pos, what: "invalid UTF-8 in string" })
    }

    /// A length-prefixed `f64` vector.
    pub fn f64s(&mut self) -> Result<Vec<f64>, SnapError> {
        let n = self.seq_len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// A length-prefixed `bool` vector.
    pub fn bools(&mut self) -> Result<Vec<bool>, SnapError> {
        let n = self.seq_len(1)?;
        (0..n).map(|_| self.bool()).collect()
    }

    /// A generator captured by [`SnapWriter::rng`].
    pub fn rng(&mut self) -> Result<SimRng, SnapError> {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = self.u64()?;
        }
        Ok(SimRng::from_state(s))
    }

    /// Assert the whole input was consumed.
    pub fn expect_eof(&self) -> Result<(), SnapError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes { pos: self.pos })
        }
    }
}

/// Encode an on-disk image in one buffer: magic, format version,
/// length-prefixed JSON `header`, then a body length that `encode` fills
/// in by appending the body in place, and that is patched in afterwards.
/// The buffer is sized for a body of `body_hint` bytes and grows if the
/// body is longer. Returns the image and the offset its body starts at.
pub fn encode_image(
    header: &Json,
    body_hint: usize,
    encode: impl FnOnce(&mut SnapWriter),
) -> (Vec<u8>, usize) {
    let header_text = header.render();
    let mut w =
        SnapWriter { buf: Vec::with_capacity(8 + 4 + 8 + header_text.len() + 8 + body_hint) };
    w.buf.extend_from_slice(IMAGE_MAGIC);
    w.u32(SNAP_FORMAT_VERSION);
    w.str(&header_text);
    let len_at = w.len();
    w.u64(0);
    let start = w.len();
    encode(&mut w);
    let body_len = (w.len() - start) as u64;
    w.buf[len_at..start].copy_from_slice(&body_len.to_le_bytes());
    (w.buf, start)
}

/// Frame a snapshot `body` into an on-disk image (see [`encode_image`]).
pub fn frame_image(header: &Json, body: &[u8]) -> Vec<u8> {
    encode_image(header, body.len(), |w| w.buf.extend_from_slice(body)).0
}

/// Structurally validate an image and return just its header: magic,
/// version, header JSON and framing lengths are checked (so a torn or
/// truncated write is detected), but the body is not decoded — deep
/// validation happens at engine restore. This is what the daemon's
/// crash-recovery scan uses to rank rotating checkpoint slots without
/// rebuilding an engine per candidate.
pub fn check_image(bytes: &[u8]) -> Result<Json, SnapError> {
    parse_image(bytes).map(|(header, _)| header)
}

/// Split an image back into its JSON header and snapshot body. Verifies
/// magic, version and framing; the body itself is decoded by the engine.
pub fn parse_image(bytes: &[u8]) -> Result<(Json, &[u8]), SnapError> {
    let mut r = SnapReader::new(bytes);
    let magic = r.take(8).map_err(|_| SnapError::BadMagic)?;
    if magic != IMAGE_MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = r.u32()?;
    if version != SNAP_FORMAT_VERSION {
        return Err(SnapError::BadVersion { found: version, expected: SNAP_FORMAT_VERSION });
    }
    let header_pos = r.position();
    let header_bytes = r.bytes()?;
    let header_text = std::str::from_utf8(header_bytes)
        .map_err(|_| SnapError::Malformed { pos: header_pos, what: "header is not UTF-8" })?;
    let header = Json::parse(header_text)
        .map_err(|_| SnapError::Malformed { pos: header_pos, what: "header is not valid JSON" })?;
    let body = r.bytes()?;
    r.expect_eof()?;
    Ok((header, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut w = SnapWriter::new();
        w.tag(b"TEST");
        w.u8(7);
        w.u16(513);
        w.u32(70_000);
        w.u64(1 << 40);
        w.u128(u128::MAX - 5);
        w.f64(-0.125);
        w.f64(f64::NAN);
        w.bool(true);
        w.opt_f64(None);
        w.opt_u16(Some(96));
        w.str("dirq");
        w.f64s(&[1.0, 2.5]);
        w.u64s(&[3, 4, 5]);
        w.bools(&[true, false]);
        let body = w.finish();

        let mut r = SnapReader::new(&body);
        r.tag(b"TEST").unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 513);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.u128().unwrap(), u128::MAX - 5);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert_eq!(r.opt_f64().unwrap(), None);
        assert_eq!(r.opt_u16().unwrap(), Some(96));
        assert_eq!(r.str().unwrap(), "dirq");
        assert_eq!(r.f64s().unwrap(), vec![1.0, 2.5]);
        assert_eq!(r.counts().unwrap(), vec![3, 4, 5]);
        assert_eq!(r.bools().unwrap(), vec![true, false]);
        r.expect_eof().unwrap();
    }

    #[test]
    fn counters_past_the_bound_are_malformed() {
        let mut w = SnapWriter::new();
        w.u64(MAX_COUNT);
        w.u64(MAX_COUNT + 1);
        w.u64s(&[1, u64::MAX]);
        let buf = w.finish();
        let mut r = SnapReader::new(&buf);
        assert_eq!(r.count(), Ok(MAX_COUNT));
        let malformed = |pos| SnapError::Malformed { pos, what: "counter out of range" };
        assert_eq!(r.count(), Err(malformed(8)));
        assert_eq!(r.counts(), Err(malformed(32)));
    }

    #[test]
    fn typed_errors_not_panics() {
        // Truncation mid-field.
        let mut w = SnapWriter::new();
        w.u64(42);
        let body = w.finish();
        let mut r = SnapReader::new(&body[..5]);
        assert!(matches!(r.u64(), Err(SnapError::Truncated { .. })));

        // Wrong section tag.
        let mut w = SnapWriter::new();
        w.tag(b"AAAA");
        let body = w.finish();
        let mut r = SnapReader::new(&body);
        assert!(matches!(r.tag(b"BBBB"), Err(SnapError::BadTag { .. })));

        // Absurd sequence length fails before allocating.
        let mut w = SnapWriter::new();
        w.u64(u64::MAX);
        let body = w.finish();
        let mut r = SnapReader::new(&body);
        assert!(matches!(r.f64s(), Err(SnapError::Malformed { .. })));

        // Non-boolean byte.
        let mut r = SnapReader::new(&[9]);
        assert!(matches!(r.bool(), Err(SnapError::Malformed { .. })));

        // Trailing garbage.
        let r = SnapReader::new(&[0]);
        assert!(matches!(r.expect_eof(), Err(SnapError::TrailingBytes { .. })));
    }

    #[test]
    fn encoded_images_frame_the_body_they_encode() {
        let mut header = Json::object();
        header.set("preset", Json::Str("smoke".into()));
        let body: Vec<u8> = (0..100u8).collect();
        for hint in [0, 10, 100, 4096] {
            let (image, start) = encode_image(&header, hint, |w| {
                w.tag(b"BODY");
                w.f64s(&[1.5, -2.0]);
                w.bytes(&body);
            });
            let mut w = SnapWriter::new();
            w.tag(b"BODY");
            w.f64s(&[1.5, -2.0]);
            w.bytes(&body);
            let alone = w.finish();
            assert!(image == frame_image(&header, &alone), "hint {hint}");
            assert_eq!(&image[start..], &alone[..], "hint {hint}");
        }
    }

    #[test]
    fn image_framing_round_trip() {
        let mut header = Json::object();
        header.set("preset", Json::Str("smoke".into()));
        header.set("epoch", Json::Num(17.0));
        let body = vec![1u8, 2, 3, 4];
        let image = frame_image(&header, &body);
        let (h, b) = parse_image(&image).unwrap();
        assert_eq!(h.get("preset").and_then(Json::as_str), Some("smoke"));
        assert_eq!(h.get("epoch").and_then(Json::as_f64), Some(17.0));
        assert_eq!(b, &body[..]);
    }

    #[test]
    fn every_truncation_prefix_is_a_typed_error() {
        // A kill -9 mid-checkpoint leaves an arbitrary prefix of a valid
        // image on disk; the recovery scan must classify every one of
        // them as unusable without panicking.
        let mut header = Json::object();
        header.set("preset", Json::Str("dense_grid_100".into()));
        header.set("epoch", Json::Num(20.0));
        let body: Vec<u8> = (0..64u8).collect();
        let image = frame_image(&header, &body);
        for cut in 0..image.len() {
            assert!(
                check_image(&image[..cut]).is_err(),
                "a {cut}-byte prefix of a {}-byte image must not validate",
                image.len()
            );
        }
        assert!(check_image(&image).is_ok());
        // Trailing garbage (a torn overwrite of a longer older image) is
        // rejected too.
        let mut padded = image.clone();
        padded.extend_from_slice(b"stale tail");
        assert!(matches!(check_image(&padded), Err(SnapError::TrailingBytes { .. })));
    }

    #[test]
    fn image_rejects_bad_magic_and_version() {
        let image = frame_image(&Json::object(), &[]);
        let mut wrong_magic = image.clone();
        wrong_magic[0] ^= 0xFF;
        assert_eq!(parse_image(&wrong_magic), Err(SnapError::BadMagic));

        let mut wrong_version = image.clone();
        wrong_version[8] = 99;
        assert!(matches!(parse_image(&wrong_version), Err(SnapError::BadVersion { .. })));

        // Truncated image.
        assert!(parse_image(&image[..image.len() - 1]).is_err());
        assert_eq!(parse_image(b"nope"), Err(SnapError::BadMagic));
    }
}
