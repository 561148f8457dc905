//! # rl-wire — length-prefixed, CRC-checked binary framing
//!
//! The shared framing layer under the socket protocol, WAL segments, and the
//! replication stream. One frame on the wire is:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  "RW"  (0x52 0x57)
//! 2       1     wire format version (currently 1)
//! 3       1     frame type tag (meaning assigned by the layer above)
//! 4       4     payload length, u32 little-endian
//! 8       4     CRC-32 (IEEE) of header bytes 2..8 + payload, u32 LE
//! 12      len   payload bytes
//! ```
//!
//! Design rules:
//!
//! - **The header is self-describing.** Magic + version reject foreign or
//!   future streams before any length is trusted; a max-frame guard
//!   rejects absurd lengths before any allocation.
//! - **Corruption is detected, never misparsed.** The CRC covers the full
//!   payload; a bit flip yields [`WireError::Corrupt`], a stream that ends
//!   mid-frame yields [`WireError::Truncated`].
//! - **No allocation per frame on the hot path.** [`FrameWriter`] batches
//!   encoded frames into one owned buffer flushed with a single write;
//!   [`FrameReader`] reads payloads into a reused internal buffer and
//!   lends them out as `&[u8]` (zero-copy for the caller). Both are
//!   resumable across `WouldBlock`/timeout errors, so they work over
//!   nonblocking sockets and read-timeout loops alike.
//! - [`peek_frame`] decodes from an in-memory buffer without consuming,
//!   for readiness-driven reactors that accumulate bytes themselves.

use std::fmt;
use std::io::{self, Read, Write};

/// First two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"RW";
/// Current wire format version (header byte 2).
pub const WIRE_VERSION: u8 = 1;
/// Bytes before the payload: magic + version + tag + len + crc.
pub const HEADER_LEN: usize = 12;
/// Default maximum payload length (256 MiB) — matches the WAL's frame
/// guard; anything larger is treated as corruption, not a request.
pub const DEFAULT_MAX_FRAME: u32 = 256 * 1024 * 1024;

/// IEEE CRC-32 (polynomial 0xEDB88320), the same checksum the v1 JSON WAL
/// frames used — moved here so every framed byte stream in the workspace
/// shares one implementation.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// Incremental CRC-32 (IEEE), for checksums spanning disjoint buffers.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh state.
    pub fn new() -> Self {
        Crc32 { state: !0u32 }
    }

    /// Feeds bytes into the checksum: slicing-by-8, eight bytes a step
    /// through the eight static `CRC_TABLES`, then the tail a byte at a
    /// time through table 0. Any split of the same bytes gives the same
    /// state.
    pub fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t7[(lo & 0xFF) as usize]
                ^ t6[((lo >> 8) & 0xFF) as usize]
                ^ t5[((lo >> 16) & 0xFF) as usize]
                ^ t4[(lo >> 24) as usize]
                ^ t3[(hi & 0xFF) as usize]
                ^ t2[((hi >> 8) & 0xFF) as usize]
                ^ t1[((hi >> 16) & 0xFF) as usize]
                ^ t0[(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t0[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Finalizes (the state itself is untouched, so this can be read
    /// mid-stream).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// The frame checksum: covers header bytes 2..8 (version, tag, length)
/// *and* the payload, so a bit flip anywhere but the magic is caught by
/// CRC rather than accepted as a different-but-valid frame.
fn frame_crc(version: u8, tag: u8, len: u32, payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&[version, tag]);
    crc.update(&len.to_le_bytes());
    crc.update(payload);
    crc.finish()
}

/// The slicing-by-8 tables, built at compile time (8 KiB of static data,
/// nothing on the heap). `CRC_TABLES[0][b]` is the byte table: the CRC
/// register after shifting byte `b` through it. `CRC_TABLES[k][b]` is the
/// same for `b` followed by `k` zero bytes, so one step folds eight bytes
/// with eight lookups.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Why a byte stream failed to parse as frames.
#[derive(Debug)]
pub enum WireError {
    /// An I/O error from the underlying stream. `WouldBlock` / `TimedOut`
    /// here are resumable: the reader keeps its partial state and the
    /// next call continues where it left off.
    Io(io::Error),
    /// The first two bytes were not `"RW"` — not a frame stream.
    BadMagic([u8; 2]),
    /// A frame from a newer (or corrupt) wire format.
    BadVersion(u8),
    /// Declared payload length exceeds the configured maximum.
    TooLarge { len: u32, max: u32 },
    /// Payload bytes did not match the header CRC.
    Corrupt { expected: u32, found: u32 },
    /// The stream ended mid-frame (peer closed between header and
    /// payload, or inside the header).
    Truncated,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::BadMagic(m) => {
                write!(f, "bad frame magic {:02x}{:02x} (want \"RW\")", m[0], m[1])
            }
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::TooLarge { len, max } => {
                write!(f, "frame payload {len} bytes exceeds max {max}")
            }
            WireError::Corrupt { expected, found } => {
                write!(
                    f,
                    "frame crc mismatch: header {expected:#010x}, payload {found:#010x}"
                )
            }
            WireError::Truncated => write!(f, "stream ended mid-frame"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// True when the error is a resumable read timeout / would-block, not
    /// a real failure.
    pub fn is_would_block(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
        )
    }
}

/// An owned frame: type tag + payload. The codec unit for tests and for
/// call sites that buffer whole frames anyway; the streaming paths use
/// [`FrameWriter`]/[`FrameReader`] to avoid the per-frame allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame type tag — opaque to this layer.
    pub tag: u8,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a frame.
    pub fn new(tag: u8, payload: Vec<u8>) -> Self {
        Frame { tag, payload }
    }

    /// Total encoded size (header + payload).
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Appends the encoded frame to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_frame_into(self.tag, &self.payload, out);
    }

    /// Encodes into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decodes exactly one frame from `bytes`; trailing bytes are an
    /// error (use [`peek_frame`] to parse out of a longer buffer).
    ///
    /// # Errors
    /// Any [`WireError`] the header or CRC check produces;
    /// [`WireError::Truncated`] when `bytes` is shorter than the declared
    /// frame or has trailing garbage.
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        match peek_frame(bytes, DEFAULT_MAX_FRAME)? {
            Some((tag, payload, consumed)) if consumed == bytes.len() => {
                Ok(Frame::new(tag, payload.to_vec()))
            }
            _ => Err(WireError::Truncated),
        }
    }
}

/// Appends one encoded frame (header + payload) to `out`.
pub fn encode_frame_into(tag: u8, payload: &[u8], out: &mut Vec<u8>) {
    debug_assert!(payload.len() <= DEFAULT_MAX_FRAME as usize);
    out.reserve(HEADER_LEN + payload.len());
    let len = payload.len() as u32;
    out.extend_from_slice(&MAGIC);
    out.push(WIRE_VERSION);
    out.push(tag);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&frame_crc(WIRE_VERSION, tag, len, payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// A frame peeked from a buffer: `(tag, payload, consumed)`.
pub type Peeked<'a> = (u8, &'a [u8], usize);

/// Tries to decode one frame from the front of `buf` **without consuming
/// it**. Returns `Ok(Some((tag, payload, consumed)))` when a complete,
/// CRC-valid frame is present (`consumed` = header + payload bytes),
/// `Ok(None)` when more bytes are needed, and an error when the buffer
/// head can never become a valid frame.
///
/// # Errors
/// [`WireError::BadMagic`] / [`WireError::BadVersion`] /
/// [`WireError::TooLarge`] on a hopeless header,
/// [`WireError::Corrupt`] on a CRC mismatch.
pub fn peek_frame(buf: &[u8], max_frame: u32) -> Result<Option<Peeked<'_>>, WireError> {
    if buf.len() < HEADER_LEN {
        // Reject a wrong magic as soon as the first bytes show it, so a
        // JSON line accidentally sent to a binary stream fails fast.
        let n = buf.len().min(2);
        if buf[..n] != MAGIC[..n] {
            return Err(WireError::BadMagic([
                buf.first().copied().unwrap_or(0),
                buf.get(1).copied().unwrap_or(0),
            ]));
        }
        return Ok(None);
    }
    if buf[0..2] != MAGIC {
        return Err(WireError::BadMagic([buf[0], buf[1]]));
    }
    if buf[2] != WIRE_VERSION {
        return Err(WireError::BadVersion(buf[2]));
    }
    let tag = buf[3];
    let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if len > max_frame {
        return Err(WireError::TooLarge {
            len,
            max: max_frame,
        });
    }
    let expected = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
    let total = HEADER_LEN + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let payload = &buf[HEADER_LEN..total];
    let found = frame_crc(buf[2], tag, len, payload);
    if found != expected {
        return Err(WireError::Corrupt { expected, found });
    }
    Ok(Some((tag, payload, total)))
}

/// Whether `buf` holds every byte of the frame its header announces. Reads
/// the length field only and validates nothing: it tells a frame that is
/// still arriving from one [`peek_frame`] will have a verdict on, without
/// the CRC pass.
pub fn frame_buffered(buf: &[u8]) -> bool {
    buf.len() >= HEADER_LEN
        && buf.len() - HEADER_LEN >= u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize
}

/// Validates a frame whose header and payload sit in separate buffers
/// (the shape file-based readers produce) and returns the type tag.
///
/// # Errors
/// The same contract as [`peek_frame`]: magic/version errors on a
/// hopeless header, [`WireError::Corrupt`] when the CRC (or the declared
/// length vs. the payload actually supplied) does not match.
pub fn verify_frame(header: &[u8; HEADER_LEN], payload: &[u8]) -> Result<u8, WireError> {
    if header[0..2] != MAGIC {
        return Err(WireError::BadMagic([header[0], header[1]]));
    }
    if header[2] != WIRE_VERSION {
        return Err(WireError::BadVersion(header[2]));
    }
    let tag = header[3];
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let expected = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    let found = frame_crc(header[2], tag, len, payload);
    if len as usize != payload.len() || found != expected {
        return Err(WireError::Corrupt { expected, found });
    }
    Ok(tag)
}

/// Buffered frame writer: frames accumulate in one owned buffer and go
/// out in a single `write_all` on [`FrameWriter::flush`], so a pipelined
/// batch of requests costs one syscall, not one per frame.
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    inner: W,
    buf: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps a stream.
    pub fn new(inner: W) -> Self {
        FrameWriter {
            inner,
            buf: Vec::with_capacity(4096),
        }
    }

    /// Encodes one frame into the output buffer (no I/O yet).
    pub fn write_frame(&mut self, tag: u8, payload: &[u8]) {
        encode_frame_into(tag, payload, &mut self.buf);
    }

    /// Bytes buffered and not yet flushed.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Writes all buffered frames and flushes the underlying stream.
    ///
    /// # Errors
    /// Propagates the underlying write error; the buffer is preserved so
    /// a resumable error (timeout) can be retried. On success the buffer
    /// is emptied but keeps its capacity.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.inner.write_all(&self.buf)?;
            self.buf.clear();
        }
        self.inner.flush()
    }

    /// The wrapped stream.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }

    /// Unwraps, discarding any unflushed bytes.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// Incremental frame-read state, independent of the stream: header and
/// payload fill across calls, so a read timeout mid-frame loses nothing.
#[derive(Debug)]
struct ReadState {
    hdr: [u8; HEADER_LEN],
    hdr_filled: usize,
    payload: Vec<u8>,
    payload_filled: usize,
    /// Some(len) once the header has been validated.
    expect: Option<usize>,
    max_frame: u32,
}

impl ReadState {
    fn new(max_frame: u32) -> Self {
        ReadState {
            hdr: [0; HEADER_LEN],
            hdr_filled: 0,
            payload: Vec::new(),
            payload_filled: 0,
            expect: None,
            max_frame,
        }
    }

    /// Validates the completed header, recording and returning the
    /// expected payload length.
    fn commit_header(&mut self) -> Result<usize, WireError> {
        if self.hdr[0..2] != MAGIC {
            return Err(WireError::BadMagic([self.hdr[0], self.hdr[1]]));
        }
        if self.hdr[2] != WIRE_VERSION {
            return Err(WireError::BadVersion(self.hdr[2]));
        }
        let len = u32::from_le_bytes([self.hdr[4], self.hdr[5], self.hdr[6], self.hdr[7]]);
        if len > self.max_frame {
            return Err(WireError::TooLarge {
                len,
                max: self.max_frame,
            });
        }
        let len = len as usize;
        if self.payload.len() < len {
            self.payload.resize(len, 0);
        }
        self.payload_filled = 0;
        self.expect = Some(len);
        Ok(len)
    }

    /// Verifies the CRC of a completed `len`-byte payload and resets for
    /// the next frame. Returns the tag.
    fn commit_payload(&mut self, len: usize) -> Result<u8, WireError> {
        self.expect = None;
        let expected = u32::from_le_bytes([self.hdr[8], self.hdr[9], self.hdr[10], self.hdr[11]]);
        let found = frame_crc(self.hdr[2], self.hdr[3], len as u32, &self.payload[..len]);
        if found != expected {
            return Err(WireError::Corrupt { expected, found });
        }
        self.hdr_filled = 0;
        Ok(self.hdr[3])
    }
}

/// Buffered, resumable frame reader. Payload bytes land in an internal
/// reused buffer and are returned as a borrow — no allocation per frame
/// once the buffer has grown to the working set's frame size.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    inner: R,
    state: ReadState,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a stream with the default max-frame guard.
    pub fn new(inner: R) -> Self {
        Self::with_max_frame(inner, DEFAULT_MAX_FRAME)
    }

    /// Wraps a stream with an explicit max payload length.
    pub fn with_max_frame(inner: R, max_frame: u32) -> Self {
        FrameReader {
            inner,
            state: ReadState::new(max_frame),
        }
    }

    /// Reads the next frame. Returns `Ok(None)` on a clean EOF at a
    /// frame boundary.
    ///
    /// A `WouldBlock`/`TimedOut` I/O error is resumable: partial header
    /// or payload progress is kept and the next call continues filling.
    ///
    /// # Errors
    /// [`WireError::Truncated`] when the stream ends mid-frame, plus the
    /// header/CRC errors from [`peek_frame`]'s contract.
    pub fn read_frame(&mut self) -> Result<Option<(u8, &[u8])>, WireError> {
        let len = loop {
            if let Some(len) = self.state.expect {
                break len;
            }
            if self.state.hdr_filled == HEADER_LEN {
                break self.state.commit_header()?;
            }
            let filled = self.state.hdr_filled;
            let n = self.inner.read(&mut self.state.hdr[filled..])?;
            if n == 0 {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(WireError::Truncated);
            }
            self.state.hdr_filled += n;
        };
        while self.state.payload_filled < len {
            let filled = self.state.payload_filled;
            let n = self.inner.read(&mut self.state.payload[filled..len])?;
            if n == 0 {
                return Err(WireError::Truncated);
            }
            self.state.payload_filled += n;
        }
        let tag = self.state.commit_payload(len)?;
        Ok(Some((tag, &self.state.payload[..len])))
    }

    /// The wrapped stream.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Unwraps, discarding any partially read frame.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn crc32_known_vectors() {
        // Same vectors the WAL pinned before the implementation moved here.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    #[test]
    fn frame_roundtrip() {
        let f = Frame::new(7, b"payload bytes".to_vec());
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.encoded_len());
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let f = Frame::new(0, Vec::new());
        assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn peek_needs_more_bytes() {
        let bytes = Frame::new(1, vec![9; 100]).encode();
        for cut in [0, 1, 4, HEADER_LEN, HEADER_LEN + 50] {
            assert!(
                matches!(peek_frame(&bytes[..cut], 1024), Ok(None)),
                "cut {cut}"
            );
            assert!(!frame_buffered(&bytes[..cut]), "cut {cut}");
        }
        let (tag, payload, consumed) = peek_frame(&bytes, 1024).unwrap().unwrap();
        assert_eq!((tag, payload.len(), consumed), (1, 100, bytes.len()));
        assert!(frame_buffered(&bytes));
    }

    #[test]
    fn peek_rejects_bad_magic_early() {
        assert!(matches!(
            peek_frame(b"{", 1024),
            Err(WireError::BadMagic(_))
        ));
        assert!(matches!(
            peek_frame(b"XXlonger than a header....", 1024),
            Err(WireError::BadMagic(_))
        ));
        // A correct first byte alone is not yet decidable.
        assert!(matches!(peek_frame(b"R", 1024), Ok(None)));
    }

    #[test]
    fn peek_rejects_bad_version_and_oversize() {
        let mut bytes = Frame::new(1, vec![1, 2, 3]).encode();
        bytes[2] = 9;
        assert!(matches!(
            peek_frame(&bytes, 1024),
            Err(WireError::BadVersion(9))
        ));
        let mut bytes = Frame::new(1, vec![1, 2, 3]).encode();
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            peek_frame(&bytes, 1024),
            Err(WireError::TooLarge { .. })
        ));
    }

    #[test]
    fn bit_flip_is_corrupt() {
        let bytes = Frame::new(3, b"abcdef".to_vec()).encode();
        for i in HEADER_LEN..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x10;
            assert!(
                matches!(peek_frame(&flipped, 1024), Err(WireError::Corrupt { .. })),
                "flip at {i}"
            );
        }
    }

    #[test]
    fn reader_streams_multiple_frames_and_reports_clean_eof() {
        let mut bytes = Vec::new();
        for i in 0..5u8 {
            encode_frame_into(i, &vec![i; i as usize * 10], &mut bytes);
        }
        let mut r = FrameReader::new(Cursor::new(bytes));
        for i in 0..5u8 {
            let (tag, payload) = r.read_frame().unwrap().unwrap();
            assert_eq!(tag, i);
            assert_eq!(payload, &vec![i; i as usize * 10][..]);
        }
        assert!(r.read_frame().unwrap().is_none());
        assert!(r.read_frame().unwrap().is_none(), "EOF is sticky");
    }

    #[test]
    fn reader_truncated_mid_frame() {
        let bytes = Frame::new(2, vec![7; 64]).encode();
        for cut in [1, HEADER_LEN - 1, HEADER_LEN, HEADER_LEN + 32] {
            let mut r = FrameReader::new(Cursor::new(bytes[..cut].to_vec()));
            assert!(
                matches!(r.read_frame(), Err(WireError::Truncated)),
                "cut {cut}"
            );
        }
    }

    /// A reader that yields `WouldBlock` between every byte — the shape
    /// of a socket with a read timeout under a slow peer.
    struct Trickle {
        bytes: Vec<u8>,
        pos: usize,
        ready: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos == self.bytes.len() {
                return Ok(0);
            }
            if !self.ready {
                self.ready = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "trickle"));
            }
            self.ready = false;
            buf[0] = self.bytes[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn reader_resumes_across_would_block() {
        let mut bytes = Vec::new();
        encode_frame_into(1, b"first", &mut bytes);
        encode_frame_into(2, b"second frame", &mut bytes);
        let mut r = FrameReader::new(Trickle {
            bytes,
            pos: 0,
            ready: false,
        });
        let mut got = Vec::new();
        loop {
            match r.read_frame() {
                Ok(Some((tag, payload))) => got.push((tag, payload.to_vec())),
                Ok(None) => break,
                Err(e) if e.is_would_block() => continue,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(
            got,
            vec![(1, b"first".to_vec()), (2, b"second frame".to_vec())]
        );
    }

    #[test]
    fn writer_batches_frames_into_one_buffer() {
        let mut w = FrameWriter::new(Vec::new());
        w.write_frame(1, b"aa");
        w.write_frame(2, b"bb");
        assert_eq!(w.pending(), 2 * (HEADER_LEN + 2));
        w.flush().unwrap();
        assert_eq!(w.pending(), 0);
        let bytes = w.into_inner();
        let (tag, payload, used) = peek_frame(&bytes, 1024).unwrap().unwrap();
        assert_eq!((tag, payload), (1, &b"aa"[..]));
        let (tag, payload, _) = peek_frame(&bytes[used..], 1024).unwrap().unwrap();
        assert_eq!((tag, payload), (2, &b"bb"[..]));
    }
}
