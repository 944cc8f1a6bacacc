//! The frame layer: how one message travels a byte stream.
//!
//! Layout (all integers big-endian):
//!
//! ```text
//! +--------+--------+---------+--------+------------+---------------+=========+
//! | magic0 | magic1 | version | flags  |  len: u32  |   sum: u32    | payload |
//! |  0xC9  |  0x57  |  0x02   |  bits  | payload sz | checksum(pay) | len B   |
//! +--------+--------+---------+--------+------------+---------------+=========+
//! ```
//!
//! The fixed 12-byte header makes truncation detectable (a short read
//! mid-header or mid-payload is [`WireError::Truncated`], never a hang),
//! the magic catches peers speaking a different protocol, the length
//! bound ([`MAX_FRAME`]) caps memory a malicious or corrupt peer can make
//! us allocate, and the [`checksum`] catches in-flight corruption that
//! still delivers the right number of bytes.
//!
//! **Version 2** changed what the `sum` field holds: version 1 summed the
//! payload with a byte-at-a-time FNV-1a 32, version 2 with the
//! word-at-a-time [`checksum`] below — same field, same coverage
//! (extension + head + separator + tail), verified on every read as
//! before, at roughly ten times the bytes per second. There is one
//! function and one version: a version-1 frame is refused with the typed
//! [`WireError::BadVersion`] before its sum is looked at, never misread
//! as corrupt, and nothing is negotiated — the tree's binaries are
//! upgraded together.

use crate::error::WireError;
use cpms_obs::TraceContext;
use std::io::{Read, Write};

/// First magic byte of every frame.
pub const MAGIC: [u8; 2] = [0xC9, 0x57];

/// Protocol version this build speaks, and the only one it reads.
pub const VERSION: u8 = 2;

/// Header size in bytes.
pub const HEADER_LEN: usize = 12;

/// Flags-byte bit: the payload is prefixed with a trace extension
/// (`[ext_version][ext_len][ext bytes…]`, checksummed with the body).
pub const FLAG_TRACE: u8 = 0x01;

/// Flags-byte bit: the sender understands frame extensions. Senders set
/// it on every frame; a peer attaches [`FLAG_TRACE`] extensions only
/// after seeing it, so extension-less builds (which never read the
/// flags byte) keep receiving plain frames.
pub const FLAG_TRACE_CAPABLE: u8 = 0x02;

/// Version byte of the trace extension this build writes.
pub const TRACE_EXT_VERSION: u8 = 1;

/// Largest allowed payload. Control-plane messages are small; anything
/// bigger is a protocol error, not a workload.
pub const MAX_FRAME: u64 = 16 * 1024 * 1024;

/// Total on-the-wire size of a frame carrying `payload_len` payload
/// bytes (exposed so byte counters report framed sizes).
#[must_use]
pub fn framed_len_of(payload_len: usize) -> u64 {
    (HEADER_LEN + payload_len) as u64
}

// Odd 64-bit multipliers (xxHash's primes).
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One lane step: a bijection of `word` for a fixed `acc` and of `acc`
/// for a fixed `word`, so no single changed word goes unnoticed.
fn lane(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte slice"))
}

/// The frame checksum (version 2): a word-at-a-time multiply–rotate hash
/// in xxHash-64's shape — four independent 64-bit lanes over 32-byte
/// blocks, then 8-byte words, then single bytes, the length folded in,
/// a final avalanche, 64 bits folded to the header's 32. A cheap,
/// allocation-free corruption check, not crypto; byte order is fixed
/// (little-endian words), so the sum is the same on every host.
#[must_use]
pub fn checksum(payload: &[u8]) -> u32 {
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut blocks = payload.chunks_exact(32);
    for block in &mut blocks {
        for (acc, bytes) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *acc = lane(*acc, word(bytes));
        }
    }
    let mut hash = lanes[0]
        .rotate_left(1)
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(12))
        .wrapping_add(lanes[3].rotate_left(18));
    for acc in lanes {
        hash = (hash ^ lane(0, acc)).wrapping_mul(P1).wrapping_add(P4);
    }
    hash = hash.wrapping_add(payload.len() as u64);
    let mut words = blocks.remainder().chunks_exact(8);
    for bytes in &mut words {
        hash = (hash ^ lane(0, word(bytes)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    for &byte in words.remainder() {
        hash = (hash ^ u64::from(byte).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    hash = (hash ^ (hash >> 33)).wrapping_mul(P2);
    hash = (hash ^ (hash >> 29)).wrapping_mul(P3);
    ((hash >> 32) ^ hash) as u32
}

/// Encodes `payload` as one plain (extension-less, zero-flags) frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    encode_frame_ext(payload, 0, None)
}

/// Encodes `payload` as one frame with explicit `flags` and an optional
/// trace-context extension. Attaching a context sets [`FLAG_TRACE`] and
/// prefixes the checksummed payload area with
/// `[TRACE_EXT_VERSION][ext_len][context bytes]`.
pub fn encode_frame_ext(payload: &[u8], flags: u8, trace: Option<&TraceContext>) -> Vec<u8> {
    let ext = trace.map(TraceContext::to_bytes);
    let ext_overhead = ext.map_or(0, |e| 2 + e.len());
    let body_len = ext_overhead + payload.len();
    let mut out = Vec::with_capacity(HEADER_LEN + body_len);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(if ext.is_some() {
        flags | FLAG_TRACE
    } else {
        flags & !FLAG_TRACE
    });
    out.extend_from_slice(&u32::try_from(body_len).unwrap_or(u32::MAX).to_be_bytes());
    // Checksum covers extension + payload; computed over the assembled
    // body below, then patched into the header.
    out.extend_from_slice(&[0u8; 4]);
    if let Some(ext) = ext {
        out.push(TRACE_EXT_VERSION);
        out.push(u8::try_from(ext.len()).expect("context encoding fits one byte"));
        out.extend_from_slice(&ext);
    }
    out.extend_from_slice(payload);
    let crc = checksum(&out[HEADER_LEN..]);
    out[8..12].copy_from_slice(&crc.to_be_bytes());
    out
}

/// Writes `payload` as one plain frame.
///
/// # Errors
///
/// [`WireError::TooLarge`] if the payload exceeds [`MAX_FRAME`];
/// otherwise I/O failures classified by [`WireError::from_io`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), WireError> {
    write_frame_ext(w, payload, 0, None)
}

/// Writes `payload` as one frame with explicit `flags` and an optional
/// trace-context extension (see [`encode_frame_ext`]).
///
/// # Errors
///
/// As [`write_frame`].
pub fn write_frame_ext<W: Write>(
    w: &mut W,
    payload: &[u8],
    flags: u8,
    trace: Option<&TraceContext>,
) -> Result<(), WireError> {
    let ext_overhead = if trace.is_some() {
        2 + cpms_obs::CONTEXT_WIRE_LEN as u64
    } else {
        0
    };
    if payload.len() as u64 + ext_overhead > MAX_FRAME {
        return Err(WireError::TooLarge {
            announced: payload.len() as u64 + ext_overhead,
            max: MAX_FRAME,
        });
    }
    let frame = encode_frame_ext(payload, flags, trace);
    w.write_all(&frame).map_err(|e| WireError::from_io(0, &e))?;
    w.flush().map_err(|e| WireError::from_io(0, &e))
}

/// Reads exactly `buf.len()` bytes, reporting how many arrived before a
/// clean EOF (for precise truncation errors).
fn read_exact_counting<R: Read>(
    r: &mut R,
    buf: &mut [u8],
) -> Result<(), (usize, Option<std::io::Error>)> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err((filled, None)),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err((filled, Some(e))),
        }
    }
    Ok(())
}

/// Outcome of [`read_frame_or_eof`]: a payload, or a clean end-of-stream
/// before any byte of a new frame arrived.
#[derive(Debug)]
pub enum FrameOrEof {
    /// A complete, verified payload.
    Frame(Vec<u8>),
    /// The stream ended cleanly between frames.
    Eof,
}

/// A verified frame with its flags byte and any trace extension
/// decoded: what [`read_frame_ext_or_eof`] yields.
#[derive(Debug)]
pub struct TracedFrame {
    /// The message payload (extension stripped).
    pub payload: Vec<u8>,
    /// The header flags byte as received.
    pub flags: u8,
    /// The carried trace context, if a valid one was attached.
    pub trace: Option<TraceContext>,
}

impl TracedFrame {
    /// Whether the sender advertised frame-extension capability.
    #[must_use]
    pub fn peer_traces(&self) -> bool {
        self.flags & FLAG_TRACE_CAPABLE != 0
    }
}

/// Outcome of [`read_frame_ext_or_eof`].
#[derive(Debug)]
pub enum TracedFrameOrEof {
    /// A complete, verified frame.
    Frame(TracedFrame),
    /// The stream ended cleanly between frames.
    Eof,
}

/// Reads one frame, treating clean EOF *before the first header byte* as
/// end-of-stream rather than an error — the server side of a
/// connection loop wants exactly this. The flags byte and trace
/// extension are decoded and stripped: an unknown extension version or
/// a semantically invalid context degrades to an untraced payload,
/// while a structurally broken extension (too short for its own
/// framing) is the typed [`WireError::BadExtension`].
///
/// # Errors
///
/// All [`WireError`] frame variants: truncation (EOF mid-frame),
/// bad magic/version, an oversized announcement, checksum mismatch,
/// a malformed extension area, and classified I/O errors (including
/// timeouts from a socket read deadline).
pub fn read_frame_ext_or_eof<R: Read>(r: &mut R) -> Result<TracedFrameOrEof, WireError> {
    let mut header = [0u8; HEADER_LEN];
    if let Err((got, io)) = read_exact_counting(r, &mut header) {
        return match io {
            Some(e) => Err(WireError::from_io(0, &e)),
            None if got == 0 => Ok(TracedFrameOrEof::Eof),
            None => Err(WireError::Truncated {
                expected: HEADER_LEN as u64,
                got: got as u64,
            }),
        };
    }
    if header[0..2] != MAGIC {
        return Err(WireError::BadMagic {
            seen: [header[0], header[1]],
        });
    }
    if header[2] != VERSION {
        return Err(WireError::BadVersion { seen: header[2] });
    }
    let flags = header[3];
    let len = u64::from(u32::from_be_bytes([
        header[4], header[5], header[6], header[7],
    ]));
    let announced = u32::from_be_bytes([header[8], header[9], header[10], header[11]]);
    if len > MAX_FRAME {
        return Err(WireError::TooLarge {
            announced: len,
            max: MAX_FRAME,
        });
    }
    let mut payload = vec![0u8; usize::try_from(len).expect("len <= MAX_FRAME fits usize")];
    if let Err((got, io)) = read_exact_counting(r, &mut payload) {
        return match io {
            Some(e) => Err(WireError::from_io(0, &e)),
            None => Err(WireError::Truncated {
                expected: len,
                got: got as u64,
            }),
        };
    }
    let computed = checksum(&payload);
    if computed != announced {
        return Err(WireError::Corrupt {
            announced,
            computed,
        });
    }
    let mut trace = None;
    if flags & FLAG_TRACE != 0 {
        if payload.len() < 2 {
            return Err(WireError::BadExtension {
                detail: format!(
                    "flagged frame too short for an extension header ({} bytes)",
                    payload.len()
                ),
            });
        }
        let ext_version = payload[0];
        let ext_len = usize::from(payload[1]);
        if 2 + ext_len > payload.len() {
            return Err(WireError::BadExtension {
                detail: format!(
                    "extension announces {ext_len} bytes but only {} remain",
                    payload.len() - 2
                ),
            });
        }
        if ext_version == TRACE_EXT_VERSION {
            // An invalid context degrades to untraced: the frame is
            // structurally fine, the semantics just aren't usable.
            trace = TraceContext::from_bytes(&payload[2..2 + ext_len]);
        }
        payload.drain(..2 + ext_len);
    }
    Ok(TracedFrameOrEof::Frame(TracedFrame {
        payload,
        flags,
        trace,
    }))
}

/// Reads one frame as [`read_frame_ext_or_eof`] but discards the flags
/// byte and trace extension, yielding just the payload.
///
/// # Errors
///
/// As [`read_frame_ext_or_eof`].
pub fn read_frame_or_eof<R: Read>(r: &mut R) -> Result<FrameOrEof, WireError> {
    match read_frame_ext_or_eof(r)? {
        TracedFrameOrEof::Frame(frame) => Ok(FrameOrEof::Frame(frame.payload)),
        TracedFrameOrEof::Eof => Ok(FrameOrEof::Eof),
    }
}

/// Reads one frame; a clean EOF anywhere is an error (the client side of
/// a call, which expects exactly one response).
///
/// # Errors
///
/// As [`read_frame_or_eof`], plus [`WireError::Closed`] on clean EOF
/// before the header.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, WireError> {
    match read_frame_or_eof(r)? {
        FrameOrEof::Frame(payload) => Ok(payload),
        FrameOrEof::Eof => Err(WireError::Closed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello wire").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello wire");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert!(matches!(
            read_frame_or_eof(&mut cursor).unwrap(),
            FrameOrEof::Eof
        ));
    }

    #[test]
    fn truncated_payload_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"0123456789").unwrap();
        buf.truncate(HEADER_LEN + 4);
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(
            err,
            WireError::Truncated {
                expected: 10,
                got: 4
            }
        );
    }

    #[test]
    fn truncated_header_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc").unwrap();
        buf.truncate(5);
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, WireError::Truncated { got: 5, .. }));
    }

    #[test]
    fn clean_eof_on_client_read_is_closed() {
        let err = read_frame(&mut Cursor::new(Vec::new())).unwrap_err();
        assert_eq!(err, WireError::Closed);
    }

    #[test]
    fn corruption_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, WireError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn wrong_magic_and_version() {
        let mut buf = encode_frame(b"x");
        buf[0] = 0;
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)).unwrap_err(),
            WireError::BadMagic { seen: [0, 0x57] }
        ));
        let mut buf = encode_frame(b"x");
        buf[2] = 9;
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)).unwrap_err(),
            WireError::BadVersion { seen: 9 }
        ));
    }

    #[test]
    fn oversized_announcement_rejected_without_allocation() {
        let mut buf = encode_frame(b"x");
        buf[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)).unwrap_err(),
            WireError::TooLarge { .. }
        ));
    }

    /// `len` bytes that differ from their neighbours and from zero.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
            .collect()
    }

    #[test]
    fn checksum_is_stable() {
        // Version 2's values, from an independent implementation of the
        // same definition: one on each side of every block (32 B) and
        // word (8 B) boundary, and a whole 64 KiB chunk. A frame written
        // by one build must verify on every other, so these move only
        // with `VERSION`.
        for (len, sum) in [
            (0, 0x9DCF_1E62),
            (1, 0x36D6_7D53),
            (7, 0x5E0E_2599),
            (8, 0xA5F5_091B),
            (31, 0x36C5_4FD7),
            (32, 0x671C_C43D),
            (33, 0xED85_7664),
            (65_536, 0x92C5_113F),
        ] {
            assert_eq!(checksum(&pattern(len)), sum, "{len} bytes");
        }
        assert_eq!(checksum(b"hello"), 0xB6B4_79FB);
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        // Lengths 0..=97 put a flipped bit in every lane of a block, in
        // the 8-byte words and the single bytes behind the last block,
        // and in the first, middle and last block of three.
        for len in 0..=97 {
            let mut payload = pattern(len);
            let honest = checksum(&payload);
            for bit in 0..len * 8 {
                payload[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&payload), honest, "{len} bytes, bit {bit}");
                payload[bit / 8] ^= 1 << (bit % 8);
            }
            // The length is part of the sum: a zero byte more is noticed.
            payload.push(0);
            assert_ne!(checksum(&payload), honest, "{len} bytes plus one");
        }
    }

    #[test]
    fn a_version_1_frame_is_refused_by_its_version_not_its_sum() {
        // What a version-1 peer writes: the same header, version byte 1,
        // the payload summed with FNV-1a 32.
        let payload = b"from an older build";
        let fnv1a = payload.iter().fold(0x811c_9dc5_u32, |hash, &byte| {
            (hash ^ u32::from(byte)).wrapping_mul(0x0100_0193)
        });
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&[1, 0]);
        buf.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_be_bytes());
        buf.extend_from_slice(&fnv1a.to_be_bytes());
        buf.extend_from_slice(payload);
        assert_eq!(
            read_frame(&mut Cursor::new(buf)).unwrap_err(),
            WireError::BadVersion { seen: 1 }
        );
    }

    #[test]
    fn traced_frame_round_trip() {
        let ctx = TraceContext::root(true).child();
        let mut buf = Vec::new();
        write_frame_ext(&mut buf, b"payload", FLAG_TRACE_CAPABLE, Some(&ctx)).unwrap();
        let mut cursor = Cursor::new(buf);
        match read_frame_ext_or_eof(&mut cursor).unwrap() {
            TracedFrameOrEof::Frame(frame) => {
                assert_eq!(frame.payload, b"payload");
                assert_eq!(frame.trace, Some(ctx));
                assert!(frame.peer_traces());
                assert_ne!(frame.flags & FLAG_TRACE, 0);
            }
            TracedFrameOrEof::Eof => panic!("expected a frame"),
        }
    }

    #[test]
    fn plain_reader_strips_extensions_transparently() {
        let ctx = TraceContext::root(false);
        let mut buf = Vec::new();
        write_frame_ext(&mut buf, b"legacy view", 0, Some(&ctx)).unwrap();
        // A caller using the extension-less API still sees just the
        // payload — never the extension bytes.
        assert_eq!(read_frame(&mut Cursor::new(buf)).unwrap(), b"legacy view");
    }

    #[test]
    fn untraced_frames_read_back_without_a_context() {
        let mut buf = Vec::new();
        write_frame_ext(&mut buf, b"plain", FLAG_TRACE_CAPABLE, None).unwrap();
        match read_frame_ext_or_eof(&mut Cursor::new(buf)).unwrap() {
            TracedFrameOrEof::Frame(frame) => {
                assert_eq!(frame.payload, b"plain");
                assert_eq!(frame.trace, None);
                assert!(frame.peer_traces());
            }
            TracedFrameOrEof::Eof => panic!("expected a frame"),
        }
    }

    #[test]
    fn unknown_extension_version_degrades_to_untraced() {
        let ctx = TraceContext::root(true);
        let mut buf = encode_frame_ext(b"future", 0, Some(&ctx));
        // Bump the extension version byte and re-checksum: a frame from
        // a future build we cannot interpret.
        buf[HEADER_LEN] = TRACE_EXT_VERSION + 1;
        let crc = checksum(&buf[HEADER_LEN..]);
        buf[8..12].copy_from_slice(&crc.to_be_bytes());
        match read_frame_ext_or_eof(&mut Cursor::new(buf)).unwrap() {
            TracedFrameOrEof::Frame(frame) => {
                assert_eq!(frame.payload, b"future");
                assert_eq!(frame.trace, None, "unknown version is skipped, not fatal");
            }
            TracedFrameOrEof::Eof => panic!("expected a frame"),
        }
    }

    #[test]
    fn garbage_extension_area_is_a_typed_error() {
        // FLAG_TRACE set but the payload area cannot hold the announced
        // extension: ext_len says 200 bytes, only 3 follow.
        let mut body = vec![TRACE_EXT_VERSION, 200, 1, 2, 3];
        let mut buf = Vec::with_capacity(HEADER_LEN + body.len());
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.push(FLAG_TRACE);
        buf.extend_from_slice(&u32::try_from(body.len()).unwrap().to_be_bytes());
        buf.extend_from_slice(&checksum(&body).to_be_bytes());
        buf.append(&mut body);
        let err = read_frame_ext_or_eof(&mut Cursor::new(buf)).unwrap_err();
        assert!(
            matches!(err, WireError::BadExtension { .. }),
            "typed error, got {err:?}"
        );
        assert!(
            err.is_retryable(),
            "corruption-like: retry may get a clean frame"
        );
    }

    #[test]
    fn invalid_context_bytes_degrade_to_untraced() {
        // Structurally valid extension of the right length, but the
        // context is all zeros (no trace id) — semantically invalid.
        let mut body = vec![
            TRACE_EXT_VERSION,
            u8::try_from(cpms_obs::CONTEXT_WIRE_LEN).unwrap(),
        ];
        body.extend_from_slice(&[0u8; cpms_obs::CONTEXT_WIRE_LEN]);
        body.extend_from_slice(b"still fine");
        let mut buf = Vec::with_capacity(HEADER_LEN + body.len());
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.push(FLAG_TRACE);
        buf.extend_from_slice(&u32::try_from(body.len()).unwrap().to_be_bytes());
        buf.extend_from_slice(&checksum(&body).to_be_bytes());
        buf.append(&mut body);
        match read_frame_ext_or_eof(&mut Cursor::new(buf)).unwrap() {
            TracedFrameOrEof::Frame(frame) => {
                assert_eq!(frame.payload, b"still fine");
                assert_eq!(frame.trace, None);
            }
            TracedFrameOrEof::Eof => panic!("expected a frame"),
        }
    }
}
