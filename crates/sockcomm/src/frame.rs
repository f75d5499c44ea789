//! Length-prefixed framing for the sockets backend.
//!
//! Every byte that crosses a sockcomm connection is part of a frame:
//!
//! ```text
//! [len: u64][kind: u8][ctx: u64][src: u32][tag: u64][payload: len - 21 bytes]
//! ```
//!
//! `len` counts everything after itself (kind + header + payload) so a
//! reader can pull exactly one frame off the stream without inspecting the
//! payload. The `(ctx, src, tag)` header carries the mailbox-matching key
//! for [`FrameKind::Data`] frames; control frames reuse the same layout
//! (usually with `ctx = 0`, `tag = 0`) so there is exactly one codec to
//! get right. Integers are host-native byte order — the launcher re-execs
//! the same binary on the same host for every rank, so both ends agree by
//! construction (see `comm::wire`).
//!
//! The codec is split into pure buffer functions ([`encode_frame`] /
//! [`decode_frame`]) that the property tests drive, and thin IO wrappers
//! ([`write_frame`] / [`write_frame_parts`] / [`read_frame`]) used by the
//! transport. All of them share one prefix encoder and one prefix
//! decoder. The data path never assembles a frame in memory:
//! [`write_frame_parts`] writes the prefix and then the caller's borrowed
//! payload, and [`read_frame`] reads the payload straight into the
//! frame's buffer.

use std::io::{self, Read, Write};

/// Hard cap on a frame's payload size. Nothing in a sort exchange comes
/// near this (the exchange ships at most one rank's partition per frame);
/// its real job is to reject garbage length prefixes — a corrupt or
/// malicious `len` must fail fast, not allocate 16 EiB.
pub const MAX_PAYLOAD: usize = 1 << 32;

/// Bytes of frame after the length prefix, before the payload:
/// kind (1) + ctx (8) + src (4) + tag (8).
pub const HEADER_BYTES: usize = 21;

/// What a frame means. The discriminants are the wire encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Rank introduction on a new connection (`src` = sender's rank).
    Hello = 1,
    /// Child → launcher: payload is the child's data-plane listen address.
    Addr = 2,
    /// Launcher → child: payload is the encoded entry parameters.
    Params = 3,
    /// Launcher → child: payload is the encoded peer address table.
    Table = 4,
    /// Rank → rank: a message for the `(ctx, src, tag)` mailbox.
    Data = 5,
    /// Rank → rank: orderly close. EOF *after* a goodbye is teardown;
    /// EOF *without* one is a dead peer.
    Goodbye = 6,
    /// Child → launcher: payload is the encoded entry result + stats.
    Result = 7,
    /// Child → launcher: payload names a dead peer and the diagnostic.
    Abort = 8,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(Self::Hello),
            2 => Some(Self::Addr),
            3 => Some(Self::Params),
            4 => Some(Self::Table),
            5 => Some(Self::Data),
            6 => Some(Self::Goodbye),
            7 => Some(Self::Result),
            8 => Some(Self::Abort),
            _ => None,
        }
    }
}

/// Bytes in front of every payload: the length prefix plus the header.
pub const PREFIX_BYTES: usize = 8 + HEADER_BYTES;

/// A frame's header: everything but the length prefix and the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// What the frame means.
    pub kind: FrameKind,
    /// Communicator context id (0 for control frames).
    pub ctx: u64,
    /// Sender's world rank.
    pub src: u32,
    /// Mailbox tag (0 for control frames).
    pub tag: u64,
}

impl FrameHeader {
    /// A control header: `(ctx, tag)` zero, just kind and source.
    pub fn control(kind: FrameKind, src: u32) -> Self {
        Self {
            kind,
            ctx: 0,
            src,
            tag: 0,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame means.
    pub kind: FrameKind,
    /// Communicator context id (0 for control frames).
    pub ctx: u64,
    /// Sender's world rank.
    pub src: u32,
    /// Mailbox tag (0 for control frames).
    pub tag: u64,
    /// Frame payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A control frame: `(ctx, tag)` zero, just kind, source and payload.
    pub fn control(kind: FrameKind, src: u32, payload: Vec<u8>) -> Self {
        Self::new(FrameHeader::control(kind, src), payload)
    }

    /// Reassemble a frame from its header and payload.
    pub fn new(header: FrameHeader, payload: Vec<u8>) -> Self {
        let FrameHeader {
            kind,
            ctx,
            src,
            tag,
        } = header;
        Self {
            kind,
            ctx,
            src,
            tag,
            payload,
        }
    }

    /// This frame's header.
    pub fn header(&self) -> FrameHeader {
        FrameHeader {
            kind: self.kind,
            ctx: self.ctx,
            src: self.src,
            tag: self.tag,
        }
    }
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the advertised frame does.
    Truncated,
    /// The length prefix exceeds [`MAX_PAYLOAD`] (or is shorter than the
    /// fixed header, which no encoder produces).
    BadLength(u64),
    /// Unknown frame-kind discriminant.
    BadKind(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "truncated frame"),
            Self::BadLength(len) => write!(
                f,
                "bad frame length {len} (valid: {HEADER_BYTES}..={})",
                HEADER_BYTES + MAX_PAYLOAD
            ),
            Self::BadKind(k) => write!(f, "unknown frame kind {k}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encode the fixed prefix (length + header) of a frame carrying
/// `payload_len` payload bytes.
fn encode_prefix(header: &FrameHeader, payload_len: usize) -> [u8; PREFIX_BYTES] {
    let mut out = [0u8; PREFIX_BYTES];
    out[..8].copy_from_slice(&((HEADER_BYTES + payload_len) as u64).to_ne_bytes());
    out[8] = header.kind as u8;
    out[9..17].copy_from_slice(&header.ctx.to_ne_bytes());
    out[17..21].copy_from_slice(&header.src.to_ne_bytes());
    out[21..29].copy_from_slice(&header.tag.to_ne_bytes());
    out
}

fn fixed<const N: usize>(src: &[u8], at: usize) -> Result<[u8; N], FrameError> {
    src.get(at..at + N)
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or(FrameError::Truncated)
}

/// Decode the fixed prefix at the front of `src` into the header and the
/// payload length. The length is checked as soon as its 8 bytes are
/// present and the kind before the payload is looked at, so every
/// rejection happens before a reader allocates the payload.
fn decode_prefix(src: &[u8]) -> Result<(FrameHeader, usize), FrameError> {
    let len = u64::from_ne_bytes(fixed::<8>(src, 0)?);
    if (len as usize) < HEADER_BYTES || len as usize > HEADER_BYTES + MAX_PAYLOAD {
        return Err(FrameError::BadLength(len));
    }
    let [kind_byte] = fixed::<1>(src, 8)?;
    let kind = FrameKind::from_u8(kind_byte).ok_or(FrameError::BadKind(kind_byte))?;
    let header = FrameHeader {
        kind,
        ctx: u64::from_ne_bytes(fixed::<8>(src, 9)?),
        src: u32::from_ne_bytes(fixed::<4>(src, 17)?),
        tag: u64::from_ne_bytes(fixed::<8>(src, 21)?),
    };
    Ok((header, len as usize - HEADER_BYTES))
}

/// Append the frame's encoding to `out`.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    out.extend_from_slice(&encode_prefix(&frame.header(), frame.payload.len()));
    out.extend_from_slice(&frame.payload);
}

/// Decode one frame from the front of `src`, returning it and the number
/// of bytes consumed.
pub fn decode_frame(src: &[u8]) -> Result<(Frame, usize), FrameError> {
    let (header, payload_len) = decode_prefix(src)?;
    let end = PREFIX_BYTES + payload_len;
    let payload = src.get(PREFIX_BYTES..end).ok_or(FrameError::Truncated)?;
    Ok((Frame::new(header, payload.to_vec()), end))
}

/// Write one frame to a stream (single buffered write).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let mut buf = Vec::with_capacity(PREFIX_BYTES + frame.payload.len());
    encode_frame(frame, &mut buf);
    w.write_all(&buf)
}

/// Write one frame from its header and a borrowed payload: the prefix,
/// then the payload bytes as they are, with no intermediate frame buffer.
/// The bytes on the wire are exactly [`encode_frame`]'s. Meant for a
/// buffered writer, which coalesces a small frame into one write and
/// hands a large payload to the socket directly.
pub fn write_frame_parts(
    w: &mut impl Write,
    header: &FrameHeader,
    payload: &[u8],
) -> io::Result<()> {
    w.write_all(&encode_prefix(header, payload.len()))?;
    w.write_all(payload)
}

/// Read exactly one frame from a stream: the fixed prefix in one loop,
/// then the payload straight into the frame's own buffer. `Ok(None)` on
/// clean EOF at a frame boundary; an EOF mid-frame is an `UnexpectedEof`
/// error, and a bad length or kind is `InvalidData` before the payload is
/// allocated.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut prefix = [0u8; PREFIX_BYTES];
    // Hand-rolled read so EOF-before-any-byte is distinguishable from EOF
    // mid-prefix.
    let mut filled = 0;
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame (prefix)",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let (header, payload_len) = decode_prefix(&prefix)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let mut payload = vec![0u8; payload_len];
    r.read_exact(&mut payload)?;
    Ok(Some(Frame::new(header, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_kinds() {
        for kind in [
            FrameKind::Hello,
            FrameKind::Addr,
            FrameKind::Params,
            FrameKind::Table,
            FrameKind::Data,
            FrameKind::Goodbye,
            FrameKind::Result,
            FrameKind::Abort,
        ] {
            let frame = Frame {
                kind,
                ctx: 0xDEAD_BEEF,
                src: 7,
                tag: 42,
                payload: vec![1, 2, 3, 4, 5],
            };
            let mut buf = Vec::new();
            encode_frame(&frame, &mut buf);
            let (back, used) = decode_frame(&buf).expect("valid frame");
            assert_eq!(back, frame);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn io_round_trip_through_a_cursor() {
        let frame = Frame::control(FrameKind::Result, 3, b"payload".to_vec());
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).expect("vec write");
        let mut cursor = std::io::Cursor::new(buf);
        let back = read_frame(&mut cursor).expect("read").expect("one frame");
        assert_eq!(back, frame);
        assert!(read_frame(&mut cursor).expect("clean EOF").is_none());
    }

    #[test]
    fn eof_mid_frame_is_an_error_not_none() {
        let frame = Frame::control(FrameKind::Hello, 0, vec![9; 64]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).expect("vec write");
        buf.truncate(buf.len() - 1);
        let mut cursor = std::io::Cursor::new(buf);
        let err = read_frame(&mut cursor).expect_err("mid-frame EOF");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u64::MAX.to_ne_bytes());
        buf.extend_from_slice(&[0u8; 32]);
        assert!(matches!(
            decode_frame(&buf),
            Err(FrameError::BadLength(u64::MAX))
        ));
        let mut cursor = std::io::Cursor::new(buf);
        let err = read_frame(&mut cursor).expect_err("oversized");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unknown_kind_rejected() {
        let frame = Frame::control(FrameKind::Hello, 0, Vec::new());
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        buf[8] = 250;
        assert_eq!(decode_frame(&buf), Err(FrameError::BadKind(250)));
    }
}
