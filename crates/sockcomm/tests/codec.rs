//! Property tests for the sockcomm frame codec: arbitrary
//! `(kind, ctx, src, tag, payload)` frames round-trip bit-exactly through
//! both the pure buffer codec and the stream IO path, and malformed input
//! (truncation anywhere, oversized or undersized length prefixes) is
//! rejected rather than misparsed or over-allocated. The data path's
//! split write (prefix, then a borrowed payload) must put the same bytes
//! on the wire as the whole-frame encoder, and the reader must cope with
//! a stream that hands out one byte per `read`.

use proptest::prelude::*;
use sockcomm::frame::{
    decode_frame, encode_frame, read_frame, write_frame, write_frame_parts, Frame, FrameError,
    FrameHeader, FrameKind, HEADER_BYTES, MAX_PAYLOAD, PREFIX_BYTES,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read};

/// Records the largest single allocation the current thread asks for, so
/// a test can prove a rejected frame never allocated its payload.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// bookkeeping touches only a const-initialized, destructor-free
// thread-local, which never allocates.
unsafe impl GlobalAlloc for LargestAlloc {
    // SAFETY: same contract as `System.alloc`, which it forwards to.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System.alloc_zeroed`, which it forwards to.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as `System.realloc`, which it forwards to.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: same contract as `System.dealloc`, which it forwards to.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// A reader that returns at most one byte per `read` call and counts
/// what it handed out.
struct Trickle {
    bytes: Vec<u8>,
    pos: usize,
}

impl Trickle {
    fn new(bytes: Vec<u8>) -> Self {
        Self { bytes, pos: 0 }
    }
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match (buf.first_mut(), self.bytes.get(self.pos)) {
            (Some(slot), Some(&b)) => {
                *slot = b;
                self.pos += 1;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

fn kind_from(byte: u8) -> FrameKind {
    match byte % 8 {
        0 => FrameKind::Hello,
        1 => FrameKind::Addr,
        2 => FrameKind::Params,
        3 => FrameKind::Table,
        4 => FrameKind::Data,
        5 => FrameKind::Goodbye,
        6 => FrameKind::Result,
        _ => FrameKind::Abort,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_frame_round_trips(
        kind_byte in any::<u8>(),
        ctx in any::<u64>(),
        src in any::<u32>(),
        tag in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let frame = Frame { kind: kind_from(kind_byte), ctx, src, tag, payload };

        // Pure codec round-trip.
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        prop_assert_eq!(buf.len(), 8 + HEADER_BYTES + frame.payload.len());
        let (decoded, consumed) = decode_frame(&buf).expect("well-formed frame must decode");
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(&decoded, &frame);

        // Stream round-trip (the path real connections take), plus clean
        // EOF at the frame boundary.
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).expect("vec write cannot fail");
        prop_assert_eq!(&wire, &buf);
        let mut cursor = std::io::Cursor::new(wire);
        let back = read_frame(&mut cursor).expect("read").expect("one frame present");
        prop_assert_eq!(&back, &frame);
        prop_assert!(read_frame(&mut cursor).expect("boundary EOF is clean").is_none());
    }

    #[test]
    fn truncation_anywhere_is_rejected(
        kind_byte in any::<u8>(),
        ctx in any::<u64>(),
        src in any::<u32>(),
        tag in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        cut_seed in any::<u64>(),
    ) {
        let frame = Frame { kind: kind_from(kind_byte), ctx, src, tag, payload };
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        // Cut the buffer strictly short at an arbitrary point.
        let cut = (cut_seed as usize) % buf.len();
        let short = &buf[..cut];

        prop_assert_eq!(decode_frame(short).unwrap_err(), FrameError::Truncated);

        let mut cursor = std::io::Cursor::new(short.to_vec());
        match read_frame(&mut cursor) {
            // Zero bytes is a clean between-frames EOF by design.
            Ok(None) => prop_assert_eq!(cut, 0),
            Ok(Some(f)) => prop_assert!(false, "parsed a frame from a truncated buffer: {f:?}"),
            Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        }
    }

    #[test]
    fn bad_length_prefixes_are_rejected(raw_len in any::<u64>(), tail in any::<u8>()) {
        // Only lengths outside [HEADER_BYTES, HEADER_BYTES + MAX_PAYLOAD]
        // are invalid; fold the generated value onto the invalid set.
        let len = if (HEADER_BYTES as u64..=(HEADER_BYTES + MAX_PAYLOAD) as u64).contains(&raw_len) {
            if tail.is_multiple_of(2) { raw_len % HEADER_BYTES as u64 } else { u64::MAX - raw_len % 1024 }
        } else {
            raw_len
        };
        let mut buf = Vec::new();
        buf.extend_from_slice(&len.to_ne_bytes());
        buf.extend_from_slice(&[tail; 64]);

        prop_assert_eq!(decode_frame(&buf).unwrap_err(), FrameError::BadLength(len));

        // The IO path must reject before allocating `len` bytes.
        let mut cursor = std::io::Cursor::new(buf);
        let err = read_frame(&mut cursor).expect_err("bad length must error");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn unknown_kind_bytes_are_rejected(bad_kind in 9u8..=255u8, payload_len in 0usize..32) {
        let frame = Frame::control(FrameKind::Hello, 1, vec![0xAB; payload_len]);
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        buf[8] = bad_kind;
        prop_assert_eq!(decode_frame(&buf).unwrap_err(), FrameError::BadKind(bad_kind));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn split_write_matches_whole_frame_encoding(
        kind_byte in any::<u8>(),
        ctx in any::<u64>(),
        src in any::<u32>(),
        tag in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let frame = Frame { kind: kind_from(kind_byte), ctx, src, tag, payload };
        let mut whole = Vec::new();
        encode_frame(&frame, &mut whole);
        let mut parts = Vec::new();
        write_frame_parts(&mut parts, &frame.header(), &frame.payload)
            .expect("vec write cannot fail");
        prop_assert_eq!(&parts, &whole);
        // Through a buffered writer too, the way the transport uses it.
        let mut buffered = io::BufWriter::with_capacity(64, Vec::new());
        write_frame_parts(&mut buffered, &frame.header(), &frame.payload)
            .expect("vec write cannot fail");
        prop_assert_eq!(buffered.into_inner().expect("flush"), whole);
    }
}

#[test]
fn read_frame_decodes_a_one_byte_per_read_stream() {
    let frames = [
        Frame::control(FrameKind::Params, 2, (0..=255u8).collect()),
        Frame {
            kind: FrameKind::Data,
            ctx: 0x8000_0000_0000_0001,
            src: 5,
            tag: 1 << 40,
            payload: Vec::new(),
        },
    ];
    let mut wire = Vec::new();
    for f in &frames {
        encode_frame(f, &mut wire);
    }
    let mut r = Trickle::new(wire);
    for f in &frames {
        assert_eq!(read_frame(&mut r).expect("read").as_ref(), Some(f));
    }
    assert!(read_frame(&mut r).expect("boundary EOF").is_none());
}

#[test]
fn eof_inside_the_prefix_is_unexpected_and_at_a_boundary_is_none() {
    let frame = Frame::control(FrameKind::Hello, 3, vec![7; 10]);
    let mut wire = Vec::new();
    encode_frame(&frame, &mut wire);
    assert!(read_frame(&mut Trickle::new(Vec::new()))
        .expect("empty stream")
        .is_none());
    for cut in 1..PREFIX_BYTES {
        let err =
            read_frame(&mut Trickle::new(wire[..cut].to_vec())).expect_err("EOF inside the prefix");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
    }
    let mut r = Trickle::new(wire);
    assert_eq!(read_frame(&mut r).expect("whole frame"), Some(frame));
    assert!(read_frame(&mut r).expect("EOF after a frame").is_none());
}

#[test]
fn bad_length_or_kind_is_rejected_before_the_payload_is_allocated() {
    // A valid-looking 256 MiB Data frame whose kind byte is unknown, and
    // a length one past the cap.
    let big = 256usize << 20;
    let header = FrameHeader {
        kind: FrameKind::Data,
        ctx: 1,
        src: 0,
        tag: 9,
    };
    let mut bad_kind = Vec::new();
    write_frame_parts(&mut bad_kind, &header, &[]).expect("vec write");
    bad_kind[..8].copy_from_slice(&((HEADER_BYTES + big) as u64).to_ne_bytes());
    bad_kind[8] = 0;
    let mut bad_len = bad_kind.clone();
    bad_len[..8].copy_from_slice(&((HEADER_BYTES + MAX_PAYLOAD + 1) as u64).to_ne_bytes());
    bad_len[8] = FrameKind::Data as u8;
    for stream in [bad_kind, bad_len] {
        // Payload bytes follow, so only the header can stop the read.
        let mut wire = stream;
        wire.extend_from_slice(&[0u8; 64]);
        let mut r = Trickle::new(wire);
        LARGEST.with(|m| m.set(0));
        let err = read_frame(&mut r).expect_err("rejected");
        let largest = LARGEST.with(Cell::get);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(r.pos, PREFIX_BYTES, "no payload byte may be read");
        assert!(largest < 4096, "rejection allocated {largest} bytes");
    }
}
