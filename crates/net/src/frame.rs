//! Length framing for socket transports.
//!
//! A TCP or Unix-domain stream is an undelimited byte pipe; this module
//! cuts it back into the discrete frames the rest of the stack expects.
//! Each frame is a varint byte-length prefix (the `ajanta-wire` LEB128
//! encoding, minimal-form enforced) followed by that many payload
//! bytes. Decoding is *incremental* — a partial frame is "need more
//! bytes", never an error — and *total*: any byte sequence either
//! yields frames or a typed [`FrameError`]; it can never panic, because
//! frames now arrive from real sockets where any bytes at all can show
//! up.
//!
//! What travels inside a frame on a connection the
//! [`crate::secure::SecureChannel`] handshake admitted is a
//! [`ChannelFrame`]: the claimed origin, the destination endpoint, and
//! the opaque payload — the same triple [`crate::sim::Delivery`]
//! carries on the simulation.

use ajanta_naming::Urn;
use ajanta_wire::{write_varint, Decoder, Encoder, Wire, WireError};

/// Hard ceiling on one frame's payload length (16 MiB). Far above any
/// legitimate agent transfer, far below an allocation a hostile length
/// prefix could use to exhaust memory.
pub const MAX_FRAME: usize = 16 << 20;

/// Why a byte stream failed to frame-decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix claims a payload over [`MAX_FRAME`] bytes.
    Oversize(u64),
    /// The length prefix is not a minimal-form varint (garbage bytes).
    BadLength,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversize(n) => write!(f, "frame length {n} exceeds {MAX_FRAME}"),
            FrameError::BadLength => f.write_str("malformed frame length prefix"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one frame: varint length prefix + payload bytes.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 5);
    encode_frame_into(payload, &mut out);
    out
}

/// Appends one frame (varint length prefix + payload bytes) to an
/// existing buffer — the pooled-buffer path: a send loop reuses `out`'s
/// capacity instead of allocating a fresh `Vec` per frame, and the
/// length header and payload land in one buffer in one pass (no
/// intermediate framed copy).
pub fn encode_frame_into(payload: &[u8], out: &mut Vec<u8>) {
    debug_assert!(payload.len() <= MAX_FRAME);
    out.reserve(payload.len() + 5);
    write_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

/// Attempts to locate one frame at the front of `buf` without copying.
///
/// Returns `Ok(Some((consumed, payload)))` borrowing the payload out of
/// `buf` when a complete frame is present, `Ok(None)` when more bytes
/// are needed, and a [`FrameError`] when the prefix itself is hostile
/// (oversize or malformed) — the only sane recovery from which is
/// closing the connection, since frame boundaries are lost.
pub fn decode_frame_ref(buf: &[u8]) -> Result<Option<(usize, &[u8])>, FrameError> {
    let mut d = Decoder::new(buf);
    let len = match d.get_varint() {
        Ok(n) => n,
        // An incomplete varint is indistinguishable from a short read.
        Err(WireError::Truncated) => return Ok(None),
        Err(_) => return Err(FrameError::BadLength),
    };
    if len > MAX_FRAME as u64 {
        return Err(FrameError::Oversize(len));
    }
    let header = buf.len() - d.remaining();
    if d.remaining() < len as usize {
        return Ok(None);
    }
    Ok(Some((
        header + len as usize,
        &buf[header..header + len as usize],
    )))
}

/// Attempts to decode one frame from the front of `buf`, copying the
/// payload out. See [`decode_frame_ref`] for the zero-copy form.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(usize, Vec<u8>)>, FrameError> {
    Ok(decode_frame_ref(buf)?.map(|(consumed, payload)| (consumed, payload.to_vec())))
}

/// When the consumed prefix of a [`FrameBuffer`] exceeds this, the tail
/// is compacted to the front. Until then consumption just advances a
/// cursor, so a burst of small frames costs zero per-frame memmoves.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// An accumulation buffer that turns arbitrary byte chunks (as a socket
/// read produces them) back into frames.
///
/// Grow-only: consumption advances a cursor instead of draining the
/// `Vec` (which would memmove the tail once per frame); the backing
/// allocation is reused for the life of the connection and compacted
/// only when the dead prefix passes [`COMPACT_THRESHOLD`].
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes before this offset have been consumed as frames.
    start: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.start == self.buf.len() {
            // Everything consumed: restart at the front of the same
            // allocation.
            self.buf.clear();
            self.start = 0;
        } else if self.start > COMPACT_THRESHOLD {
            self.buf.copy_within(self.start.., 0);
            self.buf.truncate(self.buf.len() - self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, if one has accumulated, borrowing
    /// the payload out of the buffer — valid until the next `extend`.
    /// After a [`FrameError`] the buffer contents are undefined; the
    /// connection must be dropped.
    pub fn next_frame_ref(&mut self) -> Result<Option<&[u8]>, FrameError> {
        match decode_frame_ref(&self.buf[self.start..])? {
            None => Ok(None),
            Some((consumed, payload)) => {
                let end = self.start + consumed;
                let begin = end - payload.len();
                self.start = end;
                Ok(Some(&self.buf[begin..end]))
            }
        }
    }

    /// Pops the next complete frame, copied out. See
    /// [`FrameBuffer::next_frame_ref`] for the zero-copy form.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        Ok(self.next_frame_ref()?.map(<[u8]>::to_vec))
    }

    /// Bytes currently buffered (incomplete frame tail).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }
}

/// What a socket connection carries per frame: who claims to have
/// sent it, which endpoint it is for, and the opaque bytes — exactly
/// the [`crate::sim::Delivery`] triple, minus the arrival instant the
/// receiver stamps itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelFrame {
    /// Claimed origin (unauthenticated at this layer, like the
    /// simulation's `Delivery::from` — sealed datagrams authenticate).
    pub from: Urn,
    /// Destination endpoint name.
    pub to: Urn,
    /// Opaque payload (a sealed datagram, in the runtime's use).
    pub payload: Vec<u8>,
}

/// Appends the wire image of a [`ChannelFrame`] built from borrowed
/// parts — byte-identical to `ChannelFrame { .. }.to_bytes()` without
/// cloning the names or the payload into a struct first. The socket
/// send path uses this so its steady state allocates nothing per frame.
pub fn encode_channel_frame_into(from: &Urn, to: &Urn, payload: &[u8], out: &mut Vec<u8>) {
    let mut e = Encoder::from_vec(std::mem::take(out));
    from.encode(&mut e);
    to.encode(&mut e);
    e.put_bytes(payload);
    *out = e.finish();
}

impl Wire for ChannelFrame {
    fn encode(&self, e: &mut Encoder) {
        self.from.encode(e);
        self.to.encode(e);
        e.put_bytes(&self.payload);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ChannelFrame {
            from: Urn::decode(d)?,
            to: Urn::decode(d)?,
            payload: d.get_bytes()?.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_frame() {
        let framed = encode_frame(b"hello");
        let (consumed, payload) = decode_frame(&framed).unwrap().unwrap();
        assert_eq!(consumed, framed.len());
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn empty_frame_roundtrips() {
        let framed = encode_frame(b"");
        let (consumed, payload) = decode_frame(&framed).unwrap().unwrap();
        assert_eq!(consumed, 1);
        assert!(payload.is_empty());
    }

    #[test]
    fn partial_frames_ask_for_more() {
        let framed = encode_frame(&vec![7u8; 300]);
        for cut in 0..framed.len() {
            assert_eq!(decode_frame(&framed[..cut]).unwrap(), None, "cut at {cut}");
        }
        assert!(decode_frame(&framed).unwrap().is_some());
    }

    #[test]
    fn oversize_length_is_a_typed_error() {
        let mut e = Encoder::new();
        e.put_varint(MAX_FRAME as u64 + 1);
        assert_eq!(
            decode_frame(&e.finish()),
            Err(FrameError::Oversize(MAX_FRAME as u64 + 1))
        );
    }

    #[test]
    fn non_minimal_varint_is_a_typed_error() {
        // 0x80 0x00 encodes zero non-minimally.
        assert_eq!(decode_frame(&[0x80, 0x00]), Err(FrameError::BadLength));
    }

    #[test]
    fn buffer_reassembles_across_chunk_boundaries() {
        let mut stream = Vec::new();
        let frames: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 1 + i as usize * 37]).collect();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f));
        }
        let mut out = Vec::new();
        let mut fb = FrameBuffer::new();
        for chunk in stream.chunks(13) {
            fb.extend(chunk);
            while let Some(frame) = fb.next_frame().unwrap() {
                out.push(frame);
            }
        }
        assert_eq!(out, frames);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn channel_frame_roundtrips() {
        let f = ChannelFrame {
            from: Urn::server("a.org", ["s"]).unwrap(),
            to: Urn::server("b.org", ["s"]).unwrap(),
            payload: vec![1, 2, 3],
        };
        assert_eq!(ChannelFrame::from_bytes(&f.to_bytes()).unwrap(), f);
    }

    #[test]
    fn encode_frame_into_matches_encode_frame_and_appends() {
        for len in [0usize, 1, 127, 128, 300, 20_000] {
            let payload = vec![0x5Au8; len];
            let fresh = encode_frame(&payload);
            let mut pooled = vec![0xEE]; // pre-existing byte must survive
            encode_frame_into(&payload, &mut pooled);
            assert_eq!(pooled[0], 0xEE);
            assert_eq!(&pooled[1..], fresh.as_slice(), "len {len}");
        }
    }

    #[test]
    fn encode_channel_frame_into_matches_struct_encoding() {
        let from = Urn::server("a.org", ["s"]).unwrap();
        let to = Urn::server("b.org", ["s"]).unwrap();
        for payload in [vec![], vec![9u8; 7], vec![1u8; 999]] {
            let whole = ChannelFrame {
                from: from.clone(),
                to: to.clone(),
                payload: payload.clone(),
            }
            .to_bytes();
            let mut out = Vec::new();
            encode_channel_frame_into(&from, &to, &payload, &mut out);
            assert_eq!(out, whole);
        }
    }

    #[test]
    fn frame_buffer_cursor_survives_heavy_churn_and_compacts() {
        fn body(n: u64) -> Vec<u8> {
            let mut b = vec![(n % 251) as u8; 120];
            b[..8].copy_from_slice(&n.to_be_bytes());
            b
        }
        let mut fb = FrameBuffer::new();
        let mut expected = 0u64;
        // Keep the buffer at least one frame deep so consumption only
        // ever advances the cursor; ~120-byte frames × 2000 rounds push
        // the dead prefix well past COMPACT_THRESHOLD, forcing several
        // compactions mid-stream. Every frame must come back in order.
        for round in 0..2_000u64 {
            fb.extend(&encode_frame(&body(round)));
            if round == 0 {
                continue;
            }
            let frame = fb.next_frame().unwrap().expect("a frame is buffered");
            assert_eq!(frame, body(expected));
            expected += 1;
        }
        while let Some(frame) = fb.next_frame().unwrap() {
            assert_eq!(frame, body(expected));
            expected += 1;
        }
        assert_eq!(expected, 2_000);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn next_frame_ref_borrows_the_same_bytes() {
        let mut fb = FrameBuffer::new();
        fb.extend(&encode_frame(b"alpha"));
        fb.extend(&encode_frame(b"beta"));
        assert_eq!(fb.next_frame_ref().unwrap().unwrap(), b"alpha");
        assert_eq!(fb.next_frame_ref().unwrap().unwrap(), b"beta");
        assert_eq!(fb.next_frame_ref().unwrap(), None);
    }
}
