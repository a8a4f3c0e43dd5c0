//! The v2 frame layer and per-message protocol detection.
//!
//! A v2 frame is an 8-byte header followed by `len` payload bytes:
//!
//! ```text
//! offset  size  field
//! 0       1     magic 0xB7
//! 1       1     protocol version (2)
//! 2       1     op code (see [`op`])
//! 3       1     flags (bit 0 = checked; others reserved, must be 0)
//! 4       4     payload length, u32 little-endian
//! 8       len   payload
//! 8+len   4     CRC-32 of header + payload (checked frames only)
//! ```
//!
//! A **checked** frame (`FLAG_CHECKED`) carries a CRC-32 trailer
//! over everything before it, so a flipped byte anywhere in the
//! header or payload surfaces as [`Split::Malformed`] instead of
//! silently corrupt data. TCP's own checksum is too weak to rely on
//! across proxies and middleboxes, so every frame a server writes is
//! sealed ([`seal_frame`]), and so is every request the cluster router
//! sends a backend. Clients may send unsealed frames.
//!
//! Every front (the TCP engine, `--stdio`, the in-process handlers)
//! reads connection bytes through [`next_message`], so they all answer
//! alike. Its first step, [`split`], recognises v1 and v2 messages
//! *per message*: a buffer starting with the magic byte is a v2 frame,
//! anything else is a v1 JSON line up to the next `\n`. (`0xB7` is not
//! valid UTF-8 as a leading byte, so no JSON line can start with it.)
//! One connection may freely interleave both protocols; the server
//! answers each message in the protocol it arrived in. On top of that,
//! `next_message` skips blank lines, unwraps `JSON_REQ` frames, rejects
//! non-UTF-8 input and decides what the end of the stream is owed.

use jsonio::Value;

use crate::{binary, json, ErrorBody, ErrorCode, IdView};

/// First byte of every v2 frame.
pub const MAGIC: u8 = 0xB7;

/// The protocol version carried in byte 1 of the header.
pub const VERSION: u8 = 2;

/// Header size in bytes.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a declared payload length. A header declaring more
/// is malformed — the connection is answered with `bad_request` and
/// closed rather than buffering unboundedly.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Flags bit 0: the frame ends in a 4-byte little-endian CRC-32 of
/// the header and payload. [`split`] verifies and strips the trailer;
/// a mismatch is [`Split::Malformed`], never delivered data.
pub(crate) const FLAG_CHECKED: u8 = 0x01;

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320): the
/// profile WAL's record checksum, reused for checked frames.
pub use pager_profiles::wal::crc32;

/// v2 op codes.
pub mod op {
    /// Plan request (binary instance payload).
    pub const PLAN: u8 = 0x01;
    /// Plan response.
    pub const PLAN_RESP: u8 = 0x02;
    /// Error response.
    pub const ERROR: u8 = 0x03;
    /// Liveness probe.
    pub const PING: u8 = 0x04;
    /// Liveness answer.
    pub const PONG: u8 = 0x05;
    /// A router's sub-batch of sightings for the owner to ingest.
    pub const OBSERVE: u8 = 0x06;
    /// Answer to [`OBSERVE`]: the versions, and the WAL frames to ship.
    pub const OBSERVE_RESP: u8 = 0x07;
    /// Raw WAL frames for a replica to apply.
    pub const WAL_APPLY: u8 = 0x08;
    /// Answer to [`WAL_APPLY`].
    pub const WAL_APPLY_RESP: u8 = 0x09;
    /// A read of an owner's WAL from a replica's cursor.
    pub const WAL_SHIP: u8 = 0x0A;
    /// Answer to [`WAL_SHIP`]: one segment of raw WAL bytes.
    pub const WAL_SHIP_RESP: u8 = 0x0B;
    /// Any other request, as v1 JSON line bytes in the payload.
    pub const JSON_REQ: u8 = 0x7E;
    /// Response to [`JSON_REQ`], as v1 JSON line bytes.
    pub const JSON_RESP: u8 = 0x7F;
}

/// What the front of a connection buffer holds.
#[derive(Debug, PartialEq, Eq)]
pub enum Split<'a> {
    /// Not enough bytes yet for a full message.
    NeedMore,
    /// A complete v1 line (without its `\n`); `consumed` includes the
    /// newline.
    V1Line {
        /// The line bytes, newline excluded.
        line: &'a [u8],
        /// Bytes to drop from the buffer front.
        consumed: usize,
    },
    /// A complete v2 frame.
    V2Frame {
        /// The op code (not yet validated against known ops).
        op: u8,
        /// The payload bytes.
        payload: &'a [u8],
        /// Bytes to drop from the buffer front.
        consumed: usize,
    },
    /// The buffer front cannot be a legal message; the connection
    /// should answer `bad_request` and close.
    Malformed(&'static str),
}

/// Splits the next message off the front of `buf`.
#[must_use]
pub fn split(buf: &[u8]) -> Split<'_> {
    let Some(&first) = buf.first() else {
        return Split::NeedMore;
    };
    if first != MAGIC {
        // v1: a JSON line up to the newline. Anything non-JSON still
        // takes this path and earns a v1 bad_request answer. A line
        // that exceeds the frame bound without a newline is hostile
        // (or a corrupted stream that lost its framing) — close it
        // rather than buffering without limit.
        return match buf.iter().position(|&b| b == b'\n') {
            Some(end) => Split::V1Line {
                line: &buf[..end],
                consumed: end + 1,
            },
            None if buf.len() > MAX_FRAME_LEN => {
                Split::Malformed("unterminated v1 line exceeds the 16 MiB bound")
            }
            None => Split::NeedMore,
        };
    }
    if buf.len() < HEADER_LEN {
        return Split::NeedMore;
    }
    if buf[1] != VERSION {
        return Split::Malformed("unsupported frame version");
    }
    if buf[3] & !FLAG_CHECKED != 0 {
        // Reserved flags must be zero. A set bit is either a newer
        // peer (which must negotiate down) or a corrupted header; in
        // both cases trusting the length field is unsafe.
        return Split::Malformed("reserved header flags set");
    }
    let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    if len > MAX_FRAME_LEN {
        return Split::Malformed("declared frame length exceeds the 16 MiB bound");
    }
    let trailer = if buf[3] & FLAG_CHECKED != 0 { 4 } else { 0 };
    if buf.len() < HEADER_LEN + len + trailer {
        return Split::NeedMore;
    }
    if trailer != 0 {
        let body = HEADER_LEN + len;
        let want = u32::from_le_bytes([buf[body], buf[body + 1], buf[body + 2], buf[body + 3]]);
        if crc32(&buf[..body]) != want {
            // The trailer disagrees with the bytes it covers: a flip
            // somewhere in header or payload. Never deliver it.
            return Split::Malformed("frame checksum mismatch");
        }
    }
    Split::V2Frame {
        op: buf[2],
        payload: &buf[HEADER_LEN..HEADER_LEN + len],
        consumed: HEADER_LEN + len + trailer,
    }
}

/// The protocol a message arrived in, which is the protocol its answer
/// leaves in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Framing {
    /// A v1 line, answered with a bare line.
    Line,
    /// A v2 frame. A line-shaped answer rides a sealed `JSON_RESP`
    /// frame; a `bad_request` is an `ERROR` frame.
    Frame,
}

impl Framing {
    /// Appends a line-shaped answer: a bare v1 line, or a sealed
    /// `JSON_RESP` frame (the one `JSON_RESP` encoder; sealed like every
    /// frame a server writes).
    pub fn append_line(self, line: &str, out: &mut Vec<u8>) {
        match self {
            Framing::Line => {
                out.extend_from_slice(line.as_bytes());
                out.push(b'\n');
            }
            Framing::Frame => {
                let start = begin_frame(out, op::JSON_RESP);
                out.extend_from_slice(line.as_bytes());
                seal_frame(out, start);
            }
        }
    }

    /// Appends the `bad_request` a [`Message::Reject`] is owed, stamped
    /// with the answering node's name.
    pub fn append_bad_request(self, out: &mut Vec<u8>, node: Option<&str>, reason: &str) {
        match self {
            Framing::Line => {
                let body = ErrorBody {
                    id: &Value::Null,
                    code: ErrorCode::BadRequest,
                    message: reason,
                    retry_after_ms: None,
                };
                self.append_line(&json::error_line(node, &body), out);
            }
            Framing::Frame => binary::encode_error_response(
                out,
                IdView::Null,
                node,
                ErrorCode::BadRequest,
                reason,
                None,
            ),
        }
    }
}

/// One message taken off a connection buffer by [`next_message`], with
/// every framing decision made.
#[derive(Debug, PartialEq, Eq)]
pub enum Message<'a> {
    /// A blank v1 line: nothing to answer.
    Blank,
    /// A request line, trimmed: a v1 line, or the line a `JSON_REQ`
    /// frame carries. Its answer goes back in `framing`
    /// ([`Framing::append_line`]).
    Line {
        /// The request line.
        text: &'a str,
        /// How the request arrived.
        framing: Framing,
    },
    /// A native v2 request frame (any op but `JSON_REQ`).
    Frame {
        /// The op code (not yet validated against known ops).
        op: u8,
        /// The payload bytes.
        payload: &'a [u8],
    },
    /// Bytes owed a `bad_request` in the protocol they arrived in
    /// ([`Framing::append_bad_request`]).
    Reject {
        /// How the bytes arrived.
        framing: Framing,
        /// The error message.
        reason: &'static str,
        /// The stream cannot re-synchronise (a malformed header): answer
        /// once, discard the rest and close. Otherwise the stream goes
        /// on with the next message.
        close: bool,
    },
}

impl<'a> Message<'a> {
    /// Classifies one complete v2 frame: a `JSON_REQ` frame unwraps to
    /// the line it carries (or is rejected when that is not UTF-8); any
    /// other op is a native frame.
    #[must_use]
    pub fn of_frame(frame_op: u8, payload: &'a [u8]) -> Message<'a> {
        if frame_op != op::JSON_REQ {
            return Message::Frame {
                op: frame_op,
                payload,
            };
        }
        match std::str::from_utf8(payload) {
            Ok(text) => Message::Line {
                text: text.trim(),
                framing: Framing::Frame,
            },
            Err(_) => Message::Reject {
                framing: Framing::Frame,
                reason: "JSON request frame payload is not UTF-8",
                close: false,
            },
        }
    }

    /// Classifies one v1 line (newline excluded).
    fn of_line(line: &'a [u8]) -> Message<'a> {
        match std::str::from_utf8(line) {
            Ok(text) if text.trim().is_empty() => Message::Blank,
            Ok(text) => Message::Line {
                text: text.trim(),
                framing: Framing::Line,
            },
            Err(_) => Message::Reject {
                framing: Framing::Line,
                reason: "request line is not UTF-8",
                close: false,
            },
        }
    }
}

/// Takes the next message off the front of a connection buffer: the
/// one framing rule every front applies (table in `docs/wire.md`).
/// Returns the message and the bytes it consumed, or `None` while the
/// buffer holds no complete message.
///
/// `eof` says no more bytes will arrive. An unterminated v1 line is
/// then served as if terminated; a partial v2 frame stays `None` and
/// goes unanswered. A malformed header is a closing
/// [`Message::Reject`] that consumes the whole buffer.
#[must_use]
pub fn next_message(buf: &[u8], eof: bool) -> Option<(Message<'_>, usize)> {
    match split(buf) {
        Split::V1Line { line, consumed } => Some((Message::of_line(line), consumed)),
        Split::V2Frame {
            op: frame_op,
            payload,
            consumed,
        } => Some((Message::of_frame(frame_op, payload), consumed)),
        Split::Malformed(reason) => Some((
            Message::Reject {
                framing: Framing::Frame,
                reason,
                close: true,
            },
            buf.len(),
        )),
        Split::NeedMore if eof && buf.first().is_some_and(|&b| b != MAGIC) => {
            Some((Message::of_line(buf), buf.len()))
        }
        Split::NeedMore => None,
    }
}

/// Appends a v2 frame header for `op` with a zero length to `out`,
/// returning the header's offset. Pair with `finish_frame` after the
/// payload is written.
pub fn begin_frame(out: &mut Vec<u8>, op: u8) -> usize {
    let start = out.len();
    out.extend_from_slice(&[MAGIC, VERSION, op, 0, 0, 0, 0, 0]);
    start
}

/// Patches the length field of the frame started at `start` to cover
/// everything appended since. Frames over [`MAX_FRAME_LEN`] cannot be
/// produced by this crate's encoders: their payloads are bounded by
/// request sizes the decoders already capped, and the WAL bytes an
/// `OBSERVE_RESP` or `WAL_SHIP_RESP` carries are at most one ship
/// window (2 MiB). The cast therefore saturates defensively rather than
/// panicking.
pub(crate) fn finish_frame(out: &mut [u8], start: usize) {
    let len = out.len() - start - HEADER_LEN;
    let len = u32::try_from(len).unwrap_or(u32::MAX);
    out[start + 4..start + 8].copy_from_slice(&len.to_le_bytes());
}

/// Appends one complete, unsealed v2 frame with the given payload: the
/// form a client may send. Servers seal what they write
/// ([`seal_frame`]).
pub fn write_frame(out: &mut Vec<u8>, op: u8, payload: &[u8]) {
    let start = begin_frame(out, op);
    out.extend_from_slice(payload);
    finish_frame(out, start);
}

/// Finishes the frame started at `start` as a **checked** frame:
/// patches its length (`finish_frame`), sets `FLAG_CHECKED` and
/// appends the CRC-32 trailer. Every frame a server writes ends here —
/// the native response encoders, a `JSON_RESP`
/// ([`Framing::append_line`]) and the router's requests to its
/// backends.
pub fn seal_frame(out: &mut Vec<u8>, start: usize) {
    finish_frame(out, start);
    out[start + 3] |= FLAG_CHECKED;
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_checked_frame(out: &mut Vec<u8>, op: u8, payload: &[u8]) {
        let start = begin_frame(out, op);
        out.extend_from_slice(payload);
        seal_frame(out, start);
    }

    #[test]
    fn v1_lines_split_on_newlines() {
        let buf = b"{\"cmd\":\"ping\"}\n{\"next\"";
        match split(buf) {
            Split::V1Line { line, consumed } => {
                assert_eq!(line, b"{\"cmd\":\"ping\"}");
                assert_eq!(consumed, 15);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(split(b"{\"partial\""), Split::NeedMore);
        assert_eq!(split(b""), Split::NeedMore);
    }

    #[test]
    fn v2_frames_round_trip() {
        let mut out = Vec::new();
        write_frame(&mut out, op::PING, b"abc");
        match split(&out) {
            Split::V2Frame {
                op: o,
                payload,
                consumed,
            } => {
                assert_eq!(o, op::PING);
                assert_eq!(payload, b"abc");
                assert_eq!(consumed, out.len());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncated_frames_wait_for_more() {
        let mut out = Vec::new();
        write_frame(&mut out, op::PLAN, &[9; 100]);
        for cut in [1, 4, 7, 8, 50, 107] {
            assert_eq!(split(&out[..cut]), Split::NeedMore, "cut at {cut}");
        }
    }

    #[test]
    fn hostile_headers_are_malformed_not_panics() {
        // Wrong version.
        let bad_version = [MAGIC, 9, op::PING, 0, 0, 0, 0, 0];
        assert!(matches!(split(&bad_version), Split::Malformed(_)));
        // Oversize declared length.
        let mut oversize = vec![MAGIC, VERSION, op::PLAN, 0];
        oversize.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(split(&oversize), Split::Malformed(_)));
        // A length just over the cap.
        let mut over = vec![MAGIC, VERSION, op::PLAN, 0];
        over.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
        assert!(matches!(split(&over), Split::Malformed(_)));
        // At the cap: legal, just incomplete.
        let mut at = vec![MAGIC, VERSION, op::PLAN, 0];
        at.extend_from_slice(&(MAX_FRAME_LEN as u32).to_le_bytes());
        assert_eq!(split(&at), Split::NeedMore);
        // Any reserved flag bit set: malformed, even with a sane
        // length (the header can no longer be trusted). Bit 0 is the
        // checked flag and legal; every other bit is reserved.
        for flags in [0x02, 0x80, 0xFE, 0xFF] {
            let flagged = [MAGIC, VERSION, op::PING, flags, 0, 0, 0, 0];
            assert!(
                matches!(split(&flagged), Split::Malformed(_)),
                "flags {flags:#x}"
            );
        }
    }

    #[test]
    fn checked_frame_bytes_are_pinned() {
        let mut out = Vec::new();
        write_checked_frame(&mut out, op::PING, b"golden");
        let pinned = [
            183, 2, 4, 1, 6, 0, 0, 0, 103, 111, 108, 100, 101, 110, 102, 126, 36, 177,
        ];
        assert_eq!(out, pinned);
    }

    #[test]
    fn checked_frames_round_trip_and_verify() {
        let mut out = Vec::new();
        write_checked_frame(&mut out, op::JSON_RESP, b"{\"ok\":true}");
        assert_eq!(out[3], FLAG_CHECKED);
        match split(&out) {
            Split::V2Frame {
                op: o,
                payload,
                consumed,
            } => {
                assert_eq!(o, op::JSON_RESP);
                assert_eq!(payload, b"{\"ok\":true}");
                assert_eq!(consumed, out.len(), "trailer consumed with the frame");
            }
            other => panic!("{other:?}"),
        }
        // The trailer itself is part of the message: a frame cut
        // anywhere before its end is still incomplete.
        for cut in [out.len() - 4, out.len() - 1] {
            assert_eq!(split(&out[..cut]), Split::NeedMore, "cut at {cut}");
        }
    }

    #[test]
    fn checked_frames_never_deliver_flipped_bytes() {
        let mut wire = Vec::new();
        write_checked_frame(
            &mut wire,
            op::JSON_RESP,
            br#"{"ok":true,"profile_versions":[57]}"#,
        );
        // Flip every bit of every byte: the splitter may ask for more
        // bytes or reject the frame, but a frame it does deliver must
        // be byte-identical to what was sealed — a single flip can
        // never surface as silently different data.
        for at in 0..wire.len() {
            for bit in 0..8 {
                let mut bad = wire.clone();
                bad[at] ^= 1 << bit;
                match split(&bad) {
                    Split::Malformed(_) | Split::NeedMore | Split::V1Line { .. } => {}
                    // Clearing the checked flag downgrades the frame
                    // but cannot alter its bytes (the stream desyncs
                    // at the orphaned trailer instead). Anything else
                    // delivered must be byte-identical too.
                    Split::V2Frame { op: o, payload, .. } => {
                        assert_eq!(o, op::JSON_RESP, "byte {at} bit {bit}: op changed");
                        assert_eq!(
                            payload, br#"{"ok":true,"profile_versions":[57]}"#,
                            "byte {at} bit {bit}: payload changed"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unterminated_v1_lines_are_bounded() {
        // Just inside the bound: still waiting for the newline.
        let mut line = vec![b'{'; MAX_FRAME_LEN];
        assert_eq!(split(&line), Split::NeedMore);
        // One byte past it with no newline in sight: malformed, so
        // the transport closes instead of buffering forever.
        line.push(b'x');
        assert!(matches!(split(&line), Split::Malformed(_)));
        // A newline anywhere still wins: the line splits normally.
        line.push(b'\n');
        assert!(matches!(split(&line), Split::V1Line { .. }));
    }

    #[test]
    fn next_message_makes_every_framing_decision() {
        let line = |text| Message::Line {
            text,
            framing: Framing::Line,
        };
        // Blank lines are consumed unanswered; lines arrive trimmed.
        assert_eq!(next_message(b" \r\nx", false), Some((Message::Blank, 3)));
        assert_eq!(next_message(b" {} \r\n", false), Some((line("{}"), 6)));
        // A non-UTF-8 line is rejected and the stream goes on.
        let reject = |framing| Message::Reject {
            framing,
            reason: match framing {
                Framing::Line => "request line is not UTF-8",
                Framing::Frame => "JSON request frame payload is not UTF-8",
            },
            close: false,
        };
        assert_eq!(
            next_message(b"\xff\xfe\n{}\n", false),
            Some((reject(Framing::Line), 3))
        );
        // A JSON_REQ frame unwraps to its line; other ops stay frames.
        let mut wire = Vec::new();
        write_frame(&mut wire, op::JSON_REQ, b"{\"cmd\":\"ping\"}\n");
        let wrapped = Message::Line {
            text: "{\"cmd\":\"ping\"}",
            framing: Framing::Frame,
        };
        assert_eq!(next_message(&wire, false), Some((wrapped, wire.len())));
        let mut bad = Vec::new();
        write_frame(&mut bad, op::JSON_REQ, b"\xff");
        assert_eq!(
            next_message(&bad, false),
            Some((reject(Framing::Frame), bad.len()))
        );
        let mut ping = Vec::new();
        write_frame(&mut ping, op::PING, b"");
        let native = Message::Frame {
            op: op::PING,
            payload: b"",
        };
        assert_eq!(next_message(&ping, true), Some((native, 8)));
        // A malformed header closes and takes the whole buffer.
        let hostile = [MAGIC, 9, op::PING, 0, 0, 0, 0, 0, b'x'];
        assert!(matches!(
            next_message(&hostile, false),
            Some((
                Message::Reject {
                    framing: Framing::Frame,
                    close: true,
                    ..
                },
                9
            ))
        ));
        // At EOF an unterminated line is served and a partial frame
        // is not; before EOF both wait.
        assert_eq!(next_message(b"{}", false), None);
        assert_eq!(next_message(b"{}", true), Some((line("{}"), 2)));
        assert_eq!(next_message(&ping[..5], true), None);
        assert_eq!(next_message(b"", true), None);
    }

    #[test]
    fn bad_requests_answer_in_the_arrival_protocol() {
        let mut out = Vec::new();
        Framing::Line.append_bad_request(&mut out, Some("n1"), "no");
        assert_eq!(
            out,
            b"{\"v\":1,\"id\":null,\"ok\":false,\"code\":\"bad_request\",\"error\":\"no\",\"node\":\"n1\"}\n"
        );
        out.clear();
        Framing::Frame.append_bad_request(&mut out, None, "no");
        let Split::V2Frame { op: o, payload, .. } = split(&out) else {
            panic!("expected an error frame");
        };
        assert_eq!(o, op::ERROR);
        let v = binary::response_to_value(o, payload).unwrap();
        assert_eq!(v.get("code").and_then(Value::as_str), Some("bad_request"));
    }

    #[test]
    fn interleaved_protocols_split_in_order() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"{\"cmd\":\"ping\"}\n");
        write_frame(&mut buf, op::PING, b"");
        let Split::V1Line { consumed, .. } = split(&buf) else {
            panic!("expected v1 first");
        };
        assert!(matches!(
            split(&buf[consumed..]),
            Split::V2Frame { op: op::PING, .. }
        ));
    }
}
