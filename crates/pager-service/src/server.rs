//! The stdio front: the wire protocols over any reader/writer pair.
//!
//! `pager-serve --stdio` (and in-process tests) speak the
//! [`crate::proto`] wire protocols — v1 JSON lines and v2 binary
//! frames, selected *per message* by the first byte
//! ([`pager_wire::frame::split`]) — against one [`PagerService`], one
//! message at a time. TCP connections are served by the transport
//! engine ([`crate::engine`]) instead.

use std::io::{BufRead, Write};

use jsonio::Value;
use pager_wire::frame::{self, Split};
use pager_wire::{binary, ErrorCode, IdView};

use crate::error::ServiceError;
use crate::proto::{error_line, handle_frame, handle_line};
use crate::service::PagerService;

/// Serves the wire protocols over arbitrary reader/writer pairs (used
/// for `pager-serve --stdio` and in-process tests), one message at a
/// time — v1 lines and v2 frames interleave freely. Returns when the
/// reader reaches EOF, a shutdown request is handled, or a malformed
/// v2 frame forces a close.
///
/// # Errors
///
/// Propagates I/O errors from the reader or writer.
pub fn serve_lines<R: BufRead, W: Write>(
    service: &PagerService,
    mut reader: R,
    mut writer: W,
) -> std::io::Result<()> {
    let mut buf: Vec<u8> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF; a partial trailing message has no sender left to
            // answer and is dropped.
            return Ok(());
        }
        let n = chunk.len();
        buf.extend_from_slice(chunk);
        reader.consume(n);
        let mut cursor = 0;
        loop {
            out.clear();
            let (consumed, open) = match frame::split(&buf[cursor..]) {
                Split::NeedMore => break,
                Split::Malformed(message) => {
                    // A hostile or corrupt header: the stream can never
                    // re-synchronise, so answer once and close.
                    binary::encode_error_response(
                        &mut out,
                        IdView::Null,
                        service.node_id(),
                        ErrorCode::BadRequest,
                        message,
                        None,
                    );
                    (0, false)
                }
                Split::V1Line { line, consumed } => {
                    let (response, open) = match std::str::from_utf8(line) {
                        Ok(text) if text.trim().is_empty() => {
                            cursor += consumed;
                            continue;
                        }
                        Ok(text) => {
                            let outcome = handle_line(service, text);
                            (outcome.response, !outcome.shutdown)
                        }
                        Err(_) => {
                            let error =
                                ServiceError::BadRequest("request line is not UTF-8".into());
                            (error_line(service, &Value::Null, &error), true)
                        }
                    };
                    out.extend_from_slice(response.as_bytes());
                    out.push(b'\n');
                    (consumed, open)
                }
                Split::V2Frame {
                    op,
                    payload,
                    consumed,
                } => (consumed, !handle_frame(service, op, payload, &mut out)),
            };
            writer.write_all(&out)?;
            writer.flush()?;
            if !open {
                return Ok(());
            }
            cursor += consumed;
        }
        buf.drain(..cursor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use jsonio::Value;
    use std::io::Cursor;

    fn service() -> PagerService {
        PagerService::new(ServiceConfig {
            workers: 2,
            capacity: 64,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn serve_lines_round_trip() {
        let svc = service();
        let input =
            "\n{\"id\": 1, \"instance\": [[0.5, 0.5]], \"delay\": 1}\n{\"cmd\": \"ping\"}\n";
        let mut out = Vec::new();
        serve_lines(&svc, Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = jsonio::parse(lines[0]).unwrap();
        assert_eq!(first.get("ok").and_then(Value::as_bool), Some(true));
        assert!(lines[1].contains("pong"));
    }

    #[test]
    fn serve_lines_stops_on_shutdown() {
        let svc = service();
        let input = "{\"cmd\": \"shutdown\"}\n{\"cmd\": \"ping\"}\n";
        let mut out = Vec::new();
        serve_lines(&svc, Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1, "no output after shutdown");
        assert!(text.contains("stopping"));
    }

    #[test]
    fn serve_lines_interleaves_v1_and_v2_messages() {
        use pager_core::{Delay, Instance};
        use pager_wire::{Codec, PlanSpec, Request};
        let svc = service();
        let mut input = Vec::new();
        input.extend_from_slice(b"{\"id\": 1, \"instance\": [[0.5, 0.5]], \"delay\": 1}\n");
        let request = Request::Plan {
            id: Value::Int(2),
            instance: Instance::from_rows(vec![vec![0.5, 0.5]]).unwrap(),
            spec: PlanSpec::new(Delay::new(1).unwrap()),
        };
        pager_wire::BinaryCodec.encode_request(&request, &mut input);
        input.extend_from_slice(b"{\"cmd\": \"ping\"}\n");
        let mut out = Vec::new();
        serve_lines(&svc, Cursor::new(input), &mut out).unwrap();
        // First answer: a v1 line.
        let newline = out.iter().position(|&b| b == b'\n').unwrap();
        let v1 = jsonio::parse(std::str::from_utf8(&out[..newline]).unwrap()).unwrap();
        assert_eq!(v1.get("id").and_then(Value::as_i64), Some(1));
        // Second: a v2 plan frame, served from the cache the v1
        // request populated.
        let rest = &out[newline + 1..];
        let Split::V2Frame {
            op,
            payload,
            consumed,
        } = frame::split(rest)
        else {
            panic!("expected a v2 frame after the v1 line");
        };
        let v2 = binary::response_to_value(op, payload).unwrap();
        assert_eq!(v2.get("id").and_then(Value::as_i64), Some(2));
        assert_eq!(v2.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(v2.get("strategy"), v1.get("strategy"));
        // Third: the v1 pong.
        let tail = std::str::from_utf8(&rest[consumed..]).unwrap();
        assert!(tail.contains("pong"), "{tail}");
    }

    #[test]
    fn malformed_frames_get_an_error_and_a_clean_close() {
        let svc = service();
        // A magic byte with a hostile version: unrecoverable.
        let input = [frame::MAGIC, 9, 1, 0, 0, 0, 0, 0];
        let mut out = Vec::new();
        serve_lines(&svc, Cursor::new(input.to_vec()), &mut out).unwrap();
        let Split::V2Frame { op, payload, .. } = frame::split(&out) else {
            panic!("expected an error frame");
        };
        let v = binary::response_to_value(op, payload).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("bad_request"));
    }
}
