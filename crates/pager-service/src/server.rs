//! The stdio front: the wire protocols over any reader/writer pair.
//!
//! `pager-serve --stdio` (and in-process tests) speak the
//! [`crate::proto`] wire protocols — v1 JSON lines and v2 binary
//! frames, selected *per message* by the first byte — against one
//! [`PagerService`], one message at a time. TCP connections are served
//! by the transport engine ([`crate::engine`]) instead; both read
//! through [`pager_wire::frame::next_message`], so they answer alike.

use std::io::{BufRead, Write};

use pager_wire::frame;

use crate::proto::handle_message;
use crate::service::PagerService;

/// Serves the wire protocols over arbitrary reader/writer pairs (used
/// for `pager-serve --stdio` and in-process tests), one message at a
/// time — v1 lines and v2 frames interleave freely, and every message
/// is read through [`frame::next_message`], as the TCP engine reads
/// it. Returns when the reader reaches EOF (after serving an
/// unterminated last line), a shutdown request is handled, or a
/// malformed v2 frame forces a close.
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
    let mut eof = false;
    loop {
        let mut cursor = 0;
        while let Some((message, consumed)) = frame::next_message(&buf[cursor..], eof) {
            cursor += consumed;
            out.clear();
            let end = handle_message(service, message, &mut out);
            if !out.is_empty() {
                writer.write_all(&out)?;
                writer.flush()?;
            }
            if end {
                return Ok(());
            }
        }
        if eof {
            // Whatever is left is a partial frame with no sender left
            // to answer.
            return Ok(());
        }
        buf.drain(..cursor);
        let chunk = reader.fill_buf()?;
        eof = chunk.is_empty();
        let n = chunk.len();
        buf.extend_from_slice(chunk);
        reader.consume(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use jsonio::Value;
    use pager_wire::binary;
    use pager_wire::frame::Split;
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
    fn bad_lines_are_answered_and_eof_tails_served() {
        let svc = service();
        let input = b"\xff\xfe\n{\"cmd\": \"ping\"}\n{\"cmd\": \"ping\"}".to_vec();
        let mut out = Vec::new();
        serve_lines(&svc, Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("\"code\":\"bad_request\""), "{text}");
        assert!(
            lines[1..].iter().all(|line| line.contains("pong")),
            "{text}"
        );
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
        use pager_wire::PlanSpec;
        let svc = service();
        let mut input = Vec::new();
        input.extend_from_slice(b"{\"id\": 1, \"instance\": [[0.5, 0.5]], \"delay\": 1}\n");
        let instance = Instance::from_rows(vec![vec![0.5, 0.5]]).unwrap();
        let spec = PlanSpec::new(Delay::new(1).unwrap());
        assert!(binary::encode_plan_request(
            &mut input,
            &Value::Int(2),
            &instance,
            &spec
        ));
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
