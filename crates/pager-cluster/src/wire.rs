//! Minimal client connection to one backend node.
//!
//! One TCP connection to a `pager-serve` node, speaking either
//! protocol: write one v1 request line and read one response line
//! ([`Conn::round_trip`]), the same line sealed in CRC-checked v2
//! `JSON_REQ`/`JSON_RESP` frames ([`Conn::round_trip_checked`] — the
//! router's default for internal traffic, so in-flight corruption is
//! rejected instead of served), or write one v2 frame and read one
//! response frame ([`Conn::round_trip_frame`]). Both directions carry
//! socket timeouts so a dead or wedged node surfaces as an error
//! within the router's retry budget instead of hanging a client
//! forever. Replies of both protocols are read through
//! [`frame::split`] over one read buffer, which grows only as bytes
//! arrive, so the header checks and the CRC-32 check are the wire
//! crate's own.
//!
//! The checked round trip also *correlates* request and reply: the
//! request's `id` is rewritten to a per-connection nonce which the
//! backend echoes back (the caller's id is restored before the reply
//! is returned). A CRC-valid reply carrying an **earlier** nonce of
//! this connection is a stale duplicate — a duplicated TCP segment
//! replayed a whole response frame — and is discarded rather than
//! delivered as the answer to the wrong request. The CRC trailer
//! cannot catch this case: the duplicate is a perfectly intact frame,
//! just for a question that was already answered.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use jsonio::Value;
use pager_wire::frame::{self, Split};

/// Bound on stale duplicated replies discarded in one checked round
/// trip. Each discard is a response frame some earlier call already
/// consumed once; more than a handful in a row means the stream is
/// hopeless and the connection should be poisoned instead.
const MAX_STALE_REPLIES: usize = 8;

/// Bytes read per `read` call. Replies are buffered only as their
/// bytes arrive, so a corrupted-but-in-bounds length field costs at
/// most what the peer actually sends before the read times out.
const READ_CHUNK: usize = 16 * 1024;

/// A pooled client connection to one node.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed as a reply. What follows one
    /// reply (a duplicated frame, say) waits here for the next read.
    buf: Vec<u8>,
    /// Correlation nonce for [`Conn::round_trip_checked`]:
    /// monotonically increasing per connection, so a reply echoing a
    /// value below the current nonce is provably one this connection
    /// already consumed (a duplicated frame), never fresh data.
    txn: i64,
}

impl Conn {
    /// Connects to `addr` with `timeout` applied to the connect and to
    /// every subsequent read/write.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Conn, String> {
        let resolved: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve {addr}: {e}"))?
            .collect();
        let first = resolved
            .first()
            .ok_or_else(|| format!("{addr} resolves to no addresses"))?;
        let stream = TcpStream::connect_timeout(first, timeout)
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let mut conn = Conn {
            stream,
            buf: Vec::new(),
            txn: 0,
        };
        conn.set_io_timeout(timeout)?;
        Ok(conn)
    }

    /// Sends one request line and reads one response line, parsed as
    /// JSON. Any transport or parse error poisons the connection (the
    /// caller must drop it rather than return it to a pool: a timed-out
    /// read may leave a half-delivered response in the stream).
    pub fn round_trip(&mut self, line: &str) -> Result<Value, String> {
        let mut wire = Vec::with_capacity(line.len() + 1);
        wire.extend_from_slice(line.as_bytes());
        wire.push(b'\n');
        self.send(&wire)?;
        let response = self.read_line()?;
        jsonio::parse(response.trim_end()).map_err(|e| format!("bad response JSON: {e}"))
    }

    /// Sends one v1 request line sealed inside a checked v2
    /// `JSON_REQ` frame and reads the backend's checked `JSON_RESP`,
    /// parsed as JSON. Both directions carry a CRC-32 trailer, so a
    /// byte flipped in flight — in either the request or the response
    /// — surfaces as an error here (or a `bad_request` at the
    /// backend), never as silently corrupt data. An unchecked reply
    /// is rejected outright: this hop does not negotiate down.
    ///
    /// The request's `id` travels as a per-connection nonce (the
    /// caller's id is restored in the returned reply), and only the
    /// reply echoing that nonce is delivered: a reply echoing an
    /// earlier nonce is a stale duplicate left in the stream by a
    /// replayed TCP segment and is skipped, while any other id is an
    /// unmatched reply that poisons the connection.
    pub fn round_trip_checked(&mut self, line: &str) -> Result<Value, String> {
        let mut request =
            jsonio::parse(line).map_err(|e| format!("bad internal request JSON: {e}"))?;
        let Value::Object(fields) = &mut request else {
            return Err("internal request line is not a JSON object".to_string());
        };
        self.txn += 1;
        let nonce = self.txn;
        let original_id = match fields.iter_mut().find(|(key, _)| key == "id") {
            Some((_, id)) => std::mem::replace(id, Value::Int(nonce)),
            None => {
                fields.push(("id".to_string(), Value::Int(nonce)));
                // A v1 response always carries `id` (null when the
                // request had none), so "absent" restores to null.
                Value::Null
            }
        };
        let sealed = request.to_string();
        let mut wire = Vec::with_capacity(sealed.len() + frame::HEADER_LEN + 4);
        frame::write_checked_frame(&mut wire, frame::op::JSON_REQ, sealed.as_bytes());
        self.send(&wire)?;
        for _ in 0..=MAX_STALE_REPLIES {
            let (op, payload, checked) = self.read_frame()?;
            if !checked {
                return Err("backend reply is not integrity-checked".to_string());
            }
            if op != frame::op::JSON_RESP {
                return Err(format!("backend answered op {op:#04x}, not JSON_RESP"));
            }
            let text =
                std::str::from_utf8(&payload).map_err(|e| format!("bad response UTF-8: {e}"))?;
            let mut reply =
                jsonio::parse(text.trim_end()).map_err(|e| format!("bad response JSON: {e}"))?;
            match reply.get("id").and_then(Value::as_i64) {
                Some(echoed) if echoed == nonce => {
                    if let Value::Object(fields) = &mut reply {
                        if let Some((_, id)) = fields.iter_mut().find(|(key, _)| key == "id") {
                            *id = original_id.clone();
                        }
                    }
                    return Ok(reply);
                }
                // An earlier nonce of this connection: a stale
                // duplicate of a reply already consumed. Skip it and
                // keep reading for ours.
                Some(echoed) if echoed > 0 && echoed < nonce => {}
                _ => {
                    return Err("unmatched reply from backend (bad correlation id)".to_string());
                }
            }
        }
        Err(format!(
            "no matching reply within {MAX_STALE_REPLIES} stale duplicates"
        ))
    }

    /// Sends one complete v2 frame and reads one v2 response frame,
    /// returning its `(op, payload)`. As with [`Conn::round_trip`],
    /// any transport error (or a non-v2 answer) poisons the
    /// connection and the caller must drop it instead of repooling.
    pub fn round_trip_frame(&mut self, frame_bytes: &[u8]) -> Result<(u8, Vec<u8>), String> {
        self.send(frame_bytes)?;
        let (op, payload, _) = self.read_frame()?;
        Ok((op, payload))
    }

    fn send(&mut self, wire: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(wire)
            .map_err(|e| format!("write failed: {e}"))
    }

    /// Reads one v1 reply line.
    fn read_line(&mut self) -> Result<String, String> {
        loop {
            match frame::split(&self.buf) {
                Split::NeedMore => self.fill()?,
                Split::V1Line { line, consumed } => {
                    let line = std::str::from_utf8(line)
                        .map_err(|e| format!("bad response UTF-8: {e}"))?
                        .to_string();
                    self.buf.drain(..consumed);
                    return Ok(line);
                }
                Split::V2Frame { .. } => {
                    return Err("backend answered a line with a v2 frame".to_string())
                }
                Split::Malformed(message) => return Err(format!("bad backend reply: {message}")),
            }
        }
    }

    /// Reads one v2 reply frame, its CRC-32 trailer (when the checked
    /// flag is set) verified by [`frame::split`]. Returns
    /// `(op, payload, checked)`.
    fn read_frame(&mut self) -> Result<(u8, Vec<u8>, bool), String> {
        loop {
            match frame::split(&self.buf) {
                Split::NeedMore if self.buf.first().is_none_or(|&b| b == frame::MAGIC) => {
                    self.fill()?;
                }
                // A line, or the start of one: no frame starts without
                // the magic byte, so there is no newline to wait for.
                Split::NeedMore | Split::V1Line { .. } => {
                    return Err("backend answered with a non-v2 frame".to_string())
                }
                Split::V2Frame {
                    op,
                    payload,
                    consumed,
                } => {
                    // `split` strips a verified trailer, so only a
                    // checked frame consumes more than it carries.
                    let checked = consumed > frame::HEADER_LEN + payload.len();
                    let reply = (op, payload.to_vec(), checked);
                    self.buf.drain(..consumed);
                    return Ok(reply);
                }
                Split::Malformed(message) => return Err(format!("bad backend reply: {message}")),
            }
        }
    }

    /// Appends what one `read` returns to the buffer.
    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; READ_CHUNK];
        let n = self
            .stream
            .read(&mut chunk)
            .map_err(|e| format!("read failed: {e}"))?;
        if n == 0 {
            return Err("connection closed by peer".to_string());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Re-arms the socket read/write timeouts, bounding every
    /// subsequent operation on this connection. Durations are clamped
    /// to at least 1 ms (a zero timeout is an error in std).
    pub fn set_io_timeout(&mut self, timeout: Duration) -> Result<(), String> {
        let timeout = timeout.max(Duration::from_millis(1));
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| format!("cannot set read timeout: {e}"))?;
        self.stream
            .set_write_timeout(Some(timeout))
            .map_err(|e| format!("cannot set write timeout: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backend that echoes the request id into a well-formed reply
    /// and sends every reply `copies` times — the application-level
    /// view of a link that duplicates TCP segments on whole-frame
    /// boundaries.
    fn duplicating_backend(copies: usize) -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            let mut served = 0i64;
            loop {
                match frame::split(&buf) {
                    frame::Split::NeedMore => {
                        let Ok(n) = stream.read(&mut chunk) else {
                            break;
                        };
                        if n == 0 {
                            break;
                        }
                        buf.extend_from_slice(&chunk[..n]);
                    }
                    frame::Split::V2Frame {
                        payload, consumed, ..
                    } => {
                        let request = jsonio::parse(std::str::from_utf8(payload).unwrap()).unwrap();
                        let reply = Value::object(vec![
                            ("v", Value::Int(1)),
                            ("id", request.get("id").cloned().unwrap_or(Value::Null)),
                            ("ok", Value::Bool(true)),
                            ("served", Value::Int(served)),
                        ])
                        .to_string();
                        served += 1;
                        buf.drain(..consumed);
                        let mut out = Vec::new();
                        frame::write_checked_frame(
                            &mut out,
                            frame::op::JSON_RESP,
                            reply.as_bytes(),
                        );
                        for _ in 0..copies {
                            if stream.write_all(&out).is_err() {
                                return;
                            }
                        }
                    }
                    frame::Split::V1Line { .. } | frame::Split::Malformed(_) => break,
                }
            }
        });
        addr
    }

    #[test]
    fn duplicated_replies_never_answer_the_next_request() {
        // Every reply arrives three times. Without correlation, round
        // trip N+1 would consume a stale copy of reply N and serve an
        // answer for the wrong request.
        let mut conn = Conn::connect(&duplicating_backend(3), Duration::from_secs(2)).unwrap();
        for i in 0..5i64 {
            let line = format!("{{\"id\":{},\"cmd\":\"ping\"}}", 1000 + i);
            let reply = conn.round_trip_checked(&line).unwrap();
            assert_eq!(
                reply.get("served").and_then(Value::as_i64),
                Some(i),
                "round trip {i} answered by the wrong reply"
            );
            // The caller's id, not the wire nonce, comes back.
            assert_eq!(reply.get("id").and_then(Value::as_i64), Some(1000 + i));
        }
    }

    #[test]
    fn requests_without_an_id_restore_to_null() {
        let mut conn = Conn::connect(&duplicating_backend(1), Duration::from_secs(2)).unwrap();
        let reply = conn.round_trip_checked("{\"cmd\":\"ping\"}").unwrap();
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(reply.get("id"), Some(&Value::Null));
    }

    #[test]
    fn a_flood_of_stale_duplicates_poisons_the_connection() {
        // 40 copies of each reply exceeds MAX_STALE_REPLIES: the
        // second round trip must give up rather than scan forever.
        let mut conn = Conn::connect(&duplicating_backend(40), Duration::from_secs(2)).unwrap();
        assert!(conn.round_trip_checked("{\"cmd\":\"ping\"}").is_ok());
        let err = conn.round_trip_checked("{\"cmd\":\"ping\"}").unwrap_err();
        assert!(err.contains("stale duplicates"), "{err}");
    }

    /// A backend that answers the first request with `reply` and then
    /// holds the connection open without sending anything else.
    fn raw_backend(reply: Vec<u8>) -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            let mut chunk = [0u8; 4096];
            if stream.read(&mut chunk).is_ok() && stream.write_all(&reply).is_ok() {
                // Hold the connection until the client hangs up.
                let _ = stream.read(&mut chunk);
            }
        });
        addr
    }

    #[test]
    fn checked_round_trips_reject_lines_and_unchecked_frames() {
        // No newline ever arrives: the first byte alone must fail the
        // read, well inside the 5 s timeout.
        let addr = raw_backend(b"{\"ok\":true".to_vec());
        let mut conn = Conn::connect(&addr, Duration::from_secs(5)).unwrap();
        let begin = std::time::Instant::now();
        let err = conn.round_trip_checked("{\"cmd\":\"ping\"}").unwrap_err();
        assert!(err.contains("non-v2"), "{err}");
        assert!(
            begin.elapsed() < Duration::from_secs(1),
            "waited for a newline"
        );
        let mut unchecked = Vec::new();
        frame::write_frame(
            &mut unchecked,
            frame::op::JSON_RESP,
            b"{\"id\":1,\"ok\":true}",
        );
        let mut conn = Conn::connect(&raw_backend(unchecked), Duration::from_secs(5)).unwrap();
        let err = conn.round_trip_checked("{\"cmd\":\"ping\"}").unwrap_err();
        assert!(err.contains("not integrity-checked"), "{err}");
    }
}
