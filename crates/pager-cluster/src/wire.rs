//! Minimal client connection to one backend node.
//!
//! One TCP connection to a `pager-serve` node. The router's traffic
//! takes one path, `Conn::call`: write one sealed v2 frame, read the
//! sealed reply frame that answers it. The request is a v1 line
//! (carried in a `JSON_REQ` frame, answered by a `JSON_RESP`), a
//! native `PLAN` payload (answered by a `PLAN_RESP` or an `ERROR`), or
//! one of the three replication ops the router builds itself —
//! `OBSERVE`, `WAL_APPLY`, `WAL_SHIP` — answered by its own answer op
//! (decoded here) or an `ERROR`.
//! [`Conn::round_trip`] is the plain unsealed v1 line, for tools that
//! talk to one node directly.
//!
//! A call accepts only a reply that is
//! - **sealed**: its CRC-32 trailer verified by [`frame::split`], so a
//!   byte flipped in flight is rejected instead of served;
//! - **producible**: an op its request can be answered with;
//! - **correlated**: the request's id travels as a per-connection
//!   nonce, and the reply must echo it. For a line the nonce rides the
//!   JSON `id`; for a `PLAN` it replaces the payload's leading `id`
//!   field ([`binary::splice_id`]), and a replication op is encoded
//!   with it as its `id`. The caller's id is restored in a line or
//!   `PLAN` reply. A reply echoing an **earlier** nonce of this connection is
//!   a stale duplicate — a duplicated TCP segment replayed a whole
//!   response frame, which the CRC cannot catch — and is skipped; any
//!   other id poisons the connection.
//!
//! Every socket operation of a call is bounded by what is left of the
//! request's [`CancelToken`] (capped by the router's `io_timeout`),
//! re-armed before each write and each read, so a backend that
//! trickles its reply cannot hold a call past its deadline.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use jsonio::metrics::Counter;
use jsonio::Value;
use pager_core::cancel::CancelToken;
use pager_profiles::{Sighting, WalSegment};
use pager_wire::binary::{ObserveAck, WalApplied, WalShip};
use pager_wire::frame::{self, op, Split};
use pager_wire::{binary, ErrorCode, IdView};

/// Bound on stale duplicated replies discarded in one call. Each
/// discard is a response frame some earlier call already consumed
/// once; more than a handful in a row means the stream is hopeless and
/// the connection should be poisoned instead.
const MAX_STALE_REPLIES: usize = 8;

/// Bytes read per `read` call. Replies are buffered only as their
/// bytes arrive, so a corrupted-but-in-bounds length field costs at
/// most what the peer actually sends before the read times out.
const READ_CHUNK: usize = 16 * 1024;

/// What the router asks a backend.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ask<'a> {
    /// A v1 request line, sent in a `JSON_REQ` frame.
    Line(&'a str),
    /// A native `PLAN` payload, as the client sent it.
    Plan(&'a [u8]),
    /// An `OBSERVE` of one shard's sub-batch.
    Observe {
        /// Number of cells the sighted area has.
        cells: usize,
        /// The sub-batch, in batch order.
        sightings: &'a [Sighting],
    },
    /// A `WAL_APPLY` of raw WAL frames.
    WalApply(&'a [u8]),
    /// A `WAL_SHIP` read of the owner's WAL.
    WalShip(WalShip),
}

/// A backend's answer to an [`Ask`], with the caller's id restored in
/// a line or `PLAN` answer.
#[derive(Debug)]
pub(crate) enum Reply {
    /// The JSON answer to [`Ask::Line`].
    Line(Value),
    /// The op and payload of the answer to [`Ask::Plan`], and the
    /// `ERROR` frame answering any native ask.
    Frame(u8, Vec<u8>),
    /// The `OBSERVE_RESP` answering [`Ask::Observe`].
    Observed(ObserveAck),
    /// The `WAL_APPLY_RESP` answering [`Ask::WalApply`].
    Applied(WalApplied),
    /// The `WAL_SHIP_RESP` answering [`Ask::WalShip`].
    Segment(WalSegment),
}

impl Reply {
    /// The JSON answer to an [`Ask::Line`]. [`Conn::call`] answers each
    /// ask in its own protocol, so the error arm is never taken.
    pub(crate) fn into_line(self) -> Result<Value, String> {
        match self {
            Reply::Line(value) => Ok(value),
            other => Err(other.unexpected()),
        }
    }

    /// The `(op, payload)` answer to an [`Ask::Plan`]; the error arm is
    /// never taken, as for [`Reply::into_line`].
    pub(crate) fn into_frame(self) -> Result<(u8, Vec<u8>), String> {
        match self {
            Reply::Frame(op, payload) => Ok((op, payload)),
            other => Err(other.unexpected()),
        }
    }

    /// Why this reply cannot answer the caller's ask: [`Conn::call`]
    /// answers each ask with its own answer op or an `ERROR`, so only a
    /// router bug reaches this.
    pub(crate) fn unexpected(&self) -> String {
        let what = match self {
            Reply::Line(_) => "a line",
            Reply::Frame(op, _) => return format!("backend answered with op {op:#04x}"),
            Reply::Observed(_) => "an observe ack",
            Reply::Applied(_) => "a wal apply ack",
            Reply::Segment(_) => "a wal segment",
        };
        format!("backend answered with {what} the ask cannot produce")
    }

    /// `Some(retry_after_ms)` when the backend shed the request as
    /// `overloaded` (the only answer the router retries), in either
    /// protocol.
    #[must_use]
    pub(crate) fn overload_retry(&self) -> Option<u64> {
        let (code, retry_after_ms) = match self {
            Reply::Line(value) => (
                value
                    .get("code")
                    .and_then(Value::as_str)
                    .and_then(ErrorCode::parse)?,
                value.get("retry_after_ms").and_then(Value::as_u64),
            ),
            Reply::Frame(reply_op, payload) if *reply_op == op::ERROR => {
                let (_, error) = binary::decode_error(payload).ok()?;
                (error.code, error.retry_after_ms)
            }
            _ => return None,
        };
        (code == ErrorCode::Overloaded).then(|| retry_after_ms.unwrap_or(10))
    }
}

/// A pooled client connection to one node.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed as a reply. What follows one
    /// reply (a duplicated frame, say) waits here for the next read.
    buf: Vec<u8>,
    /// Correlation nonce for `Conn::call`: monotonically increasing
    /// per connection, so a reply echoing a value below the current
    /// nonce is provably one this connection already consumed (a
    /// duplicated frame), never fresh data.
    txn: u64,
}

impl Conn {
    /// Connects to `addr` with `timeout` applied to the connect and to
    /// every subsequent read/write of [`Conn::round_trip`].
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
        let timeout = Some(timeout.max(Duration::from_millis(1)));
        stream
            .set_read_timeout(timeout)
            .and_then(|()| stream.set_write_timeout(timeout))
            .map_err(|e| format!("cannot set socket timeouts: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            txn: 0,
        })
    }

    /// Sends one request line and reads one response line, parsed as
    /// JSON, unsealed and uncorrelated. Any transport or parse error
    /// poisons the connection (the caller must drop it rather than
    /// return it to a pool: a timed-out read may leave a half-delivered
    /// response in the stream).
    pub fn round_trip(&mut self, line: &str) -> Result<Value, String> {
        let mut wire = Vec::with_capacity(line.len() + 1);
        wire.extend_from_slice(line.as_bytes());
        wire.push(b'\n');
        self.stream
            .write_all(&wire)
            .map_err(|e| format!("write failed: {e}"))?;
        let response = self.read_line()?;
        jsonio::parse(response.trim_end()).map_err(|e| format!("bad response JSON: {e}"))
    }

    /// Sends `ask` in one sealed frame and returns the reply that
    /// answers it: sealed, of an op `ask` can produce, echoing this
    /// call's nonce, with the caller's id restored. Replies echoing an
    /// earlier nonce are skipped, up to `MAX_STALE_REPLIES`. Every
    /// write and read is bounded by `cap` and by what is left of
    /// `deadline`. An intact reply that is not a pager answer to `ask`
    /// (unsealed, of the wrong op, or a JSON answer without `ok`) also
    /// bumps `byzantine`. Any error poisons the connection.
    pub(crate) fn call(
        &mut self,
        ask: Ask<'_>,
        deadline: &CancelToken,
        cap: Duration,
        byzantine: &Counter,
    ) -> Result<Reply, String> {
        let byzantine = |what: &str| {
            byzantine.inc();
            format!("byzantine reply from backend ({what})")
        };
        self.txn += 1;
        let nonce = self.txn;
        let mut wire = Vec::new();
        match ask {
            Ask::Line(line) => {
                let (request, original) = with_nonce(line, nonce)?;
                let start = frame::begin_frame(&mut wire, op::JSON_REQ);
                wire.extend_from_slice(request.as_bytes());
                frame::seal_frame(&mut wire, start);
                self.exchange(
                    &wire,
                    deadline,
                    cap,
                    nonce,
                    &byzantine,
                    |reply_op, payload| {
                        if reply_op != op::JSON_RESP {
                            return Err(byzantine(&format!("op {reply_op:#04x} to JSON_REQ")));
                        }
                        let text = std::str::from_utf8(payload)
                            .map_err(|e| format!("bad response UTF-8: {e}"))?;
                        let mut reply = jsonio::parse(text.trim_end())
                            .map_err(|e| format!("bad response JSON: {e}"))?;
                        if reply.get("ok").and_then(Value::as_bool).is_none() {
                            return Err(byzantine("no ok field"));
                        }
                        let echoed = reply.get("id").and_then(Value::as_u64);
                        if let Value::Object(fields) = &mut reply {
                            if let Some((_, id)) = fields.iter_mut().find(|(key, _)| key == "id") {
                                *id = original.clone();
                            }
                        }
                        Ok((echoed, Reply::Line(reply)))
                    },
                )
            }
            Ask::Plan(payload) => {
                // The one copy of the client's payload, the nonce in its
                // id's place. The router parsed the payload's header
                // before routing it, so its id is well formed.
                let start = frame::begin_frame(&mut wire, op::PLAN);
                let original = binary::splice_id(&mut wire, IdView::U64(nonce), payload)?;
                frame::seal_frame(&mut wire, start);
                self.exchange(
                    &wire,
                    deadline,
                    cap,
                    nonce,
                    &byzantine,
                    |reply_op, payload| {
                        if !matches!(reply_op, op::PLAN_RESP | op::ERROR) {
                            return Err(byzantine(&format!("op {reply_op:#04x} to PLAN")));
                        }
                        let mut restored = Vec::with_capacity(payload.len());
                        let echoed = binary::splice_id(&mut restored, original, payload)
                            .map_err(|e| format!("bad reply payload: {e}"))?;
                        Ok((nonce_of(echoed), Reply::Frame(reply_op, restored)))
                    },
                )
            }
            Ask::Observe { cells, sightings } => {
                binary::encode_observe(&mut wire, IdView::U64(nonce), cells, sightings);
                self.exchange_native(&wire, op::OBSERVE_RESP, deadline, cap, nonce, &byzantine)
            }
            Ask::WalApply(bytes) => {
                binary::encode_wal_apply(&mut wire, IdView::U64(nonce), bytes);
                self.exchange_native(&wire, op::WAL_APPLY_RESP, deadline, cap, nonce, &byzantine)
            }
            Ask::WalShip(ship) => {
                binary::encode_wal_ship(&mut wire, IdView::U64(nonce), &ship);
                self.exchange_native(&wire, op::WAL_SHIP_RESP, deadline, cap, nonce, &byzantine)
            }
        }
    }

    /// [`Conn::exchange`] for a replication op already encoded in
    /// `wire`: the reply must be `answer_op` (the one answer op the
    /// request can produce) or an `ERROR`, and is decoded straight off
    /// the read buffer; one that does not decode is byzantine.
    fn exchange_native(
        &mut self,
        wire: &[u8],
        answer_op: u8,
        deadline: &CancelToken,
        cap: Duration,
        nonce: u64,
        byzantine: &impl Fn(&str) -> String,
    ) -> Result<Reply, String> {
        self.exchange(
            wire,
            deadline,
            cap,
            nonce,
            byzantine,
            |reply_op, payload| {
                let decoded = match reply_op {
                    op::ERROR => binary::decode_error(payload)
                        .map(|(id, _)| (id, Reply::Frame(reply_op, payload.to_vec()))),
                    op::OBSERVE_RESP if answer_op == reply_op => {
                        binary::decode_observe_ack(payload)
                            .map(|(id, ack)| (id, Reply::Observed(ack)))
                    }
                    op::WAL_APPLY_RESP if answer_op == reply_op => {
                        binary::decode_wal_applied(payload)
                            .map(|(id, applied)| (id, Reply::Applied(applied)))
                    }
                    op::WAL_SHIP_RESP if answer_op == reply_op => {
                        binary::decode_wal_segment(payload)
                            .map(|(id, segment)| (id, Reply::Segment(segment)))
                    }
                    _ => {
                        let what = format!("op {reply_op:#04x} where {answer_op:#04x} was owed");
                        return Err(byzantine(&what));
                    }
                };
                let (echoed, reply) = decoded
                    .map_err(|e| byzantine(&format!("bad op {reply_op:#04x} payload: {e}")))?;
                Ok((nonce_of(echoed), reply))
            },
        )
    }

    /// The one correlation loop: writes `wire`, then reads sealed reply
    /// frames until `decode` — which checks each reply's op and payload
    /// and returns the nonce it echoes — finds the one echoing `nonce`.
    fn exchange(
        &mut self,
        wire: &[u8],
        deadline: &CancelToken,
        cap: Duration,
        nonce: u64,
        byzantine: &impl Fn(&str) -> String,
        mut decode: impl FnMut(u8, &[u8]) -> Result<(Option<u64>, Reply), String>,
    ) -> Result<Reply, String> {
        self.stream
            .set_write_timeout(Some(socket_timeout(cap, deadline)?))
            .and_then(|()| self.stream.write_all(wire))
            .map_err(|e| format!("write failed: {e}"))?;
        for _ in 0..=MAX_STALE_REPLIES {
            let (consumed, decoded) = loop {
                match frame::split(&self.buf) {
                    Split::NeedMore if self.buf.first().is_none_or(|&b| b == frame::MAGIC) => {
                        self.stream
                            .set_read_timeout(Some(socket_timeout(cap, deadline)?))
                            .map_err(|e| format!("cannot set read timeout: {e}"))?;
                        self.fill()?;
                    }
                    // A line, or the start of one: no frame starts
                    // without the magic byte, so there is no newline to
                    // wait for.
                    Split::NeedMore | Split::V1Line { .. } => {
                        return Err("backend answered with a non-v2 frame".to_string())
                    }
                    // `split` strips a verified trailer, so only a
                    // sealed frame consumes more than it carries.
                    Split::V2Frame {
                        payload, consumed, ..
                    } if consumed == frame::HEADER_LEN + payload.len() => {
                        return Err(byzantine("reply is not integrity-checked"))
                    }
                    Split::V2Frame {
                        op: reply_op,
                        payload,
                        consumed,
                    } => break (consumed, decode(reply_op, payload)?),
                    Split::Malformed(message) => {
                        return Err(format!("bad backend reply: {message}"))
                    }
                }
            };
            self.buf.drain(..consumed);
            match decoded {
                (Some(echoed), reply) if echoed == nonce => return Ok(reply),
                // An earlier nonce of this connection: a stale
                // duplicate of a reply already consumed. Skip it and
                // keep reading for ours.
                (Some(echoed), _) if (1..nonce).contains(&echoed) => {}
                _ => return Err("unmatched reply from backend (bad correlation id)".to_string()),
            }
        }
        Err(format!(
            "no matching reply within {MAX_STALE_REPLIES} stale duplicates"
        ))
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
}

/// `cap`, cut to what is left of `deadline`, for one socket operation;
/// an error once the deadline has passed. Never zero, which std rejects
/// as a socket timeout.
pub(crate) fn socket_timeout(cap: Duration, deadline: &CancelToken) -> Result<Duration, String> {
    match deadline.remaining() {
        Some(left) if left.is_zero() => {
            Err("deadline expired before the backend answered".to_string())
        }
        left => Ok(left
            .map_or(cap, |left| cap.min(left))
            .max(Duration::from_millis(1))),
    }
}

/// `line` with its `id` set to `nonce`, re-serialised, and the id it
/// replaced (`null` when it had none: a v1 response always carries
/// `id`, null when the request had none).
fn with_nonce(line: &str, nonce: u64) -> Result<(String, Value), String> {
    let mut request = jsonio::parse(line).map_err(|e| format!("bad internal request JSON: {e}"))?;
    let Value::Object(fields) = &mut request else {
        return Err("internal request line is not a JSON object".to_string());
    };
    let original = match fields.iter_mut().find(|(key, _)| key == "id") {
        Some((_, id)) => std::mem::replace(id, Value::from(nonce)),
        None => {
            fields.push(("id".to_string(), Value::from(nonce)));
            Value::Null
        }
    };
    Ok((request.to_string(), original))
}

/// The nonce a native reply's id carries. The node echoes a cache hit's
/// id as sent (`u64`) and a solved request's id through its JSON value
/// (`i64`), so both count.
fn nonce_of(id: IdView<'_>) -> Option<u64> {
    match id {
        IdView::U64(n) => Some(n),
        IdView::I64(n) => u64::try_from(n).ok(),
        IdView::Null | IdView::Str(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One call carrying `line`.
    fn call_line(conn: &mut Conn, line: &str) -> Result<Value, String> {
        let never = CancelToken::never();
        conn.call(
            Ask::Line(line),
            &never,
            Duration::from_secs(2),
            &Counter::default(),
        )
        .and_then(Reply::into_line)
    }

    /// `payload` in a sealed frame.
    fn sealed(reply_op: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let start = frame::begin_frame(&mut out, reply_op);
        out.extend_from_slice(payload);
        frame::seal_frame(&mut out, start);
        out
    }

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
                        let out = sealed(op::JSON_RESP, reply.as_bytes());
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
            let reply = call_line(&mut conn, &line).unwrap();
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
        let reply = call_line(&mut conn, "{\"cmd\":\"ping\"}").unwrap();
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(reply.get("id"), Some(&Value::Null));
    }

    #[test]
    fn a_flood_of_stale_duplicates_poisons_the_connection() {
        // 40 copies of each reply exceeds MAX_STALE_REPLIES: the
        // second round trip must give up rather than scan forever.
        let mut conn = Conn::connect(&duplicating_backend(40), Duration::from_secs(2)).unwrap();
        assert!(call_line(&mut conn, "{\"cmd\":\"ping\"}").is_ok());
        let err = call_line(&mut conn, "{\"cmd\":\"ping\"}").unwrap_err();
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
        let err = call_line(&mut conn, "{\"cmd\":\"ping\"}").unwrap_err();
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
        let err = call_line(&mut conn, "{\"cmd\":\"ping\"}").unwrap_err();
        assert!(err.contains("not integrity-checked"), "{err}");
    }
}
