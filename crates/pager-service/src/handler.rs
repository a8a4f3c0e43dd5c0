//! [`PagerService`] as an engine [`Handler`]: which requests answer on
//! the shard thread and which leave it.
//!
//! * **Inline** — anything answered without blocking, returned as
//!   [`Reply::Now`]: v2 cache-hit plans, pings and malformed frames
//!   ([`proto::dispatch_frame`]), parse errors, the control ops
//!   (`ping`, `stats`, `metrics`, `node_info`, `profile_stats`,
//!   `epoch`, `shutdown`), and every plan the service answers during
//!   dispatch ([`Planned::Now`]): v1 and `plan_devices` cache hits,
//!   and greedy misses whose Theorem 4.8 cost is at most
//!   [`crate::planner::INLINE_SOLVE_OPS`], cacheable or not. Bounded
//!   CPU work may run here; nothing that waits on disk, a lock held
//!   across I/O, or another thread does.
//! * **Admission** — every other plan, cacheable or not
//!   ([`Planned::Later`]), goes through the same gate as the blocking
//!   calls into the dispatcher's bounded queue, so it is queued, shed
//!   with a `retry_after_ms` hint, coalesced when it has a key, and
//!   downgraded at its deadline. The watchdog is armed at its admission
//!   token.
//! * **I/O pool** — a v1 `observe` (WAL append + fsync before the ack)
//!   and the native replication frames (`OBSERVE`, `WAL_APPLY`,
//!   `WAL_SHIP`, decoded on the shard thread) never shed and may block,
//!   so they run on the engine's I/O pool under the server's default
//!   deadline, all through one spawn ([`PagerService::on_io_pool`]).
//!
//! Answers are formatted by the same `proto` builders as
//! [`proto::handle_line`] / [`proto::handle_frame`], so a TCP client
//! and a `--stdio` session get byte-identical answers.

use std::sync::Arc;

use jsonio::Value;
use pager_core::cancel::CancelToken;
use pager_core::Instance;
use pager_wire::frame::Framing;
use pager_wire::{IdBuf, PlanSpec};

use crate::engine::{Call, Gauges, Handler, Reply};
use crate::error::ServiceError;
use crate::proto::{self, FrameDispatch, Replication, Request};
use crate::service::{Callback, PagerService, PlanResponse, Planned};

impl Handler for PagerService {
    fn on_line(self: Arc<Self>, line: &str, call: &mut Call<'_>) -> Reply {
        let (id, parsed) = proto::parse_request_with_id(line);
        let request = match parsed {
            Ok(request) => request,
            Err(error) => {
                call.reply_line(&proto::error_line(&self, &id, &error), false);
                return Reply::Now;
            }
        };
        let framing = call.framing();
        match request {
            Request::Plan { id, instance, spec } => {
                let service = Arc::clone(&self);
                let render = move |result: &Result<PlanResponse, ServiceError>,
                                   out: &mut Vec<u8>| {
                    framing.append_line(&proto::plan_response_line(&service, &id, result), out);
                };
                let planned = self.plan_async(&instance, spec, |deadline| {
                    deferred(call, deadline, &render)
                });
                reply(call, planned, &render)
            }
            Request::PlanDevices {
                id,
                devices,
                estimator,
                now,
                spec,
            } => {
                let service = Arc::clone(&self);
                let render = move |result: &Result<_, ServiceError>, out: &mut Vec<u8>| {
                    let line = proto::device_plan_response_line(&service, &id, estimator, result);
                    framing.append_line(&line, out);
                };
                let refs: Vec<&str> = devices.iter().map(String::as_str).collect();
                // Profile resolution happens here (cheap, in-memory);
                // only a solve the cost gate does not pass leaves the
                // shard.
                let planned = self.plan_devices_async(&refs, estimator, now, spec, |deadline| {
                    deferred(call, deadline, &render)
                });
                reply(call, planned, &render)
            }
            request @ Request::Observe { .. } => self.on_io_pool(
                call,
                IoJob::Line {
                    request,
                    id,
                    framing,
                },
            ),
            control => {
                let outcome = proto::handle_control(&self, control, &id);
                call.reply_line(&outcome.response, outcome.shutdown);
                Reply::Now
            }
        }
    }

    fn on_frame(self: Arc<Self>, frame_op: u8, payload: &[u8], call: &mut Call<'_>) -> Reply {
        match proto::dispatch_frame(&self, frame_op, payload, call.out()) {
            FrameDispatch::Answered => Reply::Now,
            FrameDispatch::Solve { id, instance, spec } => {
                self.solve_frame(id, &instance, spec, call)
            }
            FrameDispatch::Replicate { id, op } => self.on_io_pool(call, IoJob::Frame { id, op }),
        }
    }

    fn node(&self) -> Option<&str> {
        self.node_id()
    }

    fn gauges(&self) -> Gauges<'_> {
        Gauges {
            connections: &self.metrics().reactor_connections,
            deadline_watchdog: &self.metrics().reactor_deadline_watchdog,
        }
    }
}

impl PagerService {
    /// A native v2 plan frame that missed the cache probe: routed like
    /// a v1 plan, answered as a native v2 frame.
    fn solve_frame(
        self: Arc<Self>,
        id: IdBuf,
        instance: &Instance,
        spec: PlanSpec,
        call: &mut Call<'_>,
    ) -> Reply {
        let service = Arc::clone(&self);
        let render =
            move |result: &Result<PlanResponse, ServiceError>, out: &mut Vec<u8>| match result {
                Ok(response) => proto::plan_response_frame(&service, id.view(), response, out),
                Err(error) => proto::error_frame(&service, id.view(), error, out),
            };
        let planned = self.plan_async(instance, spec, |deadline| deferred(call, deadline, &render));
        reply(call, planned, &render)
    }

    /// Runs `job` on the engine's I/O pool and sends what it writes as
    /// the answer. The watchdog deadline is the server default: none of
    /// this work (observe, WAL ship/apply) carries a budget of its own.
    fn on_io_pool(self: Arc<Self>, call: &mut Call<'_>, job: IoJob) -> Reply {
        let deadline = CancelToken::from_budget_ms(self.config().default_deadline_ms);
        let done = call.later(&deadline);
        call.spawn(move || {
            let mut out = Vec::new();
            // lint:allow(no-blocking-in-reactor): this closure
            // runs on the I/O pool, not the shard thread;
            // blocking on disk here is the design.
            job.run(&self, &mut out);
            done.answer(out)
        });
        Reply::Later
    }
}

/// Work that may block on disk, for [`PagerService::on_io_pool`].
enum IoJob {
    /// A v1 `observe`, answered with a line in the framing it came in.
    Line {
        request: Request,
        id: Value,
        framing: Framing,
    },
    /// A replication frame, answered natively.
    Frame { id: IdBuf, op: Replication },
}

impl IoJob {
    /// Runs the job and appends its answer to `out`.
    fn run(self, service: &PagerService, out: &mut Vec<u8>) {
        match self {
            IoJob::Line {
                request,
                id,
                framing,
            } => {
                let outcome = proto::handle_request(service, Ok(request), &id);
                framing.append_line(&outcome.response, out);
            }
            IoJob::Frame { id, op } => proto::replicate(service, id.view(), op, out),
        }
    }
}

/// The callback for an answer the worker pool will produce: arms the
/// watchdog at the request's admission `deadline` (the instant its
/// solver polls) and sends what `render` (the plan answer's encoder,
/// either protocol) writes.
fn deferred<T: 'static>(
    call: &mut Call<'_>,
    deadline: &CancelToken,
    render: &(impl Fn(&Result<T, ServiceError>, &mut Vec<u8>) + Clone + Send + 'static),
) -> Callback<T> {
    let done = call.later(deadline);
    let render = render.clone();
    Box::new(move |result| {
        let mut bytes = Vec::new();
        render(&result, &mut bytes);
        done.answer(bytes).send();
    })
}

/// Applies the service's [`Planned`] outcome to the connection: an
/// answer ready now is encoded straight into the write buffer; a
/// deferred one arrives through the callback `deferred` built.
fn reply<T>(
    call: &mut Call<'_>,
    planned: Planned<T>,
    render: &impl Fn(&Result<T, ServiceError>, &mut Vec<u8>),
) -> Reply {
    match planned {
        Planned::Now(result) => {
            render(&result, call.out());
            Reply::Now
        }
        Planned::Later => Reply::Later,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{serve_reactor_with, ReactorConfig, ReactorHandle};
    use crate::service::ServiceConfig;
    use jsonio::Value;
    use pager_wire::frame::{self, op, Split};
    use pager_wire::{binary, IdView};
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    fn service() -> Arc<PagerService> {
        Arc::new(PagerService::new(ServiceConfig {
            workers: 2,
            capacity: 64,
            ..ServiceConfig::default()
        }))
    }

    fn start(service: Arc<PagerService>) -> ReactorHandle {
        serve_reactor_with(
            service,
            "127.0.0.1:0",
            ReactorConfig {
                shards: 2,
                io_threads: 1,
            },
        )
        .expect("bind reactor server")
    }

    fn request(stream: &mut TcpStream, line: &str) -> String {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response
    }

    #[test]
    fn tcp_round_trip_and_stop() {
        let handle = start(service());
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let response = request(
            &mut stream,
            r#"{"id": 1, "instance": [[0.5, 0.3, 0.2]], "delay": 2}"#,
        );
        let v = jsonio::parse(&response).unwrap();
        assert_eq!(v.get("ok").and_then(jsonio::Value::as_bool), Some(true));
        assert_eq!(v.get("id").and_then(jsonio::Value::as_i64), Some(1));
        // Pipelined lines answer in order on one connection.
        stream
            .write_all(b"{\"cmd\": \"ping\"}\n{\"cmd\": \"ping\"}\n")
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for _ in 0..2 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("pong"), "{line}");
        }
        handle.stop();
        assert!(handle.stopping());
    }

    #[test]
    fn observe_uses_the_io_pool_and_an_uncached_plan_the_queue() {
        let svc = service();
        let handle = start(Arc::clone(&svc));
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let observe = request(
            &mut stream,
            r#"{"cmd": "observe", "cells": 3, "sightings": [{"device": "a", "cell": 1, "time": 1.0}]}"#,
        );
        assert!(observe.contains("\"ingested\""), "{observe}");
        let uncached = request(
            &mut stream,
            r#"{"id": 2, "instance": [[0.5, 0.5]], "delay": 1, "cache": false}"#,
        );
        let v = jsonio::parse(&uncached).unwrap();
        assert_eq!(v.get("ok").and_then(jsonio::Value::as_bool), Some(true));
        assert_eq!(
            v.get("cached").and_then(jsonio::Value::as_bool),
            Some(false)
        );
        // The exact tier is never solved inline: the plan was queued.
        assert_eq!(svc.metrics().queue_wait.count(), 1);
        assert_eq!(svc.metrics().solved_inline.get(), 0);
    }

    #[test]
    fn replication_frames_are_answered_natively_off_the_shard() {
        let svc = service();
        let handle = start(Arc::clone(&svc));
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let sighting = pager_profiles::Sighting {
            device: "a".to_string(),
            cell: 1,
            time: 1.0,
        };
        let mut input = Vec::new();
        binary::encode_observe(&mut input, IdView::U64(9), 3, &[sighting]);
        let ship = binary::WalShip {
            generation: 0,
            offset: 0,
            max_bytes: 64,
        };
        binary::encode_wal_ship(&mut input, IdView::U64(10), &ship);
        stream.write_all(&input).unwrap();
        let mut buf = Vec::new();
        let Msg::Frame(op1, p1) = read_message(&mut stream, &mut buf) else {
            panic!("expected an observe ack frame");
        };
        assert_eq!(op1, op::OBSERVE_RESP);
        let (id, ack) = binary::decode_observe_ack(&p1).unwrap();
        assert_eq!(id, IdView::U64(9));
        assert_eq!(ack.versions, vec![("a".to_string(), 1)]);
        assert!(ack.frames.is_none(), "an in-memory node has no WAL frames");
        // Without a data directory there is no WAL to ship.
        let Msg::Frame(op2, p2) = read_message(&mut stream, &mut buf) else {
            panic!("expected an error frame");
        };
        let v = binary::response_to_value(op2, &p2).unwrap();
        assert_eq!(v.get("code").and_then(Value::as_str), Some("unsupported"));
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(10));
        assert_eq!(svc.profiles().stats().sightings, 1);
    }

    #[test]
    fn shutdown_command_stops_every_shard() {
        let handle = start(service());
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let stopping = request(&mut stream, r#"{"cmd": "shutdown"}"#);
        assert!(stopping.contains("stopping"), "{stopping}");
        handle.join(); // must return: the command signalled the stop
        assert_eq!(handle.drain(Duration::from_secs(5)), 0);
        // New connections are no longer served once shards wind down.
        let refused = TcpStream::connect(handle.local_addr()).and_then(|mut s| {
            s.set_read_timeout(Some(Duration::from_millis(500)))?;
            s.write_all(b"{\"cmd\": \"ping\"}\n")?;
            let mut buf = String::new();
            BufReader::new(&mut s).read_line(&mut buf)?;
            Ok(buf)
        });
        // A connect/read error means refused or timed out — both fine.
        if let Ok(buf) = refused {
            assert!(buf.is_empty(), "served after shutdown: {buf}");
        }
    }

    #[test]
    fn drain_answers_inflight_requests_before_closing() {
        // Tiny pool so exact solves take a visible amount of time.
        let svc = Arc::new(PagerService::new(ServiceConfig {
            workers: 1,
            capacity: 64,
            queue_depth: 16,
            ..ServiceConfig::default()
        }));
        let handle = start(svc);
        let addr = handle.local_addr();
        let clients: Vec<_> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let line = format!(
                        r#"{{"id": {i}, "instance": [[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]], "delay": {}, "variant": "exact", "cache": false}}"#,
                        2 + (i % 2)
                    );
                    request(&mut stream, &line)
                })
            })
            .collect();
        // Let the requests reach the server before draining.
        std::thread::sleep(Duration::from_millis(100));
        let pending = handle.drain(Duration::from_secs(10));
        assert_eq!(pending, 0, "drain left requests unanswered");
        for client in clients {
            let response = client.join().unwrap();
            let v = jsonio::parse(&response).unwrap();
            assert_eq!(
                v.get("ok").and_then(jsonio::Value::as_bool),
                Some(true),
                "{response}"
            );
        }
    }

    #[test]
    fn connection_gauge_tracks_opens_and_closes() {
        let svc = service();
        let metrics_connections = || svc.metrics().reactor_connections.get();
        let handle = start(Arc::clone(&svc));
        assert_eq!(metrics_connections(), 0);
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let _ = request(&mut stream, r#"{"cmd": "ping"}"#);
        assert_eq!(metrics_connections(), 1);
        drop(stream);
        let deadline = Instant::now() + Duration::from_secs(2);
        while metrics_connections() != 0 {
            assert!(Instant::now() < deadline, "connection close not observed");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// One decoded response message, either protocol.
    enum Msg {
        Line(String),
        Frame(u8, Vec<u8>),
    }

    /// Reads the next complete response message off the stream,
    /// buffering partial reads in `buf`.
    fn read_message(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Msg {
        let mut chunk = [0u8; 1024];
        loop {
            let (msg, consumed) = match frame::split(buf) {
                Split::NeedMore => {
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "connection closed before a full message");
                    buf.extend_from_slice(&chunk[..n]);
                    continue;
                }
                Split::V1Line { line, consumed } => (
                    Msg::Line(std::str::from_utf8(line).unwrap().to_string()),
                    consumed,
                ),
                Split::V2Frame {
                    op: frame_op,
                    payload,
                    consumed,
                } => (Msg::Frame(frame_op, payload.to_vec()), consumed),
                Split::Malformed(message) => panic!("malformed response: {message}"),
            };
            buf.drain(..consumed);
            return msg;
        }
    }

    fn plan_frame(id: i64, cache: bool) -> Vec<u8> {
        use pager_core::Delay;
        let instance = Instance::from_rows(vec![vec![0.6, 0.4]]).unwrap();
        let spec = PlanSpec::new(Delay::new(1).unwrap()).with_cache(cache);
        let mut wire = Vec::new();
        assert!(binary::encode_plan_request(
            &mut wire,
            &Value::Int(id),
            &instance,
            &spec
        ));
        wire
    }

    #[test]
    fn v2_plan_frames_solve_async_then_hit_the_cache() {
        let handle = start(service());
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let wire = plan_frame(21, true);
        let mut buf = Vec::new();
        stream.write_all(&wire).unwrap();
        let Msg::Frame(op1, p1) = read_message(&mut stream, &mut buf) else {
            panic!("expected a v2 frame");
        };
        let miss = binary::response_to_value(op1, &p1).unwrap();
        assert_eq!(miss.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(miss.get("id").and_then(Value::as_i64), Some(21));
        assert_eq!(miss.get("cached").and_then(Value::as_bool), Some(false));
        // The identical frame is now answered on the shard thread
        // straight from the cache.
        stream.write_all(&wire).unwrap();
        let Msg::Frame(op2, p2) = read_message(&mut stream, &mut buf) else {
            panic!("expected a v2 frame");
        };
        let hit = binary::response_to_value(op2, &p2).unwrap();
        assert_eq!(hit.get("id").and_then(Value::as_i64), Some(21));
        assert_eq!(hit.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(hit.get("strategy"), miss.get("strategy"));
        // An uncacheable plan frame takes the admission queue.
        stream.write_all(&plan_frame(22, false)).unwrap();
        let Msg::Frame(op3, p3) = read_message(&mut stream, &mut buf) else {
            panic!("expected a v2 frame");
        };
        let uncached = binary::response_to_value(op3, &p3).unwrap();
        assert_eq!(uncached.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(uncached.get("cached").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn v1_and_v2_messages_interleave_on_one_connection() {
        let handle = start(service());
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut input = Vec::new();
        input.extend_from_slice(b"{\"id\": 1, \"instance\": [[0.6, 0.4]], \"delay\": 1}\n");
        input.extend_from_slice(&plan_frame(2, true));
        frame::write_frame(&mut input, op::PING, &[]);
        stream.write_all(&input).unwrap();
        let mut buf = Vec::new();
        let Msg::Line(first) = read_message(&mut stream, &mut buf) else {
            panic!("expected a v1 line first");
        };
        let v1 = jsonio::parse(&first).unwrap();
        assert_eq!(v1.get("id").and_then(Value::as_i64), Some(1));
        let Msg::Frame(op2, p2) = read_message(&mut stream, &mut buf) else {
            panic!("expected a v2 plan frame second");
        };
        let v2 = binary::response_to_value(op2, &p2).unwrap();
        assert_eq!(v2.get("id").and_then(Value::as_i64), Some(2));
        // The v1 request populated the cache the v2 probe hits, and
        // both codecs carry the same strategy.
        assert_eq!(v2.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(v2.get("strategy"), v1.get("strategy"));
        let Msg::Frame(op3, _) = read_message(&mut stream, &mut buf) else {
            panic!("expected a pong frame third");
        };
        assert_eq!(op3, op::PONG);
    }

    #[test]
    fn json_wrapped_frames_answer_wrapped_and_propagate_shutdown() {
        let handle = start(service());
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut input = Vec::new();
        frame::write_frame(&mut input, op::JSON_REQ, b"{\"cmd\": \"metrics\"}");
        stream.write_all(&input).unwrap();
        let mut buf = Vec::new();
        let Msg::Frame(resp_op, payload) = read_message(&mut stream, &mut buf) else {
            panic!("expected a JSON response frame");
        };
        assert_eq!(resp_op, op::JSON_RESP);
        let v = jsonio::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        let mut input = Vec::new();
        frame::write_frame(&mut input, op::JSON_REQ, b"{\"cmd\": \"shutdown\"}");
        stream.write_all(&input).unwrap();
        let Msg::Frame(resp_op, payload) = read_message(&mut stream, &mut buf) else {
            panic!("expected a JSON response frame");
        };
        assert_eq!(resp_op, op::JSON_RESP);
        assert!(std::str::from_utf8(&payload).unwrap().contains("stopping"));
        handle.join(); // must return: the wrapped command signalled the stop
        assert_eq!(handle.drain(Duration::from_secs(5)), 0);
    }

    #[test]
    fn malformed_frames_get_an_error_frame_and_a_close() {
        let handle = start(service());
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // A magic byte with a hostile version: unrecoverable.
        stream
            .write_all(&[frame::MAGIC, 9, 1, 0, 0, 0, 0, 0])
            .unwrap();
        let mut buf = Vec::new();
        let Msg::Frame(resp_op, payload) = read_message(&mut stream, &mut buf) else {
            panic!("expected an error frame");
        };
        let v = binary::response_to_value(resp_op, &payload).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("bad_request"));
        // Then a clean close — not a hang, not a panic.
        let mut tail = [0u8; 16];
        assert_eq!(
            stream.read(&mut tail).unwrap(),
            0,
            "expected EOF after the error"
        );
    }

    #[test]
    fn mid_frame_disconnect_closes_without_a_response() {
        let svc = service();
        let handle = start(Arc::clone(&svc));
        let addr = handle.local_addr();
        {
            // A header promising 64 payload bytes, then a disconnect.
            let mut stream = TcpStream::connect(addr).unwrap();
            let header = [frame::MAGIC, frame::VERSION, 0x01, 0, 64, 0, 0, 0];
            stream.write_all(&header).unwrap();
        }
        // The aborted connection is torn down (nothing leaks)...
        let deadline = Instant::now() + Duration::from_secs(2);
        while svc.metrics().reactor_connections.get() != 0 {
            assert!(
                Instant::now() < deadline,
                "mid-frame disconnect leaked a connection"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // ...and the server keeps serving.
        let mut stream = TcpStream::connect(addr).unwrap();
        let response = request(&mut stream, r#"{"cmd": "ping"}"#);
        assert!(response.contains("pong"), "{response}");
    }

    #[test]
    fn partial_lines_and_eof_tails_are_served() {
        let handle = start(service());
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        // Split one request across two writes.
        stream.write_all(b"{\"cmd\": ").unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(30));
        stream.write_all(b"\"ping\"}\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("pong"), "{line}");
        // An unterminated final line is answered at EOF.
        stream.write_all(b"{\"cmd\": \"ping\"}").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut tail = String::new();
        reader.read_line(&mut tail).unwrap();
        assert!(tail.contains("pong"), "{tail}");
    }
}
