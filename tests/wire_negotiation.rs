//! Wire negotiation matrix and hostile-input coverage.
//!
//! Drives the same plan request through every protocol pairing — v1
//! JSON lines and v2 binary frames, over the transport engine,
//! directly and through the cluster router — and asserts the answers
//! carry byte-identical strategies. The hostile-input tests feed the
//! engine truncated, oversize and wrong-version frames and non-UTF-8
//! lines and assert a `bad_request` answer or a clean close, never a
//! hang.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use conference_call::service::{
    serve_reactor_with, PagerService, ReactorConfig, ReactorHandle, ServiceConfig,
};
use jsonio::Value;
use pager_core::{Delay, Instance};
use pager_wire::frame::{self, op, Split};
use pager_wire::{binary, PlanSpec};

const READ_TIMEOUT: Duration = Duration::from_secs(10);

fn service() -> Arc<PagerService> {
    Arc::new(PagerService::new(ServiceConfig {
        workers: 2,
        capacity: 64,
        ..ServiceConfig::default()
    }))
}

fn instance() -> Instance {
    Instance::from_rows(vec![vec![0.5, 0.3, 0.2], vec![0.2, 0.3, 0.5]]).unwrap()
}

fn plan_line(id: i64) -> String {
    format!(r#"{{"id": {id}, "instance": [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]], "delay": 2}}"#)
}

fn plan_frame(id: i64) -> Vec<u8> {
    let spec = PlanSpec::new(Delay::new(2).unwrap());
    let mut wire = Vec::new();
    assert!(binary::encode_plan_request(
        &mut wire,
        &Value::Int(id),
        &instance(),
        &spec
    ));
    wire
}

/// One decoded response message, either protocol.
enum Msg {
    Line(String),
    Frame(u8, Vec<u8>),
}

/// Reads the next complete response message off the stream.
fn read_message(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Msg {
    let mut chunk = [0u8; 4096];
    loop {
        let (msg, consumed) = match frame::split(buf) {
            Split::NeedMore => {
                let n = stream.read(&mut chunk).expect("read response");
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

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    stream
}

fn v1_round_trip(stream: &mut TcpStream, line: &str) -> Value {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut buf = Vec::new();
    match read_message(stream, &mut buf) {
        Msg::Line(response) => jsonio::parse(&response).expect("v1 response JSON"),
        Msg::Frame(..) => panic!("v1 request answered with a v2 frame"),
    }
}

fn v2_round_trip(stream: &mut TcpStream, wire: &[u8]) -> Value {
    stream.write_all(wire).unwrap();
    let mut buf = Vec::new();
    match read_message(stream, &mut buf) {
        Msg::Frame(resp_op, payload) => {
            binary::response_to_value(resp_op, &payload).expect("decode v2 response")
        }
        Msg::Line(line) => panic!("v2 request answered with a v1 line: {line}"),
    }
}

/// Asserts the two responses plan the exact same strategy.
fn assert_same_strategy(a: &Value, b: &Value) {
    let strategy = a
        .get("strategy")
        .and_then(Value::as_array)
        .expect("strategy");
    assert!(!strategy.is_empty());
    assert_eq!(a.get("strategy"), b.get("strategy"));
    assert_eq!(a.get("ep"), b.get("ep"));
    assert_eq!(a.get("tier"), b.get("tier"));
}

fn engine() -> ReactorHandle {
    serve_reactor_with(
        service(),
        "127.0.0.1:0",
        ReactorConfig {
            shards: 2,
            io_threads: 1,
        },
    )
    .unwrap()
}

#[test]
fn both_codecs_agree_on_both_transports() {
    let handle = engine();
    let mut stream = connect(handle.local_addr());
    // v1 first (a cache miss), then the same instance as a v2 frame
    // (served from the cache the v1 request populated).
    let v1 = v1_round_trip(&mut stream, &plan_line(1));
    assert_eq!(v1.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(v1.get("v").and_then(Value::as_u64), Some(1));
    let v2 = v2_round_trip(&mut stream, &plan_frame(2));
    assert_eq!(v2.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(v2.get("id").and_then(Value::as_i64), Some(2));
    assert_eq!(v2.get("cached").and_then(Value::as_bool), Some(true));
    assert_same_strategy(&v1, &v2);
    handle.stop();
}

/// Runs the hostile-input battery against one listening server.
fn hostile_battery(addr: SocketAddr) {
    // Oversize declared length: one bad_request error frame, close.
    {
        let mut stream = connect(addr);
        let len = (frame::MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        let mut header = vec![frame::MAGIC, frame::VERSION, op::PLAN, 0];
        header.extend_from_slice(&len);
        stream.write_all(&header).unwrap();
        let mut buf = Vec::new();
        let Msg::Frame(resp_op, payload) = read_message(&mut stream, &mut buf) else {
            panic!("expected an error frame for an oversize length");
        };
        let v = binary::response_to_value(resp_op, &payload).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("bad_request"));
        let mut tail = [0u8; 16];
        assert_eq!(stream.read(&mut tail).unwrap(), 0, "expected close");
    }
    // Unsupported frame version: same answer.
    {
        let mut stream = connect(addr);
        stream
            .write_all(&[frame::MAGIC, 9, op::PLAN, 0, 0, 0, 0, 0])
            .unwrap();
        let mut buf = Vec::new();
        let Msg::Frame(resp_op, payload) = read_message(&mut stream, &mut buf) else {
            panic!("expected an error frame for a bad version");
        };
        let v = binary::response_to_value(resp_op, &payload).unwrap();
        assert_eq!(v.get("code").and_then(Value::as_str), Some("bad_request"));
        let mut tail = [0u8; 16];
        assert_eq!(stream.read(&mut tail).unwrap(), 0, "expected close");
    }
    // Truncated length prefix at EOF: clean close, no response.
    {
        let mut stream = connect(addr);
        stream
            .write_all(&[frame::MAGIC, frame::VERSION, op::PLAN, 0])
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut tail = [0u8; 16];
        assert_eq!(stream.read(&mut tail).unwrap(), 0, "expected silent close");
    }
    // Mid-frame disconnect (header promises more payload than ever
    // arrives): clean close, no response.
    {
        let mut stream = connect(addr);
        stream
            .write_all(&[frame::MAGIC, frame::VERSION, op::PLAN, 0, 64, 0, 0, 0])
            .unwrap();
        stream.write_all(&[1, 2, 3]).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut tail = [0u8; 16];
        assert_eq!(stream.read(&mut tail).unwrap(), 0, "expected silent close");
    }
    // A non-UTF-8 line: a v1 bad_request, and the pipelined ping
    // behind it is still answered on the same connection.
    {
        let mut stream = connect(addr);
        stream.write_all(b"\xff\xfe\n{\"cmd\":\"ping\"}\n").unwrap();
        let mut buf = Vec::new();
        for want in ["bad_request", "pong"] {
            let Msg::Line(line) = read_message(&mut stream, &mut buf) else {
                panic!("a v1 line must be answered with a v1 line");
            };
            let v = jsonio::parse(&line).unwrap();
            match want {
                "pong" => assert_eq!(v.get("pong").and_then(Value::as_bool), Some(true)),
                code => assert_eq!(v.get("code").and_then(Value::as_str), Some(code)),
            }
        }
    }
    // The server survived all of it.
    let mut stream = connect(addr);
    let pong = v1_round_trip(&mut stream, r#"{"cmd": "ping"}"#);
    assert_eq!(pong.get("ok").and_then(Value::as_bool), Some(true));
}

/// Reads until the server closes the connection, failing on a read
/// timeout: after a half-close, a correct server answers (or not) and
/// closes — it never parks the client.
fn drain_until_close(stream: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return out,
            Ok(n) => out.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("server hung on corrupted input: {e}"),
        }
    }
}

/// Corruption sweep: flip every bit of every header byte of a valid
/// PLAN frame. Each corrupted frame must end in an error response or
/// a clean close — never a hang — and a frame with reserved flags set
/// must be named `bad_request` explicitly. The server serves a clean
/// ping afterwards.
fn corruption_battery(addr: SocketAddr) {
    let wire = plan_frame(9);
    for byte in 0..frame::HEADER_LEN {
        for bit in 0..8 {
            let mut bad = wire.clone();
            bad[byte] ^= 1 << bit;
            let mut stream = connect(addr);
            stream.write_all(&bad).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let answer = drain_until_close(&mut stream);
            if byte == 3 && bit > 0 {
                // Reserved flags: the hardened splitter must reject
                // the frame loudly, not guess at its meaning. (Bit 0
                // is the checked flag: setting it promises a CRC
                // trailer that never arrives, so the server waits,
                // sees EOF mid-frame, and closes silently instead.)
                let Split::V2Frame {
                    op: resp_op,
                    payload,
                    ..
                } = frame::split(&answer)
                else {
                    panic!("flags byte {bit}: expected an error frame, got {answer:?}");
                };
                let v = binary::response_to_value(resp_op, payload).unwrap();
                assert_eq!(
                    v.get("code").and_then(Value::as_str),
                    Some("bad_request"),
                    "flags bit {bit}: {v}"
                );
            }
        }
    }
    // The server survived all 64 corruptions.
    let mut stream = connect(addr);
    let pong = v1_round_trip(&mut stream, r#"{"cmd": "ping"}"#);
    assert_eq!(pong.get("ok").and_then(Value::as_bool), Some(true));
}

#[test]
fn corrupted_headers_never_hang_the_reactor_transport() {
    let handle = engine();
    corruption_battery(handle.local_addr());
    handle.stop();
}

#[test]
fn hostile_frames_never_hang_the_reactor_transport() {
    let handle = engine();
    hostile_battery(handle.local_addr());
    handle.stop();
}

#[test]
fn router_matrix_v1_and_v2_agree_through_a_real_cluster() {
    use conference_call::cluster::router::RouterConfig;
    use conference_call::cluster::{Cluster, HarnessConfig, Topology};
    use std::path::PathBuf;

    let data_root =
        std::env::temp_dir().join(format!("pager-wire-negotiation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_root);
    let topology = Topology {
        shards: 2,
        replicas: 0,
        vnodes: 64,
        workers: 2,
        queue_depth: 256,
        wal_retain: 8,
        checkpoint_every: 0,
        chaos: None,
    };
    let config = HarnessConfig {
        pager_serve: PathBuf::from(env!("CARGO_BIN_EXE_pager-serve")),
        data_root: data_root.clone(),
        topology,
        router: RouterConfig::default(),
    };
    let cluster = Cluster::launch(&config).expect("launch 2-shard cluster");

    // v1 client -> router -> backend.
    let v1 = cluster.request(&plan_line(1));
    assert_eq!(v1.get("ok").and_then(Value::as_bool), Some(true), "{v1:?}");
    assert!(v1.get("shard").is_some(), "router stamps v1 responses");

    // v2 client -> router -> v2 backend: the PLAN frame is routed by
    // its payload fingerprint and forwarded without a decode.
    let wire = plan_frame(2);
    let Split::V2Frame {
        op: plan_op,
        payload,
        ..
    } = frame::split(&wire)
    else {
        panic!("encoder produced a non-frame");
    };
    let mut out = Vec::new();
    let shutdown = cluster.router.handle_frame(plan_op, payload, &mut out);
    assert!(!shutdown);
    let Split::V2Frame {
        op: resp_op,
        payload: resp_payload,
        ..
    } = frame::split(&out)
    else {
        panic!("router answered a frame with a non-frame");
    };
    let v2 = binary::response_to_value(resp_op, resp_payload).unwrap();
    assert_eq!(v2.get("ok").and_then(Value::as_bool), Some(true), "{v2:?}");
    assert_eq!(v2.get("id").and_then(Value::as_i64), Some(2));
    assert_same_strategy(&v1, &v2);

    // v2 client carrying a JSON-wrapped line: routed exactly like the
    // bare v1 line, answered wrapped.
    let mut wrapped = Vec::new();
    frame::write_frame(&mut wrapped, op::JSON_REQ, plan_line(3).as_bytes());
    let Split::V2Frame {
        op: wrapped_op,
        payload,
        ..
    } = frame::split(&wrapped)
    else {
        panic!("encoder produced a non-frame");
    };
    let mut out = Vec::new();
    let shutdown = cluster.router.handle_frame(wrapped_op, payload, &mut out);
    assert!(!shutdown);
    let Split::V2Frame {
        op: resp_op,
        payload: resp_payload,
        ..
    } = frame::split(&out)
    else {
        panic!("router answered a frame with a non-frame");
    };
    assert_eq!(resp_op, op::JSON_RESP);
    let v3 = jsonio::parse(std::str::from_utf8(resp_payload).unwrap()).unwrap();
    assert_eq!(v3.get("ok").and_then(Value::as_bool), Some(true), "{v3:?}");
    assert!(v3.get("shard").is_some(), "wrapped lines get router stamps");
    assert_same_strategy(&v1, &v3);

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&data_root);
}

/// A 2-shard cluster without replicas, for the router front-end tests.
fn launch_two_shards(tag: &str) -> (conference_call::cluster::Cluster, std::path::PathBuf) {
    use conference_call::cluster::router::RouterConfig;
    use conference_call::cluster::{Cluster, HarnessConfig, Topology};

    let data_root = std::env::temp_dir().join(format!("pager-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_root);
    let config = HarnessConfig {
        pager_serve: std::path::PathBuf::from(env!("CARGO_BIN_EXE_pager-serve")),
        data_root: data_root.clone(),
        topology: Topology {
            shards: 2,
            replicas: 0,
            ..Topology::default()
        },
        router: RouterConfig::default(),
    };
    (
        Cluster::launch(&config).expect("launch 2-shard cluster"),
        data_root,
    )
}

/// Decodes one answer (line or frame) to JSON without the one field
/// that differs between two solves of the same request.
fn without_timing(msg: Msg) -> String {
    let value = match msg {
        Msg::Line(line) => jsonio::parse(&line).unwrap(),
        Msg::Frame(op::JSON_RESP, payload) => {
            jsonio::parse(std::str::from_utf8(&payload).unwrap()).unwrap()
        }
        Msg::Frame(resp_op, payload) => binary::response_to_value(resp_op, &payload).unwrap(),
    };
    match value {
        Value::Object(fields) => Value::Object(
            fields
                .into_iter()
                .filter(|(k, _)| k != "planning_micros")
                .collect(),
        )
        .to_string(),
        other => other.to_string(),
    }
}

/// The router served by the engine: v1 lines, JSON-wrapped lines and
/// native v2 frames interleaved on one connection answer exactly as
/// `Router::handle_line` / `handle_frame` answer them in-process.
#[test]
fn router_front_end_answers_like_the_in_process_router() {
    let (cluster, data_root) = launch_two_shards("router-front");
    let handle = cluster.serve("127.0.0.1:0").expect("serve the router");
    let mut stream = connect(handle.local_addr());
    let mut uncached_plan = Vec::new();
    let uncached = PlanSpec::new(Delay::new(2).unwrap()).with_cache(false);
    assert!(binary::encode_plan_request(
        &mut uncached_plan,
        &Value::Int(2),
        &instance(),
        &uncached
    ));
    let mut ping = Vec::new();
    frame::write_frame(&mut ping, op::PING, &[]);
    let mut messages = Vec::new();
    for line in [
        r#"{"id": 1, "instance": [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]], "delay": 2, "cache": false}"#,
        r#"{"cmd": "ping"}"#,
        r#"{"cmd": "node_info"}"#,
        r#"{"cmd": "profile_stats"}"#,
        r#"{"cmd": "plan_devices", "id": 4, "devices": ["nobody"], "delay": 2}"#,
        r#"{"cmd": "wal_ship", "generation": 0, "offset": 0}"#,
        "not json at all",
    ] {
        messages.push(format!("{line}\n").into_bytes());
        let mut wrapped = Vec::new();
        frame::write_frame(&mut wrapped, op::JSON_REQ, line.as_bytes());
        messages.push(wrapped);
    }
    messages.insert(2, uncached_plan);
    messages.insert(5, ping);
    let mut buf = Vec::new();
    for message in &messages {
        stream.write_all(message).unwrap();
        let served = without_timing(read_message(&mut stream, &mut buf));
        let local = match frame::split(message) {
            Split::V1Line { line, .. } => {
                let line = std::str::from_utf8(line).unwrap();
                Msg::Line(cluster.router.handle_line(line).response)
            }
            Split::V2Frame { op, payload, .. } => {
                let mut out = Vec::new();
                assert!(!cluster.router.handle_frame(op, payload, &mut out));
                let Split::V2Frame { op, payload, .. } = frame::split(&out) else {
                    panic!("router answered a frame with a non-frame");
                };
                Msg::Frame(op, payload.to_vec())
            }
            other => panic!("test message did not split: {other:?}"),
        };
        assert_eq!(served, without_timing(local), "{message:?}");
    }
    drop(handle);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&data_root);
}

#[test]
fn hostile_frames_never_hang_the_router() {
    let (cluster, data_root) = launch_two_shards("router-hostile");
    let handle = cluster.serve("127.0.0.1:0").expect("serve the router");
    hostile_battery(handle.local_addr());
    drop(handle);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&data_root);
}
