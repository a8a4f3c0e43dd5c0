//! Wire protocol benchmark: v1 JSON lines vs v2 binary frames.
//!
//! Measures, under the counting global allocator (feature
//! `wire-bench`):
//!
//! 1. **Per-message serving cost** — the transport-independent
//!    `proto::handle_line` (v1) vs `proto::handle_frame` (v2) path,
//!    the same `proto` code the transport engine runs for every
//!    message, driven with a steady-state cache-hit `plan` request.
//!    Reports ns/req and allocations/req for each, and **asserts the
//!    v2 invariant: zero heap allocations per cache-hit plan frame**
//!    (exit code 1 on violation), plus the ≥5x encode/decode speedup
//!    the v2 framing exists for.
//! 2. **End-to-end round trips** — the same request driven over TCP
//!    against an in-process transport engine, v1 and v2, reporting
//!    client-observed ns/req.
//!
//! ```text
//! cargo run --release --features wire-bench --example wire_bench \
//!     [-- --out BENCH_wire_v2.json]
//! ```
//!
//! The committed `BENCH_wire_v2.json` comes from this program.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jsonio::Value;
use pager_core::{Delay, Instance};
use pager_service::{
    handle_frame, handle_line, serve_reactor_with, PagerService, ReactorConfig, ServiceConfig,
};
use pager_wire::count_alloc;
use pager_wire::frame::{self, Split};
use pager_wire::{Codec, PlanSpec, Request};

#[global_allocator]
static ALLOC: count_alloc::CountingAlloc = count_alloc::CountingAlloc;

const WARMUP: usize = 500;
const SERVING_ITERS: usize = 20_000;
const TCP_ITERS: usize = 2_000;
/// The acceptance bar: v2 per-message serving must beat v1 by this.
const REQUIRED_SPEEDUP: f64 = 5.0;

fn service() -> Arc<PagerService> {
    Arc::new(PagerService::new(ServiceConfig {
        workers: 2,
        capacity: 256,
        ..ServiceConfig::default()
    }))
}

fn instance() -> Instance {
    Instance::from_rows(vec![
        vec![0.35, 0.25, 0.2, 0.2],
        vec![0.1, 0.4, 0.4, 0.1],
        vec![0.25, 0.25, 0.25, 0.25],
    ])
    .unwrap()
}

fn plan_line() -> String {
    concat!(
        r#"{"id": 1, "instance": [[0.35, 0.25, 0.2, 0.2], "#,
        r#"[0.1, 0.4, 0.4, 0.1], [0.25, 0.25, 0.25, 0.25]], "delay": 2}"#
    )
    .to_string()
}

fn plan_frame() -> Vec<u8> {
    let request = Request::Plan {
        id: Value::Int(1),
        instance: instance(),
        spec: PlanSpec::new(Delay::new(2).unwrap()),
    };
    let mut wire = Vec::new();
    pager_wire::BinaryCodec.encode_request(&request, &mut wire);
    wire
}

struct Measure {
    ns_per_req: f64,
    allocs_per_req: f64,
}

impl Measure {
    fn to_json(&self) -> Value {
        Value::object(vec![
            ("ns_per_req", Value::Float(self.ns_per_req)),
            ("allocs_per_req", Value::Float(self.allocs_per_req)),
        ])
    }
}

/// Times `iters` runs of `step` on this thread, counting allocations.
fn measure(iters: usize, mut step: impl FnMut()) -> Measure {
    for _ in 0..WARMUP {
        step();
    }
    count_alloc::reset();
    let started = Instant::now();
    for _ in 0..iters {
        step();
    }
    let elapsed = started.elapsed();
    let allocs = count_alloc::allocations();
    Measure {
        ns_per_req: elapsed.as_nanos() as f64 / iters as f64,
        allocs_per_req: allocs as f64 / iters as f64,
    }
}

/// The per-message serving path the engine runs: v1 line in, v1
/// line out.
fn serve_v1(svc: &PagerService) -> Measure {
    let line = plan_line();
    measure(SERVING_ITERS, || {
        let outcome = handle_line(svc, &line);
        assert!(outcome.response.contains("\"ok\":true"));
    })
}

/// The per-message serving path for a v2 cache-hit plan frame. The
/// output buffer is reused, exactly as the engine reuses its
/// per-connection write buffers.
fn serve_v2(svc: &PagerService) -> (Measure, u64) {
    let wire = plan_frame();
    let Split::V2Frame {
        op: plan_op,
        payload,
        ..
    } = frame::split(&wire)
    else {
        panic!("encoder produced a non-frame");
    };
    let mut out = Vec::with_capacity(4096);
    let m = measure(SERVING_ITERS, || {
        out.clear();
        let shutdown = handle_frame(svc, plan_op, payload, &mut out);
        assert!(!shutdown && !out.is_empty());
    });
    // Steady-state allocations across the whole measured window: the
    // zero-allocation invariant is on the absolute count, not an
    // average that could hide a slow leak.
    let total = (m.allocs_per_req * SERVING_ITERS as f64).round() as u64;
    (m, total)
}

/// Client-observed round-trip cost over TCP, sequential requests.
fn tcp_round_trips(addr: std::net::SocketAddr, wire: &[u8], v1: bool) -> Measure {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut step = move || {
        stream.write_all(wire).expect("write request");
        loop {
            match frame::split(&buf) {
                Split::NeedMore => {
                    let n = stream.read(&mut chunk).expect("read response");
                    assert!(n > 0, "server closed mid-bench");
                    buf.extend_from_slice(&chunk[..n]);
                }
                Split::V1Line { consumed, .. } => {
                    assert!(v1, "v2 request answered with a line");
                    buf.drain(..consumed);
                    return;
                }
                Split::V2Frame { consumed, .. } => {
                    assert!(!v1, "v1 request answered with a frame");
                    buf.drain(..consumed);
                    return;
                }
                Split::Malformed(message) => panic!("malformed response: {message}"),
            }
        }
    };
    measure(TCP_ITERS, &mut step)
}

fn bench_transport(addr: std::net::SocketAddr) -> Value {
    let mut v1_wire = plan_line().into_bytes();
    v1_wire.push(b'\n');
    let v1 = tcp_round_trips(addr, &v1_wire, true);
    let v2 = tcp_round_trips(addr, &plan_frame(), false);
    Value::object(vec![
        ("v1", v1.to_json()),
        ("v2", v2.to_json()),
        ("rtt_speedup", Value::Float(v1.ns_per_req / v2.ns_per_req)),
    ])
}

fn main() {
    let mut out_path = String::from("BENCH_wire_v2.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => panic!("unknown argument {other:?}"),
        }
    }

    // Per-message serving path (the engine's, and --stdio's).
    let svc = service();
    // Populate the cache once so the measured loops are steady-state.
    let warm = handle_line(&svc, &plan_line());
    assert!(warm.response.contains("\"ok\":true"), "{}", warm.response);
    let v1 = serve_v1(&svc);
    let (v2, v2_total_allocs) = serve_v2(&svc);
    let speedup = v1.ns_per_req / v2.ns_per_req;

    // End to end over the transport engine.
    let reactor = serve_reactor_with(
        service(),
        "127.0.0.1:0",
        ReactorConfig {
            shards: 2,
            io_threads: 1,
        },
    )
    .expect("serve_reactor");
    let reactor_report = bench_transport(reactor.local_addr());
    reactor.stop();

    let zero_alloc_ok = v2_total_allocs == 0;
    let speedup_ok = speedup >= REQUIRED_SPEEDUP;
    let report = Value::object(vec![
        ("bench", Value::from("wire_v2")),
        ("serving_iters", Value::from(SERVING_ITERS)),
        ("tcp_iters", Value::from(TCP_ITERS)),
        (
            "per_message",
            Value::object(vec![
                ("v1_line", v1.to_json()),
                ("v2_frame_cache_hit", v2.to_json()),
                ("v2_total_allocs", Value::from(v2_total_allocs)),
                ("encode_decode_speedup", Value::Float(speedup)),
            ]),
        ),
        (
            "transports",
            Value::object(vec![("reactor", reactor_report)]),
        ),
        ("zero_alloc_invariant", Value::Bool(zero_alloc_ok)),
        ("speedup_at_least_5x", Value::Bool(speedup_ok)),
    ]);
    let text = format!("{report}");
    println!("{text}");
    std::fs::write(&out_path, text + "\n").expect("write bench report");

    if !zero_alloc_ok {
        eprintln!("FAIL: cache-hit v2 plan allocated {v2_total_allocs} times in steady state");
        std::process::exit(1);
    }
    if !speedup_ok {
        eprintln!("FAIL: v2 per-message speedup {speedup:.2}x is below {REQUIRED_SPEEDUP}x");
        std::process::exit(1);
    }
}
