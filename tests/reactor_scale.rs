//! Scale and parity soak for the transport engine.
//!
//! The headline test opens **10,000 mostly-idle connections** against
//! a real `pager-serve --transport reactor` process and proves the
//! point of the epoll rewrite: the server's thread count stays flat
//! between 1k and 10k connections (no thread per connection) and its
//! resident memory grows by at most a few kilobytes per connection,
//! while a small set of active connections keeps planning through the
//! same process. The companions pin the engine's serving contracts: a
//! deterministic request script answers byte-identically (modulo
//! timing fields) over TCP and over `--stdio`; a burst sheds with
//! `overloaded` and a retry hint; and a drain answers every in-flight
//! request.
//!
//! Run in release (`cargo test --release --test reactor_scale`); the
//! 10k soak is ignored in debug builds where solve times and fd churn
//! make it pointlessly slow.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use jsonio::Value;

struct Server {
    child: Option<Child>,
    port: u16,
}

impl Server {
    fn spawn(extra_args: &[&str]) -> Server {
        let mut args = vec!["--addr", "127.0.0.1:0"];
        args.extend_from_slice(extra_args);
        let mut child = Command::new(env!("CARGO_BIN_EXE_pager-serve"))
            .args(&args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn pager-serve");
        let stderr = child.stderr.take().expect("child stderr");
        let mut lines = BufReader::new(stderr).lines();
        let banner = lines
            .next()
            .expect("server banner")
            .expect("read server banner");
        let port: u16 = banner
            .rsplit(':')
            .next()
            .and_then(|p| p.trim().parse().ok())
            .unwrap_or_else(|| panic!("no port in banner {banner:?}"));
        std::thread::spawn(move || for _ in lines {});
        Server {
            child: Some(child),
            port,
        }
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("live child").id()
    }

    /// A raw connection that is never written to. One fd, no clone:
    /// a `Conn`'s reader/writer split costs two fds per connection,
    /// which at 10k idle connections would exhaust the *client's* fd
    /// budget before proving anything about the server.
    fn connect_idle(&self) -> TcpStream {
        let mut last_err = None;
        // Under a 10k-connection storm the accept backlog can
        // overflow transiently; retry briefly instead of flaking.
        for _ in 0..50 {
            match TcpStream::connect(("127.0.0.1", self.port)) {
                Ok(stream) => return stream,
                Err(e) => {
                    last_err = Some(e);
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        panic!("connect: {last_err:?}");
    }

    fn connect(&self) -> Conn {
        let stream = self.connect_idle();
        Conn {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: BufWriter::new(stream),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn round_trip(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").expect("write request");
        self.writer.flush().expect("flush request");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        assert!(!response.is_empty(), "connection closed mid-request");
        response.trim_end().to_string()
    }
}

/// Reads a numeric field (`Threads:` / `VmRSS:`) from
/// `/proc/<pid>/status`.
fn proc_status_field(pid: u32, field: &str) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read /proc status");
    let line = status
        .lines()
        .find(|l| l.starts_with(field))
        .unwrap_or_else(|| panic!("no {field} in /proc/{pid}/status"));
    line.split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("unparsable {field} line {line:?}"))
}

fn metrics_field(conn: &mut Conn, field: &str) -> u64 {
    let response = conn.round_trip(r#"{"cmd": "metrics"}"#);
    let v = jsonio::parse(&response).expect("metrics JSON");
    v.get("metrics")
        .and_then(|m| m.get(field))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no {field} in {response}"))
}

/// The headline soak: 10k mostly-idle connections, flat threads, flat
/// memory, service still responsive throughout.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "10k-connection soak is release-only; run with --release"
)]
fn ten_thousand_idle_connections_no_thread_per_connection() {
    const IDLE: usize = 10_000;
    const CHECKPOINT: usize = 1_000;
    const ACTIVE: usize = 64;

    let server = Server::spawn(&["--transport", "reactor", "--workers", "2"]);
    let mut control = server.connect();

    // Ramp to the checkpoint, measure, ramp to full, measure again.
    let mut idle = Vec::with_capacity(IDLE);
    for _ in 0..CHECKPOINT {
        idle.push(server.connect_idle());
    }
    let threads_at_1k = proc_status_field(server.pid(), "Threads:");
    let rss_at_1k = proc_status_field(server.pid(), "VmRSS:");
    while idle.len() < IDLE {
        idle.push(server.connect_idle());
    }
    // Every connection registered, none of them a thread.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let tracked = metrics_field(&mut control, "reactor_connections");
        if tracked >= (IDLE + 1) as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server only tracked {tracked} of {} connections",
            IDLE + 1
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let threads_at_10k = proc_status_field(server.pid(), "Threads:");
    let rss_at_10k = proc_status_field(server.pid(), "VmRSS:");
    assert!(
        threads_at_10k <= threads_at_1k + 2,
        "thread count grew with connections: {threads_at_1k} at 1k, {threads_at_10k} at 10k"
    );
    // Rust threads default to 8 MiB of stack; even 2 KiB of RSS per
    // connection would be a broken reactor. Allow 64 MiB of slack for
    // allocator growth across 9k registrations.
    let rss_growth_kib = rss_at_10k.saturating_sub(rss_at_1k);
    assert!(
        rss_growth_kib < 64 * 1024,
        "RSS grew {rss_growth_kib} KiB between 1k and 10k connections"
    );

    // Mixed traffic while the 10k sit idle: plans (cache on and off),
    // observes, pings — all served promptly through the same shards.
    let mut active: Vec<Conn> = (0..ACTIVE).map(|_| server.connect()).collect();
    for (i, conn) in active.iter_mut().enumerate() {
        let plan = conn.round_trip(&format!(
            r#"{{"id": {i}, "instance": [[0.6, 0.3, 0.1]], "delay": 2, "cache": {}}}"#,
            i % 2 == 0
        ));
        let v = jsonio::parse(&plan).expect("plan response");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{plan}");
        let observe = conn.round_trip(&format!(
            r#"{{"cmd": "observe", "cells": 4, "sightings": [{{"device": "d{i}", "cell": {}, "time": {}.0}}]}}"#,
            i % 4,
            i + 1
        ));
        assert!(observe.contains("\"ingested\""), "{observe}");
        assert!(conn.round_trip(r#"{"cmd": "ping"}"#).contains("pong"));
    }
    let threads_under_load = proc_status_field(server.pid(), "Threads:");
    assert!(
        threads_under_load <= threads_at_1k + 2,
        "mixed traffic spawned threads: {threads_at_1k} -> {threads_under_load}"
    );

    // Closing the idle mass is observed by the server (gauge falls),
    // still without thread churn.
    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let tracked = metrics_field(&mut control, "reactor_connections");
        if tracked <= (ACTIVE + 1) as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server still tracks {tracked} connections after mass close"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Deterministic request script used for front-end parity. Covers
/// plans (cached, repeated for a cache hit, uncached, bad), observes,
/// device plans, stats, and errors.
fn parity_script() -> Vec<String> {
    let mut script = vec![
        r#"{"id": 1, "instance": [[0.5, 0.3, 0.2]], "delay": 2}"#.to_string(),
        r#"{"id": 2, "instance": [[0.5, 0.3, 0.2]], "delay": 2}"#.to_string(),
        r#"{"id": 3, "instance": [[0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4]], "delay": 3, "cache": false}"#.to_string(),
        r#"{"id": 4, "instance": [[0.7, 0.3]], "delay": 1, "variant": "greedy"}"#.to_string(),
        r#"{"instance": [[1.0]], "delay": 0}"#.to_string(),
        r#"{"cmd": "observe", "cells": 4, "sightings": [{"device": "a", "cell": 1, "time": 1.0}, {"device": "b", "cell": 2, "time": 1.5}]}"#.to_string(),
        r#"{"cmd": "plan_devices", "id": 5, "devices": ["a", "b"], "delay": 2}"#.to_string(),
        r#"{"cmd": "profile_stats"}"#.to_string(),
        r#"{"cmd": "ping"}"#.to_string(),
        r#"not json at all"#.to_string(),
        r#"{"cmd": "dance"}"#.to_string(),
    ];
    for i in 0..32 {
        script.push(format!(
            r#"{{"id": {}, "instance": [[0.4, 0.3, 0.2, 0.1]], "delay": {}}}"#,
            100 + i,
            1 + (i % 3)
        ));
    }
    script
}

/// Drops fields that legitimately differ between runs (timings and
/// load hints), keeping everything semantic.
fn normalize(response: &str) -> String {
    let v = jsonio::parse(response).unwrap_or(Value::Null);
    match v {
        Value::Object(fields) => {
            let kept: Vec<(String, Value)> = fields
                .into_iter()
                .filter(|(k, _)| k != "planning_micros" && k != "retry_after_ms")
                .collect();
            Value::Object(kept).to_string()
        }
        other => other.to_string(),
    }
}

/// One script over TCP and over `--stdio`, fresh server each: the
/// engine and the stdio front answer byte-identically.
#[test]
fn transports_answer_byte_identically() {
    let script = parity_script();
    let server = Server::spawn(&["--workers", "2"]);
    let mut conn = server.connect();
    let tcp: Vec<String> = script
        .iter()
        .map(|line| normalize(&conn.round_trip(line)))
        .collect();
    let mut stdio = Command::new(env!("CARGO_BIN_EXE_pager-serve"))
        .args(["--stdio", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pager-serve --stdio");
    let mut stdin = stdio.stdin.take().expect("child stdin");
    for line in &script {
        writeln!(stdin, "{line}").expect("write stdio request");
    }
    drop(stdin);
    let output = stdio.wait_with_output().expect("stdio session");
    let stdio: Vec<String> = String::from_utf8(output.stdout)
        .expect("UTF-8 stdout")
        .lines()
        .map(normalize)
        .collect();
    assert_eq!(stdio.len(), script.len(), "--stdio dropped answers");
    for (i, (tcp, stdio)) in tcp.iter().zip(&stdio).enumerate() {
        assert_eq!(
            tcp, stdio,
            "request #{i} ({:?}) diverged between TCP and --stdio",
            script[i]
        );
    }
}

/// Cells per slow instance: enough that the exact subset-DP takes
/// long enough to pile a burst up behind one worker.
const SLOW_CELLS: usize = 14;

/// A distinct normalized single-row instance per seed; the exact
/// solve at `delay: 3` is slow enough to make a burst queue.
fn slow_instance_json(seed: usize) -> String {
    let raw: Vec<f64> = (0..SLOW_CELLS)
        .map(|i| (((i * 7 + seed * 13) % 29) + 1) as f64)
        .collect();
    let total: f64 = raw.iter().sum();
    let cells: Vec<String> = raw.iter().map(|w| format!("{}", w / total)).collect();
    format!("[[{}]]", cells.join(", "))
}

/// The engine sheds like the blocking `plan` path: a burst beyond
/// workers+queue of slow distinct instances answers every line
/// immediately — plans for admitted work, `overloaded` +
/// `retry_after_ms` for the excess.
#[test]
fn shed_semantics_match_across_transports() {
    let server = Server::spawn(&["--workers", "1", "--queue-depth", "1"]);
    let burst = 12;
    // Connect everyone first, then release the burst together so it
    // genuinely lands at once.
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(burst));
    let handles: Vec<_> = (0..burst)
        .map(|i| {
            let mut conn = server.connect();
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Cacheable on purpose: only the dispatcher's bounded
                // admission queue sheds; uncacheable plans solve on
                // the I/O pool and never shed. The instances are
                // distinct, so no cache hits or coalescing blunt the
                // burst.
                let line = format!(
                    r#"{{"id": {i}, "instance": {}, "delay": 3, "variant": "exact"}}"#,
                    slow_instance_json(i)
                );
                barrier.wait();
                conn.round_trip(&line)
            })
        })
        .collect();
    let mut plans = 0;
    let mut sheds = 0;
    for handle in handles {
        let response = handle.join().expect("client thread");
        let v = jsonio::parse(&response).expect("burst response");
        if v.get("ok").and_then(Value::as_bool) == Some(true) {
            plans += 1;
        } else {
            assert_eq!(
                v.get("code").and_then(Value::as_str),
                Some("overloaded"),
                "unexpected error: {response}"
            );
            let hint = v.get("retry_after_ms").and_then(Value::as_u64);
            assert!(
                hint.is_some_and(|ms| ms > 0),
                "shed without a retry hint: {response}"
            );
            sheds += 1;
        }
    }
    assert!(plans >= 1, "burst produced no plans");
    assert!(
        sheds >= 1,
        "burst of {burst} was never shed (workers=1, queue=1)"
    );
}

/// A shutdown racing an in-flight solve still answers it: the drain
/// phase finishes admitted work.
#[test]
fn drain_answers_inflight_on_both_transports() {
    let server = Server::spawn(&["--workers", "1", "--drain-ms", "30000"]);
    let slow = format!(
        r#"{{"id": 77, "instance": {}, "delay": 3, "variant": "exact", "cache": false}}"#,
        slow_instance_json(77)
    );
    let mut worker_conn = server.connect();
    let solver = std::thread::spawn(move || worker_conn.round_trip(&slow));
    std::thread::sleep(Duration::from_millis(100));
    let mut shutdown_conn = server.connect();
    let stopping = shutdown_conn.round_trip(r#"{"cmd": "shutdown"}"#);
    assert!(stopping.contains("stopping"), "{stopping}");
    let answer = solver.join().expect("solver client");
    let v = jsonio::parse(&answer).expect("in-flight answer");
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(true),
        "in-flight request dropped on drain: {answer}"
    );
}

/// `--transport` survives as a compatibility spelling with one value:
/// `reactor` (or no flag) serves, `threads` is a usage error naming
/// the removal.
#[test]
fn transport_flag_accepts_only_reactor() {
    for args in [&["--transport", "reactor"][..], &[]] {
        let server = Server::spawn(args);
        let pong = server.connect().round_trip(r#"{"cmd": "ping"}"#);
        assert!(pong.contains("pong"), "{args:?}: {pong}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_pager-serve"))
        .args(["--addr", "127.0.0.1:0", "--transport", "threads"])
        .output()
        .expect("run pager-serve");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("threaded transport was removed"),
        "{stderr}"
    );
}
