//! Stress tests for the deadline-aware request lifecycle: spawn the
//! real `pager-serve` binary with a small worker pool and a tight
//! admission queue, then prove four properties under load:
//!
//! 1. **Backpressure** — a burst at ~4× the server's capacity
//!    (workers + queue slots) is answered *immediately* for every
//!    request: accepted work gets a plan, excess load is shed with
//!    `"code": "overloaded"` and a `retry_after_ms` hint, and nothing
//!    blocks behind an unbounded backlog — whether or not the requests
//!    opt out of the cache.
//! 2. **Deadline downgrade** — an exact-tier request whose deadline
//!    expires mid-solve comes back as the greedy approximation with
//!    `"tier": "greedy", "downgraded": true` instead of arriving late.
//! 3. **Drain** — a shutdown issued while solves are in flight answers
//!    every admitted request before the process exits.
//! 4. **No head-of-line blocking** — while that burst fills the workers
//!    and the queue, a plan cheap enough to solve on the shard thread
//!    (Theorem 4.8 cost at most `INLINE_SOLVE_OPS`) is still answered.

mod common;

use std::sync::{Arc, Barrier};
use std::time::Duration;

use common::Server;
use jsonio::Value;

/// Server capacity in the overload test: jobs solving plus jobs
/// queued. Everything beyond this in a simultaneous burst of distinct
/// instances must be shed.
const WORKERS: usize = 2;
const QUEUE_DEPTH: usize = 4;
const CAPACITY: usize = WORKERS + QUEUE_DEPTH;
/// 4× the server's capacity.
const BURST: usize = 4 * CAPACITY;

/// Cells per instance: big enough that the exact subset-DP takes
/// hundreds of milliseconds (debug build), so a burst genuinely piles
/// up behind the two workers instead of draining instantly.
const CELLS: usize = 14;

/// A distinct (per-seed) normalized instance row, heavy on different
/// cells for different seeds so no two burst requests share a
/// quantised fingerprint (distinct keys can never coalesce).
fn distinct_instance_json(seed: usize) -> String {
    let raw: Vec<f64> = (0..CELLS)
        .map(|i| (((i * 7 + seed * 13) % 29) + 1) as f64)
        .collect();
    let total: f64 = raw.iter().sum();
    let cells: Vec<String> = raw.iter().map(|w| format!("{}", w / total)).collect();
    format!("[[{}]]", cells.join(", "))
}

/// Releases a burst 4× the server's capacity of distinct exact-tier
/// requests, one connection each, all at once; each thread returns its
/// answer. With `cache` false every request opts out of the cache.
fn burst(server: &Arc<Server>, cache: bool) -> Vec<std::thread::JoinHandle<Value>> {
    // All clients connect first, then release the burst together.
    let barrier = Arc::new(Barrier::new(BURST));
    (0..BURST)
        .map(|t| {
            let server = Arc::clone(server);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut conn = server.connect();
                let instance = distinct_instance_json(t);
                let request = format!(
                    r#"{{"id": {t}, "instance": {instance}, "delay": 3, "variant": "exact", "cache": {cache}}}"#
                );
                barrier.wait();
                conn.round_trip(&request)
            })
        })
        .collect()
}

/// Burst 4× the server's capacity with distinct exact-tier requests,
/// first cacheable, then with `"cache": false`: every request is
/// answered promptly — a plan for what fits, an `"overloaded"` shed for
/// what does not — and the metrics agree.
#[test]
fn burst_at_4x_capacity_sheds_with_overloaded() {
    // Cacheable misses are coalesced and stored; uncacheable ones are
    // admitted as tasks. Both go through the one bounded queue.
    for cache in [true, false] {
        let server = Arc::new(Server::spawn(&[
            "--metrics-json",
            "--workers",
            "2",
            "--queue-depth",
            "4",
        ]));
        let clients = burst(&server, cache);

        let mut planned = 0usize;
        let mut shed = 0usize;
        for client in clients {
            let response = client.join().expect("client thread");
            assert_eq!(
                response.get("v").and_then(Value::as_u64),
                Some(1),
                "every response carries the protocol version: {response}"
            );
            match response.get("ok").and_then(Value::as_bool) {
                Some(true) => {
                    let cells: usize = response
                        .get("strategy")
                        .and_then(Value::as_array)
                        .expect("strategy")
                        .iter()
                        .map(|g| g.as_array().expect("group").len())
                        .sum();
                    assert_eq!(cells, CELLS, "strategy must partition all cells");
                    planned += 1;
                }
                Some(false) => {
                    assert_eq!(
                        response.get("code").and_then(Value::as_str),
                        Some("overloaded"),
                        "a rejected burst request must be shed, not errored: {response}"
                    );
                    assert!(
                        response.get("retry_after_ms").and_then(Value::as_u64) > Some(0),
                        "shed responses carry a retry hint: {response}"
                    );
                    shed += 1;
                }
                None => panic!("response without ok field: {response}"),
            }
        }
        assert_eq!(planned + shed, BURST);
        assert!(
            shed > 0,
            "a 4x burst against capacity {CAPACITY} must shed something (cache {cache})"
        );
        assert!(
            planned >= WORKERS,
            "the servers must still plan what fits: planned {planned} (cache {cache})"
        );

        // The metrics registry saw the shedding, and the queue gauge is
        // back to idle (bounded: it can never exceed the queue depth, so
        // after the burst it must be zero again).
        let mut conn = server.connect();
        let metrics = conn.round_trip(r#"{"cmd": "metrics"}"#);
        let metrics = metrics.get("metrics").expect("metrics payload");
        let shed_metric = metrics
            .get("requests_shed")
            .and_then(Value::as_u64)
            .unwrap();
        assert!(
            shed_metric >= shed as u64,
            "metrics shed {shed_metric} < observed {shed}"
        );
        let depth = metrics.get("queue_depth").and_then(Value::as_u64).unwrap();
        assert!(
            depth <= QUEUE_DEPTH as u64,
            "queue gauge {depth} exceeds the bound {QUEUE_DEPTH}"
        );
        let stop = conn.round_trip(r#"{"cmd": "shutdown"}"#);
        assert_eq!(stop.get("stopping").and_then(Value::as_bool), Some(true));
    }
}

/// Head-of-line: while the burst above fills both workers and the
/// queue, a cheap plan — a greedy `plan_devices` over 16 cells, whose
/// Theorem 4.8 cost is far below the inline bound — is solved on the
/// shard thread that received it: answered, never shed, never queued
/// behind the exact solves.
#[test]
fn a_cheap_plan_is_served_while_a_burst_fills_the_pool() {
    let server = Arc::new(Server::spawn(&[
        "--metrics-json",
        "--workers",
        "2",
        "--queue-depth",
        "4",
    ]));
    let mut conn = server.connect();
    let sightings: Vec<String> = (0..48)
        .map(|t| {
            format!(
                r#"{{"device": "d{}", "cell": {}, "time": {t}}}"#,
                t % 3,
                (t * 5) % 16
            )
        })
        .collect();
    let observed = conn.round_trip(&format!(
        r#"{{"cmd": "observe", "cells": 16, "sightings": [{}]}}"#,
        sightings.join(", ")
    ));
    assert_eq!(observed.get("ok").and_then(Value::as_bool), Some(true));

    let clients = burst(&server, true);
    // The burst has overflowed the queue once something is shed.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let metrics = conn.round_trip(r#"{"cmd": "metrics"}"#);
        let shed = metrics
            .get("metrics")
            .and_then(|m| m.get("requests_shed"))
            .and_then(Value::as_u64);
        if shed > Some(0) {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "the burst never shed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let cheap = conn.round_trip(
        r#"{"cmd": "plan_devices", "id": 99, "devices": ["d0", "d1", "d2"], "delay": 4, "variant": "greedy"}"#,
    );
    // Join the burst before asserting: its threads hold the server, and
    // a failed assertion must not leave the process running.
    for client in clients {
        let response = client.join().expect("client thread");
        assert!(response.get("ok").is_some(), "{response}");
    }
    assert_eq!(
        cheap.get("ok").and_then(Value::as_bool),
        Some(true),
        "a cheap plan must not be shed behind the burst: {cheap}"
    );
    assert_eq!(cheap.get("cached").and_then(Value::as_bool), Some(false));
    assert_eq!(cheap.get("tier").and_then(Value::as_str), Some("greedy"));
    let metrics = conn.round_trip(r#"{"cmd": "metrics"}"#);
    assert!(
        metrics
            .get("metrics")
            .and_then(|m| m.get("solved_inline"))
            .and_then(Value::as_u64)
            >= Some(1),
        "{metrics}"
    );
    let stop = conn.round_trip(r#"{"cmd": "shutdown"}"#);
    assert_eq!(stop.get("stopping").and_then(Value::as_bool), Some(true));
}

/// An exact request whose deadline budget cannot cover the subset-DP
/// is downgraded mid-solve: the response is the greedy approximation,
/// flagged as such, and it arrives without waiting out the full solve.
#[test]
fn expired_deadline_downgrades_exact_to_greedy_over_the_wire() {
    let server = Server::spawn(&["--metrics-json", "--workers", "2"]);
    let mut conn = server.connect();
    let instance = distinct_instance_json(0);
    // ~5ms of budget against a solve that takes hundreds of ms.
    let request = format!(
        r#"{{"id": 7, "instance": {instance}, "delay": 3, "variant": "exact", "deadline_ms": 5}}"#
    );
    let response = conn.round_trip(&request);
    assert_eq!(
        response.get("ok").and_then(Value::as_bool),
        Some(true),
        "{response}"
    );
    assert_eq!(response.get("tier").and_then(Value::as_str), Some("greedy"));
    assert_eq!(
        response.get("downgraded").and_then(Value::as_bool),
        Some(true),
        "an expired exact solve must be flagged as downgraded: {response}"
    );

    // A patient request for the same instance still gets the optimum,
    // proving the downgraded plan did not poison the cache.
    let patient = format!(
        r#"{{"id": 8, "instance": {instance}, "delay": 3, "variant": "exact", "deadline_ms": 60000}}"#
    );
    let response = conn.round_trip(&patient);
    assert_eq!(response.get("tier").and_then(Value::as_str), Some("exact"));
    assert_eq!(
        response.get("downgraded").and_then(Value::as_bool),
        Some(false)
    );

    let metrics = conn.round_trip(r#"{"cmd": "metrics"}"#);
    let metrics = metrics.get("metrics").expect("metrics payload");
    assert!(
        metrics
            .get("deadline_downgrades")
            .and_then(Value::as_u64)
            .unwrap()
            >= 1,
        "the downgrade must be counted: {metrics}"
    );
    let stop = conn.round_trip(r#"{"cmd": "shutdown"}"#);
    assert_eq!(stop.get("stopping").and_then(Value::as_bool), Some(true));
}

/// Shutdown while solves are in flight: the server drains, so every
/// admitted request is answered before the process exits cleanly.
#[test]
fn shutdown_drains_inflight_requests() {
    let server = Arc::new(Server::spawn(&[
        "--metrics-json",
        "--workers",
        "2",
        "--queue-depth",
        "8",
        "--drain-ms",
        "30000",
    ]));

    // Fewer clients than capacity: every request is admitted, and the
    // slow exact solves keep them in flight when the shutdown lands.
    let clients: Vec<_> = (0..4)
        .map(|t| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let mut conn = server.connect();
                let instance = distinct_instance_json(100 + t);
                let request = format!(
                    r#"{{"id": {t}, "instance": {instance}, "delay": 3, "variant": "exact"}}"#
                );
                conn.round_trip(&request)
            })
        })
        .collect();

    // Let the requests reach the workers, then pull the plug while
    // they are still solving.
    std::thread::sleep(Duration::from_millis(50));
    let mut conn = server.connect();
    let stop = conn.round_trip(r#"{"cmd": "shutdown"}"#);
    assert_eq!(stop.get("stopping").and_then(Value::as_bool), Some(true));
    drop(conn);

    // Every in-flight request still gets its complete response.
    for client in clients {
        let response = client.join().expect("client thread");
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "an admitted request was dropped by shutdown: {response}"
        );
        assert_eq!(response.get("tier").and_then(Value::as_str), Some("exact"));
    }

    // The process exits cleanly (zero pending after the drain).
    let mut server = Arc::into_inner(server).expect("all clients finished");
    let mut child = server.child.take().expect("child still running");
    let status = child.wait().expect("server exit");
    assert!(status.success(), "server exited with {status}");
}
