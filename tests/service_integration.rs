//! End-to-end test of the `pager-serve` binary: spawn the real
//! server process, hammer it with ≥1k concurrent TCP requests mixing
//! repeated and fresh instances, and check correctness, cache
//! behaviour, and the metrics dump.

mod common;

use std::io::{BufRead, BufReader};
use std::sync::Arc;

use common::Server;
use jsonio::Value;
use pager_cluster::{BackendSpec, Router, RouterConfig, ShardSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CLIENT_THREADS: usize = 16;
const REQUESTS_PER_CLIENT: usize = 64; // 16 × 64 = 1024 ≥ 1k
const POOL_SIZE: usize = 8;

/// The server every test here runs against.
fn spawn_server() -> Server {
    Server::spawn(&["--workers", "4", "--metrics-json"])
}

fn rows_to_json(rows: &[Vec<f64>]) -> String {
    Value::Array(
        rows.iter()
            .map(|row| Value::Array(row.iter().map(|&p| Value::Float(p)).collect()))
            .collect(),
    )
    .to_string()
}

fn random_rows(rng: &mut StdRng, devices: usize, cells: usize) -> Vec<Vec<f64>> {
    (0..devices)
        .map(|_| {
            let raw: Vec<f64> = (0..cells).map(|_| rng.gen::<f64>() + 0.01).collect();
            let total: f64 = raw.iter().sum();
            raw.into_iter().map(|p| p / total).collect()
        })
        .collect()
}

/// observe → plan_devices over real TCP: profiles are addressable by
/// name, and a profile update between two identical requests bumps the
/// version and forces a fresh plan — the cache can never serve a plan
/// built from an older profile.
#[test]
fn observe_then_plan_devices_over_tcp() {
    let server = spawn_server();
    let mut conn = server.connect();

    // Stream a movement history for two devices: "a" cycles through
    // the cells, "b" camps in cell 1.
    for t in 0..40u32 {
        let request = format!(
            r#"{{"cmd": "observe", "cells": 4, "sightings": [{{"device": "a", "cell": {}, "time": {t}.0}}, {{"device": "b", "cell": 1, "time": {t}.0}}]}}"#,
            t % 4
        );
        let response = conn.round_trip(&request);
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "{response}"
        );
        assert_eq!(response.get("ingested").and_then(Value::as_u64), Some(2));
    }
    let stats = conn.round_trip(r#"{"cmd": "profile_stats"}"#);
    let profiles = stats.get("profiles").expect("profiles payload");
    assert_eq!(profiles.get("devices").and_then(Value::as_u64), Some(2));
    assert_eq!(profiles.get("sightings").and_then(Value::as_u64), Some(80));

    // Plan for the named devices, twice: the second identical request
    // must be served from the cache with the same versions.
    let plan_req = r#"{"cmd": "plan_devices", "id": 1, "devices": ["a", "b"], "delay": 2, "estimator": "empirical", "now": 39.0}"#;
    let first = conn.round_trip(plan_req);
    assert_eq!(
        first.get("ok").and_then(Value::as_bool),
        Some(true),
        "{first}"
    );
    assert_eq!(first.get("cached").and_then(Value::as_bool), Some(false));
    let first_versions = first
        .get("profile_versions")
        .and_then(Value::as_array)
        .expect("versions")
        .to_vec();
    assert_eq!(first_versions.len(), 2);
    let covered: usize = first
        .get("strategy")
        .and_then(Value::as_array)
        .expect("strategy")
        .iter()
        .map(|g| g.as_array().expect("group").len())
        .sum();
    assert_eq!(covered, 4, "strategy must partition all cells");
    let second = conn.round_trip(plan_req);
    assert_eq!(second.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(
        second.get("profile_versions").and_then(Value::as_array),
        Some(&first_versions[..])
    );

    // One more sighting for "b": its version bumps, and the same
    // request is re-planned — a stale cached strategy is unservable.
    let bump = conn.round_trip(
        r#"{"cmd": "observe", "cells": 4, "sightings": [{"device": "b", "cell": 2, "time": 40.0}]}"#,
    );
    assert_eq!(bump.get("ok").and_then(Value::as_bool), Some(true));
    let third = conn.round_trip(plan_req);
    assert_eq!(
        third.get("cached").and_then(Value::as_bool),
        Some(false),
        "profile update must invalidate the cached plan: {third}"
    );
    let third_versions = third
        .get("profile_versions")
        .and_then(Value::as_array)
        .expect("versions");
    assert_eq!(third_versions[0], first_versions[0], "a unchanged");
    assert!(
        third_versions[1].as_u64() > first_versions[1].as_u64(),
        "b's version must increase"
    );

    // The metrics registry saw the ingest.
    let metrics = conn.round_trip(r#"{"cmd": "metrics"}"#);
    let metrics = metrics.get("metrics").expect("metrics payload");
    assert_eq!(
        metrics.get("sightings_ingested").and_then(Value::as_u64),
        Some(81)
    );
}

/// The profile path's storage rule over the real binary: with three
/// observes per `plan_devices` at c = 16, as in perfbench's node-mixed
/// mix, every plan is a cheap greedy solve whose key the next observe
/// would kill, so none is stored and the cache stays empty.
#[test]
fn cheap_device_plans_leave_the_cache_empty_over_tcp() {
    const CELLS: usize = 16;
    const DEVICES: usize = 24;
    let server = spawn_server();
    let mut conn = server.connect();
    let mut rng = StdRng::seed_from_u64(26);
    let sightings = |time: usize, devices: &[usize], rng: &mut StdRng| {
        let items: Vec<String> = devices
            .iter()
            .map(|d| {
                let cell = rng.gen_range(0..CELLS);
                format!(r#"{{"device": "dev-{d}", "cell": {cell}, "time": {time}.0}}"#)
            })
            .collect();
        format!(
            r#"{{"cmd": "observe", "cells": {CELLS}, "sightings": [{}]}}"#,
            items.join(", ")
        )
    };
    let everyone: Vec<usize> = (0..DEVICES).collect();
    for time in 0..8 {
        let preload = conn.round_trip(&sightings(time, &everyone, &mut rng));
        assert_eq!(preload.get("ok").and_then(Value::as_bool), Some(true));
    }
    let mut plans = 0u64;
    for line in 0..2_000usize {
        let time = 8 + line;
        let request = if line % 4 == 3 {
            plans += 1;
            let size: usize = rng.gen_range(2..=4);
            let first = rng.gen_range(0..DEVICES - size);
            let devices: Vec<String> = (first..first + size)
                .map(|d| format!(r#""dev-{d}""#))
                .collect();
            let delay = rng.gen_range(2..=4);
            format!(
                r#"{{"cmd": "plan_devices", "devices": [{}], "delay": {delay}, "now": {time}.0}}"#,
                devices.join(", ")
            )
        } else {
            sightings(time, &[rng.gen_range(0..DEVICES)], &mut rng)
        };
        let response = conn.round_trip(&request);
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "{request} -> {response}"
        );
        if line % 4 == 3 {
            assert_eq!(response.get("cached").and_then(Value::as_bool), Some(false));
        }
    }
    let metrics = conn.round_trip(r#"{"cmd": "metrics"}"#);
    let metrics = metrics.get("metrics").expect("metrics payload");
    let counter = |name: &str| metrics.get(name).and_then(Value::as_u64);
    assert_eq!(counter("cache_entries"), Some(0), "{metrics}");
    assert_eq!(counter("cache_misses"), Some(0), "{metrics}");
    assert_eq!(counter("plan_devices_cache_misses"), Some(0), "{metrics}");
    assert_eq!(counter("solved_inline"), Some(plans), "{metrics}");
    assert_eq!(counter("evictions"), Some(0), "{metrics}");
}

/// Appends one `path kind` line per node of `value` (objects
/// recurse; arrays are leaves).
fn shape_lines(path: &str, value: &Value, out: &mut Vec<String>) {
    let kind = match value {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Int(_) => "int",
        Value::Float(_) => "float",
        Value::Str(_) => "string",
        Value::Array(_) => "array",
        Value::Object(fields) => {
            for (key, field) in fields {
                shape_lines(&format!("{path}.{key}"), field, out);
            }
            "object"
        }
    };
    out.push(format!("{path} {kind}"));
}

/// The key paths and value kinds of every metrics dump, pinned in
/// `dump_shapes.txt`: `{"cmd": "metrics"}` and `{"cmd": "stats"}` on a
/// node, `{"cmd": "stats"}` on a router, and the final
/// `--metrics-json` line. Clients read these fields by path, so a
/// renamed, moved or retyped key fails here; key order is free.
#[test]
fn dump_shapes_are_pinned() {
    let mut server = spawn_server();
    let mut conn = server.connect();
    let mut lines = Vec::new();
    shape_lines(
        "metrics",
        &conn.round_trip(r#"{"cmd": "metrics"}"#),
        &mut lines,
    );
    shape_lines(
        "node_stats",
        &conn.round_trip(r#"{"cmd": "stats"}"#),
        &mut lines,
    );
    let router = Router::new(
        vec![ShardSpec {
            shard: "s0".to_string(),
            backends: vec![BackendSpec {
                node: "n0".to_string(),
                addr: "127.0.0.1:1".to_string(),
            }],
        }],
        64,
        RouterConfig::default(),
    )
    .expect("router");
    let router_stats = router.handle_line(r#"{"cmd": "stats"}"#).response;
    shape_lines(
        "router_stats",
        &jsonio::parse(&router_stats).expect("router stats JSON"),
        &mut lines,
    );
    conn.round_trip(r#"{"cmd": "shutdown"}"#);
    drop(conn);
    let mut child = server.child.take().expect("child still running");
    assert!(child.wait().expect("server exit").success());
    let dump = BufReader::new(child.stdout.take().expect("child stdout"))
        .lines()
        .map(|l| l.expect("read metrics dump"))
        .last()
        .expect("metrics line");
    shape_lines(
        "metrics_json",
        &jsonio::parse(&dump).expect("metrics JSON"),
        &mut lines,
    );
    lines.sort();
    let actual = lines.join("\n") + "\n";
    assert!(
        actual == include_str!("dump_shapes.txt"),
        "dump shapes changed; the current shapes are:\n{actual}"
    );
}

#[test]
fn thousand_concurrent_requests_over_tcp() {
    let server = Arc::new(spawn_server());

    // A fixed pool of instances that every client repeats (these must
    // hit the cache and must all be served the same strategy), plus
    // per-client fresh instances (these mostly miss).
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let pool: Vec<String> = (0..POOL_SIZE)
        .map(|_| rows_to_json(&random_rows(&mut rng, 2, 6)))
        .collect();
    let pool = Arc::new(pool);

    let clients: Vec<_> = (0..CLIENT_THREADS)
        .map(|t| {
            let server = Arc::clone(&server);
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + t as u64);
                let mut conn = server.connect();
                // (pool index, strategy JSON, ep, cached) per pool hit.
                let mut observed: Vec<(usize, String, f64, bool)> = Vec::new();
                for i in 0..REQUESTS_PER_CLIENT {
                    let use_pool = i % 2 == 0;
                    let (pool_idx, instance) = if use_pool {
                        let idx = rng.gen_range(0..POOL_SIZE);
                        (Some(idx), pool[idx].clone())
                    } else {
                        (None, rows_to_json(&random_rows(&mut rng, 2, 6)))
                    };
                    let id = t * REQUESTS_PER_CLIENT + i;
                    let request = format!(r#"{{"id": {id}, "instance": {instance}, "delay": 3}}"#);
                    let response = conn.round_trip(&request);
                    assert_eq!(
                        response.get("ok").and_then(Value::as_bool),
                        Some(true),
                        "request {id} failed: {response}"
                    );
                    assert_eq!(response.get("id").and_then(Value::as_usize), Some(id));
                    let strategy = response.get("strategy").expect("strategy");
                    let cells: usize = strategy
                        .as_array()
                        .expect("strategy array")
                        .iter()
                        .map(|g| g.as_array().expect("group array").len())
                        .sum();
                    assert_eq!(cells, 6, "strategy must partition all cells");
                    let ep = response.get("ep").and_then(Value::as_f64).expect("ep");
                    assert!(ep > 0.0 && ep <= 12.0, "EP {ep} out of range");
                    if let Some(idx) = pool_idx {
                        observed.push((
                            idx,
                            strategy.to_string(),
                            ep,
                            response.get("cached").and_then(Value::as_bool) == Some(true),
                        ));
                    }
                }
                observed
            })
        })
        .collect();

    let mut by_pool_idx: Vec<Vec<(String, f64, bool)>> = vec![Vec::new(); POOL_SIZE];
    let mut completed = 0usize;
    for client in clients {
        let observed = client.join().expect("client thread");
        completed += REQUESTS_PER_CLIENT;
        for (idx, strategy, ep, cached) in observed {
            by_pool_idx[idx].push((strategy, ep, cached));
        }
    }
    assert!(completed >= 1000, "only {completed} requests completed");

    // Identical fingerprints ⇒ byte-identical strategies and EPs,
    // whether the response was cached, coalesced, or freshly planned.
    let mut cached_seen = 0usize;
    for (idx, responses) in by_pool_idx.iter().enumerate() {
        assert!(!responses.is_empty(), "pool instance {idx} never requested");
        let (baseline_strategy, baseline_ep, _) = &responses[0];
        for (strategy, ep, cached) in responses {
            assert_eq!(
                strategy, baseline_strategy,
                "pool instance {idx}: cached and fresh strategies differ"
            );
            assert!(
                (ep - baseline_ep).abs() < f64::EPSILON,
                "pool instance {idx}: EP drifted: {ep} vs {baseline_ep}"
            );
            cached_seen += usize::from(*cached);
        }
    }
    assert!(cached_seen > 0, "repeated instances never hit the cache");

    // The metrics registry agrees.
    let mut conn = server.connect();
    let metrics_response = conn.round_trip(r#"{"cmd": "metrics"}"#);
    let metrics = metrics_response.get("metrics").expect("metrics payload");
    let requests = metrics.get("requests").and_then(Value::as_u64).unwrap();
    assert!(requests >= 1024, "server saw only {requests} requests");
    let hits = metrics.get("cache_hits").and_then(Value::as_u64).unwrap();
    let misses = metrics.get("cache_misses").and_then(Value::as_u64).unwrap();
    assert!(hits > 0, "cache hit rate must be nonzero");
    assert_eq!(hits + misses, requests, "every request hits or misses");
    assert!(
        metrics
            .get("tier_latency")
            .and_then(|t| t.get("exact"))
            .and_then(|t| t.get("count"))
            .and_then(Value::as_u64)
            .unwrap_or(0)
            > 0,
        "2×6 instances should be planned by the exact tier: {metrics}"
    );

    // Shut the server down over the wire and collect the final
    // metrics dump from stdout (--metrics-json).
    let stop = conn.round_trip(r#"{"cmd": "shutdown"}"#);
    assert_eq!(stop.get("stopping").and_then(Value::as_bool), Some(true));
    drop(conn);
    let mut server = Arc::into_inner(server).expect("all clients finished");
    let mut child = server.child.take().expect("child still running");
    // The metrics dump is tiny, so it fits the pipe buffer and the
    // child can exit before we read it.
    let status = child.wait().expect("server exit");
    assert!(status.success(), "server exited with {status}");
    let stdout = child.stdout.take().expect("child stdout");
    let dump: Vec<String> = BufReader::new(stdout)
        .lines()
        .map(|l| l.expect("read metrics dump"))
        .collect();
    let final_metrics = jsonio::parse(dump.last().expect("metrics line")).unwrap();
    assert!(
        final_metrics
            .get("requests")
            .and_then(Value::as_u64)
            .unwrap()
            >= 1024
    );
}
