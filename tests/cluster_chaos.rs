//! Seeded chaos matrix: a real cluster behind `pager-chaos` fault
//! proxies, driven through declarative fault schedules while the
//! invariant checker audits the safety properties.
//!
//! Four schedule families — partition-owner, lossy-ship-link,
//! blackhole-backend, corrupt-frames — each run under many seeds.
//! Every random fault decision (jitter draws, corruption positions,
//! duplication rolls) comes from the seed, so a failure line prints
//! everything needed to replay it exactly:
//!
//! ```text
//! CHAOS_SEEDS=17 cargo test --release --test cluster_chaos partition_owner -- --include-ignored
//! ```
//!
//! The full matrix is release-only (`--include-ignored`): debug-build
//! solve times blow the deadline budgets the checker audits. A small
//! non-ignored smoke keeps one blackhole-owner run in tier-1.

use std::path::PathBuf;
use std::time::Duration;

use conference_call::cluster::router::RouterConfig;
use conference_call::cluster::{
    check_under_schedule, ChaosSpec, CheckConfig, Cluster, HarnessConfig, Topology,
};
use pager_chaos::{Fault, Schedule, Step};

/// Seeds per family: 8 × 4 families = 32 checker runs. Override with
/// `CHAOS_SEEDS=17,42` to replay specific seeds.
fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(csv) => csv
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("CHAOS_SEEDS entry {s:?} is not a u64"))
            })
            .collect(),
        Err(_) => (1..=8).collect(),
    }
}

fn step(at_ms: u64, link: &str, fault: Fault) -> Step {
    Step {
        at_ms,
        link: link.to_string(),
        fault,
    }
}

/// Launches a fresh 2-shard × 1-replica cluster wired through chaos
/// proxies seeded with `seed`. Fresh per run: faults can legitimately
/// promote replicas, and reusing a mutated routing table across seeds
/// would make later runs exercise a different cluster than advertised.
fn launch(family: &str, seed: u64, schedule: &Schedule) -> (Cluster, PathBuf) {
    let data_root = std::env::temp_dir().join(format!(
        "pager-chaos-{family}-s{seed}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&data_root);
    let topology = Topology {
        shards: 2,
        replicas: 1,
        vnodes: 64,
        workers: 2,
        queue_depth: 256,
        wal_retain: 8,
        checkpoint_every: 0,
        chaos: Some(ChaosSpec {
            seed,
            schedule: schedule.clone(),
        }),
    };
    let router = RouterConfig {
        // Tight socket bounds so a blackholed backend costs one short
        // timeout per attempt and retries fit the deadline budget.
        connect_timeout: Duration::from_millis(300),
        io_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    };
    let config = HarnessConfig {
        pager_serve: PathBuf::from(env!("CARGO_BIN_EXE_pager-serve")),
        data_root: data_root.clone(),
        topology,
        router,
    };
    let cluster = Cluster::launch(&config).expect("launch chaos-wired cluster");
    (cluster, data_root)
}

/// Runs one (family, seed) cell and panics with a replay line if any
/// invariant broke.
fn run_cell(family: &str, seed: u64, schedule: &Schedule) {
    let (cluster, data_root) = launch(family, seed, schedule);
    let config = CheckConfig {
        namespace: format!("{family}-s{seed}"),
        ..CheckConfig::default()
    };
    let report = check_under_schedule(&cluster, schedule, &config).expect("checker misuse");
    let summary = format!(
        "family={family} seed={seed}: {} requests, {} acked, {} plans, {} honest errors, max latency {}ms",
        report.requests,
        report.acked_sightings,
        report.served_plans,
        report.honest_errors,
        report.max_latency.as_millis(),
    );
    println!("{summary}");
    assert!(
        report.requests > 0 && report.acked_sightings > 0,
        "{summary}: checker drove no traffic — the cell proved nothing"
    );
    assert!(
        report.passed(),
        "{summary}\nviolations:\n  {}\nreplay: CHAOS_SEEDS={seed} cargo test --release \
         --test cluster_chaos {family} -- --include-ignored\nschedule: {}",
        report.violations.join("\n  "),
        schedule.to_json(),
    );
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&data_root);
}

fn run_family(family: &str, schedule: &Schedule) {
    for seed in seeds() {
        run_cell(family, seed, schedule);
    }
}

/// The owner of shard 0 is partitioned (established connections
/// severed, new ones refused) mid-traffic, forcing a promotion, then
/// the link heals and the demoted link stays out of the routing table.
fn partition_owner_schedule() -> Schedule {
    Schedule::new(vec![
        step(300, "router->shard-0.r0", Fault::Partition),
        step(1800, "*", Fault::Heal),
    ])
}

/// The replication link to shard 0's replica degrades — jitter, then
/// seeded corruption, then a severed connection — while acks keep
/// flowing. Ship-before-ack must hold: anything acked through the
/// lossy window is servable after heal.
fn lossy_ship_link_schedule() -> Schedule {
    Schedule::new(vec![
        step(200, "router->shard-0.r1", Fault::Jitter { ms: 40 }),
        step(
            600,
            "router->shard-0.r1",
            Fault::Corrupt {
                byte_flips: 2,
                prob_pct: 40,
            },
        ),
        step(1100, "router->shard-0.r1", Fault::DropConn),
        step(1700, "*", Fault::Heal),
    ])
}

/// A backend goes half-open: connects succeed, reads hang. The router
/// must answer within the deadline budget anyway (timeout, breaker,
/// failover), never park a client on the dead socket.
fn blackhole_backend_schedule() -> Schedule {
    Schedule::new(vec![
        step(300, "router->shard-1.r0", Fault::Blackhole),
        step(1800, "*", Fault::Heal),
    ])
}

/// Every link flips payload bytes and duplicates chunks. Corrupt
/// frames must be rejected (byzantine validation, frame hardening),
/// tripping breakers at worst — never acked, never served, never hung.
fn corrupt_frames_schedule() -> Schedule {
    Schedule::new(vec![
        step(
            200,
            "router->*",
            Fault::Corrupt {
                byte_flips: 1,
                prob_pct: 30,
            },
        ),
        step(900, "router->*", Fault::DuplicateFrame { prob_pct: 20 }),
        step(1700, "*", Fault::Heal),
    ])
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "seeded chaos matrix is release-only; run with --release -- --include-ignored"
)]
fn partition_owner_matrix() {
    run_family("partition_owner", &partition_owner_schedule());
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "seeded chaos matrix is release-only; run with --release -- --include-ignored"
)]
fn lossy_ship_link_matrix() {
    run_family("lossy_ship_link", &lossy_ship_link_schedule());
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "seeded chaos matrix is release-only; run with --release -- --include-ignored"
)]
fn blackhole_backend_matrix() {
    run_family("blackhole_backend", &blackhole_backend_schedule());
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "seeded chaos matrix is release-only; run with --release -- --include-ignored"
)]
fn corrupt_frames_matrix() {
    run_family("corrupt_frames", &corrupt_frames_schedule());
}

/// Tier-1 smoke (runs in debug too): one seed, the blackhole-owner
/// schedule from the acceptance bar, generous slack for debug solve
/// times. Proves the chaos wiring end to end on every `cargo test`.
#[test]
fn blackhole_owner_smoke() {
    let schedule = Schedule::new(vec![
        step(300, "router->shard-0.r0", Fault::Blackhole),
        step(1500, "*", Fault::Heal),
    ]);
    let (cluster, data_root) = launch("smoke", 7, &schedule);
    let config = CheckConfig {
        threads: 2,
        devices_per_thread: 2,
        deadline_ms: 4000,
        deadline_slack_ms: 2000,
        namespace: "smoke-s7".to_string(),
        ..CheckConfig::default()
    };
    let report = check_under_schedule(&cluster, &schedule, &config).expect("checker misuse");
    assert!(report.requests > 0, "smoke drove no traffic");
    assert!(
        report.passed(),
        "blackhole-owner smoke violated invariants:\n  {}",
        report.violations.join("\n  ")
    );
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&data_root);
}

/// With one shard's owner blackholed and `io_threads + 1` clients
/// parked on it, a `plan_devices` for a device on the healthy shard is
/// answered well inside its deadline: the engine's I/O pool grows a
/// worker for it instead of queueing it behind the blocked round trips
/// (a fixed pool of `io_threads` would hold it for the blocked
/// requests' full 4 s budget).
#[test]
fn blackholed_shard_does_not_delay_the_healthy_one() {
    use conference_call::cluster::ShardMap;
    use conference_call::service::{serve_reactor_with, ReactorConfig};
    use std::io::{BufRead, BufReader, Write};
    use std::time::Instant;

    const IO_THREADS: usize = 1;
    let data_root =
        std::env::temp_dir().join(format!("pager-chaos-isolation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_root);
    let topology = Topology {
        shards: 2,
        replicas: 0,
        chaos: Some(ChaosSpec {
            seed: 1,
            schedule: Schedule::new(Vec::new()),
        }),
        ..Topology::default()
    };
    let map = ShardMap::new(&topology.shard_names(), topology.vnodes, 0);
    let device_on = |shard| {
        (0..)
            .map(|i| format!("iso-{i}"))
            .find(|d| map.owner_index(d) == Some(shard))
            .unwrap()
    };
    let (blocked, healthy) = (device_on(0), device_on(1));
    let config = HarnessConfig {
        pager_serve: PathBuf::from(env!("CARGO_BIN_EXE_pager-serve")),
        data_root: data_root.clone(),
        topology,
        router: RouterConfig::default(),
    };
    let cluster = Cluster::launch(&config).expect("launch chaos-wired cluster");
    let observed = cluster.request(&format!(
        r#"{{"cmd": "observe", "cells": 4, "sightings": [{{"device": "{healthy}", "cell": 1, "time": 1.0}}]}}"#
    ));
    assert_eq!(observed.get("ingested").and_then(|v| v.as_u64()), Some(1));
    let config = ReactorConfig {
        shards: 2,
        io_threads: IO_THREADS,
    };
    let handle = serve_reactor_with(cluster.router.clone(), "127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr();
    let plan = move |device: &str, deadline_ms: u64| {
        let line = format!(
            r#"{{"cmd": "plan_devices", "devices": ["{device}"], "delay": 2, "now": 2.0, "deadline_ms": {deadline_ms}}}"#
        );
        let stream = std::net::TcpStream::connect(addr).unwrap();
        (&stream).write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut answer = String::new();
        BufReader::new(&stream).read_line(&mut answer).unwrap();
        answer
    };

    let chaos = cluster.chaos().expect("chaos net");
    assert_eq!(chaos.apply("router->shard-0.r0", &Fault::Blackhole), 1);
    let parked: Vec<_> = (0..=IO_THREADS)
        .map(|_| {
            let device = blocked.clone();
            std::thread::spawn(move || plan(&device, 4000))
        })
        .collect();
    // Let every parked request reach the pool first.
    std::thread::sleep(Duration::from_millis(300));
    let started = Instant::now();
    let answer = plan(&healthy, 2000);
    let waited = started.elapsed();
    assert!(answer.contains("\"ok\":true"), "{answer}");
    assert!(
        waited < Duration::from_millis(1000),
        "healthy-shard plan waited {waited:?} behind blackholed requests"
    );
    for client in parked {
        let answer = client.join().expect("parked client");
        assert!(answer.contains("\"ok\":false"), "{answer}");
    }
    chaos.heal_all();
    drop(handle);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&data_root);
}
