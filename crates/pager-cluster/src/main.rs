//! `pager-cluster` — launch a sharded cluster or benchmark one.
//!
//! ```text
//! USAGE:
//!   pager-cluster launch [--addr HOST:PORT] [--pager-serve PATH]
//!                        [--data-root DIR] [--shards N] [--replicas N]
//!                        [--topology-json FILE]
//!   pager-cluster bench  [--pager-serve PATH] [--data-root DIR]
//!                        [--shards N] [--replicas N] [--threads N]
//!                        [--requests N]
//! ```
//!
//! `launch` spawns `shards × (replicas + 1)` `pager-serve` processes
//! and serves both wire protocols on `--addr` (default
//! `127.0.0.1:7979`) — v1 JSON lines and v2 binary frames, detected
//! per message (see `docs/wire.md`) — routing every request to its
//! owning shard; a client cannot tell it from a single node (v1
//! responses gain `"shard"` and `"router_epoch"`). Client connections
//! are served by the same transport engine as `pager-serve` (Linux
//! only). `{"cmd": "shutdown"}` stops every backend, then the router
//! drains like `pager-serve` does: idle client connections close at
//! once, and requests already in flight get up to 5 s to be answered
//! before the process exits.
//!
//! `bench` launches a 1-node baseline and an N-shard cluster on
//! scratch directories, drives the same mixed observe/plan workload
//! through each router, and prints one JSON comparison (the
//! `BENCH_cluster_v1.json` artifact).
//!
//! `--pager-serve` defaults to a `pager-serve` binary next to this
//! one.

use std::path::PathBuf;
use std::process::ExitCode;

use jsonio::Value;
use pager_cluster::router::RouterConfig;
use pager_cluster::{Cluster, HarnessConfig, Topology};

/// How long `launch` waits for in-flight client requests after a
/// `shutdown` (`pager-serve`'s default `--drain-ms`).
#[cfg(target_os = "linux")]
const DRAIN_BUDGET: std::time::Duration = std::time::Duration::from_millis(5000);

fn usage() -> ExitCode {
    eprintln!(
        "usage: pager-cluster launch [--addr HOST:PORT] [--pager-serve PATH] [--data-root DIR] [--shards N] [--replicas N] [--topology-json FILE]\n       pager-cluster bench  [--pager-serve PATH] [--data-root DIR] [--shards N] [--replicas N] [--threads N] [--requests N]"
    );
    ExitCode::from(2)
}

struct Options {
    addr: String,
    threads: usize,
    requests: usize,
    harness: HarnessConfig,
}

fn default_pager_serve() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("pager-serve")))
        .unwrap_or_else(|| PathBuf::from("pager-serve"))
}

fn parse_args(mut args: std::env::Args) -> Result<(String, Options), String> {
    let _ = args.next();
    let mode = args.next().ok_or("missing subcommand (launch | bench)")?;
    if mode != "launch" && mode != "bench" {
        return Err(format!("unknown subcommand {mode:?}"));
    }
    let mut opts = Options {
        addr: "127.0.0.1:7979".into(),
        threads: 4,
        requests: 250,
        harness: HarnessConfig {
            pager_serve: default_pager_serve(),
            data_root: std::env::temp_dir().join(format!("pager-cluster-{}", std::process::id())),
            topology: Topology::default(),
            router: RouterConfig::default(),
        },
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => opts.addr = args.next().ok_or("--addr needs HOST:PORT")?,
            "--pager-serve" => {
                opts.harness.pager_serve = args.next().ok_or("--pager-serve needs a path")?.into();
            }
            "--data-root" => {
                opts.harness.data_root = args.next().ok_or("--data-root needs a directory")?.into();
            }
            "--shards" => {
                opts.harness.topology.shards = parse_positive(args.next(), "--shards")?;
            }
            "--replicas" => {
                opts.harness.topology.replicas = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .ok_or("--replicas needs a non-negative integer")?;
            }
            "--threads" => opts.threads = parse_positive(args.next(), "--threads")?,
            "--requests" => opts.requests = parse_positive(args.next(), "--requests")?,
            "--topology-json" => {
                let path = args.next().ok_or("--topology-json needs a file")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                opts.harness.topology = Topology::parse(&text)?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((mode, opts))
}

fn parse_positive(value: Option<String>, flag: &str) -> Result<usize, String> {
    value
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{flag} needs a positive integer"))
}

fn main() -> ExitCode {
    let (mode, opts) = match parse_args(std::env::args()) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("pager-cluster: {message}");
            return usage();
        }
    };
    let result = match mode.as_str() {
        "launch" => launch(&opts),
        _ => bench(&opts),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("pager-cluster: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Serves the router over TCP until a client sends `shutdown`.
#[cfg(target_os = "linux")]
fn launch(opts: &Options) -> Result<(), String> {
    let cluster = Cluster::launch(&opts.harness)?;
    let t = &opts.harness.topology;
    let handle = cluster
        .serve(&opts.addr)
        .map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    eprintln!(
        "pager-cluster: {} shards x {} replicas ({} nodes), listening on {}",
        t.shards,
        t.replicas,
        t.nodes(),
        handle.local_addr(),
    );
    handle.join();
    let pending = handle.drain(DRAIN_BUDGET);
    drop(handle);
    eprintln!("pager-cluster: shutting down ({pending} requests still in flight)");
    cluster.shutdown();
    Ok(())
}

/// The transport engine needs epoll.
#[cfg(not(target_os = "linux"))]
fn launch(_opts: &Options) -> Result<(), String> {
    Err("launch serves on the epoll transport engine, which needs Linux".into())
}

/// 1-node baseline vs the N-shard topology, one JSON line out.
fn bench(opts: &Options) -> Result<(), String> {
    let single = run_bench(opts, 1)?;
    let sharded = run_bench(opts, opts.harness.topology.shards)?;
    let report = Value::object(vec![
        ("bench", Value::from("cluster_v1")),
        ("threads", Value::from(opts.threads)),
        ("requests_per_thread", Value::from(opts.requests)),
        ("replicas", Value::from(opts.harness.topology.replicas)),
        ("single_node", single.to_json()),
        (
            "sharded",
            Value::object(vec![
                ("shards", Value::from(opts.harness.topology.shards)),
                ("report", sharded.to_json()),
            ]),
        ),
    ]);
    println!("{report}");
    Ok(())
}

fn run_bench(opts: &Options, shards: usize) -> Result<pager_cluster::TrafficReport, String> {
    let mut config = opts.harness.clone();
    config.topology.shards = shards;
    config.data_root = opts.harness.data_root.join(format!("bench-{shards}"));
    let cluster = Cluster::launch(&config)?;
    // Warm the pools and caches before measuring.
    let _ = cluster.drive_traffic(opts.threads, 16);
    let report = cluster.drive_traffic(opts.threads, opts.requests);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&config.data_root);
    Ok(report)
}
