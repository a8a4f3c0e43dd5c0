//! `pager-cluster` — launch a sharded cluster.
//!
//! ```text
//! USAGE:
//!   pager-cluster launch [--addr HOST:PORT] [--pager-serve PATH]
//!                        [--data-root DIR] [--shards N] [--replicas N]
//!                        [--topology-json FILE]
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
//! `--pager-serve` defaults to a `pager-serve` binary next to this
//! one.

use std::path::PathBuf;
use std::process::ExitCode;

use pager_cluster::router::RouterConfig;
use pager_cluster::{Cluster, HarnessConfig, Topology};

/// How long `launch` waits for in-flight client requests after a
/// `shutdown` (`pager-serve`'s default `--drain-ms`).
#[cfg(target_os = "linux")]
const DRAIN_BUDGET: std::time::Duration = std::time::Duration::from_millis(5000);

fn usage() -> ExitCode {
    eprintln!(
        "usage: pager-cluster launch [--addr HOST:PORT] [--pager-serve PATH] [--data-root DIR] [--shards N] [--replicas N] [--topology-json FILE]"
    );
    ExitCode::from(2)
}

struct Options {
    addr: String,
    harness: HarnessConfig,
}

fn default_pager_serve() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("pager-serve")))
        .unwrap_or_else(|| PathBuf::from("pager-serve"))
}

fn parse_args(mut args: std::env::Args) -> Result<Options, String> {
    let _ = args.next();
    let mode = args.next().ok_or("missing subcommand (launch)")?;
    if mode != "launch" {
        return Err(format!("unknown subcommand {mode:?}"));
    }
    let mut opts = Options {
        addr: "127.0.0.1:7979".into(),
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
                opts.harness.topology.shards = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--shards needs a positive integer")?;
            }
            "--replicas" => {
                opts.harness.topology.replicas = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .ok_or("--replicas needs a non-negative integer")?;
            }
            "--topology-json" => {
                let path = args.next().ok_or("--topology-json needs a file")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                opts.harness.topology = Topology::parse(&text)?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args()) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("pager-cluster: {message}");
            return usage();
        }
    };
    match launch(&opts) {
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
