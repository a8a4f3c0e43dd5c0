//! `pager-serve` — the concurrent strategy-planning server.
//!
//! ```text
//! USAGE:
//!   pager-serve [--addr HOST:PORT] [--stdio] [--workers N] [--shards N]
//!               [--capacity N] [--grid G] [--queue-depth N]
//!               [--deadline-ms MS] [--drain-ms MS] [--metrics-json]
//!               [--transport reactor]
//!               [--data-dir DIR] [--fsync always|never|interval:N]
//!               [--checkpoint-every N] [--wal-retain N]
//!               [--node-id ID] [--epoch E]
//! ```
//!
//! Speaks the `pager_service::proto` JSON-lines protocol: one request
//! per line, one response line per request. By default it listens on
//! `127.0.0.1:7878`; with `--stdio` it serves a single session over
//! stdin/stdout instead (handy for tests and pipelines). In TCP mode
//! the process runs until a client sends `{"cmd": "shutdown"}`, then
//! *drains*: it waits up to `--drain-ms` (default 5000) for requests
//! already being handled to finish before exiting, so an orderly
//! shutdown drops nothing that was admitted.
//!
//! `--queue-depth` bounds the planning admission queue (excess load is
//! shed with `"code": "overloaded"`); `--deadline-ms` sets the default
//! per-request deadline budget for requests that do not carry their
//! own `"deadline_ms"` field (`0` disables the default). With
//! `--metrics-json` the final metrics registry is dumped to stdout as
//! one JSON object on exit.
//!
//! With `--data-dir` the profile store is crash-safe: startup replays
//! the newest snapshot plus its write-ahead log (reporting records
//! recovered and torn-tail bytes truncated), every acked `observe` is
//! WAL-appended first (fsynced per `--fsync`, default `always`), and a
//! snapshot is rotated every `--checkpoint-every` sightings (default
//! 10000). If the data disk fails mid-run the server degrades instead
//! of crashing: observes answer `"code": "degraded"` while planning
//! keeps serving from the in-memory profiles.
//!
//! TCP connections are served by the transport engine
//! (`pager_service::engine`): a few epoll event-loop shards multiplex
//! every connection, so an idle one costs a few hundred bytes instead
//! of a thread. The engine needs epoll, so off Linux only `--stdio` is
//! available. `--transport reactor` is accepted for compatibility and
//! changes nothing; the threaded transport it once chose against was
//! removed, and `--transport threads` is a usage error.
//!
//! Cluster flags: `--node-id` stamps a stable shard identity as
//! `"node"` on every response line, `--epoch` sets the starting
//! membership epoch (bumped at runtime by the monotone `epoch` wire
//! op), and `--wal-retain N` keeps the last `N` closed WAL
//! generations on disk through checkpoints so a follower tailing the
//! log via `wal_ship` can finish a generation after it rotates.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use conference_call::service::{serve_lines, DurabilityOptions, PagerService, ServiceConfig};
use pager_profiles::FsyncPolicy;

struct Options {
    addr: String,
    stdio: bool,
    metrics_json: bool,
    drain: Duration,
    config: ServiceConfig,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pager-serve [--addr HOST:PORT] [--stdio] [--workers N] [--shards N] [--capacity N] [--grid G] [--queue-depth N] [--deadline-ms MS] [--drain-ms MS] [--metrics-json] [--transport reactor] [--data-dir DIR] [--fsync always|never|interval:N] [--checkpoint-every N] [--wal-retain N] [--node-id ID] [--epoch E]"
    );
    ExitCode::from(2)
}

fn parse_args(mut args: std::env::Args) -> Result<Options, String> {
    let _ = args.next();
    let mut opts = Options {
        addr: "127.0.0.1:7878".into(),
        stdio: false,
        metrics_json: false,
        drain: Duration::from_millis(5000),
        config: ServiceConfig::default(),
    };
    let mut fsync = FsyncPolicy::Always;
    let mut checkpoint_every = 10_000u64;
    let mut retain_wal = 0u64;
    let mut data_dir: Option<std::path::PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => opts.addr = args.next().ok_or("--addr needs HOST:PORT")?,
            "--stdio" => opts.stdio = true,
            "--metrics-json" => opts.metrics_json = true,
            "--workers" => {
                opts.config.workers = parse_positive(args.next(), "--workers")?;
            }
            "--shards" => {
                opts.config.shards = parse_positive(args.next(), "--shards")?;
            }
            "--capacity" => {
                opts.config.capacity = parse_positive(args.next(), "--capacity")?;
            }
            "--grid" => {
                let grid: usize = parse_positive(args.next(), "--grid")?;
                opts.config.grid =
                    u32::try_from(grid).map_err(|_| "--grid is too large".to_string())?;
            }
            "--queue-depth" => {
                opts.config.queue_depth = parse_positive(args.next(), "--queue-depth")?;
            }
            "--deadline-ms" => {
                // 0 means "no default deadline": requests without a
                // deadline_ms field get an unbounded budget.
                let ms = args
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or("--deadline-ms needs a non-negative integer")?;
                opts.config.default_deadline_ms = (ms > 0).then_some(ms);
            }
            "--data-dir" => {
                data_dir = Some(args.next().ok_or("--data-dir needs a directory")?.into());
            }
            "--fsync" => {
                let policy = args.next().ok_or("--fsync needs a policy")?;
                fsync = FsyncPolicy::parse(&policy)?;
            }
            "--checkpoint-every" => {
                // 0 disables count-triggered checkpoints.
                checkpoint_every = args
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or("--checkpoint-every needs a non-negative integer")?;
            }
            "--wal-retain" => {
                retain_wal = args
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or("--wal-retain needs a non-negative integer")?;
            }
            "--node-id" => {
                opts.config.node_id = Some(args.next().ok_or("--node-id needs an identifier")?);
            }
            "--epoch" => {
                opts.config.epoch = args
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or("--epoch needs a non-negative integer")?;
            }
            "--transport" => match args.next().as_deref() {
                Some("reactor") => {}
                Some("threads") => {
                    return Err("the threaded transport was removed; every TCP connection \
                                is served by the epoll engine (--transport reactor)"
                        .into())
                }
                other => return Err(format!("--transport must be \"reactor\", got {other:?}")),
            },
            "--drain-ms" => {
                let ms = args
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or("--drain-ms needs a non-negative integer")?;
                opts.drain = Duration::from_millis(ms);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(data_dir) = data_dir {
        opts.config.durability = Some(DurabilityOptions {
            data_dir,
            fsync,
            checkpoint_every,
            retain_wal,
            io: None,
        });
    }
    Ok(opts)
}

fn parse_positive(value: Option<String>, flag: &str) -> Result<usize, String> {
    value
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{flag} needs a positive integer"))
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args()) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("pager-serve: {message}");
            return usage();
        }
    };
    let service = match PagerService::try_new(opts.config) {
        Ok(service) => Arc::new(service),
        Err(e) => {
            eprintln!("pager-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(report) = service.recovery() {
        eprintln!(
            "pager-serve: recovered generation {} ({} snapshot, {} WAL records replayed, {} torn bytes truncated)",
            report.generation,
            if report.snapshot_loaded { "with" } else { "no" },
            report.recovered_records,
            report.truncated_bytes,
        );
    }
    if opts.stdio {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        if let Err(e) = serve_lines(&service, stdin.lock(), stdout.lock()) {
            eprintln!("pager-serve: I/O error: {e}");
            return ExitCode::FAILURE;
        }
    } else if let Err(code) = serve_on_engine(&service, &opts.addr, opts.drain) {
        return code;
    }
    service.shutdown();
    if opts.metrics_json {
        println!("{}", service.metrics().to_json());
    }
    ExitCode::SUCCESS
}

/// Serves TCP on the engine until a `shutdown` command, then drains.
#[cfg(target_os = "linux")]
fn serve_on_engine(
    service: &Arc<PagerService>,
    addr: &str,
    drain: Duration,
) -> Result<(), ExitCode> {
    let handle =
        conference_call::service::serve_reactor_with(service.clone(), addr, Default::default())
            .map_err(|e| {
                eprintln!("pager-serve: cannot bind {addr}: {e}");
                ExitCode::FAILURE
            })?;
    eprintln!("pager-serve: listening on {}", handle.local_addr());
    handle.join();
    eprintln!("pager-serve: draining");
    let pending = handle.drain(drain);
    if pending == 0 {
        eprintln!("pager-serve: shutting down (drained cleanly)");
    } else {
        eprintln!("pager-serve: shutting down ({pending} requests still in flight)");
    }
    Ok(())
}

/// The transport engine needs epoll: off Linux only `--stdio` serves.
#[cfg(not(target_os = "linux"))]
fn serve_on_engine(
    _service: &Arc<PagerService>,
    _addr: &str,
    _drain: Duration,
) -> Result<(), ExitCode> {
    eprintln!("pager-serve: TCP serving needs epoll (Linux); use --stdio");
    Err(ExitCode::FAILURE)
}
