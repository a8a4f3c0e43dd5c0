//! `perfbench` — the paging service's benchmark, end to end and layer
//! by layer.
//!
//! ```text
//! perfbench --workload node-mixed|cluster-mixed --seed N --seconds S
//!           --trace 0|1 --bin-dir DIR --work-dir DIR [--spans-out FILE]
//! ```
//!
//! With `--trace 0` it runs the workload against real `pager-serve` /
//! `pager-cluster launch` processes over loopback TCP for `S` seconds
//! and prints the end-to-end metrics. With `--trace 1` it replays the
//! same seeded inputs through each layer's public functions with spans
//! around every call, then runs a short live pass for the servers' own
//! counters, and prints the per-layer metrics. The last line of stdout
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`; the
//! exit code is non-zero when `correct` is false. See
//! `perfbench/README.md`.

mod check;
mod client;
mod cluster;
mod gen;
mod live;
mod probe;
mod procs;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use jsonio::Value;

use live::{Env, Live};

#[global_allocator]
static ALLOC: pager_wire::count_alloc::CountingAlloc = pager_wire::count_alloc::CountingAlloc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NodeMixed,
    ClusterMixed,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "node-mixed" => Ok(Workload::NodeMixed),
            "cluster-mixed" => Ok(Workload::ClusterMixed),
            other => Err(format!(
                "unknown workload {other:?} (node-mixed | cluster-mixed)"
            )),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::NodeMixed => "node-mixed",
            Workload::ClusterMixed => "cluster-mixed",
        }
    }

    /// Runs the workload live for `window`, cut into `segments`.
    pub fn run(self, env: &Env, window: Duration, segments: usize) -> Result<Live, String> {
        let target = match self {
            Workload::NodeMixed => cluster::Target::Node,
            Workload::ClusterMixed => cluster::Target::Cluster,
        };
        live::run_segments(env.seed, window, segments, |seed, length| {
            cluster::mixed(env, seed, length, target)
        })
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    work_dir: PathBuf,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut bin_dir = None;
    let mut work_dir = None;
    let mut spans_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                );
            }
            "--trace" => trace = value == "1",
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        spans_out,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Segments in which the hypervisor stole more than this share of the
/// machine's CPU measured the host, not the code.
const MAX_STEAL_SHARE: f64 = 0.05;

/// The segments the end-to-end metrics are taken over: those the
/// hypervisor left alone, unless fewer than a third of them were.
fn clean_segments(live: &Live) -> Vec<&live::Segment> {
    let clean: Vec<&live::Segment> = live
        .segments
        .iter()
        .filter(|s| s.steal_share <= MAX_STEAL_SHARE)
        .collect();
    if clean.len() * 3 >= live.segments.len() {
        clean
    } else {
        live.segments.iter().collect()
    }
}

/// The end-to-end metrics of one live run. Rates, latencies, CPU per
/// request, set-up time and memory are medians over its segments. With
/// `scaled`, each segment's times and rate are first scaled to the
/// reference host by the host-speed probe around it (see `probe`).
fn end_to_end(live: &Live, scaled: bool) -> Vec<Metric> {
    let ok = live.ok() as f64;
    let mut columns: [Vec<f64>; 8] = Default::default();
    for seg in clean_segments(live) {
        // How much slower this host ran than the reference host.
        let slow = if scaled {
            seg.probe_ns / probe::REFERENCE_NS
        } else {
            1.0
        };
        let mut all = seg.plan.clone();
        all.extend(seg.observe.clone());
        let mut plan = seg.plan.clone();
        let row = [
            seg.ok as f64 / seg.secs.max(1e-9) * slow,
            all.quantile_us(0.50) / slow,
            all.quantile_us(0.90) / slow,
            plan.quantile_us(0.50) / slow,
            plan.quantile_us(0.90) / slow,
            seg.setup_s / slow,
            seg.server_cpu_s * 1e6 / (seg.ok.max(1) as f64) / slow,
            seg.rss_kib as f64 / 1024.0,
        ];
        for (column, value) in columns.iter_mut().zip(row) {
            column.push(value);
        }
    }
    let [rps, req50, req90, plan50, plan90, setup, cpu, rss] = &mut columns;
    vec![
        metric("rps", stats::median(rps), "req/s"),
        metric("req_p50_us", stats::median(req50), "us"),
        metric("req_p90_us", stats::median(req90), "us"),
        metric("plan_p50_us", stats::median(plan50), "us"),
        metric("plan_p90_us", stats::median(plan90), "us"),
        metric("ok_ratio", ok / (live.attempted.max(1) as f64), "ratio"),
        metric("setup_s", stats::median(setup), "s"),
        metric("server_cpu_us_per_req", stats::median(cpu), "us"),
        metric("rss_mib", stats::median(rss), "MiB"),
        metric("mean_ep", live.ep_sum / (live.ep_n.max(1) as f64), "cells"),
    ]
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let fields: Vec<(&str, Value)> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            (
                m.name.as_str(),
                Value::object(vec![
                    ("value", Value::Float(value)),
                    ("unit", Value::from(m.unit)),
                ]),
            )
        })
        .collect();
    let result = Value::object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::from(attempted.max(1))),
        ("failed", Value::from(failed)),
        ("metrics", Value::object(fields)),
    ]);
    println!("{result}");
}

/// Runs the benchmark and prints its result; returns `correct`.
fn run(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    for bin in ["pager-serve", "pager-cluster"] {
        let path = args.bin_dir.join(bin);
        if !path.is_file() {
            return Err(format!("missing server binary {}", path.display()));
        }
    }
    let env = Env {
        bin_dir: args.bin_dir.clone(),
        work: args.work_dir.clone(),
        seed: args.seed,
    };
    let window = Duration::from_secs_f64(args.seconds);
    if args.trace {
        let spans = args
            .spans_out
            .clone()
            .unwrap_or_else(|| args.work_dir.join("spans.jsonl"));
        let report = trace::run(args.workload, &env, window, &spans)?;
        for note in &report.notes {
            eprintln!("perfbench: {note}");
        }
        print_result(
            report.correct,
            report.attempted,
            report.failed,
            &report.metrics,
        );
        return Ok(report.correct);
    }
    let live = args.workload.run(&env, window, live::SEGMENTS)?;
    for note in &live.notes {
        eprintln!("perfbench: {note}");
    }
    if live.counters.overloaded() {
        eprintln!(
            "perfbench: {} flagged: shed/downgrade/retry/failover counters are non-zero, so this run measured overload",
            args.workload.name()
        );
    }
    let per_segment: Vec<String> = live
        .segments
        .iter()
        .map(|s| {
            format!(
                "{:.0}@{:.1}%/{:.1}us",
                s.ok as f64 / s.secs.max(1e-9),
                s.steal_share * 100.0,
                s.probe_ns / 1000.0
            )
        })
        .collect();
    eprintln!(
        "perfbench: ok answers per second by segment (@ CPU stolen / probe round trip): {}",
        per_segment.join(" ")
    );
    let unscaled: Vec<String> = end_to_end(&live, false)
        .iter()
        .map(|m| format!("{}={:.4}", m.name, m.value))
        .collect();
    eprintln!("perfbench: unscaled: {}", unscaled.join(" "));
    let correct = live.failed == 0 && live.setup_failures == 0;
    print_result(
        correct,
        live.attempted,
        live.failed,
        &end_to_end(&live, true),
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: output checks failed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
