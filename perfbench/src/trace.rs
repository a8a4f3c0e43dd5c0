//! The traced run: the workload's seeded inputs replayed through each
//! layer's public functions, with a span around every call, then a
//! short live pass for the servers' own counters.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written out as JSON lines when the run ends. The in-process replay
//! runs twice untraced and twice traced, alternating, and the
//! difference is reported as the tracing overhead. End-to-end metrics
//! never come from here.

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jsonio::Value;
use pager_cluster::{Cluster, Conn, HarnessConfig, RouterConfig, ShardMap, Topology};
use pager_core::cancel::CancelToken;
use pager_core::Delay;
use pager_profiles::io::DiskIo;
use pager_profiles::wal::{self, SightingRecord};
use pager_profiles::{
    DurabilityConfig, DurableStore, Estimator, FsyncPolicy, ProfileStore, Sighting, StoreConfig,
};
use pager_service::planner::{self, TierPolicy, Variant};
use pager_service::{
    handle_frame, handle_line, DurabilityOptions, PagerService, PlanSpec, ServiceConfig,
};
use pager_wire::frame::{self, op};
use pager_wire::{binary, count_alloc, json, PlanFrameView};
use rand::RngCore;

use crate::check;
use crate::client::{self, DEADLINE_MS};
use crate::gen::{self, Op, OpStream, PlanInput, Population, Tier, CLUSTER_CELLS, GRID};
use crate::live::{Env, Live};
use crate::stats::{median, quantile};
use crate::{metric, Metric, Workload};

/// Cold-plan requests replayed (¼ exact tier).
const COLD_REPLAY: usize = 192;
/// Cache capacity of the cold replay's service: a third of the fresh
/// instances it plans, so the replay runs, as a long cold stream does,
/// with a full cache that evicts on insert.
const COLD_CACHE: usize = 64;
/// Exact-tier cold answers re-solved by the benchmark's own subset DP.
const EXACT_CHECKS: usize = 16;
/// Cluster-mixed operations replayed in process.
const CLUSTER_REPLAY: usize = 800;
/// Operations replayed against the launched cluster, per path.
const ROUTER_REPLAY: usize = 400;
/// Single-sighting observes per fsync policy.
const DURABLE_REPLAY: usize = 100;
/// Passes over the hot frames per replay.
const HOT_PASSES: usize = 3;
const CRC_BUFFER: usize = 64 * 1024;
const CRC_REPS: usize = 64;
/// The traced run's short live pass.
const LIVE_WINDOW: Duration = Duration::from_secs(4);
const LIVE_SEGMENTS: usize = 2;

/// What the traced run reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index + 1 of the enclosing span, 0 for a root.
    parent: usize,
    request: u64,
}

/// Span recorder. With `on == false` every call runs bare: no clock
/// reads, no records.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that encloses later ones; returns its id.
    fn open(&mut self, name: &'static str, parent: usize, request: u64) -> usize {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len()
    }

    fn close(&mut self, id: usize) {
        if id > 0 {
            let end = self.now_ns();
            self.spans[id - 1].end_ns = end;
        }
    }

    /// Runs `f` inside a leaf span; returns its result and duration in
    /// ns (0 when tracing is off).
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        if !self.on {
            return (f(), 0.0);
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        (out, (end_ns - start_ns) as f64)
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                r#"{{"id": {}, "name": "{}", "start_ns": {}, "end_ns": {}, "parent": {}, "request": {}}}"#,
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.request
            )
            .map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| e.to_string())
    }
}

/// Seeded inputs shared by every replay pass.
struct Inputs {
    hot: Vec<PlanInput>,
    hot_frames: Vec<Vec<u8>>,
    cold: Vec<PlanInput>,
    pop: Population,
    /// Set-up lines (one sighting per device) and the replayed ops as
    /// lines, with the clock each op ran at.
    preload_lines: Vec<String>,
    ops: Vec<(Op, String, u64)>,
    crc_buffer: Vec<u8>,
}

fn replay_ops(
    pop: &Population,
    seed: u64,
    count: usize,
    preload_time: u64,
) -> Vec<(Op, String, u64)> {
    OpStream::new(pop, seed, 0)
        .take(count)
        .enumerate()
        .map(|(k, op)| {
            let time = preload_time + 1 + k as u64;
            let id = k as u64 + 1;
            let line = match &op {
                Op::Observe { device, cell } => {
                    gen::observe_line(id, &[(pop.devices[*device].name.as_str(), *cell)], time)
                }
                Op::Plan { group, delay } => {
                    let names: Vec<&str> = pop.groups[*group]
                        .devices
                        .iter()
                        .map(|&d| pop.devices[d].name.as_str())
                        .collect();
                    gen::plan_devices_line(id, &names, *delay, time)
                }
            };
            (op, line, time)
        })
        .collect()
}

/// One observe line per 128 of connection 0's devices, at time 1.
fn preload_lines(pop: &Population) -> Vec<String> {
    pop.devices_of(0)
        .chunks(128)
        .enumerate()
        .map(|(i, chunk)| {
            let batch: Vec<(&str, usize)> = chunk
                .iter()
                .map(|&d| (pop.devices[d].name.as_str(), pop.devices[d].home))
                .collect();
            gen::observe_line(1_000_000 + i as u64, &batch, 1)
        })
        .collect()
}

impl Inputs {
    fn new(seed: u64) -> Result<Inputs, String> {
        let hot = gen::hot_set(seed);
        let mut hot_frames = Vec::with_capacity(hot.len());
        for (j, input) in hot.iter().enumerate() {
            let mut frame = Vec::new();
            client::encode_plan(&mut frame, j as i64, input)?;
            hot_frames.push(frame);
        }
        let cold = gen::ColdStream::new(seed, gen::stream::COLD)
            .take(COLD_REPLAY)
            .collect();
        let pop = gen::population(seed, "");
        let preload_lines = preload_lines(&pop);
        let ops = replay_ops(&pop, seed, CLUSTER_REPLAY, 1);
        let mut crc_buffer = vec![0u8; CRC_BUFFER];
        gen::rng(seed, gen::stream::TRACE).fill_bytes(&mut crc_buffer);
        Ok(Inputs {
            hot,
            hot_frames,
            cold,
            pop,
            preload_lines,
            ops,
            crc_buffer,
        })
    }
}

/// Per-call samples of one replay pass (empty when untraced).
#[derive(Default)]
struct Samples {
    parse_ns: Vec<f64>,
    hit_ns: Vec<f64>,
    encode_ns: Vec<f64>,
    allocs_per_hit: f64,
    plan_miss_us: Vec<f64>,
    dispatch_us: Vec<f64>,
    /// Evictions of the cold replay's cache (`PagerService::cache_evictions`).
    cache_evictions: f64,
    solve_us: [Vec<f64>; 2],
    /// (cells, ns per cost-model op) per tier.
    ns_per_op: [Vec<(usize, f64)>; 2],
    json_ns: f64,
    crc_ns_per_kib: f64,
    wal_encode_ns: f64,
    owner_ns: f64,
    line_ns: Vec<f64>,
    cluster_solve_ns: f64,
    instance_for_us: Vec<f64>,
    fsync_us: Vec<f64>,
    nofsync_us: Vec<f64>,
    /// The node's line handler over a durable store, per line.
    durable_line_us: Vec<f64>,
    requests: u64,
    failures: Vec<String>,
}

impl Samples {
    fn fail(&mut self, note: String) {
        self.failures.push(note);
    }
}

fn tier_index(tier: Tier) -> usize {
    match tier {
        Tier::Exact => 0,
        Tier::Greedy => 1,
    }
}

/// The Theorem 4.8 cost model of one solve: c(m + dc) for the Fig. 1
/// greedy, d·3^c for the exact subset DP.
fn cost_ops(input: &PlanInput) -> f64 {
    let c = input.instance.num_cells() as f64;
    let m = input.instance.num_devices() as f64;
    let d = input.delay.min(input.instance.num_cells()) as f64;
    match input.tier {
        Tier::Greedy => c * (m + d * c),
        Tier::Exact => d * 3f64.powf(c),
    }
}

fn spec(delay: usize) -> Result<PlanSpec, String> {
    Ok(PlanSpec::new(Delay::new(delay).map_err(|e| e.to_string())?).with_deadline_ms(DEADLINE_MS))
}

/// Hot-plan layers: frame parse + fingerprint, the warm service's
/// frame handler (allocations counted), and the response encoder.
fn replay_hot(
    t: &mut Tracer,
    inputs: &Inputs,
    svc: &PagerService,
    s: &mut Samples,
) -> Result<(), String> {
    let n = inputs.hot_frames.len() as f64;
    let payloads: Vec<&[u8]> = inputs
        .hot_frames
        .iter()
        .map(|f| &f[frame::HEADER_LEN..])
        .collect();
    let views: Vec<PlanFrameView<'_>> = payloads
        .iter()
        .map(|p| PlanFrameView::parse(p))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let plans: Vec<_> = views.iter().map(|v| svc.plan_cache_probe(v)).collect();
    if plans.iter().any(Option::is_none) {
        s.fail("hot replay: a warmed instance missed the cache".into());
        return Ok(());
    }
    let mut out = Vec::with_capacity(1 << 12);
    // Each warm instance's answer, byte for byte, for the repeated hits
    // to be compared against.
    let reference: Vec<Vec<u8>> = payloads
        .iter()
        .map(|p| {
            out.clear();
            let _ = handle_frame(svc, op::PLAN, p, &mut out);
            out.clone()
        })
        .collect();
    for pass in 0..HOT_PASSES as u64 {
        let root = t.open("hot.pass", 0, pass);
        let (_, ns) = t.span("wire.plan_frame_parse", root, pass, || {
            for p in &payloads {
                if let Ok(view) = PlanFrameView::parse(p) {
                    black_box(view.request_fingerprint(GRID));
                }
            }
        });
        s.parse_ns.push(ns / n);
        let (allocs, ns) = t.span("service.frame_hit", root, pass, || {
            count_alloc::reset();
            for p in &payloads {
                out.clear();
                black_box(handle_frame(svc, op::PLAN, p, &mut out));
            }
            count_alloc::allocations()
        });
        s.hit_ns.push(ns / n);
        s.allocs_per_hit = allocs as f64 / n;
        let (_, ns) = t.span("wire.plan_response_encode", root, pass, || {
            for (view, plan) in views.iter().zip(&plans) {
                if let Some(r) = plan {
                    out.clear();
                    binary::encode_plan_response(
                        &mut out,
                        view.id(),
                        None,
                        r.plan.tier.name(),
                        r.plan.expected_paging,
                        r.plan.planning_micros,
                        r.plan.downgraded,
                        r.cached,
                        r.coalesced,
                        r.plan.strategy.groups(),
                    );
                    black_box(&out);
                }
            }
        });
        s.encode_ns.push(ns / n);
        t.close(root);
        s.requests += inputs.hot_frames.len() as u64;
    }
    for (j, (p, first)) in payloads.iter().zip(&reference).enumerate() {
        out.clear();
        let _ = handle_frame(svc, op::PLAN, p, &mut out);
        if out != *first {
            s.fail(format!("hot replay: answer {j} differs from its first hit"));
        }
    }
    Ok(())
}

/// Cold-plan layers: `PagerService::plan` on a fresh service with a
/// small cache (every request misses, most inserts evict) and
/// `planner::plan` on the same instance.
fn replay_cold(t: &mut Tracer, inputs: &Inputs, s: &mut Samples) -> Result<(), String> {
    let svc = PagerService::new(ServiceConfig {
        capacity: COLD_CACHE,
        ..ServiceConfig::default()
    });
    let policy = TierPolicy::default();
    let mut exact_checked = 0;
    for (i, input) in inputs.cold.iter().enumerate() {
        let req = i as u64;
        let spec = spec(input.delay)?;
        let root = t.open("cold.request", 0, req);
        let service = |t: &mut Tracer| {
            t.span("service.plan", root, req, || {
                svc.plan(&input.instance, spec)
            })
        };
        let solve = |t: &mut Tracer| {
            t.span("core.solve", root, req, || {
                planner::plan(
                    &input.instance,
                    spec.delay(),
                    Variant::Auto,
                    &policy,
                    &CancelToken::never(),
                )
            })
        };
        // Alternate the order so neither call always runs on warm caches.
        let ((served, service_ns), (solved, solve_ns)) = if i % 2 == 0 {
            let a = service(t);
            (a, solve(t))
        } else {
            let b = solve(t);
            (service(t), b)
        };
        t.close(root);
        s.requests += 1;
        match (served, solved) {
            (Ok(r), Ok(p))
                if !r.cached
                    && r.plan.tier.name() == input.tier.name()
                    && p.tier.name() == input.tier.name() =>
            {
                if r.plan.expected_paging.to_bits() != p.expected_paging.to_bits() {
                    s.fail(format!(
                        "cold replay {i}: service and planner disagree on EP"
                    ));
                }
                let ep = r.plan.expected_paging;
                let valid = check::plan_ok(
                    &input.instance,
                    input.delay,
                    r.plan.strategy.groups(),
                    ep,
                    check::EP_TOLERANCE,
                );
                let optimal = input.tier != Tier::Exact || exact_checked >= EXACT_CHECKS || {
                    exact_checked += 1;
                    check::exact_is_optimal(&input.instance, input.delay, ep)
                };
                if !(valid && optimal) {
                    s.fail(format!("cold replay {i}: plan failed its checks"));
                }
            }
            _ => {
                s.fail(format!("cold replay {i}: request failed or hit the cache"));
                continue;
            }
        }
        if t.on {
            s.plan_miss_us.push(service_ns / 1000.0);
            s.dispatch_us.push((service_ns - solve_ns) / 1000.0);
            let k = tier_index(input.tier);
            s.solve_us[k].push(solve_ns / 1000.0);
            s.ns_per_op[k].push((input.instance.num_cells(), solve_ns / cost_ops(input)));
        }
    }
    s.cache_evictions = svc.cache_evictions() as f64;
    svc.shutdown();
    Ok(())
}

fn ok_line(line: &str) -> bool {
    jsonio::parse(line)
        .ok()
        .and_then(|v| v.get("ok").and_then(Value::as_bool))
        == Some(true)
}

/// cluster-mixed layers that run in process: JSON parse, CRC-32, WAL
/// encode, ring lookups, the node's line handler, and the profile
/// lookups and solves behind its plans.
fn replay_cluster(t: &mut Tracer, inputs: &Inputs, s: &mut Samples) -> Result<(), String> {
    let pop = &inputs.pop;
    let lines: Vec<&str> = inputs.ops.iter().map(|(_, l, _)| l.as_str()).collect();
    let n = lines.len() as f64;
    let (_, ns) = t.span("wire.json_parse", 0, 0, || {
        for line in &lines {
            let _ = black_box(json::parse_routed(line));
        }
    });
    s.json_ns = ns / n;
    let (_, ns) = t.span("wire.crc32", 0, 0, || {
        for _ in 0..CRC_REPS {
            black_box(frame::crc32(black_box(&inputs.crc_buffer)));
        }
    });
    s.crc_ns_per_kib = ns / (CRC_REPS * CRC_BUFFER / 1024) as f64;
    let records: Vec<SightingRecord> = inputs
        .ops
        .iter()
        .filter_map(|(op, _, time)| match op {
            Op::Observe { device, cell } => Some(SightingRecord {
                device: pop.devices[*device].name.clone(),
                cells: CLUSTER_CELLS,
                time: *time as f64,
                cell: *cell,
            }),
            Op::Plan { .. } => None,
        })
        .collect();
    let (_, ns) = t.span("profiles.wal_encode", 0, 0, || {
        for r in &records {
            let _ = black_box(wal::encode_record(r));
        }
    });
    s.wal_encode_ns = ns / records.len().max(1) as f64;
    let ring = ShardMap::new(&gen::shard_names(), gen::VNODES, 0);
    let (_, ns) = t.span("ring.owner", 0, 0, || {
        for d in &pop.devices {
            black_box(ring.owner(&d.name));
        }
    });
    s.owner_ns = ns / pop.devices.len() as f64;

    // The node's line handler and, beside it, a mirror store resolving
    // the same plans to instances and solving them.
    let svc = PagerService::new(ServiceConfig::default());
    let mirror = ProfileStore::new(StoreConfig::default())?;
    for line in &inputs.preload_lines {
        if !ok_line(&handle_line(&svc, line).response) {
            s.fail("cluster replay: preload refused".into());
        }
    }
    for d in pop.devices_of(0) {
        let device = &pop.devices[d];
        mirror.observe_batch(
            CLUSTER_CELLS,
            &[Sighting {
                device: device.name.clone(),
                cell: device.home,
                time: 1.0,
            }],
        )?;
    }
    let policy = TierPolicy::default();
    for (k, (op, line, time)) in inputs.ops.iter().enumerate() {
        let req = k as u64;
        let root = t.open("cluster.request", 0, req);
        let (outcome, ns) = t.span("service.line", root, req, || handle_line(&svc, line));
        s.requests += 1;
        if !ok_line(&outcome.response) {
            s.fail(format!(
                "cluster replay op {k} refused: {}",
                outcome.response
            ));
        }
        s.line_ns.push(ns);
        match op {
            Op::Observe { device, cell } => {
                mirror.observe_batch(
                    CLUSTER_CELLS,
                    &[Sighting {
                        device: pop.devices[*device].name.clone(),
                        cell: *cell,
                        time: *time as f64,
                    }],
                )?;
            }
            Op::Plan { group, delay } => {
                let names: Vec<&str> = pop.groups[*group]
                    .devices
                    .iter()
                    .map(|&d| pop.devices[d].name.as_str())
                    .collect();
                let (resolved, ns) = t.span("profiles.instance_for", root, req, || {
                    mirror.instance_for(&names, Estimator::Markov, Some(*time as f64))
                });
                s.instance_for_us.push(ns / 1000.0);
                let instance = resolved?.0;
                let delay = Delay::new(*delay).map_err(|e| e.to_string())?;
                let (_, ns) = t.span("core.solve", root, req, || {
                    planner::plan(
                        &instance,
                        delay,
                        Variant::Auto,
                        &policy,
                        &CancelToken::never(),
                    )
                });
                s.cluster_solve_ns += ns;
            }
        }
        t.close(root);
    }
    svc.shutdown();
    Ok(())
}

/// Durable single-sighting observes under each fsync policy, and the
/// node-mixed server's request path in process: the line handler on a
/// service whose store fsyncs every ack, as `pager-serve --data-dir …
/// --fsync always --checkpoint-every 0` runs it.
fn replay_durable(
    t: &mut Tracer,
    inputs: &Inputs,
    scratch: &Path,
    s: &mut Samples,
) -> Result<(), String> {
    let pop = &inputs.pop;
    for (policy, name, samples) in [
        (
            FsyncPolicy::Always,
            "profiles.observe_fsync",
            &mut s.fsync_us,
        ),
        (
            FsyncPolicy::Never,
            "profiles.observe_nofsync",
            &mut s.nofsync_us,
        ),
    ] {
        let dir = scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let config = DurabilityConfig {
            fsync: policy,
            checkpoint_every: 0,
            retain_wal: 0,
        };
        let (store, _) =
            DurableStore::open(Arc::new(DiskIo), &dir, StoreConfig::default(), config)?;
        let observes = inputs.ops.iter().filter_map(|(op, _, time)| match op {
            Op::Observe { device, cell } => Some(Sighting {
                device: pop.devices[*device].name.clone(),
                cell: *cell,
                time: *time as f64,
            }),
            Op::Plan { .. } => None,
        });
        for (k, sighting) in observes.take(DURABLE_REPLAY).enumerate() {
            let (acked, ns) = t.span(name, 0, k as u64, || {
                store.observe_batch(CLUSTER_CELLS, &[sighting])
            });
            if acked.is_err() {
                s.failures.push(format!("{name}: observe {k} failed"));
            }
            samples.push(ns / 1000.0);
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let dir = scratch.join("service.line_durable");
    let _ = std::fs::remove_dir_all(&dir);
    let svc = PagerService::try_new(ServiceConfig {
        durability: Some(DurabilityOptions {
            checkpoint_every: 0,
            ..DurabilityOptions::new(&dir)
        }),
        ..ServiceConfig::default()
    })
    .map_err(|e| e.to_string())?;
    for line in &inputs.preload_lines {
        if !ok_line(&handle_line(&svc, line).response) {
            s.fail("durable line replay: preload refused".into());
        }
    }
    for (k, (_, line, _)) in inputs.ops.iter().enumerate() {
        let (outcome, ns) = t.span("service.line_durable", 0, k as u64, || {
            handle_line(&svc, line)
        });
        if !ok_line(&outcome.response) {
            s.fail(format!("durable line replay op {k} refused"));
        }
        s.durable_line_us.push(ns / 1000.0);
    }
    svc.shutdown();
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// The launched-cluster layers: the in-process router over real nodes,
/// and the same kind of lines sent straight to each owner.
#[derive(Default)]
struct ClusterSamples {
    router_us: [Vec<f64>; 2],
    node_us: [Vec<f64>; 2],
    router_counters: Option<Value>,
    requests: u64,
    failures: Vec<String>,
}

fn op_kind(op: &Op) -> usize {
    match op {
        Op::Observe { .. } => 0,
        Op::Plan { .. } => 1,
    }
}

fn replay_launched_cluster(
    t: &mut Tracer,
    env: &Env,
    seed: u64,
    scratch: &Path,
) -> Result<ClusterSamples, String> {
    let data_root = scratch.join("trace-cluster");
    let _ = std::fs::remove_dir_all(&data_root);
    let config = HarnessConfig {
        pager_serve: env.bin("pager-serve"),
        data_root: data_root.clone(),
        topology: Topology {
            shards: gen::SHARDS,
            replicas: 1,
            ..Topology::default()
        },
        router: RouterConfig::default(),
    };
    let cluster = Cluster::launch(&config)?;
    let mut out = ClusterSamples::default();
    let ring = ShardMap::new(&gen::shard_names(), gen::VNODES, 0);
    let result = (|| -> Result<(), String> {
        // Router path and direct-to-owner path use disjoint devices.
        for (path, prefix) in [("router", "r-"), ("node", "n-")] {
            let pop = gen::population(seed, prefix);
            for line in preload_lines(&pop) {
                if !ok_line(&cluster.router.handle_line(&line).response) {
                    out.failures.push(format!("{path} preload refused"));
                }
            }
            let mut owners: Vec<Conn> = Vec::with_capacity(gen::SHARDS);
            for shard in 0..gen::SHARDS {
                // Nodes are shard-major; replica 0 owns the shard.
                owners.push(Conn::connect(
                    &cluster.nodes[shard * 2].addr,
                    Duration::from_secs(5),
                )?);
            }
            for (k, (op, line, _)) in replay_ops(&pop, seed, ROUTER_REPLAY, 1)
                .into_iter()
                .enumerate()
            {
                let kind = op_kind(&op);
                let req = k as u64;
                let ok = if path == "router" {
                    let name = ["router.observe", "router.plan_devices"][kind];
                    let (outcome, ns) = t.span(name, 0, req, || cluster.router.handle_line(&line));
                    out.router_us[kind].push(ns / 1000.0);
                    ok_line(&outcome.response)
                } else {
                    let key = match &op {
                        Op::Observe { device, .. } => &pop.devices[*device].name,
                        Op::Plan { group, .. } => &pop.devices[pop.groups[*group].devices[0]].name,
                    };
                    let shard = ring.owner_index(key).ok_or("empty ring")?;
                    let name = ["node.observe", "node.plan_devices"][kind];
                    let (reply, ns) = t.span(name, 0, req, || owners[shard].round_trip(&line));
                    out.node_us[kind].push(ns / 1000.0);
                    reply.is_ok_and(|v| v.get("ok").and_then(Value::as_bool) == Some(true))
                };
                out.requests += 1;
                if !ok {
                    out.failures.push(format!("{path} replay op {k} refused"));
                }
            }
        }
        let stats = cluster.router.handle_line("{\"cmd\": \"stats\"}");
        out.router_counters = jsonio::parse(&stats.response)
            .ok()
            .and_then(|v| v.get("router").cloned());
        Ok(())
    })();
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&data_root);
    result.map(|()| out)
}

/// One in-process replay pass over every layer. Returns the samples
/// and the wall time of the CPU-only layers (the durable observes wait
/// on the disk, so they stay out of the tracing-overhead comparison).
fn replay(
    t: &mut Tracer,
    inputs: &Inputs,
    hot_svc: &PagerService,
    scratch: &Path,
) -> Result<(Samples, f64), String> {
    let mut s = Samples::default();
    let started = Instant::now();
    replay_hot(t, inputs, hot_svc, &mut s)?;
    replay_cold(t, inputs, &mut s)?;
    replay_cluster(t, inputs, &mut s)?;
    let cpu_s = started.elapsed().as_secs_f64();
    replay_durable(t, inputs, scratch, &mut s)?;
    Ok((s, cpu_s))
}

fn p50(v: &[f64]) -> f64 {
    median(&mut v.to_vec())
}

fn p99(v: &[f64]) -> f64 {
    quantile(&mut v.to_vec(), 0.99).unwrap_or(0.0)
}

/// Runs the traced measurement for `workload`.
pub fn run(
    workload: Workload,
    env: &Env,
    window: Duration,
    spans_out: &Path,
) -> Result<Report, String> {
    let scratch = env.work.join("trace");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    // The seeded inputs of the end-to-end run's first segment.
    let seed = gen::segment_seed(env.seed, 0);
    let inputs = Inputs::new(seed)?;
    let hot_svc = PagerService::new(ServiceConfig::default());
    for (j, input) in inputs.hot.iter().enumerate() {
        if hot_svc.plan(&input.instance, spec(input.delay)?).is_err() {
            return Err(format!("hot replay: warming instance {j} failed"));
        }
    }
    let epoch = Instant::now();
    let mut tracer = Tracer::new(true, epoch);
    // A warm-up pass, then untraced and traced passes alternating; the
    // fastest of each side gives the tracing overhead.
    replay(&mut Tracer::new(false, epoch), &inputs, &hot_svc, &scratch)?;
    let mut bare_s = f64::INFINITY;
    let mut traced_s = f64::INFINITY;
    let mut samples = Samples::default();
    for _ in 0..2 {
        bare_s = bare_s.min(replay(&mut Tracer::new(false, epoch), &inputs, &hot_svc, &scratch)?.1);
        tracer.spans.clear();
        let (pass, cpu_s) = replay(&mut tracer, &inputs, &hot_svc, &scratch)?;
        traced_s = traced_s.min(cpu_s);
        samples = pass;
    }
    hot_svc.shutdown();
    let launched = replay_launched_cluster(&mut tracer, env, seed, &scratch)?;
    tracer.write(spans_out)?;
    let _ = std::fs::remove_dir_all(&scratch);
    // Live pass last, so its disk writeback cannot slow the replay: the
    // servers' own counters, thread counts, client CPU, and the
    // client-side latency the transport metric subtracts from.
    let mut live: Live = workload.run(env, window.min(LIVE_WINDOW), LIVE_SEGMENTS)?;

    let mut m = Vec::new();
    let s = &samples;
    m.push(metric("wire.plan_frame_parse_ns", p50(&s.parse_ns), "ns"));
    m.push(metric(
        "wire.plan_response_encode_ns",
        p50(&s.encode_ns),
        "ns",
    ));
    m.push(metric("wire.allocs_per_hit", s.allocs_per_hit, "count"));
    m.push(metric("wire.json_parse_ns", s.json_ns, "ns"));
    m.push(metric("wire.crc32_ns_per_kib", s.crc_ns_per_kib, "ns/KiB"));
    m.push(metric("service.frame_hit_ns", p50(&s.hit_ns), "ns"));
    let line_total: f64 = s.line_ns.iter().sum();
    m.push(metric("service.line_ns", p50(&s.line_ns), "ns"));
    m.push(metric("service.plan_miss_us", p50(&s.plan_miss_us), "us"));
    m.push(metric("service.dispatch_us", p50(&s.dispatch_us), "us"));
    let c = &live.counters;
    m.push(metric(
        "service.cache_hit_ratio",
        c.cache_hits / c.cache_probes.max(1.0),
        "ratio",
    ));
    m.push(metric(
        "service.cache_evictions",
        s.cache_evictions,
        "count",
    ));
    m.push(metric("service.shed", c.shed, "count"));
    m.push(metric("service.downgrades", c.downgrades, "count"));
    m.push(metric("service.coalesced", c.coalesced, "count"));
    for (k, tier) in [(0, "exact"), (1, "greedy")] {
        m.push(metric(
            &format!("core.{tier}.solve_p50_us"),
            p50(&s.solve_us[k]),
            "us",
        ));
        m.push(metric(
            &format!("core.{tier}.solve_p99_us"),
            p99(&s.solve_us[k]),
            "us",
        ));
        let all: Vec<f64> = s.ns_per_op[k].iter().map(|&(_, v)| v).collect();
        m.push(metric(
            &format!("core.{tier}.ns_per_op"),
            p50(&all),
            "ns/op",
        ));
        let buckets: &[usize] = if k == 0 {
            &gen::EXACT_CELLS
        } else {
            &gen::GREEDY_CELLS
        };
        for &cells in buckets {
            let bucket: Vec<f64> = s.ns_per_op[k]
                .iter()
                .filter(|&&(c, _)| c == cells)
                .map(|&(_, v)| v)
                .collect();
            m.push(metric(
                &format!("core.{tier}.ns_per_op.c{cells}"),
                p50(&bucket),
                "ns/op",
            ));
        }
    }
    m.push(metric(
        "core.solve_share",
        s.cluster_solve_ns / line_total.max(1.0),
        "ratio",
    ));
    // The same kind of request served in this process: the node's line
    // handler on a durable store, or the router over a launched cluster.
    let in_process_us = match workload {
        Workload::NodeMixed => p50(&s.durable_line_us),
        Workload::ClusterMixed => p50(&launched.router_us.concat()),
    };
    let mut client = live.latencies(false);
    client.extend(live.latencies(true));
    m.push(metric(
        "transport.overhead_us",
        client.quantile_us(0.5) - in_process_us,
        "us",
    ));
    m.push(metric(
        "transport.server_threads",
        live.server_threads as f64,
        "count",
    ));
    m.push(metric("profiles.observe_fsync_us", p50(&s.fsync_us), "us"));
    m.push(metric(
        "profiles.observe_nofsync_us",
        p50(&s.nofsync_us),
        "us",
    ));
    m.push(metric(
        "profiles.instance_for_us",
        p50(&s.instance_for_us),
        "us",
    ));
    m.push(metric("profiles.wal_encode_ns", s.wal_encode_ns, "ns"));
    let (router_obs, router_plan) = (p50(&launched.router_us[0]), p50(&launched.router_us[1]));
    let (node_obs, node_plan) = (p50(&launched.node_us[0]), p50(&launched.node_us[1]));
    m.push(metric("router.observe_us", router_obs, "us"));
    m.push(metric("router.plan_devices_us", router_plan, "us"));
    m.push(metric("node.observe_us", node_obs, "us"));
    m.push(metric("node.plan_devices_us", node_plan, "us"));
    m.push(metric("ship.observe_extra_us", router_obs - node_obs, "us"));
    m.push(metric("ring.owner_ns", s.owner_ns, "ns"));
    let traced = launched.router_counters.clone().unwrap_or(Value::Null);
    let counter = |key: &str| client::num(&traced, key);
    let retries = c.retries + counter("retries");
    let failovers = c.failovers + counter("failovers");
    m.push(metric("router.retries", retries, "count"));
    m.push(metric("router.failovers", failovers, "count"));
    m.push(metric(
        "router.breaker_rejections",
        c.breaker_rejections + counter("breaker_rejections"),
        "count",
    ));
    m.push(metric(
        "router.shipped_records",
        c.shipped_records + counter("shipped_records"),
        "count",
    ));
    m.push(metric(
        "loadgen.cpu_share",
        live.client_cpu_s / live.window_s.max(1e-9),
        "ratio",
    ));
    m.push(metric(
        "trace.overhead_pct",
        (traced_s - bare_s) / bare_s.max(1e-9) * 100.0,
        "%",
    ));
    m.push(metric("trace.spans", tracer.spans.len() as f64, "count"));
    let flagged = c.overloaded() || retries + failovers > 0.0;
    m.push(metric(
        "run.overload_flag",
        f64::from(u8::from(flagged)),
        "count",
    ));

    let mut notes = std::mem::take(&mut live.notes);
    notes.extend(samples.failures.iter().cloned());
    notes.extend(launched.failures.iter().cloned());
    if flagged {
        notes.push(format!(
            "{} flagged: shed/downgrade/retry/failover counters are non-zero",
            workload.name()
        ));
    }
    let replay_failed = (samples.failures.len() + launched.failures.len()) as u64;
    Ok(Report {
        correct: live.failed == 0 && live.setup_failures == 0 && replay_failed == 0,
        attempted: live.attempted + samples.requests + launched.requests,
        failed: live.failed + replay_failed,
        metrics: m,
        notes,
    })
}
