//! The mixed workloads: a 3:1 mix of `observe` and `plan_devices` v1
//! lines, driven either through `pager-cluster launch --shards 2
//! --replicas 1` (cluster-mixed: fsync always, synchronous WAL
//! shipping) or straight at one durable `pager-serve` (node-mixed:
//! fsync always, no router, no replica).

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use jsonio::Value;
use pager_profiles::{Estimator, ProfileStore, Sighting, StoreConfig};

use crate::check;
use crate::client::{self, LineConn};
use crate::gen::{self, Op, OpStream, Population, CLUSTER_CELLS, GRID};
use crate::live::{self, Env, Live, CONNS};
use crate::procs::Server;

/// Sighting rounds per device during set-up.
const PRELOAD_ROUNDS: u64 = 2;
/// Sightings per preload `observe` line.
const PRELOAD_BATCH: usize = 128;
/// Served plans per connection and segment that `mean_ep` averages.
const EP_PREFIX: usize = 100;

/// Arguments for `pager-cluster launch` under `data_root`.
pub fn launch_args(env: &Env, data_root: &Path) -> Vec<String> {
    [
        "launch",
        "--addr",
        "127.0.0.1:0",
        "--pager-serve",
        &env.bin("pager-serve").to_string_lossy(),
        "--data-root",
        &data_root.to_string_lossy(),
        "--shards",
        &gen::SHARDS.to_string(),
        "--replicas",
        "1",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect()
}

/// One client connection's view: what it was acked and a mirror of
/// the profiles it wrote, to recompute served plans' EP.
pub struct ClientState {
    pub conn: LineConn,
    pub mirror: ProfileStore,
    pub acked: HashMap<usize, u64>,
    /// The connection's logical clock: sighting times and plan `now`.
    pub clock: u64,
    pub next_id: u64,
}

impl ClientState {
    pub fn new(conn: LineConn) -> Result<ClientState, String> {
        Ok(ClientState {
            conn,
            mirror: ProfileStore::new(StoreConfig::default())?,
            acked: HashMap::new(),
            clock: 0,
            next_id: 0,
        })
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Sends one `observe` of `(device, cell)` sightings at the current
    /// clock; on an ok ack records the versions and mirrors the
    /// sightings. Returns the verdict.
    pub fn observe(
        &mut self,
        pop: &Population,
        batch: &[(usize, usize)],
    ) -> Result<Result<(), String>, String> {
        let id = self.id();
        let time = self.clock;
        let named: Vec<(&str, usize)> = batch
            .iter()
            .map(|&(d, c)| (pop.devices[d].name.as_str(), c))
            .collect();
        let reply = self.conn.call(&gen::observe_line(id, &named, time))?;
        if reply.get("ok").and_then(Value::as_bool) != Some(true) {
            return Ok(Err(format!("observe {id} refused: {reply}")));
        }
        let versions = reply.get("versions");
        for &(device, _) in batch {
            let name = pop.devices[device].name.as_str();
            let Some(version) = versions.and_then(|v| v.get(name)).and_then(Value::as_u64) else {
                return Ok(Err(format!("observe {id}: no version acked for {name}")));
            };
            let last = self.acked.entry(device).or_insert(0);
            if version <= *last {
                return Ok(Err(format!(
                    "observe {id}: version of {name} went {last} -> {version}"
                )));
            }
            *last = version;
        }
        let sightings: Vec<Sighting> = named
            .iter()
            .map(|&(device, cell)| Sighting {
                device: device.to_string(),
                cell,
                time: time as f64,
            })
            .collect();
        self.mirror.observe_batch(CLUSTER_CELLS, &sightings)?;
        Ok(Ok(()))
    }

    /// Sends one `plan_devices` for `group` and checks the answer.
    /// Returns the verdict (the served EP) and whether it was cached
    /// or downgraded.
    pub fn plan(
        &mut self,
        pop: &Population,
        group: usize,
        delay: usize,
    ) -> Result<PlanVerdict, String> {
        let id = self.id();
        let now = self.clock;
        let members = &pop.groups[group].devices;
        let names: Vec<&str> = members
            .iter()
            .map(|&d| pop.devices[d].name.as_str())
            .collect();
        let reply = self
            .conn
            .call(&gen::plan_devices_line(id, &names, delay, now))?;
        let flag = |key: &str| reply.get(key).and_then(Value::as_bool) == Some(true);
        let mut verdict = PlanVerdict {
            ep: Err(String::new()),
            cached: flag("cached"),
            downgraded: flag("downgraded"),
            coalesced: flag("coalesced"),
        };
        if !flag("ok") {
            verdict.ep = Err(format!("plan {id} refused: {reply}"));
            return Ok(verdict);
        }
        let versions: Vec<u64> = reply
            .get("profile_versions")
            .and_then(Value::as_array)
            .map(|vs| vs.iter().filter_map(Value::as_u64).collect())
            .unwrap_or_default();
        let fresh = versions.len() == members.len()
            && members
                .iter()
                .zip(&versions)
                .all(|(d, &v)| v >= self.acked.get(d).copied().unwrap_or(0));
        if !fresh {
            verdict.ep = Err(format!(
                "plan {id}: profile versions {versions:?} regress below acked"
            ));
            return Ok(verdict);
        }
        let groups: Vec<Vec<usize>> = reply
            .get("strategy")
            .and_then(Value::as_array)
            .map(|gs| {
                gs.iter()
                    .map(|g| {
                        g.as_array()
                            .unwrap_or(&[])
                            .iter()
                            .filter_map(Value::as_usize)
                            .collect()
                    })
                    .collect()
            })
            .unwrap_or_default();
        let ep = client::num(&reply, "ep");
        let instance = self
            .mirror
            .instance_for(&names, Estimator::Markov, Some(now as f64))
            .map(|(instance, _, _)| instance)?;
        // A cache hit may come from an instance that only quantises to
        // the same key: allow the grid's EP slack then.
        let tolerance = if verdict.cached {
            (names.len() * CLUSTER_CELLS) as f64 / f64::from(GRID)
        } else {
            check::EP_TOLERANCE
        };
        verdict.ep =
            if !verdict.downgraded && check::plan_ok(&instance, delay, &groups, ep, tolerance) {
                Ok(ep)
            } else {
                Err(format!("plan {id}: strategy or EP failed its checks"))
            };
        Ok(verdict)
    }
}

pub struct PlanVerdict {
    pub ep: Result<f64, String>,
    pub cached: bool,
    pub downgraded: bool,
    pub coalesced: bool,
}

/// Observes every device of `state`'s connection `PRELOAD_ROUNDS`
/// times, in batches.
pub fn preload(pop: &Population, conn: usize, state: &mut ClientState) -> Result<(), String> {
    let devices = pop.devices_of(conn);
    for _ in 0..PRELOAD_ROUNDS {
        state.clock += 1;
        for chunk in devices.chunks(PRELOAD_BATCH) {
            let batch: Vec<(usize, usize)> =
                chunk.iter().map(|&d| (d, pop.devices[d].home)).collect();
            state.observe(pop, &batch)??;
        }
    }
    Ok(())
}

fn router_stats(addr: &str) -> Result<Value, String> {
    let reply = client::control(addr, "stats")?;
    reply
        .get("router")
        .cloned()
        .ok_or_else(|| "stats reply without router counters".to_string())
}

/// What a mixed workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// `pager-cluster launch`: router, two shards, one replica each.
    Cluster,
    /// One `pager-serve` with a data directory, `--fsync always`.
    Node,
}

impl Target {
    fn spawn(self, env: &Env, data_root: &Path) -> Result<Server, String> {
        match self {
            Target::Cluster => {
                Server::spawn(&env.bin("pager-cluster"), &launch_args(env, data_root))
            }
            Target::Node => {
                let args = [
                    "--addr",
                    "127.0.0.1:0",
                    "--transport",
                    "reactor",
                    "--data-dir",
                    &data_root.to_string_lossy(),
                    "--fsync",
                    "always",
                    "--checkpoint-every",
                    "0",
                ];
                let args: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
                Server::spawn(&env.bin("pager-serve"), &args)
            }
        }
    }
}

/// Starts the target and preloads every device over both connections
/// in parallel.
pub fn setup(
    env: &Env,
    pop: &Population,
    target: Target,
    data_root: &Path,
) -> Result<(Server, Vec<ClientState>), String> {
    let _ = std::fs::remove_dir_all(data_root);
    let server = target.spawn(env, data_root)?;
    let mut states = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        states.push(ClientState::new(LineConn::connect(&server.addr)?)?);
    }
    let results: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(t, state)| s.spawn(move || preload(pop, t, state)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("preload thread panicked".into()))
            })
            .collect()
    });
    for result in results {
        result?;
    }
    Ok((server, states))
}

/// One mixed-workload connection driving its own op stream.
struct MixedClient<'a> {
    state: ClientState,
    pop: &'a Population,
    ops: OpStream<'a>,
    plans: usize,
    part: Live,
}

impl live::Client for MixedClient<'_> {
    fn drive(&mut self, until: Instant) -> Result<(), String> {
        while Instant::now() < until {
            let op = self.ops.next().ok_or("the op stream ended")?;
            let (state, part) = (&mut self.state, &mut self.part);
            state.clock += 1;
            part.attempted += 1;
            let sent = Instant::now();
            match op {
                Op::Observe { device, cell } => {
                    let verdict = state.observe(self.pop, &[(device, cell)])?;
                    part.record(sent.elapsed().as_nanos(), true, verdict.is_ok());
                    if let Err(note) = verdict {
                        part.fail(|| note);
                    }
                }
                Op::Plan { group, delay } => {
                    let verdict = state.plan(self.pop, group, delay)?;
                    part.record(sent.elapsed().as_nanos(), false, verdict.ep.is_ok());
                    let c = &mut part.counters;
                    c.cache_probes += 1.0;
                    c.cache_hits += f64::from(u8::from(verdict.cached));
                    c.downgrades += f64::from(u8::from(verdict.downgraded));
                    c.coalesced += f64::from(u8::from(verdict.coalesced));
                    match verdict.ep {
                        Ok(ep) if self.plans < EP_PREFIX => {
                            part.ep_sum += ep;
                            part.ep_n += 1;
                        }
                        Ok(_) => {}
                        Err(note) => {
                            if note.contains("overloaded") {
                                c.shed += 1.0;
                            }
                            part.fail(|| note);
                        }
                    }
                    self.plans += 1;
                }
            }
        }
        Ok(())
    }

    fn part(&mut self) -> &mut Live {
        &mut self.part
    }
}

/// One segment of a mixed workload against `target`.
pub fn mixed(env: &Env, seed: u64, window: Duration, target: Target) -> Result<Live, String> {
    let pop = gen::population(seed, "");
    let data_root = env.work.join(format!("mixed-{seed}"));
    let started = Instant::now();
    let (server, states) = setup(env, &pop, target, &data_root)?;
    let setup_s = started.elapsed().as_secs_f64();
    let mut clients: Vec<MixedClient<'_>> = states
        .into_iter()
        .enumerate()
        .map(|(t, state)| MixedClient {
            state,
            pop: &pop,
            ops: OpStream::new(&pop, seed, t),
            plans: 0,
            part: Live::default(),
        })
        .collect();
    let counters = |addr: &str| match target {
        Target::Cluster => router_stats(addr),
        Target::Node => live::node_metrics(addr),
    };
    let before = counters(&server.addr)?;
    let pids = server.pids();
    let mut live = live::measure(&pids, window, &mut clients)?;
    live.segments[0].setup_s = setup_s;
    let after = counters(&server.addr)?;
    let delta = |key: &str| client::num(&after, key) - client::num(&before, key);
    let c = &mut live.counters;
    match target {
        Target::Cluster => {
            c.retries = delta("retries");
            c.failovers = delta("failovers");
            c.breaker_rejections = delta("breaker_rejections");
            c.shipped_records = delta("shipped_records");
            c.shed += delta("shed_passthrough");
        }
        Target::Node => c.shed += delta("requests_shed"),
    }
    if live.ep_n < (CONNS * EP_PREFIX) as u64 {
        live.note(format!(
            "{target:?}-mixed served only {} of the {} plans mean_ep averages; run longer",
            live.ep_n,
            CONNS * EP_PREFIX
        ));
        live.setup_failures += 1;
    }
    drop(clients);
    server.stop(live::STOP_GRACE);
    let _ = std::fs::remove_dir_all(&data_root);
    Ok(live)
}
