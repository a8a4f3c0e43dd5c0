//! Cluster orchestration harness: real processes, real sockets.
//!
//! [`Cluster::launch`] turns a [`Topology`] into one live
//! `pager-serve` process per node — `shards × (replicas + 1)` in all —
//! each with its own data directory, `--fsync always`, and a stable
//! `--node-id`, plus an in-process [`Router`] wired to all of them.
//! Tests and the `pager-cluster` binary then drive traffic through the
//! router, `SIGKILL` owners mid-stream, poll `node_info` on survivors,
//! and measure throughput — against the same binaries production runs,
//! not mocks.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use jsonio::Value;
use pager_chaos::ChaosNet;

use crate::router::{BackendSpec, Router, RouterConfig, ShardSpec};
use crate::topology::Topology;
use crate::wire::Conn;

/// How to launch a cluster.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Path to the `pager-serve` binary (tests use
    /// `env!("CARGO_BIN_EXE_pager-serve")`, the CLI its sibling).
    pub pager_serve: PathBuf,
    /// Scratch root; each node gets `data_root/<node-id>/`.
    pub data_root: PathBuf,
    /// Shape of the cluster.
    pub topology: Topology,
    /// Router tuning.
    pub router: RouterConfig,
}

/// One launched `pager-serve` process.
#[derive(Debug)]
pub struct NodeProc {
    /// Stable identity (`shard-{s}.r{r}`), also the node's `--node-id`.
    pub node_id: String,
    /// Shard index this process serves.
    pub shard: usize,
    /// Replica rank at launch (0 = initial owner).
    pub replica: usize,
    /// `host:port` the node listens on.
    pub addr: String,
    /// The node's private data directory.
    pub data_dir: PathBuf,
    child: Option<Child>,
}

impl NodeProc {
    fn spawn(config: &HarnessConfig, shard: usize, replica: usize) -> Result<NodeProc, String> {
        let node_id = config.topology.node_id(shard, replica);
        let data_dir = config.data_root.join(&node_id);
        std::fs::create_dir_all(&data_dir)
            .map_err(|e| format!("cannot create {}: {e}", data_dir.display()))?;
        let t = &config.topology;
        let mut child = Command::new(&config.pager_serve)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(&data_dir)
            .arg("--fsync")
            .arg("always")
            .arg("--checkpoint-every")
            .arg(t.checkpoint_every.to_string())
            .arg("--wal-retain")
            .arg(t.wal_retain.to_string())
            .arg("--node-id")
            .arg(&node_id)
            .arg("--epoch")
            .arg("0")
            .arg("--workers")
            .arg(t.workers.to_string())
            .arg("--queue-depth")
            .arg(t.queue_depth.to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", config.pager_serve.display()))?;
        let stderr = child
            .stderr
            .take()
            .ok_or_else(|| "child has no stderr".to_string())?;
        let mut lines = BufReader::new(stderr).lines();
        let addr = loop {
            let line = match lines.next() {
                Some(Ok(line)) => line,
                Some(Err(e)) => return Err(format!("{node_id}: stderr read failed: {e}")),
                None => return Err(format!("{node_id} exited before its listening banner")),
            };
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest.trim().to_string();
            }
        };
        // Keep draining stderr so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        Ok(NodeProc {
            node_id,
            shard,
            replica,
            addr,
            data_dir,
            child: Some(child),
        })
    }

    /// SIGKILL: no drain, no flush — the failure mode under test.
    pub fn kill_hard(&mut self) -> Result<(), String> {
        let mut child = self
            .child
            .take()
            .ok_or_else(|| format!("{} already killed", self.node_id))?;
        child
            .kill()
            .and_then(|()| child.wait().map(|_| ()))
            .map_err(|e| format!("cannot kill {}: {e}", self.node_id))
    }

    /// Whether the process is still ours to kill.
    #[must_use]
    pub fn is_running(&self) -> bool {
        self.child.is_some()
    }
}

impl Drop for NodeProc {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A running cluster: the processes plus a router over them.
#[derive(Debug)]
pub struct Cluster {
    /// All launched nodes, shard-major (`nodes[s * (r+1) + j]` is
    /// shard `s` replica `j`) — the same order as the router's backend
    /// indexes.
    pub nodes: Vec<NodeProc>,
    /// The router wired to every node.
    pub router: Arc<Router>,
    /// When the topology carried a chaos spec: one proxy per node on
    /// the `router-><node-id>` link. The router dials the proxies; the
    /// harness's direct [`Cluster::node_info`] probes stay unproxied
    /// so the invariant checker keeps an honest observation channel.
    chaos: Option<ChaosNet>,
    /// Completed `drive_traffic` rounds: each round starts its
    /// sighting clock past the previous round's, keeping per-device
    /// times monotone across warm-up and measurement runs.
    traffic_rounds: std::sync::atomic::AtomicU64,
}

impl Cluster {
    /// Launches every node of `config.topology` and wires a router to
    /// them. On any spawn failure the already-launched nodes are
    /// killed by `Drop`.
    pub fn launch(config: &HarnessConfig) -> Result<Cluster, String> {
        let t = &config.topology;
        let mut chaos = t.chaos.as_ref().map(|_| ChaosNet::new());
        let mut nodes: Vec<NodeProc> = Vec::with_capacity(t.nodes());
        let mut shards: Vec<ShardSpec> = Vec::with_capacity(t.shards);
        for shard in 0..t.shards {
            let mut backends = Vec::with_capacity(t.replicas + 1);
            for replica in 0..=t.replicas {
                let node = NodeProc::spawn(config, shard, replica)?;
                // With chaos enabled, the router dials the node's
                // proxy instead of the node: every router-originated
                // connection (requests *and* WAL shipping, which the
                // router drives) crosses the faultable link.
                let backend_addr = match (&mut chaos, &t.chaos) {
                    (Some(net), Some(spec)) => {
                        net.add(&format!("router->{}", node.node_id), &node.addr, spec.seed)?
                    }
                    _ => node.addr.clone(),
                };
                backends.push(BackendSpec {
                    node: node.node_id.clone(),
                    addr: backend_addr,
                });
                nodes.push(node);
            }
            shards.push(ShardSpec {
                shard: format!("shard-{shard}"),
                backends,
            });
        }
        let mut router_config = config.router.clone();
        router_config.vnodes = t.vnodes;
        let router = Router::new(shards, router_config)?;
        Ok(Cluster {
            nodes,
            router: Arc::new(router),
            chaos,
            traffic_rounds: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// The chaos net interposed on this cluster's links, when the
    /// topology asked for one.
    #[must_use]
    pub fn chaos(&self) -> Option<&ChaosNet> {
        self.chaos.as_ref()
    }

    /// SIGKILLs the *current* owner of `shard` (as the router sees
    /// it), returning the killed node's id.
    pub fn kill_owner(&mut self, shard: usize) -> Result<String, String> {
        let (owner, _, _) = self.router.shard_snapshot(shard);
        let node = self
            .nodes
            .get_mut(owner)
            .ok_or_else(|| format!("no node at backend index {owner}"))?;
        node.kill_hard()?;
        Ok(node.node_id.clone())
    }

    /// Asks one node (by backend index) for its `node_info` line over
    /// a fresh direct connection, bypassing the router.
    pub fn node_info(&self, node: usize) -> Result<Value, String> {
        let target = self
            .nodes
            .get(node)
            .ok_or_else(|| format!("no node at index {node}"))?;
        let mut conn = Conn::connect(&target.addr, Duration::from_millis(2000))?;
        conn.round_trip("{\"cmd\": \"node_info\"}")
    }

    /// Serves this cluster's router over TCP on the transport engine
    /// (`pager_service::engine`). The handle's `join` returns once a
    /// client's `shutdown` has stopped the backends; `drain` then
    /// finishes in-flight requests and closes idle connections.
    ///
    /// # Errors
    ///
    /// Binding, epoll setup, or thread spawning failures.
    #[cfg(target_os = "linux")]
    pub fn serve(&self, addr: &str) -> std::io::Result<pager_service::ReactorHandle> {
        pager_service::serve_reactor_with(self.router.clone(), addr, Default::default())
    }

    /// Routes one request line through the cluster.
    #[must_use]
    pub fn request(&self, line: &str) -> Value {
        let outcome = self.router.handle_line(line);
        jsonio::parse(&outcome.response).unwrap_or(Value::Null)
    }

    /// Drives a mixed observe/plan workload through the router from
    /// `threads` concurrent clients and reports throughput and
    /// latency. Each thread owns a private device namespace (sighting
    /// times must be monotone per device, and threads interleave
    /// unpredictably); every fourth request plans for a device that
    /// thread has already observed.
    #[must_use]
    pub fn drive_traffic(&self, threads: usize, requests_per_thread: usize) -> TrafficReport {
        const CELLS: usize = 8;
        const DEVICES_PER_THREAD: usize = 16;
        let round = self
            .traffic_rounds
            .fetch_add(1, std::sync::atomic::Ordering::AcqRel);
        // Far enough apart that no realistic round length overlaps.
        let time_base = round.saturating_mul(1_000_000);
        let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let errors: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
        let begin = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let router = Arc::clone(&self.router);
                let latencies = Arc::clone(&latencies);
                let errors = Arc::clone(&errors);
                scope.spawn(move || {
                    let mut local_lat: Vec<u64> = Vec::with_capacity(requests_per_thread);
                    let mut local_err = 0u64;
                    for i in 0..requests_per_thread {
                        let n = t * requests_per_thread + i;
                        let line = if i % 4 == 3 {
                            // Plan for the device observed at i-1: it
                            // exists, and only this thread touches it.
                            let device = format!("device-{t}-{}", (i - 1) % DEVICES_PER_THREAD);
                            format!(
                                r#"{{"cmd": "plan_devices", "id": {n}, "devices": ["{device}"], "delay": 2, "deadline_ms": 2000}}"#
                            )
                        } else {
                            let device = format!("device-{t}-{}", i % DEVICES_PER_THREAD);
                            format!(
                                r#"{{"cmd": "observe", "cells": {CELLS}, "sightings": [{{"device": "{device}", "cell": {cell}, "time": {time}.0}}]}}"#,
                                cell = i % CELLS,
                                time = time_base + i as u64 + 1,
                            )
                        };
                        let start = Instant::now();
                        let outcome = router.handle_line(&line);
                        let micros =
                            u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
                        local_lat.push(micros);
                        let ok = jsonio::parse(&outcome.response)
                            .ok()
                            .and_then(|v| v.get("ok").and_then(Value::as_bool))
                            == Some(true);
                        if !ok {
                            local_err += 1;
                        }
                    }
                    let mut all = latencies.lock().unwrap_or_else(|e| e.into_inner());
                    all.extend(local_lat);
                    drop(all);
                    let mut e = errors.lock().unwrap_or_else(|e| e.into_inner());
                    *e += local_err;
                });
            }
        });
        let elapsed = begin.elapsed();
        let mut all = latencies.lock().unwrap_or_else(|e| e.into_inner());
        all.sort_unstable();
        let quantile = |q: f64| -> u64 {
            if all.is_empty() {
                return 0;
            }
            #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
            #[allow(clippy::cast_sign_loss)]
            let idx = ((all.len() - 1) as f64 * q).round() as usize;
            all[idx.min(all.len() - 1)]
        };
        let requests = all.len() as u64;
        let error_count = *errors.lock().unwrap_or_else(|e| e.into_inner());
        TrafficReport {
            requests,
            errors: error_count,
            elapsed,
            rps: if elapsed.as_secs_f64() > 0.0 {
                #[allow(clippy::cast_precision_loss)]
                let r = requests as f64 / elapsed.as_secs_f64();
                r
            } else {
                0.0
            },
            p50_micros: quantile(0.50),
            p99_micros: quantile(0.99),
        }
    }

    /// Orderly stop: one `shutdown` through the router (broadcast to
    /// every live node), then reap all children.
    pub fn shutdown(mut self) {
        let _ = self.router.handle_line("{\"cmd\": \"shutdown\"}");
        for node in &mut self.nodes {
            if let Some(child) = node.child.as_mut() {
                // The broadcast asked them to stop; give each a moment
                // then make sure.
                let deadline = Instant::now() + Duration::from_millis(2000);
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
            }
            node.child = None;
        }
    }
}

/// What `drive_traffic` measured.
#[derive(Debug, Clone)]
pub struct TrafficReport {
    /// Total requests issued.
    pub requests: u64,
    /// Responses that were not `"ok": true`.
    pub errors: u64,
    /// Wall-clock time for the whole run.
    pub elapsed: Duration,
    /// Requests per second.
    pub rps: f64,
    /// Median per-request latency.
    pub p50_micros: u64,
    /// 99th-percentile per-request latency.
    pub p99_micros: u64,
}

impl TrafficReport {
    /// JSON form for benchmark artifacts.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("requests", Value::from(self.requests)),
            ("errors", Value::from(self.errors)),
            (
                "elapsed_micros",
                Value::from(u64::try_from(self.elapsed.as_micros()).unwrap_or(u64::MAX)),
            ),
            ("rps", Value::Float(self.rps)),
            ("p50_micros", Value::from(self.p50_micros)),
            ("p99_micros", Value::from(self.p99_micros)),
        ])
    }
}
