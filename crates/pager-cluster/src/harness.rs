//! Cluster orchestration harness: real processes, real sockets.
//!
//! [`Cluster::launch`] turns a [`Topology`] into one live
//! `pager-serve` process per node — `shards × (replicas + 1)` in all —
//! each with its own data directory, `--fsync always`, and a stable
//! `--node-id`, plus an in-process [`Router`] wired to all of them.
//! Tests and the benchmark then drive traffic through the router,
//! `SIGKILL` owners mid-stream and poll `node_info` on survivors —
//! against the same binaries production runs, not mocks. The
//! `pager-cluster` binary serves the same router over TCP.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
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
    pub(crate) fn kill_hard(&mut self) -> Result<(), String> {
        let mut child = self
            .child
            .take()
            .ok_or_else(|| format!("{} already killed", self.node_id))?;
        child
            .kill()
            .and_then(|()| child.wait().map(|_| ()))
            .map_err(|e| format!("cannot kill {}: {e}", self.node_id))
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
        let router = Router::new(shards, t.vnodes, config.router.clone())?;
        Ok(Cluster {
            nodes,
            router: Arc::new(router),
            chaos,
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
