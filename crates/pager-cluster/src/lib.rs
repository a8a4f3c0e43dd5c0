//! Multi-node deployment layer for the paging service.
//!
//! The paper's conference-call paging problem only matters at carrier
//! scale, and a carrier deployment has to survive the loss of a whole
//! node — not just a crash of one process. This crate adds that layer
//! on top of `pager-serve` without touching the v1 wire protocol:
//!
//! - [`ring`]: a consistent-hash **shard map** with virtual nodes over
//!   device/area keys and a versioned membership epoch.
//! - [`router`]: a dual-protocol **router** speaking both `pager_wire`
//!   encodings — v1 JSON lines and v2 binary frames (a v2 `plan`
//!   frame is routed by fingerprinting its borrowed payload and
//!   forwarded without a decode). It routes `observe` /
//!   `plan_devices` / `plan` to the
//!   owning shard over pooled connections, with per-shard circuit
//!   breakers, retry-with-backoff honoring the request's
//!   `deadline_ms`, `overloaded`/`degraded` pass-through, and
//!   replica promotion (epoch bump) when an owner dies.
//! - `ship`: **WAL shipping** — the router forwards the raw
//!   `pager-profiles::wal` frames each owner's `OBSERVE_RESP` carries
//!   into the shard's replicas (`WAL_APPLY` frames), catching a
//!   lagging replica up with `WAL_SHIP` reads of the owner's WAL,
//!   *before* acking an `observe`, so failover serves every acked
//!   sighting with the owner's exact version numbering.
//! - `harness`: an **orchestration harness** that launches a real
//!   N-process cluster from a [`topology::Topology`] spec, routes
//!   requests through it, polls `node_info` on every shard, and
//!   asserts the cluster invariants (no acked observation lost after SIGKILL,
//!   version monotonicity across failover). A topology with a
//!   [`topology::ChaosSpec`] gets a seeded `pager-chaos` fault proxy
//!   on every router→node link.
//! - `invariants`: the **chaos invariant checker** — drives mixed
//!   traffic through a declarative fault schedule and audits the
//!   safety properties afterwards (no acked sighting lost, no
//!   profile-version regression on served plans, epoch convergence
//!   after heal, deadline honesty under blackhole).
//!
//! - `front` (Linux): the router as a `pager_service::engine::Handler`,
//!   so [`Cluster::serve`] puts it on the same transport engine as
//!   `pager-serve` — drain, deadline watchdog and an elastic I/O pool
//!   that keeps one blocked backend from stalling other clients.
//!
//! The `pager-cluster` binary serves the router over TCP (`launch`);
//! perfbench's `cluster-mixed` workload measures it end to end.

#![warn(missing_docs)]

#[cfg(target_os = "linux")]
mod front;
mod harness;
mod invariants;
pub mod ring;
pub mod router;
mod ship;
mod topology;
mod wire;

pub use harness::{Cluster, HarnessConfig, NodeProc};
pub use invariants::{check_under_schedule, CheckConfig, InvariantReport};
pub use ring::ShardMap;
pub use router::{BackendSpec, Router, RouterConfig, ShardSpec};
pub use topology::{ChaosSpec, Topology};
pub use wire::Conn;
