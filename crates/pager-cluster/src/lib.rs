//! Multi-node deployment layer for the paging service.
//!
//! The paper's conference-call paging problem only matters at carrier
//! scale, and a carrier deployment has to survive the loss of a whole
//! node — not just a crash of one process. This crate adds that layer
//! on top of `pager-serve` without touching the v1 wire protocol:
//!
//! - [`ring`]: a consistent-hash **shard map** with virtual nodes over
//!   device/area keys, versioned membership epochs, and deterministic
//!   rebalance plans on join/leave.
//! - [`router`]: a dual-protocol **router** speaking both `pager_wire`
//!   encodings — v1 JSON lines and v2 binary frames (a v2 `plan`
//!   frame is routed by fingerprinting its borrowed payload and
//!   forwarded without a decode). It routes `observe` /
//!   `plan_devices` / `plan` to the
//!   owning shard over pooled connections, with per-shard circuit
//!   breakers, retry-with-backoff honoring the request's
//!   `deadline_ms`, `overloaded`/`degraded` pass-through, and
//!   replica promotion (epoch bump) when an owner dies.
//! - [`ship`]: **WAL shipping** — the router tails each owner's
//!   profile WAL (reusing `pager-profiles::wal` framing over the
//!   `wal_ship`/`wal_apply` wire ops) into the shard's replicas
//!   *before* acking an `observe`, so failover serves every acked
//!   sighting with the owner's exact version numbering.
//! - [`harness`]: an **orchestration harness** that launches a real
//!   N-process cluster from a [`topology::Topology`] spec, drives
//!   mixed traffic, polls `node_info` on every shard, and asserts the
//!   cluster invariants (no acked observation lost after SIGKILL,
//!   version monotonicity across failover). A topology with a
//!   [`topology::ChaosSpec`] gets a seeded `pager-chaos` fault proxy
//!   on every router→node link.
//! - [`invariants`]: the **chaos invariant checker** — drives mixed
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
//! The `pager-cluster` binary serves the router over TCP (`launch`)
//! and wraps the harness in a throughput baseline (`bench`).

#![warn(missing_docs)]

#[cfg(target_os = "linux")]
mod front;
pub mod harness;
pub mod invariants;
pub mod ring;
pub mod router;
pub mod ship;
pub mod topology;
pub mod wire;

pub use harness::{Cluster, HarnessConfig, TrafficReport};
pub use invariants::{check_under_schedule, CheckConfig, InvariantReport};
pub use ring::{ArcMove, RebalancePlan, ShardMap};
pub use router::{BackendSpec, Router, RouterConfig, RouterOutcome, ShardSpec};
pub use topology::{ChaosSpec, Topology};
pub use wire::Conn;
