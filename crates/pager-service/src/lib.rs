//! # pager-service
//!
//! A concurrent strategy-planning service for the conference-call
//! paging problem (Bar-Noy & Malewicz, PODC 2002).
//!
//! A base station that establishes many calls per second keeps
//! re-solving the same optimisation: given a matrix of location
//! probabilities and a delay bound, partition the cells into at most
//! `d` paging rounds minimising the expected number of cells paged.
//! This crate wraps the solvers in [`pager_core`] with the serving
//! machinery that workload makes worthwhile:
//!
//! * **Tiered planning** ([`planner`]) — exact subset-DP for small
//!   instances, the paper's Fig. 1 greedy otherwise, plus the
//!   bandwidth-bounded and signature variants on request.
//! * **Sharded LRU cache** ([`cache`]) — strategies are cached under a
//!   *quantised* fingerprint of the instance
//!   ([`pager_core::fingerprint`]), so measurements that differ only
//!   by noise below the grid resolution share one planned strategy.
//! * **Worker pool with batch coalescing** ([`PagerService`]) — cache
//!   misses are planned by a fixed thread pool, and concurrent
//!   requests for the same fingerprint are coalesced into a single
//!   computation whose result fans out to every waiter.
//! * **Deadline-aware lifecycle** ([`PlanSpec`], [`deadline`],
//!   [`error`]) — every request carries a deadline budget; admission
//!   goes through a *bounded* queue that sheds excess load with
//!   `"code": "overloaded"`, and solvers poll a cooperative cancel
//!   token so an exact plan whose deadline expires mid-solve is
//!   abandoned and downgraded to the greedy tier instead of hogging a
//!   worker.
//! * **Metrics** ([`metrics`]) — atomic counters and log-bucketed
//!   per-tier latency histograms, dumpable as JSON.
//! * **Profile store** ([`pager_profiles`], wired in via
//!   [`PagerService::observe`] / [`PagerService::plan_devices`]) —
//!   devices stream in sightings and plans are requested by device
//!   *name*; profile versions join the cache key so an update can
//!   never be answered with a strategy planned from older data.
//! * **Wire protocol** ([`proto`], [`server`]) — the typed
//!   [`pager_wire`] request/response surface in both its encodings,
//!   v1 JSON lines and v2 binary frames (detected per message; see
//!   `docs/wire.md`), served over stdio by [`serve_lines`].
//! * **Transport engine** ([`engine`], Linux) — the one TCP serving
//!   loop: epoll shards over connection state machines, handing each
//!   message to a [`Handler`]. `PagerService` is one handler (behind
//!   the `pager-serve` binary); the `pager-cluster` router is the
//!   other.
//!
//! ```
//! use pager_core::{Delay, Instance};
//! use pager_service::{PagerService, PlanSpec, ServiceConfig};
//!
//! let service = PagerService::new(ServiceConfig::default());
//! let instance = Instance::from_rows(vec![vec![0.6, 0.3, 0.1]]).unwrap();
//! let response = service
//!     .plan(&instance, PlanSpec::new(Delay::new(2).unwrap()))
//!     .unwrap();
//! assert!(response.plan.expected_paging >= 1.0);
//! ```

pub mod cache;
pub mod deadline;
#[cfg(target_os = "linux")]
pub mod engine;
pub mod error;
#[cfg(target_os = "linux")]
mod handler;
pub mod metrics;
pub mod planner;
mod pool;
pub mod proto;
pub mod server;
mod service;

pub use cache::ShardedCache;
pub use deadline::Deadline;
#[cfg(target_os = "linux")]
pub use engine::{
    serve_reactor_with, Answer, Call, Completion, Gauges, Handler, ReactorConfig, ReactorHandle,
    Reply,
};
pub use error::ServiceError;
pub use metrics::{LatencyHistogram, Metrics};
pub use planner::{plan, Plan, Tier, TierPolicy, Variant, RETRY_AFTER_MS};
pub use proto::{handle_frame, handle_line, parse_request, LineOutcome, Request};
pub use server::serve_lines;
pub use service::{
    DevicePlanResponse, DurabilityOptions, PagerService, PlanKey, PlanResponse, PlanSpec,
    ServiceConfig, WalApplyOutcome,
};
