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
//! * **Sharded LRU cache** — strategies are cached under a
//!   *quantised* fingerprint of the instance
//!   ([`pager_core::fingerprint`]), so measurements that differ only
//!   by noise below the grid resolution share one planned strategy.
//! * **Worker pool with batch coalescing** ([`PagerService`]) — cache
//!   misses are planned by a fixed thread pool, and concurrent
//!   requests for the same fingerprint are coalesced into a single
//!   computation whose result fans out to every waiter.
//! * **Deadline-aware lifecycle** ([`PlanSpec`], [`ServiceError`]) — every
//!   request carries a deadline budget, fixed at admission as one
//!   [`pager_core::cancel::CancelToken`]; admission goes through a
//!   *bounded* queue that sheds excess load with `"code": "overloaded"`,
//!   and solvers poll that token so an exact plan whose deadline
//!   expires mid-solve is abandoned and downgraded to the greedy tier
//!   instead of hogging a worker.
//! * **Metrics** ([`Metrics`]) — the service's registry, declared with
//!   the workspace's one metrics vocabulary in [`jsonio::metrics`]
//!   (counters, log-bucketed latency histograms, and the
//!   [`jsonio::registry!`] macro that declares each metric once and
//!   derives its JSON dump). [`PagerService::metrics_json`] appends
//!   the dumps of the objects that own the other counters — the cache,
//!   the profile store and its WAL — at dump time.
//! * **Profile store** ([`pager_profiles`], wired in via
//!   [`PagerService::observe`] / [`PagerService::plan_devices`]) —
//!   devices stream in sightings and plans are requested by device
//!   *name*; profile versions join the cache key so an update can
//!   never be answered with a strategy planned from older data, and a
//!   plan cheap enough to solve inline is not stored at all.
//! * **Wire protocol** ([`handle_line`], [`handle_frame`]) — the typed
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

mod cache;
#[cfg(target_os = "linux")]
pub mod engine;
mod error;
#[cfg(target_os = "linux")]
mod handler;
mod metrics;
pub mod planner;
mod pool;
mod proto;
mod server;
mod service;

#[cfg(target_os = "linux")]
pub use engine::{
    serve_reactor_with, Answer, Call, Gauges, Handler, ReactorConfig, ReactorHandle, Reply,
};
pub use error::ServiceError;
pub use metrics::Metrics;
pub use planner::{plan, Plan, Tier, TierPolicy, Variant, RETRY_AFTER_MS};
pub use proto::{handle_frame, handle_line, LineOutcome, Request};
pub use server::serve_lines;
pub use service::{
    DevicePlanResponse, DurabilityOptions, Observed, PagerService, PlanResponse, PlanSpec,
    ServiceConfig,
};
