//! Online location-profile store for conference-call paging.
//!
//! The paper's planners (in `pager-core`) take each device's location
//! *distribution* as given, citing its refs [15, 16] for how real
//! systems acquire them from movement histories. This crate is that
//! acquisition layer, online: sightings stream in append-only and
//! versioned per-device profiles stream planner-ready rows out.
//!
//! # Pieces
//!
//! - [`estimators`] — the canonical distribution math (Laplace
//!   empirical, exponential recency, staleness blends);
//!   `cellnet`'s simulator estimates through them too, so its offline
//!   estimates and this online store cannot drift apart.
//! - `MarkovModel` — first-order cell→cell mobility model predicting
//!   the current distribution from the last sighting and the elapsed
//!   time.
//! - [`DeviceProfile`] / [`ProfileConfig`] — one device's versioned
//!   profile: all three estimators plus a configurable staleness decay
//!   toward uniform.
//! - [`ProfileStore`] — the concurrent sharded store: ingest, LRU
//!   eviction under a capacity bound, globally monotone versions (so a
//!   strategy cache keyed on versions can never serve a plan built
//!   from older data), and `jsonio` snapshots.
//! - [`replay`](fn@replay) — the loop-closing harness: ground-truth
//!   mobility → ingest → plan → `pager_core::simulation::run_search`,
//!   reporting realised paging cost against the Lemma 2.1 expectation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod durable;
pub mod estimators;
pub mod io;
mod markov;
mod profile;
mod replay;
mod store;
pub mod wal;

pub use durable::{
    DurabilityConfig, DurableError, DurableStore, FsyncPolicy, RecoveryReport, WalAppend,
    WalMetrics, WalSegment,
};
pub use profile::{DeviceProfile, Estimator, ProfileConfig, Time};
pub use replay::{replay, CallRecord, ReplayConfig, ReplayReport, Step};
pub use store::{ProfileStore, Sighting, StoreConfig, StoreMetrics, StoreStats};
