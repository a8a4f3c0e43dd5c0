//! The planning service façade: cache → coalesce → plan.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use jsonio::Value;
use pager_core::Instance;
use pager_profiles::io::{DiskIo, StorageIo};
use pager_profiles::{
    DurabilityConfig, DurableError, DurableStore, Estimator, FsyncPolicy, ProfileStore,
    RecoveryReport, Sighting, StoreConfig, Time, WalAppend, WalMetrics, WalSegment,
};
use pager_wire::fold_cache_key;

use crate::cache::ShardedCache;
use crate::deadline::Deadline;
use crate::error::ServiceError;
use crate::metrics::Metrics;
use crate::planner::{solves_inline, Plan, TierPolicy, Variant};
use crate::pool::{self, Dispatcher, Waiter};

/// The full cache key: quantised probabilities plus everything else
/// that changes the answer. Two requests with equal keys are served
/// the *same* strategy object.
///
/// For profile-driven requests the key carries the estimator and the
/// per-device profile versions: ingesting a sighting bumps a version,
/// so the updated device can never be answered with a strategy planned
/// from its older profile, even when the quantised probabilities
/// happen to coincide.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    buckets: Vec<u32>,
    devices: usize,
    cells: usize,
    delay: usize,
    variant: Variant,
    grid: u32,
    /// Estimator tag for profile-driven plans (0 for matrix requests).
    estimator: u64,
    /// Profile versions for profile-driven plans (empty for matrix
    /// requests).
    profile_versions: Vec<u64>,
}

/// Where and how profile state is persisted.
///
/// Attached to [`ServiceConfig::durability`]; `None` there keeps the
/// pre-durability behaviour (profiles are in-memory only and vanish on
/// restart).
#[derive(Clone)]
pub struct DurabilityOptions {
    /// Directory holding the generation-numbered snapshot + WAL pair.
    pub data_dir: PathBuf,
    /// When WAL appends are fsynced relative to the ack.
    pub fsync: FsyncPolicy,
    /// Rotate a snapshot after this many WAL records (0 disables
    /// count-triggered checkpoints).
    pub checkpoint_every: u64,
    /// How many closed WAL generations checkpoints keep on disk so a
    /// lagging follower can finish tailing them (0 keeps none — the
    /// single-node default).
    pub retain_wal: u64,
    /// Storage backend override; `None` uses the real filesystem.
    /// Tests inject `pager_profiles::io::FaultyIo` here to drive the
    /// degraded path deterministically.
    pub io: Option<Arc<dyn StorageIo>>,
}

impl DurabilityOptions {
    /// Durability in `data_dir` with the defaults: fsync on every
    /// ack, checkpoint every 10 000 records, real filesystem.
    #[must_use]
    pub fn new(data_dir: impl Into<PathBuf>) -> DurabilityOptions {
        DurabilityOptions {
            data_dir: data_dir.into(),
            fsync: FsyncPolicy::Always,
            checkpoint_every: 10_000,
            retain_wal: 0,
            io: None,
        }
    }
}

impl std::fmt::Debug for DurabilityOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityOptions")
            .field("data_dir", &self.data_dir)
            .field("fsync", &self.fsync)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("retain_wal", &self.retain_wal)
            .field("io", &self.io.as_ref().map(|_| "injected"))
            .finish()
    }
}

/// Service configuration knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Planner threads consuming the request queue.
    pub workers: usize,
    /// Cache shards (independent locks).
    pub shards: usize,
    /// Total cached strategies across all shards.
    pub capacity: usize,
    /// Quantisation grid for cache keys: probabilities are bucketed
    /// to multiples of `1/grid`. Coarser grids (smaller values) hit
    /// more, at the cost of serving strategies planned for instances
    /// up to `1/(2·grid)` away per entry.
    pub grid: u32,
    /// Exact-tier dispatch limits.
    pub policy: TierPolicy,
    /// Profile-store sizing and estimation knobs (capacity, shards,
    /// smoothing, staleness half-life).
    pub profiles: StoreConfig,
    /// Bound of the admission queue: jobs beyond this many waiting are
    /// shed with `"code": "overloaded"` instead of queueing.
    pub queue_depth: usize,
    /// Default per-request deadline budget, applied when a request
    /// carries no `deadline_ms` of its own (`None` = unbounded).
    pub default_deadline_ms: Option<u64>,
    /// Crash-safe profile persistence (`None` = in-memory only).
    pub durability: Option<DurabilityOptions>,
    /// Stable shard identity stamped as `"node"` on every wire
    /// response, so a router or harness can attribute each line to
    /// the process that produced it (`None` omits the field — the
    /// single-node default).
    pub node_id: Option<String>,
    /// The cluster membership epoch this node starts in. Routers bump
    /// it through the `epoch` wire op on failover; see
    /// [`PagerService::adopt_epoch`].
    pub epoch: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map_or(4, usize::from)
                .clamp(2, 16),
            shards: 16,
            capacity: 4096,
            grid: 1000,
            policy: TierPolicy::default(),
            profiles: StoreConfig::default(),
            queue_depth: 256,
            default_deadline_ms: Some(30_000),
            durability: None,
            node_id: None,
            epoch: 0,
        }
    }
}

/// Everything one planning request asks for — defined in
/// [`pager_wire`] (the typed wire API) and re-exported here so
/// service-side callers keep their historical import path.
pub use pager_wire::PlanSpec;

/// A served plan plus how it was served.
#[derive(Debug, Clone)]
pub struct PlanResponse {
    /// The plan (shared with the cache and any coalesced waiters).
    pub plan: Arc<Plan>,
    /// Served straight from the cache.
    pub cached: bool,
    /// Joined an identical in-flight computation.
    pub coalesced: bool,
}

/// What an acked [`PagerService::observe`] did.
#[derive(Debug, Clone)]
pub struct Observed {
    /// `(device, new version)` per sighting, in batch order.
    pub versions: Vec<(String, u64)>,
    /// The WAL frames the batch appended, for a router to forward to
    /// replicas (`None` without a durable store).
    pub appended: Option<WalAppend>,
}

/// What applying a shipped WAL chunk did ([`PagerService::apply_wal`]).
#[derive(Debug, Clone, Copy)]
pub struct WalApplyOutcome {
    /// Records decoded from the chunk and applied, in order.
    pub records: u64,
    /// Bytes of the chunk consumed (its valid frame prefix). A chunk
    /// sliced mid-frame by the owner's `max_bytes` consumes less than
    /// its length; the shipper advances its owner-side offset by
    /// exactly this much and refetches the remainder.
    pub consumed: u64,
}

/// A plan served for named devices out of the profile store.
#[derive(Debug, Clone)]
pub struct DevicePlanResponse {
    /// The plan, as for a matrix request.
    pub response: PlanResponse,
    /// The profile version each device's row was built from (same
    /// order as the requested devices). These are part of the cache
    /// key: a later sighting bumps them and forces a re-plan.
    pub versions: Vec<u64>,
    /// How many of the devices were stale (staleness weight below ½)
    /// when the plan was built.
    pub stale_profiles: usize,
    /// The clock the distributions were evaluated at.
    pub now: Time,
}

/// A concurrent strategy-planning service.
///
/// Cheap to share: wrap in an [`Arc`] and call [`PagerService::plan`]
/// from any number of threads.
///
/// # Examples
///
/// ```
/// use pager_service::{PagerService, PlanSpec, ServiceConfig};
/// use pager_core::{Delay, Instance};
///
/// let service = PagerService::new(ServiceConfig::default());
/// let inst = Instance::from_rows(vec![vec![0.5, 0.3, 0.2]]).unwrap();
/// let spec = PlanSpec::new(Delay::new(2).unwrap());
/// let first = service.plan(&inst, spec).unwrap();
/// let again = service.plan(&inst, spec).unwrap();
/// assert!(!first.cached && again.cached);
/// assert_eq!(first.plan.strategy, again.plan.strategy);
/// ```
pub struct PagerService {
    config: ServiceConfig,
    cache: Arc<ShardedCache<PlanKey, Plan>>,
    metrics: Arc<Metrics>,
    dispatcher: Dispatcher,
    profiles: Arc<ProfileStore>,
    /// Present when the service was configured with a data directory;
    /// `observe` then appends to the WAL before acking.
    durable: Option<Arc<DurableStore>>,
    /// What startup recovery found (None without durability).
    recovery: Option<RecoveryReport>,
    /// The cluster membership epoch, monotone under
    /// [`PagerService::adopt_epoch`].
    epoch: AtomicU64,
}

impl PagerService {
    /// Builds a service and starts its worker pool.
    ///
    /// # Panics
    ///
    /// Panics when [`PagerService::try_new`] would fail; prefer that
    /// constructor anywhere a crash is not acceptable.
    #[must_use]
    pub fn new(config: ServiceConfig) -> PagerService {
        match PagerService::try_new(config) {
            Ok(service) => service,
            // lint:allow(no-unwrap-outside-tests): documented panicking convenience wrapper
            Err(e) => panic!("PagerService::new: {e}"),
        }
    }

    /// Builds a service and starts its worker pool, surfacing invalid
    /// configuration and spawn failures as values.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadRequest`] when the profile knobs in
    /// `config.profiles` are invalid (non-positive smoothing, decay
    /// outside `(0, 1]`, ...); [`ServiceError::Internal`] when worker
    /// threads cannot be started.
    pub fn try_new(config: ServiceConfig) -> Result<PagerService, ServiceError> {
        let (profiles, durable, recovery) = match &config.durability {
            None => {
                let profiles = Arc::new(ProfileStore::new(config.profiles).map_err(|why| {
                    ServiceError::BadRequest(format!("invalid profile configuration: {why}"))
                })?);
                (profiles, None, None)
            }
            Some(opts) => {
                let io: Arc<dyn StorageIo> = opts.io.clone().unwrap_or_else(|| Arc::new(DiskIo));
                let (durable, report) = DurableStore::open(
                    io,
                    &opts.data_dir,
                    config.profiles,
                    DurabilityConfig {
                        fsync: opts.fsync,
                        checkpoint_every: opts.checkpoint_every,
                        retain_wal: opts.retain_wal,
                    },
                )
                .map_err(|why| {
                    ServiceError::Internal(format!(
                        "opening data dir {}: {why}",
                        opts.data_dir.display()
                    ))
                })?;
                let durable = Arc::new(durable);
                (Arc::clone(durable.store()), Some(durable), Some(report))
            }
        };
        let cache = Arc::new(ShardedCache::new(config.capacity, config.shards));
        let metrics = Arc::new(Metrics::default());
        let dispatcher = Dispatcher::new(
            config.workers,
            config.queue_depth,
            Arc::clone(&cache),
            Arc::clone(&metrics),
            config.policy,
        )
        .map_err(|e| ServiceError::Internal(format!("spawning worker threads: {e}")))?;
        let epoch = AtomicU64::new(config.epoch);
        Ok(PagerService {
            config,
            cache,
            metrics,
            dispatcher,
            profiles,
            durable,
            recovery,
            epoch,
        })
    }

    /// The configuration the service was built with.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The service's own counters (read one with [`Counter::get`]).
    /// The full dump, which adds the values other objects own, is
    /// [`PagerService::metrics_json`].
    ///
    /// [`Counter::get`]: jsonio::metrics::Counter::get
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The metrics dump behind the `metrics` op, the node `stats` op
    /// and `pager-serve --metrics-json`: the service's registry, then
    /// the registries their owners keep, read now — cache evictions,
    /// the profile store's counters and the WAL's (all zero without a
    /// data directory) — then the degraded flag.
    #[must_use]
    pub fn metrics_json(&self) -> Value {
        let mut entries = self.metrics.entries();
        entries.push(("evictions", Value::from(self.cache.evictions())));
        entries.extend(self.profiles.metrics().entries());
        entries.extend(self.durable.as_ref().map_or_else(
            || WalMetrics::default().entries(),
            |durable| durable.metrics().entries(),
        ));
        entries.push(("degraded", Value::from(u64::from(self.degraded()))));
        Value::object(entries)
    }

    /// The device-profile store behind `observe` / `plan_devices`.
    #[must_use]
    pub fn profiles(&self) -> &ProfileStore {
        &self.profiles
    }

    /// What startup recovery found: `None` when the service runs
    /// without durability, otherwise the generation, records
    /// replayed, and torn-tail bytes truncated.
    #[must_use]
    pub fn recovery(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Whether the data disk has failed and observes are being
    /// refused with `"code": "degraded"`. Always `false` without
    /// durability.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.durable.as_ref().is_some_and(|d| d.degraded())
    }

    /// The shard identity this service stamps on wire responses
    /// (`None` for a standalone server).
    #[must_use]
    pub fn node_id(&self) -> Option<&str> {
        self.config.node_id.as_deref()
    }

    /// The cluster membership epoch this node currently believes in.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Adopts `epoch` if it is ahead of the current one and returns
    /// the epoch in force afterwards. Epochs are monotone: a stale
    /// router replaying an old announcement can never roll a node
    /// backwards.
    pub fn adopt_epoch(&self, epoch: u64) -> u64 {
        self.epoch.fetch_max(epoch, Ordering::AcqRel).max(epoch)
    }

    /// The WAL generation currently receiving appends, or `None`
    /// without durability.
    #[must_use]
    pub fn wal_generation(&self) -> Option<u64> {
        self.durable.as_ref().map(|d| d.current_generation())
    }

    /// Exports raw WAL bytes for a follower (the `wal_ship` wire op);
    /// see [`DurableStore::export_wal`] for the tailing contract.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Unsupported`] without durability;
    /// [`ServiceError::BadRequest`] for coordinates the store rejects
    /// (ahead of the log, compacted away, past the end).
    pub fn export_wal(
        &self,
        generation: u64,
        offset: u64,
        max_bytes: usize,
    ) -> Result<WalSegment, ServiceError> {
        let durable = self.durable.as_ref().ok_or_else(|| {
            ServiceError::Unsupported("this server runs without --data-dir; no WAL to ship".into())
        })?;
        durable
            .export_wal(generation, offset, max_bytes)
            .map_err(ServiceError::BadRequest)
    }

    /// Applies a chunk of an owner's WAL to this store (the
    /// `wal_apply` wire op) in frame order. Each run of consecutive
    /// records with the same `cells` is one [`PagerService::observe`]
    /// call, so a shipped batch costs the replica one WAL fsync, as it
    /// cost the owner.
    ///
    /// A replica fed *only* through this path reproduces the owner's
    /// profile-version numbering exactly: versions are drawn from a
    /// global counter in apply order, and the shipped frames replay in
    /// the owner's append order. That identity is what lets the router
    /// fail over without acked versions regressing.
    ///
    /// # Errors
    ///
    /// The first record the store refuses (earlier records in the
    /// chunk stay applied — same append-only contract as `observe`).
    pub fn apply_wal(&self, bytes: &[u8]) -> Result<WalApplyOutcome, ServiceError> {
        let scan = pager_profiles::wal::scan(bytes);
        for run in scan.records.chunk_by(|a, b| a.cells == b.cells) {
            let sightings: Vec<Sighting> = run
                .iter()
                .map(|record| Sighting {
                    device: record.device.clone(),
                    cell: record.cell,
                    time: record.time,
                })
                .collect();
            self.observe(run[0].cells, &sightings)?;
        }
        Ok(WalApplyOutcome {
            records: scan.records.len() as u64,
            consumed: scan.valid_len,
        })
    }

    /// The cache key for a request, exposed so tests and tools can
    /// reason about hit behaviour.
    #[must_use]
    pub fn cache_key(&self, instance: &Instance, spec: &PlanSpec) -> PlanKey {
        self.derive_key(instance, spec, 0, &[]).0
    }

    /// The single place cache keys (and their shard fingerprints) are
    /// derived. Both the matrix and the profile-driven paths funnel
    /// through here, so key composition cannot drift between them.
    ///
    /// The deadline budget is deliberately *not* part of the key: a
    /// strategy is equally valid however long the caller was willing
    /// to wait for it.
    fn derive_key(
        &self,
        instance: &Instance,
        spec: &PlanSpec,
        estimator: u64,
        versions: &[u64],
    ) -> (PlanKey, u64) {
        let key = PlanKey {
            buckets: instance.quantized_buckets(self.config.grid),
            devices: instance.num_devices(),
            cells: instance.num_cells(),
            delay: spec.delay().get(),
            variant: spec.variant(),
            grid: self.config.grid,
            estimator,
            profile_versions: versions.to_vec(),
        };
        let fp = fold_cache_key(
            instance.fingerprint64(self.config.grid),
            spec.delay().get() as u64,
            spec.variant(),
            estimator,
            versions,
        );
        (key, fp)
    }

    /// Materialises the request's deadline budget (or the server
    /// default) into an absolute instant at admission, so queueing
    /// time counts against it.
    fn admit(&self, spec: &PlanSpec) -> Deadline {
        Deadline::from_budget_ms(spec.deadline_ms().or(self.config.default_deadline_ms))
    }

    /// An uncacheable plan: the pool exists to dedupe identical work,
    /// and uncacheable work cannot be deduped. A cheap greedy one is
    /// solved on the calling thread; any other is handed back as a
    /// [`Planned::Blocking`] job for a thread that may block.
    fn plan_uncached(
        &self,
        instance: &Instance,
        spec: &PlanSpec,
        deadline: Deadline,
    ) -> Planned<PlanResponse> {
        let (delay, variant, policy) = (spec.delay(), spec.variant(), self.config.policy);
        if solves_inline(instance, delay, variant, &policy) {
            return Planned::Now(self.solve_inline(instance, spec, deadline, None));
        }
        let metrics = Arc::clone(&self.metrics);
        let instance = instance.clone();
        Planned::Blocking(Box::new(move || {
            pool::solve(&instance, delay, variant, deadline, &policy, &metrics, None).map(fresh)
        }))
    }

    /// Solves a miss whose cost passed the gate of
    /// [`crate::planner::INLINE_SOLVE_OPS`] on the calling thread,
    /// caching it in `slot` if given.
    fn solve_inline(
        &self,
        instance: &Instance,
        spec: &PlanSpec,
        deadline: Deadline,
        slot: Option<(&ShardedCache<PlanKey, Plan>, u64, PlanKey)>,
    ) -> Result<PlanResponse, ServiceError> {
        self.metrics.solved_inline.inc();
        pool::solve(
            instance,
            spec.delay(),
            spec.variant(),
            deadline,
            &self.config.policy,
            &self.metrics,
            slot,
        )
        .map(fresh)
    }

    /// Plans a strategy, serving from the cache or an identical
    /// in-flight computation when possible.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadRequest`] / [`ServiceError::Unsupported`] on
    /// invalid variant parameters or solver limits;
    /// [`ServiceError::Overloaded`] when the admission queue is full or
    /// the deadline expired on a non-degradable tier;
    /// [`ServiceError::Internal`] when called during shutdown.
    pub fn plan(&self, instance: &Instance, spec: PlanSpec) -> Result<PlanResponse, ServiceError> {
        let mut reply = None;
        let planned = self.plan_async(instance, spec, || reply_to(&mut reply));
        wait_for(planned, reply)
    }

    /// Probes the strategy cache straight from a borrowed v2 plan
    /// frame, without materialising an [`Instance`], a [`PlanKey`], or
    /// anything else on the heap.
    ///
    /// Returns the cached response on a hit (counting the request and
    /// the hit in metrics, exactly as [`PagerService::plan`] would).
    /// Returns `None` — *without* touching any counters — for a miss
    /// or for any request the fast path does not cover (cache opt-out,
    /// unknown variant, invalid matrix or delay): the caller then
    /// falls back to the full decode-and-plan path, which does its own
    /// accounting and error reporting.
    #[must_use]
    pub fn plan_cache_probe(&self, view: &pager_wire::PlanFrameView<'_>) -> Option<PlanResponse> {
        if !view.cache_enabled() || view.delay() == 0 {
            return None;
        }
        let variant = view.variant()?;
        if !view.rows_valid() {
            return None;
        }
        let grid = self.config.grid;
        let fingerprint = view.request_fingerprint(grid);
        let hit = self.cache.get_with(fingerprint, |key: &PlanKey| {
            key.grid == grid
                && key.devices == view.devices()
                && key.cells == view.cells()
                && key.delay == view.delay() as usize
                && key.variant == variant
                && key.estimator == 0
                && key.profile_versions.is_empty()
                && view.buckets_match(&key.buckets, grid)
        })?;
        self.metrics.requests.inc();
        self.metrics.cache_hits.inc();
        Some(PlanResponse {
            plan: hit,
            cached: true,
            coalesced: false,
        })
    }

    /// [`PagerService::plan`] without blocking the calling thread.
    ///
    /// Cache hits, cheap greedy misses (a Theorem 4.8 cost of at most
    /// [`crate::planner::INLINE_SOLVE_OPS`]) and shutdown refusals are
    /// answered during the call as [`Planned::Now`]. Any other
    /// cacheable miss is admitted to the worker pool: `later` is called
    /// once, right then, for the callback that receives the answer — on
    /// a worker thread, or on this one if the request is shed — and the
    /// call returns [`Planned::Later`]. Any other uncacheable plan comes
    /// back as [`Planned::Blocking`]. The transport engine's shards
    /// live on this.
    pub(crate) fn plan_async(
        &self,
        instance: &Instance,
        spec: PlanSpec,
        later: impl FnOnce() -> Callback<PlanResponse>,
    ) -> Planned<PlanResponse> {
        self.metrics.requests.inc();
        let deadline = self.admit(&spec);
        if !spec.cache_enabled() {
            return self.plan_uncached(instance, &spec, deadline);
        }
        let (key, fingerprint) = self.derive_key(instance, &spec, 0, &[]);
        self.plan_via_cache(key, fingerprint, instance, &spec, deadline, later)
    }

    /// Cacheable path shared by [`PagerService::plan_async`] and
    /// [`PagerService::plan_devices_async`]: cache, then the cost gate,
    /// then the dispatcher. Exactly-once delivery of a deferred answer
    /// relies on the dispatcher contract: `Dispatcher::submit` either
    /// keeps the waiter (worker delivers) or fails it before returning
    /// `Err`.
    fn plan_via_cache(
        &self,
        key: PlanKey,
        fingerprint: u64,
        instance: &Instance,
        spec: &PlanSpec,
        deadline: Deadline,
        later: impl FnOnce() -> Callback<PlanResponse>,
    ) -> Planned<PlanResponse> {
        if let Some(hit) = self.cache.get(fingerprint, &key) {
            self.metrics.cache_hits.inc();
            return Planned::Now(Ok(PlanResponse {
                plan: hit,
                cached: true,
                coalesced: false,
            }));
        }
        self.metrics.cache_misses.inc();
        if solves_inline(instance, spec.delay(), spec.variant(), &self.config.policy) {
            // Cheaper than admission itself: no queue, so never shed
            // and never coalesced (an identical key is never in flight,
            // since its cost — hence this branch — is the same).
            if self.dispatcher.closed() {
                return Planned::Now(Err(ServiceError::Internal(
                    "service is shutting down".into(),
                )));
            }
            let slot = Some((&*self.cache, fingerprint, key));
            return Planned::Now(self.solve_inline(instance, spec, deadline, slot));
        }
        let complete = later();
        let waiter = Waiter {
            complete: Box::new(move |result, coalesced| {
                complete(result.map(|plan| PlanResponse {
                    plan,
                    cached: false,
                    coalesced,
                }));
            }),
            coalesced: false,
        };
        match self.dispatcher.submit(
            key,
            fingerprint,
            instance.clone(),
            spec.delay(),
            spec.variant(),
            deadline,
            waiter,
        ) {
            Ok(true) => self.metrics.coalesced.inc(),
            Ok(false) => {}
            // The dispatcher already delivered the error to the
            // waiter (shed accounting included) — nothing more here.
            Err(_) => {}
        }
        Planned::Later
    }

    /// Ingests a batch of sightings into the profile store, returning
    /// each sighting's new version and, on a durable store, the WAL
    /// frames the batch appended.
    ///
    /// # Errors
    ///
    /// The first offending sighting's message (earlier sightings in
    /// the batch have been ingested — append-only, no rollback).
    pub fn observe(&self, cells: usize, sightings: &[Sighting]) -> Result<Observed, ServiceError> {
        let result = match &self.durable {
            None => self
                .profiles
                .observe_batch(cells, sightings)
                .map(|versions| Observed {
                    versions,
                    appended: None,
                })
                .map_err(ServiceError::BadRequest),
            // Durable path: the batch is applied, WAL-appended, and
            // (per policy) fsynced before this returns — an Ok here is
            // the acked-write guarantee.
            Some(durable) => durable
                .observe_batch(cells, sightings)
                .map(|(versions, append)| Observed {
                    versions,
                    appended: Some(append),
                })
                .map_err(|e| match e {
                    DurableError::Rejected(m) => ServiceError::BadRequest(m),
                    DurableError::Degraded(m) => ServiceError::Degraded(m),
                }),
        };
        if let Some(durable) = &self.durable {
            self.maybe_schedule_checkpoint(durable);
        }
        result
    }

    /// Schedules a checkpoint on the worker pool when enough WAL
    /// records have accumulated. The maintenance job shares the
    /// planning threads (checkpoints can never outnumber workers) and
    /// respects the bounded queue: a full queue skips this round and
    /// the trigger re-arms on the next observe.
    fn maybe_schedule_checkpoint(&self, durable: &Arc<DurableStore>) {
        if !durable.take_checkpoint_due() {
            return;
        }
        let durable_job = Arc::clone(durable);
        let accepted = self.dispatcher.submit_maintenance(Box::new(move || {
            // A failed checkpoint flips the store to degraded, which
            // the `degraded` gauge reads from the store.
            let _ = durable_job.checkpoint();
        }));
        if !accepted {
            durable.cancel_checkpoint_schedule();
        }
    }

    /// Plans a strategy for named devices out of the profile store.
    ///
    /// The per-device profile versions join the cache key and its
    /// fingerprint, so a sighting ingested between two otherwise
    /// identical requests forces a fresh plan — a stale cached
    /// strategy is unreachable by construction.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadRequest`] on unknown devices, an empty
    /// device list, or a store without a usable clock; otherwise the
    /// same errors as [`PagerService::plan`].
    pub fn plan_devices(
        &self,
        devices: &[&str],
        estimator: Estimator,
        now: Option<Time>,
        spec: PlanSpec,
    ) -> Result<DevicePlanResponse, ServiceError> {
        let mut reply = None;
        let planned =
            self.plan_devices_async(devices, estimator, now, spec, || reply_to(&mut reply));
        wait_for(planned, reply)
    }

    /// [`PagerService::plan_devices`] without blocking the calling
    /// thread; same three outcomes as [`PagerService::plan_async`].
    /// Profile resolution (cheap, pure in-memory) happens on the
    /// calling thread; only a solve the cost gate does not pass is
    /// deferred.
    pub(crate) fn plan_devices_async(
        &self,
        devices: &[&str],
        estimator: Estimator,
        now: Option<Time>,
        spec: PlanSpec,
        later: impl FnOnce() -> Callback<DevicePlanResponse>,
    ) -> Planned<DevicePlanResponse> {
        self.metrics.requests.inc();
        let deadline = self.admit(&spec);
        let Some(now) = now.or_else(|| self.profiles.latest_time()) else {
            self.metrics.errors.inc();
            return Planned::Now(Err(ServiceError::BadRequest(
                "store has no sightings and no \"now\" was given".into(),
            )));
        };
        let (instance, versions, staleness) =
            match self.profiles.instance_for(devices, estimator, Some(now)) {
                Ok(resolved) => resolved,
                Err(e) => {
                    self.metrics.errors.inc();
                    return Planned::Now(Err(ServiceError::BadRequest(e)));
                }
            };
        let stale_profiles = staleness.iter().filter(|&&lambda| lambda < 0.5).count();
        if stale_profiles > 0 {
            self.metrics
                .stale_profiles_served
                .add(stale_profiles as u64);
        }
        let slot = spec
            .cache_enabled()
            .then(|| self.derive_key(&instance, &spec, estimator.tag() + 1, &versions));
        let device = move |response| DevicePlanResponse {
            response,
            versions,
            stale_profiles,
            now,
        };
        let planned = match slot {
            None => self.plan_uncached(&instance, &spec, deadline),
            Some((key, fingerprint)) => {
                self.plan_via_cache(key, fingerprint, &instance, &spec, deadline, || {
                    let complete = later();
                    let device = device.clone();
                    Box::new(move |result| complete(result.map(device)))
                })
            }
        };
        planned.map(device)
    }

    /// Number of strategies currently cached.
    #[must_use]
    pub fn cached_strategies(&self) -> usize {
        self.cache.len()
    }

    /// Total cache evictions so far.
    #[must_use]
    pub fn cache_evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// Stops the worker pool (in-flight requests and scheduled
    /// checkpoints finish) and fsyncs any unsynced WAL tail, so a
    /// clean shutdown loses nothing even under `--fsync interval` /
    /// `never`. Later calls to [`PagerService::plan`] on the cacheable
    /// path fail fast.
    pub fn shutdown(&self) {
        self.dispatcher.shutdown();
        if let Some(durable) = &self.durable {
            let _ = durable.flush();
        }
    }
}

/// The callback a deferred plan answer is delivered to, exactly once.
pub(crate) type Callback<T> = Box<dyn FnOnce(Result<T, ServiceError>) + Send>;

/// How an async planning entry point ([`PagerService::plan_async`],
/// [`PagerService::plan_devices_async`]) answered.
pub(crate) enum Planned<T> {
    /// Answered during the call: a cache hit, a cheap greedy solve, or an
    /// error found before any solve.
    Now(Result<T, ServiceError>),
    /// Admitted to the worker pool (or shed there): the callback the
    /// caller's `later` built receives the answer.
    Later,
    /// An uncacheable solve the cost gate keeps off the calling thread: run the
    /// job where blocking is allowed.
    Blocking(Box<dyn FnOnce() -> Result<T, ServiceError> + Send>),
}

impl<T: 'static> Planned<T> {
    /// Maps the answer, whenever it is produced.
    fn map<U>(self, f: impl FnOnce(T) -> U + Send + 'static) -> Planned<U> {
        match self {
            Planned::Now(result) => Planned::Now(result.map(f)),
            Planned::Later => Planned::Later,
            Planned::Blocking(job) => Planned::Blocking(Box::new(move || job().map(f))),
        }
    }
}

/// A freshly solved plan's response.
fn fresh(plan: Arc<Plan>) -> PlanResponse {
    PlanResponse {
        plan,
        cached: false,
        coalesced: false,
    }
}

/// A callback that sends the answer down a channel whose receiver it
/// leaves in `reply`: the blocking API is the callback API plus a
/// channel, made only when the answer is deferred.
fn reply_to<T: Send + 'static>(
    reply: &mut Option<mpsc::Receiver<Result<T, ServiceError>>>,
) -> Callback<T> {
    let (tx, rx) = mpsc::channel();
    *reply = Some(rx);
    Box::new(move |result| {
        let _ = tx.send(result);
    })
}

/// Finishes an async planning call on the calling thread: runs a
/// blocking job here, or waits for a deferred answer on `reply`.
fn wait_for<T>(
    planned: Planned<T>,
    reply: Option<mpsc::Receiver<Result<T, ServiceError>>>,
) -> Result<T, ServiceError> {
    match planned {
        Planned::Now(result) => result,
        Planned::Blocking(job) => job(),
        Planned::Later => reply
            .and_then(|rx| rx.recv().ok())
            .ok_or_else(|| ServiceError::Internal("worker pool dropped the request".into()))?,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{solve_cost, INLINE_SOLVE_OPS};
    use pager_core::Delay;

    fn service() -> PagerService {
        PagerService::new(ServiceConfig {
            workers: 4,
            shards: 4,
            capacity: 64,
            ..ServiceConfig::default()
        })
    }

    /// One counter from the full metrics dump.
    fn dumped(svc: &PagerService, key: &str) -> u64 {
        svc.metrics_json().get(key).and_then(Value::as_u64).unwrap()
    }

    fn inst() -> Instance {
        Instance::from_rows(vec![vec![0.4, 0.3, 0.2, 0.1], vec![0.25, 0.25, 0.25, 0.25]]).unwrap()
    }

    #[test]
    fn key_fingerprints_match_the_v2_view_and_are_pinned() {
        use pager_wire::binary::encode_plan_request;
        use pager_wire::frame::{self, Split};
        let svc = service();
        let grid = svc.config.grid;
        for variant in [Variant::Auto, Variant::Exact, Variant::Bandwidth(2)] {
            let spec = PlanSpec::new(Delay::new(2).unwrap()).with_variant(variant);
            let mut out = Vec::new();
            assert!(encode_plan_request(&mut out, &Value::Null, &inst(), &spec));
            let Split::V2Frame { payload, .. } = frame::split(&out) else {
                panic!("expected a v2 frame");
            };
            let view = pager_wire::PlanFrameView::parse(payload).unwrap();
            let (_, fp) = svc.derive_key(&inst(), &spec, 0, &[]);
            assert_eq!(view.instance_fingerprint(grid), inst().fingerprint64(grid));
            assert_eq!(view.request_fingerprint(grid), fp, "{variant:?}");
        }
        // The profile-driven path folds the estimator and versions too.
        let spec = PlanSpec::new(Delay::new(3).unwrap());
        let (_, fp) = svc.derive_key(&inst(), &spec, 2, &[5, 9]);
        assert_eq!(fp, 0x71ba_20c1_499e_aec3);
    }

    #[test]
    fn second_identical_request_hits_cache() {
        let svc = service();
        let spec = PlanSpec::new(Delay::new(2).unwrap());
        let first = svc.plan(&inst(), spec).unwrap();
        assert!(!first.cached);
        let second = svc.plan(&inst(), spec).unwrap();
        assert!(second.cached);
        assert!(Arc::ptr_eq(&first.plan, &second.plan), "same shared plan");
        assert_eq!(svc.metrics().cache_hits.get(), 1);
        assert_eq!(svc.metrics().cache_misses.get(), 1);
        assert_eq!(svc.metrics().requests.get(), 2);
    }

    #[test]
    fn nearby_instances_share_cache_entries() {
        let svc = service();
        let spec = PlanSpec::new(Delay::new(2).unwrap());
        let a = Instance::from_rows(vec![vec![0.50001, 0.49999]]).unwrap();
        let b = Instance::from_rows(vec![vec![0.49999, 0.50001]]).unwrap();
        assert!(!svc.plan(&a, spec).unwrap().cached);
        assert!(svc.plan(&b, spec).unwrap().cached);
    }

    #[test]
    fn different_delay_or_variant_miss() {
        let svc = service();
        let d2 = Delay::new(2).unwrap();
        let d3 = Delay::new(3).unwrap();
        svc.plan(&inst(), PlanSpec::new(d2)).unwrap();
        let other_delay = svc.plan(&inst(), PlanSpec::new(d3)).unwrap();
        assert!(!other_delay.cached);
        let forced_greedy = svc
            .plan(&inst(), PlanSpec::new(d2).with_variant(Variant::Greedy))
            .unwrap();
        assert!(!forced_greedy.cached);
    }

    #[test]
    fn deadline_is_not_part_of_the_key() {
        let svc = service();
        let d = Delay::new(2).unwrap();
        let patient = PlanSpec::new(d).with_deadline_ms(60_000);
        let hurried = PlanSpec::new(d).with_deadline_ms(17);
        assert_eq!(
            svc.cache_key(&inst(), &patient),
            svc.cache_key(&inst(), &hurried)
        );
        assert!(!svc.plan(&inst(), patient).unwrap().cached);
        assert!(svc.plan(&inst(), hurried).unwrap().cached);
    }

    #[test]
    fn uncached_requests_bypass_cache() {
        let svc = service();
        let spec = PlanSpec::new(Delay::new(2).unwrap()).with_cache(false);
        svc.plan(&inst(), spec).unwrap();
        svc.plan(&inst(), spec).unwrap();
        assert_eq!(svc.cached_strategies(), 0);
        assert_eq!(svc.metrics().cache_hits.get(), 0);
    }

    #[test]
    fn errors_are_counted_and_not_cached() {
        let svc = service();
        let spec = PlanSpec::new(Delay::new(2).unwrap()).with_variant(Variant::Signature(99));
        assert!(svc.plan(&inst(), spec).is_err());
        assert!(svc.plan(&inst(), spec).is_err());
        assert_eq!(svc.metrics().errors.get(), 2);
        assert_eq!(svc.cached_strategies(), 0);
    }

    #[test]
    fn concurrent_identical_requests_coalesce_or_hit() {
        let svc = Arc::new(service());
        let spec = PlanSpec::new(Delay::new(3).unwrap());
        // A moderately expensive exact instance so requests overlap.
        let heavy = Instance::uniform(3, 10).unwrap();
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let svc = Arc::clone(&svc);
                let heavy = heavy.clone();
                std::thread::spawn(move || svc.plan(&heavy, spec).unwrap())
            })
            .collect();
        let responses: Vec<PlanResponse> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let baseline = &responses[0].plan;
        for r in &responses {
            assert_eq!(r.plan.strategy, baseline.strategy);
            assert_eq!(r.plan.expected_paging, baseline.expected_paging);
        }
        let m = svc.metrics();
        assert_eq!(m.requests.get(), 16);
        // Every request either hit the cache or missed (and the
        // misses were deduped down to one stored strategy).
        assert_eq!(m.cache_hits.get() + m.cache_misses.get(), 16);
        assert_eq!(svc.cached_strategies(), 1);
    }

    #[test]
    fn shutdown_fails_fast() {
        let svc = service();
        svc.shutdown();
        let err = svc.plan(&inst(), PlanSpec::new(Delay::new(2).unwrap()));
        assert!(err.is_err());
    }

    /// A `later` factory for tests: the deferred answer arrives on
    /// `rx`, and `asked` records that a callback was requested.
    fn deferred_to(
        tx: &mpsc::Sender<Result<PlanResponse, ServiceError>>,
        asked: &mut bool,
    ) -> Callback<PlanResponse> {
        *asked = true;
        let tx = tx.clone();
        Box::new(move |result| {
            let _ = tx.send(result);
        })
    }

    fn greedy(devices: usize, cells: usize, delay: usize) -> (Instance, PlanSpec) {
        let spec = PlanSpec::new(Delay::new(delay).unwrap()).with_variant(Variant::Greedy);
        (Instance::uniform(devices, cells).unwrap(), spec)
    }

    #[test]
    fn a_cheap_miss_is_answered_before_plan_async_returns() {
        let svc = service();
        let (tx, _rx) = mpsc::channel();
        let mut asked = false;
        let spec = PlanSpec::new(Delay::new(2).unwrap()).with_variant(Variant::Greedy);
        let planned = svc.plan_async(&inst(), spec, || deferred_to(&tx, &mut asked));
        let Planned::Now(Ok(first)) = planned else {
            panic!("a cheap miss must be answered during the call");
        };
        assert!(!asked, "no deferred callback for an inline solve");
        assert!(!first.cached && !first.coalesced);
        let Planned::Now(Ok(again)) =
            svc.plan_async(&inst(), spec, || deferred_to(&tx, &mut asked))
        else {
            panic!("a cache hit must be answered during the call");
        };
        assert!(again.cached);
        assert!(Arc::ptr_eq(&first.plan, &again.plan));
        assert!(!asked);
    }

    #[test]
    fn a_cheap_miss_skips_the_admission_queue() {
        let svc = service();
        let (instance, spec) = greedy(3, 16, 4);
        assert_eq!(
            solve_cost(&instance, spec.delay(), spec.variant(), &svc.config.policy),
            Some(16 * (3 + 4 * 16))
        );
        let waited = svc.metrics().queue_wait.count();
        let served = svc.plan(&instance, spec).unwrap();
        assert!(!served.cached);
        assert_eq!(svc.metrics().solved_inline.get(), 1);
        assert_eq!(svc.metrics().cache_misses.get(), 1);
        assert_eq!(svc.metrics().queue_wait.count(), waited, "never queued");
        assert_eq!(dumped(&svc, "solved_inline"), 1);
    }

    #[test]
    fn one_operation_over_the_bound_goes_through_the_dispatcher() {
        let svc = service();
        let policy = svc.config.policy;
        // 16·(16 + 15·16) = 4096: exactly the bound, solved inline.
        let (at, at_spec) = greedy(16, 16, 15);
        assert_eq!(
            solve_cost(&at, at_spec.delay(), at_spec.variant(), &policy),
            Some(INLINE_SOLVE_OPS)
        );
        // 17·(3 + 14·17) = 4097: one operation over.
        let (over, over_spec) = greedy(3, 17, 14);
        assert_eq!(
            solve_cost(&over, over_spec.delay(), over_spec.variant(), &policy),
            Some(INLINE_SOLVE_OPS + 1)
        );
        let (tx, rx) = mpsc::channel();
        let mut asked = false;
        let planned = svc.plan_async(&at, at_spec, || deferred_to(&tx, &mut asked));
        assert!(matches!(planned, Planned::Now(Ok(_))) && !asked);
        let planned = svc.plan_async(&over, over_spec, || deferred_to(&tx, &mut asked));
        assert!(matches!(planned, Planned::Later) && asked);
        let served = rx.recv().unwrap().unwrap();
        assert!(!served.cached);
        assert_eq!(served.plan.strategy.num_cells(), 17);
        assert_eq!(svc.metrics().solved_inline.get(), 1);
        assert_eq!(svc.metrics().queue_wait.count(), 1, "one dequeue");
    }

    #[test]
    fn exact_plans_never_run_inline() {
        let svc = service();
        let policy = svc.config.policy;
        // Six cells under delay 5 price d·3^c at 3,645, within the
        // bound, but a thousand devices add m·2^c = 64,000 more.
        let wide = Instance::uniform(1_000, 6).unwrap();
        let d5 = Delay::new(5).unwrap();
        assert!(solve_cost(&wide, d5, Variant::Exact, &policy).unwrap() > INLINE_SOLVE_OPS);
        // The auto variant picks the exact tier for this small one.
        let d2 = Delay::new(2).unwrap();
        assert!(solve_cost(&inst(), d2, Variant::Auto, &policy).unwrap() <= INLINE_SOLVE_OPS);
        let cases = [
            (wide, PlanSpec::new(d5).with_variant(Variant::Exact)),
            (inst(), PlanSpec::new(d2)),
        ];
        for (instance, spec) in cases {
            let (tx, rx) = mpsc::channel();
            let mut asked = false;
            let planned = svc.plan_async(&instance, spec, || deferred_to(&tx, &mut asked));
            assert!(matches!(planned, Planned::Later) && asked);
            assert_eq!(rx.recv().unwrap().unwrap().plan.tier, crate::Tier::Exact);
            let planned = svc.plan_async(&instance, spec.with_cache(false), || {
                deferred_to(&tx, &mut asked)
            });
            let Planned::Blocking(job) = planned else {
                panic!("an uncached exact plan must be a blocking job");
            };
            assert!(job().is_ok());
        }
        assert_eq!(svc.metrics().solved_inline.get(), 0);
    }

    #[test]
    fn bandwidth_and_signature_plans_never_run_inline() {
        let svc = service();
        let policy = svc.config.policy;
        let d2 = Delay::new(2).unwrap();
        for variant in [Variant::Bandwidth(2), Variant::Signature(1)] {
            let spec = PlanSpec::new(d2).with_variant(variant);
            assert_eq!(solve_cost(&inst(), d2, variant, &policy), None);
            let (tx, rx) = mpsc::channel();
            let mut asked = false;
            let planned = svc.plan_async(&inst(), spec, || deferred_to(&tx, &mut asked));
            assert!(matches!(planned, Planned::Later) && asked, "{variant:?}");
            assert!(rx.recv().unwrap().is_ok());
            // Uncacheable: handed back for a thread that may block.
            let planned = svc.plan_async(&inst(), spec.with_cache(false), || {
                deferred_to(&tx, &mut asked)
            });
            let Planned::Blocking(job) = planned else {
                panic!("{variant:?} uncached must be a blocking job");
            };
            assert!(job().is_ok());
        }
        assert_eq!(svc.metrics().solved_inline.get(), 0);
    }

    #[test]
    fn a_downgraded_plan_is_not_cached() {
        // Past the bound and big enough for a DP checkpoint: the
        // worker's solve is cancelled and downgraded to greedy.
        let svc = service();
        let heavy = Instance::uniform(2, 15).unwrap();
        let spec = PlanSpec::new(Delay::new(3).unwrap())
            .with_variant(Variant::Exact)
            .with_deadline_ms(0);
        let served = svc.plan(&heavy, spec).unwrap();
        assert!(served.plan.downgraded);
        assert_eq!(svc.cached_strategies(), 0);
        assert!(svc.plan(&heavy, spec).unwrap().plan.downgraded);
        // The same holds for the cheap path's solve, which shares it.
        let metrics = Metrics::default();
        let (key, fingerprint) = svc.derive_key(&heavy, &spec, 0, &[]);
        let fresh = pool::solve(
            &heavy,
            spec.delay(),
            Variant::Exact,
            Deadline::in_ms(0),
            &svc.config.policy,
            &metrics,
            Some((&*svc.cache, fingerprint, key)),
        )
        .unwrap();
        assert!(fresh.downgraded);
        assert_eq!(svc.cached_strategies(), 0);
        assert_eq!(metrics.deadline_downgrades.get(), 1);
    }

    fn sighting(device: &str, cell: usize, time: f64) -> pager_profiles::Sighting {
        pager_profiles::Sighting {
            device: device.to_string(),
            cell,
            time,
        }
    }

    #[test]
    fn observe_then_plan_devices_round_trip() {
        let svc = service();
        let batch: Vec<_> = (0..30u32)
            .flat_map(|t| {
                vec![
                    sighting("a", (t % 4) as usize, f64::from(t)),
                    sighting("b", 0, f64::from(t)),
                ]
            })
            .collect();
        svc.observe(4, &batch).unwrap();
        assert_eq!(dumped(&svc, "sightings_ingested"), 60);
        let spec = PlanSpec::new(Delay::new(2).unwrap());
        let served = svc
            .plan_devices(&["a", "b"], Estimator::Empirical, None, spec)
            .unwrap();
        assert!(!served.response.cached);
        assert_eq!(served.versions.len(), 2);
        assert_eq!(served.stale_profiles, 0);
        assert_eq!(served.now, 29.0);
        // Identical request: same versions, served from cache.
        let again = svc
            .plan_devices(&["a", "b"], Estimator::Empirical, None, spec)
            .unwrap();
        assert!(again.response.cached);
        assert_eq!(again.versions, served.versions);
        // Unknown device errors and is counted.
        let ghost = svc.plan_devices(&["ghost"], Estimator::Empirical, None, spec);
        assert_eq!(
            ghost.err().map(|e| e.code()),
            Some("bad_request"),
            "unknown devices are the client's fault"
        );
        assert!(svc.metrics().errors.get() >= 1);
        // A one-device store evicts "a" to admit "b".
        let tiny = PagerService::new(ServiceConfig {
            workers: 1,
            profiles: StoreConfig {
                capacity: 1,
                shards: 1,
                ..StoreConfig::default()
            },
            ..ServiceConfig::default()
        });
        tiny.observe(4, &[sighting("a", 0, 1.0), sighting("b", 1, 2.0)])
            .unwrap();
        assert_eq!(dumped(&tiny, "profile_evictions"), 1);
    }

    #[test]
    fn profile_update_invalidates_cached_plan() {
        let svc = service();
        for t in 0..20u32 {
            svc.observe(
                3,
                &[
                    sighting("a", (t % 3) as usize, f64::from(t)),
                    sighting("b", 1, f64::from(t)),
                ],
            )
            .unwrap();
        }
        let spec = PlanSpec::new(Delay::new(2).unwrap());
        let first = svc
            .plan_devices(&["a", "b"], Estimator::Empirical, Some(19.0), spec)
            .unwrap();
        // One more sighting for "b": its version bumps, so the same
        // request keys a different cache slot even if the quantised
        // rows coincide.
        svc.observe(3, &[sighting("b", 1, 19.5)]).unwrap();
        let second = svc
            .plan_devices(&["a", "b"], Estimator::Empirical, Some(19.0), spec)
            .unwrap();
        assert!(second.versions[1] > first.versions[1]);
        assert!(!second.response.cached, "stale plan must not be served");
        // Different estimators never share cache entries either.
        let markov = svc
            .plan_devices(&["a", "b"], Estimator::Markov, Some(19.0), spec)
            .unwrap();
        assert!(!markov.response.cached);
    }

    fn durable_config(io: Arc<dyn StorageIo>, checkpoint_every: u64) -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            durability: Some(DurabilityOptions {
                data_dir: "/svc-data".into(),
                fsync: FsyncPolicy::Always,
                checkpoint_every,
                retain_wal: 0,
                io: Some(io),
            }),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn durable_observe_survives_service_restart() {
        let mem = Arc::new(pager_profiles::io::MemIo::new());
        {
            let svc = PagerService::try_new(durable_config(
                Arc::<pager_profiles::io::MemIo>::clone(&mem),
                0,
            ))
            .unwrap();
            svc.observe(4, &[sighting("a", 1, 1.0), sighting("b", 2, 2.0)])
                .unwrap();
            assert!(dumped(&svc, "wal_appends") >= 2);
            assert!(dumped(&svc, "wal_fsyncs") >= 1);
            svc.shutdown();
        }
        mem.crash(17);
        // A torn frame header after the last acked record: recovery
        // replays both records and zeroes the torn bytes.
        let data = std::path::Path::new("/svc-data");
        let wal = mem
            .list(data)
            .unwrap()
            .into_iter()
            .find(|n| n.starts_with("wal."))
            .map(|name| data.join(name))
            .unwrap();
        let end = pager_profiles::wal::scan(&mem.read(&wal).unwrap()).valid_len;
        mem.write_at(&wal, end, &[0xFF; 5]).unwrap();
        let svc = PagerService::try_new(durable_config(
            Arc::<pager_profiles::io::MemIo>::clone(&mem),
            0,
        ))
        .unwrap();
        let report = svc.recovery().unwrap();
        assert_eq!(report.recovered_records, 2);
        assert_eq!(dumped(&svc, "wal_recovered_records"), 2);
        assert!(report.truncated_bytes > 0);
        assert_eq!(dumped(&svc, "wal_truncated_bytes"), report.truncated_bytes);
        // The recovered profiles plan.
        let spec = PlanSpec::new(Delay::new(2).unwrap());
        let served = svc
            .plan_devices(&["a", "b"], Estimator::Empirical, None, spec)
            .unwrap();
        assert_eq!(served.versions.len(), 2);
    }

    #[test]
    fn degraded_disk_rejects_observes_but_keeps_planning() {
        use pager_profiles::io::{FaultKind, FaultyIo, MemIo};
        let mem = Arc::new(MemIo::new());
        // Let open() succeed, then fail a later WAL operation.
        let io: Arc<dyn StorageIo> = Arc::new(FaultyIo::new(mem, 9, FaultKind::Error, 5));
        let svc = PagerService::try_new(durable_config(io, 0)).unwrap();
        let mut degraded_error = None;
        for t in 0..8u32 {
            match svc.observe(4, &[sighting("a", (t % 4) as usize, f64::from(t))]) {
                Ok(_) => {}
                Err(e) => {
                    degraded_error = Some(e);
                    break;
                }
            }
        }
        let error = degraded_error.expect("fault never fired");
        assert_eq!(error.code(), "degraded");
        assert!(svc.degraded());
        assert_eq!(dumped(&svc, "degraded"), 1);
        // Further observes are refused with the same stable code...
        assert_eq!(
            svc.observe(4, &[sighting("a", 0, 99.0)])
                .unwrap_err()
                .code(),
            "degraded"
        );
        // ...while planning keeps serving from the in-memory profiles.
        let spec = PlanSpec::new(Delay::new(2).unwrap());
        let served = svc
            .plan_devices(&["a"], Estimator::Empirical, None, spec)
            .unwrap();
        assert!(served.response.plan.expected_paging >= 1.0);
    }

    #[test]
    fn checkpoints_run_on_the_worker_pool() {
        let mem = Arc::new(pager_profiles::io::MemIo::new());
        let svc = PagerService::try_new(durable_config(
            Arc::<pager_profiles::io::MemIo>::clone(&mem),
            4,
        ))
        .unwrap();
        for t in 0..12u32 {
            svc.observe(4, &[sighting("a", (t % 4) as usize, f64::from(t))])
                .unwrap();
        }
        // The maintenance job runs asynchronously on the pool.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while dumped(&svc, "checkpoints") == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(dumped(&svc, "checkpoints") >= 1, "checkpoint never ran");
        svc.shutdown();
        // The rotated snapshot is the recovery point.
        let names = mem.list(std::path::Path::new("/svc-data")).unwrap();
        assert!(
            names.iter().any(|n| n.starts_with("snapshot.")),
            "{names:?}"
        );
    }

    #[test]
    fn stale_profiles_are_counted() {
        let svc = service();
        svc.observe(3, &[sighting("a", 0, 0.0)]).unwrap();
        let spec = PlanSpec::new(Delay::new(2).unwrap());
        // Query far beyond the staleness half-life (default 256).
        let served = svc
            .plan_devices(&["a"], Estimator::Empirical, Some(10_000.0), spec)
            .unwrap();
        assert_eq!(served.stale_profiles, 1);
        assert_eq!(svc.metrics().stale_profiles_served.get(), 1);
    }
}
