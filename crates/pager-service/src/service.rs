//! The planning service façade: cache → coalesce → plan.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pager_core::Instance;
use pager_profiles::io::{DiskIo, StorageIo};
use pager_profiles::{
    DurabilityConfig, DurableError, DurableStore, Estimator, FsyncPolicy, ProfileStore,
    RecoveryReport, Sighting, StoreConfig, Time, WalSegment,
};

use crate::cache::ShardedCache;
use crate::deadline::Deadline;
use crate::error::ServiceError;
use crate::metrics::Metrics;
use crate::planner::{plan, Plan, TierPolicy, Variant};
use crate::pool::{Dispatcher, Waiter};

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
        if let Some(report) = &recovery {
            self_mirror_recovery(&metrics, report);
        }
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

    /// Live metrics (shared; read with `Metrics::get` or dump with
    /// `Metrics::to_json`).
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
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
    /// `wal_apply` wire op), one record at a time in frame order.
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
        let mut records = 0u64;
        for record in &scan.records {
            let sighting = Sighting {
                device: record.device.clone(),
                cell: record.cell,
                time: record.time,
            };
            self.observe(record.cells, &[sighting])?;
            records += 1;
        }
        Ok(WalApplyOutcome {
            records,
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
        let mut fp = instance.fingerprint64(self.config.grid);
        // Fold the non-instance key parts in FNV-style.
        let words = [
            spec.delay().get() as u64,
            spec.variant().cache_tag(),
            estimator,
        ]
        .into_iter()
        .chain(versions.iter().copied());
        for word in words {
            for byte in word.to_le_bytes() {
                fp ^= u64::from(byte);
                fp = fp.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        (key, fp)
    }

    /// Materialises the request's deadline budget (or the server
    /// default) into an absolute instant at admission, so queueing
    /// time counts against it.
    fn admit(&self, spec: &PlanSpec) -> Deadline {
        Deadline::from_budget_ms(spec.deadline_ms().or(self.config.default_deadline_ms))
    }

    /// Inline planning on the caller thread: the pool exists to dedupe
    /// identical work, and uncacheable work cannot be deduped.
    fn plan_inline(
        &self,
        instance: &Instance,
        spec: &PlanSpec,
        deadline: Deadline,
    ) -> Result<PlanResponse, ServiceError> {
        let token = deadline.token();
        let fresh = plan(
            instance,
            spec.delay(),
            spec.variant(),
            &self.config.policy,
            &token,
        )
        .inspect_err(|_| Metrics::inc(&self.metrics.errors))?;
        if fresh.downgraded {
            Metrics::inc(&self.metrics.deadline_downgrades);
        }
        if deadline.expired() {
            Metrics::inc(&self.metrics.deadline_misses);
        }
        self.metrics
            .tier_latency(fresh.tier)
            .record(fresh.planning_micros);
        Ok(PlanResponse {
            plan: Arc::new(fresh),
            cached: false,
            coalesced: false,
        })
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
        wait_for(|done| self.plan_async(instance, spec, done))
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
        Metrics::inc(&self.metrics.requests);
        Metrics::inc(&self.metrics.cache_hits);
        Some(PlanResponse {
            plan: hit,
            cached: true,
            coalesced: false,
        })
    }

    /// [`PagerService::plan`] without blocking the calling thread:
    /// `complete` is invoked exactly once — synchronously on this
    /// thread for cache hits, shed requests and inline (uncacheable)
    /// work, or later on a worker thread when the job was enqueued or
    /// coalesced. The transport engine's shards live on this.
    pub fn plan_async(
        &self,
        instance: &Instance,
        spec: PlanSpec,
        complete: Box<dyn FnOnce(Result<PlanResponse, ServiceError>) + Send>,
    ) {
        Metrics::inc(&self.metrics.requests);
        let deadline = self.admit(&spec);
        if !spec.cache_enabled() {
            complete(self.plan_inline(instance, &spec, deadline));
            return;
        }
        let (key, fingerprint) = self.derive_key(instance, &spec, 0, &[]);
        self.plan_via_cache(key, fingerprint, instance, &spec, deadline, complete);
    }

    /// Cacheable async path shared by [`PagerService::plan_async`] and
    /// [`PagerService::plan_devices_async`]. Exactly-once delivery
    /// relies on the dispatcher contract: `Dispatcher::submit` either keeps
    /// the waiter (worker delivers) or fails it before returning
    /// `Err`.
    fn plan_via_cache(
        &self,
        key: PlanKey,
        fingerprint: u64,
        instance: &Instance,
        spec: &PlanSpec,
        deadline: Deadline,
        complete: Box<dyn FnOnce(Result<PlanResponse, ServiceError>) + Send>,
    ) {
        if let Some(hit) = self.cache.get(fingerprint, &key) {
            Metrics::inc(&self.metrics.cache_hits);
            complete(Ok(PlanResponse {
                plan: hit,
                cached: true,
                coalesced: false,
            }));
            return;
        }
        Metrics::inc(&self.metrics.cache_misses);
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
            Ok(true) => Metrics::inc(&self.metrics.coalesced),
            Ok(false) => {}
            // The dispatcher already delivered the error to the
            // waiter (shed accounting included) — nothing more here.
            Err(_) => {}
        }
    }

    /// Ingests a batch of sightings into the profile store, returning
    /// `(device, new version)` per sighting. Metrics mirror the
    /// store's ingest/eviction counters after the batch.
    ///
    /// # Errors
    ///
    /// The first offending sighting's message (earlier sightings in
    /// the batch have been ingested — append-only, no rollback).
    pub fn observe(
        &self,
        cells: usize,
        sightings: &[Sighting],
    ) -> Result<Vec<(String, u64)>, ServiceError> {
        let result = match &self.durable {
            None => self
                .profiles
                .observe_batch(cells, sightings)
                .map_err(ServiceError::BadRequest),
            // Durable path: the batch is applied, WAL-appended, and
            // (per policy) fsynced before this returns — an Ok here is
            // the acked-write guarantee.
            Some(durable) => durable
                .observe_batch(cells, sightings)
                .map_err(|e| match e {
                    DurableError::Rejected(m) => ServiceError::BadRequest(m),
                    DurableError::Degraded(m) => ServiceError::Degraded(m),
                }),
        };
        let stats = self.profiles.stats();
        self.metrics
            .sightings_ingested
            // lint:allow(atomics-ordering-audit): metrics mirror of store stats, no handoff
            .store(stats.sightings, Ordering::Relaxed);
        self.metrics
            .profile_evictions
            // lint:allow(atomics-ordering-audit): metrics mirror of store stats, no handoff
            .store(stats.evictions, Ordering::Relaxed);
        if let Some(durable) = &self.durable {
            mirror_durability(&self.metrics, durable);
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
        let metrics = Arc::clone(&self.metrics);
        let accepted = self.dispatcher.submit_maintenance(Box::new(move || {
            // A failed checkpoint flips the store to degraded; the
            // mirror below surfaces it on the gauge either way.
            let _ = durable_job.checkpoint();
            mirror_durability(&metrics, &durable_job);
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
        wait_for(|done| self.plan_devices_async(devices, estimator, now, spec, done))
    }

    /// [`PagerService::plan_devices`] without blocking the calling
    /// thread; same exactly-once `complete` contract as
    /// [`PagerService::plan_async`]. Profile resolution (cheap, pure
    /// in-memory) still happens on the calling thread; only the solve
    /// is deferred.
    pub fn plan_devices_async(
        &self,
        devices: &[&str],
        estimator: Estimator,
        now: Option<Time>,
        spec: PlanSpec,
        complete: Box<dyn FnOnce(Result<DevicePlanResponse, ServiceError>) + Send>,
    ) {
        Metrics::inc(&self.metrics.requests);
        let deadline = self.admit(&spec);
        let now = match now.or_else(|| self.profiles.latest_time()) {
            Some(now) => now,
            None => {
                Metrics::inc(&self.metrics.errors);
                complete(Err(ServiceError::BadRequest(
                    "store has no sightings and no \"now\" was given".into(),
                )));
                return;
            }
        };
        let (instance, versions, staleness) =
            match self.profiles.instance_for(devices, estimator, Some(now)) {
                Ok(resolved) => resolved,
                Err(e) => {
                    Metrics::inc(&self.metrics.errors);
                    complete(Err(ServiceError::BadRequest(e)));
                    return;
                }
            };
        let stale_profiles = staleness.iter().filter(|&&lambda| lambda < 0.5).count();
        if stale_profiles > 0 {
            self.metrics
                .stale_profiles_served
                // lint:allow(atomics-ordering-audit): monotone metrics counter, no handoff
                .fetch_add(stale_profiles as u64, Ordering::Relaxed);
        }
        let key_versions = versions.clone();
        let wrap = move |result: Result<PlanResponse, ServiceError>| {
            complete(result.map(|response| DevicePlanResponse {
                response,
                versions,
                stale_profiles,
                now,
            }));
        };
        if spec.cache_enabled() {
            let (key, fingerprint) =
                self.derive_key(&instance, &spec, estimator.tag() + 1, &key_versions);
            self.plan_via_cache(key, fingerprint, &instance, &spec, deadline, Box::new(wrap));
        } else {
            wrap(self.plan_inline(&instance, &spec, deadline));
        }
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
            mirror_durability(&self.metrics, durable);
        }
    }
}

/// Runs an async planning entry point to completion on the calling
/// thread: the blocking API is the callback API plus a channel.
fn wait_for<T: Send + 'static>(
    start: impl FnOnce(Box<dyn FnOnce(Result<T, ServiceError>) + Send>),
) -> Result<T, ServiceError> {
    let (tx, rx) = std::sync::mpsc::channel();
    start(Box::new(move |result| {
        let _ = tx.send(result);
    }));
    rx.recv()
        .map_err(|_| ServiceError::Internal("worker pool dropped the request".into()))?
}

/// Copies the durable store's counters onto the service metrics (the
/// atomics are mirrors, not sources of truth).
fn mirror_durability(metrics: &Metrics, durable: &DurableStore) {
    let stats = durable.stats();
    metrics
        .wal_appends
        // lint:allow(atomics-ordering-audit): metrics mirror of durable-store stats, no handoff
        .store(stats.wal_appends, Ordering::Relaxed);
    metrics
        .wal_fsyncs
        // lint:allow(atomics-ordering-audit): metrics mirror of durable-store stats, no handoff
        .store(stats.wal_fsyncs, Ordering::Relaxed);
    metrics
        .checkpoints
        // lint:allow(atomics-ordering-audit): metrics mirror of durable-store stats, no handoff
        .store(stats.checkpoints, Ordering::Relaxed);
    metrics
        .degraded
        // lint:allow(atomics-ordering-audit): advisory gauge, no handoff
        .store(u64::from(stats.degraded), Ordering::Relaxed);
}

/// Seeds the recovery counters once at startup.
fn self_mirror_recovery(metrics: &Metrics, report: &RecoveryReport) {
    metrics
        .wal_recovered_records
        // lint:allow(atomics-ordering-audit): set once before the service is shared
        .store(report.recovered_records, Ordering::Relaxed);
    metrics
        .wal_truncated_bytes
        // lint:allow(atomics-ordering-audit): set once before the service is shared
        .store(report.truncated_bytes, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pager_core::Delay;

    fn service() -> PagerService {
        PagerService::new(ServiceConfig {
            workers: 4,
            shards: 4,
            capacity: 64,
            ..ServiceConfig::default()
        })
    }

    fn inst() -> Instance {
        Instance::from_rows(vec![vec![0.4, 0.3, 0.2, 0.1], vec![0.25, 0.25, 0.25, 0.25]]).unwrap()
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
        assert_eq!(Metrics::get(&svc.metrics().cache_hits), 1);
        assert_eq!(Metrics::get(&svc.metrics().cache_misses), 1);
        assert_eq!(Metrics::get(&svc.metrics().requests), 2);
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
        assert_eq!(Metrics::get(&svc.metrics().cache_hits), 0);
    }

    #[test]
    fn errors_are_counted_and_not_cached() {
        let svc = service();
        let spec = PlanSpec::new(Delay::new(2).unwrap()).with_variant(Variant::Signature(99));
        assert!(svc.plan(&inst(), spec).is_err());
        assert!(svc.plan(&inst(), spec).is_err());
        assert_eq!(Metrics::get(&svc.metrics().errors), 2);
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
        assert_eq!(Metrics::get(&m.requests), 16);
        // Every request either hit the cache or missed (and the
        // misses were deduped down to one stored strategy).
        assert_eq!(
            Metrics::get(&m.cache_hits) + Metrics::get(&m.cache_misses),
            16
        );
        assert_eq!(svc.cached_strategies(), 1);
    }

    #[test]
    fn shutdown_fails_fast() {
        let svc = service();
        svc.shutdown();
        let err = svc.plan(&inst(), PlanSpec::new(Delay::new(2).unwrap()));
        assert!(err.is_err());
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
        assert_eq!(Metrics::get(&svc.metrics().sightings_ingested), 60);
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
        assert!(Metrics::get(&svc.metrics().errors) >= 1);
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
            assert!(Metrics::get(&svc.metrics().wal_appends) >= 2);
            assert!(Metrics::get(&svc.metrics().wal_fsyncs) >= 1);
            svc.shutdown();
        }
        mem.crash(17);
        let svc = PagerService::try_new(durable_config(
            Arc::<pager_profiles::io::MemIo>::clone(&mem),
            0,
        ))
        .unwrap();
        let report = svc.recovery().unwrap();
        assert_eq!(report.recovered_records, 2);
        assert_eq!(Metrics::get(&svc.metrics().wal_recovered_records), 2);
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
        assert_eq!(Metrics::get(&svc.metrics().degraded), 1);
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
        while Metrics::get(&svc.metrics().checkpoints) == 0 && std::time::Instant::now() < deadline
        {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(
            Metrics::get(&svc.metrics().checkpoints) >= 1,
            "checkpoint never ran"
        );
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
        assert_eq!(Metrics::get(&svc.metrics().stale_profiles_served), 1);
    }
}
