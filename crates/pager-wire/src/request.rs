//! The typed request surface: everything a client can ask for, in one
//! enum, independent of how it arrived (v1 JSON line or v2 binary
//! frame).

use jsonio::Value;
use pager_core::fingerprint::fnv1a64;
use pager_core::{Delay, Instance};
use pager_profiles::{Estimator, Sighting};

/// What kind of plan a request wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Let the planner pick: exact when affordable, greedy otherwise.
    Auto,
    /// Force the exact optimum (errors on instances beyond its reach).
    Exact,
    /// Force the Fig. 1 greedy approximation.
    Greedy,
    /// Bandwidth-limited paging: at most `b` cells per round.
    Bandwidth(usize),
    /// Signature problem: stop once `k` of the `m` devices are found.
    Signature(usize),
}

impl Variant {
    /// Stable name for keys/metrics/wire.
    #[must_use]
    pub(crate) fn name(self) -> &'static str {
        match self {
            Variant::Auto => "auto",
            Variant::Exact => "exact",
            Variant::Greedy => "greedy",
            Variant::Bandwidth(_) => "bandwidth",
            Variant::Signature(_) => "signature",
        }
    }

    /// The word this variant contributes to a cache fingerprint: the
    /// discriminant in the high half, the parameter in the low half.
    /// Frozen — both the service's key derivation and the binary
    /// codec's frame-side fingerprint fold this in.
    #[must_use]
    pub(crate) fn cache_tag(self) -> u64 {
        match self {
            Variant::Auto => 0,
            Variant::Exact => 1 << 32,
            Variant::Greedy => 2 << 32,
            Variant::Bandwidth(b) => (3 << 32) | b as u64,
            Variant::Signature(k) => (4 << 32) | k as u64,
        }
    }
}

/// Folds the non-instance parts of a plan-cache key into an instance
/// fingerprint: the delay, the variant's `Variant::cache_tag`, the
/// estimator tag (0 for matrix requests) and any profile versions.
/// Frozen: the service keys its cache with this, and a v2 plan frame
/// reaches the same value without materialising a request.
#[inline]
#[must_use]
pub fn fold_cache_key(
    instance_fp: u64,
    delay: u64,
    variant: Variant,
    estimator: u64,
    versions: &[u64],
) -> u64 {
    [delay, variant.cache_tag(), estimator]
        .iter()
        .chain(versions)
        .fold(instance_fp, |fp, word| fnv1a64(fp, &word.to_le_bytes()))
}

/// Everything one planning request asks for, in one typed value.
///
/// A spec carries the delay bound, the solver [`Variant`], the cache
/// opt-out, and the deadline budget; the service entry points and both
/// codecs all construct one, so the cache key is derived from it in
/// exactly one place.
///
/// # Examples
///
/// ```
/// use pager_core::Delay;
/// use pager_wire::{PlanSpec, Variant};
///
/// let spec = PlanSpec::new(Delay::new(3)?)
///     .with_variant(Variant::Greedy)
///     .with_deadline_ms(250);
/// assert_eq!(spec.variant(), Variant::Greedy);
/// assert_eq!(spec.deadline_ms(), Some(250));
/// assert!(spec.cache_enabled());
/// # Ok::<(), pager_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanSpec {
    delay: Delay,
    variant: Variant,
    cache: bool,
    deadline_ms: Option<u64>,
}

impl PlanSpec {
    /// A spec with the given delay bound and the defaults: `Auto`
    /// variant, caching on, server-default deadline.
    #[must_use]
    pub fn new(delay: Delay) -> PlanSpec {
        PlanSpec {
            delay,
            variant: Variant::Auto,
            cache: true,
            deadline_ms: None,
        }
    }

    /// Selects the solver variant.
    #[must_use]
    pub fn with_variant(mut self, variant: Variant) -> PlanSpec {
        self.variant = variant;
        self
    }

    /// Opts in or out of the strategy cache.
    #[must_use]
    pub fn with_cache(mut self, cache: bool) -> PlanSpec {
        self.cache = cache;
        self
    }

    /// Sets an explicit deadline budget, overriding the server
    /// default.
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> PlanSpec {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// The delay bound (maximum paging rounds).
    #[must_use]
    pub fn delay(&self) -> Delay {
        self.delay
    }

    /// The requested solver variant.
    #[must_use]
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Whether this request may read/populate the strategy cache.
    #[must_use]
    pub fn cache_enabled(&self) -> bool {
        self.cache
    }

    /// The explicit deadline budget, if any (`None` defers to the
    /// server default).
    #[must_use]
    pub fn deadline_ms(&self) -> Option<u64> {
        self.deadline_ms
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Plan a strategy.
    Plan {
        /// Opaque id echoed back in the response.
        id: Value,
        /// The instance to plan for.
        instance: Instance,
        /// What to plan: delay, variant, cache opt-out, deadline.
        spec: PlanSpec,
    },
    /// Ingest a batch of device sightings into the profile store.
    Observe {
        /// Number of cells the sighted area has.
        cells: usize,
        /// The sightings, in order.
        sightings: Vec<Sighting>,
    },
    /// Plan a strategy for named devices out of the profile store.
    PlanDevices {
        /// Opaque id echoed back in the response.
        id: Value,
        /// Device ids to establish the call for.
        devices: Vec<String>,
        /// Which estimator turns profiles into rows.
        estimator: Estimator,
        /// Clock to evaluate distributions at (default: latest
        /// ingested sighting time).
        now: Option<f64>,
        /// What to plan: delay, variant, cache opt-out, deadline.
        spec: PlanSpec,
    },
    /// Dump the profile store's counters.
    ProfileStats,
    /// Report node identity, membership epoch, and WAL generation.
    NodeInfo,
    /// Dump the metrics registry wrapped with node identity (the
    /// cluster-facing form of `Metrics`).
    Stats,
    /// Adopt a membership epoch (monotone; lower values are no-ops).
    Epoch {
        /// The epoch to adopt.
        epoch: u64,
    },
    /// Dump the metrics registry.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Stop the server.
    Shutdown,
}

/// A request plus what a cluster router reads from the same line: the
/// `id` its answers echo, and the routing hints (`route_key`, and the
/// `deadline_ms` already inside the spec). Decoding this alongside
/// [`Request`] keeps the router free of its own field extraction.
#[derive(Debug, Clone)]
pub struct RoutedRequest {
    /// The line's `id` (`Value::Null` when absent).
    pub id: Value,
    /// The typed request.
    pub request: Request,
    /// Explicit routing key (`"route_key"`), overriding the
    /// payload-derived key.
    pub route_key: Option<String>,
    /// The request's own deadline budget, if it carried one
    /// (`deadline_ms` for planning ops).
    pub deadline_ms: Option<u64>,
}
