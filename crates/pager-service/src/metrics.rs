//! Lock-free metrics: one vocabulary for the service and the router.
//!
//! A [`Counter`] is a relaxed `AtomicU64` and a [`LatencyHistogram`]
//! is log₂-bucketed over microseconds, so the hot path never takes a
//! lock to record. A registry struct is declared once with
//! [`registry!`](crate::registry): each metric's name and doc appear in
//! one line, and the macro writes both the field and its entry in the
//! JSON dump ([`jsonio`]). `Metrics` here and the router's counters in
//! `pager-cluster` are both declared that way. Values other objects
//! own — cache evictions, profile-store and WAL stats — are not copied
//! into a registry; [`crate::PagerService::metrics_json`] reads them
//! from their owners at dump time.

use std::sync::atomic::{AtomicU64, Ordering};

use jsonio::Value;

use crate::planner::Tier;

/// A monotone counter or advisory gauge. Relaxed is enough: no other
/// memory access is ordered by a metric.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts one, saturating at zero: a gauge is advisory, so a
    /// lost race simply under-reports momentarily.
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A metric's entry in a JSON dump.
pub trait Metric {
    /// The metric's current value as JSON.
    fn to_json(&self) -> Value;
}

/// A registry dump: each metric's name and value, in declaration
/// order (what [`registry!`](crate::registry) structs' `entries`
/// return).
pub type Dump = Vec<(&'static str, Value)>;

impl Metric for Counter {
    fn to_json(&self) -> Value {
        Value::from(self.get())
    }
}

/// Declares a metrics registry: a `Default` struct whose fields are
/// [`Metric`]s, each written once with its doc comment, plus an
/// `entries` method dumping every field under its own name.
///
/// ```
/// use pager_service::metrics::Counter;
///
/// pager_service::registry! {
///     /// Example counters.
///     pub struct Hits {
///         /// Requests answered.
///         served: Counter,
///     }
/// }
///
/// let hits = Hits::default();
/// hits.served.inc();
/// assert_eq!(jsonio::Value::object(hits.entries()).to_string(), r#"{"served":1}"#);
/// ```
#[macro_export]
macro_rules! registry {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$field_meta:meta])* $field:ident: $ty:ty, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $name {
            $( $(#[$field_meta])* $vis $field: $ty, )*
        }

        impl $name {
            /// Every metric as `(name, value)`, in declaration order.
            #[must_use]
            $vis fn entries(&self) -> $crate::metrics::Dump {
                ::std::vec![
                    $( (stringify!($field), $crate::metrics::Metric::to_json(&self.$field)), )*
                ]
            }
        }
    };
}

/// Histogram bucket count: bucket `i` holds samples in
/// `[2^(i-1), 2^i)` microseconds (bucket 0 is `< 1µs`).
const BUCKETS: usize = 32;

/// A log₂-bucketed latency histogram over microseconds.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl LatencyHistogram {
    /// Records one sample.
    pub fn record(&self, micros: u64) {
        let idx = (u64::BITS - micros.leading_zeros()).min(BUCKETS as u32 - 1) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Upper bound (µs) of the bucket containing the `q`-quantile
    /// sample, or 0 with no samples. Approximate by construction —
    /// resolution is the power-of-two bucket width.
    pub fn quantile_upper_micros(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let target = ((count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return if i == 0 { 1 } else { 1u64 << i };
            }
        }
        self.max_micros.load(Ordering::Relaxed)
    }
}

impl Metric for LatencyHistogram {
    fn to_json(&self) -> Value {
        let count = self.count();
        let total = self.total_micros.load(Ordering::Relaxed);
        #[allow(clippy::cast_precision_loss)]
        let mean = if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        };
        Value::object(vec![
            ("count", Value::from(count)),
            ("total_micros", Value::from(total)),
            ("mean_micros", Value::Float(mean)),
            (
                "p50_le_micros",
                Value::from(self.quantile_upper_micros(0.50)),
            ),
            (
                "p90_le_micros",
                Value::from(self.quantile_upper_micros(0.90)),
            ),
            (
                "p99_le_micros",
                Value::from(self.quantile_upper_micros(0.99)),
            ),
            (
                "max_micros",
                Value::from(self.max_micros.load(Ordering::Relaxed)),
            ),
        ])
    }
}

/// One latency histogram per solver [`Tier`], indexed by
/// `tier as usize`.
pub type TierLatency = [LatencyHistogram; Tier::ALL.len()];

impl Metric for TierLatency {
    /// An object keyed by [`Tier::name`].
    fn to_json(&self) -> Value {
        Value::object(
            Tier::ALL
                .iter()
                .map(|&tier| (tier.name(), self[tier as usize].to_json()))
                .collect(),
        )
    }
}

registry! {
    /// The service's own counters. Values other objects own are read
    /// from them by [`crate::PagerService::metrics_json`].
    pub struct Metrics {
        /// Total plan requests received (cacheable or not).
        requests: Counter,
        /// Requests answered straight from the strategy cache.
        cache_hits: Counter,
        /// Requests that had to plan (or join an in-flight plan).
        cache_misses: Counter,
        /// Requests that joined an identical in-flight computation
        /// instead of planning again.
        coalesced: Counter,
        /// Misses solved on the thread that received them: their
        /// Theorem 4.8 cost is at most `planner::INLINE_SOLVE_OPS`, so
        /// they skip the admission queue.
        solved_inline: Counter,
        /// Requests rejected with an error (bad instance, infeasible
        /// bandwidth, ...).
        errors: Counter,
        /// Requests shed at admission because the bounded queue was full
        /// (answered `"code": "overloaded"` instead of waiting).
        requests_shed: Counter,
        /// Exact-tier plans abandoned at a deadline checkpoint and
        /// re-planned greedily (`"downgraded": true` on the wire).
        deadline_downgrades: Counter,
        /// Requests whose deadline had already passed by the time their
        /// response was ready (downgrades included).
        deadline_misses: Counter,
        /// Jobs currently sitting in the bounded admission queue (gauge:
        /// incremented on enqueue, decremented on dequeue).
        queue_depth: Counter,
        /// Profiles that served a `plan_devices` request while stale
        /// (staleness weight below ½ — mostly decayed toward uniform).
        stale_profiles_served: Counter,
        /// Open TCP connections on the transport engine (gauge; stays 0
        /// under `--stdio`).
        reactor_connections: Counter,
        /// Reactor watchdog-timer firings: a request whose deadline
        /// elapsed while it was still awaiting its solver. Telemetry only
        /// — enforcement (downgrades, `deadline_misses`) stays with the
        /// solver's own deadline checks, so this never double-counts.
        reactor_deadline_watchdog: Counter,
        /// Queue wait per admitted planning job (enqueue → dequeue). This
        /// is the signal behind shed responses' `retry_after_ms`: the
        /// median wait is roughly how long the backlog ahead of a retry
        /// takes to drain.
        queue_wait: LatencyHistogram,
        /// Planning latency per solver tier.
        tier_latency: TierLatency,
    }
}

impl Metrics {
    /// Suggested client backoff (ms) for shed requests, derived from
    /// the observed queue-wait distribution: retrying sooner than the
    /// median wait only rejoins the same backlog. Falls back to the
    /// static [`crate::planner::RETRY_AFTER_MS`] before any job has
    /// been timed, and is clamped to `[10, 2000]` ms so a pathological
    /// tail can neither tell clients to hammer nor to stay away for
    /// minutes.
    pub fn retry_hint_ms(&self) -> u64 {
        if self.queue_wait.count() == 0 {
            return crate::planner::RETRY_AFTER_MS;
        }
        self.queue_wait
            .quantile_upper_micros(0.50)
            .div_ceil(1000)
            .clamp(10, 2000)
    }

    /// The latency histogram for one solver tier.
    pub fn tier_latency(&self, tier: Tier) -> &LatencyHistogram {
        &self.tier_latency[tier as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::default();
        for micros in [0, 1, 2, 3, 10, 100, 1000, 1000, 1000, 100_000] {
            h.record(micros);
        }
        assert_eq!(h.count(), 10);
        assert!(h.quantile_upper_micros(0.5) <= 128);
        assert!(h.quantile_upper_micros(1.0) >= 65_536);
        assert_eq!(LatencyHistogram::default().quantile_upper_micros(0.5), 0);
    }

    #[test]
    fn metrics_json_has_required_fields() {
        let m = Metrics::default();
        m.requests.inc();
        m.cache_hits.inc();
        m.tier_latency(Tier::Greedy).record(42);
        let json = Value::object(m.entries());
        assert_eq!(json.get("requests").and_then(Value::as_u64), Some(1));
        assert_eq!(json.get("cache_hits").and_then(Value::as_u64), Some(1));
        for field in [
            "cache_misses",
            "coalesced",
            "requests_shed",
            "deadline_downgrades",
            "queue_depth",
        ] {
            assert_eq!(json.get(field).and_then(Value::as_u64), Some(0), "{field}");
        }
        let tiers = json.get("tier_latency").unwrap();
        for tier in Tier::ALL {
            let expected = u64::from(tier == Tier::Greedy);
            let count = tiers.get(tier.name()).and_then(|t| t.get("count"));
            assert_eq!(count.and_then(Value::as_u64), Some(expected), "{tier:?}");
        }
        // The dump must serialise cleanly.
        assert!(jsonio::parse(&json.to_string()).is_ok());
    }

    #[test]
    fn retry_hint_follows_observed_queue_wait() {
        let m = Metrics::default();
        assert_eq!(m.retry_hint_ms(), crate::planner::RETRY_AFTER_MS);
        // A slow queue (median ~200 ms) pushes the hint up…
        for _ in 0..100 {
            m.queue_wait.record(200_000);
        }
        let hint = m.retry_hint_ms();
        assert!((100..=2000).contains(&hint), "{hint}");
        // …and a fast queue clamps it at the floor instead of telling
        // clients to retry every microsecond.
        let fast = Metrics::default();
        for _ in 0..100 {
            fast.queue_wait.record(5);
        }
        assert_eq!(fast.retry_hint_ms(), 10);
    }

    #[test]
    fn gauge_dec_saturates_at_zero() {
        let gauge = Counter::default();
        gauge.dec();
        assert_eq!(gauge.get(), 0);
        gauge.add(2);
        gauge.dec();
        assert_eq!(gauge.get(), 1);
    }
}
