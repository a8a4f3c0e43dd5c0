//! Lock-free service metrics.
//!
//! Counters and latency histograms are plain atomics so the hot path
//! never takes a lock to record. Snapshots are assembled on demand
//! and dumped as JSON through [`jsonio`].

use std::sync::atomic::{AtomicU64, Ordering};

use jsonio::Value;

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

    /// Snapshot as a JSON object.
    pub fn to_json(&self) -> Value {
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

/// All counters the service exposes.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Total plan requests received (cacheable or not).
    pub requests: AtomicU64,
    /// Requests answered straight from the strategy cache.
    pub cache_hits: AtomicU64,
    /// Requests that had to plan (or join an in-flight plan).
    pub cache_misses: AtomicU64,
    /// Requests that joined an identical in-flight computation
    /// instead of planning again.
    pub coalesced: AtomicU64,
    /// Requests rejected with an error (bad instance, infeasible
    /// bandwidth, ...).
    pub errors: AtomicU64,
    /// Requests shed at admission because the bounded queue was full
    /// (answered `"code": "overloaded"` instead of waiting).
    pub requests_shed: AtomicU64,
    /// Exact-tier plans abandoned at a deadline checkpoint and
    /// re-planned greedily (`"downgraded": true` on the wire).
    pub deadline_downgrades: AtomicU64,
    /// Requests whose deadline had already passed by the time their
    /// response was ready (downgrades included).
    pub deadline_misses: AtomicU64,
    /// Jobs currently sitting in the bounded admission queue (gauge:
    /// incremented on enqueue, decremented on dequeue).
    pub queue_depth: AtomicU64,
    /// Cache entries evicted to make room.
    pub evictions: AtomicU64,
    /// Sightings ingested into the profile store (mirrors the store's
    /// own counter; synced on every `observe`).
    pub sightings_ingested: AtomicU64,
    /// Device profiles evicted from the store's capacity bound
    /// (mirrors the store's own counter; synced on every `observe`).
    pub profile_evictions: AtomicU64,
    /// Profiles that served a `plan_devices` request while stale
    /// (staleness weight below ½ — mostly decayed toward uniform).
    pub stale_profiles_served: AtomicU64,
    /// WAL records appended (mirrors the durable store; 0 when the
    /// server runs without `--data-dir`).
    pub wal_appends: AtomicU64,
    /// Fsyncs issued for the WAL.
    pub wal_fsyncs: AtomicU64,
    /// WAL records replayed at startup recovery.
    pub wal_recovered_records: AtomicU64,
    /// Bytes truncated from a torn WAL tail at startup recovery.
    pub wal_truncated_bytes: AtomicU64,
    /// Snapshot checkpoints rotated.
    pub checkpoints: AtomicU64,
    /// Degraded-mode gauge: 1 after a data-disk failure (observes are
    /// refused, planning keeps serving), 0 otherwise.
    pub degraded: AtomicU64,
    /// Open TCP connections on the transport engine (gauge; stays 0
    /// under `--stdio`).
    pub reactor_connections: AtomicU64,
    /// Reactor timer-wheel watchdog firings: a request whose deadline
    /// elapsed while it was still awaiting its solver. Telemetry only
    /// — enforcement (downgrades, `deadline_misses`) stays with the
    /// solver's own deadline checks, so this never double-counts.
    pub reactor_deadline_watchdog: AtomicU64,
    /// Queue wait per admitted planning job (enqueue → dequeue). This
    /// is the signal behind shed responses' `retry_after_ms`: the
    /// median wait is roughly how long the backlog ahead of a retry
    /// takes to drain.
    pub queue_wait: LatencyHistogram,
    /// Planning latency per solver tier.
    pub exact_latency: LatencyHistogram,
    /// Fig. 1 greedy tier latency.
    pub greedy_latency: LatencyHistogram,
    /// Bandwidth-bounded tier latency.
    pub bandwidth_latency: LatencyHistogram,
    /// Signature tier latency.
    pub signature_latency: LatencyHistogram,
}

impl Metrics {
    /// Bumps a counter.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements a gauge, saturating at zero.
    pub fn dec(gauge: &AtomicU64) {
        // A saturating decrement: the gauge is advisory, so a lost
        // race simply under-reports momentarily.
        let _ = gauge.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(1))
        });
    }

    /// Reads a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

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
    pub fn tier_latency(&self, tier: crate::planner::Tier) -> &LatencyHistogram {
        match tier {
            crate::planner::Tier::Exact => &self.exact_latency,
            crate::planner::Tier::Greedy => &self.greedy_latency,
            crate::planner::Tier::Bandwidth => &self.bandwidth_latency,
            crate::planner::Tier::Signature => &self.signature_latency,
        }
    }

    /// Full snapshot as a JSON object (the `--metrics-json` /
    /// `{"cmd":"metrics"}` payload).
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("requests", Value::from(Self::get(&self.requests))),
            ("cache_hits", Value::from(Self::get(&self.cache_hits))),
            ("cache_misses", Value::from(Self::get(&self.cache_misses))),
            ("coalesced", Value::from(Self::get(&self.coalesced))),
            ("errors", Value::from(Self::get(&self.errors))),
            ("requests_shed", Value::from(Self::get(&self.requests_shed))),
            (
                "deadline_downgrades",
                Value::from(Self::get(&self.deadline_downgrades)),
            ),
            (
                "deadline_misses",
                Value::from(Self::get(&self.deadline_misses)),
            ),
            ("queue_depth", Value::from(Self::get(&self.queue_depth))),
            ("evictions", Value::from(Self::get(&self.evictions))),
            (
                "sightings_ingested",
                Value::from(Self::get(&self.sightings_ingested)),
            ),
            (
                "profile_evictions",
                Value::from(Self::get(&self.profile_evictions)),
            ),
            (
                "stale_profiles_served",
                Value::from(Self::get(&self.stale_profiles_served)),
            ),
            ("wal_appends", Value::from(Self::get(&self.wal_appends))),
            ("wal_fsyncs", Value::from(Self::get(&self.wal_fsyncs))),
            (
                "wal_recovered_records",
                Value::from(Self::get(&self.wal_recovered_records)),
            ),
            (
                "wal_truncated_bytes",
                Value::from(Self::get(&self.wal_truncated_bytes)),
            ),
            ("checkpoints", Value::from(Self::get(&self.checkpoints))),
            ("degraded", Value::from(Self::get(&self.degraded))),
            (
                "reactor_connections",
                Value::from(Self::get(&self.reactor_connections)),
            ),
            (
                "reactor_deadline_watchdog",
                Value::from(Self::get(&self.reactor_deadline_watchdog)),
            ),
            ("queue_wait", self.queue_wait.to_json()),
            (
                "tier_latency",
                Value::object(vec![
                    ("exact", self.exact_latency.to_json()),
                    ("greedy", self.greedy_latency.to_json()),
                    ("bandwidth", self.bandwidth_latency.to_json()),
                    ("signature", self.signature_latency.to_json()),
                ]),
            ),
        ])
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
        Metrics::inc(&m.requests);
        Metrics::inc(&m.cache_hits);
        m.greedy_latency.record(42);
        let json = m.to_json();
        assert_eq!(json.get("requests").and_then(Value::as_u64), Some(1));
        assert_eq!(json.get("cache_hits").and_then(Value::as_u64), Some(1));
        assert_eq!(json.get("cache_misses").and_then(Value::as_u64), Some(0));
        assert_eq!(json.get("coalesced").and_then(Value::as_u64), Some(0));
        assert_eq!(json.get("requests_shed").and_then(Value::as_u64), Some(0));
        assert_eq!(
            json.get("deadline_downgrades").and_then(Value::as_u64),
            Some(0)
        );
        assert_eq!(json.get("queue_depth").and_then(Value::as_u64), Some(0));
        for field in [
            "wal_appends",
            "wal_fsyncs",
            "wal_recovered_records",
            "wal_truncated_bytes",
            "checkpoints",
            "degraded",
        ] {
            assert_eq!(json.get(field).and_then(Value::as_u64), Some(0), "{field}");
        }
        let tiers = json.get("tier_latency").unwrap();
        assert_eq!(
            tiers
                .get("greedy")
                .and_then(|t| t.get("count"))
                .and_then(Value::as_u64),
            Some(1)
        );
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
        let m = Metrics::default();
        Metrics::dec(&m.queue_depth);
        assert_eq!(Metrics::get(&m.queue_depth), 0);
        Metrics::inc(&m.queue_depth);
        Metrics::inc(&m.queue_depth);
        Metrics::dec(&m.queue_depth);
        assert_eq!(Metrics::get(&m.queue_depth), 1);
    }
}
