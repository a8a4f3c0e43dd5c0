//! The service's metrics registry.
//!
//! The vocabulary — [`Counter`], [`LatencyHistogram`] and the
//! [`jsonio::registry!`] macro — lives in [`jsonio::metrics`], shared
//! with every crate that counts. [`Metrics`] holds the service's own
//! counters; values other objects own — cache evictions, profile-store
//! and WAL counters — are not copied into it:
//! [`crate::PagerService::metrics_json`] appends their owners' dumps.

use jsonio::metrics::{Counter, LatencyHistogram, Metric};
use jsonio::Value;

use crate::planner::Tier;

/// One latency histogram per solver [`Tier`], indexed by
/// `tier as usize`.
#[derive(Debug, Default)]
pub(crate) struct TierLatency([LatencyHistogram; Tier::ALL.len()]);

impl Metric for TierLatency {
    /// An object keyed by [`Tier::name`].
    fn to_json(&self) -> Value {
        Value::object(
            Tier::ALL
                .iter()
                .map(|&tier| (tier.name(), self.0[tier as usize].to_json()))
                .collect(),
        )
    }
}

jsonio::registry! {
    /// The service's own counters. Values other objects own are read
    /// from them by [`crate::PagerService::metrics_json`].
    pub struct Metrics {
        /// Total plan requests received (cacheable or not).
        requests: Counter,
        /// Requests answered straight from the strategy cache.
        cache_hits: Counter,
        /// Cache probes that missed, so the request had to plan (or join
        /// an in-flight plan).
        cache_misses: Counter,
        /// The `plan_devices` share of `cache_hits`: hits on a key
        /// holding profile versions.
        plan_devices_cache_hits: Counter,
        /// The `plan_devices` share of `cache_misses`. A device plan the
        /// cost gate solves inline is never stored, so it counts in
        /// neither.
        plan_devices_cache_misses: Counter,
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
        /// Queue wait per admitted job (enqueue → dequeue): plans,
        /// uncacheable solves and checkpoints alike. This
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
    pub(crate) fn retry_hint_ms(&self) -> u64 {
        if self.queue_wait.count() == 0 {
            return crate::planner::RETRY_AFTER_MS;
        }
        self.queue_wait
            .quantile_upper_micros(0.50)
            .div_ceil(1000)
            .clamp(10, 2000)
    }

    /// The latency histogram for one solver tier.
    pub(crate) fn tier_latency(&self, tier: Tier) -> &LatencyHistogram {
        &self.tier_latency.0[tier as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
