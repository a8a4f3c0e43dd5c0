//! Lock-free metrics: one vocabulary for every crate that counts.
//!
//! A [`Counter`] is a relaxed `AtomicU64` and a [`LatencyHistogram`]
//! is log₂-bucketed over microseconds, so the hot path never takes a
//! lock to record. A registry struct is declared once with
//! [`registry!`](crate::registry): each metric's name and doc appear in
//! one line, and the macro writes both the field and its entry in the
//! JSON dump. Each owner — the serving layer, the router, the profile
//! store, its WAL, a chaos link — declares and dumps its own registry.
//!
//! This is the one module where `Ordering::Relaxed` needs no audit: a
//! metric orders no other memory access, so nothing may be read
//! through one as a handoff.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::Value;

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
/// [`Metric`](crate::metrics::Metric)s, each written once with its doc
/// comment, plus an `entries` method dumping every field under its own
/// name.
///
/// ```
/// use jsonio::metrics::Counter;
///
/// jsonio::registry! {
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
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Upper bound (µs) of the bucket containing the `q`-quantile
    /// sample, or 0 with no samples. Approximate by construction —
    /// resolution is the power-of-two bucket width.
    #[must_use]
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
    fn gauge_dec_saturates_at_zero() {
        let gauge = Counter::default();
        gauge.dec();
        assert_eq!(gauge.get(), 0);
        gauge.add(2);
        gauge.dec();
        assert_eq!(gauge.get(), 1);
    }
}
