//! Small order statistics over latency samples.

/// The `q`-quantile of `samples` by nearest rank (sorts in place).
/// Returns `None` for an empty sample.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((samples.len() as f64) * q).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// Median of `samples` (sorts in place); 0 for an empty sample.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// Latencies in nanoseconds, clamped into `u32` (4.29 s) to halve the
/// memory of a long pipelined run.
#[derive(Debug, Default, Clone)]
pub struct Latencies(Vec<u32>);

impl Latencies {
    pub fn push_ns(&mut self, ns: u128) {
        self.0.push(u32::try_from(ns).unwrap_or(u32::MAX));
    }

    pub fn extend(&mut self, other: Latencies) {
        self.0.extend(other.0);
    }

    /// The `q`-quantile in microseconds by nearest rank; 0 when empty.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.sort_unstable();
        let rank = ((self.0.len() as f64) * q).ceil() as usize;
        f64::from(self.0[rank.clamp(1, self.0.len()) - 1]) / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50.0));
        assert_eq!(quantile(&mut v, 0.99), Some(99.0));
        assert_eq!(quantile(&mut v, 1.0), Some(100.0));
        assert_eq!(quantile(&mut [], 0.5), None);
        let mut l = Latencies::default();
        for ns in [3000u128, 1000, 2000] {
            l.push_ns(ns);
        }
        assert_eq!(l.quantile_us(0.5), 2.0);
    }
}
