//! Streaming statistics for simulation outputs.
//!
//! Welford-style accumulation (numerically stable single pass) — the
//! standard way to report discrete-event simulation results.

/// A streaming mean/variance accumulator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Accumulator {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Accumulator {
    /// An empty accumulator.
    #[must_use]
    pub(crate) fn new() -> Accumulator {
        Accumulator {
            count: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Adds one observation.
    pub(crate) fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Sample mean (`NaN` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`NaN` below two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            f64::NAN
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }
}

impl FromIterator<f64> for Accumulator {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Accumulator {
        let mut acc = Accumulator::new();
        for x in iter {
            acc.push(x);
        }
        acc
    }
}

impl Extend<f64> for Accumulator {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sample_moments() {
        let acc: Accumulator = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(acc.count, 8);
        assert!((acc.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic data set is 32/7.
        assert!((acc.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        let empty = Accumulator::new();
        assert!(empty.mean().is_nan());
        assert!(empty.variance().is_nan());
        let mut one = Accumulator::new();
        one.push(3.5);
        assert_eq!(one.mean(), 3.5);
        assert!(one.variance().is_nan());
    }

    #[test]
    fn extend_accumulates() {
        let mut acc = Accumulator::new();
        acc.extend([1.0, 2.0, 3.0]);
        acc.extend([4.0]);
        assert_eq!(acc.count, 4);
        assert!((acc.mean() - 2.5).abs() < 1e-12);
    }
}
