//! Per-device distribution families.
//!
//! Each family captures a location-uncertainty regime the paging
//! literature cares about: uniform (worst case for paging), Zipf and
//! geometric (skewed, favouring sequential paging), a discretised
//! Gaussian over a line of cells (a terminal near its last report),
//! Dirichlet-like fully random rows, and hotspot mixtures (a commuter
//! between home and work).

use pager_core::Instance;
use rand::Rng;

/// The distribution families available to experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistributionFamily {
    /// Every cell equally likely.
    Uniform,
    /// `p_j ∝ 1/rank` with a randomly permuted rank order per device.
    Zipf,
    /// `p_j ∝ q^rank` with `q = 0.7`, randomly permuted per device.
    Geometric,
    /// Discretised Gaussian centred at a random cell (line geometry).
    GaussianLine,
    /// Normalised i.i.d. exponential weights (Dirichlet(1) rows).
    Dirichlet,
    /// Two-hotspot mixture: most mass on two random cells, the rest
    /// uniform.
    Hotspot,
}

impl DistributionFamily {
    /// All families, for exhaustive sweeps.
    pub const ALL: &'static [DistributionFamily] = &[
        DistributionFamily::Uniform,
        DistributionFamily::Zipf,
        DistributionFamily::Geometric,
        DistributionFamily::GaussianLine,
        DistributionFamily::Dirichlet,
        DistributionFamily::Hotspot,
    ];

    /// A short stable name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DistributionFamily::Uniform => "uniform",
            DistributionFamily::Zipf => "zipf",
            DistributionFamily::Geometric => "geometric",
            DistributionFamily::GaussianLine => "gaussian",
            DistributionFamily::Dirichlet => "dirichlet",
            DistributionFamily::Hotspot => "hotspot",
        }
    }
}

/// A seeded generator of [`Instance`] values from one family.
#[derive(Debug, Clone, Copy)]
pub struct InstanceGenerator {
    family: DistributionFamily,
}

impl InstanceGenerator {
    /// Creates a generator for a family.
    #[must_use]
    pub fn new(family: DistributionFamily) -> InstanceGenerator {
        InstanceGenerator { family }
    }

    /// Generates one `m × c` instance.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `c == 0`.
    pub fn generate<R: Rng>(&self, m: usize, c: usize, rng: &mut R) -> Instance {
        assert!(m > 0 && c > 0, "need at least one device and one cell");
        let rows: Vec<Vec<f64>> = (0..m).map(|_| self.generate_row(c, rng)).collect();
        Instance::from_rows(rows).expect("generated rows are valid")
    }

    /// Generates one device row.
    pub(crate) fn generate_row<R: Rng>(&self, c: usize, rng: &mut R) -> Vec<f64> {
        let mut weights: Vec<f64> = match self.family {
            DistributionFamily::Uniform => vec![1.0; c],
            DistributionFamily::Zipf => {
                let mut w: Vec<f64> = (1..=c).map(|r| 1.0 / r as f64).collect();
                shuffle(&mut w, rng);
                w
            }
            DistributionFamily::Geometric => {
                let q: f64 = 0.7;
                let mut w: Vec<f64> = (0..c).map(|r| q.powi(r as i32)).collect();
                shuffle(&mut w, rng);
                w
            }
            DistributionFamily::GaussianLine => {
                let centre = rng.gen_range(0..c) as f64;
                let sigma = (c as f64 / 6.0).max(0.8);
                (0..c)
                    .map(|j| {
                        let z = (j as f64 - centre) / sigma;
                        (-0.5 * z * z).exp() + 1e-6
                    })
                    .collect()
            }
            DistributionFamily::Dirichlet => (0..c)
                .map(|_| {
                    let u: f64 = rng.gen::<f64>().max(1e-12);
                    -u.ln()
                })
                .collect(),
            DistributionFamily::Hotspot => {
                let mut w = vec![1.0; c];
                let a = rng.gen_range(0..c);
                let mut b = rng.gen_range(0..c);
                if c > 1 {
                    while b == a {
                        b = rng.gen_range(0..c);
                    }
                }
                w[a] += 0.6 * c as f64;
                w[b] += 0.3 * c as f64;
                w
            }
        };
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        weights
    }
}

/// Fisher–Yates shuffle (kept local to avoid the `rand` `SliceRandom`
/// trait import at call sites).
fn shuffle<T, R: Rng>(v: &mut [T], rng: &mut R) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rows_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(3);
        for family in DistributionFamily::ALL {
            let row = InstanceGenerator::new(*family).generate_row(16, &mut rng);
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{family:?}: {sum}");
            assert!(row.iter().all(|&p| p > 0.0), "{family:?} must be positive");
        }
    }

    #[test]
    fn uniform_is_uniform() {
        let mut rng = StdRng::seed_from_u64(4);
        let row = InstanceGenerator::new(DistributionFamily::Uniform).generate_row(8, &mut rng);
        for &p in &row {
            assert!((p - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_is_skewed() {
        let mut rng = StdRng::seed_from_u64(5);
        let row = InstanceGenerator::new(DistributionFamily::Zipf).generate_row(10, &mut rng);
        let mut sorted = row.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        // Top cell holds 1/H_10 of the mass.
        let h10: f64 = (1..=10).map(|r| 1.0 / r as f64).sum();
        assert!((sorted[0] - 1.0 / h10).abs() < 1e-9);
        assert!(sorted[0] > 3.0 * sorted[9]);
    }

    #[test]
    fn gaussian_peaks_in_middle_of_support() {
        let mut rng = StdRng::seed_from_u64(6);
        let row =
            InstanceGenerator::new(DistributionFamily::GaussianLine).generate_row(21, &mut rng);
        let peak = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        // Mass decreases monotonically away from the peak on each side.
        for j in 1..=peak {
            assert!(row[j - 1] <= row[j] + 1e-12);
        }
        for j in peak..20 {
            assert!(row[j + 1] <= row[j] + 1e-12);
        }
    }

    #[test]
    fn hotspot_mass_concentrated() {
        let mut rng = StdRng::seed_from_u64(7);
        let row = InstanceGenerator::new(DistributionFamily::Hotspot).generate_row(12, &mut rng);
        let mut sorted = row.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert!(sorted[0] + sorted[1] > 0.5, "{sorted:?}");
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = InstanceGenerator::new(DistributionFamily::Dirichlet).generate(
            3,
            6,
            &mut StdRng::seed_from_u64(11),
        );
        let b = InstanceGenerator::new(DistributionFamily::Dirichlet).generate(
            3,
            6,
            &mut StdRng::seed_from_u64(11),
        );
        assert_eq!(a, b);
    }
}
