//! First-order Markov mobility model.
//!
//! Counts observed cell→cell transitions and predicts where a device
//! is *now* from its last confirmed sighting and the elapsed time: the
//! smoothed transition matrix is applied once per elapsed step, so the
//! prediction starts concentrated at the last sighting and diffuses
//! toward the chain's stationary distribution — exactly the behaviour
//! the paper's profile-acquisition citations [15, 16] assume of a
//! trajectory predictor.

use crate::estimators;

/// Transition-count model over `c` cells.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovModel {
    cells: usize,
    /// Row-major `counts[from * cells + to]`.
    counts: Vec<u64>,
    /// Per-row totals (cached so a row normalisation is `O(c)`).
    row_totals: Vec<u64>,
}

impl MarkovModel {
    /// An empty model over `c` cells.
    ///
    /// # Panics
    ///
    /// Panics if `c == 0`.
    #[must_use]
    pub fn new(cells: usize) -> MarkovModel {
        assert!(cells > 0, "need at least one cell");
        MarkovModel {
            cells,
            counts: vec![0; cells * cells],
            row_totals: vec![0; cells],
        }
    }

    /// Number of cells.
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.cells
    }

    /// Total transitions observed.
    #[must_use]
    pub fn num_transitions(&self) -> u64 {
        self.row_totals.iter().sum()
    }

    /// Records one observed transition.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range cells.
    pub fn observe(&mut self, from: usize, to: usize) {
        assert!(from < self.cells, "from-cell {from} out of range");
        assert!(to < self.cells, "to-cell {to} out of range");
        self.counts[from * self.cells + to] += 1;
        self.row_totals[from] += 1;
    }

    /// Raw count of the `from → to` transition.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range cells.
    #[must_use]
    pub fn count(&self, from: usize, to: usize) -> u64 {
        assert!(from < self.cells && to < self.cells, "cell out of range");
        self.counts[from * self.cells + to]
    }

    /// The Laplace-smoothed transition row out of `from`:
    /// `P(to | from) = (count + α) / (row_total + c·α)`. With `α > 0`
    /// the row is strictly positive even for never-visited cells.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range, `alpha < 0`, or the row is
    /// empty with `alpha == 0`.
    #[must_use]
    pub fn transition_row(&self, from: usize, alpha: f64) -> Vec<f64> {
        assert!(from < self.cells, "from-cell {from} out of range");
        let row = &self.counts[from * self.cells..(from + 1) * self.cells];
        #[allow(clippy::cast_precision_loss)]
        let counts: Vec<f64> = row.iter().map(|&n| n as f64).collect();
        estimators::empirical_from_counts(&counts, alpha)
    }

    /// Predicts the location distribution `steps` time units after a
    /// confirmed sighting in `from`, by repeated application of the
    /// smoothed transition matrix to the point mass at `from`.
    ///
    /// `steps == 0` returns the smoothed point mass (the device was
    /// just seen there; smoothing keeps the row strictly positive as
    /// the paper's model requires). Predictions converge to the
    /// chain's stationary distribution, so callers cap `steps` at a
    /// horizon after which another multiplication changes nothing
    /// measurable.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range or `alpha < 0`.
    #[must_use]
    pub fn predict(&self, from: usize, steps: usize, alpha: f64) -> Vec<f64> {
        assert!(from < self.cells, "from-cell {from} out of range");
        assert!(alpha >= 0.0, "smoothing must be non-negative");
        if steps == 0 {
            let mut point = vec![0.0; self.cells];
            point[from] = 1.0;
            return estimators::empirical_from_counts(&point, alpha.max(f64::MIN_POSITIVE));
        }
        // Pre-normalise every row once into one row-major c×c matrix
        // (the arithmetic of `transition_row`, in the same order); the
        // multiply loop then walks plain slices.
        let c = self.cells;
        let alpha = alpha.max(f64::MIN_POSITIVE);
        let mut matrix = Vec::with_capacity(c * c);
        for row in self.counts.chunks_exact(c) {
            #[allow(clippy::cast_precision_loss)]
            let total = row.iter().fold(0.0f64, |sum, &n| sum + n as f64);
            let denom = total + c as f64 * alpha;
            #[allow(clippy::cast_precision_loss)]
            matrix.extend(row.iter().map(|&n| (n as f64 + alpha) / denom));
        }
        let mut dist = vec![0.0f64; c];
        dist[from] = 1.0;
        let mut next = vec![0.0f64; c];
        for _ in 0..steps {
            next.fill(0.0);
            for (&mass, row) in dist.iter().zip(matrix.chunks_exact(c)) {
                // lint:allow(no-float-eq): exact-zero skip is an optimisation only
                if mass == 0.0 {
                    continue;
                }
                for (slot, &p) in next.iter_mut().zip(row) {
                    *slot += mass * p;
                }
            }
            std::mem::swap(&mut dist, &mut next);
        }
        // Repeated multiplication accumulates rounding residue; a
        // final renormalisation restores Σp = 1 to machine precision.
        let total: f64 = dist.iter().sum();
        dist.iter_mut().for_each(|x| *x /= total);
        dist
    }
}

/// Snapshot conversions (kept next to the model so the layout stays in
/// one file).
impl MarkovModel {
    /// Renders counts as a JSON array of rows.
    #[must_use]
    pub fn to_json(&self) -> jsonio::Value {
        jsonio::Value::Array(
            (0..self.cells)
                .map(|i| {
                    jsonio::Value::Array(
                        self.counts[i * self.cells..(i + 1) * self.cells]
                            .iter()
                            .map(|&n| jsonio::Value::from(n))
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    /// Rebuilds a model from [`MarkovModel::to_json`] output.
    ///
    /// # Errors
    ///
    /// A message on a malformed or non-square payload.
    pub fn from_json(value: &jsonio::Value) -> Result<MarkovModel, String> {
        let rows = value
            .as_array()
            .ok_or_else(|| "markov counts must be an array of rows".to_string())?;
        let cells = rows.len();
        if cells == 0 {
            return Err("markov counts must be non-empty".to_string());
        }
        let mut model = MarkovModel::new(cells);
        for (i, row) in rows.iter().enumerate() {
            let row = row
                .as_array()
                .ok_or_else(|| "markov count row must be an array".to_string())?;
            if row.len() != cells {
                return Err(format!(
                    "markov count row {i} has {} entries, expected {cells}",
                    row.len()
                ));
            }
            for (j, n) in row.iter().enumerate() {
                let n = n
                    .as_u64()
                    .ok_or_else(|| format!("markov count ({i},{j}) must be a u64, got {n}"))?;
                model.counts[i * cells + j] = n;
                model.row_totals[i] += n;
            }
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::total_variation;

    #[test]
    fn rows_are_distributions() {
        let mut m = MarkovModel::new(3);
        m.observe(0, 1);
        m.observe(0, 1);
        m.observe(0, 2);
        let row = m.transition_row(0, 0.5);
        let sum: f64 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(row.iter().all(|&p| p > 0.0));
        assert!(row[1] > row[2] && row[2] > row[0]);
        // Unvisited row falls back to the smoothed uniform.
        let empty = m.transition_row(2, 1.0);
        assert!(empty.iter().all(|&p| (p - 1.0 / 3.0).abs() < 1e-12));
    }

    #[test]
    fn predict_zero_steps_is_concentrated() {
        let m = MarkovModel::new(4);
        let p = m.predict(2, 0, 0.1);
        assert!(p[2] > 0.5, "{p:?}");
        assert!(p.iter().all(|&x| x > 0.0));
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn predict_diffuses_toward_stationary() {
        // Deterministic 0→1→0 cycle, heavily observed.
        let mut m = MarkovModel::new(2);
        for _ in 0..500 {
            m.observe(0, 1);
            m.observe(1, 0);
        }
        let one = m.predict(0, 1, 0.01);
        assert!(one[1] > 0.95, "{one:?}");
        // Many steps with smoothing: mass spreads toward 50/50.
        let far = m.predict(0, 501, 1.0);
        assert!(total_variation(&far, &[0.5, 0.5]) < 0.1, "{far:?}");
    }

    /// The nested-`Vec` predict loop the flat matrix replaced, kept as
    /// the oracle for [`MarkovModel::predict`].
    fn predict_nested(m: &MarkovModel, from: usize, steps: usize, alpha: f64) -> Vec<f64> {
        if steps == 0 {
            let mut point = vec![0.0; m.cells];
            point[from] = 1.0;
            return estimators::empirical_from_counts(&point, alpha.max(f64::MIN_POSITIVE));
        }
        let rows: Vec<Vec<f64>> = (0..m.cells)
            .map(|i| m.transition_row(i, alpha.max(f64::MIN_POSITIVE)))
            .collect();
        let mut dist = vec![0.0f64; m.cells];
        dist[from] = 1.0;
        let mut next = vec![0.0f64; m.cells];
        for _ in 0..steps {
            next.iter_mut().for_each(|x| *x = 0.0);
            for (i, &mass) in dist.iter().enumerate() {
                // lint:allow(no-float-eq): exact-zero skip is an optimisation only
                if mass == 0.0 {
                    continue;
                }
                for (j, &p) in rows[i].iter().enumerate() {
                    next[j] += mass * p;
                }
            }
            std::mem::swap(&mut dist, &mut next);
        }
        let total: f64 = dist.iter().sum();
        dist.iter_mut().for_each(|x| *x /= total);
        dist
    }

    #[test]
    fn flat_predict_is_bit_identical_to_the_nested_loop() {
        use rand::{Rng, SeedableRng};
        let horizon = crate::ProfileConfig::default().markov_horizon;
        let mut cases = 0;
        for seed in 0..200u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let cells = rng.gen_range(1..=20usize);
            let mut m = MarkovModel::new(cells);
            // Sparse and dense count matrices alike, some rows empty.
            for _ in 0..rng.gen_range(0..=cells * cells * 4) {
                m.observe(rng.gen_range(0..cells), rng.gen_range(0..cells));
            }
            let alpha = [0.0, 1e-3, 0.1, 0.5, 1.0][rng.gen_range(0..5usize)];
            let from = rng.gen_range(0..cells);
            for steps in 0..=horizon {
                let flat = m.predict(from, steps, alpha);
                let nested = predict_nested(&m, from, steps, alpha);
                let flat: Vec<u64> = flat.iter().map(|p| p.to_bits()).collect();
                let nested: Vec<u64> = nested.iter().map(|p| p.to_bits()).collect();
                assert_eq!(flat, nested, "seed {seed}, steps {steps}");
                cases += 1;
            }
        }
        assert_eq!(cases, 200 * (horizon + 1));
    }

    #[test]
    fn json_round_trip() {
        let mut m = MarkovModel::new(3);
        m.observe(0, 1);
        m.observe(1, 2);
        m.observe(2, 2);
        let back = MarkovModel::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.num_transitions(), 3);
        assert!(MarkovModel::from_json(&jsonio::parse("[[1,2],[3]]").unwrap()).is_err());
        assert!(MarkovModel::from_json(&jsonio::parse("[]").unwrap()).is_err());
    }
}
