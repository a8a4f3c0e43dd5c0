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
pub(crate) struct MarkovModel {
    cells: usize,
    /// The nonzero counts as `(from, to, count)`, sorted by
    /// `(from, to)`. One form per count matrix, so the derived
    /// `PartialEq` compares counts; the heap is O(nnz), not O(c²).
    transitions: Vec<(usize, usize, u64)>,
}

impl MarkovModel {
    /// An empty model over `c` cells.
    ///
    /// # Panics
    ///
    /// Panics if `c == 0`.
    #[must_use]
    pub(crate) fn new(cells: usize) -> MarkovModel {
        assert!(cells > 0, "need at least one cell");
        MarkovModel {
            cells,
            transitions: Vec::new(),
        }
    }

    /// Number of cells.
    #[must_use]
    pub(crate) fn num_cells(&self) -> usize {
        self.cells
    }

    /// Records one observed transition.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range cells.
    pub(crate) fn observe(&mut self, from: usize, to: usize) {
        assert!(from < self.cells, "from-cell {from} out of range");
        assert!(to < self.cells, "to-cell {to} out of range");
        match self
            .transitions
            .binary_search_by_key(&(from, to), |&(i, j, _)| (i, j))
        {
            Ok(k) => self.transitions[k].2 += 1,
            Err(k) => self.transitions.insert(k, (from, to, 1)),
        }
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
    pub(crate) fn predict(&self, from: usize, steps: usize, alpha: f64) -> Vec<f64> {
        assert!(from < self.cells, "from-cell {from} out of range");
        assert!(alpha >= 0.0, "smoothing must be non-negative");
        if steps == 0 {
            let mut point = vec![0.0; self.cells];
            point[from] = 1.0;
            return estimators::empirical_from_counts(&point, alpha.max(f64::MIN_POSITIVE));
        }
        // Walking the entry list costs a scattered multiply-add per
        // count, several times a dense one (a scatter does not
        // vectorise). Timing both layouts at c = 16 and 32 put the
        // crossover at about a quarter of the c² cells counted
        // (DESIGN.md §8); from there on the block is the cheaper one.
        let c = self.cells;
        let block = 4 * self.transitions.len() >= c * c;
        self.walk(from, steps, alpha.max(f64::MIN_POSITIVE), block)
    }

    /// `steps` applications of the smoothed matrix to the point mass at
    /// `from`, renormalised.
    ///
    /// Row i of the matrix is n_i/D_i + (α/D_i)·1ᵀ with
    /// D_i = total_i + c·α: sparse plus rank one. So a step is one pass
    /// over the scaled counts n/D_i plus one mass Σ_i dist_i·α/D_i
    /// spread over every cell, O(nnz + c) rather than O(c²). `block`
    /// lays the scaled counts out as a c×c block, uncounted cells 0,
    /// instead of walking the entry list. Adding 0·mass changes no sum,
    /// so both layouts give the same bits.
    fn walk(&self, from: usize, steps: usize, alpha: f64, block: bool) -> Vec<f64> {
        let c = self.cells;
        #[allow(clippy::cast_precision_loss)]
        let smoothing = c as f64 * alpha;
        // D_i sums the row's counts first, then the smoothing mass, as
        // the dense row normalisation did.
        let mut denom = vec![smoothing; c];
        for row in self.transitions.chunk_by(|a, b| a.0 == b.0) {
            #[allow(clippy::cast_precision_loss)]
            let total = row.iter().fold(0.0f64, |sum, &(_, _, n)| sum + n as f64);
            denom[row[0].0] = total + smoothing;
        }
        #[allow(clippy::cast_precision_loss)]
        let scale = |&(i, _, n): &(usize, usize, u64)| n as f64 / denom[i];
        // The scaled counts n/D_i in entry order, or laid out as a block.
        let (scaled, block): (Vec<f64>, _) = if block {
            let mut block = vec![0.0f64; c * c];
            for entry in &self.transitions {
                block[entry.0 * c + entry.1] = scale(entry);
            }
            (Vec::new(), Some(block))
        } else {
            (self.transitions.iter().map(scale).collect(), None)
        };
        // What row i gives every cell, counted or not: α/D_i.
        let mut spread = denom;
        spread.iter_mut().for_each(|d| *d = alpha / *d);
        let mut dist = vec![0.0f64; c];
        dist[from] = 1.0;
        let mut next = vec![0.0f64; c];
        // lint:allow(no-float-eq): exact-zero skip is an optimisation only
        let holds = |mass: f64| mass != 0.0;
        for _ in 0..steps {
            next.fill(dist.iter().zip(&spread).map(|(&mass, &s)| mass * s).sum());
            match &block {
                Some(block) => {
                    for (&mass, row) in dist.iter().zip(block.chunks_exact(c)) {
                        if holds(mass) {
                            for (slot, &p) in next.iter_mut().zip(row) {
                                *slot += mass * p;
                            }
                        }
                    }
                }
                None => {
                    for (&(i, j, _), &p) in self.transitions.iter().zip(&scaled) {
                        let mass = dist[i];
                        if holds(mass) {
                            next[j] += mass * p;
                        }
                    }
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
    /// Renders counts as a JSON array of dense rows, zeros included.
    #[must_use]
    pub(crate) fn to_json(&self) -> jsonio::Value {
        let mut transitions = self.transitions.iter().peekable();
        jsonio::Value::Array(
            (0..self.cells)
                .map(|i| {
                    let mut row = vec![0u64; self.cells];
                    while let Some(&(_, j, n)) = transitions.next_if(|t| t.0 == i) {
                        row[j] = n;
                    }
                    jsonio::Value::Array(row.into_iter().map(jsonio::Value::from).collect())
                })
                .collect(),
        )
    }

    /// Rebuilds a model from [`MarkovModel::to_json`] output.
    ///
    /// # Errors
    ///
    /// A message on a malformed or non-square payload.
    pub(crate) fn from_json(value: &jsonio::Value) -> Result<MarkovModel, String> {
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
                // Row-major order keeps the entries sorted.
                if n > 0 {
                    model.transitions.push((i, j, n));
                }
            }
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::total_variation;

    impl MarkovModel {
        /// Total transitions observed.
        fn num_transitions(&self) -> u64 {
            self.transitions.iter().map(|t| t.2).sum()
        }

        /// The Laplace-smoothed transition row out of `from`:
        /// `P(to | from) = (count + α) / (row_total + c·α)`.
        fn transition_row(&self, from: usize, alpha: f64) -> Vec<f64> {
            let mut counts = vec![0.0; self.cells];
            for &(_, to, n) in self.transitions.iter().filter(|t| t.0 == from) {
                counts[to] = n as f64;
            }
            estimators::empirical_from_counts(&counts, alpha)
        }
    }

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

    /// The dense predict loop the sparse-plus-rank-one step replaced:
    /// every smoothed row materialised into one c×c matrix, multiplied
    /// `steps` times at c² per step. The oracle for
    /// [`MarkovModel::predict`].
    fn predict_dense(m: &MarkovModel, from: usize, steps: usize, alpha: f64) -> Vec<f64> {
        let alpha = alpha.max(f64::MIN_POSITIVE);
        if steps == 0 {
            let mut point = vec![0.0; m.cells];
            point[from] = 1.0;
            return estimators::empirical_from_counts(&point, alpha);
        }
        let c = m.cells;
        let matrix: Vec<f64> = (0..c).flat_map(|i| m.transition_row(i, alpha)).collect();
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
        let total: f64 = dist.iter().sum();
        dist.iter_mut().for_each(|x| *x /= total);
        dist
    }

    #[test]
    fn sparse_predict_matches_the_dense_loop() {
        use rand::{Rng, SeedableRng};
        let horizon = crate::ProfileConfig::default().markov_horizon;
        // Shapes: no transitions, one nonzero, random sparse rows (some
        // empty), every row fully dense, and up to 4c² random
        // observations (mid-density counts, some large, some rows
        // empty, either layout); each meets every α, including 0
        // (which `predict` replaces by `MIN_POSITIVE`).
        let mut shapes = [0usize; 5];
        for seed in 0..250u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let cells = rng.gen_range(1..=20usize);
            let mut m = MarkovModel::new(cells);
            let shape = (seed % 5) as usize;
            match shape {
                0 => {}
                1 => m.observe(rng.gen_range(0..cells), rng.gen_range(0..cells)),
                2 => {
                    for _ in 0..rng.gen_range(1..=cells * 2) {
                        m.observe(rng.gen_range(0..cells), rng.gen_range(0..cells));
                    }
                }
                3 => {
                    for from in 0..cells {
                        for to in 0..cells {
                            for _ in 0..rng.gen_range(1..=5) {
                                m.observe(from, to);
                            }
                        }
                    }
                }
                _ => {
                    for _ in 0..rng.gen_range(0..=cells * cells * 4) {
                        m.observe(rng.gen_range(0..cells), rng.gen_range(0..cells));
                    }
                }
            }
            shapes[shape] += 1;
            let alpha = [0.0, 1e-3, 0.1, 0.5, 1.0][(seed / 5 % 5) as usize];
            let from = rng.gen_range(0..cells);
            for steps in 0..=horizon {
                let sparse = m.predict(from, steps, alpha);
                let dense = predict_dense(&m, from, steps, alpha);
                assert!(
                    sparse
                        .iter()
                        .zip(&dense)
                        .all(|(s, d)| (s - d).abs() <= 1e-15),
                    "seed {seed}, steps {steps}: {sparse:?} vs {dense:?}"
                );
            }
        }
        assert_eq!(shapes, [50; 5]);
    }

    #[test]
    fn both_layouts_give_the_same_bits() {
        use rand::{Rng, SeedableRng};
        let horizon = crate::ProfileConfig::default().markov_horizon;
        for seed in 0..100u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let cells = rng.gen_range(1..=20usize);
            let mut m = MarkovModel::new(cells);
            for _ in 0..rng.gen_range(0..=cells * cells * 2) {
                m.observe(rng.gen_range(0..cells), rng.gen_range(0..cells));
            }
            let alpha = [f64::MIN_POSITIVE, 1e-3, 0.5][(seed % 3) as usize];
            let from = rng.gen_range(0..cells);
            for steps in 1..=horizon {
                let bits = |block| -> Vec<u64> {
                    let walked = m.walk(from, steps, alpha, block);
                    walked.iter().map(|p| p.to_bits()).collect()
                };
                assert_eq!(bits(true), bits(false), "seed {seed}, steps {steps}");
            }
        }
    }

    #[test]
    fn counts_are_canonical_whatever_the_order() {
        let pairs = [(2, 0), (0, 1), (2, 0), (1, 1), (0, 0), (0, 1)];
        let mut forward = MarkovModel::new(3);
        let mut backward = MarkovModel::new(3);
        for &(from, to) in &pairs {
            forward.observe(from, to);
        }
        for &(from, to) in pairs.iter().rev() {
            backward.observe(from, to);
        }
        assert_eq!(forward, backward);
        assert_eq!(
            forward.transitions,
            vec![(0, 0, 1), (0, 1, 2), (1, 1, 1), (2, 0, 2)]
        );
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
