//! Conference Call problem instances.
//!
//! An instance is an `m × c` matrix of location probabilities: entry
//! `(i, j)` is the probability that mobile device `i` currently resides in
//! cell `j`. Rows sum to one and devices are independent (Section 1.2 of
//! the paper). [`Instance`] is generic over the [`Scalar`] it holds:
//! `f64` for planning and experiments, [`Ratio`] for the hardness
//! reductions and certified comparisons.

use crate::error::{Error, Result};
use crate::scalar::Scalar;
use rational::Ratio;

/// Tolerance for `f64` row sums: a row must sum to `1 ± ROW_SUM_TOL`.
pub const ROW_SUM_TOL: f64 = 1e-6;

/// A maximum paging delay: the number of rounds `d`, with `1 <= d`.
///
/// The paper constrains `d <= c`; that is validated against a concrete
/// instance when a strategy is constructed (groups must be non-empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Delay(usize);

impl Delay {
    /// Creates a delay bound.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroDelay`] when `d == 0`.
    pub fn new(d: usize) -> Result<Delay> {
        if d == 0 {
            return Err(Error::ZeroDelay);
        }
        Ok(Delay(d))
    }

    /// The bound as a plain integer.
    #[must_use]
    pub fn get(self) -> usize {
        self.0
    }

    /// Clamps the delay to at most `cells` (a strategy cannot have more
    /// non-empty groups than cells).
    #[must_use]
    pub fn clamp_to_cells(self, cells: usize) -> Delay {
        Delay(self.0.min(cells.max(1)))
    }
}

impl core::fmt::Display for Delay {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A Conference Call instance: `f64` probabilities by default, exact
/// [`Ratio`]s for the hardness reductions (Section 3) and the Section
/// 4.3 lower-bound certification, where `f64` rounding could flip a
/// comparison.
///
/// # Examples
///
/// ```
/// use pager_core::Instance;
///
/// let inst = Instance::from_rows(vec![
///     vec![0.5, 0.3, 0.2],
///     vec![0.2, 0.2, 0.6],
/// ])?;
/// assert_eq!(inst.num_devices(), 2);
/// assert_eq!(inst.num_cells(), 3);
/// assert!((inst.cell_weight(0) - 0.7).abs() < 1e-12);
/// # Ok::<(), pager_core::Error>(())
/// ```
///
/// Every instance outside this crate comes from a validating
/// constructor: `rows` is private, so a struct literal, which would skip
/// the row checks, does not compile.
///
/// ```compile_fail,E0451
/// use pager_core::Instance;
///
/// let unchecked = Instance::<f64> { rows: vec![vec![0.9, 0.9]] };
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance<S = f64> {
    /// `rows[i][j]` = probability device `i` is in cell `j`.
    rows: Vec<Vec<S>>,
}

impl<S: Scalar> Instance<S> {
    /// Builds an instance from per-device probability rows.
    ///
    /// # Errors
    ///
    /// * [`Error::NoDevices`] / [`Error::NoCells`] for empty input;
    /// * [`Error::RaggedRows`] if rows have different lengths;
    /// * [`Error::InvalidProbability`] for negative entries, and NaN or
    ///   infinite `f64` ones (zero is allowed — the Section 4.3 instance
    ///   uses zeros);
    /// * [`Error::RowSumNotOne`] if a row does not sum to `1 ± 1e-6` in
    ///   `f64`, or to exactly one in [`Ratio`].
    pub fn from_rows(rows: Vec<Vec<S>>) -> Result<Instance<S>> {
        if rows.is_empty() {
            return Err(Error::NoDevices);
        }
        let c = rows[0].len();
        if c == 0 {
            return Err(Error::NoCells);
        }
        for (i, row) in rows.iter().enumerate() {
            if row.len() != c {
                return Err(Error::RaggedRows {
                    device: i,
                    found: row.len(),
                    expected: c,
                });
            }
            let mut sum = S::zero();
            for (j, p) in row.iter().enumerate() {
                if !p.is_probability() {
                    return Err(Error::InvalidProbability {
                        device: i,
                        cell: j,
                        value: p.to_f64(),
                    });
                }
                sum = sum.add(p);
            }
            if !sum.is_unit_sum() {
                return Err(Error::RowSumNotOne {
                    device: i,
                    sum: sum.to_f64(),
                });
            }
        }
        Ok(Instance { rows })
    }

    /// Number of mobile devices `m`.
    #[must_use]
    pub fn num_devices(&self) -> usize {
        self.rows.len()
    }

    /// Number of cells `c`.
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.rows[0].len()
    }

    /// Probability that device `i` is in cell `j`: the value for `f64`,
    /// a borrow for [`Ratio`].
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` are out of range.
    #[must_use]
    pub fn prob(&self, device: usize, cell: usize) -> S::Entry<'_> {
        self.rows[device][cell].entry()
    }

    /// Iterates over device rows.
    pub fn rows(&self) -> impl Iterator<Item = &[S]> {
        self.rows.iter().map(Vec::as_slice)
    }

    /// The *expected number of devices* in cell `j`:
    /// `Σ_i p[i][j]` — the sort key of the Section 4 heuristic.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    #[must_use]
    pub fn cell_weight(&self, cell: usize) -> S {
        self.rows.iter().map(|r| &r[cell]).sum()
    }

    /// Cells sorted by non-increasing weight, ties broken by cell index
    /// (the heuristic's paging order).
    #[must_use]
    pub fn cells_by_weight_desc(&self) -> Vec<usize> {
        let w: Vec<S> = (0..self.num_cells()).map(|j| self.cell_weight(j)).collect();
        let mut order: Vec<usize> = (0..self.num_cells()).collect();
        order.sort_by(|&a, &b| w[b].total_cmp(&w[a]).then(a.cmp(&b)));
        order
    }
}

impl Instance {
    /// Builds a single-device instance.
    ///
    /// # Errors
    ///
    /// Same as [`Instance::from_rows`].
    pub(crate) fn single_device(probs: Vec<f64>) -> Result<Instance> {
        Instance::from_rows(vec![probs])
    }

    /// The uniform instance: `m` devices, each uniform over `c` cells.
    ///
    /// # Errors
    ///
    /// Returns an error when `m == 0` or `c == 0`.
    pub fn uniform(m: usize, c: usize) -> Result<Instance> {
        if m == 0 {
            return Err(Error::NoDevices);
        }
        if c == 0 {
            return Err(Error::NoCells);
        }
        let p = 1.0 / c as f64;
        Ok(Instance {
            rows: vec![vec![p; c]; m],
        })
    }

    /// The probability row of one device.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    #[must_use]
    pub fn device_row(&self, device: usize) -> &[f64] {
        &self.rows[device]
    }

    /// Converts to an exact instance. Each `f64` becomes the dyadic
    /// rational it represents, then the row is renormalised by its exact
    /// sum so rows sum to exactly one.
    #[must_use]
    pub fn to_exact(&self) -> Instance<Ratio> {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                let exact: Vec<Ratio> = row
                    .iter()
                    // Validated probabilities are finite, so `from_f64`
                    // is always `Some`.
                    .map(|&p| Ratio::from_f64(p).unwrap_or_default())
                    .collect();
                let sum: Ratio = exact.iter().sum();
                exact.into_iter().map(|p| &p / &sum).collect()
            })
            .collect();
        Instance { rows }
    }
}

impl Instance<Ratio> {
    /// Converts to a floating-point instance (renormalising rounding
    /// error away).
    #[must_use]
    pub fn to_f64(&self) -> Instance {
        let rows: Vec<Vec<f64>> = self
            .rows
            .iter()
            .map(|row| {
                let mut v: Vec<f64> = row.iter().map(Ratio::to_f64).collect();
                let s: f64 = v.iter().sum();
                for p in &mut v {
                    *p /= s;
                }
                v
            })
            .collect();
        // Each row holds finite, non-negative values that sum to one up
        // to rounding, which is all `Instance::from_rows` checks.
        debug_assert!(Instance::from_rows(rows.clone()).is_ok());
        Instance { rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_validation() {
        assert_eq!(Delay::new(0), Err(Error::ZeroDelay));
        assert_eq!(Delay::new(3).unwrap().get(), 3);
        assert_eq!(Delay::new(9).unwrap().clamp_to_cells(4).get(), 4);
        assert_eq!(Delay::new(2).unwrap().clamp_to_cells(4).get(), 2);
        assert_eq!(Delay::new(2).unwrap().to_string(), "2");
    }

    #[test]
    fn valid_instance() {
        let inst = Instance::from_rows(vec![vec![0.5, 0.5], vec![0.1, 0.9]]).unwrap();
        assert_eq!(inst.num_devices(), 2);
        assert_eq!(inst.num_cells(), 2);
        assert!((inst.prob(1, 1) - 0.9).abs() < 1e-15);
        assert!((inst.cell_weight(0) - 0.6).abs() < 1e-12);
    }

    /// `rows` validated as `f64` and as the exact `Ratio`s those floats
    /// denote.
    fn from_both(rows: &[&[f64]]) -> (Result<Instance>, Result<Instance<Ratio>>) {
        let exact = rows
            .iter()
            .map(|row| row.iter().map(|&p| Ratio::from_f64(p).unwrap()).collect())
            .collect();
        let float = rows.iter().map(|row| row.to_vec()).collect();
        (Instance::from_rows(float), Instance::from_rows(exact))
    }

    /// Asserts both scalars reject `rows` with the same error.
    fn rejects_alike(rows: &[&[f64]]) -> Error {
        let (float, exact) = from_both(rows);
        let err = float.unwrap_err();
        assert_eq!(exact.unwrap_err(), err, "{rows:?}");
        err
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(rejects_alike(&[]), Error::NoDevices);
        assert_eq!(rejects_alike(&[&[]]), Error::NoCells);
        assert_eq!(Instance::uniform(0, 3).unwrap_err(), Error::NoDevices);
        assert_eq!(Instance::uniform(3, 0).unwrap_err(), Error::NoCells);
    }

    #[test]
    fn rejects_ragged() {
        let err = rejects_alike(&[&[1.0], &[0.5, 0.5]]);
        assert_eq!(
            err,
            Error::RaggedRows {
                device: 1,
                found: 2,
                expected: 1
            }
        );
    }

    #[test]
    fn rejects_bad_probabilities() {
        assert!(matches!(
            rejects_alike(&[&[-0.1, 1.1]]),
            Error::InvalidProbability {
                device: 0,
                cell: 0,
                ..
            }
        ));
        // NaN and ∞ exist only in f64.
        assert!(matches!(
            Instance::from_rows(vec![vec![f64::NAN, 0.5]]).unwrap_err(),
            Error::InvalidProbability { .. }
        ));
        assert!(matches!(
            Instance::from_rows(vec![vec![0.5, f64::INFINITY]]).unwrap_err(),
            Error::InvalidProbability { .. }
        ));
    }

    #[test]
    fn rejects_bad_row_sum() {
        assert!(matches!(
            rejects_alike(&[&[0.5, 0.4]]),
            Error::RowSumNotOne { device: 0, .. }
        ));
        assert!(matches!(
            rejects_alike(&[&[0.5, 0.5], &[0.9, 0.2]]),
            Error::RowSumNotOne { device: 1, .. }
        ));
        // Off by ½.
        assert_eq!(
            rejects_alike(&[&[0.5]]),
            Error::RowSumNotOne {
                device: 0,
                sum: 0.5
            }
        );
    }

    #[test]
    fn row_sum_tolerance_is_f64_only() {
        // 1 + 1e-9 is within ROW_SUM_TOL of one, but it is not one.
        let (float, exact) = from_both(&[&[0.5, 0.5 + 1e-9]]);
        assert!(float.is_ok());
        assert!(matches!(
            exact.unwrap_err(),
            Error::RowSumNotOne { device: 0, .. }
        ));
    }

    #[test]
    fn zero_probability_is_allowed() {
        // Section 4.3's instance has zero entries.
        let inst = Instance::from_rows(vec![vec![0.0, 1.0]]).unwrap();
        assert_eq!(inst.prob(0, 0), 0.0);
    }

    #[test]
    fn uniform_weights() {
        let inst = Instance::uniform(3, 4).unwrap();
        for j in 0..4 {
            assert!((inst.cell_weight(j) - 0.75).abs() < 1e-12);
        }
        assert_eq!(inst.cells_by_weight_desc(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn weight_order_breaks_ties_by_index() {
        let inst =
            Instance::from_rows(vec![vec![0.1, 0.4, 0.1, 0.4], vec![0.4, 0.1, 0.4, 0.1]]).unwrap();
        // All cell weights are 0.5: order must be 0,1,2,3.
        assert_eq!(inst.cells_by_weight_desc(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn weight_order_sorts_desc() {
        let inst = Instance::from_rows(vec![vec![0.1, 0.6, 0.3]]).unwrap();
        assert_eq!(inst.cells_by_weight_desc(), vec![1, 2, 0]);
    }

    #[test]
    fn exact_round_trip() {
        let exact = Instance::from_rows(vec![vec![
            Ratio::from_fraction(2, 7),
            Ratio::from_fraction(5, 7),
        ]])
        .unwrap();
        let f = exact.to_f64();
        assert!((f.prob(0, 0) - 2.0 / 7.0).abs() < 1e-15);
        let back = f.to_exact();
        // 2/7 is not dyadic, so the round trip is approximate but
        // renormalised: rows still sum to exactly 1.
        let sum: Ratio = back.rows().next().unwrap().iter().sum();
        assert_eq!(sum, Ratio::one());
    }

    #[test]
    fn exact_cell_weight_orders() {
        let exact = Instance::from_rows(vec![
            vec![Ratio::from_fraction(1, 3), Ratio::from_fraction(2, 3)],
            vec![Ratio::from_fraction(1, 2), Ratio::from_fraction(1, 2)],
        ])
        .unwrap();
        assert_eq!(exact.cell_weight(1), Ratio::from_fraction(7, 6));
        assert_eq!(exact.cells_by_weight_desc(), vec![1, 0]);
    }

    #[test]
    fn cell_weight_is_the_std_f64_sum() {
        // `from_rows` accepts -0.0. `Iterator::sum` keeps an all-(-0.0)
        // column at -0.0, which `total_cmp` orders below a +0.0 column.
        let inst = Instance::from_rows(vec![vec![-0.0, 0.0, 1.0], vec![-0.0, 0.0, 1.0]]).unwrap();
        let std_sum: f64 = [-0.0f64, -0.0].iter().sum();
        assert_eq!(inst.cell_weight(0).to_bits(), std_sum.to_bits());
        assert_eq!(inst.cells_by_weight_desc(), vec![2, 1, 0]);
    }

    #[test]
    fn instance_to_exact_renormalises() {
        let inst = Instance::from_rows(vec![vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]]).unwrap();
        let exact = inst.to_exact();
        let sum: Ratio = exact.rows().next().unwrap().iter().sum();
        assert_eq!(sum, Ratio::one());
    }
}
