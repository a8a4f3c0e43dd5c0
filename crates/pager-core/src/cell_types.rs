//! Exact optimisation by cell types — the engine behind the paper's
//! Section 5 remark that an *approximation scheme* exists for the
//! subclass whose probabilities are covered by constantly many values.
//!
//! Two cells with identical probability columns
//! `(p_{1,j}, …, p_{m,j})` are interchangeable: permuting them maps
//! strategies to strategies of equal expected paging. A strategy is
//! therefore determined, up to equivalence, by **how many cells of
//! each type** it pages per round. With `T` distinct column types of
//! multiplicities `n_1, …, n_T`, the optimum is found by searching the
//! count vectors — `Π_t (n_t + 1)` states per round instead of `2^c`
//! subsets — which is polynomial in `c` for constant `T` and `d`. The
//! Section 5 scheme follows by *rounding* arbitrary probabilities onto
//! a constant grid and solving the rounded instance exactly; the
//! rounding knob is exposed as [`optimal_by_rounded_types`].

use crate::error::{Error, Result};
use crate::greedy::PlannedStrategy;
use crate::instance::{Delay, Instance};
use crate::optimal::advance;
use crate::strategy::Strategy;

/// The type decomposition of an instance: distinct probability columns
/// and the cells carrying each.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTypes {
    /// One representative column per type (`columns[t][i]` = prob of
    /// device `i` in a type-`t` cell).
    pub columns: Vec<Vec<f64>>,
    /// Cells of each type.
    pub members: Vec<Vec<usize>>,
}

impl CellTypes {
    /// Groups the cells of an instance by exact column equality.
    #[must_use]
    pub fn of(instance: &Instance) -> CellTypes {
        CellTypes::of_with_tolerance(instance, 0.0)
    }

    /// Groups cells whose columns agree within `tol` per entry
    /// (`tol = 0` means exact equality). Greedy clustering: each cell
    /// joins the first existing type within tolerance.
    #[must_use]
    pub(crate) fn of_with_tolerance(instance: &Instance, tol: f64) -> CellTypes {
        let m = instance.num_devices();
        let mut columns: Vec<Vec<f64>> = Vec::new();
        let mut members: Vec<Vec<usize>> = Vec::new();
        for j in 0..instance.num_cells() {
            let col: Vec<f64> = (0..m).map(|i| instance.prob(i, j)).collect();
            let found = columns
                .iter()
                .position(|rep| rep.iter().zip(&col).all(|(a, b)| (a - b).abs() <= tol));
            match found {
                Some(t) => members[t].push(j),
                None => {
                    columns.push(col);
                    members.push(vec![j]);
                }
            }
        }
        CellTypes { columns, members }
    }

    /// Number of distinct types.
    #[must_use]
    pub fn num_types(&self) -> usize {
        self.columns.len()
    }

    /// Multiplicities `n_1, …, n_T`.
    #[must_use]
    pub(crate) fn multiplicities(&self) -> Vec<usize> {
        self.members.iter().map(Vec::len).collect()
    }
}

/// Hard cap on the state space of the type DP (product of
/// `(n_t + 1)`). The transition count is bounded by
/// `Π_t (n_t+1)(n_t+2)/2`, i.e. roughly the square of the state count
/// per round, so the cap is deliberately conservative.
pub(crate) const TYPE_DP_MAX_STATES: usize = 50_000;

/// Exact optimal strategy by dynamic programming over type-count
/// prefixes.
///
/// State: a vector `(k_1, …, k_T)` with `k_t` type-`t` cells paged so
/// far. The prefix "all devices found" probability depends only on the
/// state, so the Lemma 4.7 optimality argument applies with states in
/// place of prefixes.
///
/// # Errors
///
/// * [`Error::DelayExceedsCells`] when `d > c`;
/// * [`Error::InvalidSignatureThreshold`] (reused with `k` = number of
///   states) when the state space exceeds 50,000 —
///   cluster with a coarser tolerance or use the heuristic.
pub fn optimal_by_types(instance: &Instance, delay: Delay) -> Result<PlannedStrategy> {
    let types = CellTypes::of(instance);
    optimal_over_types(instance, &types, delay)
}

/// Like [`optimal_by_types`], but first rounds every probability to a
/// grid of `levels` values between the row minimum and maximum,
/// merging near-identical columns — the Section 5 scheme's rounding
/// step. The returned strategy is evaluated (and reported) against the
/// **original** instance.
///
/// # Errors
///
/// As [`optimal_by_types`].
pub fn optimal_by_rounded_types(
    instance: &Instance,
    delay: Delay,
    levels: usize,
) -> Result<PlannedStrategy> {
    let levels = levels.max(1);
    // Per-device rounding grid.
    let m = instance.num_devices();
    let mut grids = Vec::with_capacity(m);
    for i in 0..m {
        let row = instance.device_row(i);
        let lo = row.iter().cloned().fold(f64::MAX, f64::min);
        let hi = row.iter().cloned().fold(f64::MIN, f64::max);
        grids.push((lo, ((hi - lo) / levels as f64).max(f64::EPSILON)));
    }
    // Tolerance equal to one grid step merges columns in the same bin.
    let tol = grids.iter().map(|&(_, step)| step).fold(0.0f64, f64::max);
    let types = CellTypes::of_with_tolerance(instance, tol);
    optimal_over_types(instance, &types, delay)
}

fn optimal_over_types(
    instance: &Instance,
    types: &CellTypes,
    delay: Delay,
) -> Result<PlannedStrategy> {
    let c = instance.num_cells();
    let d = delay.clamp_to_cells(c).get();
    if d > c {
        return Err(Error::DelayExceedsCells { delay: d, cells: c });
    }
    let counts = types.multiplicities();
    let t = counts.len();
    // Mixed-radix state encoding.
    let mut radix = vec![0usize; t];
    let mut states = 1usize;
    for (i, &n) in counts.iter().enumerate() {
        radix[i] = states;
        states = states
            .checked_mul(n + 1)
            .filter(|&s| s <= TYPE_DP_MAX_STATES)
            .ok_or(Error::InvalidSignatureThreshold {
                k: TYPE_DP_MAX_STATES,
                devices: t,
            })?;
    }
    let decode = |mut s: usize| -> Vec<usize> {
        let mut k = vec![0usize; t];
        for i in (0..t).rev() {
            k[i] = s / radix[i];
            s %= radix[i];
        }
        k
    };
    // Per-state: total cells paged and the "all found" probability.
    let m = instance.num_devices();
    let mut size_of = vec![0usize; states];
    let mut found = vec![1.0f64; states];
    for s in 0..states {
        let k = decode(s);
        size_of[s] = k.iter().sum();
        for i in 0..m {
            let pi: f64 = (0..t).map(|ty| k[ty] as f64 * types.columns[ty][i]).sum();
            found[s] *= pi.min(1.0);
        }
    }
    let full = states - 1;
    debug_assert_eq!(size_of[full], c);

    // h[r][s]: max savings after r rounds ending at state s;
    // transition adds (|s'|-|s|)·found[s].
    let neg = f64::NEG_INFINITY;
    let mut h = vec![neg; states];
    let mut parent: Vec<Vec<usize>> = vec![vec![0; states]; d + 1];
    for (s, slot) in h.iter_mut().enumerate() {
        let sz = size_of[s];
        if sz >= 1 && c - sz >= d - 1 {
            *slot = 0.0;
        }
    }
    for r in 2..=d {
        let mut next = vec![neg; states];
        // Iterate predecessor states and extend by every non-empty
        // count increment (enumerate supersets via odometer).
        for s in 0..states {
            if !h[s].is_finite() {
                continue;
            }
            let base_k = decode(s);
            // Enumerate increments: all vectors 0 <= inc_t <= n_t - k_t,
            // not all zero.
            let mut inc = vec![0usize; t];
            while advance(&mut inc, |ty| counts[ty] - base_k[ty] + 1) {
                let added: usize = inc.iter().sum();
                let sup = s + inc
                    .iter()
                    .enumerate()
                    .map(|(ty, &v)| v * radix[ty])
                    .sum::<usize>();
                let sup_sz = size_of[sup];
                if sup_sz < r || c - sup_sz < d - r {
                    continue;
                }
                let cand = h[s] + added as f64 * found[s];
                if cand > next[sup] {
                    next[sup] = cand;
                    parent[r][sup] = s;
                }
            }
        }
        h = next;
    }
    let savings = h[full];
    debug_assert!(savings.is_finite());

    // Backtrack states into per-round type counts, then materialise
    // cells (taking members in order within each type).
    let mut chain = vec![full];
    let mut cur = full;
    for r in (2..=d).rev() {
        cur = parent[r][cur];
        chain.push(cur);
    }
    chain.reverse();
    let mut taken = vec![0usize; t];
    let mut order = Vec::with_capacity(c);
    let mut sizes = Vec::with_capacity(d);
    for &s in &chain {
        let k = decode(s);
        let before = order.len();
        for ty in 0..t {
            order.extend_from_slice(&types.members[ty][taken[ty]..k[ty]]);
            taken[ty] = k[ty];
        }
        sizes.push(order.len() - before);
    }
    let strategy = Strategy::cut(&order, &sizes);
    let expected_paging = instance.lemma_2_1(&strategy);
    Ok(PlannedStrategy {
        strategy,
        expected_paging,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::optimal_subset_dp;

    #[test]
    fn uniform_is_one_type() {
        let inst = Instance::uniform(3, 10).unwrap();
        let types = CellTypes::of(&inst);
        assert_eq!(types.num_types(), 1);
        assert_eq!(types.multiplicities(), vec![10]);
    }

    #[test]
    fn section43_instance_has_three_types() {
        let inst = crate::lower_bound_instance::instance_f64();
        let types = CellTypes::of(&inst);
        // cell 0 (2/7, 0), cells 1..=5 (1/7, 1/7), cells 6..7 (0, 1/7).
        assert_eq!(types.num_types(), 3);
        let mut mult = types.multiplicities();
        mult.sort_unstable();
        assert_eq!(mult, vec![1, 2, 5]);
    }

    #[test]
    fn type_dp_matches_subset_dp_on_uniform() {
        for (m, c, d) in [(1usize, 8usize, 3usize), (2, 10, 2), (3, 9, 4)] {
            let inst = Instance::uniform(m, c).unwrap();
            let a = optimal_by_types(&inst, Delay::new(d).unwrap()).unwrap();
            let b = optimal_subset_dp(&inst, Delay::new(d).unwrap()).unwrap();
            assert!(
                (a.expected_paging - b.expected_paging).abs() < 1e-9,
                "m={m} c={c} d={d}: {} vs {}",
                a.expected_paging,
                b.expected_paging
            );
        }
    }

    #[test]
    fn type_dp_solves_the_section43_instance_exactly() {
        let inst = crate::lower_bound_instance::instance_f64();
        let plan = optimal_by_types(&inst, Delay::new(2).unwrap()).unwrap();
        let target = crate::lower_bound_instance::optimal_ep().to_f64();
        assert!(
            (plan.expected_paging - target).abs() < 1e-9,
            "{} vs {target}",
            plan.expected_paging
        );
    }

    #[test]
    fn type_dp_matches_subset_dp_on_two_valued_instances() {
        // Two column types split 4/4: exact optimum must agree with the
        // subset DP.
        let inst = Instance::from_rows(vec![
            vec![0.2, 0.2, 0.2, 0.2, 0.05, 0.05, 0.05, 0.05],
            vec![0.05, 0.05, 0.05, 0.05, 0.2, 0.2, 0.2, 0.2],
        ])
        .unwrap();
        for d in 2..=4 {
            let a = optimal_by_types(&inst, Delay::new(d).unwrap()).unwrap();
            let b = optimal_subset_dp(&inst, Delay::new(d).unwrap()).unwrap();
            assert!(
                (a.expected_paging - b.expected_paging).abs() < 1e-9,
                "d={d}"
            );
        }
    }

    #[test]
    fn rounded_types_bound_the_optimum() {
        // On a generic instance the rounded scheme yields a valid
        // strategy whose EP is sandwiched between the true optimum and
        // blanket paging; finer grids do no worse than coarse ones
        // here.
        let inst = Instance::from_rows(vec![
            vec![0.31, 0.29, 0.11, 0.09, 0.1, 0.1],
            vec![0.11, 0.09, 0.31, 0.29, 0.1, 0.1],
        ])
        .unwrap();
        let d = Delay::new(3).unwrap();
        let opt = optimal_subset_dp(&inst, d).unwrap();
        let coarse = optimal_by_rounded_types(&inst, d, 2).unwrap();
        let fine = optimal_by_rounded_types(&inst, d, 50).unwrap();
        assert!(coarse.expected_paging >= opt.expected_paging - 1e-9);
        assert!(fine.expected_paging >= opt.expected_paging - 1e-9);
        assert!(fine.expected_paging <= coarse.expected_paging + 1e-9);
        // With a fine grid every column is its own type: exact optimum.
        assert!((fine.expected_paging - opt.expected_paging).abs() < 1e-9);
    }

    #[test]
    fn state_space_guard() {
        // 20 distinct columns and d rounds: the state space is 2^20 —
        // either fine (under the cap) or rejected cleanly; force a
        // rejection with many types by using distinct probabilities.
        let c = 24;
        let row: Vec<f64> = (0..c).map(|j| (j + 1) as f64).collect();
        let total: f64 = row.iter().sum();
        let row: Vec<f64> = row.into_iter().map(|p| p / total).collect();
        let mut row2 = row.clone();
        row2.reverse();
        let inst = Instance::from_rows(vec![row, row2]).unwrap();
        let result = optimal_by_types(&inst, Delay::new(3).unwrap());
        assert!(result.is_err(), "2^24 states must exceed the cap");
    }
}
