//! Exact optimal solvers for small instances.
//!
//! The Conference Call problem is NP-hard for every fixed `m ≥ 2`,
//! `d ≥ 2` (Section 3), so no polynomial-time exact solver exists unless
//! P = NP. These solvers are exponential and intended as ground truth
//! for the experiments: measuring the heuristic's empirical
//! approximation ratio (Theorem 4.8 bounds it by `e/(e−1)`), and
//! verifying the NP-hardness reduction's YES ⇔ `EP = LB` equivalence.
//!
//! Three engines, cross-checked against each other in tests:
//!
//! * [`optimal_exhaustive`] — enumerates all `d^c` round assignments
//!   (skipping those with empty rounds) in `f64` or, certified, in
//!   [`Ratio`]; simple, for `c ≤ 12`;
//! * [`optimal_subset_dp`] — dynamic program over prefix-union chains
//!   `∅ ⊂ L_1 ⊂ … ⊂ L_d = [c]` in `O(d·3^c)`; reaches `c ≈ 18`;
//! * [`optimal_two_round_exact`] — exact rational optimum for `d = 2`
//!   by enumerating the `2^c − 2` first-round subsets, used by the
//!   hardness pipeline where certified arithmetic matters.

use crate::cancel::CancelToken;
use crate::error::{Error, Result};
use crate::greedy::PlannedStrategy;
use crate::instance::{Delay, Instance};
use crate::scalar::Scalar;
use crate::strategy::Strategy;
use rational::Ratio;

/// Hard cap for [`optimal_exhaustive`] so `d^c` stays tractable.
pub(crate) const EXHAUSTIVE_MAX_CELLS: usize = 12;
/// Hard cap for [`optimal_subset_dp`] so `3^c` stays tractable.
pub const SUBSET_DP_MAX_CELLS: usize = 18;

/// Finds a minimum-expected-paging strategy by enumerating every
/// assignment of cells to rounds, exactly for a [`Ratio`] instance.
///
/// # Errors
///
/// Returns [`Error::DelayExceedsCells`] when `d > c`.
///
/// # Panics
///
/// Panics if `c > 12` — use
/// [`optimal_subset_dp`] or the heuristic instead.
pub fn optimal_exhaustive<S: Scalar>(
    instance: &Instance<S>,
    delay: Delay,
) -> Result<PlannedStrategy<S>> {
    let (strategy, expected_paging) =
        best_onto_assignment(instance.num_cells(), delay, |s| instance.lemma_2_1(s))?;
    Ok(PlannedStrategy {
        strategy,
        expected_paging,
    })
}

/// The exhaustive search shared by the exact solvers: the first
/// strategy of least `cost` among the onto assignments of `cells` cells
/// to `d` rounds, in odometer order (cell 0 is the fastest digit).
/// [`Error::DelayExceedsCells`] when `d > cells`; panics past
/// [`EXHAUSTIVE_MAX_CELLS`] cells.
pub(crate) fn best_onto_assignment<T: PartialOrd>(
    cells: usize,
    delay: Delay,
    mut cost: impl FnMut(&Strategy) -> T,
) -> Result<(Strategy, T)> {
    let d = delay.get();
    let too_many_rounds = Error::DelayExceedsCells { delay: d, cells };
    if d > cells {
        return Err(too_many_rounds);
    }
    assert!(
        cells <= EXHAUSTIVE_MAX_CELLS,
        "exhaustive search supports at most {EXHAUSTIVE_MAX_CELLS} cells, got {cells}"
    );
    let mut best: Option<(Strategy, T)> = None;
    let mut assignment = vec![0usize; cells];
    loop {
        if let Some(strategy) = Strategy::from_assignment(&assignment).filter(|s| s.rounds() == d) {
            let value = cost(&strategy);
            if best.as_ref().is_none_or(|(_, b)| value < *b) {
                best = Some((strategy, value));
            }
        }
        if !advance(&mut assignment, |_| d) {
            break;
        }
    }
    best.ok_or(too_many_rounds)
}

/// Odometer increment over mixed-radix digits, digit `i` counting
/// modulo `base(i)` and digit 0 fastest. Returns `false` once the
/// digits wrap back to all zeros.
pub(crate) fn advance(digits: &mut [usize], base: impl Fn(usize) -> usize) -> bool {
    for (i, digit) in digits.iter_mut().enumerate() {
        *digit += 1;
        if *digit < base(i) {
            return true;
        }
        *digit = 0;
    }
    false
}

/// Finds a minimum-expected-paging strategy with a dynamic program over
/// prefix-union chains (`O(d · 3^c)` time, `O(2^c)` space).
///
/// # Errors
///
/// Returns [`Error::DelayExceedsCells`] when `d > c`.
///
/// # Panics
///
/// Panics if `c >` [`SUBSET_DP_MAX_CELLS`].
pub fn optimal_subset_dp(instance: &Instance, delay: Delay) -> Result<PlannedStrategy> {
    optimal_subset_dp_cancel(instance, delay, &CancelToken::never())
}

/// Cancellable counterpart of [`optimal_subset_dp`]: polls `cancel` at
/// checkpoints inside the `O(d·3^c)` submask enumeration so a deadline
/// that expires mid-solve abandons the DP instead of completing late.
///
/// # Errors
///
/// [`Error::Cancelled`] when `cancel` fires mid-solve;
/// [`Error::DelayExceedsCells`] when `d > c`.
///
/// # Panics
///
/// Panics if `c >` [`SUBSET_DP_MAX_CELLS`].
pub fn optimal_subset_dp_cancel(
    instance: &Instance,
    delay: Delay,
    cancel: &CancelToken,
) -> Result<PlannedStrategy> {
    let c = instance.num_cells();
    let d = delay.get();
    if d > c {
        return Err(Error::DelayExceedsCells { delay: d, cells: c });
    }
    assert!(
        c <= SUBSET_DP_MAX_CELLS,
        "optimal_subset_dp supports at most {SUBSET_DP_MAX_CELLS} cells, got {c}"
    );
    let full: u32 = if c == 32 { u32::MAX } else { (1u32 << c) - 1 };
    let size = 1usize << c;
    let mut ticks = 0u32;

    // f[mask] = Π_i P_i(mask): probability all devices are in `mask`.
    let mut f = vec![1.0f64; size];
    for i in 0..instance.num_devices() {
        // prefix-sum over bits: p[mask] = Σ_{j ∈ mask} p_{i,j}
        let mut p = vec![0.0f64; size];
        for mask in 1..size {
            cancel.checkpoint(&mut ticks)?;
            let low = mask.trailing_zeros() as usize;
            p[mask] = p[mask & (mask - 1)] + instance.prob(i, low);
        }
        for mask in 0..size {
            f[mask] *= p[mask];
        }
    }

    // h[L] = best savings for chains ending at L after r rounds.
    // parent[r][L] records the predecessor for backtracking.
    let neg = f64::NEG_INFINITY;
    let mut h = vec![neg; size];
    let mut parent: Vec<Vec<u32>> = vec![vec![0; size]; d + 1];
    // Round 1: any non-empty L_1 with enough cells left for d−1 rounds.
    for (mask, slot) in h.iter_mut().enumerate() {
        let bits = (mask as u32).count_ones() as usize;
        if mask != 0 && bits >= 1 && c - bits >= d - 1 {
            *slot = 0.0;
        }
    }
    for r in 2..=d {
        let mut next = vec![neg; size];
        for sup in 1..size {
            let sup_bits = (sup as u32).count_ones() as usize;
            // Need r rounds so far and d − r more non-empty rounds.
            if sup_bits < r || c - sup_bits < d - r {
                continue;
            }
            // Enumerate proper submasks `sub` of `sup`.
            let supm = sup as u32;
            let mut sub = (sup - 1) as u32 & supm;
            loop {
                cancel.checkpoint(&mut ticks)?;
                if sub != 0 && h[sub as usize].is_finite() {
                    let gained = (supm.count_ones() - sub.count_ones()) as f64 * f[sub as usize];
                    let cand = h[sub as usize] + gained;
                    if cand > next[sup] {
                        next[sup] = cand;
                        parent[r][sup] = sub;
                    }
                }
                if sub == 0 {
                    break;
                }
                sub = (sub - 1) & supm;
            }
        }
        h = next;
    }
    let savings = h[full as usize];
    debug_assert!(
        savings.is_finite(),
        "full chain always feasible when d <= c"
    );

    // Backtrack the chain into groups.
    let mut chain = vec![full];
    let mut cur = full;
    for r in (2..=d).rev() {
        cur = parent[r][cur as usize];
        chain.push(cur);
    }
    chain.reverse(); // L_1, …, L_d = full
    let mut order = Vec::with_capacity(c);
    let mut sizes = Vec::with_capacity(d);
    let mut prev: u32 = 0;
    for &l in &chain {
        let newly = l & !prev;
        order.extend((0..c).filter(|&j| newly & (1 << j) != 0));
        sizes.push(newly.count_ones() as usize);
        prev = l;
    }
    let strategy = Strategy::cut(&order, &sizes);
    Ok(PlannedStrategy {
        expected_paging: c as f64 - savings,
        strategy,
    })
}

/// Exact optimal two-round strategy by enumerating all first-round
/// subsets (`2^c − 2` candidates) over the rationals.
///
/// # Errors
///
/// Returns [`Error::DelayExceedsCells`] when `c < 2`.
///
/// # Panics
///
/// Panics if `c > 24` (the enumeration would not terminate in
/// reasonable time).
pub fn optimal_two_round_exact(instance: &Instance<Ratio>) -> Result<PlannedStrategy<Ratio>> {
    let c = instance.num_cells();
    assert!(c <= 24, "optimal_two_round_exact supports at most 24 cells");
    let m = instance.num_devices();
    let mut best: Option<(Ratio, u32)> = None;
    // Every proper, non-empty first round; none exist when c < 2.
    for mask in 1u32..((1u32 << c) - 1) {
        // EP = c − |S_2| · Π_i P_i(S_1)
        let mut prod = Ratio::one();
        for i in 0..m {
            let mut pi = Ratio::zero();
            for j in 0..c {
                if mask & (1 << j) != 0 {
                    pi = &pi + instance.prob(i, j);
                }
            }
            prod = &prod * &pi;
            if prod.is_zero() {
                break;
            }
        }
        let s2 = c as u32 - mask.count_ones();
        let ep = &Ratio::from(c) - &(&Ratio::from(u64::from(s2)) * &prod);
        if best.as_ref().is_none_or(|(b, _)| ep < *b) {
            best = Some((ep, mask));
        }
    }
    let (ep, mask) = best.ok_or(Error::DelayExceedsCells { delay: 2, cells: c })?;
    let in_first = |j: &usize| mask & (1 << j) != 0;
    let order: Vec<usize> = (0..c)
        .filter(in_first)
        .chain((0..c).filter(|j| !in_first(j)))
        .collect();
    let first = mask.count_ones() as usize;
    let strategy = Strategy::cut(&order, &[first, c - first]);
    Ok(PlannedStrategy {
        strategy,
        expected_paging: ep,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::e_over_e_minus_1;
    use crate::greedy::greedy_strategy_planned;

    fn demo_instance() -> Instance {
        Instance::from_rows(vec![
            vec![0.30, 0.25, 0.20, 0.15, 0.05, 0.05],
            vec![0.10, 0.15, 0.20, 0.25, 0.15, 0.15],
        ])
        .unwrap()
    }

    #[test]
    fn engines_agree() {
        let inst = demo_instance();
        for d in 1..=4 {
            let a = optimal_exhaustive(&inst, Delay::new(d).unwrap()).unwrap();
            let b = optimal_subset_dp(&inst, Delay::new(d).unwrap()).unwrap();
            assert!(
                (a.expected_paging - b.expected_paging).abs() < 1e-9,
                "d={d}: exhaustive={} subset={}",
                a.expected_paging,
                b.expected_paging
            );
        }
    }

    #[test]
    fn two_round_exact_agrees_with_float_engines() {
        let exact = crate::lower_bound_instance::instance_exact();
        let e = optimal_two_round_exact(&exact).unwrap();
        assert_eq!(e.expected_paging, crate::lower_bound_instance::optimal_ep());
        let f = optimal_subset_dp(&exact.to_f64(), Delay::new(2).unwrap()).unwrap();
        assert!((e.expected_paging.to_f64() - f.expected_paging).abs() < 1e-9);
    }

    #[test]
    fn heuristic_within_proven_factor() {
        let inst = demo_instance();
        for d in 1..=4 {
            let opt = optimal_subset_dp(&inst, Delay::new(d).unwrap()).unwrap();
            let heur = greedy_strategy_planned(&inst, Delay::new(d).unwrap());
            let ratio = heur.expected_paging / opt.expected_paging;
            assert!(ratio <= e_over_e_minus_1() + 1e-9, "d={d}: ratio {ratio}");
            assert!(ratio >= 1.0 - 1e-9, "heuristic cannot beat the optimum");
        }
    }

    #[test]
    fn exhaustive_exact_matches_float() {
        let exact = crate::lower_bound_instance::instance_exact();
        let inst = exact.to_f64();
        for d in [2usize, 3] {
            let e = optimal_exhaustive(&exact, Delay::new(d).unwrap()).unwrap();
            let f = optimal_exhaustive(&inst, Delay::new(d).unwrap()).unwrap();
            assert!(
                (e.expected_paging.to_f64() - f.expected_paging).abs() < 1e-9,
                "d={d}"
            );
        }
    }

    #[test]
    fn one_round_is_blanket() {
        let inst = demo_instance();
        let a = optimal_exhaustive(&inst, Delay::new(1).unwrap()).unwrap();
        assert_eq!(a.strategy.rounds(), 1);
        assert!((a.expected_paging - 6.0).abs() < 1e-12);
    }

    #[test]
    fn delay_exceeding_cells_rejected() {
        let inst = Instance::uniform(1, 3).unwrap();
        assert!(matches!(
            optimal_exhaustive(&inst, Delay::new(4).unwrap()),
            Err(Error::DelayExceedsCells { .. })
        ));
        assert!(matches!(
            optimal_subset_dp(&inst, Delay::new(4).unwrap()),
            Err(Error::DelayExceedsCells { .. })
        ));
    }

    #[test]
    fn subset_dp_cancels_mid_solve() {
        // 14 cells → 2^14 masks: plenty of checkpoint strides.
        let inst = Instance::uniform(2, 14).unwrap();
        let expired = CancelToken::with_timeout(std::time::Duration::ZERO);
        assert_eq!(
            optimal_subset_dp_cancel(&inst, Delay::new(3).unwrap(), &expired),
            Err(Error::Cancelled)
        );
        // A live token matches the plain entry point.
        let small = demo_instance();
        let a = optimal_subset_dp_cancel(&small, Delay::new(3).unwrap(), &CancelToken::never())
            .unwrap();
        let b = optimal_subset_dp(&small, Delay::new(3).unwrap()).unwrap();
        assert!((a.expected_paging - b.expected_paging).abs() < 1e-12);
    }

    #[test]
    fn optimal_monotone_in_delay() {
        let inst = demo_instance();
        let mut last = f64::INFINITY;
        for d in 1..=5 {
            let p = optimal_subset_dp(&inst, Delay::new(d).unwrap()).unwrap();
            assert!(p.expected_paging <= last + 1e-12, "d={d}");
            last = p.expected_paging;
        }
    }

    #[test]
    fn full_delay_uniform_matches_closed_form() {
        let inst = Instance::uniform(1, 6).unwrap();
        let p = optimal_subset_dp(&inst, Delay::new(6).unwrap()).unwrap();
        let closed = crate::single_user::uniform_optimal_ep(6, 6);
        assert!((p.expected_paging - closed).abs() < 1e-9);
    }
}
