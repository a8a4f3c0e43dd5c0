//! Optimal paging for a single device (`m = 1`).
//!
//! The paper's starting point (references [11, 16, 17]; Goodman–Krishnan,
//! Madhavapeddy et al., Rose–Yates): with one device the Conference Call
//! problem is solvable optimally in polynomial time. Sort the cells by
//! non-increasing location probability; some optimal strategy pages the
//! cells in that order (an exchange argument: swapping an out-of-order
//! pair never increases the expected paging), so the order-restricted
//! dynamic program of Lemma 4.7 finds a global optimum.

use crate::cancel::CancelToken;
use crate::error::{Error, Result};
use crate::greedy::{conference_stops, plan_weight_sorted, PlannedStrategy};
use crate::instance::{Delay, Instance};

/// Computes an optimal strategy for a single-device instance.
///
/// # Errors
///
/// Returns [`Error::InvalidSignatureThreshold`] (with `devices: 1`) when
/// the instance has more than one device — use
/// [`crate::greedy::greedy_strategy`] or the exact solvers in
/// [`crate::optimal`] for `m ≥ 2`.
///
/// # Examples
///
/// ```
/// use pager_core::{single_user_optimal, Delay, Instance};
///
/// // Uniform over 8 cells with two rounds: page halves, EP = 3c/4 = 6.
/// let inst = Instance::uniform(1, 8)?;
/// let plan = single_user_optimal(&inst, Delay::new(2)?)?;
/// assert!((plan.expected_paging - 6.0).abs() < 1e-9);
/// # Ok::<(), pager_core::Error>(())
/// ```
pub fn single_user_optimal(instance: &Instance, delay: Delay) -> Result<PlannedStrategy> {
    if instance.num_devices() != 1 {
        return Err(Error::InvalidSignatureThreshold {
            k: instance.num_devices(),
            devices: 1,
        });
    }
    plan_weight_sorted(
        instance,
        delay,
        None,
        &CancelToken::never(),
        conference_stops,
    )
}

/// The closed-form optimal expected paging for a **uniform** single
/// device over `c` cells with `d` rounds.
///
/// For the uniform distribution the optimal strategy splits the cells as
/// evenly as possible; this evaluates the resulting expectation directly
/// (used to sanity-check the DP and reproduce the Section 1.1 example
/// `EP = 3c/4` for even `c`, `d = 2`).
///
/// # Panics
///
/// Panics if `c == 0` or `d == 0`.
#[must_use]
pub fn uniform_optimal_ep(c: usize, d: usize) -> f64 {
    assert!(c > 0 && d > 0, "uniform_optimal_ep needs c, d >= 1");
    let d = d.min(c);
    // Even split: q groups of size ⌈c/d⌉ and d − q of size ⌊c/d⌋.
    let base = c / d;
    let extra = c % d;
    let mut sizes = vec![base + 1; extra];
    sizes.extend(std::iter::repeat_n(base, d - extra));
    // Among even splits, put larger groups first (weakly better for the
    // uniform distribution); EP = c − Σ s_{r+1}·(j_r / c).
    let mut prefix = 0usize;
    let mut savings = 0.0;
    for r in 0..sizes.len() - 1 {
        prefix += sizes[r];
        savings += sizes[r + 1] as f64 * prefix as f64 / c as f64;
    }
    c as f64 - savings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_multi_device() {
        let inst = Instance::uniform(2, 4).unwrap();
        assert!(single_user_optimal(&inst, Delay::new(2).unwrap()).is_err());
    }

    #[test]
    fn uniform_two_round_halving() {
        for c in [2usize, 4, 8, 16, 64] {
            let inst = Instance::uniform(1, c).unwrap();
            let plan = single_user_optimal(&inst, Delay::new(2).unwrap()).unwrap();
            assert!(
                (plan.expected_paging - 0.75 * c as f64).abs() < 1e-9,
                "c={c}"
            );
            assert_eq!(plan.strategy.group_sizes(), vec![c / 2, c / 2]);
        }
    }

    #[test]
    fn uniform_closed_form_matches_dp() {
        for c in [3usize, 5, 8, 12, 17] {
            for d in 1..=c.min(6) {
                let inst = Instance::uniform(1, c).unwrap();
                let plan = single_user_optimal(&inst, Delay::new(d).unwrap()).unwrap();
                let closed = uniform_optimal_ep(c, d);
                assert!(
                    (plan.expected_paging - closed).abs() < 1e-9,
                    "c={c} d={d}: dp={} closed={closed}",
                    plan.expected_paging
                );
            }
        }
    }

    #[test]
    fn full_delay_pages_one_cell_a_round() {
        // With d = c the optimal strategy for a strictly decreasing
        // distribution pages cells one by one in probability order.
        let inst = Instance::single_device(vec![0.4, 0.3, 0.15, 0.1, 0.05]).unwrap();
        let plan = single_user_optimal(&inst, Delay::new(5).unwrap()).unwrap();
        assert_eq!(plan.strategy.group_sizes(), vec![1, 1, 1, 1, 1]);
        assert_eq!(plan.strategy.groups().concat(), vec![0, 1, 2, 3, 4]);
        // EP = Σ_r r·p_(r) = 1·0.4 + 2·0.3 + 3·0.15 + 4·0.1 + 5·0.05.
        let expect = 0.4 + 0.6 + 0.45 + 0.4 + 0.25;
        assert!((plan.expected_paging - expect).abs() < 1e-12);
    }

    #[test]
    fn optimal_beats_exhaustive_never() {
        // DP result equals the exhaustive optimum over *all* strategies
        // (not just the sorted family) for small c — the classical
        // optimality of probability-sorted paging for m = 1.
        let inst = Instance::single_device(vec![0.35, 0.1, 0.2, 0.05, 0.3]).unwrap();
        for d in 1..=4 {
            let plan = single_user_optimal(&inst, Delay::new(d).unwrap()).unwrap();
            let best = crate::optimal::optimal_exhaustive(&inst, Delay::new(d).unwrap()).unwrap();
            assert!(
                (plan.expected_paging - best.expected_paging).abs() < 1e-9,
                "d={d}: sorted={} exhaustive={}",
                plan.expected_paging,
                best.expected_paging
            );
        }
    }

    #[test]
    #[should_panic(expected = "needs c, d >= 1")]
    fn uniform_closed_form_guards() {
        let _ = uniform_optimal_ep(0, 2);
    }
}
