//! The paper's approximation algorithms (Section 4).
//!
//! * [`greedy_strategy`] — the main `e/(e−1) ≈ 1.582`-approximation
//!   (Theorem 4.8): sequence cells by non-increasing expected number of
//!   devices, then cut the sequence optimally with dynamic programming.
//! * [`two_device_two_round`] — the Section 4.1 special case (`m = 2`,
//!   `d = 2`), a `4/3`-approximation computed by a linear scan over the
//!   split point.
//! * [`two_round_ratio_upper_bound`] — that special case's `4/3`
//!   (Lemma 4.3). The `e/(e−1)` factor is
//!   [`crate::bounds::e_over_e_minus_1`], and the Section 4.3 ratio
//!   `320/317` is [`crate::lower_bound_instance::ratio`].

use crate::cancel::CancelToken;
use crate::dp::{conference_stop_probs, optimal_split_cancel};
use crate::error::{Error, Result};
use crate::instance::{Delay, Instance};
use crate::scalar::Scalar;
use crate::strategy::Strategy;
use rational::Ratio;

/// A strategy together with its expected paging, in the scalar of the
/// instance it was planned for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedStrategy<S = f64> {
    /// The paging strategy.
    pub strategy: Strategy,
    /// Its expected paging under the instance it was planned for.
    pub expected_paging: S,
}

/// Computes the `e/(e−1)`-approximate paging strategy of Theorem 4.8.
///
/// The delay is clamped to the number of cells (a strategy cannot have
/// more non-empty groups than cells), matching the paper's `d ≤ c`
/// requirement.
///
/// # Examples
///
/// ```
/// use pager_core::{greedy_strategy, Delay, Instance};
///
/// let inst = Instance::uniform(2, 10)?;
/// let strategy = greedy_strategy(&inst, Delay::new(3)?);
/// assert_eq!(strategy.rounds(), 3);
/// let ep = inst.expected_paging(&strategy)?;
/// assert!(ep < 10.0);
/// # Ok::<(), pager_core::Error>(())
/// ```
#[must_use]
pub fn greedy_strategy<S: Scalar>(instance: &Instance<S>, delay: Delay) -> Strategy {
    greedy_strategy_planned(instance, delay).strategy
}

/// Like [`greedy_strategy`], also returning the expected paging. Over
/// [`Ratio`] the plan and its expected paging are certified.
#[must_use]
pub fn greedy_strategy_planned<S: Scalar>(
    instance: &Instance<S>,
    delay: Delay,
) -> PlannedStrategy<S> {
    greedy_strategy_planned_cancel(instance, delay, &CancelToken::never())
        // lint:allow(no-unwrap-outside-tests): a never-firing token cannot cancel
        .expect("a never-firing token cannot cancel the planner")
}

/// Cancellable counterpart of [`greedy_strategy_planned`]: the `O(d·c²)`
/// cut DP polls `cancel` at checkpoints.
///
/// # Errors
///
/// [`Error::Cancelled`] when `cancel` fires mid-solve.
pub fn greedy_strategy_planned_cancel<S: Scalar>(
    instance: &Instance<S>,
    delay: Delay,
    cancel: &CancelToken,
) -> Result<PlannedStrategy<S>> {
    plan_weight_sorted(instance, delay, None, cancel, conference_stops)
}

/// The best strategy of the weight-sorted family (Lemmas 4.6–4.7):
/// sorts the cells by weight, computes `stop_probs` along that order,
/// and cuts the order where the DP says, at most `max_group` cells per
/// round.
///
/// # Errors
///
/// [`Error::InfeasibleBandwidth`] when `min(d, c)` rounds of
/// `max_group` cells cannot cover the cells; [`Error::Cancelled`]
/// when `cancel` fires; any error of `stop_probs`.
pub(crate) fn plan_weight_sorted<S: Scalar>(
    instance: &Instance<S>,
    delay: Delay,
    max_group: Option<usize>,
    cancel: &CancelToken,
    stop_probs: impl FnOnce(&Instance<S>, &[usize]) -> Result<Vec<S>>,
) -> Result<PlannedStrategy<S>> {
    let c = instance.num_cells();
    let d = delay.clamp_to_cells(c).get();
    let order = instance.cells_by_weight_desc();
    let g = stop_probs(instance, &order)?;
    let split =
        optimal_split_cancel(&g, d, max_group, cancel)?.ok_or(Error::InfeasibleBandwidth {
            bandwidth: max_group.unwrap_or(c),
            delay: d,
            cells: c,
        })?;
    Ok(PlannedStrategy {
        expected_paging: S::one().times(c).sub(&split.savings),
        strategy: Strategy::cut(&order, &split.sizes),
    })
}

/// [`conference_stop_probs`] of an instance along `order`; never fails.
pub(crate) fn conference_stops<S: Scalar>(
    instance: &Instance<S>,
    order: &[usize],
) -> Result<Vec<S>> {
    let rows: Vec<&[S]> = instance.rows().collect();
    Ok(conference_stop_probs(&rows, order))
}

/// The Section 4.1 algorithm for `m = 2`, `d = 2`: scans every split
/// point `s_1 = 1, …, c−1` of the weight-sorted sequence, maintaining
/// the two per-device prefix sums incrementally (`O(c)` time after
/// sorting, `O(1)` extra space), and returns the best two-round
/// strategy. Guaranteed a `4/3`-approximation (Lemma 4.3).
///
/// # Errors
///
/// [`Error::InvalidSignatureThreshold`] (with `k: m, devices: 2`) when
/// `m != 2`; [`Error::DelayExceedsCells`] when `c < 2`.
pub fn two_device_two_round(instance: &Instance) -> Result<PlannedStrategy> {
    let m = instance.num_devices();
    if m != 2 {
        return Err(Error::InvalidSignatureThreshold { k: m, devices: 2 });
    }
    let c = instance.num_cells();
    if c < 2 {
        return Err(Error::DelayExceedsCells { delay: 2, cells: c });
    }
    let order = instance.cells_by_weight_desc();
    let mut p1 = 0.0f64;
    let mut p2 = 0.0f64;
    let mut best_ep = f64::INFINITY;
    let mut best_s1 = 1usize;
    for (idx, &cell) in order.iter().take(c - 1).enumerate() {
        p1 += instance.prob(0, cell);
        p2 += instance.prob(1, cell);
        let s1 = idx + 1;
        let ep = c as f64 - (c - s1) as f64 * p1 * p2;
        if ep < best_ep {
            best_ep = ep;
            best_s1 = s1;
        }
    }
    let strategy = Strategy::cut(&order, &[best_s1, c - best_s1]);
    Ok(PlannedStrategy {
        strategy,
        expected_paging: best_ep,
    })
}

/// The Section 4.1 special-case bound `4/3` for `m = 2`, `d = 2`
/// (Lemma 4.3).
#[must_use]
pub fn two_round_ratio_upper_bound() -> Ratio {
    Ratio::from_fraction(4, 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_matches_fig1() {
        // The prefix-savings DP and the Fig. 1 conditional DP must agree
        // on expected paging for every delay.
        let inst = Instance::from_rows(vec![
            vec![0.30, 0.05, 0.20, 0.25, 0.10, 0.10],
            vec![0.10, 0.35, 0.15, 0.10, 0.15, 0.15],
            vec![0.20, 0.20, 0.20, 0.20, 0.10, 0.10],
        ])
        .unwrap();
        for d in 1..=6 {
            let planned = greedy_strategy_planned(&inst, Delay::new(d).unwrap());
            let fig1 = crate::fig1::approximation(&inst, Delay::new(d).unwrap());
            assert!(
                (planned.expected_paging - fig1.expected_paging).abs() < 1e-9,
                "d={d}: {} vs {}",
                planned.expected_paging,
                fig1.expected_paging
            );
            let ep = inst.expected_paging(&planned.strategy).unwrap();
            assert!((ep - planned.expected_paging).abs() < 1e-9);
        }
    }

    #[test]
    fn greedy_respects_delay() {
        let inst = Instance::uniform(2, 9).unwrap();
        for d in 1..=9 {
            let s = greedy_strategy(&inst, Delay::new(d).unwrap());
            assert_eq!(s.rounds(), d);
        }
        // Clamped beyond c.
        let s = greedy_strategy(&inst, Delay::new(20).unwrap());
        assert_eq!(s.rounds(), 9);
    }

    #[test]
    fn greedy_ep_non_increasing_in_delay() {
        let inst = Instance::from_rows(vec![
            vec![0.4, 0.3, 0.1, 0.1, 0.05, 0.05],
            vec![0.25, 0.25, 0.2, 0.1, 0.1, 0.1],
        ])
        .unwrap();
        let mut last = f64::INFINITY;
        for d in 1..=6 {
            let p = greedy_strategy_planned(&inst, Delay::new(d).unwrap());
            assert!(p.expected_paging <= last + 1e-12, "d={d}");
            last = p.expected_paging;
        }
    }

    #[test]
    fn exact_and_float_greedy_agree() {
        let exact = Instance::from_rows(vec![
            vec![
                Ratio::from_fraction(1, 2),
                Ratio::from_fraction(1, 4),
                Ratio::from_fraction(1, 8),
                Ratio::from_fraction(1, 8),
            ],
            vec![
                Ratio::from_fraction(1, 4),
                Ratio::from_fraction(1, 4),
                Ratio::from_fraction(1, 4),
                Ratio::from_fraction(1, 4),
            ],
        ])
        .unwrap();
        let inst = exact.to_f64();
        for d in 1..=4 {
            let e = greedy_strategy_planned(&exact, Delay::new(d).unwrap());
            let f = greedy_strategy_planned(&inst, Delay::new(d).unwrap());
            assert!(
                (e.expected_paging.to_f64() - f.expected_paging).abs() < 1e-9,
                "d={d}"
            );
            assert_eq!(e.strategy, f.strategy, "d={d}");
        }
    }

    #[test]
    fn two_device_scan_matches_dp() {
        let inst = Instance::from_rows(vec![
            vec![0.35, 0.25, 0.15, 0.10, 0.10, 0.05],
            vec![0.05, 0.15, 0.30, 0.25, 0.15, 0.10],
        ])
        .unwrap();
        let scan = two_device_two_round(&inst).unwrap();
        let dp = greedy_strategy_planned(&inst, Delay::new(2).unwrap());
        assert!((scan.expected_paging - dp.expected_paging).abs() < 1e-12);
        assert_eq!(scan.strategy, dp.strategy);
    }

    #[test]
    fn two_device_scan_validates() {
        let three = Instance::uniform(3, 4).unwrap();
        assert!(two_device_two_round(&three).is_err());
        let tiny = Instance::uniform(2, 1).unwrap();
        assert!(two_device_two_round(&tiny).is_err());
    }

    #[test]
    fn section_4_3_exact_heuristic_value() {
        let exact = crate::lower_bound_instance::instance_exact();
        let plan = greedy_strategy_planned(&exact, Delay::new(2).unwrap());
        assert_eq!(plan.expected_paging, Ratio::from_fraction(320, 49));
    }

    #[test]
    fn ratio_constants() {
        let e_ratio = crate::bounds::e_over_e_minus_1();
        assert!((e_ratio - 1.581_976_7).abs() < 1e-6);
        let lower = crate::lower_bound_instance::ratio();
        assert!(lower.to_f64() > 1.0);
        assert!(lower < Ratio::from_fraction(4, 3));
        assert_eq!(two_round_ratio_upper_bound(), Ratio::from_fraction(4, 3));
    }
}
