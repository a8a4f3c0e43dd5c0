//! The Yellow Pages problem (Section 5): find **any one** of the `m`
//! devices.
//!
//! The dual of the Conference Call problem — the paper reports (without
//! details) an `m`-approximation based on a heuristic *different* from
//! the weight-sorted one, and notes the weight-sorted heuristic does
//! **not** give a constant factor for this problem. This module
//! provides:
//!
//! * [`expected_paging_yellow`] — the exact objective (`k = 1`
//!   Signature);
//! * [`greedy_yellow`] — the weight-sorted heuristic, for measuring its
//!   (unbounded) ratio empirically;
//! * [`best_single_device`] — the `m`-approximation candidate: plan an
//!   optimal *single-user* search for each device separately, evaluate
//!   each plan against the true Yellow Pages objective, keep the best.
//!   Finding any device is never harder than finding a fixed device
//!   `i`, and an optimal YP strategy restricted to device `i` costs at
//!   least `OPT_i / 1`, giving `min_i EP_i ≤ m · OPT_YP`-style bounds;
//! * [`optimal_yellow_exhaustive`] — ground truth on small instances.

use crate::error::{Error, Result};
use crate::greedy::PlannedStrategy;
use crate::instance::{Delay, Instance};
use crate::signature::{expected_paging_signature, greedy_signature, optimal_signature_exhaustive};
use crate::single_user::single_user_optimal;
use crate::strategy::Strategy;

/// Expected cells paged until the **first** device is found.
///
/// # Errors
///
/// Mirrors [`expected_paging_signature`] with `k = 1`.
pub fn expected_paging_yellow(instance: &Instance, strategy: &Strategy) -> Result<f64> {
    expected_paging_signature(instance, strategy, 1)
}

/// The weight-sorted heuristic applied to the Yellow Pages objective.
///
/// # Errors
///
/// Mirrors [`greedy_signature`] with `k = 1`.
pub fn greedy_yellow(instance: &Instance, delay: Delay) -> Result<PlannedStrategy> {
    greedy_signature(instance, delay, 1)
}

/// Plans per-device single-user-optimal strategies and returns the one
/// with the lowest **Yellow Pages** expected paging.
///
/// # Errors
///
/// Propagates instance/strategy validation errors (cannot occur for a
/// valid instance).
pub fn best_single_device(instance: &Instance, delay: Delay) -> Result<PlannedStrategy> {
    let mut best: Option<PlannedStrategy> = None;
    for i in 0..instance.num_devices() {
        let row = instance.device_row(i).to_vec();
        let single = Instance::single_device(row)?;
        let plan = single_user_optimal(&single, delay)?;
        let ep = expected_paging_yellow(instance, &plan.strategy)?;
        if best.as_ref().is_none_or(|b| ep < b.expected_paging) {
            best = Some(PlannedStrategy {
                strategy: plan.strategy,
                expected_paging: ep,
            });
        }
    }
    // A valid `Instance` has >= 1 device, so the loop always ran.
    best.ok_or(Error::NoDevices)
}

/// Exhaustive optimal Yellow Pages strategy (small instances only).
///
/// # Errors
///
/// Mirrors [`optimal_signature_exhaustive`] with `k = 1`.
///
/// # Panics
///
/// Panics if `c > 12`, the cap of [`crate::optimal::optimal_exhaustive`].
pub fn optimal_yellow_exhaustive(instance: &Instance, delay: Delay) -> Result<PlannedStrategy> {
    optimal_signature_exhaustive(instance, delay, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yellow_cheaper_than_conference() {
        let inst =
            Instance::from_rows(vec![vec![0.4, 0.3, 0.2, 0.1], vec![0.1, 0.2, 0.3, 0.4]]).unwrap();
        let s = Strategy::new(vec![vec![0], vec![1], vec![2], vec![3]]).unwrap();
        let yp = expected_paging_yellow(&inst, &s).unwrap();
        let cc = inst.expected_paging(&s).unwrap();
        assert!(yp <= cc + 1e-12);
    }

    #[test]
    fn single_device_yp_equals_cc() {
        // With m = 1 the two problems coincide.
        let inst = Instance::single_device(vec![0.5, 0.3, 0.2]).unwrap();
        let s = Strategy::new(vec![vec![0], vec![1, 2]]).unwrap();
        let yp = expected_paging_yellow(&inst, &s).unwrap();
        let cc = inst.expected_paging(&s).unwrap();
        assert!((yp - cc).abs() < 1e-12);
    }

    #[test]
    fn heuristics_bounded_by_optimal() {
        let inst = Instance::from_rows(vec![
            vec![0.05, 0.05, 0.4, 0.3, 0.2],
            vec![0.3, 0.3, 0.1, 0.2, 0.1],
        ])
        .unwrap();
        let d = Delay::new(3).unwrap();
        let opt = optimal_yellow_exhaustive(&inst, d).unwrap();
        let greedy = greedy_yellow(&inst, d).unwrap();
        let single = best_single_device(&inst, d).unwrap();
        assert!(greedy.expected_paging >= opt.expected_paging - 1e-9);
        assert!(single.expected_paging >= opt.expected_paging - 1e-9);
        // m-approximation bound for the single-device heuristic.
        let m = inst.num_devices() as f64;
        assert!(single.expected_paging <= m * opt.expected_paging + 1e-9);
    }

    #[test]
    fn disjoint_hotspots_favor_one_device() {
        // Device 1 concentrated on cell 0, device 2 spread out: the
        // best single-device plan searches device 1's hotspot first and
        // the YP cost is near 1.
        let inst = Instance::from_rows(vec![
            vec![0.96, 0.01, 0.01, 0.01, 0.01],
            vec![0.2, 0.2, 0.2, 0.2, 0.2],
        ])
        .unwrap();
        let plan = best_single_device(&inst, Delay::new(5).unwrap()).unwrap();
        assert!(plan.expected_paging < 1.5, "{}", plan.expected_paging);
        assert_eq!(plan.strategy.group(0), &[0]);
    }

    #[test]
    fn greedy_yellow_reported_ep_is_consistent() {
        let inst =
            Instance::from_rows(vec![vec![0.3, 0.3, 0.2, 0.2], vec![0.25, 0.25, 0.25, 0.25]])
                .unwrap();
        let plan = greedy_yellow(&inst, Delay::new(2).unwrap()).unwrap();
        let ep = expected_paging_yellow(&inst, &plan.strategy).unwrap();
        assert!((ep - plan.expected_paging).abs() < 1e-9);
    }
}
