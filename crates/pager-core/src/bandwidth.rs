//! Bandwidth-limited paging (a Section 5 extension).
//!
//! Real systems cannot page arbitrarily many cells in one time unit; the
//! paper observes that its approximation machinery survives a per-round
//! cap of `b` cells: Lemma 4.6 still yields an approximate strategy in
//! the sorted family, and the Lemma 4.7 dynamic program just restricts
//! the group-size range. This module implements that restricted planner
//! and the feasibility analysis.

use crate::cancel::CancelToken;
use crate::error::Result;
use crate::greedy::{conference_stops, plan_weight_sorted, PlannedStrategy};
use crate::instance::{Delay, Instance};

/// Plans a greedy (weight-sorted + DP) strategy that pages at most
/// `bandwidth` cells per round.
///
/// # Errors
///
/// Returns [`crate::Error::InfeasibleBandwidth`] when even `min(d, c)` rounds
/// of `bandwidth` cells cannot cover all `c` cells.
///
/// # Examples
///
/// ```
/// use pager_core::{bandwidth::greedy_strategy_bounded, Delay, Instance};
///
/// let inst = Instance::uniform(2, 10)?;
/// let plan = greedy_strategy_bounded(&inst, Delay::new(4)?, 3)?;
/// assert!(plan.strategy.group_sizes().iter().all(|&s| s <= 3));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn greedy_strategy_bounded(
    instance: &Instance,
    delay: Delay,
    bandwidth: usize,
) -> Result<PlannedStrategy> {
    greedy_strategy_bounded_cancel(instance, delay, bandwidth, &CancelToken::never())
}

/// Cancellable counterpart of [`greedy_strategy_bounded`]: the cut DP
/// polls `cancel` at checkpoints.
///
/// # Errors
///
/// [`crate::Error::InfeasibleBandwidth`] as for [`greedy_strategy_bounded`];
/// [`crate::Error::Cancelled`] when `cancel` fires mid-solve.
pub fn greedy_strategy_bounded_cancel(
    instance: &Instance,
    delay: Delay,
    bandwidth: usize,
    cancel: &CancelToken,
) -> Result<PlannedStrategy> {
    plan_weight_sorted(instance, delay, Some(bandwidth), cancel, conference_stops)
}

/// The minimum number of rounds needed to cover `c` cells at `b` cells
/// per round (`⌈c/b⌉`), or `None` when `b == 0`.
#[must_use]
pub fn min_rounds(c: usize, b: usize) -> Option<usize> {
    if b == 0 {
        return None;
    }
    Some(c.div_ceil(b))
}

/// Sweeps the bandwidth cap from `⌈c/d⌉` (tightest feasible) to `c`
/// (unconstrained) and reports the expected paging at each cap. Used by
/// experiment `E9` to show the price of bandwidth limits.
///
/// Returns `(bandwidth, expected_paging)` pairs in increasing bandwidth
/// order.
#[must_use]
pub fn bandwidth_sweep(instance: &Instance, delay: Delay) -> Vec<(usize, f64)> {
    let c = instance.num_cells();
    let d = delay.clamp_to_cells(c).get();
    let mut out = Vec::new();
    let tightest = c.div_ceil(d);
    for b in tightest..=c {
        if let Ok(plan) = greedy_strategy_bounded(instance, delay, b) {
            out.push((b, plan.expected_paging));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::greedy::greedy_strategy_planned;

    #[test]
    fn respects_cap() {
        let inst = Instance::from_rows(vec![
            vec![0.3, 0.2, 0.2, 0.1, 0.1, 0.05, 0.05],
            vec![0.1, 0.1, 0.3, 0.2, 0.1, 0.1, 0.1],
        ])
        .unwrap();
        for b in 2..=7 {
            let plan = greedy_strategy_bounded(&inst, Delay::new(4).unwrap(), b).unwrap();
            assert!(plan.strategy.group_sizes().iter().all(|&s| s <= b), "b={b}");
            assert_eq!(plan.strategy.num_cells(), 7);
        }
    }

    #[test]
    fn infeasible_detected() {
        let inst = Instance::uniform(1, 10).unwrap();
        assert!(matches!(
            greedy_strategy_bounded(&inst, Delay::new(3).unwrap(), 3),
            Err(Error::InfeasibleBandwidth { .. })
        ));
        assert!(matches!(
            greedy_strategy_bounded(&inst, Delay::new(3).unwrap(), 0),
            Err(Error::InfeasibleBandwidth { .. })
        ));
        assert!(greedy_strategy_bounded(&inst, Delay::new(3).unwrap(), 4).is_ok());
    }

    #[test]
    fn unconstrained_cap_matches_greedy() {
        let inst = Instance::uniform(2, 8).unwrap();
        let free = greedy_strategy_planned(&inst, Delay::new(3).unwrap());
        let capped = greedy_strategy_bounded(&inst, Delay::new(3).unwrap(), 8).unwrap();
        assert!((free.expected_paging - capped.expected_paging).abs() < 1e-12);
    }

    #[test]
    fn tighter_cap_never_helps() {
        let inst = Instance::from_rows(vec![
            vec![0.4, 0.2, 0.1, 0.1, 0.1, 0.1],
            vec![0.1, 0.3, 0.3, 0.1, 0.1, 0.1],
        ])
        .unwrap();
        let sweep = bandwidth_sweep(&inst, Delay::new(3).unwrap());
        assert!(!sweep.is_empty());
        for pair in sweep.windows(2) {
            assert!(
                pair[1].1 <= pair[0].1 + 1e-12,
                "EP must be non-increasing in bandwidth: {sweep:?}"
            );
        }
        assert_eq!(sweep.first().unwrap().0, 2); // ⌈6/3⌉
        assert_eq!(sweep.last().unwrap().0, 6);
    }

    #[test]
    fn min_rounds_formula() {
        assert_eq!(min_rounds(10, 3), Some(4));
        assert_eq!(min_rounds(9, 3), Some(3));
        assert_eq!(min_rounds(1, 5), Some(1));
        assert_eq!(min_rounds(10, 0), None);
    }
}
