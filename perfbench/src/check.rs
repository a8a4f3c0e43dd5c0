//! Output checks. Every failure counts against `ok_ratio` and fails
//! the run.

use pager_core::optimal::optimal_subset_dp;
use pager_core::{Delay, Instance, Strategy};

/// EP agreement required between the served plan and the benchmark's
/// own Lemma 2.1 evaluation.
pub const EP_TOLERANCE: f64 = 1e-9;

/// Whether `groups` is an ordered partition of `0..cells` into at most
/// `delay` non-empty rounds.
pub fn is_partition(groups: &[Vec<usize>], cells: usize, delay: usize) -> bool {
    if groups.is_empty() || groups.len() > delay {
        return false;
    }
    let mut seen = vec![false; cells];
    for group in groups {
        if group.is_empty() {
            return false;
        }
        for &cell in group {
            match seen.get_mut(cell) {
                Some(slot) if !*slot => *slot = true,
                _ => return false,
            }
        }
    }
    seen.iter().all(|&s| s)
}

/// The benchmark-side expected paging of `groups` on `instance`.
pub fn expected_paging(instance: &Instance, groups: &[Vec<usize>]) -> Option<f64> {
    let strategy = Strategy::new(groups.to_vec()).ok()?;
    instance.expected_paging(&strategy).ok()
}

/// A served plan is valid and its reported EP matches the recomputed
/// one within `tolerance`.
pub fn plan_ok(
    instance: &Instance,
    delay: usize,
    groups: &[Vec<usize>],
    ep: f64,
    tolerance: f64,
) -> bool {
    is_partition(groups, instance.num_cells(), delay)
        && expected_paging(instance, groups).is_some_and(|own| (own - ep).abs() <= tolerance)
}

/// The served exact-tier EP equals the benchmark's own subset-DP
/// optimum.
pub fn exact_is_optimal(instance: &Instance, delay: usize, ep: f64) -> bool {
    let Ok(delay) = Delay::new(delay) else {
        return false;
    };
    let delay = delay.clamp_to_cells(instance.num_cells());
    optimal_subset_dp(instance, delay)
        .is_ok_and(|opt| (opt.expected_paging - ep).abs() <= EP_TOLERANCE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions() {
        assert!(is_partition(&[vec![1], vec![0, 2]], 3, 2));
        assert!(!is_partition(&[vec![1], vec![0, 2]], 3, 1));
        assert!(!is_partition(&[vec![1], vec![1, 2]], 3, 2));
        assert!(!is_partition(&[vec![0], vec![]], 1, 2));
        assert!(!is_partition(&[vec![0, 3]], 3, 2));
        assert!(!is_partition(&[vec![0, 1]], 3, 2));
    }

    #[test]
    fn optimum_and_ep() {
        let inst = Instance::from_rows(vec![vec![0.5, 0.3, 0.2], vec![0.2, 0.2, 0.6]])
            .expect("valid instance");
        let opt = optimal_subset_dp(&inst, Delay::new(2).expect("delay")).expect("solves");
        let groups = opt.strategy.groups().to_vec();
        assert!(plan_ok(
            &inst,
            2,
            &groups,
            opt.expected_paging,
            EP_TOLERANCE
        ));
        assert!(exact_is_optimal(&inst, 2, opt.expected_paging));
        assert!(!exact_is_optimal(&inst, 2, opt.expected_paging + 0.01));
    }
}
