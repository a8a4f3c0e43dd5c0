//! The Signature problem (Section 5): find **any `k` of the `m`**
//! devices.
//!
//! The paper proposes this generalisation — motivated by collecting `k`
//! managers' signatures — with the Conference Call problem as `k = m`
//! and the Yellow Pages problem as `k = 1`. The search stops at the
//! first round `r` such that at least `k` devices lie in
//! `L_r = S_1 ∪ … ∪ S_r`. By the same telescoping as Lemma 2.1,
//!
//! ```text
//! EP_k = c − Σ_{r=1}^{t−1} |S_{r+1}| · G_k(L_r),
//! G_k(L) = Pr[ at least k devices are located in L ],
//! ```
//!
//! where `G_k(L)` is a Poisson-binomial tail over the independent
//! per-device probabilities `P_i(L)`. Because `G_k` is still a function
//! of the prefix set, the Lemma 4.7 dynamic program applies unchanged
//! within the weight-sorted family — giving the natural generalisation
//! of the paper's heuristic.

use crate::cancel::CancelToken;
use crate::dp::stop_probs;
use crate::error::{Error, Result};
use crate::greedy::{plan_weight_sorted, PlannedStrategy};
use crate::instance::{Delay, Instance};
use crate::optimal::best_onto_assignment;
use crate::simulation::SearchOutcome;
use crate::strategy::Strategy;

/// Poisson-binomial tail: `Pr[ Σ_i Bernoulli(p_i) >= k ]`.
///
/// `O(m·k)` dynamic program over the devices.
#[must_use]
pub fn at_least_k_prob(probs: &[f64], k: usize) -> f64 {
    let m = probs.len();
    if k == 0 {
        return 1.0;
    }
    if k > m {
        return 0.0;
    }
    // dist[j] = Pr[exactly j successes among processed devices], capped
    // at k (the k-th slot absorbs "k or more").
    let mut dist = vec![0.0f64; k + 1];
    dist[0] = 1.0;
    for &p in probs {
        for j in (0..=k).rev() {
            let stay = dist[j] * (1.0 - p);
            let from_below = if j > 0 { dist[j - 1] * p } else { 0.0 };
            dist[j] = if j == k {
                dist[k] + dist[k - 1] * p // absorb
            } else {
                stay + from_below
            };
        }
    }
    dist[k].clamp(0.0, 1.0)
}

/// Validates `1 <= k <= m` for an instance.
fn check_k(instance: &Instance, k: usize) -> Result<()> {
    let m = instance.num_devices();
    if k == 0 || k > m {
        return Err(Error::InvalidSignatureThreshold { k, devices: m });
    }
    Ok(())
}

/// Expected cells paged until at least `k` devices are found.
///
/// # Errors
///
/// [`Error::InvalidSignatureThreshold`] for bad `k`;
/// [`Error::StrategyInstanceMismatch`] on dimension mismatch.
pub fn expected_paging_signature(
    instance: &Instance,
    strategy: &Strategy,
    k: usize,
) -> Result<f64> {
    check_k(instance, k)?;
    strategy.check_cells(instance.num_cells())?;
    Ok(instance.telescoped_ep(strategy, |prefix| at_least_k_prob(prefix, k)))
}

/// Greedy (weight-sorted + DP) strategy for the Signature problem.
///
/// # Errors
///
/// [`Error::InvalidSignatureThreshold`] for bad `k`.
pub fn greedy_signature(instance: &Instance, delay: Delay, k: usize) -> Result<PlannedStrategy> {
    greedy_signature_cancel(instance, delay, k, &CancelToken::never())
}

/// Cancellable counterpart of [`greedy_signature`]: polls `cancel`
/// between the `O(c·m·k)` tail-probability sweep and inside the cut DP.
///
/// # Errors
///
/// [`Error::InvalidSignatureThreshold`] for bad `k`;
/// [`Error::Cancelled`] when `cancel` fires mid-solve.
pub fn greedy_signature_cancel(
    instance: &Instance,
    delay: Delay,
    k: usize,
    cancel: &CancelToken,
) -> Result<PlannedStrategy> {
    check_k(instance, k)?;
    plan_weight_sorted(instance, delay, None, cancel, |instance, order| {
        // G_k(prefix j): the probability at least k devices are in the
        // first j cells of the order.
        let rows: Vec<&[f64]> = instance.rows().collect();
        let g = stop_probs(&rows, order, |prefix| at_least_k_prob(prefix, k));
        cancel.check()?;
        Ok(g)
    })
}

/// Exhaustive optimal Signature strategy (small instances only).
///
/// # Errors
///
/// [`Error::InvalidSignatureThreshold`] for bad `k`;
/// [`Error::DelayExceedsCells`] when `d > c`.
///
/// # Panics
///
/// Panics if `c > 12`, the cap of [`crate::optimal::optimal_exhaustive`].
pub fn optimal_signature_exhaustive(
    instance: &Instance,
    delay: Delay,
    k: usize,
) -> Result<PlannedStrategy> {
    check_k(instance, k)?;
    let (strategy, expected_paging) = best_onto_assignment(instance.num_cells(), delay, |s| {
        instance.telescoped_ep(s, |prefix| at_least_k_prob(prefix, k))
    })?;
    Ok(PlannedStrategy {
        strategy,
        expected_paging,
    })
}

/// Runs one Signature search with fixed placements: stops at the first
/// round after which at least `k` devices have been found.
///
/// # Panics
///
/// Panics if a placement is out of range for the strategy.
#[must_use]
pub fn run_search_signature(strategy: &Strategy, placements: &[usize], k: usize) -> SearchOutcome {
    let round_of = strategy.round_of_cell();
    let mut device_rounds: Vec<usize> = placements.iter().map(|&cell| round_of[cell]).collect();
    device_rounds.sort_unstable();
    let k = k.min(device_rounds.len()).max(1);
    // The k-th smallest found-round is when the search stops.
    let stop_round = device_rounds[k - 1];
    let cells_paged: usize = (0..=stop_round).map(|r| strategy.group(r).len()).sum();
    let devices_found = device_rounds.iter().filter(|&&r| r <= stop_round).count();
    SearchOutcome {
        cells_paged,
        rounds_used: stop_round + 1,
        devices_found,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_probability_basics() {
        assert_eq!(at_least_k_prob(&[], 0), 1.0);
        assert_eq!(at_least_k_prob(&[0.5], 2), 0.0);
        assert!((at_least_k_prob(&[0.5, 0.5], 1) - 0.75).abs() < 1e-12);
        assert!((at_least_k_prob(&[0.5, 0.5], 2) - 0.25).abs() < 1e-12);
        let p = [0.2, 0.7, 0.4];
        // brute force over 8 outcomes
        let mut brute = [0.0f64; 4];
        for mask in 0u32..8 {
            let mut pr = 1.0;
            let mut cnt = 0;
            for (i, &pi) in p.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    pr *= pi;
                    cnt += 1;
                } else {
                    pr *= 1.0 - pi;
                }
            }
            brute[cnt] += pr;
        }
        for k in 0..=3 {
            let tail: f64 = brute[k..].iter().sum();
            assert!((at_least_k_prob(&p, k) - tail).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn k_equals_m_matches_conference_call() {
        let inst =
            Instance::from_rows(vec![vec![0.4, 0.3, 0.2, 0.1], vec![0.1, 0.2, 0.3, 0.4]]).unwrap();
        let s = Strategy::new(vec![vec![0, 3], vec![1, 2]]).unwrap();
        let sig = expected_paging_signature(&inst, &s, 2).unwrap();
        let cc = inst.expected_paging(&s).unwrap();
        assert!((sig - cc).abs() < 1e-12);
    }

    #[test]
    fn k_one_is_cheapest() {
        // EP is non-decreasing in k: finding more devices costs more.
        let inst = Instance::from_rows(vec![
            vec![0.5, 0.2, 0.2, 0.1],
            vec![0.1, 0.4, 0.3, 0.2],
            vec![0.25, 0.25, 0.25, 0.25],
        ])
        .unwrap();
        let s = Strategy::new(vec![vec![0], vec![1], vec![2], vec![3]]).unwrap();
        let mut last = 0.0;
        for k in 1..=3 {
            let ep = expected_paging_signature(&inst, &s, k).unwrap();
            assert!(ep >= last - 1e-12, "k={k}");
            last = ep;
        }
    }

    #[test]
    fn validates_k() {
        let inst = Instance::uniform(2, 4).unwrap();
        let s = Strategy::blanket(4);
        assert!(expected_paging_signature(&inst, &s, 0).is_err());
        assert!(expected_paging_signature(&inst, &s, 3).is_err());
        assert!(greedy_signature(&inst, Delay::new(2).unwrap(), 0).is_err());
    }

    #[test]
    fn greedy_vs_exhaustive_signature() {
        let inst = Instance::from_rows(vec![
            vec![0.35, 0.3, 0.2, 0.1, 0.05],
            vec![0.1, 0.15, 0.3, 0.25, 0.2],
            vec![0.2, 0.2, 0.2, 0.2, 0.2],
        ])
        .unwrap();
        for k in 1..=3 {
            for d in 2..=3 {
                let g = greedy_signature(&inst, Delay::new(d).unwrap(), k).unwrap();
                let o = optimal_signature_exhaustive(&inst, Delay::new(d).unwrap(), k).unwrap();
                assert!(
                    g.expected_paging >= o.expected_paging - 1e-9,
                    "greedy cannot beat optimal (k={k}, d={d})"
                );
                // Empirically the greedy stays within the CC factor on
                // these small instances.
                assert!(
                    g.expected_paging <= o.expected_paging * 1.582 + 1e-9,
                    "k={k} d={d}: {} vs {}",
                    g.expected_paging,
                    o.expected_paging
                );
            }
        }
    }

    #[test]
    fn greedy_ep_matches_reported() {
        let inst =
            Instance::from_rows(vec![vec![0.4, 0.3, 0.2, 0.1], vec![0.25, 0.25, 0.25, 0.25]])
                .unwrap();
        for k in 1..=2 {
            let plan = greedy_signature(&inst, Delay::new(2).unwrap(), k).unwrap();
            let ep = expected_paging_signature(&inst, &plan.strategy, k).unwrap();
            assert!((ep - plan.expected_paging).abs() < 1e-9, "k={k}");
        }
    }

    #[test]
    fn search_stops_at_kth_device() {
        let s = Strategy::new(vec![vec![0], vec![1], vec![2]]).unwrap();
        // Devices at cells 0, 2: k=1 stops round 1 (1 cell), k=2 stops
        // round 3 (3 cells).
        let o1 = run_search_signature(&s, &[0, 2], 1);
        assert_eq!(o1.cells_paged, 1);
        assert_eq!(o1.devices_found, 1);
        let o2 = run_search_signature(&s, &[0, 2], 2);
        assert_eq!(o2.cells_paged, 3);
        assert_eq!(o2.devices_found, 2);
    }

    #[test]
    fn simulated_signature_matches_analytic() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let inst = Instance::from_rows(vec![
            vec![0.5, 0.3, 0.1, 0.1],
            vec![0.2, 0.4, 0.2, 0.2],
            vec![0.1, 0.1, 0.4, 0.4],
        ])
        .unwrap();
        let s = Strategy::new(vec![vec![0, 1], vec![2], vec![3]]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for k in 1..=3 {
            let analytic = expected_paging_signature(&inst, &s, k).unwrap();
            let trials = 100_000;
            let mut sum = 0.0;
            for _ in 0..trials {
                let placements = crate::simulation::sample_placements(&inst, &mut rng);
                sum += run_search_signature(&s, &placements, k).cells_paged as f64;
            }
            let mean = sum / trials as f64;
            assert!(
                (mean - analytic).abs() < 0.03,
                "k={k}: simulated {mean} vs analytic {analytic}"
            );
        }
    }
}
