//! Adaptive paging strategies (a Section 5 extension).
//!
//! An adaptive strategy chooses each round's cells based on which
//! devices have been found so far. The paper suggests the natural
//! extension of its heuristic: after every round, condition each
//! still-missing device's distribution on "not in any paged cell",
//! renormalise over the unpaged cells, and replan the next group with
//! the Fig. 1 algorithm and the remaining delay budget. The analysis of
//! this policy's ratio is stated as an open problem; this module
//! provides an exact expected-cost evaluator (enumerating found-set
//! outcomes round by round) and a Monte-Carlo simulator so the
//! oblivious-vs-adaptive gap can be measured (experiment `E8`).

use crate::error::{Error, Result};
use crate::greedy::greedy_strategy;
use crate::instance::{Delay, Instance};
use crate::simulation::sample_placements;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Maximum cells supported by the exact adaptive evaluator.
pub(crate) const ADAPTIVE_EXACT_MAX_CELLS: usize = 20;
/// Maximum devices supported by the exact adaptive evaluator.
pub(crate) const ADAPTIVE_EXACT_MAX_DEVICES: usize = 12;

/// Plans the next paging group adaptively.
///
/// Given the unfound devices' conditional distributions over the
/// `unpaged` cells and `rounds_left`, runs the greedy planner on the
/// reduced instance and returns the cells (original indices) to page
/// next. With one round left, all unpaged cells are returned.
fn plan_next_group(
    instance: &Instance,
    unfound: &[usize],
    unpaged: &[usize],
    rounds_left: usize,
) -> Vec<usize> {
    debug_assert!(!unpaged.is_empty());
    if rounds_left <= 1 || unfound.is_empty() {
        return unpaged.to_vec();
    }
    let Ok(delay) = Delay::new(rounds_left) else {
        return unpaged.to_vec();
    };
    if unpaged.len() == instance.num_cells() {
        // Nothing paged yet: conditioning on nothing is the identity.
        // Renormalising would divide each row by a sum of 1 ± an ulp,
        // which can reorder tied cells away from the oblivious plan.
        return greedy_strategy(instance, delay).group(0).to_vec();
    }
    // Conditional rows over the unpaged cells.
    let mut rows = Vec::with_capacity(unfound.len());
    for &i in unfound {
        let total: f64 = unpaged.iter().map(|&j| instance.prob(i, j)).sum();
        if total <= 0.0 {
            // Contradiction with "not yet found": treat as uniform.
            rows.push(vec![1.0 / unpaged.len() as f64; unpaged.len()]);
        } else {
            rows.push(
                unpaged
                    .iter()
                    .map(|&j| instance.prob(i, j) / total)
                    .collect(),
            );
        }
    }
    // The conditional rows are normalized and `rounds_left >= 2` here,
    // so neither constructor can fail for a valid instance; paging
    // everything remaining is the safe fallback either way.
    let Ok(reduced) = Instance::from_rows(rows) else {
        return unpaged.to_vec();
    };
    let strategy = greedy_strategy(&reduced, delay);
    strategy
        .group(0)
        .iter()
        .map(|&local| unpaged[local])
        .collect()
}

/// Exact expected number of cells paged by the adaptive replanning
/// policy, computed by enumerating which devices are found each round.
///
/// # Errors
///
/// Returns [`Error::DelayExceedsCells`]-style validation via `Delay`
/// clamping (never fails for valid instances) and
/// [`Error::InvalidSignatureThreshold`]-free errors; concretely it
/// returns `Err` only when the instance exceeds
/// 20 cells or 12 devices
/// (reported as [`Error::DelayExceedsCells`] with the offending sizes —
/// see the fields).
pub fn adaptive_expected_paging(instance: &Instance, delay: Delay) -> Result<f64> {
    let c = instance.num_cells();
    let m = instance.num_devices();
    if c > ADAPTIVE_EXACT_MAX_CELLS {
        return Err(Error::DelayExceedsCells {
            delay: ADAPTIVE_EXACT_MAX_CELLS,
            cells: c,
        });
    }
    if m > ADAPTIVE_EXACT_MAX_DEVICES {
        return Err(Error::InvalidSignatureThreshold {
            k: m,
            devices: ADAPTIVE_EXACT_MAX_DEVICES,
        });
    }
    let d = delay.clamp_to_cells(c).get();
    let unfound: Vec<usize> = (0..m).collect();
    let unpaged: Vec<usize> = (0..c).collect();
    Ok(recurse(instance, &unfound, &unpaged, d))
}

/// Expected remaining paging cost, conditioned on `unfound` devices not
/// being in any already-paged cell.
fn recurse(instance: &Instance, unfound: &[usize], unpaged: &[usize], rounds_left: usize) -> f64 {
    if unfound.is_empty() || unpaged.is_empty() {
        return 0.0;
    }
    let group = plan_next_group(instance, unfound, unpaged, rounds_left);
    let group_cost = group.len() as f64;
    let remaining: Vec<usize> = unpaged
        .iter()
        .copied()
        .filter(|j| !group.contains(j))
        .collect();
    if remaining.is_empty() {
        return group_cost;
    }
    // Per unfound device: probability of being found in `group`, given
    // it is somewhere in `unpaged`.
    let probs_found: Vec<f64> = unfound
        .iter()
        .map(|&i| {
            let total: f64 = unpaged.iter().map(|&j| instance.prob(i, j)).sum();
            if total <= 0.0 {
                1.0 // degenerate: pretend found to terminate
            } else {
                let in_group: f64 = group.iter().map(|&j| instance.prob(i, j)).sum();
                (in_group / total).clamp(0.0, 1.0)
            }
        })
        .collect();
    // Enumerate found subsets of the unfound devices.
    let k = unfound.len();
    let mut expected = group_cost;
    for mask in 0..(1u32 << k) {
        let mut pr = 1.0f64;
        let mut still_unfound = Vec::new();
        for (bit, &dev) in unfound.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                pr *= probs_found[bit];
            } else {
                pr *= 1.0 - probs_found[bit];
                still_unfound.push(dev);
            }
        }
        if pr <= 0.0 || still_unfound.is_empty() {
            continue; // all found: no further cost
        }
        expected += pr * recurse(instance, &still_unfound, &remaining, rounds_left - 1);
    }
    expected
}

/// Maximum cells supported by the optimal-adaptive solver.
pub(crate) const OPTIMAL_ADAPTIVE_MAX_CELLS: usize = 12;
/// Maximum devices supported by the optimal-adaptive solver.
pub(crate) const OPTIMAL_ADAPTIVE_MAX_DEVICES: usize = 6;

/// Exact expected paging of the **optimal adaptive strategy**, by full
/// dynamic programming over `(unfound devices, unpaged cells, rounds
/// left)` with every possible next group considered.
///
/// The paper leaves the complexity of optimal adaptive paging open
/// (Section 5); this solver is exponential (`O(3^c · 4^m · d)`) and
/// exists to *measure* the adaptivity gap exactly on small instances.
///
/// # Errors
///
/// Returns an error when the instance exceeds
/// 12 cells or 6 devices.
pub fn optimal_adaptive_expected_paging(instance: &Instance, delay: Delay) -> Result<f64> {
    let c = instance.num_cells();
    let m = instance.num_devices();
    if c > OPTIMAL_ADAPTIVE_MAX_CELLS {
        return Err(Error::DelayExceedsCells {
            delay: OPTIMAL_ADAPTIVE_MAX_CELLS,
            cells: c,
        });
    }
    if m > OPTIMAL_ADAPTIVE_MAX_DEVICES {
        return Err(Error::InvalidSignatureThreshold {
            k: m,
            devices: OPTIMAL_ADAPTIVE_MAX_DEVICES,
        });
    }
    let d = delay.clamp_to_cells(c).get();
    // Per-device probability of each cell subset, precomputed.
    let size = 1usize << c;
    let mut mass = vec![vec![0.0f64; size]; m];
    for i in 0..m {
        for mask in 1..size {
            let low = mask.trailing_zeros() as usize;
            mass[i][mask] = mass[i][mask & (mask - 1)] + instance.prob(i, low);
        }
    }
    let mut memo: std::collections::HashMap<(u32, u32, u8), f64> = std::collections::HashMap::new();
    let full_devices = (1u32 << m) - 1;
    let full_cells = (1u32 << c) - 1;
    let value = adaptive_value(full_devices, full_cells, d as u8, &mass, m, &mut memo);
    Ok(value)
}

/// Expected remaining cost with `unfound` devices (conditioned on not
/// being in paged cells), `unpaged` cells and `rounds` rounds left.
fn adaptive_value(
    unfound: u32,
    unpaged: u32,
    rounds: u8,
    mass: &[Vec<f64>],
    m: usize,
    memo: &mut std::collections::HashMap<(u32, u32, u8), f64>,
) -> f64 {
    if unfound == 0 || unpaged == 0 {
        return 0.0;
    }
    if let Some(&v) = memo.get(&(unfound, unpaged, rounds)) {
        return v;
    }
    let unpaged_count = unpaged.count_ones() as f64;
    let result = if rounds <= 1 {
        // Forced: page everything left.
        unpaged_count
    } else {
        // Conditional found-probabilities per device for each candidate
        // group S: q_i = P_i(S) / P_i(unpaged).
        let devices: Vec<usize> = (0..m).filter(|&i| unfound & (1 << i) != 0).collect();
        let denom: Vec<f64> = devices
            .iter()
            .map(|&i| mass[i][unpaged as usize].max(1e-300))
            .collect();
        let mut best = f64::INFINITY;
        // Enumerate non-empty submasks S of unpaged.
        let mut s = unpaged;
        loop {
            let group_cost = s.count_ones() as f64;
            if group_cost < best {
                let remaining = unpaged & !s;
                let mut expected = group_cost;
                if remaining != 0 {
                    // Enumerate found-outcomes over the unfound devices.
                    let k = devices.len();
                    let q: Vec<f64> = devices
                        .iter()
                        .zip(&denom)
                        .map(|(&i, &den)| (mass[i][s as usize] / den).clamp(0.0, 1.0))
                        .collect();
                    for outcome in 0u32..(1 << k) {
                        let mut pr = 1.0f64;
                        let mut still = 0u32;
                        for (bit, &dev) in devices.iter().enumerate() {
                            if outcome & (1 << bit) != 0 {
                                pr *= q[bit];
                            } else {
                                pr *= 1.0 - q[bit];
                                still |= 1 << dev;
                            }
                        }
                        if still != 0 && pr > 0.0 {
                            expected +=
                                pr * adaptive_value(still, remaining, rounds - 1, mass, m, memo);
                            if expected >= best {
                                break; // prune: already worse
                            }
                        }
                    }
                }
                best = best.min(expected);
            }
            if s == 0 {
                break;
            }
            s = (s - 1) & unpaged;
            if s == 0 {
                break;
            }
        }
        best
    };
    memo.insert((unfound, unpaged, rounds), result);
    result
}

/// Monte-Carlo estimate of the adaptive policy's expected paging.
///
/// # Errors
///
/// Returns [`Error::NoDevices`] when `trials == 0`.
pub fn adaptive_simulate(
    instance: &Instance,
    delay: Delay,
    trials: usize,
    seed: u64,
) -> Result<f64> {
    if trials == 0 {
        return Err(Error::NoDevices);
    }
    let c = instance.num_cells();
    let m = instance.num_devices();
    let d = delay.clamp_to_cells(c).get();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total = 0.0f64;
    for _ in 0..trials {
        let placements = sample_placements(instance, &mut rng);
        let mut unfound: Vec<usize> = (0..m).collect();
        let mut unpaged: Vec<usize> = (0..c).collect();
        let mut rounds_left = d;
        let mut paged = 0usize;
        while !unfound.is_empty() {
            let group = plan_next_group(instance, &unfound, &unpaged, rounds_left);
            paged += group.len();
            unfound.retain(|&i| !group.contains(&placements[i]));
            unpaged.retain(|j| !group.contains(j));
            rounds_left = rounds_left.saturating_sub(1);
            if unpaged.is_empty() {
                break;
            }
        }
        total += paged as f64;
    }
    Ok(total / trials as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_strategy_planned;

    fn demo() -> Instance {
        Instance::from_rows(vec![
            vec![0.35, 0.25, 0.15, 0.15, 0.10],
            vec![0.10, 0.20, 0.40, 0.20, 0.10],
        ])
        .unwrap()
    }

    #[test]
    fn one_round_is_blanket_cost() {
        let inst = demo();
        let ep = adaptive_expected_paging(&inst, Delay::new(1).unwrap()).unwrap();
        assert!((ep - 5.0).abs() < 1e-12);
    }

    #[test]
    fn single_device_matches_oblivious() {
        // With one device, information never arrives mid-search (the
        // search ends when the device is found), so adaptive == the
        // oblivious plan it starts from.
        let inst = Instance::single_device(vec![0.4, 0.25, 0.2, 0.1, 0.05]).unwrap();
        for d in 1..=4 {
            let adaptive = adaptive_expected_paging(&inst, Delay::new(d).unwrap()).unwrap();
            let oblivious = greedy_strategy_planned(&inst, Delay::new(d).unwrap());
            assert!(
                (adaptive - oblivious.expected_paging).abs() < 1e-9,
                "d={d}: {adaptive} vs {}",
                oblivious.expected_paging
            );
        }
    }

    #[test]
    fn adaptive_never_beaten_by_its_oblivious_start() {
        // The adaptive policy's first group equals the oblivious
        // heuristic's; replanning with information should help (it does
        // on these instances).
        let inst = demo();
        for d in 2..=4 {
            let adaptive = adaptive_expected_paging(&inst, Delay::new(d).unwrap()).unwrap();
            let oblivious = greedy_strategy_planned(&inst, Delay::new(d).unwrap());
            assert!(
                adaptive <= oblivious.expected_paging + 1e-9,
                "d={d}: adaptive {adaptive} vs oblivious {}",
                oblivious.expected_paging
            );
        }
    }

    #[test]
    fn first_round_is_the_oblivious_one_on_tied_cells() {
        // Cells 0–3 tie in total weight, and the last cell takes the
        // remainder, so each row sums to 1 only up to an ulp. The first
        // round must still be exactly the oblivious heuristic's, so at
        // d = 2 (first round, then the rest) the two costs coincide.
        let rest = 1.0 - 0.1 - 0.3 - 0.1 - 0.3;
        let inst = Instance::from_rows(vec![
            vec![0.1, 0.3, 0.1, 0.3, rest],
            vec![0.3, 0.1, 0.3, 0.1, rest],
        ])
        .unwrap();
        let d = Delay::new(2).unwrap();
        let adaptive = adaptive_expected_paging(&inst, d).unwrap();
        let oblivious = greedy_strategy_planned(&inst, d).expected_paging;
        assert!(
            (adaptive - oblivious).abs() < 1e-12,
            "adaptive {adaptive} vs oblivious {oblivious}"
        );
    }

    #[test]
    fn simulation_matches_exact() {
        let inst = demo();
        let d = Delay::new(3).unwrap();
        let exact = adaptive_expected_paging(&inst, d).unwrap();
        let sim = adaptive_simulate(&inst, d, 60_000, 11).unwrap();
        assert!(
            (sim - exact).abs() < 0.05,
            "simulated {sim} vs exact {exact}"
        );
    }

    #[test]
    fn size_limits_enforced() {
        let big = Instance::uniform(2, 30).unwrap();
        assert!(adaptive_expected_paging(&big, Delay::new(2).unwrap()).is_err());
        let many = Instance::uniform(13, 4).unwrap();
        assert!(adaptive_expected_paging(&many, Delay::new(2).unwrap()).is_err());
        assert!(adaptive_simulate(&demo(), Delay::new(2).unwrap(), 0, 0).is_err());
    }

    #[test]
    fn optimal_adaptive_bounds_everything() {
        let inst = demo();
        for d in 2..=4 {
            let delay = Delay::new(d).unwrap();
            let opt_adaptive = optimal_adaptive_expected_paging(&inst, delay).unwrap();
            let heuristic_adaptive = adaptive_expected_paging(&inst, delay).unwrap();
            let opt_oblivious = crate::optimal::optimal_subset_dp(&inst, delay)
                .unwrap()
                .expected_paging;
            // Optimal adaptive is the strongest of the three.
            assert!(
                opt_adaptive <= opt_oblivious + 1e-9,
                "d={d}: {opt_adaptive} vs oblivious {opt_oblivious}"
            );
            assert!(
                opt_adaptive <= heuristic_adaptive + 1e-9,
                "d={d}: {opt_adaptive} vs heuristic {heuristic_adaptive}"
            );
            // And it is still a real search: at least the first group.
            assert!(opt_adaptive >= 1.0);
        }
    }

    #[test]
    fn optimal_adaptive_equals_oblivious_at_d2() {
        // Section 5: for d = 2 any adaptive strategy is oblivious, so
        // the optimal adaptive EP equals the optimal oblivious EP.
        let inst = demo();
        let delay = Delay::new(2).unwrap();
        let adaptive = optimal_adaptive_expected_paging(&inst, delay).unwrap();
        let oblivious = crate::optimal::optimal_subset_dp(&inst, delay)
            .unwrap()
            .expected_paging;
        assert!(
            (adaptive - oblivious).abs() < 1e-9,
            "{adaptive} vs {oblivious}"
        );
    }

    #[test]
    fn optimal_adaptive_single_device_matches_oblivious() {
        // With one device no information arrives before the search
        // ends: adaptivity cannot help.
        let inst = Instance::single_device(vec![0.4, 0.25, 0.2, 0.1, 0.05]).unwrap();
        for d in 2..=4 {
            let delay = Delay::new(d).unwrap();
            let adaptive = optimal_adaptive_expected_paging(&inst, delay).unwrap();
            let oblivious = crate::optimal::optimal_subset_dp(&inst, delay)
                .unwrap()
                .expected_paging;
            assert!((adaptive - oblivious).abs() < 1e-9, "d={d}");
        }
    }

    #[test]
    fn optimal_adaptive_limits() {
        let wide = Instance::uniform(2, 14).unwrap();
        assert!(optimal_adaptive_expected_paging(&wide, Delay::new(2).unwrap()).is_err());
        let crowded = Instance::uniform(7, 4).unwrap();
        assert!(optimal_adaptive_expected_paging(&crowded, Delay::new(2).unwrap()).is_err());
    }

    #[test]
    fn two_rounds_adaptive_equals_oblivious() {
        // For d = 2 any adaptive strategy is oblivious (Section 5): the
        // second round is forced.
        let inst = demo();
        let adaptive = adaptive_expected_paging(&inst, Delay::new(2).unwrap()).unwrap();
        let oblivious = greedy_strategy_planned(&inst, Delay::new(2).unwrap());
        assert!((adaptive - oblivious.expected_paging).abs() < 1e-9);
    }
}
