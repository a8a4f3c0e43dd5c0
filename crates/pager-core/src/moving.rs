//! Robustness to motion *during* the search.
//!
//! The paper's model assumes "the devices do not move during the
//! search" (Section 1.2) — reasonable when rounds are sub-second, but
//! an assumption worth quantifying. This module simulates searches in
//! which devices take a random-walk step between paging rounds, over a
//! line of cells with a configurable move probability per round:
//!
//! * a device can *escape* into already-paged cells, so an oblivious
//!   strategy may exhaust its rounds without finding everyone; like
//!   real systems (and like [`crate::lossy`]), the searcher then
//!   re-sweeps the whole cell set until all devices are found;
//! * the expected paging degrades smoothly in the per-round move
//!   probability, and longer strategies (more rounds) are hurt more —
//!   quantified by experiment `E16` (`exp_motion`).

use crate::error::{Error, Result};
use crate::instance::Instance;
use crate::simulation::sample_placements;
use crate::strategy::Strategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Motion model applied between paging rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MotionModel {
    /// The paper's assumption: devices are frozen during the search.
    Static,
    /// Line random walk: with probability `p` per round a device moves
    /// to a uniformly random adjacent cell (cells `j−1`/`j+1`, clamped
    /// at the ends).
    LineWalk {
        /// Per-round move probability (`0 <= p <= 1`).
        p: f64,
    },
    /// Uniform rejump: with probability `p` per round a device moves to
    /// a uniformly random cell (worst-case churn).
    Jump {
        /// Per-round move probability (`0 <= p <= 1`).
        p: f64,
    },
}

impl MotionModel {
    fn step<R: Rng>(&self, cell: usize, c: usize, rng: &mut R) -> usize {
        match *self {
            MotionModel::Static => cell,
            MotionModel::LineWalk { p } => {
                assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
                if rng.gen::<f64>() >= p {
                    return cell;
                }
                if cell == 0 {
                    1.min(c - 1)
                } else if cell == c - 1 {
                    cell - 1
                } else if rng.gen::<bool>() {
                    cell + 1
                } else {
                    cell - 1
                }
            }
            MotionModel::Jump { p } => {
                assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
                if rng.gen::<f64>() < p {
                    rng.gen_range(0..c)
                } else {
                    cell
                }
            }
        }
    }
}

/// Outcome of a moving-device simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionReport {
    /// Trials simulated.
    pub trials: usize,
    /// Mean cells paged until all devices found (including re-sweeps).
    pub mean_cells_paged: f64,
    /// Fraction of trials in which the planned strategy failed to find
    /// everyone (a device escaped) and re-sweeps were needed.
    pub escape_fraction: f64,
    /// Mean number of full re-sweeps.
    pub mean_resweeps: f64,
}

/// Simulates the strategy with devices moving between rounds.
///
/// Each round pages its group and finds every not-yet-found device
/// currently in a paged cell; then every unfound device takes one
/// motion step. If the strategy ends with unfound devices, the groups
/// are re-paged in order (devices keep moving) until all are found.
///
/// # Errors
///
/// [`Error::StrategyInstanceMismatch`] on dimension mismatch,
/// [`Error::NoDevices`] when `trials == 0`.
pub fn simulate_moving(
    instance: &Instance,
    strategy: &Strategy,
    motion: MotionModel,
    trials: usize,
    seed: u64,
) -> Result<MotionReport> {
    strategy.check_cells(instance.num_cells())?;
    if trials == 0 {
        return Err(Error::NoDevices);
    }
    let c = instance.num_cells();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total_paged = 0u64;
    let mut escapes = 0u64;
    let mut total_resweeps = 0u64;
    for _ in 0..trials {
        let mut cells = sample_placements(instance, &mut rng);
        let mut found = vec![false; cells.len()];
        let mut remaining = cells.len();
        let mut paged = 0u64;
        let mut sweeps = 0u64;
        'search: loop {
            for r in 0..strategy.rounds() {
                let group = strategy.group(r);
                paged += group.len() as u64;
                for (i, &cell) in cells.iter().enumerate() {
                    if !found[i] && group.contains(&cell) {
                        found[i] = true;
                        remaining -= 1;
                    }
                }
                if remaining == 0 {
                    break 'search;
                }
                // Unfound devices move between rounds.
                for (i, cell) in cells.iter_mut().enumerate() {
                    if !found[i] {
                        *cell = motion.step(*cell, c, &mut rng);
                    }
                }
            }
            sweeps += 1;
            // With motion, re-sweeping terminates with probability 1;
            // with Static motion a leftover device is impossible
            // (the strategy covers every cell).
        }
        total_paged += paged;
        total_resweeps += sweeps;
        if sweeps > 0 {
            escapes += 1;
        }
    }
    Ok(MotionReport {
        trials,
        mean_cells_paged: total_paged as f64 / trials as f64,
        escape_fraction: escapes as f64 / trials as f64,
        mean_resweeps: total_resweeps as f64 / trials as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_strategy;
    use crate::instance::Delay;

    fn demo() -> Instance {
        Instance::from_rows(vec![
            vec![0.35, 0.25, 0.2, 0.1, 0.05, 0.05],
            vec![0.1, 0.15, 0.25, 0.25, 0.15, 0.1],
        ])
        .unwrap()
    }

    #[test]
    fn static_motion_matches_lemma_2_1() {
        let inst = demo();
        let strategy = greedy_strategy(&inst, Delay::new(3).unwrap());
        let analytic = inst.expected_paging(&strategy).unwrap();
        let report = simulate_moving(&inst, &strategy, MotionModel::Static, 120_000, 4).unwrap();
        assert!(
            (report.mean_cells_paged - analytic).abs() < 0.05,
            "{} vs {analytic}",
            report.mean_cells_paged
        );
        assert_eq!(report.escape_fraction, 0.0);
        assert_eq!(report.mean_resweeps, 0.0);
    }

    #[test]
    fn motion_degrades_cost_monotonically() {
        let inst = demo();
        let strategy = greedy_strategy(&inst, Delay::new(4).unwrap());
        let mut last = 0.0;
        for p in [0.0, 0.1, 0.3, 0.6] {
            let report =
                simulate_moving(&inst, &strategy, MotionModel::Jump { p }, 40_000, 7).unwrap();
            assert!(
                report.mean_cells_paged >= last - 0.05,
                "p={p}: {} after {last}",
                report.mean_cells_paged
            );
            last = report.mean_cells_paged;
        }
    }

    #[test]
    fn escapes_happen_with_heavy_motion() {
        let inst = demo();
        let strategy = greedy_strategy(&inst, Delay::new(6).unwrap());
        let report =
            simulate_moving(&inst, &strategy, MotionModel::Jump { p: 0.5 }, 20_000, 9).unwrap();
        assert!(report.escape_fraction > 0.05, "{}", report.escape_fraction);
        assert!(report.mean_resweeps > 0.0);
    }

    #[test]
    fn line_walk_stays_in_range() {
        let model = MotionModel::LineWalk { p: 1.0 };
        let mut rng = StdRng::seed_from_u64(3);
        for start in 0..6 {
            let mut cell = start;
            for _ in 0..100 {
                cell = model.step(cell, 6, &mut rng);
                assert!(cell < 6);
            }
        }
        // Single-cell world: nowhere to go.
        assert_eq!(model.step(0, 1, &mut rng), 0);
    }

    #[test]
    fn blanket_is_immune_to_motion() {
        // A one-round strategy pages everything at once: motion between
        // rounds never happens.
        let inst = demo();
        let report = simulate_moving(
            &inst,
            &Strategy::blanket(6),
            MotionModel::Jump { p: 0.9 },
            5_000,
            1,
        )
        .unwrap();
        assert_eq!(report.mean_cells_paged, 6.0);
        assert_eq!(report.escape_fraction, 0.0);
    }

    #[test]
    fn validation() {
        let inst = demo();
        assert!(simulate_moving(&inst, &Strategy::blanket(5), MotionModel::Static, 10, 0).is_err());
        assert!(simulate_moving(&inst, &Strategy::blanket(6), MotionModel::Static, 0, 0).is_err());
    }
}
