//! Lossy paging: imperfect detection and response collisions (the
//! final Section 5 extension).
//!
//! The paper proposes extending the model so that paging a cell does
//! not always reveal a device located there, with detection chances
//! *decreasing in the number of devices in the cell* — modelling
//! collisions of the response signals on the shared uplink. This
//! module implements that model for simulation studies:
//!
//! * [`DetectionModel`] — per-page detection probability as a function
//!   of cell occupancy;
//! * [`simulate_lossy`] — Monte-Carlo expected paging under a given
//!   oblivious strategy, with *re-paging sweeps*: when the strategy is
//!   exhausted and devices remain undetected, the system re-pages all
//!   cells round-robin until everyone is found (searches terminate
//!   with probability 1 whenever detection probabilities are
//!   positive);
//! * [`expected_paging_lossy_single_round`] — a closed form for the
//!   `d = 1` blanket case used to validate the simulator.

use crate::error::{Error, Result};
use crate::instance::Instance;
use crate::simulation::sample_placements;
use crate::strategy::Strategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How likely a page is to detect a device, given how many devices
/// currently occupy the paged cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectionModel {
    /// Classical model: a page always finds the devices in the cell.
    Perfect,
    /// Independent misses: each device responds with probability `p`,
    /// regardless of occupancy.
    Independent {
        /// Per-device response probability (`0 < p <= 1`).
        p: f64,
    },
    /// Collision model: with `n` devices in the cell, each responds
    /// successfully with probability `base^(n−1)` — alone it always
    /// gets through; every additional occupant multiplies the success
    /// odds by `base`.
    Collision {
        /// Per-extra-occupant success factor (`0 < base <= 1`).
        base: f64,
    },
}

impl DetectionModel {
    /// The probability that one particular device is detected when its
    /// cell (occupied by `n >= 1` devices in total) is paged.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the model parameters are out of `(0, 1]`.
    #[must_use]
    pub(crate) fn detect_prob(&self, n: usize) -> f64 {
        assert!(n >= 1, "a detected device occupies its cell");
        match *self {
            DetectionModel::Perfect => 1.0,
            DetectionModel::Independent { p } => {
                assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
                p
            }
            DetectionModel::Collision { base } => {
                assert!(base > 0.0 && base <= 1.0, "base must be in (0, 1]");
                base.powi(n as i32 - 1)
            }
        }
    }
}

/// Result of a lossy simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct LossyReport {
    /// Trials simulated.
    pub trials: usize,
    /// Mean cells paged until all devices were detected.
    pub mean_cells_paged: f64,
    /// Mean number of full re-paging sweeps needed (0 = the planned
    /// strategy sufficed).
    pub mean_extra_sweeps: f64,
    /// Fraction of trials that needed at least one re-paging sweep.
    pub retry_fraction: f64,
}

/// Simulates the strategy under a detection model.
///
/// Each round pages its group; every not-yet-found device whose cell
/// is in the group is detected with `DetectionModel::detect_prob`
/// (occupancy counts *undetected* devices only — detected devices stop
/// transmitting). If devices remain after the last round, the whole
/// cell set is re-paged in the same group order until all are found.
///
/// # Errors
///
/// [`Error::StrategyInstanceMismatch`] on dimension mismatch,
/// [`Error::NoDevices`] when `trials == 0`.
pub fn simulate_lossy(
    instance: &Instance,
    strategy: &Strategy,
    model: DetectionModel,
    trials: usize,
    seed: u64,
) -> Result<LossyReport> {
    strategy.check_cells(instance.num_cells())?;
    if trials == 0 {
        return Err(Error::NoDevices);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total_paged = 0u64;
    let mut total_sweeps = 0u64;
    let mut retried = 0u64;
    for _ in 0..trials {
        let placements = sample_placements(instance, &mut rng);
        let mut found = vec![false; placements.len()];
        let mut remaining = placements.len();
        let mut paged = 0u64;
        let mut sweeps = 0u64;
        'search: loop {
            for r in 0..strategy.rounds() {
                let group = strategy.group(r);
                paged += group.len() as u64;
                for &cell in group {
                    // Occupancy of undetected devices in this cell.
                    let occupants: Vec<usize> = placements
                        .iter()
                        .enumerate()
                        .filter(|&(i, &p)| !found[i] && p == cell)
                        .map(|(i, _)| i)
                        .collect();
                    let n = occupants.len();
                    for i in occupants {
                        if rng.gen::<f64>() < model.detect_prob(n) {
                            found[i] = true;
                            remaining -= 1;
                        }
                    }
                }
                if remaining == 0 {
                    break 'search;
                }
            }
            sweeps += 1;
        }
        total_paged += paged;
        total_sweeps += sweeps;
        if sweeps > 0 {
            retried += 1;
        }
    }
    Ok(LossyReport {
        trials,
        mean_cells_paged: total_paged as f64 / trials as f64,
        mean_extra_sweeps: total_sweeps as f64 / trials as f64,
        retry_fraction: retried as f64 / trials as f64,
    })
}

/// Closed-form expected cells paged for the **blanket** strategy under
/// the [`DetectionModel::Independent`] model with a single device: the
/// number of sweeps is geometric with success probability `p`, so
/// `EP = c / p`.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1]` or `c == 0`.
#[must_use]
pub fn expected_paging_lossy_single_round(c: usize, p: f64) -> f64 {
    assert!(c > 0, "need at least one cell");
    assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
    c as f64 / p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Delay;

    #[test]
    fn detection_probabilities() {
        assert_eq!(DetectionModel::Perfect.detect_prob(5), 1.0);
        assert_eq!(DetectionModel::Independent { p: 0.7 }.detect_prob(3), 0.7);
        let collision = DetectionModel::Collision { base: 0.5 };
        assert_eq!(collision.detect_prob(1), 1.0);
        assert_eq!(collision.detect_prob(2), 0.5);
        assert_eq!(collision.detect_prob(3), 0.25);
    }

    #[test]
    fn perfect_model_matches_exact_ep() {
        let inst =
            Instance::from_rows(vec![vec![0.4, 0.3, 0.2, 0.1], vec![0.1, 0.2, 0.3, 0.4]]).unwrap();
        let strategy = crate::greedy::greedy_strategy(&inst, Delay::new(2).unwrap());
        let analytic = inst.expected_paging(&strategy).unwrap();
        let report = simulate_lossy(&inst, &strategy, DetectionModel::Perfect, 100_000, 3).unwrap();
        assert!(
            (report.mean_cells_paged - analytic).abs() < 0.05,
            "{} vs {analytic}",
            report.mean_cells_paged
        );
        assert_eq!(report.mean_extra_sweeps, 0.0);
        assert_eq!(report.retry_fraction, 0.0);
    }

    #[test]
    fn independent_misses_match_geometric_closed_form() {
        let c = 6usize;
        let p = 0.6;
        let inst = Instance::uniform(1, c).unwrap();
        let blanket = Strategy::blanket(c);
        let report = simulate_lossy(
            &inst,
            &blanket,
            DetectionModel::Independent { p },
            200_000,
            5,
        )
        .unwrap();
        let expect = expected_paging_lossy_single_round(c, p);
        assert!(
            (report.mean_cells_paged - expect).abs() < 0.1,
            "{} vs {expect}",
            report.mean_cells_paged
        );
        assert!(report.retry_fraction > 0.3);
    }

    #[test]
    fn losses_increase_cost_monotonically() {
        let inst =
            Instance::from_rows(vec![vec![0.5, 0.3, 0.1, 0.1], vec![0.25, 0.25, 0.25, 0.25]])
                .unwrap();
        let strategy = crate::greedy::greedy_strategy(&inst, Delay::new(2).unwrap());
        let mut last = 0.0;
        for p in [1.0, 0.9, 0.7, 0.5] {
            let report = simulate_lossy(
                &inst,
                &strategy,
                DetectionModel::Independent { p },
                40_000,
                9,
            )
            .unwrap();
            assert!(
                report.mean_cells_paged >= last - 0.05,
                "p={p}: {} after {last}",
                report.mean_cells_paged
            );
            last = report.mean_cells_paged;
        }
    }

    #[test]
    fn collisions_hurt_colocated_devices() {
        // Both devices surely in cell 0: collisions delay detection.
        let inst = Instance::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0]]).unwrap();
        let strategy = Strategy::blanket(2);
        let perfect = simulate_lossy(&inst, &strategy, DetectionModel::Perfect, 20_000, 1).unwrap();
        let collide = simulate_lossy(
            &inst,
            &strategy,
            DetectionModel::Collision { base: 0.5 },
            20_000,
            1,
        )
        .unwrap();
        assert_eq!(perfect.mean_cells_paged, 2.0);
        assert!(
            collide.mean_cells_paged > 2.5,
            "{}",
            collide.mean_cells_paged
        );
    }

    #[test]
    fn validation() {
        let inst = Instance::uniform(1, 3).unwrap();
        assert!(
            simulate_lossy(&inst, &Strategy::blanket(4), DetectionModel::Perfect, 10, 0).is_err()
        );
        assert!(
            simulate_lossy(&inst, &Strategy::blanket(3), DetectionModel::Perfect, 0, 0).is_err()
        );
    }
}
