//! Monte-Carlo simulation of paging searches.
//!
//! Samples device placements from an instance's rows, runs a strategy
//! round by round, and measures the number of cells actually paged. The
//! empirical mean converges to the Lemma 2.1 closed form, which the
//! tests and experiment `E2` verify.

use crate::error::{Error, Result};
use crate::instance::Instance;
use crate::strategy::Strategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A single simulated search outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOutcome {
    /// Number of cells paged until the stopping rule fired.
    pub cells_paged: usize,
    /// Number of rounds used.
    pub rounds_used: usize,
    /// Number of devices found when the search stopped.
    pub devices_found: usize,
}

/// Aggregate statistics over many simulated searches.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Number of searches simulated.
    pub trials: usize,
    /// Mean cells paged.
    pub mean_cells_paged: f64,
    /// Sample standard deviation of cells paged.
    pub std_dev: f64,
    /// Mean rounds used.
    pub mean_rounds: f64,
    /// Maximum cells paged in any trial.
    pub max_cells_paged: usize,
    /// Minimum cells paged in any trial.
    pub min_cells_paged: usize,
}

/// Samples one cell per device according to the instance rows.
///
/// Exposed for the adaptive-policy simulator and the cellnet bridge.
#[must_use]
pub fn sample_placements<R: Rng>(instance: &Instance, rng: &mut R) -> Vec<usize> {
    (0..instance.num_devices())
        .map(|i| {
            let mut u: f64 = rng.gen();
            let row = instance.device_row(i);
            for (j, &p) in row.iter().enumerate() {
                if u < p {
                    return j;
                }
                u -= p;
            }
            // Rounding residue: the last cell absorbs it.
            row.len() - 1
        })
        .collect()
}

/// Runs one search with fixed device placements, returning the outcome.
///
/// The search pages groups in order and stops after the first round in
/// which **all** of `placements` have been covered (the conference-call
/// stopping rule). If the strategy is exhausted, every cell has been
/// paged and all devices are necessarily found.
#[must_use]
pub fn run_search(strategy: &Strategy, placements: &[usize]) -> SearchOutcome {
    let round_of = strategy.round_of_cell();
    // A device is found in the round its cell is paged; the search stops
    // at the max of those rounds.
    let stop_round = placements
        .iter()
        .map(|&cell| round_of[cell])
        .max()
        .unwrap_or(0);
    let cells_paged: usize = (0..=stop_round).map(|r| strategy.group(r).len()).sum();
    SearchOutcome {
        cells_paged,
        rounds_used: stop_round + 1,
        devices_found: placements.len(),
    }
}

/// Simulates `trials` independent conference-call searches.
///
/// # Errors
///
/// Returns [`Error::StrategyInstanceMismatch`] on dimension mismatch and
/// [`Error::NoDevices`] when `trials == 0` is requested (no statistics
/// can be formed).
pub fn simulate(
    instance: &Instance,
    strategy: &Strategy,
    trials: usize,
    seed: u64,
) -> Result<SimulationReport> {
    strategy.check_cells(instance.num_cells())?;
    if trials == 0 {
        return Err(Error::NoDevices);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    let mut rounds = 0.0f64;
    let mut max_paged = 0usize;
    let mut min_paged = usize::MAX;
    for _ in 0..trials {
        let placements = sample_placements(instance, &mut rng);
        let outcome = run_search(strategy, &placements);
        let paged = outcome.cells_paged as f64;
        sum += paged;
        sum_sq += paged * paged;
        rounds += outcome.rounds_used as f64;
        max_paged = max_paged.max(outcome.cells_paged);
        min_paged = min_paged.min(outcome.cells_paged);
    }
    let n = trials as f64;
    let mean = sum / n;
    let var = if trials > 1 {
        (sum_sq - n * mean * mean) / (n - 1.0)
    } else {
        0.0
    };
    Ok(SimulationReport {
        trials,
        mean_cells_paged: mean,
        std_dev: var.max(0.0).sqrt(),
        mean_rounds: rounds / n,
        max_cells_paged: max_paged,
        min_cells_paged: min_paged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_stops_at_last_device() {
        let s = Strategy::new(vec![vec![0, 1], vec![2], vec![3, 4]]).unwrap();
        // Devices in cells 0 and 2: stop after round 2 → 3 cells paged.
        let o = run_search(&s, &[0, 2]);
        assert_eq!(o.cells_paged, 3);
        assert_eq!(o.rounds_used, 2);
        // Device in cell 4: full search.
        let o = run_search(&s, &[4]);
        assert_eq!(o.cells_paged, 5);
        assert_eq!(o.rounds_used, 3);
        // Both in round 1 cells.
        let o = run_search(&s, &[1, 0]);
        assert_eq!(o.cells_paged, 2);
        assert_eq!(o.rounds_used, 1);
    }

    #[test]
    fn placements_follow_distribution() {
        let inst = Instance::from_rows(vec![vec![0.9, 0.1], vec![0.0, 1.0]]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut count0 = 0usize;
        let trials = 20_000;
        for _ in 0..trials {
            let p = sample_placements(&inst, &mut rng);
            assert_eq!(p[1], 1, "device 2 is deterministic");
            if p[0] == 0 {
                count0 += 1;
            }
        }
        let frac = count0 as f64 / trials as f64;
        assert!((frac - 0.9).abs() < 0.01, "{frac}");
    }

    #[test]
    fn mean_converges_to_lemma_2_1() {
        let inst = Instance::from_rows(vec![
            vec![0.40, 0.30, 0.10, 0.10, 0.05, 0.05],
            vec![0.25, 0.25, 0.20, 0.10, 0.10, 0.10],
        ])
        .unwrap();
        let s = Strategy::new(vec![vec![0, 1], vec![2, 3], vec![4, 5]]).unwrap();
        let analytic = inst.expected_paging(&s).unwrap();
        let report = simulate(&inst, &s, 200_000, 42).unwrap();
        assert!(
            (report.mean_cells_paged - analytic).abs() < 0.02,
            "simulated {} vs analytic {analytic}",
            report.mean_cells_paged
        );
        assert!(report.min_cells_paged >= 2);
        assert!(report.max_cells_paged <= 6);
        assert!(report.std_dev > 0.0);
    }

    #[test]
    fn blanket_is_deterministic() {
        let inst = Instance::uniform(3, 5).unwrap();
        let report = simulate(&inst, &Strategy::blanket(5), 100, 1).unwrap();
        assert_eq!(report.mean_cells_paged, 5.0);
        assert_eq!(report.std_dev, 0.0);
        assert_eq!(report.mean_rounds, 1.0);
    }

    #[test]
    fn simulate_validates() {
        let inst = Instance::uniform(1, 4).unwrap();
        assert!(simulate(&inst, &Strategy::blanket(5), 10, 0).is_err());
        assert!(simulate(&inst, &Strategy::blanket(4), 0, 0).is_err());
    }

    #[test]
    fn seeded_runs_reproduce() {
        let inst = Instance::uniform(2, 6).unwrap();
        let s = Strategy::new(vec![vec![0, 1, 2], vec![3, 4, 5]]).unwrap();
        let a = simulate(&inst, &s, 1000, 99).unwrap();
        let b = simulate(&inst, &s, 1000, 99).unwrap();
        assert_eq!(a, b);
    }
}
