//! Mobility models for terminals roaming a topology.
//!
//! The paper assumes per-device location distributions are *given*
//! (citing estimation methods [15, 16]); these models generate the
//! movement from which `crate::estimator` recovers such distributions,
//! closing the loop the paper's introduction describes.

use crate::topology::{CellId, Topology};
use rand::Rng;

/// A mobility model: produces the next cell from the current one.
pub trait MobilityModel {
    /// Draws the cell occupied at the next time step.
    fn next_cell<R: Rng>(&mut self, current: CellId, topology: &Topology, rng: &mut R) -> CellId;
}

/// Uniform random walk with a stay probability: with probability
/// `stay`, remain; otherwise move to a uniformly random neighbour.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomWalk {
    stay: f64,
}

impl RandomWalk {
    /// Creates a walk with the given stay probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= stay < 1`.
    #[must_use]
    pub fn new(stay: f64) -> RandomWalk {
        assert!((0.0..1.0).contains(&stay), "stay must be in [0, 1)");
        RandomWalk { stay }
    }
}

impl MobilityModel for RandomWalk {
    fn next_cell<R: Rng>(&mut self, current: CellId, topology: &Topology, rng: &mut R) -> CellId {
        if rng.gen::<f64>() < self.stay {
            return current;
        }
        let n = topology.neighbors(current);
        n[rng.gen_range(0..n.len())]
    }
}

/// A biased walk that prefers a "home" cell: moves toward home with
/// probability `homing`, otherwise behaves as a uniform random walk.
/// Produces the hotspot-shaped stationary distributions the paper's
/// model typically sees.
#[derive(Debug, Clone, PartialEq)]
pub struct HomingWalk {
    home: CellId,
    homing: f64,
}

impl HomingWalk {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= homing <= 1`.
    #[must_use]
    pub fn new(home: CellId, homing: f64) -> HomingWalk {
        assert!((0.0..=1.0).contains(&homing), "homing must be in [0, 1]");
        HomingWalk { home, homing }
    }
}

impl MobilityModel for HomingWalk {
    fn next_cell<R: Rng>(&mut self, current: CellId, topology: &Topology, rng: &mut R) -> CellId {
        if current != self.home && rng.gen::<f64>() < self.homing {
            let cur_dist = topology.distance(current, self.home);
            let closer: Vec<CellId> = topology
                .neighbors(current)
                .into_iter()
                .filter(|&n| topology.distance(n, self.home) < cur_dist)
                .collect();
            if !closer.is_empty() {
                return closer[rng.gen_range(0..closer.len())];
            }
        }
        let n = topology.neighbors(current);
        n[rng.gen_range(0..n.len())]
    }
}

/// Simulates `steps` moves and returns the empirical cell-occupancy
/// distribution (the model's stationary distribution for long runs).
pub fn empirical_distribution<M: MobilityModel, R: Rng>(
    model: &mut M,
    topology: &Topology,
    start: CellId,
    steps: usize,
    rng: &mut R,
) -> Vec<f64> {
    let mut counts = vec![0u64; topology.num_cells()];
    let mut cell = start;
    for _ in 0..steps {
        cell = model.next_cell(cell, topology, rng);
        counts[cell] += 1;
    }
    let total = steps.max(1) as f64;
    counts.into_iter().map(|c| c as f64 / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_walk_stays_in_range() {
        let t = Topology::grid(4, 4);
        let mut m = RandomWalk::new(0.3);
        let mut rng = StdRng::seed_from_u64(1);
        let mut cell = 5;
        for _ in 0..1000 {
            let next = m.next_cell(cell, &t, &mut rng);
            assert!(next == cell || t.neighbors(cell).contains(&next));
            cell = next;
        }
    }

    #[test]
    fn random_walk_uniform_stationary_on_line_interior() {
        // On a cycle the stationary distribution is uniform; on a line
        // it is proportional to degree. Check interior cells are close.
        let t = Topology::line(5);
        let mut m = RandomWalk::new(0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let dist = empirical_distribution(&mut m, &t, 2, 200_000, &mut rng);
        // Degrees: 1,2,2,2,1 → stationary 1/8, 1/4, 1/4, 1/4, 1/8.
        assert!((dist[0] - 0.125).abs() < 0.01, "{dist:?}");
        assert!((dist[2] - 0.25).abs() < 0.01, "{dist:?}");
    }

    #[test]
    fn homing_walk_concentrates_near_home() {
        let t = Topology::grid(5, 5);
        let home = t.cell_at(2, 2);
        let mut m = HomingWalk::new(home, 0.8);
        let mut rng = StdRng::seed_from_u64(4);
        let dist = empirical_distribution(&mut m, &t, 0, 100_000, &mut rng);
        // Home cell should be the mode by a clear margin.
        let best = dist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, home, "{dist:?}");
        assert!(dist[home] > 0.2);
    }

    #[test]
    fn model_guards() {
        assert!(std::panic::catch_unwind(|| RandomWalk::new(1.0)).is_err());
        assert!(std::panic::catch_unwind(|| HomingWalk::new(0, 1.5)).is_err());
    }
}
