//! Movement traces: recording and replay.
//!
//! A trace is a time-ordered log of `(time, terminal, cell)` sightings.
//! Traces decouple mobility generation from estimation: record once,
//! then replay into any estimator or re-run paging what-ifs offline —
//! the workflow the paper's citation \[15\] (trajectory prediction)
//! assumes a system has.

use crate::estimator;
use crate::events::Time;
use crate::mobility::MobilityModel;
use crate::topology::{CellId, Topology};
use rand::Rng;

/// One recorded sighting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sighting {
    /// When the terminal was seen.
    pub time: Time,
    /// Which terminal.
    pub terminal: usize,
    /// In which cell.
    pub cell: CellId,
}

/// A time-ordered movement trace for a set of terminals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    sightings: Vec<Sighting>,
    num_terminals: usize,
    num_cells: usize,
}

impl Trace {
    /// An empty trace over a given population and cell count.
    #[must_use]
    pub fn new(num_terminals: usize, num_cells: usize) -> Trace {
        Trace {
            sightings: Vec::new(),
            num_terminals,
            num_cells,
        }
    }

    /// Number of terminals the trace covers.
    #[must_use]
    pub fn num_terminals(&self) -> usize {
        self.num_terminals
    }

    /// Number of cells in the underlying topology.
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// Number of recorded sightings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sightings.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sightings.is_empty()
    }

    /// Appends a sighting. Times must be non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range terminal/cell ids or a time regression.
    pub fn record(&mut self, time: Time, terminal: usize, cell: CellId) {
        assert!(terminal < self.num_terminals, "terminal out of range");
        assert!(cell < self.num_cells, "cell out of range");
        if let Some(last) = self.sightings.last() {
            assert!(time >= last.time, "sightings must be time-ordered");
        }
        self.sightings.push(Sighting {
            time,
            terminal,
            cell,
        });
    }

    /// All sightings in time order.
    #[must_use]
    pub fn sightings(&self) -> &[Sighting] {
        &self.sightings
    }

    /// The cell history of one terminal (in time order).
    #[must_use]
    pub fn history_of(&self, terminal: usize) -> Vec<CellId> {
        self.sightings
            .iter()
            .filter(|s| s.terminal == terminal)
            .map(|s| s.cell)
            .collect()
    }

    /// The cell histories of **all** terminals (each in time order),
    /// built in a single pass over the sightings. Prefer this to
    /// calling [`Trace::history_of`] per terminal, which re-scans the
    /// whole trace each time (`O(sightings × terminals)`).
    #[must_use]
    pub fn histories(&self) -> Vec<Vec<CellId>> {
        let mut histories = vec![Vec::new(); self.num_terminals];
        for s in &self.sightings {
            histories[s.terminal].push(s.cell);
        }
        histories
    }

    /// Estimates every terminal's location distribution from the trace
    /// (Laplace-smoothed empirical frequencies). Rows are valid
    /// probability vectors even for unseen terminals (uniform).
    ///
    /// # Panics
    ///
    /// Panics if `alpha <= 0` (unseen terminals need smoothing mass).
    #[must_use]
    pub fn estimate_all(&self, alpha: f64) -> Vec<Vec<f64>> {
        assert!(alpha > 0.0, "smoothing must be positive");
        self.histories()
            .into_iter()
            .map(|history| estimator::empirical(&history, self.num_cells, alpha))
            .collect()
    }

    /// Keeps only sightings in `[from, to)` — e.g. drop a warm-up
    /// period before estimating.
    #[must_use]
    pub fn window(&self, from: Time, to: Time) -> Trace {
        Trace {
            sightings: self
                .sightings
                .iter()
                .copied()
                .filter(|s| s.time >= from && s.time < to)
                .collect(),
            num_terminals: self.num_terminals,
            num_cells: self.num_cells,
        }
    }
}

/// Records a synthetic trace by stepping mobility models at unit
/// intervals for `steps` steps.
pub fn record_trace<M: MobilityModel, R: Rng>(
    topology: &Topology,
    models: &mut [M],
    starts: &[CellId],
    steps: usize,
    rng: &mut R,
) -> Trace {
    assert_eq!(models.len(), starts.len(), "one start per model");
    let mut trace = Trace::new(models.len(), topology.num_cells());
    let mut cells = starts.to_vec();
    for step in 0..steps {
        let time = step as Time;
        for (t, model) in models.iter_mut().enumerate() {
            cells[t] = model.next_cell(cells[t], topology, rng);
            trace.record(time, t, cells[t]);
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::RandomWalk;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn record_and_history() {
        let mut trace = Trace::new(2, 4);
        trace.record(0.0, 0, 1);
        trace.record(0.0, 1, 3);
        trace.record(1.0, 0, 2);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.history_of(0), vec![1, 2]);
        assert_eq!(trace.history_of(1), vec![3]);
        // The single-pass form agrees with the per-terminal scans.
        assert_eq!(trace.histories(), vec![vec![1, 2], vec![3]]);
    }

    #[test]
    fn histories_covers_unseen_terminals() {
        let mut trace = Trace::new(3, 4);
        trace.record(0.0, 2, 1);
        let all = trace.histories();
        assert_eq!(all, vec![vec![], vec![], vec![1]]);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn time_regression_rejected() {
        let mut trace = Trace::new(1, 2);
        trace.record(5.0, 0, 0);
        trace.record(4.0, 0, 1);
    }

    #[test]
    fn estimates_are_valid_rows() {
        let t = Topology::line(6);
        let mut rng = StdRng::seed_from_u64(2);
        let mut models = vec![RandomWalk::new(0.2), RandomWalk::new(0.2)];
        let trace = record_trace(&t, &mut models, &[0, 5], 500, &mut rng);
        let rows = trace.estimate_all(0.5);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(row.iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn unseen_terminal_gets_uniform() {
        let trace = Trace::new(1, 4);
        let rows = trace.estimate_all(1.0);
        for &p in &rows[0] {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn window_filters_by_time() {
        let t = Topology::line(4);
        let mut rng = StdRng::seed_from_u64(3);
        let mut models = vec![RandomWalk::new(0.0)];
        let trace = record_trace(&t, &mut models, &[0], 100, &mut rng);
        let late = trace.window(50.0, 100.0);
        assert_eq!(late.len(), 50);
        assert!(late.sightings().iter().all(|s| s.time >= 50.0));
        // Warm-up removal changes the estimate toward stationarity.
        let whole = trace.estimate_all(0.5);
        let windowed = late.estimate_all(0.5);
        assert_eq!(whole[0].len(), windowed[0].len());
    }

    #[test]
    fn trace_feeds_paging_pipeline() {
        // End-to-end inside the crate: record → estimate → the rows are
        // consumable by any planner (checked structurally here).
        let t = Topology::grid(3, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut models: Vec<RandomWalk> = (0..3).map(|_| RandomWalk::new(0.3)).collect();
        let trace = record_trace(&t, &mut models, &[0, 4, 8], 1000, &mut rng);
        let rows = trace.window(100.0, 1000.0).estimate_all(0.25);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].len(), 9);
    }
}
