//! Bridges the paper's optimiser into the [`cellnet`] simulator.
//!
//! [`GreedyPlanner`] implements [`cellnet::PagingPlanner`] with the
//! `e/(e−1)`-approximation of Section 4 (Fig. 1), so a simulated
//! system pages location areas near-optimally instead of blanket
//! paging them.
//!
//! The [`cellnet::PagingPlanner`] trait cannot report failure, so its
//! `plan` must produce *some* partition even for degenerate input
//! (rows that are not distributions, a zero delay budget). Rather
//! than hiding that, `GreedyPlanner::plan_checked` surfaces the
//! exact problem as a `DegenerateInput`, and the infallible trait
//! path logs the event to stderr and counts it in
//! [`GreedyPlanner::degenerate_inputs`] before falling back to
//! blanket paging.
//!
//! There is exactly one tier-dispatch surface in the workspace:
//! [`pager_service::planner`]. The simulator bridge
//! below routes through it (greedy tier, no deadline) rather than
//! calling the solvers directly, so policy changes in the service
//! planner apply everywhere.

use cellnet::PagingPlanner;
use jsonio::metrics::Counter;
use pager_core::{CancelToken, Delay, Instance};
use pager_service::planner::{plan, TierPolicy, Variant};

/// Why a planning request could not be served as asked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DegenerateInput {
    /// No rows, or rows with no cells: there is nothing to page.
    NoCells,
    /// The rows are not probability distributions (the message is the
    /// validation error from [`Instance::from_rows`]).
    InvalidRows(String),
    /// A delay budget of zero rounds: no strategy can page anything.
    ZeroDelay,
}

impl core::fmt::Display for DegenerateInput {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DegenerateInput::NoCells => write!(f, "no cells to page"),
            DegenerateInput::InvalidRows(why) => {
                write!(f, "rows are not probability distributions: {why}")
            }
            DegenerateInput::ZeroDelay => write!(f, "delay budget is zero rounds"),
        }
    }
}

impl std::error::Error for DegenerateInput {}

/// Plans per-area paging with the paper's greedy heuristic.
///
/// # Examples
///
/// ```
/// use cellnet::PagingPlanner;
/// use conference_call::planner::GreedyPlanner;
///
/// let planner = GreedyPlanner::default();
/// let rows = vec![vec![0.7, 0.2, 0.1], vec![0.5, 0.3, 0.2]];
/// let groups = planner.plan(&rows, 2);
/// assert_eq!(groups.len(), 2);
/// // The heaviest cell is paged first.
/// assert!(groups[0].contains(&0));
/// assert_eq!(planner.degenerate_inputs(), 0);
/// ```
#[derive(Debug, Default)]
pub struct GreedyPlanner {
    degenerate: Counter,
}

impl GreedyPlanner {
    /// Plans like [`PagingPlanner::plan`] but reports degenerate input
    /// instead of silently papering over it.
    ///
    /// # Errors
    ///
    /// [`DegenerateInput`] when the rows are empty or invalid, or the
    /// delay budget is zero.
    pub(crate) fn plan_checked(
        &self,
        rows: &[Vec<f64>],
        delay: usize,
    ) -> Result<Vec<Vec<usize>>, DegenerateInput> {
        let c = rows.first().map_or(0, Vec::len);
        if c == 0 {
            return Err(DegenerateInput::NoCells);
        }
        if delay == 0 {
            return Err(DegenerateInput::ZeroDelay);
        }
        let instance = Instance::from_rows(rows.to_vec())
            .map_err(|e| DegenerateInput::InvalidRows(e.to_string()))?;
        let delay = Delay::new(delay).map_err(|_| DegenerateInput::ZeroDelay)?;
        let planned = plan(
            &instance,
            delay,
            Variant::Greedy,
            &TierPolicy::default(),
            &CancelToken::never(),
        )
        .map_err(|e| DegenerateInput::InvalidRows(e.to_string()))?;
        Ok(planned.strategy.groups().to_vec())
    }

    /// How many trait-path `plan` calls hit degenerate input and fell
    /// back (blanket paging, or an empty plan for empty input).
    #[must_use]
    pub fn degenerate_inputs(&self) -> u64 {
        self.degenerate.get()
    }
}

impl PagingPlanner for GreedyPlanner {
    fn plan(&self, rows: &[Vec<f64>], delay: usize) -> Vec<Vec<usize>> {
        match self.plan_checked(rows, delay) {
            Ok(groups) => groups,
            Err(why) => {
                self.degenerate.inc();
                eprintln!("GreedyPlanner: degenerate input ({why}); falling back");
                let c = rows.first().map_or(0, Vec::len);
                if c == 0 {
                    Vec::new()
                } else {
                    vec![(0..c).collect()]
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_the_cells() {
        let rows = vec![vec![0.4, 0.3, 0.2, 0.1]];
        let planner = GreedyPlanner::default();
        let groups = planner.plan(&rows, 3);
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
        assert_eq!(groups.len(), 3);
        assert_eq!(planner.degenerate_inputs(), 0);
    }

    #[test]
    fn invalid_rows_are_reported_and_fall_back_to_blanket() {
        let rows = vec![vec![0.4, 0.4]]; // does not sum to 1
        let planner = GreedyPlanner::default();
        let err = planner.plan_checked(&rows, 2).unwrap_err();
        assert!(matches!(err, DegenerateInput::InvalidRows(_)), "{err}");
        // The infallible trait path still serves blanket paging, but
        // the event is now observable.
        let groups = planner.plan(&rows, 2);
        assert_eq!(groups, vec![vec![0, 1]]);
        assert_eq!(planner.degenerate_inputs(), 1);
    }

    #[test]
    fn zero_delay_is_reported_and_falls_back_to_blanket() {
        let rows = vec![vec![0.6, 0.4]];
        let planner = GreedyPlanner::default();
        assert_eq!(
            planner.plan_checked(&rows, 0).unwrap_err(),
            DegenerateInput::ZeroDelay
        );
        let groups = planner.plan(&rows, 0);
        assert_eq!(groups, vec![vec![0, 1]]);
        assert_eq!(planner.degenerate_inputs(), 1);
    }

    #[test]
    fn empty_rows_are_reported() {
        let planner = GreedyPlanner::default();
        assert_eq!(
            planner.plan_checked(&[], 2).unwrap_err(),
            DegenerateInput::NoCells
        );
        assert!(planner.plan(&[], 2).is_empty());
        assert_eq!(planner.degenerate_inputs(), 1);
    }

    #[test]
    fn single_round_is_blanket() {
        let rows = vec![vec![0.6, 0.4]];
        let planner = GreedyPlanner::default();
        let groups = planner.plan(&rows, 1);
        assert_eq!(groups.len(), 1);
        assert_eq!(planner.degenerate_inputs(), 0, "one round is valid");
    }
}
