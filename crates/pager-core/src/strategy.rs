//! Paging strategies and their expected paging cost (Lemma 2.1).
//!
//! A *strategy* is an ordered partition `S_1, …, S_t` of the cells: round
//! `r` pages every cell in `S_r`, and the search stops at the first round
//! `r` such that all devices lie in `S_1 ∪ … ∪ S_r`. Its *expected
//! paging* is the expected number of cells paged until all devices are
//! found, with the closed form of Lemma 2.1:
//!
//! ```text
//! EP = c − Σ_{r=1}^{t−1} |S_{r+1}| · Π_{i=1}^{m} P_i(L_r),   L_r = S_1 ∪ … ∪ S_r
//! ```

use crate::dp::all_found;
use crate::error::{Error, Result};
use crate::instance::Instance;
use crate::scalar::Scalar;

/// An ordered partition of the cells into non-empty paging groups.
///
/// # Examples
///
/// ```
/// use pager_core::{Instance, Strategy};
///
/// let inst = Instance::uniform(1, 4)?;
/// // Page half the cells, then the other half.
/// let s = Strategy::new(vec![vec![0, 1], vec![2, 3]])?;
/// let ep = inst.expected_paging(&s)?;
/// assert!((ep - 3.0).abs() < 1e-12); // 3c/4 with c = 4 (Section 1.1)
/// # Ok::<(), pager_core::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Strategy {
    groups: Vec<Vec<usize>>,
    num_cells: usize,
}

impl Strategy {
    /// Creates a strategy from paging groups, validating that the groups
    /// are non-empty and form a partition of `0..c` where `c` is the
    /// total number of cells listed. Uses memory proportional to the
    /// cells listed, whatever their indices.
    ///
    /// # Errors
    ///
    /// * [`Error::NoCells`] if there are no groups;
    /// * [`Error::EmptyGroup`] if some group is empty;
    /// * [`Error::DuplicateCell`] if a cell repeats;
    /// * [`Error::MissingCell`] if the cell indices are not exactly
    ///   `0..c` (i.e. there is a gap).
    pub fn new(groups: Vec<Vec<usize>>) -> Result<Strategy> {
        if groups.is_empty() {
            return Err(Error::NoCells);
        }
        if let Some(round) = groups.iter().position(Vec::is_empty) {
            return Err(Error::EmptyGroup { round });
        }
        let num_cells: usize = groups.iter().map(Vec::len).sum();
        // A cell at or past `num_cells` leaves a gap below it; such
        // cells are tracked apart, only to report duplicates among them.
        let mut seen = vec![false; num_cells];
        let mut beyond = std::collections::HashSet::new();
        for &cell in groups.iter().flatten() {
            let fresh = match seen.get_mut(cell) {
                Some(slot) => !std::mem::replace(slot, true),
                None => beyond.insert(cell),
            };
            if !fresh {
                return Err(Error::DuplicateCell { cell });
            }
        }
        if let Some(cell) = seen.iter().position(|&s| !s) {
            return Err(Error::MissingCell { cell });
        }
        Ok(Strategy { groups, num_cells })
    }

    /// Builds the strategy that pages cell `j` in round
    /// `round_of_cell[j]`, each round listing its cells in increasing
    /// order: the inverse of [`Strategy::round_of_cell`]. `None` when a
    /// round in `0..=max` has no cell; a round index `>= len` always
    /// leaves one empty.
    #[must_use]
    pub fn from_assignment(round_of_cell: &[usize]) -> Option<Strategy> {
        let num_cells = round_of_cell.len();
        let last = *round_of_cell.iter().max()?;
        if last >= num_cells {
            return None;
        }
        let mut groups = vec![Vec::new(); last + 1];
        for (cell, &round) in round_of_cell.iter().enumerate() {
            groups[round].push(cell);
        }
        let onto = groups.iter().all(|g| !g.is_empty());
        onto.then_some(Strategy { groups, num_cells })
    }

    /// Cuts the paging order `order` into consecutive rounds of
    /// `sizes[0]`, `sizes[1]`, … cells, without validating: the caller
    /// guarantees that `order` is a permutation of `0..order.len()` and
    /// that the sizes are positive and sum to `order.len()`, as every
    /// split a solver's dynamic program returns does. Debug builds check
    /// it. Input from outside the program goes through
    /// [`Strategy::from_order_and_sizes`].
    #[must_use]
    pub fn cut(order: &[usize], sizes: &[usize]) -> Strategy {
        let strategy = Strategy {
            groups: cut_groups(order, sizes),
            num_cells: order.len(),
        };
        debug_assert_eq!(
            Strategy::new(strategy.groups.clone()).as_ref(),
            Ok(&strategy),
            "order {order:?} cut at {sizes:?} is not a partition"
        );
        strategy
    }

    /// Builds a strategy by cutting a cell `order` at `sizes` boundaries:
    /// the first `sizes[0]` cells of `order` form round 1, and so on.
    ///
    /// # Errors
    ///
    /// Propagates [`Strategy::new`] validation; additionally the sizes
    /// must sum to `order.len()` (otherwise a [`Error::MissingCell`] or
    /// [`Error::EmptyGroup`] surfaces).
    pub fn from_order_and_sizes(order: &[usize], sizes: &[usize]) -> Result<Strategy> {
        let covered = sizes.iter().fold(0usize, |sum, &s| sum.saturating_add(s));
        if let Some(&cell) = order.get(covered) {
            // Leftover cells: the sizes under-cover the order.
            return Err(Error::MissingCell { cell });
        }
        Strategy::new(cut_groups(order, sizes))
    }

    /// The single-round strategy paging all `c` cells at once (the
    /// GSM MAP / IS-41 blanket-paging baseline).
    ///
    /// # Panics
    ///
    /// Panics if `c == 0`.
    #[must_use]
    pub fn blanket(c: usize) -> Strategy {
        assert!(c > 0, "blanket strategy needs at least one cell");
        Strategy {
            groups: vec![(0..c).collect()],
            num_cells: c,
        }
    }

    /// Number of rounds `t`.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.groups.len()
    }

    /// Total number of cells covered.
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// The paging group of a round (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `round >= self.rounds()`.
    #[must_use]
    pub fn group(&self, round: usize) -> &[usize] {
        &self.groups[round]
    }

    /// All groups in order.
    #[must_use]
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// Group sizes `|S_1|, …, |S_t|`.
    #[must_use]
    pub fn group_sizes(&self) -> Vec<usize> {
        self.groups.iter().map(Vec::len).collect()
    }

    /// [`Error::StrategyInstanceMismatch`] unless the strategy covers
    /// exactly `cells` cells.
    pub(crate) fn check_cells(&self, cells: usize) -> Result<()> {
        if self.num_cells == cells {
            return Ok(());
        }
        Err(Error::StrategyInstanceMismatch {
            strategy_cells: self.num_cells,
            instance_cells: cells,
        })
    }

    /// The round in which each cell is paged (indexed by cell).
    #[must_use]
    pub fn round_of_cell(&self) -> Vec<usize> {
        let mut round = vec![0usize; self.num_cells];
        for (r, g) in self.groups.iter().enumerate() {
            for &cell in g {
                round[cell] = r;
            }
        }
        round
    }
}

/// Consecutive slices of `order` of the given sizes, the last ones
/// clamped to the cells left.
fn cut_groups(order: &[usize], sizes: &[usize]) -> Vec<Vec<usize>> {
    let mut rest = order;
    sizes
        .iter()
        .map(|&size| {
            let (group, tail) = rest.split_at(size.min(rest.len()));
            rest = tail;
            group.to_vec()
        })
        .collect()
}

impl core::fmt::Display for Strategy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for (r, g) in self.groups.iter().enumerate() {
            if r > 0 {
                write!(f, " | ")?;
            }
            let cells: Vec<String> = g.iter().map(ToString::to_string).collect();
            write!(f, "{}", cells.join(","))?;
        }
        Ok(())
    }
}

impl core::str::FromStr for Strategy {
    type Err = Error;

    /// Parses the [`core::fmt::Display`] format back: groups separated
    /// by `|`, cells within a group by commas (whitespace optional),
    /// e.g. `"0,1 | 2,3"`.
    ///
    /// # Errors
    ///
    /// [`Error::NoCells`] when the text has no cells; the usual
    /// strategy-validation errors otherwise. A token that is not a cell
    /// index surfaces as [`Error::CellOutOfRange`] with `cells: 0`.
    fn from_str(s: &str) -> Result<Strategy> {
        let mut groups = Vec::new();
        for chunk in s.split('|') {
            let mut group = Vec::new();
            for token in chunk.split(',') {
                let token = token.trim();
                if token.is_empty() {
                    continue;
                }
                let cell: usize = token.parse().map_err(|_| Error::CellOutOfRange {
                    cell: usize::MAX,
                    cells: 0,
                })?;
                group.push(cell);
            }
            if !group.is_empty() {
                groups.push(group);
            }
        }
        Strategy::new(groups)
    }
}

impl<S: Scalar> Instance<S> {
    /// Expected number of cells paged until **all** devices are found
    /// (Lemma 2.1 closed form), exactly for [`rational::Ratio`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::StrategyInstanceMismatch`] when the strategy
    /// covers a different number of cells.
    pub fn expected_paging(&self, strategy: &Strategy) -> Result<S> {
        strategy.check_cells(self.num_cells())?;
        Ok(self.lemma_2_1(strategy))
    }

    /// [`Instance::expected_paging`] for a strategy the caller built
    /// over exactly this instance's cells, as every solver does.
    pub(crate) fn lemma_2_1(&self, strategy: &Strategy) -> S {
        self.telescoped_ep(strategy, all_found)
    }

    /// `c − Σ_r |S_{r+1}| · stop(P(L_r))`, where `stop` maps the
    /// per-device probabilities `P_i(L_r)` to the probability that the
    /// search is over after round `r`: their product for the
    /// Conference Call (Lemma 2.1), a tail probability for the
    /// Signature problem. The strategy must cover this instance's cells.
    pub(crate) fn telescoped_ep(&self, strategy: &Strategy, stop: impl Fn(&[S]) -> S) -> S {
        debug_assert_eq!(strategy.num_cells(), self.num_cells());
        // prefix[i] = P_i(L_r) accumulated as we sweep rounds.
        let mut prefix = vec![S::zero(); self.num_devices()];
        let mut ep = S::one().times(self.num_cells());
        for r in 0..strategy.rounds().saturating_sub(1) {
            for &cell in strategy.group(r) {
                for (acc, row) in prefix.iter_mut().zip(self.rows()) {
                    *acc = acc.add(&row[cell]);
                }
            }
            ep = ep.sub(&stop(&prefix).times(strategy.group(r + 1).len()));
        }
        ep
    }
}

impl Instance {
    /// Expected paging computed **directly** from the definition — the
    /// telescoping sum `Σ_r (|S_1|+…+|S_r|) · Pr[search lasts exactly r]`
    /// — without Lemma 2.1's simplification. Used to cross-check the
    /// closed form in tests.
    ///
    /// # Errors
    ///
    /// Returns [`Error::StrategyInstanceMismatch`] when the strategy
    /// covers a different number of cells.
    pub fn expected_paging_direct(&self, strategy: &Strategy) -> Result<f64> {
        strategy.check_cells(self.num_cells())?;
        let m = self.num_devices();
        let mut prefix = vec![0.0f64; m];
        let mut prev_all_found = 0.0f64; // Pr[F_0] = 0
        let mut cumulative = 0usize;
        let mut ep = 0.0;
        for r in 0..strategy.rounds() {
            for &cell in strategy.group(r) {
                for (i, acc) in prefix.iter_mut().enumerate() {
                    *acc += self.prob(i, cell);
                }
            }
            cumulative += strategy.group(r).len();
            let all_found: f64 = prefix.iter().product();
            ep += cumulative as f64 * (all_found - prev_all_found);
            prev_all_found = all_found;
        }
        // If the probabilities carry rounding error, Pr[F_t] may be
        // slightly off 1; the definition still charges the full search
        // when the devices were "never found", matching Lemma 2.1's
        // c·Pr[F_t] + c·(1−Pr[F_t]) = c.
        ep += strategy.num_cells() as f64 * (1.0 - prev_all_found);
        Ok(ep)
    }

    /// Probability that the search terminates by the end of round `r`
    /// (0-based): all devices lie in `S_1 ∪ … ∪ S_{r+1}`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::StrategyInstanceMismatch`] when the strategy
    /// covers a different number of cells.
    pub(crate) fn found_by_round(&self, strategy: &Strategy, round: usize) -> Result<f64> {
        strategy.check_cells(self.num_cells())?;
        let m = self.num_devices();
        let mut prefix = vec![0.0f64; m];
        for r in 0..=round.min(strategy.rounds() - 1) {
            for &cell in strategy.group(r) {
                for (i, acc) in prefix.iter_mut().enumerate() {
                    *acc += self.prob(i, cell);
                }
            }
        }
        Ok(prefix.iter().product())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_validation() {
        assert!(Strategy::new(vec![vec![0, 1], vec![2]]).is_ok());
        assert_eq!(Strategy::new(vec![]).unwrap_err(), Error::NoCells);
        assert_eq!(
            Strategy::new(vec![vec![0], vec![]]).unwrap_err(),
            Error::EmptyGroup { round: 1 }
        );
        assert_eq!(
            Strategy::new(vec![vec![0, 1], vec![1]]).unwrap_err(),
            Error::DuplicateCell { cell: 1 }
        );
        assert_eq!(
            Strategy::new(vec![vec![0], vec![2]]).unwrap_err(),
            Error::MissingCell { cell: 1 }
        );
        // Far-out indices are gaps, found without a bitmap that large.
        assert_eq!(
            Strategy::new(vec![vec![1 << 40], vec![1 << 40]]).unwrap_err(),
            Error::DuplicateCell { cell: 1 << 40 }
        );
        assert_eq!(Strategy::from_assignment(&[0, usize::MAX]), None);
        // An oversized last round is clamped to the cells left.
        let s = Strategy::from_order_and_sizes(&[0, 1], &[1, usize::MAX]).unwrap();
        assert_eq!(s.group_sizes(), vec![1, 1]);
    }

    #[test]
    fn strategy_accessors() {
        let s = Strategy::new(vec![vec![2, 0], vec![1, 3]]).unwrap();
        assert_eq!(s.rounds(), 2);
        assert_eq!(s.num_cells(), 4);
        assert_eq!(s.group(0), &[2, 0]);
        assert_eq!(s.group_sizes(), vec![2, 2]);
        assert_eq!(s.groups().concat(), vec![2, 0, 1, 3]);
        assert_eq!(s.round_of_cell(), vec![0, 1, 0, 1]);
        assert_eq!(s.to_string(), "2,0 | 1,3");
    }

    #[test]
    fn display_parse_round_trip() {
        for text in ["0", "0,1 | 2", "2,0 | 1,3", "3 | 1 | 0 | 2"] {
            let s: Strategy = text.parse().unwrap();
            let back: Strategy = s.to_string().parse().unwrap();
            assert_eq!(s, back, "{text}");
        }
        assert!("".parse::<Strategy>().is_err());
        assert!("0,x".parse::<Strategy>().is_err());
        assert!("0,0".parse::<Strategy>().is_err());
        assert!("0 | 2".parse::<Strategy>().is_err()); // gap
    }

    #[test]
    fn from_order_and_sizes() {
        let s = Strategy::from_order_and_sizes(&[3, 1, 0, 2], &[1, 3]).unwrap();
        assert_eq!(s.group(0), &[3]);
        assert_eq!(s.group(1), &[1, 0, 2]);
        assert!(Strategy::from_order_and_sizes(&[0, 1, 2], &[1, 1]).is_err());
        assert!(Strategy::from_order_and_sizes(&[0, 1], &[1, 1, 1]).is_err());
    }

    #[test]
    fn blanket_covers_everything() {
        let s = Strategy::blanket(5);
        assert_eq!(s.rounds(), 1);
        assert_eq!(s.group(0), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn blanket_ep_is_c() {
        // With one round, the paper notes the problem is trivial: EP = c.
        let inst = Instance::uniform(3, 7).unwrap();
        let ep = inst.expected_paging(&Strategy::blanket(7)).unwrap();
        assert!((ep - 7.0).abs() < 1e-12);
    }

    #[test]
    fn paper_uniform_example() {
        // Section 1.1: one device uniform over c cells (c even), d = 2,
        // halving gives EP = 3c/4.
        for c in [2usize, 4, 8, 100] {
            let inst = Instance::uniform(1, c).unwrap();
            let s = Strategy::new(vec![(0..c / 2).collect(), (c / 2..c).collect()]).unwrap();
            let ep = inst.expected_paging(&s).unwrap();
            assert!((ep - 3.0 * c as f64 / 4.0).abs() < 1e-9, "c={c}: {ep}");
        }
    }

    #[test]
    fn closed_form_matches_direct() {
        let inst = Instance::from_rows(vec![
            vec![0.1, 0.2, 0.3, 0.25, 0.15],
            vec![0.4, 0.1, 0.1, 0.2, 0.2],
        ])
        .unwrap();
        for groups in [
            vec![vec![0, 1], vec![2, 3, 4]],
            vec![vec![4], vec![3], vec![2], vec![1], vec![0]],
            vec![vec![0, 1, 2, 3, 4]],
            vec![vec![2, 0], vec![4, 1], vec![3]],
        ] {
            let s = Strategy::new(groups).unwrap();
            let a = inst.expected_paging(&s).unwrap();
            let b = inst.expected_paging_direct(&s).unwrap();
            assert!((a - b).abs() < 1e-12, "{s}: {a} vs {b}");
        }
    }

    #[test]
    fn mismatch_detected() {
        let inst = Instance::uniform(1, 4).unwrap();
        let s = Strategy::blanket(5);
        assert!(matches!(
            inst.expected_paging(&s),
            Err(Error::StrategyInstanceMismatch { .. })
        ));
        assert!(matches!(
            inst.expected_paging_direct(&s),
            Err(Error::StrategyInstanceMismatch { .. })
        ));
    }

    #[test]
    fn exact_matches_float() {
        use rational::Ratio;
        let exact = Instance::from_rows(vec![
            vec![
                Ratio::from_fraction(1, 4),
                Ratio::from_fraction(1, 2),
                Ratio::from_fraction(1, 4),
            ],
            vec![
                Ratio::from_fraction(1, 3),
                Ratio::from_fraction(1, 3),
                Ratio::from_fraction(1, 3),
            ],
        ])
        .unwrap();
        let s = Strategy::new(vec![vec![1], vec![0, 2]]).unwrap();
        let exact_ep = exact.expected_paging(&s).unwrap();
        let float_ep = exact.to_f64().expected_paging(&s).unwrap();
        assert!((exact_ep.to_f64() - float_ep).abs() < 1e-12);
        // EP = 3 − 2·(1/2)·(1/3) = 3 − 1/3 = 8/3.
        assert_eq!(exact_ep, Ratio::from_fraction(8, 3));
    }

    #[test]
    fn found_by_round_monotone() {
        let inst = Instance::from_rows(vec![vec![0.6, 0.2, 0.2], vec![0.1, 0.8, 0.1]]).unwrap();
        let s = Strategy::new(vec![vec![0], vec![1], vec![2]]).unwrap();
        let f0 = inst.found_by_round(&s, 0).unwrap();
        let f1 = inst.found_by_round(&s, 1).unwrap();
        let f2 = inst.found_by_round(&s, 2).unwrap();
        assert!(f0 <= f1 && f1 <= f2);
        assert!((f2 - 1.0).abs() < 1e-12);
        assert!((f0 - 0.6 * 0.1).abs() < 1e-12);
        assert!((f1 - 0.8 * 0.9).abs() < 1e-12);
    }

    #[test]
    fn longer_strategy_strictly_better() {
        // Section 2: for any strategy of length t−1 < c there is a
        // strictly better strategy of length t. Check a representative:
        // splitting the last group of a uniform instance always helps.
        let inst = Instance::uniform(2, 6).unwrap();
        let s2 = Strategy::new(vec![vec![0, 1, 2], vec![3, 4, 5]]).unwrap();
        let s3 = Strategy::new(vec![vec![0, 1, 2], vec![3, 4], vec![5]]).unwrap();
        let ep2 = inst.expected_paging(&s2).unwrap();
        let ep3 = inst.expected_paging(&s3).unwrap();
        assert!(ep3 < ep2);
    }
}
