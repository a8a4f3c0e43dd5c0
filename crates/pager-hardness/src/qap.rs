//! The Quadratic Assignment Problem connection (Section 5.1).
//!
//! The paper notes (citing Burkard et al. \[6\]) that a QAP solver can
//! solve the two-device Conference Call problem. For the full-delay
//! case `d = c` the reduction is transparent: a strategy is a
//! permutation `π` (cell paged per round), and by Lemma 2.1
//!
//! ```text
//! EP = c − Σ_{r=1}^{c−1} P(L_r)·Q(L_r)
//!    = c − Σ_{u,v} p_u · q_v · (c − max(π(u), π(v)))
//! ```
//!
//! since the pair `(u, v)` contributes `p_u q_v` to every round
//! `r ≥ max(π(u), π(v))` except the last. Minimising `EP` is thus the
//! QAP `max_π Σ_{u,v} A_{π(u),π(v)} · B_{u,v}` with **location**
//! matrix `A_{ij} = c − max(i, j)` and **flow** matrix
//! `B_{uv} = (p_u q_v + p_v q_u)/2` (symmetrised, as the QAP
//! formulation in the paper's reference assumes).

use pager_core::{Instance, Strategy};

/// A Quadratic Assignment Problem instance with symmetric matrices:
/// maximise `Σ_{i,j} a[i][j] · b[π(i)][π(j)]` over permutations `π`.
#[derive(Debug, Clone, PartialEq)]
pub struct QapInstance {
    /// The first (location) matrix.
    pub a: Vec<Vec<f64>>,
    /// The second (flow) matrix.
    pub b: Vec<Vec<f64>>,
}

impl QapInstance {
    /// Creates an instance.
    ///
    /// # Panics
    ///
    /// Panics if the matrices are not square of equal size, or size 0.
    #[must_use]
    pub fn new(a: Vec<Vec<f64>>, b: Vec<Vec<f64>>) -> QapInstance {
        let n = a.len();
        assert!(n > 0, "QAP needs at least one facility");
        assert!(
            a.iter().all(|r| r.len() == n) && b.len() == n && b.iter().all(|r| r.len() == n),
            "matrices must be square and of equal size"
        );
        QapInstance { a, b }
    }

    /// Problem size `n`.
    #[must_use]
    pub fn size(&self) -> usize {
        self.a.len()
    }

    /// Objective value of a permutation (`perm[i]` = location of
    /// facility `i`).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n`.
    #[must_use]
    pub fn objective(&self, perm: &[usize]) -> f64 {
        let n = self.size();
        assert_eq!(perm.len(), n, "permutation size mismatch");
        let mut value = 0.0;
        for i in 0..n {
            for j in 0..n {
                value += self.a[perm[i]][perm[j]] * self.b[i][j];
            }
        }
        value
    }

    /// Exhaustive maximisation over all `n!` permutations.
    ///
    /// # Panics
    ///
    /// Panics if `n > 10`.
    #[must_use]
    pub fn solve_brute(&self) -> (Vec<usize>, f64) {
        let n = self.size();
        assert!(n <= 10, "solve_brute supports at most 10 facilities");
        let mut perm: Vec<usize> = (0..n).collect();
        let mut best_perm = perm.clone();
        let mut best = self.objective(&perm);
        // Heap's algorithm.
        let mut stack = vec![0usize; n];
        let mut i = 1usize;
        while i < n {
            if stack[i] < i {
                if i.is_multiple_of(2) {
                    perm.swap(0, i);
                } else {
                    perm.swap(stack[i], i);
                }
                let value = self.objective(&perm);
                if value > best {
                    best = value;
                    best_perm = perm.clone();
                }
                stack[i] += 1;
                i = 1;
            } else {
                stack[i] = 0;
                i += 1;
            }
        }
        (best_perm, best)
    }
}

/// Builds the QAP encoding of a two-device, full-delay (`d = c`)
/// Conference Call instance.
///
/// # Panics
///
/// Panics if the instance does not have exactly two devices.
#[must_use]
pub fn conference_call_to_qap(instance: &Instance) -> QapInstance {
    assert_eq!(
        instance.num_devices(),
        2,
        "the Section 5.1 reduction covers two devices"
    );
    let c = instance.num_cells();
    let a: Vec<Vec<f64>> = (0..c)
        .map(|i| (0..c).map(|j| (c - 1 - i.max(j)) as f64).collect())
        .collect();
    let b: Vec<Vec<f64>> = (0..c)
        .map(|u| {
            (0..c)
                .map(|v| {
                    0.5 * (instance.prob(0, u) * instance.prob(1, v)
                        + instance.prob(0, v) * instance.prob(1, u))
                })
                .collect()
        })
        .collect();
    QapInstance::new(a, b)
}

/// Converts a QAP permutation back into the full-delay paging strategy
/// it encodes (`perm[u]` = round in which cell `u` is paged).
///
/// # Panics
///
/// Panics if `perm` is not a permutation.
#[must_use]
pub fn permutation_to_strategy(perm: &[usize]) -> Strategy {
    let c = perm.len();
    let mut order = vec![0usize; c];
    for (cell, &round) in perm.iter().enumerate() {
        order[round] = cell;
    }
    Strategy::new(order.into_iter().map(|cell| vec![cell]).collect())
        .expect("a permutation is a valid one-cell-per-round strategy")
}

/// Solves a small two-device full-delay instance through the QAP
/// encoding; returns the strategy and its expected paging.
///
/// # Panics
///
/// Panics if the instance is too large for brute force or not
/// two-device.
#[must_use]
pub fn solve_via_qap(instance: &Instance) -> (Strategy, f64) {
    let c = instance.num_cells();
    let qap = conference_call_to_qap(instance);
    let (perm, value) = qap.solve_brute();
    let strategy = permutation_to_strategy(&perm);
    let ep = c as f64 - value;
    debug_assert!(
        (instance.expected_paging(&strategy).expect("dims") - ep).abs() < 1e-9,
        "QAP objective must equal c - EP"
    );
    (strategy, ep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pager_core::optimal::optimal_subset_dp;
    use pager_core::Delay;

    fn demo() -> Instance {
        Instance::from_rows(vec![
            vec![0.40, 0.25, 0.20, 0.10, 0.05],
            vec![0.10, 0.15, 0.25, 0.20, 0.30],
        ])
        .unwrap()
    }

    #[test]
    fn objective_matches_ep_identity() {
        // For any permutation, QAP objective == c − EP of the encoded
        // strategy.
        let inst = demo();
        let qap = conference_call_to_qap(&inst);
        let c = inst.num_cells();
        let perms: [[usize; 5]; 3] = [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3]];
        for perm in perms {
            let strategy = permutation_to_strategy(&perm);
            let ep = inst.expected_paging(&strategy).unwrap();
            let value = qap.objective(&perm);
            assert!(
                (c as f64 - value - ep).abs() < 1e-9,
                "{perm:?}: {value} vs EP {ep}"
            );
        }
    }

    #[test]
    fn qap_optimum_matches_full_delay_optimum() {
        let inst = demo();
        let (strategy, ep) = solve_via_qap(&inst);
        assert_eq!(strategy.rounds(), 5);
        let exact = optimal_subset_dp(&inst, Delay::new(5).unwrap()).unwrap();
        assert!(
            (ep - exact.expected_paging).abs() < 1e-9,
            "QAP {ep} vs subset DP {}",
            exact.expected_paging
        );
    }

    #[test]
    fn qap_beats_or_ties_greedy() {
        let inst = demo();
        let (_, ep) = solve_via_qap(&inst);
        let greedy =
            pager_core::greedy_strategy_planned(&inst, Delay::new(5).unwrap()).expected_paging;
        assert!(ep <= greedy + 1e-9);
    }

    #[test]
    fn brute_force_on_trivial_qap() {
        // A = identity-ish, B concentrated: the optimum pairs the big
        // entries.
        let a = vec![vec![1.0, 0.0], vec![0.0, 0.0]];
        let b = vec![vec![5.0, 0.0], vec![0.0, 1.0]];
        let qap = QapInstance::new(a, b);
        let (perm, value) = qap.solve_brute();
        // Facility 0 (flow 5) must sit on location 0 (weight 1).
        assert_eq!(perm[0], 0);
        assert_eq!(value, 5.0);
    }

    #[test]
    fn validation_guards() {
        assert!(std::panic::catch_unwind(|| QapInstance::new(
            vec![vec![1.0]],
            vec![vec![1.0, 2.0]]
        ))
        .is_err());
        let three = Instance::uniform(3, 4).unwrap();
        assert!(std::panic::catch_unwind(move || conference_call_to_qap(&three)).is_err());
    }
}
