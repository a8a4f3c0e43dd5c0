//! The Lemma 3.2 reduction: Quasipartition1 → Conference Call
//! (`m = 2`, `d = 2`).
//!
//! Given sizes `s_1, …, s_c` (`c` divisible by 3, every `s_i < S` where
//! `S = Σ s_i`), define the two devices' location probabilities
//!
//! ```text
//! p_j = (1/(c − 1/2)) · (1 − 3/(2c) + s_j/S)
//! q_j = (1/(c − 1))   · (1 − s_j/S)
//! ```
//!
//! (both rows sum to exactly one, all entries positive). For a
//! two-round strategy paging `I` first, `|I| = y` and
//! `x = Σ_{j∈I} s_j / S`,
//!
//! ```text
//! EP = c − (c − y)·Σ_I p_j·Σ_I q_j = c − f(x, y) / ((c − 1/2)(c − 1))
//! ```
//!
//! with `f` of Lemma 3.1, maximised **only** at `(x, y) = (1/2, 2c/3)`.
//! Hence the minimal expected paging equals
//! `LB = c − f(1/2, 2c/3)/((c − 1/2)(c − 1))` **iff** the
//! Quasipartition1 instance has a solution — so a polynomial optimal
//! Conference Call solver would decide Quasipartition1 (Corollary 3.3:
//! the Conference Call problem is NP-hard).

use pager_core::bounds::two_device_two_round_lb;
use pager_core::optimal::optimal_two_round_exact;
use pager_core::Instance;
use rational::Ratio;

use crate::quasipartition::Qp1Instance;

/// Output of the Lemma 3.2 transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConferenceCallReduction {
    /// The two-device instance (`m = 2`, `c` cells, intended `d = 2`).
    pub instance: Instance<Ratio>,
    /// The expected-paging threshold: the optimum equals `lb` iff the
    /// Quasipartition1 instance is a YES instance.
    pub lb: Ratio,
}

/// Errors of the Lemma 3.2 transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReductionError {
    /// `c` must be a positive multiple of 3 (and ≥ 3).
    BadLength {
        /// The offending length.
        len: usize,
    },
    /// Some size equals the total (then no partition exists and the
    /// transformation's probabilities would be non-positive).
    DominantSize {
        /// Index of the offending size.
        index: usize,
    },
    /// All sizes are zero (the transformation needs `S > 0`; the
    /// all-zero instance is trivially a YES instance anyway).
    ZeroTotal,
}

impl core::fmt::Display for ReductionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReductionError::BadLength { len } => {
                write!(f, "length {len} is not a positive multiple of 3")
            }
            ReductionError::DominantSize { index } => {
                write!(f, "size {index} equals the total: no partition exists")
            }
            ReductionError::ZeroTotal => write!(f, "all sizes are zero"),
        }
    }
}

impl std::error::Error for ReductionError {}

/// Transforms a Quasipartition1 instance into a two-device Conference
/// Call instance and its LB threshold (Lemma 3.2).
///
/// # Errors
///
/// [`ReductionError`] when the preconditions fail. Note the paper
/// handles `s_i = S` by answering NO directly; this function surfaces
/// that case as [`ReductionError::DominantSize`].
pub fn quasipartition1_to_conference_call(
    qp1: &Qp1Instance,
) -> Result<ConferenceCallReduction, ReductionError> {
    let c = qp1.len();
    if c < 3 || !c.is_multiple_of(3) {
        return Err(ReductionError::BadLength { len: c });
    }
    let total = qp1.total();
    if total == 0 {
        return Err(ReductionError::ZeroTotal);
    }
    if let Some(index) = qp1.sizes.iter().position(|&s| s == total) {
        return Err(ReductionError::DominantSize { index });
    }
    let s_total = Ratio::from(total);
    let cq = Ratio::from(c);
    // 1/(c − 1/2) and 1/(c − 1).
    let p_norm = (&cq - &Ratio::from_fraction(1, 2)).recip();
    let q_norm = (&cq - &Ratio::one()).recip();
    let three_2c = Ratio::from_fraction(3, 2) / &cq;
    let mut p_row = Vec::with_capacity(c);
    let mut q_row = Vec::with_capacity(c);
    for &s in &qp1.sizes {
        let frac = &Ratio::from(s) / &s_total;
        p_row.push(&p_norm * &(&(&Ratio::one() - &three_2c) + &frac));
        q_row.push(&q_norm * &(&Ratio::one() - &frac));
    }
    let instance = Instance::from_rows(vec![p_row, q_row])
        .expect("Lemma 3.2 rows are valid probability vectors");
    Ok(ConferenceCallReduction {
        instance,
        lb: two_device_two_round_lb(c as u64),
    })
}

/// Verdict of an end-to-end verification of the reduction on one
/// instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionVerdict {
    /// Whether the Quasipartition1 instance has a solution (by direct
    /// search).
    pub qp1_yes: bool,
    /// The exact optimal two-round expected paging of the transformed
    /// instance.
    pub optimal_ep: Ratio,
    /// The LB threshold.
    pub lb: Ratio,
    /// Whether `optimal_ep == lb` — must equal `qp1_yes`.
    pub ep_meets_lb: bool,
}

impl ReductionVerdict {
    /// `true` iff the equivalence promised by Lemma 3.2 holds.
    #[must_use]
    pub fn equivalence_holds(&self) -> bool {
        self.qp1_yes == self.ep_meets_lb
    }
}

/// Runs the full Lemma 3.2 verification on a small instance: solves
/// Quasipartition1 directly, builds the Conference Call instance,
/// computes the exact two-round optimum, and compares with the LB.
///
/// # Errors
///
/// Propagates [`ReductionError`].
///
/// # Panics
///
/// Panics if `c > 24` (exact optimum enumerates `2^c` subsets).
pub fn verify_reduction(qp1: &Qp1Instance) -> Result<ReductionVerdict, ReductionError> {
    let reduction = quasipartition1_to_conference_call(qp1)?;
    let qp1_yes = qp1.solve().is_some();
    let optimal = optimal_two_round_exact(&reduction.instance)
        .expect("transformed instances have at least 3 cells");
    let ep_meets_lb = optimal.expected_paging == reduction.lb;
    // The LB is always a true lower bound.
    debug_assert!(optimal.expected_paging >= reduction.lb);
    Ok(ReductionVerdict {
        qp1_yes,
        optimal_ep: optimal.expected_paging,
        lb: reduction.lb,
        ep_meets_lb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_valid_and_positive() {
        let qp1 = Qp1Instance::new(vec![1, 2, 3, 4, 5, 3]);
        let red = quasipartition1_to_conference_call(&qp1).unwrap();
        assert_eq!(red.instance.num_devices(), 2);
        assert_eq!(red.instance.num_cells(), 6);
        for row in red.instance.rows() {
            let sum: Ratio = row.iter().sum();
            assert_eq!(sum, Ratio::one());
            for v in row {
                assert!(v.is_positive());
            }
        }
    }

    #[test]
    fn preconditions_enforced() {
        assert!(matches!(
            quasipartition1_to_conference_call(&Qp1Instance::new(vec![0, 0, 0])),
            Err(ReductionError::ZeroTotal)
        ));
        assert!(matches!(
            quasipartition1_to_conference_call(&Qp1Instance::new(vec![5, 0, 0])),
            Err(ReductionError::DominantSize { index: 0 })
        ));
    }

    #[test]
    fn yes_instance_reaches_lb() {
        // c = 6: subset of 4 items summing to half of 12 = 6:
        // {1, 1, 2, 2} works.
        let qp1 = Qp1Instance::new(vec![1, 1, 2, 2, 3, 3]);
        let verdict = verify_reduction(&qp1).unwrap();
        assert!(verdict.qp1_yes);
        assert!(
            verdict.ep_meets_lb,
            "optimal {} vs lb {}",
            verdict.optimal_ep, verdict.lb
        );
        assert!(verdict.equivalence_holds());
    }

    #[test]
    fn no_instance_stays_above_lb() {
        // Odd total → NO.
        let qp1 = Qp1Instance::new(vec![1, 1, 1, 1, 1, 4]);
        let verdict = verify_reduction(&qp1).unwrap();
        assert!(!verdict.qp1_yes);
        assert!(!verdict.ep_meets_lb);
        assert!(verdict.optimal_ep > verdict.lb);
        assert!(verdict.equivalence_holds());
    }

    #[test]
    fn optimal_strategy_on_yes_instance_has_the_right_shape() {
        let qp1 = Qp1Instance::new(vec![1, 1, 2, 2, 3, 3]);
        let red = quasipartition1_to_conference_call(&qp1).unwrap();
        let optimal = optimal_two_round_exact(&red.instance).unwrap();
        // The first group must have cardinality 2c/3 = 4 and its sizes
        // must sum to half the total (Lemma 3.2's backward direction).
        let first = optimal.strategy.group(0);
        assert_eq!(first.len(), 4);
        let sum: u64 = first.iter().map(|&j| qp1.sizes[j]).sum();
        assert_eq!(2 * sum, qp1.total());
    }

    #[test]
    fn lb_matches_closed_form() {
        // LB = c − f(1/2, 2c/3)/((c−1/2)(c−1)) with
        // f(1/2, 2c/3) = 4c³/27 − 2c²/9 + c/12: check c = 6 by hand.
        // f = 4·216/27 − 2·36/9 + 6/12 = 32 − 8 + 1/2 = 49/2.
        // (c−1/2)(c−1) = (11/2)(5) = 55/2. LB = 6 − (49/2)/(55/2)
        //    = 6 − 49/55 = 281/55.
        let qp1 = Qp1Instance::new(vec![1, 1, 2, 2, 3, 3]);
        let red = quasipartition1_to_conference_call(&qp1).unwrap();
        assert_eq!(red.lb, Ratio::from_fraction(281, 55));
    }

    #[test]
    fn random_instances_uphold_equivalence() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2024);
        let mut yes_seen = 0;
        let mut no_seen = 0;
        for _ in 0..40 {
            let sizes: Vec<u64> = (0..6).map(|_| rng.gen_range(1..=9)).collect();
            let qp1 = Qp1Instance::new(sizes);
            let Ok(verdict) = verify_reduction(&qp1) else {
                continue;
            };
            assert!(
                verdict.equivalence_holds(),
                "equivalence failed: {verdict:?}"
            );
            if verdict.qp1_yes {
                yes_seen += 1;
            } else {
                no_seen += 1;
            }
        }
        assert!(yes_seen > 0, "want at least one YES instance in the batch");
        assert!(no_seen > 0, "want at least one NO instance in the batch");
    }
}
