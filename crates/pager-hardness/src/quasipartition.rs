//! The Quasipartition problems of Section 3.
//!
//! **Quasipartition1** (Section 3.1): given `c` non-negative rational
//! sizes, `c` divisible by 3, decide whether a subset of exactly `2c/3`
//! of them sums to exactly half the total.
//!
//! **Quasipartition2** (Section 3.2): the parameterised family — given
//! `n = M(r_u + r_v)·h` sizes, decide whether a subset of exactly
//! `M·r_v·h` of them sums to the fraction `x_v/(x_u + x_v)` of the
//! total. Quasipartition1 is the member with `M = 3`, `r_u = 1/3`,
//! `r_v = 2/3`, `x_u = x_v = 1/2`.
//!
//! Lemma 3.7's reduction from Partition to Quasipartition2 is
//! implemented in [`reduce_partition`], with the padding (`2^p`
//! summands, zero fillers) and the two special sizes exactly as in the
//! paper.

use crate::partition::PartitionInstance;
use rational::{BigInt, Ratio};

/// Parameters of a Quasipartition2 family member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Qp2Params {
    /// The paper's `M` — the least common multiple of the `r_j`
    /// denominators of the underlying Multipartition.
    pub m_const: u64,
    /// `r_u` — the group-size fraction of the `u` side.
    pub r_u: Ratio,
    /// `r_v` — the group-size fraction of the `v` side.
    pub r_v: Ratio,
    /// `x_u` — the sum fraction of the `u` side.
    pub x_u: Ratio,
    /// `x_v` — the sum fraction of the `v` side.
    pub x_v: Ratio,
}

impl Qp2Params {
    /// The Quasipartition1 parameters (`M = 3`, `r_u = 1/3`,
    /// `r_v = 2/3`, `x_u = x_v = 1/2`).
    #[must_use]
    pub fn quasipartition1() -> Qp2Params {
        Qp2Params {
            m_const: 3,
            r_u: Ratio::from_fraction(1, 3),
            r_v: Ratio::from_fraction(2, 3),
            x_u: Ratio::from_fraction(1, 2),
            x_v: Ratio::from_fraction(1, 2),
        }
    }

    /// The subset-sum target as a fraction of the total:
    /// `x_v / (x_u + x_v)`.
    #[must_use]
    pub(crate) fn sum_fraction(&self) -> Ratio {
        &self.x_v / &(&self.x_u + &self.x_v)
    }

    /// The required subset cardinality for scale `h`: `M·r_v·h`.
    ///
    /// # Panics
    ///
    /// Panics if `M·r_v·h` is not an integer or does not fit `usize`.
    #[must_use]
    pub(crate) fn subset_cardinality(&self, h: u64) -> usize {
        let card = &(&Ratio::from(self.m_const) * &self.r_v) * &Ratio::from(h);
        assert!(card.is_integer(), "M*r_v*h must be integral");
        usize::try_from(card.numer()).expect("cardinality fits usize")
    }

    /// The instance length for scale `h`: `n = M(r_u + r_v)·h`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an integer or does not fit `usize`.
    #[must_use]
    pub(crate) fn instance_len(&self, h: u64) -> usize {
        let n = &(&Ratio::from(self.m_const) * &(&self.r_u + &self.r_v)) * &Ratio::from(h);
        assert!(n.is_integer(), "M(r_u+r_v)h must be integral");
        usize::try_from(n.numer()).expect("length fits usize")
    }
}

/// A Quasipartition2 instance: parameters, scale and rational sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Qp2Instance {
    /// Family parameters.
    pub params: Qp2Params,
    /// The scale `h`.
    pub h: u64,
    /// The sizes (length `M(r_u + r_v)·h`).
    pub sizes: Vec<Ratio>,
}

impl Qp2Instance {
    /// Creates an instance, checking the length constraint.
    ///
    /// # Panics
    ///
    /// Panics if `sizes.len() != params.instance_len(h)` or a size is
    /// negative.
    #[must_use]
    pub(crate) fn new(params: Qp2Params, h: u64, sizes: Vec<Ratio>) -> Qp2Instance {
        assert_eq!(
            sizes.len(),
            params.instance_len(h),
            "size count must equal M(r_u+r_v)h"
        );
        assert!(
            sizes.iter().all(|s| !s.is_negative()),
            "sizes must be non-negative"
        );
        Qp2Instance { params, h, sizes }
    }

    /// Total of the sizes.
    #[must_use]
    pub fn total(&self) -> Ratio {
        self.sizes.iter().sum()
    }

    /// The exact subset-sum target `x_v/(x_u+x_v) · total`.
    #[must_use]
    pub fn target_sum(&self) -> Ratio {
        &self.params.sum_fraction() * &self.total()
    }

    /// Checks a claimed witness (indices, exact cardinality and sum).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn verify(&self, subset: &[usize]) -> bool {
        if subset.len() != self.params.subset_cardinality(self.h) {
            return false;
        }
        let mut seen = vec![false; self.sizes.len()];
        let mut sum = Ratio::zero();
        for &i in subset {
            if i >= self.sizes.len() || seen[i] {
                return false;
            }
            seen[i] = true;
            sum = &sum + &self.sizes[i];
        }
        sum == self.target_sum()
    }

    /// Solves by enumerating all subsets of the required cardinality.
    /// Exponential — for cross-checking reductions on small instances.
    ///
    /// # Panics
    ///
    /// Panics if the instance has more than 24 sizes.
    #[must_use]
    pub fn solve_brute(&self) -> Option<Vec<usize>> {
        let n = self.sizes.len();
        assert!(n <= 24, "solve_brute supports at most 24 sizes");
        let k = self.params.subset_cardinality(self.h);
        let target = self.target_sum();
        let mut subset: Vec<usize> = Vec::new();
        fn rec(
            sizes: &[Ratio],
            k: usize,
            target: &Ratio,
            start: usize,
            acc: &Ratio,
            subset: &mut Vec<usize>,
        ) -> bool {
            if subset.len() == k {
                return acc == target;
            }
            if start >= sizes.len() || sizes.len() - start < k - subset.len() {
                return false;
            }
            // take `start`
            subset.push(start);
            let with = acc + &sizes[start];
            if with <= *target && rec(sizes, k, target, start + 1, &with, subset) {
                return true;
            }
            subset.pop();
            // skip `start`
            rec(sizes, k, target, start + 1, acc, subset)
        }
        if rec(&self.sizes, k, &target, 0, &Ratio::zero(), &mut subset) {
            Some(subset)
        } else {
            None
        }
    }
}

/// A Quasipartition1 instance (convenience wrapper over integer sizes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Qp1Instance {
    /// The sizes; the length is divisible by 3.
    pub sizes: Vec<u64>,
}

impl Qp1Instance {
    /// Creates an instance.
    ///
    /// # Panics
    ///
    /// Panics if the length is zero or not divisible by 3.
    #[must_use]
    pub fn new(sizes: Vec<u64>) -> Qp1Instance {
        assert!(
            !sizes.is_empty() && sizes.len().is_multiple_of(3),
            "Quasipartition1 needs a positive multiple of 3 sizes"
        );
        Qp1Instance { sizes }
    }

    /// Number of sizes `c`.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Total of the sizes.
    #[must_use]
    pub(crate) fn total(&self) -> u64 {
        self.sizes.iter().sum()
    }

    /// Decides whether a subset of exactly `2c/3` sizes sums to half
    /// the total, returning a witness.
    ///
    /// Bitset DP over (sum → cardinality mask), like the Partition
    /// solver, then witness reconstruction by peeling items.
    ///
    /// # Panics
    ///
    /// Panics if `c > 63`.
    #[must_use]
    pub(crate) fn solve(&self) -> Option<Vec<usize>> {
        let c = self.len();
        assert!(c <= 63, "solve supports at most 63 sizes");
        let total = self.total();
        if !total.is_multiple_of(2) {
            return None;
        }
        let target_card = 2 * c / 3;
        let half = (total / 2) as usize;
        let feasible = |sizes: &[u64], card: usize, sum: usize| -> bool {
            let mut reach = vec![0u64; sum + 1];
            reach[0] = 1;
            for &s in sizes {
                let s = s as usize;
                if s > sum {
                    continue;
                }
                for t in (s..=sum).rev() {
                    let from = reach[t - s];
                    if from != 0 {
                        reach[t] |= from << 1;
                    }
                }
            }
            // Zero-size items participate in the DP like any other, so
            // the cardinality mask is already exact.
            reach[sum] & (1u64 << card) != 0
        };
        if !feasible(&self.sizes, target_card, half) {
            return None;
        }
        // Reconstruct: peel items one by one.
        let mut remaining: Vec<(usize, u64)> = self.sizes.iter().copied().enumerate().collect();
        let mut subset = Vec::new();
        let mut card = target_card;
        let mut sum = half;
        while card > 0 {
            let mut progressed = false;
            for pos in 0..remaining.len() {
                let (idx, s) = remaining[pos];
                if (s as usize) > sum {
                    continue;
                }
                // Does taking this item keep the rest feasible?
                let rest: Vec<u64> = remaining
                    .iter()
                    .enumerate()
                    .filter(|(p, _)| *p != pos)
                    .map(|(_, (_, v))| *v)
                    .collect();
                if feasible(&rest, card - 1, sum - s as usize) {
                    subset.push(idx);
                    sum -= s as usize;
                    card -= 1;
                    remaining.remove(pos);
                    progressed = true;
                    break;
                }
            }
            if !progressed {
                unreachable!("feasibility certified but reconstruction stuck");
            }
        }
        debug_assert_eq!(sum, 0);
        Some(subset)
    }

    /// Checks a claimed witness.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn verify(&self, subset: &[usize]) -> bool {
        let c = self.len();
        if subset.len() != 2 * c / 3 {
            return false;
        }
        let mut seen = vec![false; c];
        let mut sum = 0u64;
        for &i in subset {
            if i >= c || seen[i] {
                return false;
            }
            seen[i] = true;
            sum += self.sizes[i];
        }
        2 * sum == self.total()
    }
}

/// The Lemma 3.7 reduction: transforms a [`PartitionInstance`] into a
/// [`Qp2Instance`] of the given family such that the Partition instance
/// is a YES instance iff the Quasipartition2 instance is.
///
/// Construction (for `x_v >= x_u`; the opposite case swaps roles):
/// `h = 2·⌈g/(2·M·r_u)⌉`, zero fillers pad both sides to cardinality,
/// every original size gains a `2^p` summand (`p = ⌈log₂(Σŝ + 1)⌉`) to
/// force the subset to take exactly `g/2` originals, the sizes are
/// rescaled so that together with the two special sizes
/// `s_{n−1} = (x_v − x_u/3)/(x_u + x_v)` and
/// `s_n = (2/3)·x_u/(x_u + x_v)` the total is 1.
///
/// # Panics
///
/// Panics if the parameters do not produce integral cardinalities for
/// the chosen `h` (cannot happen for parameters derived from
/// Multipartition fractions).
#[must_use]
pub fn reduce_partition(partition: &PartitionInstance, params: &Qp2Params) -> Qp2Instance {
    // Construct with roles sorted so x_u <= x_v ("mutatis mutandis" in
    // the paper); the returned instance keeps the caller's orientation —
    // a subset of cardinality M·r_v·h summing to x_v/(x_u+x_v) exists
    // iff its complement (cardinality M·r_u·h, sum x_u/(x_u+x_v)) does,
    // so the decision problem is invariant under the swap.
    let original = params.clone();
    let params = if params.x_u <= params.x_v {
        params.clone()
    } else {
        Qp2Params {
            m_const: params.m_const,
            r_u: params.r_v.clone(),
            r_v: params.r_u.clone(),
            x_u: params.x_v.clone(),
            x_v: params.x_u.clone(),
        }
    };
    let g = partition.len();
    let g_half = g / 2;

    // h = 2 * ceil(g / (2 M r_u)) — large enough that both sides can
    // hold g/2 originals plus one special size.
    let m_ru = &Ratio::from(params.m_const) * &params.r_u;
    let g_over = &Ratio::from(g as u64) / &(&Ratio::from(2u64) * &m_ru);
    let h_val = {
        let ceil = g_over.ceil();
        let h = &BigInt::from(2u64) * &ceil;
        h.to_u64().expect("h fits u64")
    };
    // Ensure the cardinalities are integers for this h; bump h by the
    // denominator lcm if needed.
    let mut h = h_val.max(2);
    loop {
        let card_v = &(&Ratio::from(params.m_const) * &params.r_v) * &Ratio::from(h);
        let card_u = &(&Ratio::from(params.m_const) * &params.r_u) * &Ratio::from(h);
        let n = &(&Ratio::from(params.m_const) * &(&params.r_u + &params.r_v)) * &Ratio::from(h);
        if card_v.is_integer() && card_u.is_integer() && n.is_integer() {
            let cv = usize::try_from(card_v.numer()).expect("fits");
            let cu = usize::try_from(card_u.numer()).expect("fits");
            if cv > g_half && cu > g_half {
                break;
            }
        }
        h += 2;
    }
    let n = params.instance_len(h);
    let card_v = params.subset_cardinality(h);
    let card_u = n - card_v;
    let u_bar = card_u - 1 - g_half; // zero fillers on the u side
    let v_bar = card_v - 1 - g_half; // zero fillers on the v side
    let filler_count = u_bar + v_bar;

    // p = ceil(log2(sum + 1)); every original size gains 2^p.
    let total: u64 = partition.total();
    let p = 64 - total.leading_zeros() as u64; // ceil(log2(total + 1)) for total >= 1
    let boost = BigInt::from(2u64).pow(p as u32);
    let boosted: Vec<BigInt> = partition
        .sizes()
        .iter()
        .map(|&s| &BigInt::from(s) + &boost)
        .collect();
    let boosted_total: BigInt = boosted.iter().sum();

    // Special sizes.
    let xsum = &params.x_u + &params.x_v;
    let s_penult = &(&params.x_v - &(&params.x_u / &Ratio::from(3u64))) / &xsum;
    let s_last = &(&Ratio::from_fraction(2, 3) * &params.x_u) / &xsum;
    // Remaining mass for the originals (fillers are zero).
    let rest = &(&Ratio::one() - &s_penult) - &s_last;
    let scale = &rest / &Ratio::new(boosted_total, BigInt::one());

    let mut sizes: Vec<Ratio> = boosted
        .into_iter()
        .map(|b| &Ratio::new(b, BigInt::one()) * &scale)
        .collect();
    sizes.extend(std::iter::repeat_n(Ratio::zero(), filler_count));
    sizes.push(s_penult);
    sizes.push(s_last);
    debug_assert_eq!(sizes.len(), n);
    Qp2Instance::new(original, h, sizes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qp1_params_target() {
        let p = Qp2Params::quasipartition1();
        assert_eq!(p.sum_fraction(), Ratio::from_fraction(1, 2));
        assert_eq!(p.instance_len(2), 6);
        assert_eq!(p.subset_cardinality(2), 4);
    }

    #[test]
    fn qp1_solver_finds_witness() {
        // c = 6, pick 4 summing to half of 12 = 6: {1,1,2,2} works.
        let inst = Qp1Instance::new(vec![1, 1, 2, 2, 3, 3]);
        let w = inst.solve().unwrap();
        assert!(inst.verify(&w));
    }

    #[test]
    fn qp1_solver_detects_no() {
        // total 9 (odd): trivially NO.
        let inst = Qp1Instance::new(vec![1, 1, 1, 1, 1, 4]);
        assert!(inst.solve().is_none());
        // total 12, need 4 items summing 6, min 4 items sum = 1+1+1+1=4,
        // combos: {1,1,1,1}=4, {1,1,1,8}=11 — only size-8 breaks it.
        let inst2 = Qp1Instance::new(vec![1, 1, 1, 1, 3, 5]);
        // need 4 of them summing to 6: {1,1,1,3} = 6 — actually YES.
        let w = inst2.solve().unwrap();
        assert!(inst2.verify(&w));
    }

    #[test]
    fn qp1_zero_sizes_supported() {
        // Zeros matter for cardinality padding.
        let inst = Qp1Instance::new(vec![0, 0, 0, 2, 1, 1]);
        // Need 4 items summing to 2: {0,0,0,2} or {0,0,1,1}.
        let w = inst.solve().unwrap();
        assert!(inst.verify(&w));
    }

    #[test]
    fn reduction_yes_maps_to_yes() {
        let part = PartitionInstance::new(vec![3, 1, 2, 2]).unwrap();
        assert!(part.decide_dp());
        let qp2 = reduce_partition(&part, &Qp2Params::quasipartition1());
        let w = qp2.solve_brute().expect("YES instance must reduce to YES");
        assert!(qp2.verify(&w));
    }

    #[test]
    fn reduction_no_maps_to_no() {
        let part = PartitionInstance::new(vec![5, 1, 1, 1]).unwrap();
        assert!(!part.decide_dp());
        let qp2 = reduce_partition(&part, &Qp2Params::quasipartition1());
        assert!(qp2.solve_brute().is_none());
    }

    #[test]
    fn reduction_preserves_structure() {
        let part = PartitionInstance::new(vec![2, 3, 4, 1, 5, 5]).unwrap();
        let qp2 = reduce_partition(&part, &Qp2Params::quasipartition1());
        // Total mass is 1.
        assert_eq!(qp2.total(), Ratio::one());
        // n = M(ru+rv)h and the target is half the total.
        assert_eq!(qp2.target_sum(), Ratio::from_fraction(1, 2));
        // Last two sizes are the specials: (xv − xu/3)/(xu+xv) = 1/3
        // and (2/3)(1/2) = 1/3 for QP1 parameters.
        let n = qp2.sizes.len();
        assert_eq!(qp2.sizes[n - 1], Ratio::from_fraction(1, 3));
        assert_eq!(qp2.sizes[n - 2], Ratio::from_fraction(1, 3));
    }

    #[test]
    fn reduction_with_asymmetric_params() {
        // A non-QP1 family member (x_u != x_v).
        let params = Qp2Params {
            m_const: 3,
            r_u: Ratio::from_fraction(1, 3),
            r_v: Ratio::from_fraction(2, 3),
            x_u: Ratio::from_fraction(1, 3),
            x_v: Ratio::from_fraction(2, 3),
        };
        let part = PartitionInstance::new(vec![3, 1, 2, 2]).unwrap();
        let qp2 = reduce_partition(&part, &params);
        assert_eq!(qp2.total(), Ratio::one());
        let w = qp2.solve_brute().expect("YES maps to YES");
        assert!(qp2.verify(&w));
        let no_part = PartitionInstance::new(vec![5, 1, 1, 1]).unwrap();
        let qp2_no = reduce_partition(&no_part, &params);
        assert!(qp2_no.solve_brute().is_none());
    }

    #[test]
    fn brute_solver_rejects_wrong_cardinality() {
        let p = Qp2Params::quasipartition1();
        let inst = Qp2Instance::new(
            p,
            2,
            vec![
                Ratio::from_fraction(1, 6),
                Ratio::from_fraction(1, 6),
                Ratio::from_fraction(1, 6),
                Ratio::from_fraction(1, 6),
                Ratio::from_fraction(1, 6),
                Ratio::from_fraction(1, 6),
            ],
        );
        // Need 4 of 6 equal sizes summing to 1/2: 4/6 = 2/3 != 1/2 → NO.
        assert!(inst.solve_brute().is_none());
        assert!(!inst.verify(&[0, 1, 2]));
    }
}
