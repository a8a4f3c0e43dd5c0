//! The Multipartition problem of Section 3.2 and the Lemma 3.6
//! reduction from Quasipartition2.
//!
//! A Multipartition family is parameterised by the fractions
//! `r_1, …, r_d` (group cardinalities) and `x_1, …, x_d` (group sums)
//! derived from the Lemma 3.4 chain for fixed `m` and `d` (see
//! [`pager_core::bounds::multipartition_fractions`]), and `M` — the
//! least common multiple of the `r_j` denominators. An instance is a
//! list of `c = M·k` non-negative rational sizes; the question is
//! whether `[c]` splits into groups `P_1, …, P_d` with `|P_j| = r_j·c`
//! and `Σ_{k∈P_j} s_k = x_j·Σ s`.

use pager_core::bounds::multipartition_fractions;
use rational::{BigInt, Ratio};

use crate::quasipartition::{Qp2Instance, Qp2Params};

/// Parameters of a Multipartition family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultipartitionParams {
    /// Number of devices `m ≥ 2` the family encodes.
    pub m: u32,
    /// Number of rounds `d ≥ 2`.
    pub d: usize,
    /// The scale unit `M` — the lcm of the `r_j` denominators.
    pub m_const: u64,
    /// Group cardinality fractions (length `d`, sum 1).
    pub r: Vec<Ratio>,
    /// Group sum fractions (length `d`, sum 1).
    pub x: Vec<Ratio>,
}

impl MultipartitionParams {
    /// Derives the family for `m` devices and `d` rounds from the
    /// Lemma 3.4 chain.
    ///
    /// # Panics
    ///
    /// Panics if `m < 2` or `d < 2`.
    #[must_use]
    pub fn derive(m: u32, d: usize) -> MultipartitionParams {
        let (r, x) = multipartition_fractions(m, d);
        let m_const = r
            .iter()
            .fold(BigInt::one(), |acc, rj| {
                let den = rj.denom();
                let g = acc.gcd(den);
                &acc / &g * den
            })
            .to_u64()
            .expect("lcm of denominators fits u64");
        MultipartitionParams {
            m,
            d,
            m_const,
            r,
            x,
        }
    }

    /// The Quasipartition2 family this Multipartition reduces *from*
    /// (Lemma 3.6): sort `x` non-increasingly, take the last two
    /// positions `π(d−1)`, `π(d)`, and let `u` index the smaller of the
    /// two `r` values (breaking ties toward `π(d)`).
    #[must_use]
    pub fn qp2_params(&self) -> Qp2Params {
        let d = self.d;
        let mut order: Vec<usize> = (0..d).collect();
        // Sort by non-increasing x, stable so ties keep index order.
        order.sort_by(|&a, &b| self.x[b].cmp(&self.x[a]).then(a.cmp(&b)));
        let last = order[d - 1];
        let penult = order[d - 2];
        // u is the index of the smaller r; ties pick π(d) as u.
        let (u, v) = if self.r[penult] < self.r[last] {
            (penult, last)
        } else {
            (last, penult)
        };
        Qp2Params {
            m_const: self.m_const,
            r_u: self.r[u].clone(),
            r_v: self.r[v].clone(),
            x_u: self.x[u].clone(),
            x_v: self.x[v].clone(),
        }
    }

    /// Group cardinalities `|P_j| = r_j · c` for a concrete `c`.
    ///
    /// # Panics
    ///
    /// Panics if some `r_j·c` is not integral (i.e. `c` is not a
    /// multiple of `M`).
    #[must_use]
    pub(crate) fn cardinalities(&self, c: usize) -> Vec<usize> {
        self.r
            .iter()
            .map(|rj| {
                let v = rj * &Ratio::from(c);
                assert!(v.is_integer(), "c must be a multiple of M");
                usize::try_from(v.numer()).expect("cardinality fits usize")
            })
            .collect()
    }
}

/// A Multipartition instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultipartitionInstance {
    /// The family.
    pub params: MultipartitionParams,
    /// The sizes (`c` of them, `c` a multiple of `M`).
    pub sizes: Vec<Ratio>,
}

impl MultipartitionInstance {
    /// Creates an instance.
    ///
    /// # Panics
    ///
    /// Panics if `sizes.len()` is not a positive multiple of `M` or a
    /// size is negative.
    #[must_use]
    pub(crate) fn new(params: MultipartitionParams, sizes: Vec<Ratio>) -> MultipartitionInstance {
        assert!(
            !sizes.is_empty() && (sizes.len() as u64).is_multiple_of(params.m_const),
            "size count must be a positive multiple of M"
        );
        assert!(
            sizes.iter().all(|s| !s.is_negative()),
            "sizes must be non-negative"
        );
        MultipartitionInstance { params, sizes }
    }

    /// Number of sizes `c`.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Checks a claimed multipartition (one group of indices per round).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn verify(&self, groups: &[Vec<usize>]) -> bool {
        let c = self.len();
        let d = self.params.d;
        if groups.len() != d {
            return false;
        }
        let cards = self.params.cardinalities(c);
        let total: Ratio = self.sizes.iter().sum();
        let mut seen = vec![false; c];
        for (j, group) in groups.iter().enumerate() {
            if group.len() != cards[j] {
                return false;
            }
            let mut sum = Ratio::zero();
            for &i in group {
                if i >= c || seen[i] {
                    return false;
                }
                seen[i] = true;
                sum = &sum + &self.sizes[i];
            }
            if sum != &self.params.x[j] * &total {
                return false;
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// Brute-force solver: enumerates assignments of sizes to groups
    /// respecting cardinalities. Exponential; for cross-checking the
    /// Lemma 3.6 reduction on small instances.
    ///
    /// # Panics
    ///
    /// Panics if `c > 16`.
    #[must_use]
    pub fn solve_brute(&self) -> Option<Vec<Vec<usize>>> {
        let c = self.len();
        assert!(c <= 16, "solve_brute supports at most 16 sizes");
        let d = self.params.d;
        let cards = self.params.cardinalities(c);
        let total: Ratio = self.sizes.iter().sum();
        let targets: Vec<Ratio> = self.params.x.iter().map(|xj| xj * &total).collect();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); d];
        let mut sums: Vec<Ratio> = vec![Ratio::zero(); d];
        fn rec(
            sizes: &[Ratio],
            cards: &[usize],
            targets: &[Ratio],
            item: usize,
            groups: &mut Vec<Vec<usize>>,
            sums: &mut Vec<Ratio>,
        ) -> bool {
            if item == sizes.len() {
                return sums.iter().zip(targets).all(|(s, t)| s == t);
            }
            for j in 0..groups.len() {
                if groups[j].len() >= cards[j] {
                    continue;
                }
                let new_sum = &sums[j] + &sizes[item];
                if new_sum > targets[j] {
                    continue;
                }
                let old = core::mem::replace(&mut sums[j], new_sum);
                groups[j].push(item);
                if rec(sizes, cards, targets, item + 1, groups, sums) {
                    return true;
                }
                groups[j].pop();
                sums[j] = old;
            }
            false
        }
        if rec(&self.sizes, &cards, &targets, 0, &mut groups, &mut sums) {
            Some(groups)
        } else {
            None
        }
    }
}

/// The Lemma 3.6 reduction: lifts a [`Qp2Instance`] of the family
/// [`MultipartitionParams::qp2_params`] to a [`MultipartitionInstance`]
/// such that YES maps to YES and NO to NO.
///
/// The original `n` sizes are rescaled to mass `x_{π(d−1)} + x_{π(d)}`;
/// every other group `j` receives one "big" size
/// `x_j − s·(i_j − 1)/(2c)` and `i_j − 1` "small" sizes `s/(2c)`, where
/// `s` is no larger than any positive original size or any positive gap
/// between consecutive sorted `x` values.
///
/// # Panics
///
/// Panics if the Qp2 parameters do not match the Multipartition family.
#[must_use]
pub fn reduce_qp2(qp2: &Qp2Instance, params: &MultipartitionParams) -> MultipartitionInstance {
    let family = params.qp2_params();
    assert_eq!(
        (&family.r_u, &family.r_v, &family.x_u, &family.x_v),
        (
            &qp2.params.r_u,
            &qp2.params.r_v,
            &qp2.params.x_u,
            &qp2.params.x_v
        ),
        "Qp2 instance must belong to the family derived from the parameters"
    );
    let d = params.d;
    let n = qp2.sizes.len();
    // c = n / (r_u + r_v).
    let c_ratio = &Ratio::from(n) / &(&family.r_u + &family.r_v);
    assert!(c_ratio.is_integer(), "n/(r_u+r_v) must be integral");
    let c = usize::try_from(c_ratio.numer()).expect("c fits usize");
    let cards = params.cardinalities(c);

    // Sort x non-increasing to find which groups take the originals.
    let mut order: Vec<usize> = (0..d).collect();
    order.sort_by(|&a, &b| params.x[b].cmp(&params.x[a]).then(a.cmp(&b)));
    let tail_mass = &params.x[order[d - 2]] + &params.x[order[d - 1]];

    // Rescale the originals to mass x_{π(d−1)} + x_{π(d)}.
    let qp_total = qp2.total();
    assert!(
        qp_total.is_positive(),
        "Qp2 instance must have positive total"
    );
    let scale = &tail_mass / &qp_total;
    let mut sizes: Vec<Ratio> = qp2.sizes.iter().map(|s| s * &scale).collect();

    // s = min over positive rescaled sizes and positive x-gaps.
    let mut s_min: Option<Ratio> = None;
    let mut consider = |v: &Ratio| {
        if v.is_positive() && s_min.as_ref().is_none_or(|m| v < m) {
            s_min = Some(v.clone());
        }
    };
    for v in &sizes {
        consider(v);
    }
    for w in order.windows(2) {
        let gap = &params.x[w[0]] - &params.x[w[1]];
        consider(&gap);
    }
    let s = s_min.expect("some positive size or gap exists");
    let two_c = Ratio::from(2 * c);

    // For every head group j (all but the last two in x-order): one big
    // size and i_j − 1 small sizes.
    for &j in order.iter().take(d - 2) {
        let i_j = cards[j];
        let small = &s / &two_c;
        let big = &params.x[j] - &(&small * &Ratio::from(i_j - 1));
        sizes.push(big);
        for _ in 0..i_j - 1 {
            sizes.push(small.clone());
        }
    }
    debug_assert_eq!(sizes.len(), c);
    MultipartitionInstance::new(params.clone(), sizes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionInstance;
    use crate::quasipartition::reduce_partition;

    #[test]
    fn derive_m2_d2() {
        let p = MultipartitionParams::derive(2, 2);
        assert_eq!(p.m_const, 3);
        assert_eq!(p.r[0], Ratio::from_fraction(2, 3));
        assert_eq!(p.x[0], Ratio::from_fraction(1, 3));
        let q = p.qp2_params();
        // x sorted desc: x_2 = 2/3 first, x_1 = 1/3 last; the last two
        // are both groups; u has the smaller r.
        assert_eq!(q.m_const, 3);
        assert_eq!(&q.r_u + &q.r_v, Ratio::one());
    }

    #[test]
    fn derive_m3_d3_is_consistent() {
        let p = MultipartitionParams::derive(3, 3);
        assert_eq!(p.r.len(), 3);
        let rsum: Ratio = p.r.iter().sum();
        let xsum: Ratio = p.x.iter().sum();
        assert_eq!(rsum, Ratio::one());
        assert_eq!(xsum, Ratio::one());
        // M divides out every r denominator.
        for rj in &p.r {
            let v = rj * &Ratio::from(p.m_const);
            assert!(v.is_integer(), "M must clear denominators");
        }
    }

    #[test]
    fn verify_checks_everything() {
        let params = MultipartitionParams {
            m: 2,
            d: 2,
            m_const: 3,
            r: vec![Ratio::from_fraction(2, 3), Ratio::from_fraction(1, 3)],
            x: vec![Ratio::from_fraction(1, 2), Ratio::from_fraction(1, 2)],
        };
        let sizes = vec![
            Ratio::from_fraction(1, 4),
            Ratio::from_fraction(1, 4),
            Ratio::from_fraction(1, 2),
        ];
        let inst = MultipartitionInstance::new(params, sizes);
        // Groups: {0,1} (card 2, sum 1/2), {2} (card 1, sum 1/2).
        assert!(inst.verify(&[vec![0, 1], vec![2]]));
        assert!(!inst.verify(&[vec![0, 2], vec![1]])); // sums wrong
        assert!(!inst.verify(&[vec![0], vec![1, 2]])); // cards wrong
        assert!(!inst.verify(&[vec![0, 1]])); // missing group
        let brute = inst.solve_brute().unwrap();
        assert!(inst.verify(&brute));
    }

    #[test]
    fn end_to_end_partition_to_multipartition_yes() {
        // Partition YES → Qp2 YES → Multipartition YES.
        let part = PartitionInstance::new(vec![3, 1, 2, 2]).unwrap();
        let params = MultipartitionParams::derive(2, 2);
        let qp2 = reduce_partition(&part, &params.qp2_params());
        let multi = reduce_qp2(&qp2, &params);
        assert_eq!(multi.len() as u64 % params.m_const, 0);
        let groups = multi.solve_brute().expect("YES chains through");
        assert!(multi.verify(&groups));
    }

    #[test]
    fn end_to_end_partition_to_multipartition_no() {
        let part = PartitionInstance::new(vec![5, 1, 1, 1]).unwrap();
        let params = MultipartitionParams::derive(2, 2);
        let qp2 = reduce_partition(&part, &params.qp2_params());
        let multi = reduce_qp2(&qp2, &params);
        assert!(multi.solve_brute().is_none());
    }
}
