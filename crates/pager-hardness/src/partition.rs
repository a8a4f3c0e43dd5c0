//! The Partition problem (Garey & Johnson [10, p. 223], as stated in
//! Section 3.1 of the paper): given `g` positive integer sizes (`g`
//! even), decide whether some subset of exactly `g/2` of them sums to
//! half the total.
//!
//! Two exact solvers are provided — a pseudo-polynomial bitset dynamic
//! program for feasibility, and meet-in-the-middle search that also
//! reconstructs a witness — plus generators for planted YES and
//! (likely-)NO instances used by the reduction experiments.

use std::collections::HashMap;

/// A Partition instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionInstance {
    sizes: Vec<u64>,
}

/// Errors constructing a [`PartitionInstance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// `g` must be even (a subset of exactly `g/2` items is required).
    OddCount,
    /// All sizes must be strictly positive.
    ZeroSize {
        /// Index of the offending size.
        index: usize,
    },
    /// The instance must be non-empty.
    Empty,
}

impl core::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PartitionError::OddCount => write!(f, "number of sizes must be even"),
            PartitionError::ZeroSize { index } => {
                write!(f, "size at index {index} must be positive")
            }
            PartitionError::Empty => write!(f, "instance must contain at least two sizes"),
        }
    }
}

impl std::error::Error for PartitionError {}

impl PartitionInstance {
    /// Creates an instance, validating the Partition preconditions.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Empty`], [`PartitionError::OddCount`] or
    /// [`PartitionError::ZeroSize`].
    pub fn new(sizes: Vec<u64>) -> Result<PartitionInstance, PartitionError> {
        if sizes.is_empty() {
            return Err(PartitionError::Empty);
        }
        if !sizes.len().is_multiple_of(2) {
            return Err(PartitionError::OddCount);
        }
        for (index, &s) in sizes.iter().enumerate() {
            if s == 0 {
                return Err(PartitionError::ZeroSize { index });
            }
        }
        Ok(PartitionInstance { sizes })
    }

    /// The sizes.
    #[must_use]
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// Number of items `g`.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Total of all sizes.
    #[must_use]
    pub(crate) fn total(&self) -> u64 {
        self.sizes.iter().sum()
    }

    /// Decides the instance with a pseudo-polynomial dynamic program.
    ///
    /// `reach[s]` is a bitmask over cardinalities: bit `k` set means a
    /// subset of `k` items sums to `s`. Time `O(g·S)`, memory `O(S)`
    /// words. Requires `g <= 63` and odd totals trivially answer NO.
    ///
    /// # Panics
    ///
    /// Panics if `g > 63` (cardinality bitmask width).
    #[must_use]
    pub fn decide_dp(&self) -> bool {
        let g = self.len();
        assert!(g <= 63, "decide_dp supports at most 63 items");
        let total = self.total();
        if !total.is_multiple_of(2) {
            return false;
        }
        let half = (total / 2) as usize;
        let mut reach = vec![0u64; half + 1];
        reach[0] = 1; // empty subset: cardinality 0, sum 0
        for &s in &self.sizes {
            let s = s as usize;
            if s > half {
                continue;
            }
            for sum in (s..=half).rev() {
                let from = reach[sum - s];
                if from != 0 {
                    reach[sum] |= from << 1;
                }
            }
        }
        reach[half] & (1u64 << (g / 2)) != 0
    }

    /// Solves the instance by meet-in-the-middle, returning a witness
    /// subset (indices) of cardinality `g/2` summing to half the total,
    /// or `None`.
    ///
    /// Time/space `O(2^{g/2})`; practical to `g ≈ 40`.
    ///
    /// # Panics
    ///
    /// Panics if `g > 40`.
    #[must_use]
    pub fn solve(&self) -> Option<Vec<usize>> {
        let g = self.len();
        assert!(g <= 40, "solve supports at most 40 items");
        let total = self.total();
        if !total.is_multiple_of(2) {
            return None;
        }
        let half_sum = total / 2;
        let mid = g / 2;
        let (left, right) = self.sizes.split_at(mid);
        // Enumerate left-half subsets keyed by (count, sum).
        let mut table: HashMap<(usize, u64), u64> = HashMap::new();
        for mask in 0u64..(1 << left.len()) {
            let count = mask.count_ones() as usize;
            let sum: u64 = left
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &s)| s)
                .sum();
            table.entry((count, sum)).or_insert(mask);
        }
        for mask in 0u64..(1 << right.len()) {
            let count = mask.count_ones() as usize;
            if count > g / 2 {
                continue;
            }
            let sum: u64 = right
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &s)| s)
                .sum();
            if sum > half_sum {
                continue;
            }
            if let Some(&lmask) = table.get(&(g / 2 - count, half_sum - sum)) {
                let mut subset: Vec<usize> =
                    (0..left.len()).filter(|&i| lmask & (1 << i) != 0).collect();
                subset.extend(
                    (0..right.len())
                        .filter(|&i| mask & (1 << i) != 0)
                        .map(|i| i + mid),
                );
                return Some(subset);
            }
        }
        None
    }

    /// Checks a claimed witness.
    #[must_use]
    pub fn verify(&self, subset: &[usize]) -> bool {
        let g = self.len();
        if subset.len() != g / 2 {
            return false;
        }
        let mut seen = vec![false; g];
        let mut sum = 0u64;
        for &i in subset {
            if i >= g || seen[i] {
                return false;
            }
            seen[i] = true;
            sum += self.sizes[i];
        }
        2 * sum == self.total()
    }
}

/// Generates an instance guaranteed to be a YES instance: draws `g/2`
/// random sizes for one side, then builds the other side with the same
/// count and total.
///
/// # Panics
///
/// Panics if `g < 2` or `g` is odd.
pub fn planted_yes<R: rand::Rng>(rng: &mut R, g: usize, max_size: u64) -> PartitionInstance {
    assert!(
        g >= 2 && g.is_multiple_of(2),
        "g must be even and at least 2"
    );
    let half = g / 2;
    let max_size = max_size.max(2);
    let left: Vec<u64> = (0..half).map(|_| rng.gen_range(1..=max_size)).collect();
    let target: u64 = left.iter().sum();
    // Build the right side summing to `target`: random splits.
    let mut right = Vec::with_capacity(half);
    let mut remaining = target;
    for i in 0..half {
        let slots_left = (half - i - 1) as u64;
        // Keep at least 1 per remaining slot.
        let max_here = remaining - slots_left;
        let v = if i + 1 == half {
            remaining
        } else {
            rng.gen_range(1..=max_here.max(1))
        };
        right.push(v);
        remaining -= v;
    }
    let mut sizes = left;
    sizes.extend(right);
    PartitionInstance::new(sizes).expect("planted instance is valid")
}

/// Generates an instance that is almost surely a NO instance: random
/// sizes with an odd total (a certificate of infeasibility).
///
/// # Panics
///
/// Panics if `g < 2` or `g` is odd.
pub fn planted_no<R: rand::Rng>(rng: &mut R, g: usize, max_size: u64) -> PartitionInstance {
    assert!(
        g >= 2 && g.is_multiple_of(2),
        "g must be even and at least 2"
    );
    let max_size = max_size.max(2);
    let mut sizes: Vec<u64> = (0..g).map(|_| rng.gen_range(1..=max_size)).collect();
    if sizes.iter().sum::<u64>() % 2 == 0 {
        // Flip parity while keeping positivity.
        if sizes[0] > 1 {
            sizes[0] -= 1;
        } else {
            sizes[0] += 1;
        }
    }
    PartitionInstance::new(sizes).expect("generated instance is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn validation() {
        assert_eq!(PartitionInstance::new(vec![]), Err(PartitionError::Empty));
        assert_eq!(
            PartitionInstance::new(vec![1, 2, 3]),
            Err(PartitionError::OddCount)
        );
        assert_eq!(
            PartitionInstance::new(vec![1, 0]),
            Err(PartitionError::ZeroSize { index: 1 })
        );
        assert!(PartitionInstance::new(vec![1, 1]).is_ok());
    }

    #[test]
    fn tiny_yes_and_no() {
        let yes = PartitionInstance::new(vec![3, 1, 2, 2]).unwrap();
        assert!(yes.decide_dp());
        let w = yes.solve().unwrap();
        assert!(yes.verify(&w));
        // {3,1} vs {2,2}: both cardinality 2, both sum 4.
        let no = PartitionInstance::new(vec![5, 1, 1, 1]).unwrap();
        assert!(!no.decide_dp());
        assert!(no.solve().is_none());
    }

    #[test]
    fn cardinality_constraint_matters() {
        // Equal-sum subsets exist ({6},{1,2,3}) but not with equal
        // cardinality: the Partition variant used by the paper requires
        // |P| = g/2.
        let inst = PartitionInstance::new(vec![6, 1, 2, 3]).unwrap();
        assert!(!inst.decide_dp());
        assert!(inst.solve().is_none());
    }

    #[test]
    fn solvers_agree_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(1234);
        for g in [4usize, 6, 8, 10, 12] {
            for _ in 0..50 {
                let sizes: Vec<u64> = (0..g).map(|_| rng.gen_range(1..=30)).collect();
                let inst = PartitionInstance::new(sizes).unwrap();
                let dp = inst.decide_dp();
                let mim = inst.solve();
                assert_eq!(dp, mim.is_some(), "{:?}", inst.sizes());
                if let Some(w) = mim {
                    assert!(inst.verify(&w));
                }
            }
        }
    }

    #[test]
    fn planted_yes_is_yes() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..30 {
            let inst = planted_yes(&mut rng, 10, 50);
            assert!(inst.decide_dp(), "{:?}", inst.sizes());
        }
    }

    #[test]
    fn planted_no_is_no() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..30 {
            let inst = planted_no(&mut rng, 10, 50);
            assert_eq!(inst.total() % 2, 1);
            assert!(!inst.decide_dp());
        }
    }

    #[test]
    fn verify_rejects_bad_witnesses() {
        let inst = PartitionInstance::new(vec![3, 1, 2, 2]).unwrap();
        assert!(!inst.verify(&[0]));
        assert!(!inst.verify(&[0, 0]));
        assert!(!inst.verify(&[0, 9]));
        assert!(!inst.verify(&[0, 2])); // 3 + 2 = 5 != 4
        assert!(inst.verify(&[0, 1])); // 3 + 1 = 4
    }
}
