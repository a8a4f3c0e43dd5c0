//! The Section 4.3 lower-bound instance.
//!
//! With `m = 2` devices, `c = 8` cells and delay `d = 2`, let
//! `p_{1,1} = 2/7`, `p_{2,1} = p_{1,7} = p_{1,8} = 0` and every other
//! probability `1/7`. The optimal two-round strategy pages cells
//! `2..6` (1-based) first and achieves expected paging `317/49`; the
//! weight-order heuristic pages cells `1..5` first and achieves
//! `320/49`. This certifies the `320/317` lower bound on the heuristic's
//! performance ratio.
//!
//! The paper also notes the bound survives breaking ties properly: an
//! `ε`-perturbation forces the heuristic's choice without relying on tie
//! breaking, and only slightly moves the ratio. [`perturbed_exact`]
//! implements that perturbation exactly.

use crate::instance::Instance;
use rational::Ratio;

/// Number of devices in the instance.
#[cfg(test)]
const M: usize = 2;
/// Number of cells in the instance.
#[cfg(test)]
const C: usize = 8;
/// Delay bound of the instance.
#[cfg(test)]
const D: usize = 2;

/// The instance over exact rationals.
///
/// # Panics
///
/// Never panics: the construction is statically valid.
#[must_use]
pub fn instance_exact() -> Instance<Ratio> {
    let f = |n: i64| Ratio::from_fraction(n, 7);
    // Device 1: 2/7 in cell 1, 1/7 in cells 2..6, 0 in cells 7, 8.
    let row1 = vec![f(2), f(1), f(1), f(1), f(1), f(1), f(0), f(0)];
    // Device 2: 0 in cell 1, 1/7 in cells 2..8.
    let row2 = vec![f(0), f(1), f(1), f(1), f(1), f(1), f(1), f(1)];
    // lint:allow(no-unwrap-outside-tests): paper-constant rows; each
    // sums to exactly 7/7 and every entry is a non-negative seventh.
    Instance::from_rows(vec![row1, row2]).expect("the Section 4.3 instance is valid")
}

/// The instance over `f64`.
///
/// # Panics
///
/// Never panics: the construction is statically valid.
#[must_use]
pub fn instance_f64() -> Instance {
    instance_exact().to_f64()
}

/// The optimal two-round expected paging, `317/49`.
#[must_use]
pub fn optimal_ep() -> Ratio {
    Ratio::from_fraction(317, 49)
}

/// The heuristic's two-round expected paging, `320/49`.
#[must_use]
pub fn heuristic_ep() -> Ratio {
    Ratio::from_fraction(320, 49)
}

/// The resulting performance-ratio lower bound, `320/317`.
#[must_use]
pub fn ratio() -> Ratio {
    Ratio::from_fraction(320, 317)
}

/// The optimal strategy: page cells `2..6` (0-based `1..=5`) first.
#[must_use]
pub fn optimal_strategy() -> crate::strategy::Strategy {
    crate::strategy::Strategy::cut(&[1, 2, 3, 4, 5, 0, 6, 7], &[5, 3])
}

/// An `ε`-perturbed, strictly-positive variant that forces the heuristic
/// to page cells `1..5` first *without* relying on tie breaking, as the
/// paper sketches at the end of Section 4.3.
///
/// The perturbation moves `ε` of device 1's mass from each of cells
/// `2..6` onto cell 1 (making cell 1 strictly heaviest), and gives both
/// devices `ε'` mass in the cells where they had zero (preserving row
/// sums and keeping every probability positive).
///
/// # Panics
///
/// Panics if `denom < 200` — the perturbation `1/denom` must be small
/// enough to keep all entries positive and the ordering intact.
#[must_use]
pub fn perturbed_exact(denom: i64) -> Instance<Ratio> {
    assert!(denom >= 200, "perturbation 1/{denom} too large");
    let eps = Ratio::from_fraction(1, denom);
    let f = |n: i64| Ratio::from_fraction(n, 7);
    // Device 1: add 5ε to cell 1, subtract ε from cells 2..6; then give
    // cells 7 and 8 mass ε each, paid for by cell 1.
    let mut row1 = vec![
        &(&f(2) + &(&Ratio::from(5i64) * &eps)) - &(&Ratio::from(2i64) * &eps),
        &f(1) - &eps,
        &f(1) - &eps,
        &f(1) - &eps,
        &f(1) - &eps,
        &f(1) - &eps,
        eps.clone(),
        eps.clone(),
    ];
    // Device 2: give cell 1 mass ε, paid for evenly by cells 2..8.
    let seven_eps = &eps / &Ratio::from(7i64);
    let mut row2 = vec![eps.clone()];
    for _ in 0..7 {
        row2.push(&f(1) - &seven_eps);
    }
    // Normalise rounding: rows already sum to exactly one by
    // construction; assert it.
    let s1: Ratio = row1.iter().sum();
    let s2: Ratio = row2.iter().sum();
    assert_eq!(s1, Ratio::one(), "row 1 must sum to 1");
    assert_eq!(s2, Ratio::one(), "row 2 must sum to 1");
    // All entries positive?
    for p in row1.iter_mut().chain(row2.iter_mut()) {
        assert!(p.is_positive(), "perturbed probability must be positive");
    }
    // lint:allow(no-unwrap-outside-tests): the asserts directly above
    // re-verify exactly what `from_rows` checks (row sums of one,
    // positive entries), so failure here is unreachable.
    Instance::from_rows(vec![row1, row2]).expect("perturbed instance is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_strategy_planned;
    use crate::instance::Delay;

    #[test]
    fn instance_shape() {
        let e = instance_exact();
        assert_eq!(e.num_devices(), M);
        assert_eq!(e.num_cells(), C);
        assert_eq!(e.prob(0, 0), &Ratio::from_fraction(2, 7));
        assert_eq!(e.prob(1, 0), &Ratio::zero());
        assert_eq!(e.prob(0, 6), &Ratio::zero());
        assert_eq!(e.prob(0, 7), &Ratio::zero());
    }

    #[test]
    fn optimal_strategy_achieves_317_49() {
        let e = instance_exact();
        let ep = e.expected_paging(&optimal_strategy()).unwrap();
        assert_eq!(ep, optimal_ep());
    }

    #[test]
    fn heuristic_achieves_320_49() {
        let e = instance_exact();
        let plan = greedy_strategy_planned(&e, Delay::new(D).unwrap());
        assert_eq!(plan.expected_paging, heuristic_ep());
        // And the heuristic's first group is cells 0..=4.
        let mut first = plan.strategy.group(0).to_vec();
        first.sort_unstable();
        assert_eq!(first, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ratio_is_exactly_320_317() {
        assert_eq!(&heuristic_ep() / &optimal_ep(), ratio());
    }

    #[test]
    fn optimal_is_truly_optimal() {
        // Exhaustive check over all 2^8 − 2 two-round strategies: no
        // strategy beats 317/49.
        let e = instance_exact();
        let c = C;
        let mut best = Ratio::from(c);
        for mask in 1u32..((1 << c) - 1) {
            let first: Vec<usize> = (0..c).filter(|&j| mask & (1 << j) != 0).collect();
            let second: Vec<usize> = (0..c).filter(|&j| mask & (1 << j) == 0).collect();
            let s = crate::strategy::Strategy::new(vec![first, second]).unwrap();
            let ep = e.expected_paging(&s).unwrap();
            if ep < best {
                best = ep;
            }
        }
        assert_eq!(best, optimal_ep());
    }

    #[test]
    fn perturbed_instance_valid_and_positive() {
        let p = perturbed_exact(1000);
        for row in p.rows() {
            for v in row {
                assert!(v.is_positive());
            }
            let s: Ratio = row.iter().sum();
            assert_eq!(s, Ratio::one());
        }
    }

    #[test]
    fn perturbed_heuristic_still_picks_cell_one_first() {
        let p = perturbed_exact(10_000);
        // Cell 0 now has strictly the largest weight.
        let order = p.cells_by_weight_desc();
        assert_eq!(order[0], 0);
        let plan = greedy_strategy_planned(&p, Delay::new(2).unwrap());
        let mut first = plan.strategy.group(0).to_vec();
        first.sort_unstable();
        assert_eq!(first, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn perturbed_ratio_close_to_320_317() {
        let p = perturbed_exact(100_000);
        let plan = greedy_strategy_planned(&p, Delay::new(2).unwrap());
        // Exhaustive optimal on the perturbed instance.
        let mut best = Ratio::from(C);
        for mask in 1u32..((1 << C) - 1) {
            let first: Vec<usize> = (0..C).filter(|&j| mask & (1 << j) != 0).collect();
            let second: Vec<usize> = (0..C).filter(|&j| mask & (1 << j) == 0).collect();
            let s = crate::strategy::Strategy::new(vec![first, second]).unwrap();
            let ep = p.expected_paging(&s).unwrap();
            if ep < best {
                best = ep;
            }
        }
        let ratio_perturbed = &plan.expected_paging / &best;
        let target = ratio().to_f64();
        assert!(
            (ratio_perturbed.to_f64() - target).abs() < 1e-3,
            "perturbed ratio {} vs 320/317 = {target}",
            ratio_perturbed.to_f64()
        );
        assert!(ratio_perturbed.to_f64() > 1.0);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn perturbation_guard() {
        let _ = perturbed_exact(100);
    }
}
