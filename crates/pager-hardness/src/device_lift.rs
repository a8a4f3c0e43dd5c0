//! The Section 5 alternative hardness argument: solving
//! `(c + 1, m, d + 1)` solves `(c, 2, d)`.
//!
//! Add one extra cell; give each of `m − 2` new devices probability 1
//! of being in it; scale the two original devices' rows by `1 − a` and
//! give them probability `a` in the extra cell, with
//! `a ≥ 1 − 1/c²`. All devices are then located in the extra cell with
//! overwhelming probability, so an optimal strategy pages only the
//! extra cell in its first round and continues with an optimal
//! `(c, 2, d)` strategy for the original instance.

use pager_core::{Delay, Instance};
use rational::Ratio;

/// Lifts a two-device instance to `m ≥ 2` devices with one extra cell
/// (placed at the *last* index `c`).
///
/// # Panics
///
/// Panics if `instance` does not have exactly two devices, if `m < 2`,
/// or if `a < 1 − 1/c²` or `a >= 1`.
#[must_use]
pub fn lift_instance(instance: &Instance<Ratio>, m: usize, a: &Ratio) -> Instance<Ratio> {
    assert_eq!(
        instance.num_devices(),
        2,
        "the lift starts from a two-device instance"
    );
    assert!(m >= 2, "the lift targets m >= 2 devices");
    let c = instance.num_cells();
    let threshold = &Ratio::one() - &Ratio::from_fraction(1, (c * c) as i64);
    assert!(
        *a >= threshold && *a < Ratio::one(),
        "need 1 - 1/c^2 <= a < 1"
    );
    let keep = &Ratio::one() - a;
    let mut rows: Vec<Vec<Ratio>> = Vec::with_capacity(m);
    for device in 0..2 {
        let mut row: Vec<Ratio> = (0..c).map(|j| instance.prob(device, j) * &keep).collect();
        row.push(a.clone());
        rows.push(row);
    }
    for _ in 2..m {
        let mut row = vec![Ratio::zero(); c];
        row.push(Ratio::one());
        rows.push(row);
    }
    Instance::from_rows(rows).expect("lifted rows are valid")
}

/// The canonical `a` for the lift: `1 − 1/c²`.
#[must_use]
pub fn canonical_a(c: usize) -> Ratio {
    &Ratio::one() - &Ratio::from_fraction(1, (c * c) as i64)
}

/// Extracts a `(c, 2, d)`-strategy from a lifted-instance strategy that
/// pages the extra cell alone in round 1: drops the first group and
/// re-indexes. Returns `None` when the strategy does not have that
/// shape.
#[must_use]
pub fn project_strategy(lifted: &pager_core::Strategy, c: usize) -> Option<pager_core::Strategy> {
    if lifted.rounds() < 2 || lifted.group(0) != [c] {
        return None;
    }
    let groups: Vec<Vec<usize>> = lifted.groups()[1..].to_vec();
    pager_core::Strategy::new(groups).ok()
}

/// Verifies the lift on a small instance: the exact optimal strategy of
/// the lifted `(c+1, m, d+1)` instance pages the extra cell alone in
/// round 1, and its projection achieves the optimal `(c, 2, d)`
/// expected paging.
///
/// Returns `(lifted_optimal_ep, projected_ep, original_optimal_ep)`.
///
/// # Panics
///
/// Panics on instances too large for the exhaustive solver.
#[must_use]
pub fn verify_lift(instance: &Instance<Ratio>, m: usize, d: usize) -> (Ratio, Ratio, Ratio) {
    let c = instance.num_cells();
    let a = canonical_a(c);
    let lifted = lift_instance(instance, m, &a);
    let lifted_opt =
        pager_core::optimal::optimal_exhaustive(&lifted, Delay::new(d + 1).expect("d + 1 >= 1"))
            .expect("lifted instance solvable");
    let projected = project_strategy(&lifted_opt.strategy, c)
        .expect("optimal lifted strategy pages the extra cell first");
    let projected_ep = instance
        .expected_paging(&projected)
        .expect("projection matches the original instance");
    let original_opt =
        pager_core::optimal::optimal_exhaustive(instance, Delay::new(d).expect("d >= 1"))
            .expect("original instance solvable");
    (
        lifted_opt.expected_paging,
        projected_ep,
        original_opt.expected_paging,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_two_device() -> Instance<Ratio> {
        Instance::from_rows(vec![
            vec![
                Ratio::from_fraction(1, 2),
                Ratio::from_fraction(1, 4),
                Ratio::from_fraction(1, 8),
                Ratio::from_fraction(1, 8),
            ],
            vec![
                Ratio::from_fraction(1, 8),
                Ratio::from_fraction(1, 8),
                Ratio::from_fraction(1, 4),
                Ratio::from_fraction(1, 2),
            ],
        ])
        .unwrap()
    }

    #[test]
    fn lift_shape() {
        let inst = small_two_device();
        let lifted = lift_instance(&inst, 4, &canonical_a(4));
        assert_eq!(lifted.num_devices(), 4);
        assert_eq!(lifted.num_cells(), 5);
        // New devices are deterministic in the extra cell.
        assert_eq!(lifted.prob(2, 4), &Ratio::one());
        assert_eq!(lifted.prob(3, 4), &Ratio::one());
        assert_eq!(lifted.prob(2, 0), &Ratio::zero());
        // Originals are scaled: p'(0,0) = (1/2)(1 − a) = (1/2)(1/16).
        assert_eq!(lifted.prob(0, 4), &canonical_a(4));
        assert_eq!(lifted.prob(0, 0), &Ratio::from_fraction(1, 32));
    }

    #[test]
    fn lift_guards() {
        let inst = small_two_device();
        let too_small = Ratio::from_fraction(1, 2);
        let result = std::panic::catch_unwind(|| lift_instance(&inst, 3, &too_small));
        assert!(result.is_err(), "a below the threshold must panic");
    }

    #[test]
    fn optimal_lifted_pages_extra_cell_first() {
        let inst = small_two_device();
        for m in [2usize, 3] {
            let (lifted_ep, projected_ep, original_ep) = verify_lift(&inst, m, 2);
            // The projection of the lifted optimum is optimal for the
            // original problem.
            assert_eq!(
                projected_ep, original_ep,
                "m={m}: projected {projected_ep:?} vs original {original_ep:?}"
            );
            // The lifted optimum pays the extra cell first:
            // EP_lift = 1 + (1 − Pr[all in extra])·(projected cost shape);
            // sanity: it is at least 1 and at most 1 + c·(1 − a_small).
            assert!(lifted_ep >= Ratio::one());
            assert!(lifted_ep < Ratio::from_fraction(3, 2));
        }
    }
}
