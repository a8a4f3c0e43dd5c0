//! Heterogeneous-device instances: each device drawn from a different
//! distribution family.
//!
//! Real conference-call parties are rarely homogeneous — an office
//! worker (hotspot), a courier (near-uniform), a commuter (Gaussian
//! along a corridor). Mixing families stresses the heuristic's single
//! shared cell order harder than any one family does.

use crate::families::{DistributionFamily, InstanceGenerator};
use pager_core::Instance;
use rand::Rng;

/// Builds an instance whose device `i` is drawn from `families[i]`.
///
/// # Panics
///
/// Panics if `families` is empty or `c == 0`.
pub(crate) fn mixed_instance<R: Rng>(
    families: &[DistributionFamily],
    c: usize,
    rng: &mut R,
) -> Instance {
    assert!(!families.is_empty(), "need at least one device family");
    assert!(c > 0, "need at least one cell");
    let rows: Vec<Vec<f64>> = families
        .iter()
        .map(|&f| InstanceGenerator::new(f).generate_row(c, rng))
        .collect();
    Instance::from_rows(rows).expect("family rows are valid")
}

/// Draws `m` random families (with repetition) and builds a mixed
/// instance from them; returns the chosen families for reporting.
///
/// # Panics
///
/// Panics if `m == 0` or `c == 0`.
pub fn random_mix<R: Rng>(m: usize, c: usize, rng: &mut R) -> (Vec<DistributionFamily>, Instance) {
    assert!(m > 0, "need at least one device");
    let all = DistributionFamily::ALL;
    let families: Vec<DistributionFamily> =
        (0..m).map(|_| all[rng.gen_range(0..all.len())]).collect();
    let instance = mixed_instance(&families, c, rng);
    (families, instance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mixed_rows_come_from_their_families() {
        let mut rng = StdRng::seed_from_u64(5);
        let inst = mixed_instance(
            &[DistributionFamily::Uniform, DistributionFamily::Hotspot],
            12,
            &mut rng,
        );
        assert_eq!(inst.num_devices(), 2);
        // Row 0 is uniform.
        for j in 0..12 {
            assert!((inst.prob(0, j) - 1.0 / 12.0).abs() < 1e-12);
        }
        // Row 1 is concentrated.
        let mut sorted: Vec<f64> = (0..12).map(|j| inst.prob(1, j)).collect();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert!(sorted[0] + sorted[1] > 0.5);
    }

    #[test]
    fn random_mix_reports_families() {
        let mut rng = StdRng::seed_from_u64(6);
        let (families, inst) = random_mix(4, 8, &mut rng);
        assert_eq!(families.len(), 4);
        assert_eq!(inst.num_devices(), 4);
        assert_eq!(inst.num_cells(), 8);
    }

    #[test]
    fn mixes_are_plannable() {
        use pager_core::{greedy_strategy_planned, Delay};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let (_, inst) = random_mix(3, 10, &mut rng);
            let plan = greedy_strategy_planned(&inst, Delay::new(3).unwrap());
            assert!(plan.expected_paging <= 10.0);
            assert!(plan.expected_paging >= 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one device family")]
    fn empty_mix_rejected() {
        let mut rng = StdRng::seed_from_u64(8);
        let _ = mixed_instance(&[], 4, &mut rng);
    }
}
