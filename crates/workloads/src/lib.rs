//! Workload generators for the Conference Call experiments.
//!
//! Every experiment in EXPERIMENTS.md draws instances from the families
//! defined here. All generators are seeded and deterministic, and all
//! produce valid [`pager_core::Instance`] values (positive rows summing
//! to one within tolerance).

#![forbid(unsafe_code)]
// Index-based loops are the clearer idiom in limb- and DP-style
// arithmetic where several arrays are co-indexed.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod correlated;
mod families;
pub mod mixer;

pub use families::{DistributionFamily, InstanceGenerator};

#[cfg(test)]
mod tests {
    use super::*;
    use pager_core::Instance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_families_produce_valid_instances() {
        let mut rng = StdRng::seed_from_u64(1);
        for family in DistributionFamily::ALL {
            let gen = InstanceGenerator::new(*family);
            for (m, c) in [(1usize, 4usize), (2, 8), (3, 12), (5, 20)] {
                let inst: Instance = gen.generate(m, c, &mut rng);
                assert_eq!(inst.num_devices(), m, "{family:?}");
                assert_eq!(inst.num_cells(), c, "{family:?}");
            }
        }
    }
}
