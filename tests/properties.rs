//! Cross-crate property-based tests (proptest).

use conference_call::pager::optimal::optimal_subset_dp;
use conference_call::pager::{bounds, greedy_strategy_planned};
use conference_call::prelude::*;
use proptest::prelude::*;
// `conference_call::Strategy` (the paging strategy) collides with
// `proptest::strategy::Strategy` (the generator trait) under glob
// imports; name the struct explicitly and bring the trait's methods
// in anonymously.
use conference_call::pager::Strategy;
use proptest::strategy::Strategy as _;

/// A strategy for generating valid probability rows of length `c`.
fn row_strategy(c: usize) -> impl proptest::strategy::Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1u32..1000, c).prop_map(|weights| {
        let total: f64 = weights.iter().map(|&w| f64::from(w)).sum();
        weights.into_iter().map(|w| f64::from(w) / total).collect()
    })
}

fn instance_strategy(
    m: core::ops::Range<usize>,
    c: core::ops::Range<usize>,
) -> impl proptest::strategy::Strategy<Value = Instance> {
    (m, c).prop_flat_map(|(m, c)| {
        proptest::collection::vec(row_strategy(c), m)
            .prop_map(|rows| Instance::from_rows(rows).expect("rows are valid"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// EP of any strategy lies in [|S_1|, c]; the greedy heuristic's EP
    /// lies between the optimum and e/(e−1) times the optimum.
    #[test]
    fn greedy_within_factor(inst in instance_strategy(1..4, 4..9), d in 2usize..4) {
        let d = d.min(inst.num_cells());
        let delay = Delay::new(d).unwrap();
        let heur = greedy_strategy_planned(&inst, delay);
        let opt = optimal_subset_dp(&inst, delay).unwrap();
        let c = inst.num_cells() as f64;
        prop_assert!(heur.expected_paging <= c + 1e-9);
        prop_assert!(heur.expected_paging >= heur.strategy.group(0).len() as f64 - 1e-9);
        prop_assert!(heur.expected_paging >= opt.expected_paging - 1e-9);
        prop_assert!(heur.expected_paging <= bounds::e_over_e_minus_1() * opt.expected_paging + 1e-9);
    }

    /// Lemma 2.1 closed form equals the direct expectation for random
    /// strategies over random instances.
    #[test]
    fn closed_form_equals_direct(inst in instance_strategy(1..4, 3..9), seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let c = inst.num_cells();
        let mut order: Vec<usize> = (0..c).collect();
        for i in (1..c).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let rounds = rng.gen_range(1..=c);
        let mut sizes = vec![1usize; rounds];
        for _ in 0..c - rounds {
            let k = rng.gen_range(0..rounds);
            sizes[k] += 1;
        }
        let strategy = Strategy::from_order_and_sizes(&order, &sizes).unwrap();
        let a = inst.expected_paging(&strategy).unwrap();
        let b = inst.expected_paging_direct(&strategy).unwrap();
        prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    /// More delay never hurts: greedy EP is non-increasing in d.
    #[test]
    fn ep_monotone_in_delay(inst in instance_strategy(1..4, 4..10)) {
        let mut last = f64::INFINITY;
        for d in 1..=inst.num_cells().min(6) {
            let plan = greedy_strategy_planned(&inst, Delay::new(d).unwrap());
            prop_assert!(plan.expected_paging <= last + 1e-9, "d={d}");
            last = plan.expected_paging;
        }
    }

    /// Splitting any group of any strategy never increases EP
    /// (the Section 2 claim behind "optimal length is exactly d").
    #[test]
    fn splitting_a_group_never_hurts(inst in instance_strategy(1..3, 4..8), seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let c = inst.num_cells();
        // A two-group strategy split at a random point of a random order.
        let mut order: Vec<usize> = (0..c).collect();
        for i in (1..c).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let cut = rng.gen_range(1..c);
        let base = Strategy::from_order_and_sizes(&order, &[cut, c - cut]).unwrap();
        let base_ep = inst.expected_paging(&base).unwrap();
        // Split the second group (if splittable).
        if c - cut >= 2 {
            let cut2 = rng.gen_range(1..c - cut);
            let refined =
                Strategy::from_order_and_sizes(&order, &[cut, cut2, c - cut - cut2]).unwrap();
            let refined_ep = inst.expected_paging(&refined).unwrap();
            prop_assert!(refined_ep <= base_ep + 1e-9, "{refined_ep} vs {base_ep}");
        }
    }

    /// The exact evaluation agrees with f64 to floating-point accuracy.
    #[test]
    fn exact_matches_float(inst in instance_strategy(1..3, 3..7)) {
        let exact = inst.to_exact();
        let c = inst.num_cells();
        let strategy = Strategy::from_order_and_sizes(
            &(0..c).collect::<Vec<_>>(),
            &[c.div_ceil(2), c / 2],
        ).unwrap();
        let f = inst.expected_paging(&strategy).unwrap();
        let e = exact.expected_paging(&strategy).unwrap();
        prop_assert!((f - e.to_f64()).abs() < 1e-6);
    }

    /// Monte-Carlo simulation converges to Lemma 2.1 (loose bound at
    /// modest trial counts keeps the property fast).
    #[test]
    fn simulation_converges(inst in instance_strategy(1..3, 4..8), seed in any::<u64>()) {
        let c = inst.num_cells();
        let strategy = Strategy::from_order_and_sizes(
            &(0..c).collect::<Vec<_>>(),
            &[c.div_ceil(2), c / 2],
        ).unwrap();
        let analytic = inst.expected_paging(&strategy).unwrap();
        let report = conference_call::pager::simulation::simulate(&inst, &strategy, 20_000, seed).unwrap();
        // 20k trials of a variable bounded by c: CLT gives ~3σ ≈
        // 3·c/√20000 < 0.2 for c ≤ 8.
        prop_assert!((report.mean_cells_paged - analytic).abs() < 0.25,
            "simulated {} vs analytic {analytic}", report.mean_cells_paged);
    }

    /// The assignment constructor agrees with validation: it yields
    /// `None` exactly when a round in `0..=max` has no cell, and
    /// otherwise the strategy `Strategy::new` accepts for the same
    /// groups, which `round_of_cell` maps back to the assignment.
    #[test]
    fn assignment_constructor_matches_validation(
        rounds in proptest::collection::vec(0usize..5, 0..9),
    ) {
        let groups: Vec<Vec<usize>> = (0..rounds.iter().max().map_or(0, |&r| r + 1))
            .map(|r| (0..rounds.len()).filter(|&j| rounds[j] == r).collect())
            .collect();
        let built = Strategy::from_assignment(&rounds);
        let has_empty_round = groups.is_empty() || groups.iter().any(Vec::is_empty);
        prop_assert_eq!(built.is_none(), has_empty_round);
        if let Ok(valid) = Strategy::new(groups) {
            prop_assert_eq!(valid.round_of_cell(), rounds);
            prop_assert_eq!(built, Some(valid));
        }
    }

    /// The order + sizes constructor agrees with validation on random
    /// splits of random cell orders, some perturbed into non-partitions:
    /// whenever the validating constructor accepts, `Strategy::cut`
    /// builds the same strategy.
    #[test]
    fn cut_matches_validation(c in 1usize..9, seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..c).collect();
        for i in (1..c).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        // Positive sizes summing to c: each later cell opens a new
        // round with odds 2/5.
        let mut sizes = vec![1usize];
        for _ in 1..c {
            if rng.gen_bool(0.4) { sizes.push(1) } else { *sizes.last_mut().unwrap() += 1 }
        }
        let (bad_order, bad_sizes) = (rng.gen_bool(0.3), rng.gen_bool(0.3));
        if bad_order {
            order[rng.gen_range(0..c)] = rng.gen_range(0..c + 2);
        }
        if bad_sizes {
            let at = rng.gen_range(0..sizes.len());
            sizes[at] = rng.gen_range(0..=c);
        }
        match Strategy::from_order_and_sizes(&order, &sizes) {
            Ok(valid) => prop_assert_eq!(Strategy::cut(&order, &sizes), valid),
            Err(e) => prop_assert!(bad_order || bad_sizes, "valid split rejected: {e}"),
        }
    }
}
