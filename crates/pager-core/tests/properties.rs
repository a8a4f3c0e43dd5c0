//! Property-based tests for `pager-core` internals.

use pager_core::dp::{conference_stop_probs, optimal_split};
use pager_core::signature::at_least_k_prob;
use pager_core::{fig1, greedy_strategy_planned, Delay, Instance, Strategy};
use proptest::prelude::*;
use proptest::strategy::Strategy as _;

fn instance(m: usize, c: usize) -> impl proptest::strategy::Strategy<Value = Instance> {
    proptest::collection::vec(proptest::collection::vec(1u32..500, c), m).prop_map(|rows| {
        let rows = rows
            .into_iter()
            .map(|w| {
                let total: f64 = w.iter().map(|&x| f64::from(x)).sum();
                w.into_iter().map(|x| f64::from(x) / total).collect()
            })
            .collect();
        Instance::from_rows(rows).expect("valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The Poisson-binomial tail matches brute-force enumeration.
    #[test]
    fn poisson_binomial_tail_matches_brute_force(
        probs in proptest::collection::vec(0.0f64..1.0, 1..7),
        k in 0usize..8,
    ) {
        let m = probs.len();
        let mut by_count = vec![0.0f64; m + 1];
        for mask in 0u32..(1 << m) {
            let mut pr = 1.0;
            let mut cnt = 0usize;
            for (i, &p) in probs.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    pr *= p;
                    cnt += 1;
                } else {
                    pr *= 1.0 - p;
                }
            }
            by_count[cnt] += pr;
        }
        let expect: f64 = by_count.iter().skip(k.min(m + 1)).sum();
        let expect = if k > m { 0.0 } else { expect };
        let got = at_least_k_prob(&probs, k);
        prop_assert!((got - expect).abs() < 1e-9, "k={k}: {got} vs {expect}");
    }

    /// The split DP beats (or ties) every random composition.
    #[test]
    fn optimal_split_dominates_random_compositions(
        g_raw in proptest::collection::vec(0u32..1000, 3..10),
        d in 1usize..5,
        seed in any::<u64>(),
    ) {
        // Build a non-decreasing stop-probability vector ending at 1.
        let mut g: Vec<f64> = vec![0.0];
        let total: f64 = g_raw.iter().map(|&x| f64::from(x) + 1.0).sum();
        let mut acc = 0.0;
        for &x in &g_raw {
            acc += (f64::from(x) + 1.0) / total;
            g.push(acc.min(1.0));
        }
        let c = g.len() - 1;
        let d = d.min(c);
        let best = optimal_split(&g, d, None).expect("feasible");
        // A random composition of c into d parts.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sizes = vec![1usize; d];
        for _ in 0..c - d {
            let k = rng.gen_range(0..d);
            sizes[k] += 1;
        }
        let mut prefix = 0usize;
        let mut savings = 0.0;
        for r in 0..d - 1 {
            prefix += sizes[r];
            savings += sizes[r + 1] as f64 * g[prefix];
        }
        prop_assert!(best.savings >= savings - 1e-9);
    }

    /// Fig. 1 and the prefix-savings engine agree on every instance.
    #[test]
    fn fig1_equals_prefix_engine(inst in (1usize..4, 3usize..9).prop_flat_map(|(m, c)| instance(m, c)), d in 1usize..5) {
        let d = d.min(inst.num_cells());
        let delay = Delay::new(d).unwrap();
        let a = fig1::approximation(&inst, delay);
        let b = greedy_strategy_planned(&inst, delay);
        prop_assert!((a.expected_paging - b.expected_paging).abs() < 1e-9,
            "fig1 {} vs dp {}", a.expected_paging, b.expected_paging);
        // And the fig1 strategy really achieves its reported EP.
        let s = a.to_strategy().unwrap();
        let ep = inst.expected_paging(&s).unwrap();
        prop_assert!((ep - a.expected_paging).abs() < 1e-9);
    }

    /// Exact (rational) greedy agrees with the float greedy on
    /// instances whose probabilities are exactly representable.
    #[test]
    fn exact_greedy_matches_float(weights in proptest::collection::vec(
        proptest::collection::vec(1u32..64, 6), 1..3)) {
        use rational::Ratio;
        // Denominator 2^k grid so f64 conversion is exact.
        let rows_exact: Vec<Vec<Ratio>> = weights
            .iter()
            .map(|w| {
                let total: i64 = w.iter().map(|&x| i64::from(x)).sum();
                w.iter().map(|&x| Ratio::from_fraction(i64::from(x), total)).collect()
            })
            .collect();
        let exact = pager_core::Instance::from_rows(rows_exact).unwrap();
        let float = exact.to_f64();
        for d in [2usize, 3] {
            let delay = Delay::new(d).unwrap();
            let e = pager_core::greedy_strategy_planned(&exact, delay);
            let f = greedy_strategy_planned(&float, delay);
            prop_assert!((e.expected_paging.to_f64() - f.expected_paging).abs() < 1e-6,
                "d={d}: exact {} vs float {}", e.expected_paging.to_f64(), f.expected_paging);
        }
    }

    /// Stop probabilities are monotone in the prefix and end at 1.
    #[test]
    fn stop_probs_monotone(inst in (1usize..5, 2usize..10).prop_flat_map(|(m, c)| instance(m, c))) {
        let order = inst.cells_by_weight_desc();
        let rows: Vec<&[f64]> = inst.rows().collect();
        let g = conference_stop_probs(&rows, &order);
        prop_assert_eq!(g.len(), inst.num_cells() + 1);
        for w in g.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12);
        }
        prop_assert!((g[inst.num_cells()] - 1.0).abs() < 1e-9);
    }

    /// Strategy validation accepts exactly the partitions.
    #[test]
    fn strategy_validation_sound(perm_seed in any::<u64>(), c in 2usize..10, rounds in 1usize..5) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(perm_seed);
        let rounds = rounds.min(c);
        let mut cells: Vec<usize> = (0..c).collect();
        for i in (1..c).rev() {
            let j = rng.gen_range(0..=i);
            cells.swap(i, j);
        }
        let mut sizes = vec![1usize; rounds];
        for _ in 0..c - rounds {
            let k = rng.gen_range(0..rounds);
            sizes[k] += 1;
        }
        let ok = Strategy::from_order_and_sizes(&cells, &sizes);
        prop_assert!(ok.is_ok());
        // Corrupt: duplicate a cell.
        let mut dup = cells.clone();
        dup[0] = dup[c - 1];
        prop_assert!(Strategy::from_order_and_sizes(&dup, &sizes).is_err());
    }
}
