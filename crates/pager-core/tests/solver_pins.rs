//! Output pins for every solver: on seeded small instances, each
//! solver's strategy (`Display` form) and the exact bits of its
//! expected paging must match `tests/solver_pins.txt`. The instances
//! use small integer weights, so cells and strategies tie often, and a
//! change that flips a tie shows up here even when the optimum's value
//! does not move.

use pager_core::bandwidth::greedy_strategy_bounded;
use pager_core::cell_types::optimal_by_types;
use pager_core::optimal::{optimal_exhaustive, optimal_subset_dp, optimal_two_round_exact};
use pager_core::signature::{greedy_signature, optimal_signature_exhaustive};
use pager_core::yellow_pages::optimal_yellow_exhaustive;
use pager_core::{greedy_strategy_planned, Delay, Instance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn instances() -> Vec<Instance> {
    let mut rng = StdRng::seed_from_u64(2002);
    let mut out: Vec<Instance> = [(1, 5), (2, 6), (3, 4)]
        .iter()
        .map(|&(m, c)| Instance::uniform(m, c).unwrap())
        .collect();
    for _ in 0..9 {
        let (m, c) = (rng.gen_range(1..=3usize), rng.gen_range(2..=8usize));
        let rows = (0..m)
            .map(|_| {
                let mut w: Vec<u32> = (0..c).map(|_| rng.gen_range(0..4u32)).collect();
                w[0] += u32::from(w.iter().all(|&x| x == 0));
                let total = f64::from(w.iter().sum::<u32>());
                w.iter().map(|&x| f64::from(x) / total).collect()
            })
            .collect();
        out.push(Instance::from_rows(rows).unwrap());
    }
    out
}

fn render() -> Vec<String> {
    let mut out = Vec::new();
    for (n, inst) in instances().iter().enumerate() {
        let (m, c) = (inst.num_devices(), inst.num_cells());
        let exact = inst.to_exact();
        for d in 1..=c.min(4) {
            let delay = Delay::new(d).unwrap();
            let mut plans = vec![
                (
                    "exhaustive".into(),
                    optimal_exhaustive(inst, delay).unwrap(),
                ),
                ("subset_dp".into(), optimal_subset_dp(inst, delay).unwrap()),
                ("types".into(), optimal_by_types(inst, delay).unwrap()),
                ("greedy".into(), greedy_strategy_planned(inst, delay)),
                (
                    "yellow".into(),
                    optimal_yellow_exhaustive(inst, delay).unwrap(),
                ),
            ];
            for k in 1..=m {
                let opt = optimal_signature_exhaustive(inst, delay, k).unwrap();
                plans.push((format!("signature_opt k={k}"), opt));
                let greedy = greedy_signature(inst, delay, k).unwrap();
                plans.push((format!("signature_greedy k={k}"), greedy));
            }
            for b in [c.div_ceil(d), c.div_ceil(d) + 1] {
                let plan = greedy_strategy_bounded(inst, delay, b).unwrap();
                plans.push((format!("bandwidth b={b}"), plan));
            }
            let mut exact_plans = vec![("greedy_exact", greedy_strategy_planned(&exact, delay))];
            if c <= 6 {
                let plan = optimal_exhaustive(&exact, delay).unwrap();
                exact_plans.push(("exhaustive_exact", plan));
                if d == 2 {
                    let plan = optimal_two_round_exact(&exact).unwrap();
                    exact_plans.push(("two_round_exact", plan));
                }
            }
            let at = format!("#{n} m={m} c={c} d={d}");
            for (solver, p) in plans {
                let bits = p.expected_paging.to_bits();
                out.push(format!("{at} {solver}: {} | ep={bits:016x}", p.strategy));
            }
            for (solver, p) in exact_plans {
                out.push(format!(
                    "{at} {solver}: {} | ep={}",
                    p.strategy, p.expected_paging
                ));
            }
        }
    }
    out
}

#[test]
fn solver_outputs_are_pinned() {
    let got = render();
    let pinned: Vec<&str> = include_str!("solver_pins.txt").lines().collect();
    for (line, (g, p)) in got.iter().zip(&pinned).enumerate() {
        assert_eq!(g, p, "line {}", line + 1);
    }
    assert_eq!(got.len(), pinned.len(), "number of pinned lines");
}
