//! Experiment E5 — the Section 4.3 lower-bound instance, exactly.
//!
//! Certifies with rational arithmetic: the heuristic achieves 320/49,
//! the optimum 317/49, ratio exactly 320/317; and an ε-perturbed
//! strictly-positive variant (no tie-breaking involved) keeps the
//! ratio essentially unchanged, as the paper argues.

use pager_core::lower_bound_instance as lbi;
use pager_core::optimal::optimal_two_round_exact;
use pager_core::{greedy_strategy_planned, Delay};

fn main() {
    println!("E5: the m = 2, c = 8, d = 2 instance of Section 4.3\n");
    let exact = lbi::instance_exact();
    println!("probabilities (exact):");
    for (i, row) in exact.rows().enumerate() {
        let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
        println!("  device {}: [{}]", i + 1, cells.join(", "));
    }
    println!();

    let heur = greedy_strategy_planned(&exact, Delay::new(2).expect("d"));
    let opt = optimal_two_round_exact(&exact).expect("c = 8");
    println!("heuristic strategy : {}", heur.strategy);
    println!(
        "heuristic EP       : {} (paper: 320/49)",
        heur.expected_paging
    );
    println!("optimal strategy   : {}", opt.strategy);
    println!(
        "optimal EP         : {} (paper: 317/49)",
        opt.expected_paging
    );
    let ratio = &heur.expected_paging / &opt.expected_paging;
    println!("ratio              : {ratio} (paper: 320/317)");
    assert_eq!(heur.expected_paging, lbi::heuristic_ep());
    assert_eq!(opt.expected_paging, lbi::optimal_ep());
    assert_eq!(ratio, lbi::ratio());

    println!();
    println!("E5b: epsilon-perturbed strictly-positive variants");
    println!(
        "{:>12} {:>16} {:>16} {:>12}",
        "epsilon", "heuristic EP", "optimal EP", "ratio"
    );
    for denom in [1_000i64, 10_000, 100_000, 1_000_000] {
        let p = lbi::perturbed_exact(denom);
        let heur = greedy_strategy_planned(&p, Delay::new(2).expect("d"));
        let opt = optimal_two_round_exact(&p).expect("c = 8");
        let ratio = (&heur.expected_paging / &opt.expected_paging).to_f64();
        println!(
            "{:>12} {:>16.6} {:>16.6} {:>12.6}",
            format!("1/{denom}"),
            heur.expected_paging.to_f64(),
            opt.expected_paging.to_f64(),
            ratio
        );
        assert!(ratio > 1.0, "perturbed heuristic must stay suboptimal");
    }
    println!();
    println!(
        "As epsilon -> 0 the perturbed ratio approaches 320/317 = {:.6},",
        lbi::ratio().to_f64()
    );
    println!("confirming the bound does not rely on adversarial tie-breaking.");
}
