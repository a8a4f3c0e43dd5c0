//! The NP-hardness reduction, end to end with exact arithmetic.
//!
//! Walks the Section 3.1 chain on concrete instances: a Partition
//! instance becomes a Quasipartition1 instance, which Lemma 3.2 turns
//! into a two-device two-round Conference Call instance whose *exact*
//! optimal expected paging equals the analytic lower bound `LB` iff
//! the partition exists. Also demonstrates the Section 4.3 lower-bound
//! instance (`320/317`).
//!
//! Run with: `cargo run --example hardness_reduction`

use conference_call::hardness::quasipartition::Qp1Instance;
use conference_call::hardness::reduction::verify_reduction;
use conference_call::pager::lower_bound_instance;
use conference_call::pager::{greedy_strategy_planned, Delay};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Lemma 3.2: Quasipartition1 -> Conference Call (m = 2, d = 2) ==\n");
    let cases: Vec<(&str, Vec<u64>)> = vec![
        ("YES: {1,1,2,2} vs rest", vec![1, 1, 2, 2, 3, 3]),
        ("NO: odd total", vec![1, 1, 1, 1, 1, 4]),
        ("YES: {5,4,2,1} sums 12", vec![5, 4, 2, 1, 9, 3]),
    ];
    for (label, sizes) in cases {
        let qp1 = Qp1Instance::new(sizes.clone());
        let verdict = verify_reduction(&qp1)?;
        println!("sizes {sizes:?}  ({label})");
        println!("  quasipartition1 answer : {}", verdict.qp1_yes);
        println!("  exact optimal EP       : {}", verdict.optimal_ep);
        println!("  analytic LB            : {}", verdict.lb);
        println!(
            "  EP == LB               : {}  (equivalence holds: {})",
            verdict.ep_meets_lb,
            verdict.equivalence_holds()
        );
        assert!(verdict.equivalence_holds());
        println!();
    }

    println!("== Section 4.3: the 320/317 lower-bound instance ==\n");
    let exact = lower_bound_instance::instance_exact();
    let heuristic = greedy_strategy_planned(&exact, Delay::new(2)?);
    println!(
        "heuristic strategy : {}   EP = {}",
        heuristic.strategy, heuristic.expected_paging
    );
    let optimal = lower_bound_instance::optimal_strategy();
    println!(
        "optimal strategy   : {}   EP = {}",
        optimal,
        exact.expected_paging(&optimal)?
    );
    println!(
        "performance ratio  : {} (~{:.5})",
        lower_bound_instance::ratio(),
        lower_bound_instance::ratio().to_f64()
    );
    assert_eq!(
        heuristic.expected_paging,
        lower_bound_instance::heuristic_ep()
    );
    println!("\nThe heuristic is provably within e/(e-1) ~ 1.58198 of optimal,");
    println!("and this instance certifies it cannot be better than 320/317.");
    Ok(())
}
