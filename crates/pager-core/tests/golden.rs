//! Golden-value regression tests: every constant here was derived by
//! hand from the paper's formulas, independent of the implementation.

use pager_core::bounds::{lemma34_alphas, lemma34_boundaries, two_device_two_round_lb};
use pager_core::single_user::uniform_optimal_ep;
use pager_core::{greedy_strategy_planned, Delay, Instance, Strategy};
use rational::Ratio;

fn r(n: i64, d: i64) -> Ratio {
    Ratio::from_fraction(n, d)
}

/// EP = 3 − 2·(1/2)·(1/3) = 8/3 for the two-device, three-cell split.
#[test]
fn hand_computed_ep_8_3() {
    let exact = Instance::from_rows(vec![
        vec![r(1, 4), r(1, 2), r(1, 4)],
        vec![r(1, 3), r(1, 3), r(1, 3)],
    ])
    .unwrap();
    let s = Strategy::new(vec![vec![1], vec![0, 2]]).unwrap();
    assert_eq!(exact.expected_paging(&s).unwrap(), r(8, 3));
}

/// Uniform single device, c = 60: the closed form gives the paper's
/// sequence 60, 45, 40, 37.5, 36, 35 for d = 1..6.
#[test]
fn uniform_delay_sequence() {
    let expect = [60.0, 45.0, 40.0, 37.5, 36.0, 35.0];
    for (d, &e) in expect.iter().enumerate() {
        assert!(
            (uniform_optimal_ep(60, d + 1) - e).abs() < 1e-12,
            "d={}",
            d + 1
        );
    }
    // And the d = c limit: (c+1)/2 + (c-1)/(2c)·... for uniform with
    // one cell per round EP = Σ r/c = (c+1)/2.
    assert!((uniform_optimal_ep(60, 60) - 30.5).abs() < 1e-12);
}

/// The Lemma 3.2 lower bound at c = 6 equals 281/55 (hand derivation
/// in `pager_hardness::reduction` tests) and at c = 9:
/// f(1/2, 6) = 4·729/27 − 2·81/9 + 9/12 = 108 − 18 + 3/4 = 363/4.
/// (c − 1/2)(c − 1) = (17/2)·8 = 68. LB = 9 − (363/4)/68 = 9 − 363/272
///                  = 2085/272.
#[test]
fn lemma32_lb_values() {
    assert_eq!(two_device_two_round_lb(6), r(281, 55));
    assert_eq!(two_device_two_round_lb(9), r(2085, 272));
}

/// Lemma 3.4 chain for m = 2, d = 3:
/// α1 = 2/3, α2 = 2/(3 − (2/3)²) = 2/(23/9) = 18/23.
/// b3 = c, b2 = (18/23)c, b1 = (2/3)(18/23)c = (12/23)c.
#[test]
fn lemma34_chain_m2_d3() {
    let alphas = lemma34_alphas(2, 3);
    assert_eq!(alphas, vec![r(2, 3), r(18, 23)]);
    let b = lemma34_boundaries(2, 3, 23);
    assert_eq!(b[1], Ratio::from_integer(12));
    assert_eq!(b[2], Ratio::from_integer(18));
    assert_eq!(b[3], Ratio::from_integer(23));
}

/// Lemma 3.4 chain for m = 3, d = 3:
/// α1 = 3/4, α2 = 3/(4 − 27/64) = 192/229.
#[test]
fn lemma34_chain_m3_d3() {
    let alphas = lemma34_alphas(3, 3);
    assert_eq!(alphas, vec![r(3, 4), r(192, 229)]);
}

/// The Section 1.1 example at full precision: uniform two devices over
/// four cells, halves. P(L_1) per device = 1/2, so
/// EP = 4 − 2·(1/2)² = 7/2.
#[test]
fn two_uniform_devices_halved() {
    let exact = Instance::from_rows(vec![vec![r(1, 4); 4], vec![r(1, 4); 4]]).unwrap();
    let s = Strategy::new(vec![vec![0, 1], vec![2, 3]]).unwrap();
    assert_eq!(exact.expected_paging(&s).unwrap(), r(7, 2));
}

/// Greedy on a hand-solvable instance: device rows (1/2, 1/4, 1/4) and
/// (1/4, 1/4, 1/2), d = 2. Weights: (3/4, 1/2, 3/4) → order [0, 2, 1].
/// Splits: x=1: EP = 3 − 2·(1/2)(1/4) = 11/4.
///         x=2: EP = 3 − 1·(3/4)(3/4) = 39/16.
/// DP picks x = 2 → EP = 39/16.
#[test]
fn greedy_hand_trace() {
    let exact = Instance::from_rows(vec![
        vec![r(1, 2), r(1, 4), r(1, 4)],
        vec![r(1, 4), r(1, 4), r(1, 2)],
    ])
    .unwrap();
    let plan = greedy_strategy_planned(&exact, Delay::new(2).unwrap());
    assert_eq!(plan.expected_paging, r(39, 16));
    assert_eq!(plan.strategy.group(0), &[0, 2]);
    assert_eq!(plan.strategy.group(1), &[1]);
}

/// Blanket paging always costs exactly c (any instance).
#[test]
fn blanket_costs_c() {
    for c in [1usize, 2, 5, 9] {
        let inst = Instance::uniform(3.min(c), c).unwrap();
        let ep = inst.expected_paging(&Strategy::blanket(c)).unwrap();
        assert!((ep - c as f64).abs() < 1e-12);
    }
}

/// A deterministic device (probability 1 in one cell) paged first
/// reduces the search to the other device exactly: rows (1, 0, 0) and
/// (1/3, 1/3, 1/3), strategy [0] | [1] | [2]:
/// F_1 = 1·(1/3) = 1/3, F_2 = 1·(2/3).
/// EP = 3 − 1·(1/3) − 1·(2/3) = 2.
#[test]
fn deterministic_device_hand_trace() {
    let exact = Instance::from_rows(vec![
        vec![Ratio::one(), Ratio::zero(), Ratio::zero()],
        vec![r(1, 3), r(1, 3), r(1, 3)],
    ])
    .unwrap();
    let s = Strategy::new(vec![vec![0], vec![1], vec![2]]).unwrap();
    assert_eq!(exact.expected_paging(&s).unwrap(), Ratio::from_integer(2));
}
