//! The dynamic-programming engine behind the approximation algorithm
//! (Lemma 4.7 of the paper, generalised).
//!
//! Fix an order in which cells will be paged. Every strategy in the
//! family `F` (Section 4.2) cuts that order into `d` contiguous groups
//! with sizes `s_1, …, s_d`. For *any* stopping rule whose "search ends
//! by the time the first `j` cells are paged" probability `G(j)` depends
//! only on the prefix — conference call (`G = Π_i P_i`), yellow pages
//! (`G = 1 − Π_i (1 − P_i)`), signature (`G = Pr[≥ k found]`) — the
//! expected paging telescopes to
//!
//! ```text
//! EP = c − Σ_{r=1}^{d−1} s_{r+1} · G(j_r),   j_r = s_1 + … + s_r ,
//! ```
//!
//! so the optimal cut maximises the *savings* `Σ s_{r+1} G(j_r)`. This
//! module solves that maximisation in `O(d·c²)` time and `O(d·c)` space,
//! optionally under a per-round bandwidth cap (Section 5 extension). The
//! paper's literal Fig. 1 pseudocode — an equivalent conditional-
//! expectation formulation — lives in [`crate::fig1`] and is tested to
//! agree with this engine.

use std::cell::RefCell;

use crate::cancel::CancelToken;
use crate::error::Result;
use rational::Ratio;

/// Reusable DP tables, flattened to `(d+1) × (c+1)` row-major.
///
/// The float DP runs on every greedy/bandwidth-tier plan, and its
/// tables are the dominant per-solve allocation. Keeping them in a
/// thread-local arena means a worker thread allocates them once at the
/// largest `(d, c)` it has seen and then re-solves allocation-free —
/// part of the wire fast path's steady-state zero-allocation budget.
/// The exact-rational DP is for offline certification and keeps its
/// plain allocation.
#[derive(Default)]
struct Scratch {
    best: Vec<f64>,
    cut: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Result of an optimal prefix split: group sizes and achieved savings.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// Group sizes `s_1, …, s_d` (all positive, summing to `c`).
    pub sizes: Vec<usize>,
    /// The maximised savings `Σ_{r=1}^{d−1} s_{r+1}·G(j_r)`; the
    /// expected paging is `c − savings`.
    pub savings: f64,
}

/// Result of an exact optimal prefix split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactSplit {
    /// Group sizes `s_1, …, s_d`.
    pub sizes: Vec<usize>,
    /// Exact savings; expected paging is `c − savings`.
    pub savings: Ratio,
}

/// Maximises `Σ_{r=1}^{d−1} s_{r+1}·g[j_r]` over cuts of `0..c` into `d`
/// non-empty contiguous groups.
///
/// `g` has length `c + 1`; `g[j]` is the probability the search is over
/// once the first `j` cells (in the chosen order) have been paged.
/// `g[0]` is ignored (a prefix of zero cells cannot end the search) and
/// `g` is expected to be non-decreasing, though the optimiser does not
/// rely on it.
///
/// `max_group`, if set, caps every group size (bandwidth limit `b`).
///
/// Returns `None` when the split is infeasible: `d == 0`, `d > c`, or
/// `d·b < c` under a bandwidth cap.
#[must_use]
pub fn optimal_split(g: &[f64], d: usize, max_group: Option<usize>) -> Option<Split> {
    optimal_split_cancel(g, d, max_group, &CancelToken::never())
        // lint:allow(no-unwrap-outside-tests): a never-firing token cannot cancel
        .expect("a never-firing token cannot cancel the DP")
}

/// Cancellable counterpart of [`optimal_split`]: polls `cancel` at
/// checkpoints inside the `O(d·c²)` loop nest and abandons the DP once
/// it fires.
///
/// # Errors
///
/// [`crate::Error::Cancelled`] when `cancel` fires mid-solve. The
/// `Ok(None)` cases are the same infeasibility conditions as
/// [`optimal_split`].
pub fn optimal_split_cancel(
    g: &[f64],
    d: usize,
    max_group: Option<usize>,
    cancel: &CancelToken,
) -> Result<Option<Split>> {
    let Some(c) = g.len().checked_sub(1) else {
        return Ok(None);
    };
    if d == 0 || d > c || c == 0 {
        return Ok(None);
    }
    let b = max_group.unwrap_or(c);
    if b == 0 || b.checked_mul(d).is_none_or(|cap| cap < c) {
        return Ok(None);
    }
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        // best[l*(c+1) + j]: max savings splitting the first j cells
        // into l groups. Infeasible states get NEG_INFINITY. The
        // tables live in the thread-local arena: clear-then-resize
        // refills them without reallocating once the thread has seen
        // this size.
        let width = c + 1;
        let table = (d + 1) * width;
        scratch.best.clear();
        scratch.best.resize(table, f64::NEG_INFINITY);
        scratch.cut.clear();
        scratch.cut.resize(table, 0);
        let best = &mut scratch.best;
        let cut = &mut scratch.cut;
        for j in 1..=c.min(b) {
            best[width + j] = 0.0;
        }
        let mut ticks = 0u32;
        for l in 2..=d {
            for j in l..=c {
                // Previous prefix j' = j - s with 1 <= s <= b and j' >= l-1.
                let lo = j.saturating_sub(b).max(l - 1);
                for prev in lo..j {
                    cancel.checkpoint(&mut ticks)?;
                    if !best[(l - 1) * width + prev].is_finite() {
                        continue;
                    }
                    let cand = best[(l - 1) * width + prev] + (j - prev) as f64 * g[prev];
                    if cand > best[l * width + j] {
                        best[l * width + j] = cand;
                        cut[l * width + j] = prev;
                    }
                }
            }
        }
        if !best[d * width + c].is_finite() {
            return Ok(None);
        }
        // Backtrack the cut positions.
        let mut sizes = vec![0usize; d];
        let mut j = c;
        for l in (2..=d).rev() {
            let prev = cut[l * width + j];
            sizes[l - 1] = j - prev;
            j = prev;
        }
        sizes[0] = j;
        debug_assert!(sizes.iter().all(|&s| s >= 1 && s <= b));
        debug_assert_eq!(sizes.iter().sum::<usize>(), c);
        Ok(Some(Split {
            sizes,
            savings: best[d * width + c],
        }))
    })
}

/// Exact-rational counterpart of [`optimal_split`].
///
/// Intended for small instances where certified comparisons matter (the
/// hardness reductions and the Section 4.3 lower bound).
#[must_use]
pub fn optimal_split_exact(g: &[Ratio], d: usize, max_group: Option<usize>) -> Option<ExactSplit> {
    let c = g.len().checked_sub(1)?;
    if d == 0 || d > c || c == 0 {
        return None;
    }
    let b = max_group.unwrap_or(c);
    if b == 0 || b.checked_mul(d)? < c {
        return None;
    }
    let mut best: Vec<Vec<Option<Ratio>>> = vec![vec![None; c + 1]; d + 1];
    let mut cut = vec![vec![0usize; c + 1]; d + 1];
    for j in 1..=c.min(b) {
        best[1][j] = Some(Ratio::zero());
    }
    for l in 2..=d {
        for j in l..=c {
            let lo = j.saturating_sub(b).max(l - 1);
            let mut bost: Option<(Ratio, usize)> = None;
            for prev in lo..j {
                let Some(prev_best) = best[l - 1][prev].clone() else {
                    continue;
                };
                let cand = &prev_best + &(&Ratio::from(j - prev) * &g[prev]);
                match &bost {
                    Some((cur, _)) if *cur >= cand => {}
                    _ => bost = Some((cand, prev)),
                }
            }
            if let Some((val, prev)) = bost {
                best[l][j] = Some(val);
                cut[l][j] = prev;
            }
        }
    }
    let savings = best[d][c].clone()?;
    let mut sizes = vec![0usize; d];
    let mut j = c;
    for l in (2..=d).rev() {
        let prev = cut[l][j];
        sizes[l - 1] = j - prev;
        j = prev;
    }
    sizes[0] = j;
    Some(ExactSplit { sizes, savings })
}

/// Computes the conference-call stop probabilities `G(j) = Π_i P_i(prefix j)`
/// for a given cell order. `G` has length `c + 1` with `G[0] = 0`
/// (unless there are zero devices, which instances rule out).
#[must_use]
pub fn conference_stop_probs(rows: &[&[f64]], order: &[usize]) -> Vec<f64> {
    stop_probs(rows, order, |prefix| prefix.iter().product())
}

/// Stop probabilities along a cell order: `g[j] = stop(P(prefix j))`,
/// where `P_i(prefix j)` is the probability that device `i` is in one
/// of the first `j` cells of `order`. `g` has length `c + 1`.
#[must_use]
pub(crate) fn stop_probs(
    rows: &[&[f64]],
    order: &[usize],
    stop: impl Fn(&[f64]) -> f64,
) -> Vec<f64> {
    let mut prefix: Vec<f64> = vec![0.0; rows.len()];
    let mut g = Vec::with_capacity(order.len() + 1);
    g.push(stop(&prefix));
    for &cell in order {
        for (i, acc) in prefix.iter_mut().enumerate() {
            *acc += rows[i][cell];
        }
        g.push(stop(&prefix));
    }
    g
}

/// Exact counterpart of [`conference_stop_probs`].
#[must_use]
pub fn conference_stop_probs_exact(rows: &[&[Ratio]], order: &[usize]) -> Vec<Ratio> {
    let c = order.len();
    let mut prefix: Vec<Ratio> = vec![Ratio::zero(); rows.len()];
    let mut g = Vec::with_capacity(c + 1);
    g.push(if rows.is_empty() {
        Ratio::one()
    } else {
        Ratio::zero()
    });
    for &cell in order {
        for (i, acc) in prefix.iter_mut().enumerate() {
            *acc = &*acc + &rows[i][cell];
        }
        g.push(prefix.iter().product());
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_round_split() {
        let g = vec![0.0, 0.5, 1.0];
        let s = optimal_split(&g, 1, None).unwrap();
        assert_eq!(s.sizes, vec![2]);
        assert_eq!(s.savings, 0.0);
    }

    #[test]
    fn uniform_halving_for_two_rounds() {
        // Single uniform device over 4 cells: G(j) = j/4. Savings for
        // split (x, 4−x) is (4−x)·x/4, maximised at x = 2 → 1.0.
        let g = vec![0.0, 0.25, 0.5, 0.75, 1.0];
        let s = optimal_split(&g, 2, None).unwrap();
        assert_eq!(s.sizes, vec![2, 2]);
        assert!((s.savings - 1.0).abs() < 1e-12);
    }

    #[test]
    fn infeasible_inputs() {
        let g = vec![0.0, 0.5, 1.0];
        assert!(optimal_split(&g, 0, None).is_none());
        assert!(optimal_split(&g, 3, None).is_none()); // d > c
        assert!(optimal_split(&g, 2, Some(0)).is_none());
        assert!(optimal_split(&[], 1, None).is_none());
        // c = 4 cells, 2 rounds, bandwidth 1 → 2 < 4 infeasible.
        let g4 = vec![0.0, 0.25, 0.5, 0.75, 1.0];
        assert!(optimal_split(&g4, 2, Some(1)).is_none());
        assert!(optimal_split(&g4, 4, Some(1)).is_some());
    }

    #[test]
    fn bandwidth_cap_respected() {
        let g = vec![0.0, 0.2, 0.5, 0.8, 0.9, 1.0];
        let s = optimal_split(&g, 3, Some(2)).unwrap();
        assert!(s.sizes.iter().all(|&x| x <= 2));
        assert_eq!(s.sizes.iter().sum::<usize>(), 5);
        // The cap can only reduce savings.
        let free = optimal_split(&g, 3, None).unwrap();
        assert!(free.savings >= s.savings - 1e-12);
    }

    #[test]
    fn matches_brute_force_enumeration() {
        // Non-trivial G: compare against enumerating all compositions.
        let g = vec![0.0, 0.1, 0.35, 0.4, 0.75, 0.9, 1.0];
        let c = g.len() - 1;
        for d in 1..=c {
            let dp = optimal_split(&g, d, None).unwrap();
            let mut best = f64::NEG_INFINITY;
            // Enumerate all compositions of c into d positive parts.
            fn enumerate(c: usize, d: usize) -> Vec<Vec<usize>> {
                fn go(c: usize, d: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
                    if d == 1 {
                        if c >= 1 {
                            cur.push(c);
                            out.push(cur.clone());
                            cur.pop();
                        }
                        return;
                    }
                    for s in 1..=c - (d - 1) {
                        cur.push(s);
                        go(c - s, d - 1, cur, out);
                        cur.pop();
                    }
                }
                let mut out = Vec::new();
                go(c, d, &mut Vec::new(), &mut out);
                out
            }
            for sizes in enumerate(c, d) {
                let mut prefix = 0usize;
                let mut sav = 0.0;
                for r in 0..sizes.len() - 1 {
                    prefix += sizes[r];
                    sav += sizes[r + 1] as f64 * g[prefix];
                }
                best = best.max(sav);
            }
            assert!(
                (dp.savings - best).abs() < 1e-9,
                "d={d}: dp={} brute={}",
                dp.savings,
                best
            );
        }
    }

    #[test]
    fn tied_splits_break_toward_the_earliest_cut() {
        // g = [0, 1/2, 1, 1] over 3 cells, d = 2: cutting after cell 1
        // saves 2·g[1] = 1 and cutting after cell 2 saves 1·g[2] = 1.
        // Both DPs keep the first candidate on ties, so the earliest
        // cut wins — sizes [1, 2], never [2, 1]. The float DP must not
        // drift from the exact DP here: downstream plan caching keys on
        // the chosen sizes.
        let gf = vec![0.0, 0.5, 1.0, 1.0];
        let f = optimal_split(&gf, 2, None).unwrap();
        assert_eq!(f.sizes, vec![1, 2]);
        assert!((f.savings - 1.0).abs() < 1e-12);
        let ge: Vec<Ratio> = gf.iter().map(|&x| Ratio::from_f64(x).unwrap()).collect();
        let e = optimal_split_exact(&ge, 2, None).unwrap();
        assert_eq!(e.sizes, f.sizes);
        assert_eq!(e.savings, Ratio::one());
    }

    #[test]
    fn exact_agrees_with_float() {
        let gf = vec![0.0, 0.125, 0.25, 0.5, 0.75, 1.0];
        let ge: Vec<Ratio> = gf.iter().map(|&x| Ratio::from_f64(x).unwrap()).collect();
        for d in 1..=5 {
            let f = optimal_split(&gf, d, None).unwrap();
            let e = optimal_split_exact(&ge, d, None).unwrap();
            assert!((f.savings - e.savings.to_f64()).abs() < 1e-12, "d={d}");
            assert_eq!(f.sizes, e.sizes, "d={d}");
        }
    }

    #[test]
    fn exact_split_respects_bandwidth() {
        let gf = vec![0.0, 0.2, 0.5, 0.8, 0.9, 1.0];
        let ge: Vec<Ratio> = gf.iter().map(|&x| Ratio::from_f64(x).unwrap()).collect();
        for b in 2..=5 {
            let f = optimal_split(&gf, 3, Some(b)).unwrap();
            let e = optimal_split_exact(&ge, 3, Some(b)).unwrap();
            assert_eq!(f.sizes, e.sizes, "b={b}");
            assert!((f.savings - e.savings.to_f64()).abs() < 1e-12, "b={b}");
            assert!(e.sizes.iter().all(|&s| s <= b));
        }
        // Infeasible cap handled identically.
        assert!(optimal_split_exact(&ge, 3, Some(1)).is_none());
        assert!(optimal_split_exact(&ge, 0, None).is_none());
        assert!(optimal_split_exact(&[], 1, None).is_none());
    }

    #[test]
    fn exact_split_prefers_larger_savings() {
        // A g where the best two-round cut is unambiguous: g jumps at 2.
        let ge: Vec<Ratio> = [0.0, 0.1, 0.9, 0.95, 1.0]
            .iter()
            .map(|&x| Ratio::from_f64(x).unwrap())
            .collect();
        let e = optimal_split_exact(&ge, 2, None).unwrap();
        assert_eq!(e.sizes, vec![2, 2]); // cut after the jump
    }

    #[test]
    fn stop_probs_shapes() {
        let rows_data = [vec![0.5, 0.25, 0.25], vec![0.2, 0.3, 0.5]];
        let rows: Vec<&[f64]> = rows_data.iter().map(Vec::as_slice).collect();
        let g = conference_stop_probs(&rows, &[0, 1, 2]);
        assert_eq!(g.len(), 4);
        assert_eq!(g[0], 0.0);
        assert!((g[1] - 0.5 * 0.2).abs() < 1e-12);
        assert!((g[2] - 0.75 * 0.5).abs() < 1e-12);
        assert!((g[3] - 1.0).abs() < 1e-12);
        // Reordering permutes the prefixes.
        let g_rev = conference_stop_probs(&rows, &[2, 1, 0]);
        assert!((g_rev[1] - 0.25 * 0.5).abs() < 1e-12);
        assert!((g_rev[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cancelled_split_returns_cancelled() {
        use crate::cancel::CancelToken;
        // Large enough that the loop nest passes a checkpoint stride.
        let c = 120;
        let g: Vec<f64> = (0..=c).map(|j| j as f64 / c as f64).collect();
        let expired = CancelToken::with_timeout(std::time::Duration::ZERO);
        assert_eq!(
            optimal_split_cancel(&g, 4, None, &expired).unwrap_err(),
            crate::Error::Cancelled
        );
        // A live token produces the same answer as the plain entry point.
        let live = CancelToken::never();
        let a = optimal_split_cancel(&g, 4, None, &live).unwrap().unwrap();
        let b = optimal_split(&g, 4, None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn savings_monotone_in_rounds() {
        // More rounds cannot hurt: best savings is non-decreasing in d.
        let g = vec![0.0, 0.05, 0.3, 0.32, 0.6, 0.85, 0.99, 1.0];
        let mut last = -1.0;
        for d in 1..=7 {
            let s = optimal_split(&g, d, None).unwrap();
            assert!(s.savings >= last - 1e-12, "d={d}");
            last = s.savings;
        }
    }
}
