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
//! optionally under a per-round bandwidth cap (Section 5 extension). It
//! is generic over [`Scalar`]: `f64` serves plans, and [`rational::Ratio`]
//! certifies them exactly. The paper's literal Fig. 1 pseudocode — an
//! equivalent conditional-expectation formulation — lives in
//! [`crate::fig1`] and is tested to agree with this engine.

use std::convert::Infallible;

use crate::cancel::CancelToken;
use crate::error::Result;
use crate::scalar::Scalar;

/// Result of an optimal prefix split: group sizes and achieved savings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split<T> {
    /// Group sizes `s_1, …, s_d` (all positive, summing to `c`).
    pub sizes: Vec<usize>,
    /// The maximised savings `Σ_{r=1}^{d−1} s_{r+1}·G(j_r)`; the
    /// expected paging is `c − savings`.
    pub savings: T,
}

/// Maximises `Σ_{r=1}^{d−1} s_{r+1}·g[j_r]` over cuts of `0..c` into `d`
/// non-empty contiguous groups. Among equal savings the earliest cut
/// wins.
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
pub fn optimal_split<T: Scalar>(g: &[T], d: usize, max_group: Option<usize>) -> Option<Split<T>> {
    let Ok(split) = split_with(g, d, max_group, || Ok::<(), Infallible>(()));
    split
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
pub(crate) fn optimal_split_cancel<T: Scalar>(
    g: &[T],
    d: usize,
    max_group: Option<usize>,
    cancel: &CancelToken,
) -> Result<Option<Split<T>>> {
    let mut ticks = 0u32;
    split_with(g, d, max_group, || cancel.checkpoint(&mut ticks))
}

/// The cut DP, calling `poll` before every candidate cut and giving up
/// with its error.
fn split_with<T: Scalar, E>(
    g: &[T],
    d: usize,
    max_group: Option<usize>,
    mut poll: impl FnMut() -> core::result::Result<(), E>,
) -> core::result::Result<Option<Split<T>>, E> {
    let c = g.len().saturating_sub(1);
    // A cap of c or more is no cap.
    let b = max_group.unwrap_or(c).min(c);
    if d == 0 || d > c || b.saturating_mul(d) < c {
        return Ok(None);
    }
    T::with_tables(|best, cut| {
        // best[l*(c+1) + j]: max savings splitting the first j cells
        // into l groups of at most b cells. Such a split exists iff
        // l <= j <= l*b, and it can still grow into the answer (d, c)
        // iff the other d-l groups can hold the other c-j cells:
        // d-l <= c-j <= (d-l)*b. Only states meeting both are visited;
        // every predecessor of such a state meets both too. The zero
        // fill is layer 1's answer: one group saves nothing.
        let width = c + 1;
        best.clear();
        best.resize((d + 1) * width, T::zero());
        cut.clear();
        cut.resize((d + 1) * width, 0);
        for l in 2..=d {
            let (done, rest) = best.split_at_mut(l * width);
            let (last, row) = (&done[(l - 1) * width..], &mut rest[..width]);
            let cuts = &mut cut[l * width..(l + 1) * width];
            let groups_after = d - l;
            let first = l.max(c.saturating_sub(groups_after.saturating_mul(b)));
            for j in first..=(l * b).min(c - groups_after) {
                // The previous l-1 groups hold prev cells, so
                // l-1 <= prev <= (l-1)*b, and 1 <= j - prev <= b.
                let lo = j.saturating_sub(b).max(l - 1);
                for prev in lo..=(j - 1).min((l - 1) * b) {
                    poll()?;
                    let cand = last[prev].add(&g[prev].times(j - prev));
                    // Only a strictly better cut replaces the earliest.
                    if prev == lo || cand > row[j] {
                        row[j] = cand;
                        cuts[j] = prev;
                    }
                }
            }
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
            savings: best[d * width + c].clone(),
        }))
    })
}

/// Computes the conference-call stop probabilities `G(j) = Π_i P_i(prefix j)`
/// for a given cell order. `G` has length `c + 1` with `G[0] = 0`
/// (unless there are zero devices, which instances rule out).
#[must_use]
pub fn conference_stop_probs<T: Scalar>(rows: &[&[T]], order: &[usize]) -> Vec<T> {
    stop_probs(rows, order, all_found)
}

/// The probability that every device has been found, `Π_i P_i`, given
/// each device's probability `P_i` of lying in the cells paged so far.
pub(crate) fn all_found<T: Scalar>(prefix: &[T]) -> T {
    prefix.iter().fold(T::one(), |acc, p| acc.mul(p))
}

/// Stop probabilities along a cell order: `g[j] = stop(P(prefix j))`,
/// where `P_i(prefix j)` is the probability that device `i` is in one
/// of the first `j` cells of `order`. `g` has length `c + 1`.
#[must_use]
pub(crate) fn stop_probs<T: Scalar>(
    rows: &[&[T]],
    order: &[usize],
    stop: impl Fn(&[T]) -> T,
) -> Vec<T> {
    let mut prefix = vec![T::zero(); rows.len()];
    let mut g = Vec::with_capacity(order.len() + 1);
    g.push(stop(&prefix));
    for &cell in order {
        for (acc, row) in prefix.iter_mut().zip(rows) {
            *acc = acc.add(&row[cell]);
        }
        g.push(stop(&prefix));
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rational::Ratio;

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
        assert!(optimal_split::<f64>(&[], 1, None).is_none());
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
        // Non-trivial G: compare against enumerating all compositions,
        // uncapped and under every feasible bandwidth cap, in f64 and
        // exactly.
        let g = vec![0.0, 0.1, 0.35, 0.4, 0.75, 0.9, 1.0];
        let ge: Vec<Ratio> = g.iter().map(|&x| Ratio::from_f64(x).unwrap()).collect();
        let c = g.len() - 1;
        // Enumerate all compositions of c into d parts in 1..=b.
        fn enumerate(c: usize, d: usize, b: usize) -> Vec<Vec<usize>> {
            fn go(c: usize, d: usize, b: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
                if d == 1 {
                    if (1..=b).contains(&c) {
                        cur.push(c);
                        out.push(cur.clone());
                        cur.pop();
                    }
                    return;
                }
                for s in 1..=b.min(c - (d - 1)) {
                    cur.push(s);
                    go(c - s, d - 1, b, cur, out);
                    cur.pop();
                }
            }
            let mut out = Vec::new();
            go(c, d, b, &mut Vec::new(), &mut out);
            out
        }
        fn savings<T: Scalar>(g: &[T], sizes: &[usize]) -> T {
            let mut prefix = 0usize;
            let mut sav = T::zero();
            for r in 0..sizes.len() - 1 {
                prefix += sizes[r];
                sav = sav.add(&g[prefix].times(sizes[r + 1]));
            }
            sav
        }
        for d in 1..=c {
            let caps = std::iter::once(None).chain((c.div_ceil(d)..=c).map(Some));
            for cap in caps {
                let all = enumerate(c, d, cap.unwrap_or(c));
                let dp = optimal_split(&g, d, cap).unwrap();
                let best = all
                    .iter()
                    .map(|s| savings(&g, s))
                    .fold(f64::NEG_INFINITY, f64::max);
                assert!(
                    (dp.savings - best).abs() < 1e-9,
                    "d={d} cap={cap:?}: dp={} brute={}",
                    dp.savings,
                    best
                );
                let exact = optimal_split(&ge, d, cap).unwrap();
                let best = all.iter().map(|s| savings(&ge, s)).max().unwrap();
                assert_eq!(exact.savings, best, "d={d} cap={cap:?}");
                assert_eq!(savings(&ge, &exact.sizes), best, "d={d} cap={cap:?}");
                for sizes in [&dp.sizes, &exact.sizes] {
                    assert!(all.contains(sizes), "d={d} cap={cap:?}: {sizes:?}");
                }
            }
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
        let e = optimal_split(&ge, 2, None).unwrap();
        assert_eq!(e.sizes, f.sizes);
        assert_eq!(e.savings, Ratio::one());
    }

    #[test]
    fn exact_agrees_with_float() {
        let gf = vec![0.0, 0.125, 0.25, 0.5, 0.75, 1.0];
        let ge: Vec<Ratio> = gf.iter().map(|&x| Ratio::from_f64(x).unwrap()).collect();
        for d in 1..=5 {
            let f = optimal_split(&gf, d, None).unwrap();
            let e = optimal_split(&ge, d, None).unwrap();
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
            let e = optimal_split(&ge, 3, Some(b)).unwrap();
            assert_eq!(f.sizes, e.sizes, "b={b}");
            assert!((f.savings - e.savings.to_f64()).abs() < 1e-12, "b={b}");
            assert!(e.sizes.iter().all(|&s| s <= b));
        }
        // Infeasible cap handled identically.
        assert!(optimal_split(&ge, 3, Some(1)).is_none());
        assert!(optimal_split(&ge, 0, None).is_none());
        assert!(optimal_split::<Ratio>(&[], 1, None).is_none());
    }

    #[test]
    fn exact_split_prefers_larger_savings() {
        // A g where the best two-round cut is unambiguous: g jumps at 2.
        let ge: Vec<Ratio> = [0.0, 0.1, 0.9, 0.95, 1.0]
            .iter()
            .map(|&x| Ratio::from_f64(x).unwrap())
            .collect();
        let e = optimal_split(&ge, 2, None).unwrap();
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
