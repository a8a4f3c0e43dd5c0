//! Canonical location-distribution estimators.
//!
//! The paper's model takes per-device probability vectors as input,
//! citing [15, 16] for how systems approximate them from movement
//! histories. The math lives here once; `cellnet`'s simulator estimates
//! through [`empirical_from_counts`] too, so its offline estimates and
//! the online [`crate::ProfileStore`] cannot drift apart.

/// Laplace-smoothed empirical distribution of a history over `c` cells:
/// `p_j = (count_j + α) / (len + c·α)`.
///
/// With `α > 0` every probability is positive, as the paper's model
/// requires.
///
/// # Panics
///
/// Panics if `c == 0`, if `alpha < 0`, if the history is empty and
/// `alpha == 0`, or if a history entry is out of range.
#[must_use]
pub fn empirical(history: &[usize], c: usize, alpha: f64) -> Vec<f64> {
    assert!(c > 0, "need at least one cell");
    assert!(alpha >= 0.0, "smoothing must be non-negative");
    assert!(
        !history.is_empty() || alpha > 0.0,
        "empty history needs positive smoothing"
    );
    let mut counts = vec![0.0f64; c];
    for &cell in history {
        assert!(cell < c, "history cell {cell} out of range");
        counts[cell] += 1.0;
    }
    empirical_from_counts(&counts, alpha)
}

/// The same Laplace rule applied to pre-accumulated (possibly
/// fractional) per-cell counts — the incremental form the online
/// profile store maintains.
///
/// # Panics
///
/// Panics if `counts` is empty, a count is negative or non-finite,
/// `alpha < 0`, or the total mass is zero with `alpha == 0`.
#[must_use]
pub fn empirical_from_counts(counts: &[f64], alpha: f64) -> Vec<f64> {
    assert!(!counts.is_empty(), "need at least one cell");
    assert!(alpha >= 0.0, "smoothing must be non-negative");
    let mut total = 0.0f64;
    for &n in counts {
        assert!(n.is_finite() && n >= 0.0, "counts must be non-negative");
        total += n;
    }
    assert!(
        total > 0.0 || alpha > 0.0,
        "zero total mass needs positive smoothing"
    );
    let denom = total + counts.len() as f64 * alpha;
    counts.iter().map(|&n| (n + alpha) / denom).collect()
}

/// Exponential-recency-weighted distribution: observation `t` steps ago
/// carries weight `decay^t`, plus `alpha` smoothing mass per cell.
///
/// # Panics
///
/// Panics if `c == 0`, `decay` is outside `(0, 1]`, `alpha < 0`, the
/// history is empty with `alpha == 0`, or an entry is out of range.
#[must_use]
pub fn recency_weighted(history: &[usize], c: usize, decay: f64, alpha: f64) -> Vec<f64> {
    assert!(c > 0, "need at least one cell");
    assert!(decay > 0.0 && decay <= 1.0, "decay must be in (0, 1]");
    assert!(alpha >= 0.0, "smoothing must be non-negative");
    assert!(
        !history.is_empty() || alpha > 0.0,
        "empty history needs positive smoothing"
    );
    let mut weights = vec![alpha; c];
    let mut w = 1.0f64;
    for &cell in history.iter().rev() {
        assert!(cell < c, "history cell {cell} out of range");
        weights[cell] += w;
        w *= decay;
    }
    let total: f64 = weights.iter().sum();
    weights.into_iter().map(|x| x / total).collect()
}

/// Total-variation distance between two distributions.
///
/// # Panics
///
/// Panics if the lengths differ.
#[must_use]
pub fn total_variation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distributions must share support");
    0.5 * a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>()
}

/// The uniform distribution over `c` cells.
///
/// # Panics
///
/// Panics if `c == 0`.
#[must_use]
pub fn uniform(c: usize) -> Vec<f64> {
    assert!(c > 0, "need at least one cell");
    vec![1.0 / c as f64; c]
}

/// Convex blend `λ·p + (1−λ)·uniform` — the staleness decay applied to
/// a profile that has not been sighted recently. `λ = 1` returns `p`
/// unchanged; `λ = 0` forgets everything.
///
/// # Panics
///
/// Panics if `p` is empty or `lambda` is outside `[0, 1]`.
#[must_use]
pub(crate) fn blend_toward_uniform(p: &[f64], lambda: f64) -> Vec<f64> {
    assert!(!p.is_empty(), "need at least one cell");
    assert!((0.0..=1.0).contains(&lambda), "lambda must be in [0, 1]");
    let u = 1.0 / p.len() as f64;
    p.iter().map(|&x| lambda * x + (1.0 - lambda) * u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_counts() {
        let p = empirical(&[0, 0, 1, 2], 4, 0.0);
        assert_eq!(p, vec![0.5, 0.25, 0.25, 0.0]);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn smoothing_makes_everything_positive() {
        let p = empirical(&[0, 0, 0], 5, 0.5);
        assert!(p.iter().all(|&x| x > 0.0));
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Cell 0 still dominates.
        assert!(p[0] > p[1]);
    }

    #[test]
    fn empty_history_uniform_under_smoothing() {
        let p = empirical(&[], 4, 1.0);
        for &x in &p {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn counts_form_matches_history_form() {
        let history = [0usize, 0, 1, 3, 3, 3];
        let mut counts = vec![0.0; 5];
        for &cell in &history {
            counts[cell] += 1.0;
        }
        let a = empirical(&history, 5, 0.5);
        let b = empirical_from_counts(&counts, 0.5);
        assert!(total_variation(&a, &b) < 1e-15);
    }

    #[test]
    fn recency_prefers_recent_cells() {
        let history = vec![0, 0, 0, 0, 1, 1];
        let p = recency_weighted(&history, 3, 0.5, 0.01);
        assert!(p[1] > p[0], "{p:?}");
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decay_one_matches_empirical_shape() {
        let history = vec![0, 1, 1, 2];
        let a = recency_weighted(&history, 3, 1.0, 0.0);
        let b = empirical(&history, 3, 0.0);
        assert!(total_variation(&a, &b) < 1e-12);
    }

    #[test]
    fn tv_distance_properties() {
        let a = vec![1.0, 0.0];
        let b = vec![0.0, 1.0];
        assert!((total_variation(&a, &b) - 1.0).abs() < 1e-12);
        assert_eq!(total_variation(&a, &a), 0.0);
    }

    #[test]
    fn blend_endpoints() {
        let p = vec![0.7, 0.2, 0.1];
        assert!(total_variation(&blend_toward_uniform(&p, 1.0), &p) < 1e-15);
        assert!(total_variation(&blend_toward_uniform(&p, 0.0), &uniform(3)) < 1e-15);
        // Halfway blend halves the distance to uniform.
        let half = blend_toward_uniform(&p, 0.5);
        let d_full = total_variation(&p, &uniform(3));
        assert!((total_variation(&half, &uniform(3)) - 0.5 * d_full).abs() < 1e-12);
    }

    #[test]
    fn guards() {
        assert!(std::panic::catch_unwind(|| empirical(&[], 3, 0.0)).is_err());
        assert!(std::panic::catch_unwind(|| empirical(&[5], 3, 1.0)).is_err());
        assert!(std::panic::catch_unwind(|| recency_weighted(&[0], 3, 0.0, 0.1)).is_err());
        assert!(std::panic::catch_unwind(|| empirical_from_counts(&[], 1.0)).is_err());
        assert!(std::panic::catch_unwind(|| empirical_from_counts(&[0.0], 0.0)).is_err());
        assert!(std::panic::catch_unwind(|| blend_toward_uniform(&[1.0], 1.5)).is_err());
    }
}
