//! Cooperative cancellation for long-running solvers.
//!
//! The exact solvers are exponential by design (`O(d·3^c)` for the
//! subset DP) and the serving layer plans under *deadlines*: a plan
//! whose budget expired mid-solve is worthless, so the solver should
//! stop burning CPU and let the caller downgrade to the greedy tier.
//! [`CancelToken`] carries that intent as an optional deadline. Solvers
//! poll it at coarse checkpoints (every 4,096 inner-loop
//! iterations) and return [`crate::Error::Cancelled`] once it fires —
//! cooperative, so a token can never tear a solver down mid-write.

use std::time::{Duration, Instant};

/// How many cheap inner-loop iterations a solver runs between
/// checkpoint polls. Polling costs an `Instant::now()` call; at this
/// stride the overhead is far below 1% while cancellation latency
/// stays in the tens of microseconds.
pub(crate) const CHECKPOINT_STRIDE: u32 = 4096;

/// A cooperative cancellation token.
///
/// Cheap to clone and share across threads. A token fires when its
/// deadline passes; a token without one never fires.
///
/// # Examples
///
/// ```
/// use pager_core::cancel::CancelToken;
/// use std::time::Duration;
///
/// let never = CancelToken::never();
/// assert!(!never.is_cancelled());
///
/// let expired = CancelToken::with_timeout(Duration::ZERO);
/// assert!(expired.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never fires (the default for the non-deadline
    /// solver entry points).
    #[must_use]
    pub fn never() -> CancelToken {
        CancelToken::default()
    }

    /// A token that fires `budget` from now.
    #[must_use]
    pub fn with_timeout(budget: Duration) -> CancelToken {
        CancelToken {
            deadline: Some(Instant::now() + budget),
        }
    }

    /// A token that fires `budget_ms` milliseconds from now, or never
    /// when `budget_ms` is `None`: a request's deadline budget.
    #[must_use]
    pub fn from_budget_ms(budget_ms: Option<u64>) -> CancelToken {
        budget_ms.map_or_else(CancelToken::never, |ms| {
            CancelToken::with_timeout(Duration::from_millis(ms))
        })
    }

    /// Whether the token has fired (its deadline passed).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        match self.deadline {
            Some(deadline) => Instant::now() >= deadline,
            None => false,
        }
    }

    /// The deadline, if any (used by callers to size retry hints).
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time left until the token fires, saturating at zero (`None`
    /// for a token that never fires).
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|deadline| deadline.saturating_duration_since(Instant::now()))
    }

    /// Checkpoint helper for solver inner loops: counts calls and
    /// polls the token once every [`CHECKPOINT_STRIDE`] ticks.
    /// Returns [`crate::Error::Cancelled`] once the token fires.
    ///
    /// # Errors
    ///
    /// [`crate::Error::Cancelled`] when the token has fired at a
    /// polled tick.
    #[inline]
    pub(crate) fn checkpoint(&self, ticks: &mut u32) -> crate::Result<()> {
        *ticks = ticks.wrapping_add(1);
        if (*ticks).is_multiple_of(CHECKPOINT_STRIDE) && self.is_cancelled() {
            return Err(crate::Error::Cancelled);
        }
        Ok(())
    }

    /// Unconditional poll (for per-phase boundaries rather than inner
    /// loops).
    ///
    /// # Errors
    ///
    /// [`crate::Error::Cancelled`] when the token has fired.
    #[inline]
    pub(crate) fn check(&self) -> crate::Result<()> {
        if self.is_cancelled() {
            return Err(crate::Error::Cancelled);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_token_never_fires() {
        let t = CancelToken::never();
        assert!(!t.is_cancelled());
        let mut ticks = 0;
        for _ in 0..3 * CHECKPOINT_STRIDE {
            assert!(t.checkpoint(&mut ticks).is_ok());
        }
        assert!(t.check().is_ok());
        assert!(!t.is_cancelled());
    }

    #[test]
    fn expired_deadline_fires() {
        let t = CancelToken::with_timeout(Duration::ZERO);
        assert!(t.is_cancelled());
        assert_eq!(t.check().unwrap_err(), crate::Error::Cancelled);
    }

    #[test]
    fn future_deadline_does_not_fire() {
        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(t.deadline().is_some());
    }

    #[test]
    fn budgets_and_remaining_time() {
        let unbounded = CancelToken::from_budget_ms(None);
        assert!(!unbounded.is_cancelled());
        assert_eq!(unbounded.remaining(), None);
        let spent = CancelToken::from_budget_ms(Some(0));
        assert!(spent.is_cancelled());
        assert_eq!(spent.remaining(), Some(Duration::ZERO));
        let live = CancelToken::from_budget_ms(Some(60_000));
        assert!(!live.is_cancelled());
        assert!(live
            .remaining()
            .is_some_and(|left| left > Duration::from_secs(59)));
    }

    #[test]
    fn checkpoint_only_polls_on_stride() {
        let t = CancelToken::with_timeout(Duration::ZERO);
        let mut ticks = 0;
        // Off-stride ticks never poll, so they cannot fail.
        for _ in 0..CHECKPOINT_STRIDE - 1 {
            assert!(t.checkpoint(&mut ticks).is_ok());
        }
        assert_eq!(
            t.checkpoint(&mut ticks).unwrap_err(),
            crate::Error::Cancelled
        );
    }
}
