//! Solver-tier dispatch.
//!
//! One request names *what* it wants ([`Variant`]); the planner
//! decides *which solver* actually runs ([`Tier`]) and times it:
//!
//! * small instances (subset-DP reach) go to the exact optimum,
//! * everything else goes to the paper's Fig. 1 greedy
//!   (`e/(e−1)`-approximate, `O(c(m + dc))`),
//! * bandwidth-bounded and signature (`k`-of-`m`) variants dispatch to
//!   their Section 5 solvers on request.
//!
//! Every solve runs under a cooperative [`CancelToken`]. An exact plan
//! abandoned at a deadline checkpoint is *downgraded*: re-planned with
//! the greedy tier (fast, `O(d·c²)`) and marked
//! [`Plan::downgraded`] so the client knows it got the approximation
//! instead of the optimum it asked for. Tiers with no cheaper
//! fallback (greedy, bandwidth, signature) surface
//! [`ServiceError::Overloaded`] instead.

use std::time::Instant;

use pager_core::cancel::CancelToken;
use pager_core::{bandwidth, optimal, signature, Delay, Error, Instance};
use pager_core::{greedy_strategy_planned_cancel, Strategy};

use crate::error::ServiceError;

/// What kind of plan a request wants — defined in [`pager_wire`] (the
/// typed wire API) and re-exported here so planner-side callers keep
/// their historical import path.
pub use pager_wire::Variant;

/// Which solver actually produced a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Optimal subset-DP / exhaustive solver.
    Exact,
    /// Fig. 1 greedy.
    Greedy,
    /// Bandwidth-bounded greedy.
    Bandwidth,
    /// Signature greedy.
    Signature,
}

impl Tier {
    /// Every tier, in declaration order (`Tier::ALL[t as usize] == t`).
    pub(crate) const ALL: [Tier; 4] = [Tier::Exact, Tier::Greedy, Tier::Bandwidth, Tier::Signature];

    /// Stable name for metrics and the wire protocol.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tier::Exact => "exact",
            Tier::Greedy => "greedy",
            Tier::Bandwidth => "bandwidth",
            Tier::Signature => "signature",
        }
    }
}

/// Size limits for automatic exact-tier dispatch.
///
/// `optimal_subset_dp` is `O(d·3^c)` time / `O(2^c)` space, so the
/// default caps keep the exact tier around a millisecond.
#[derive(Debug, Clone, Copy)]
pub struct TierPolicy {
    /// Maximum cells for `Auto` to choose the exact solver.
    pub exact_max_cells: usize,
    /// Maximum devices for `Auto` to choose the exact solver.
    pub exact_max_devices: usize,
}

impl Default for TierPolicy {
    fn default() -> TierPolicy {
        TierPolicy {
            exact_max_cells: 10,
            exact_max_devices: 4,
        }
    }
}

/// A finished plan: the strategy, its cost, and provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The paging strategy.
    pub strategy: Strategy,
    /// Expected number of cells paged under the planning instance.
    pub expected_paging: f64,
    /// The solver tier that produced it.
    pub tier: Tier,
    /// Wall-clock planning time.
    pub planning_micros: u64,
    /// The exact solve was abandoned at a deadline checkpoint and this
    /// plan came from the greedy fallback instead.
    pub downgraded: bool,
}

/// How long an overloaded client should back off before retrying.
/// Deliberately a small constant: under sustained overload the bounded
/// queue keeps shedding, and any retrying client re-probes quickly
/// without a thundering herd (the hint, not a timer, spreads retries).
pub const RETRY_AFTER_MS: u64 = 50;

/// The largest greedy-tier [`solve_cost`] solved on the thread that
/// received the request. At the measured ~2 ns per greedy operation
/// that is about 8 µs — less than handing the job to a worker thread
/// and waking the shard with its answer. Cheaper greedy misses skip
/// the admission queue, so they are never shed or coalesced;
/// deliberately not configurable.
pub(crate) const INLINE_SOLVE_OPS: u64 = 4096;

/// Plans `instance` under `delay` with the solver tier selected by
/// `variant` and `policy`, polling `cancel` at solver checkpoints.
///
/// An exact solve (forced or auto-selected) cancelled mid-DP is
/// downgraded to the greedy tier — the fallback runs *without* the
/// token, since it is the cheap path and the response is more useful
/// than an error even slightly past the deadline.
///
/// # Errors
///
/// [`ServiceError::Unsupported`] when a forced exact plan exceeds
/// solver limits; [`ServiceError::BadRequest`] for an infeasible
/// bandwidth cap or invalid signature threshold;
/// [`ServiceError::Overloaded`] when a tier with no cheaper fallback
/// is cancelled by its deadline.
pub fn plan(
    instance: &Instance,
    delay: Delay,
    variant: Variant,
    policy: &TierPolicy,
    cancel: &CancelToken,
) -> Result<Plan, ServiceError> {
    let start = Instant::now();
    let (tier, downgraded, planned) = match (requested_tier(instance, variant, policy), variant) {
        (Tier::Exact, _) => match plan_exact(instance, delay, cancel) {
            Ok(planned) => (Tier::Exact, false, planned),
            Err(ServiceError::Overloaded { .. }) => {
                // Deadline fired mid-DP: degrade to greedy instead of
                // finishing the exact solve late.
                let fallback =
                    greedy_strategy_planned_cancel(instance, delay, &CancelToken::never())
                        .map_err(|e| ServiceError::Internal(e.to_string()))?;
                (Tier::Greedy, true, fallback)
            }
            Err(other) => return Err(other),
        },
        (tier, Variant::Bandwidth(cap)) => (
            tier,
            false,
            bandwidth::greedy_strategy_bounded_cancel(instance, delay, cap, cancel)
                .map_err(|e| map_solver_error(&e))?,
        ),
        (tier, Variant::Signature(k)) => (
            tier,
            false,
            signature::greedy_signature_cancel(instance, delay, k, cancel)
                .map_err(|e| map_solver_error(&e))?,
        ),
        (tier, _) => (
            tier,
            false,
            greedy_strategy_planned_cancel(instance, delay, cancel)
                .map_err(|e| map_solver_error(&e))?,
        ),
    };
    let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    Ok(Plan {
        strategy: planned.strategy,
        expected_paging: planned.expected_paging,
        tier,
        planning_micros: micros,
        downgraded,
    })
}

/// The tier `variant` asks for under `policy`, before any deadline
/// downgrade: `Auto` picks the exact optimum within the policy's size
/// limits and the Fig. 1 greedy beyond them.
fn requested_tier(instance: &Instance, variant: Variant, policy: &TierPolicy) -> Tier {
    match variant {
        Variant::Exact => Tier::Exact,
        Variant::Auto
            if instance.num_cells() <= policy.exact_max_cells
                && instance.num_devices() <= policy.exact_max_devices =>
        {
            Tier::Exact
        }
        Variant::Bandwidth(_) => Tier::Bandwidth,
        Variant::Signature(_) => Tier::Signature,
        _ => Tier::Greedy,
    }
}

/// The operation count of the solve [`plan`] would run, from the
/// paper's cost model: `c(m + d·c)` for the Fig. 1 greedy (Theorem
/// 4.8) and `m·2^c + d·3^c` for the exact subset DP (its per-device
/// prefix sums, then the submask chains), with `d` clamped to `c` as
/// both solvers do. `None` for the bandwidth and signature tiers,
/// which the model does not cover. Saturates instead of overflowing.
#[must_use]
pub(crate) fn solve_cost(
    instance: &Instance,
    delay: Delay,
    variant: Variant,
    policy: &TierPolicy,
) -> Option<u64> {
    let c = instance.num_cells() as u64;
    let m = instance.num_devices() as u64;
    let d = delay.clamp_to_cells(instance.num_cells()).get() as u64;
    match requested_tier(instance, variant, policy) {
        Tier::Greedy => Some(c.saturating_mul(m.saturating_add(d.saturating_mul(c)))),
        Tier::Exact => {
            let pow = |base: u64| {
                u32::try_from(c)
                    .ok()
                    .and_then(|c| base.checked_pow(c))
                    .unwrap_or(u64::MAX)
            };
            Some(
                m.saturating_mul(pow(2))
                    .saturating_add(d.saturating_mul(pow(3))),
            )
        }
        Tier::Bandwidth | Tier::Signature => None,
    }
}

/// Whether a solve is cheap enough to run on the calling thread: a
/// greedy-tier solve whose [`solve_cost`] is at most
/// [`INLINE_SOLVE_OPS`]. Only the greedy tier qualifies, because only
/// its per-operation cost is measured (`core.greedy.ns_per_op`) and
/// served by a benchmark workload; the exact DP's cost stays priced for
/// the stage check but always leaves the calling thread.
#[must_use]
pub(crate) fn solves_inline(
    instance: &Instance,
    delay: Delay,
    variant: Variant,
    policy: &TierPolicy,
) -> bool {
    requested_tier(instance, variant, policy) == Tier::Greedy
        && solve_cost(instance, delay, variant, policy).is_some_and(|ops| ops <= INLINE_SOLVE_OPS)
}

/// Maps a core solver error onto the wire surface: cancellation means
/// the server ran out of budget (overloaded), everything else is the
/// request's fault.
fn map_solver_error(error: &Error) -> ServiceError {
    match error {
        Error::Cancelled => ServiceError::Overloaded {
            retry_after_ms: RETRY_AFTER_MS,
        },
        other => ServiceError::BadRequest(other.to_string()),
    }
}

fn plan_exact(
    instance: &Instance,
    delay: Delay,
    cancel: &CancelToken,
) -> Result<pager_core::PlannedStrategy, ServiceError> {
    let c = instance.num_cells();
    if c > optimal::SUBSET_DP_MAX_CELLS {
        return Err(ServiceError::Unsupported(format!(
            "exact tier supports at most {} cells, got {c}",
            optimal::SUBSET_DP_MAX_CELLS
        )));
    }
    // The subset DP requires d <= c; clamp like the greedy tier does.
    let delay = delay.clamp_to_cells(c);
    optimal::optimal_subset_dp_cancel(instance, delay, cancel).map_err(|e| map_solver_error(&e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Instance {
        Instance::from_rows(vec![vec![0.4, 0.3, 0.2, 0.1], vec![0.1, 0.2, 0.3, 0.4]]).unwrap()
    }

    fn live() -> CancelToken {
        CancelToken::never()
    }

    #[test]
    fn the_exact_price_counts_devices_and_never_runs_inline() {
        let policy = TierPolicy::default();
        let d5 = Delay::new(5).unwrap();
        // Few cells, many devices: d·3^c alone (3,645) is under the
        // bound, but the per-device prefix sums are not.
        let wide = Instance::uniform(100_000, 6).unwrap();
        assert_eq!(
            solve_cost(&wide, d5, Variant::Exact, &policy),
            Some(100_000 * 64 + 5 * 729)
        );
        assert!(!solves_inline(&wide, d5, Variant::Exact, &policy));
        // Even a tiny exact solve leaves the calling thread.
        let d1 = Delay::new(1).unwrap();
        let tiny = Instance::uniform(1, 2).unwrap();
        assert_eq!(solve_cost(&tiny, d1, Variant::Exact, &policy), Some(4 + 9));
        assert!(!solves_inline(&tiny, d1, Variant::Exact, &policy));
        assert!(solves_inline(&tiny, d1, Variant::Greedy, &policy));
        // Saturates instead of overflowing.
        let huge = Instance::uniform(1, 64).unwrap();
        assert_eq!(
            solve_cost(&huge, d1, Variant::Exact, &policy),
            Some(u64::MAX)
        );
    }

    #[test]
    fn auto_dispatches_small_to_exact() {
        let p = plan(
            &small(),
            Delay::new(2).unwrap(),
            Variant::Auto,
            &TierPolicy::default(),
            &live(),
        )
        .unwrap();
        assert_eq!(p.tier, Tier::Exact);
        assert!(!p.downgraded);
        // The exact plan is at least as good as greedy.
        let g = plan(
            &small(),
            Delay::new(2).unwrap(),
            Variant::Greedy,
            &TierPolicy::default(),
            &live(),
        )
        .unwrap();
        assert_eq!(g.tier, Tier::Greedy);
        assert!(p.expected_paging <= g.expected_paging + 1e-12);
    }

    #[test]
    fn auto_dispatches_large_to_greedy() {
        let inst = Instance::uniform(3, 40).unwrap();
        let p = plan(
            &inst,
            Delay::new(4).unwrap(),
            Variant::Auto,
            &TierPolicy::default(),
            &live(),
        )
        .unwrap();
        assert_eq!(p.tier, Tier::Greedy);
        assert_eq!(p.strategy.num_cells(), 40);
    }

    #[test]
    fn forced_exact_rejects_oversized() {
        let inst = Instance::uniform(2, optimal::SUBSET_DP_MAX_CELLS + 1).unwrap();
        let err = plan(
            &inst,
            Delay::new(2).unwrap(),
            Variant::Exact,
            &TierPolicy::default(),
            &live(),
        )
        .unwrap_err();
        assert_eq!(err.code(), "unsupported");
        assert!(err.message().contains("exact tier"), "{err}");
    }

    #[test]
    fn bandwidth_variant_respects_cap() {
        let inst = Instance::uniform(2, 12).unwrap();
        let p = plan(
            &inst,
            Delay::new(4).unwrap(),
            Variant::Bandwidth(3),
            &TierPolicy::default(),
            &live(),
        )
        .unwrap();
        assert_eq!(p.tier, Tier::Bandwidth);
        assert!(p.strategy.group_sizes().iter().all(|&s| s <= 3));
        // Infeasible cap errors instead of panicking.
        let err = plan(
            &inst,
            Delay::new(2).unwrap(),
            Variant::Bandwidth(3),
            &TierPolicy::default(),
            &live(),
        )
        .unwrap_err();
        assert_eq!(err.code(), "bad_request");
    }

    #[test]
    fn signature_variant_plans() {
        let p = plan(
            &small(),
            Delay::new(2).unwrap(),
            Variant::Signature(1),
            &TierPolicy::default(),
            &live(),
        )
        .unwrap();
        assert_eq!(p.tier, Tier::Signature);
        assert!(p.expected_paging > 0.0);
        let err = plan(
            &small(),
            Delay::new(2).unwrap(),
            Variant::Signature(99),
            &TierPolicy::default(),
            &live(),
        )
        .unwrap_err();
        assert_eq!(err.code(), "bad_request");
    }

    #[test]
    fn expired_deadline_downgrades_exact_to_greedy() {
        // Big enough that the subset DP passes a checkpoint stride.
        let inst = Instance::uniform(2, 15).unwrap();
        let expired = CancelToken::with_timeout(std::time::Duration::ZERO);
        let p = plan(
            &inst,
            Delay::new(3).unwrap(),
            Variant::Exact,
            &TierPolicy::default(),
            &expired,
        )
        .unwrap();
        assert_eq!(p.tier, Tier::Greedy);
        assert!(p.downgraded);
        // The fallback really is the greedy plan.
        let g = plan(
            &inst,
            Delay::new(3).unwrap(),
            Variant::Greedy,
            &TierPolicy::default(),
            &live(),
        )
        .unwrap();
        assert_eq!(p.strategy, g.strategy);
    }

    #[test]
    fn expired_deadline_on_greedy_is_overloaded() {
        // Greedy has no cheaper fallback: a cancelled solve sheds.
        let inst = Instance::uniform(2, 200).unwrap();
        let expired = CancelToken::with_timeout(std::time::Duration::ZERO);
        let err = plan(
            &inst,
            Delay::new(8).unwrap(),
            Variant::Greedy,
            &TierPolicy::default(),
            &expired,
        )
        .unwrap_err();
        assert_eq!(err.code(), "overloaded");
    }
}
