//! The typed answer bodies both codecs encode from: a plan, its
//! `plan_devices` extension, and an error. Control answers have no
//! body type; each is an ordered field list that rides the JSON
//! encoding on both protocols ([`crate::json::ok_line_with_id`]).
//!
//! Bodies *borrow* the service's state (strategy, id, node name):
//! responses are encoded immediately after the service produces a
//! result, so nothing is copied into an intermediate owned tree. The
//! JSON codec turns a body into exactly the line `proto.rs`
//! historically produced; the binary codec packs the same fields into
//! a flat v2 frame.

use jsonio::Value;
use pager_core::Strategy;

use crate::error::ErrorCode;

/// The fields shared by `plan` and `plan_devices` answers.
#[derive(Debug, Clone, Copy)]
pub struct PlanBody<'a> {
    /// Opaque id echoed from the request.
    pub id: &'a Value,
    /// The paging strategy.
    pub strategy: &'a Strategy,
    /// Expected number of cells paged.
    pub expected_paging: f64,
    /// Stable name of the solver tier that produced the plan.
    pub tier: &'static str,
    /// The exact solve was abandoned at its deadline and re-planned
    /// greedily.
    pub downgraded: bool,
    /// Served straight from the cache.
    pub cached: bool,
    /// Joined an identical in-flight computation.
    pub coalesced: bool,
    /// Wall-clock planning time.
    pub planning_micros: u64,
}

/// The extra fields a `plan_devices` answer appends to [`PlanBody`].
#[derive(Debug, Clone, Copy)]
pub struct DeviceExt<'a> {
    /// Stable name of the estimator the rows were built with.
    pub estimator: &'static str,
    /// The clock the distributions were evaluated at.
    pub now: f64,
    /// Per-device profile versions, request order.
    pub versions: &'a [u64],
    /// Devices whose staleness weight was below ½.
    pub stale_profiles: u64,
}

/// An error answer.
#[derive(Debug, Clone, Copy)]
pub struct ErrorBody<'a> {
    /// Opaque id echoed from the request (`Null` when parsing failed
    /// before an id was seen).
    pub id: &'a Value,
    /// The stable code.
    pub code: ErrorCode,
    /// The human-readable message.
    pub message: &'a str,
    /// Back-off hint, present exactly for [`ErrorCode::Overloaded`].
    pub retry_after_ms: Option<u64>,
}
