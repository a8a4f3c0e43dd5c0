//! The v2 wire protocol's two budgets, checked under a counting global
//! allocator.
//!
//! Both tests drive the transport-independent per-message path the
//! engine runs for every message — `proto::handle_line` (v1) and
//! `proto::handle_frame` (v2) — with a steady-state cache-hit `plan`
//! request: a 3×4 instance at delay 2, planned once through
//! `handle_line` so every measured call hits the cache.
//!
//! - A cache-hit plan frame performs **zero** heap allocations. The
//!   check is on the absolute count over all measured iterations, not
//!   an average that could hide a slow leak. It holds in every build.
//! - v2 serves that frame at least 5× faster than v1 serves the same
//!   request as a JSON line. Release-only: a debug build measures
//!   about half the release ratio, too close to the bar to mean
//!   anything.
//!
//! ```text
//! cargo test --release --test wire_alloc
//! ```

use std::time::Instant;

use jsonio::Value;
use pager_core::{Delay, Instance};
use pager_service::{handle_frame, handle_line, PagerService, ServiceConfig};
use pager_wire::count_alloc;
use pager_wire::frame::{self, Split};
use pager_wire::{binary, PlanSpec};

#[global_allocator]
static ALLOC: count_alloc::CountingAlloc = count_alloc::CountingAlloc;

const WARMUP: usize = 500;
const ITERS: usize = 20_000;
/// The acceptance bar: v2 per-message serving must beat v1 by this.
const REQUIRED_SPEEDUP: f64 = 5.0;

const PLAN_LINE: &str = concat!(
    r#"{"id": 1, "instance": [[0.35, 0.25, 0.2, 0.2], "#,
    r#"[0.1, 0.4, 0.4, 0.1], [0.25, 0.25, 0.25, 0.25]], "delay": 2}"#
);

/// A service whose cache already holds the plan for [`PLAN_LINE`].
fn warm_service() -> PagerService {
    let svc = PagerService::new(ServiceConfig {
        workers: 2,
        capacity: 256,
        ..ServiceConfig::default()
    });
    let warm = handle_line(&svc, PLAN_LINE);
    assert!(warm.response.contains("\"ok\":true"), "{}", warm.response);
    svc
}

/// [`PLAN_LINE`]'s request as a v2 PLAN frame.
fn plan_frame() -> Vec<u8> {
    let instance = Instance::from_rows(vec![
        vec![0.35, 0.25, 0.2, 0.2],
        vec![0.1, 0.4, 0.4, 0.1],
        vec![0.25, 0.25, 0.25, 0.25],
    ])
    .unwrap();
    let spec = PlanSpec::new(Delay::new(2).unwrap());
    let mut wire = Vec::new();
    assert!(binary::encode_plan_request(
        &mut wire,
        &Value::Int(1),
        &instance,
        &spec
    ));
    wire
}

/// Runs `step` [`WARMUP`] times, then [`ITERS`] times under the
/// clock and this thread's allocation counter. Returns ns per call
/// and the total allocation count of the measured calls.
fn measure(mut step: impl FnMut()) -> (f64, u64) {
    for _ in 0..WARMUP {
        step();
    }
    count_alloc::reset();
    let started = Instant::now();
    for _ in 0..ITERS {
        step();
    }
    let elapsed = started.elapsed();
    let allocs = count_alloc::allocations();
    (elapsed.as_nanos() as f64 / ITERS as f64, allocs)
}

/// The v1 path: line in, line out.
fn serve_v1(svc: &PagerService) -> (f64, u64) {
    measure(|| {
        let outcome = handle_line(svc, PLAN_LINE);
        assert!(outcome.response.contains("\"ok\":true"));
    })
}

/// The v2 path for a cache-hit plan frame. The output buffer is
/// reused, exactly as the engine reuses its per-connection write
/// buffers.
fn serve_v2(svc: &PagerService) -> (f64, u64) {
    let wire = plan_frame();
    let Split::V2Frame { op, payload, .. } = frame::split(&wire) else {
        panic!("encoder produced a non-frame");
    };
    let mut out = Vec::with_capacity(4096);
    measure(|| {
        out.clear();
        let shutdown = handle_frame(svc, op, payload, &mut out);
        assert!(!shutdown && !out.is_empty());
    })
}

#[test]
fn cache_hit_plan_frame_allocates_nothing() {
    let svc = warm_service();
    let (_, total) = serve_v2(&svc);
    assert_eq!(
        total, 0,
        "a cache-hit v2 plan frame allocated {total} times in {ITERS} steady-state calls"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the speedup bar is release-only; run with --release"
)]
fn v2_frame_is_five_times_faster_than_v1_line() {
    let svc = warm_service();
    let (v1_ns, _) = serve_v1(&svc);
    let (v2_ns, _) = serve_v2(&svc);
    let speedup = v1_ns / v2_ns;
    assert!(
        speedup >= REQUIRED_SPEEDUP,
        "v2 per-message speedup {speedup:.2}x ({v1_ns:.0} ns vs {v2_ns:.0} ns) \
         is below {REQUIRED_SPEEDUP}x"
    );
}
