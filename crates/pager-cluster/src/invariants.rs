//! The cluster invariant checker: drive traffic through a fault
//! schedule, then audit the safety properties.
//!
//! [`check_under_schedule`] runs a [`pager_chaos::Schedule`] against a
//! chaos-wired [`Cluster`] while concurrent clients push a mixed
//! observe/plan workload through the router, and asserts afterwards:
//!
//! 1. **No acked sighting lost** — for every device, the highest
//!    profile version the router ever acked is servable after heal:
//!    a `plan_devices` for the device reports a version at least that
//!    high. (Ship-before-ack is exactly this promise.)
//! 2. **No profile-version regression on served plans** — a plan
//!    served *at any point during the chaos* must carry a version no
//!    lower than the versions acked to that client before it asked.
//!    Un-acked versions may regress across a failover (the owner died
//!    before shipping); acked ones may not.
//! 3. **Epochs converge after heal** — after one `epoch` anti-entropy
//!    nudge through the router, every backend the routing table still
//!    references reports the router's membership epoch. (The nudge is
//!    required: a node that was blackholed during a promotion missed
//!    the promotion-time fanout and has no other way to learn.)
//! 4. **Deadline honesty** — every request is answered (success or
//!    honest error) within its deadline budget plus a bounded slack
//!    (one backoff tick plus one bounded socket operation), even while
//!    a backend is blackholed. A half-open link costs a timeout, not a
//!    parked client.
//!
//! Violations are collected, not panicked, so a seeded matrix can
//! report every broken property of a failing seed at once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use jsonio::Value;
use pager_chaos::Schedule;

use crate::harness::Cluster;

/// Tuning for one checker run.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Concurrent client threads.
    pub threads: usize,
    /// Devices per thread (each thread owns a private device set, so
    /// per-device version tracking needs no cross-thread order).
    pub devices_per_thread: usize,
    /// `deadline_ms` stamped on every request.
    pub deadline_ms: u64,
    /// Allowed overshoot past the deadline: one backoff tick plus one
    /// bounded socket operation plus scheduling noise.
    pub deadline_slack_ms: u64,
    /// Device-name prefix; seed-scope it (`chaos-s17`) when reusing
    /// one cluster across runs so version histories stay disjoint.
    pub namespace: String,
    /// How long traffic keeps flowing after the schedule's last step
    /// before the final audit (lets in-flight retries resolve).
    pub settle_ms: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            threads: 4,
            devices_per_thread: 4,
            deadline_ms: 2000,
            deadline_slack_ms: 400,
            namespace: "chaos".to_string(),
            settle_ms: 400,
        }
    }
}

/// What one checker run observed.
#[derive(Debug, Default)]
pub struct InvariantReport {
    /// Requests issued through the router.
    pub requests: u64,
    /// Observe requests acked (`ok: true`).
    pub acked_sightings: u64,
    /// Plans served (`ok: true`).
    pub served_plans: u64,
    /// Requests answered with an honest error (never a hang).
    pub honest_errors: u64,
    /// Slowest request seen.
    pub max_latency: Duration,
    /// Every broken invariant, human-readable. Empty = run passed.
    pub violations: Vec<String>,
}

impl InvariantReport {
    /// Whether every invariant held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// What one traffic thread brings home.
#[derive(Debug, Default)]
struct ThreadOutcome {
    requests: u64,
    acked: u64,
    served: u64,
    honest_errors: u64,
    max_latency: Duration,
    violations: Vec<String>,
    /// `(device, highest acked version)` for the final durability audit.
    acked_versions: Vec<(String, u64)>,
}

/// Runs `schedule` against the cluster's chaos links under load and
/// audits the invariants. Errors only on misuse (no chaos net); broken
/// invariants land in the report.
pub fn check_under_schedule(
    cluster: &Cluster,
    schedule: &Schedule,
    config: &CheckConfig,
) -> Result<InvariantReport, String> {
    let net = cluster
        .chaos()
        .ok_or_else(|| "cluster has no chaos net (topology.chaos unset)".to_string())?;
    let stop = AtomicBool::new(false);
    let outcomes: Mutex<Vec<ThreadOutcome>> = Mutex::new(Vec::new());
    let matched = std::thread::scope(|scope| {
        let driver = scope.spawn(|| net.run_schedule(schedule));
        for t in 0..config.threads {
            let stop = &stop;
            let outcomes = &outcomes;
            scope.spawn(move || {
                let outcome = traffic_thread(cluster, config, t, stop);
                outcomes
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(outcome);
            });
        }
        let matched = driver.join().unwrap_or_default();
        std::thread::sleep(Duration::from_millis(config.settle_ms));
        stop.store(true, Ordering::Release);
        matched
    });

    let mut report = InvariantReport::default();
    for (idx, count) in matched.iter().enumerate() {
        if *count == 0 {
            report.violations.push(format!(
                "schedule step {idx} matched no links (pattern typo?)"
            ));
        }
    }
    let mut acked_versions: Vec<(String, u64)> = Vec::new();
    for outcome in outcomes.lock().unwrap_or_else(|e| e.into_inner()).drain(..) {
        report.requests += outcome.requests;
        report.acked_sightings += outcome.acked;
        report.served_plans += outcome.served;
        report.honest_errors += outcome.honest_errors;
        report.max_latency = report.max_latency.max(outcome.max_latency);
        report.violations.extend(outcome.violations);
        acked_versions.extend(outcome.acked_versions);
    }

    // The schedule may or may not end healed; the audit needs working
    // links either way.
    net.heal_all();
    audit_epoch_convergence(cluster, &mut report);
    audit_acked_durability(cluster, config, &acked_versions, &mut report);
    Ok(report)
}

/// One client: interleaved observe/plan against a private device set,
/// tracking acked versions and checking deadline honesty and served
/// version floors inline.
fn traffic_thread(
    cluster: &Cluster,
    config: &CheckConfig,
    thread: usize,
    stop: &AtomicBool,
) -> ThreadOutcome {
    const CELLS: usize = 8;
    let mut outcome = ThreadOutcome::default();
    let devices: Vec<String> = (0..config.devices_per_thread.max(1))
        .map(|d| format!("{}-t{thread}-d{d}", config.namespace))
        .collect();
    let shard_count = cluster.router.shard_count();
    // Highest version acked per device, parallel to `devices`, plus a
    // short history of `(version, owners)` per device — each shard's
    // owning backend index just after the ack. An in-memory diagnostic
    // trail dumped only into violation messages (logging on the hot
    // path perturbs timing enough to mask races).
    let mut max_acked: Vec<u64> = vec![0; devices.len()];
    let mut ack_trail: Vec<Vec<(u64, Vec<usize>)>> = vec![Vec::new(); devices.len()];
    const TRAIL: usize = 12;
    let allowance = Duration::from_millis(config.deadline_ms + config.deadline_slack_ms);
    let mut clock: u64 = 0;
    let mut i: usize = 0;
    while !stop.load(Ordering::Acquire) {
        i += 1;
        let d = i % devices.len();
        let device = &devices[d];
        let plan_turn = i.is_multiple_of(3) && max_acked[d] > 0;
        let line = if plan_turn {
            format!(
                r#"{{"cmd": "plan_devices", "id": {i}, "devices": ["{device}"], "delay": 2, "deadline_ms": {}}}"#,
                config.deadline_ms
            )
        } else {
            clock += 1;
            format!(
                r#"{{"cmd": "observe", "cells": {CELLS}, "deadline_ms": {deadline}, "sightings": [{{"device": "{device}", "cell": {cell}, "time": {clock}.0}}]}}"#,
                deadline = config.deadline_ms,
                cell = i % CELLS,
            )
        };
        let begin = Instant::now();
        let value = cluster.request(&line);
        let elapsed = begin.elapsed();
        outcome.requests += 1;
        outcome.max_latency = outcome.max_latency.max(elapsed);
        if elapsed > allowance {
            outcome.violations.push(format!(
                "request exceeded its deadline budget: {}ms > {}ms + {}ms slack ({line})",
                elapsed.as_millis(),
                config.deadline_ms,
                config.deadline_slack_ms,
            ));
        }
        let ok = value.get("ok").and_then(Value::as_bool) == Some(true);
        if !ok {
            // An honest, in-budget error is chaos working as intended.
            outcome.honest_errors += 1;
            continue;
        }
        if plan_turn {
            outcome.served += 1;
            let served = value
                .get("profile_versions")
                .and_then(Value::as_array)
                .and_then(|v| v.first())
                .and_then(Value::as_u64)
                .unwrap_or(0);
            if served < max_acked[d] {
                outcome.violations.push(format!(
                    "plan for {device} served profile version {served} below acked {} \
                     (ack trail (version, owners): {:?}, serve reply: {value})",
                    max_acked[d], ack_trail[d],
                ));
            }
        } else {
            outcome.acked += 1;
            if let Some(version) = value
                .get("versions")
                .and_then(|v| v.get(device.as_str()))
                .and_then(Value::as_u64)
            {
                if version > max_acked[d] {
                    max_acked[d] = version;
                }
                // Which backend the routing table credits as each
                // shard's owner just after the ack.
                let owners = (0..shard_count)
                    .map(|shard| cluster.router.shard_snapshot(shard).0)
                    .collect();
                if ack_trail[d].len() == TRAIL {
                    ack_trail[d].remove(0);
                }
                ack_trail[d].push((version, owners));
            }
        }
    }
    outcome.acked_versions = devices
        .into_iter()
        .zip(max_acked)
        .filter(|(_, v)| *v > 0)
        .collect();
    outcome
}

/// Invariant 3: after heal and one `epoch` nudge, every backend the
/// routing table references agrees with the router's epoch.
fn audit_epoch_convergence(cluster: &Cluster, report: &mut InvariantReport) {
    // One anti-entropy nudge: the router re-fans its epoch to every
    // backend it still references (a node blackholed during promotion
    // missed the original fanout).
    let nudge = format!(r#"{{"cmd": "epoch", "epoch": {}}}"#, cluster.router.epoch());
    let _ = cluster.request(&nudge);
    let shard_count = cluster
        .nodes
        .iter()
        .map(|n| n.shard)
        .max()
        .map_or(0, |m| m + 1);
    let mut referenced: Vec<usize> = Vec::new();
    for shard in 0..shard_count {
        let (owner, replicas, _) = cluster.router.shard_snapshot(shard);
        if !referenced.contains(&owner) {
            referenced.push(owner);
        }
        for r in replicas {
            if !referenced.contains(&r) {
                referenced.push(r);
            }
        }
    }
    let settle_by = Instant::now() + Duration::from_secs(5);
    let mut laggards: Vec<String> = Vec::new();
    loop {
        let want = cluster.router.epoch();
        laggards.clear();
        for &idx in &referenced {
            let seen = cluster
                .node_info(idx)
                .ok()
                .and_then(|v| v.get("epoch").and_then(Value::as_u64));
            if seen != Some(want) {
                laggards.push(format!(
                    "{} at {:?} (want {want})",
                    cluster.nodes[idx].node_id, seen
                ));
            }
        }
        if laggards.is_empty() {
            return;
        }
        if Instant::now() >= settle_by {
            report.violations.push(format!(
                "epochs did not converge after heal: {}",
                laggards.join(", ")
            ));
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Invariant 1: every acked version is servable after heal.
fn audit_acked_durability(
    cluster: &Cluster,
    config: &CheckConfig,
    acked_versions: &[(String, u64)],
    report: &mut InvariantReport,
) {
    let settle_by = Instant::now() + Duration::from_secs(10);
    for (device, acked) in acked_versions {
        let line = format!(
            r#"{{"cmd": "plan_devices", "devices": ["{device}"], "delay": 2, "deadline_ms": {}}}"#,
            config.deadline_ms
        );
        // Retry while the cluster finishes settling (breakers closing,
        // pools re-dialing); the invariant is about the settled state.
        loop {
            let value = cluster.request(&line);
            if value.get("ok").and_then(Value::as_bool) == Some(true) {
                let served = value
                    .get("profile_versions")
                    .and_then(Value::as_array)
                    .and_then(|v| v.first())
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                if served < *acked {
                    report.violations.push(format!(
                        "after heal, {device} serves version {served} below acked {acked} \
                         (serve reply: {value})"
                    ));
                }
                break;
            }
            if Instant::now() >= settle_by {
                report.violations.push(format!(
                    "after heal, acked device {device} is not servable: {value}"
                ));
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    }
}
