//! Crash-recovery integration test: SIGKILL the real `pager-serve`
//! process mid-ingest and prove the acked-write guarantee end to end.
//!
//! The server runs with `--data-dir` and `--fsync always`, so every
//! `observe` response is an ack that the sightings hit stable storage.
//! The test records what was acked, kills the process without warning
//! (no drain, no flush — `SIGKILL` is the whole point), restarts on
//! the same directory, and asserts that every acked sighting is back
//! and the version counter never regresses.

mod common;

use std::path::PathBuf;

use common::{Connection, Server};
use jsonio::Value;

impl Server {
    /// SIGKILL — no drain, no shutdown handshake, no flush.
    fn kill_hard(&mut self) {
        let mut child = self.child.take().expect("child already taken");
        child.kill().expect("kill server");
        child.wait().expect("reap server");
    }
}

impl Connection {
    /// Sends one observe batch; returns the acked `device -> version`
    /// map.
    fn observe(&mut self, cells: usize, sightings: &[(String, usize, f64)]) -> Vec<(String, u64)> {
        let body: Vec<String> = sightings
            .iter()
            .map(|(device, cell, time)| {
                format!(r#"{{"device": "{device}", "cell": {cell}, "time": {time}}}"#)
            })
            .collect();
        let request = format!(
            r#"{{"cmd": "observe", "cells": {cells}, "sightings": [{}]}}"#,
            body.join(", ")
        );
        let response = self.round_trip(&request);
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "observe refused: {response}"
        );
        let versions = response
            .get("versions")
            .and_then(Value::as_object)
            .expect("versions map");
        versions
            .iter()
            .map(|(device, v)| (device.clone(), v.as_u64().expect("integer version")))
            .collect()
    }
}

/// A scratch data directory unique to this test process.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pager-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// SIGKILL mid-ingest: everything acked before the kill is recovered,
/// the recovery banner accounts for it, and versions stay strictly
/// monotone across the restart.
#[test]
fn sigkill_loses_no_acked_sightings() {
    let data_dir = scratch_dir("sigkill");
    let dir_arg = data_dir.to_str().expect("utf8 temp path");
    let args = [
        "--data-dir",
        dir_arg,
        "--fsync",
        "always",
        "--checkpoint-every",
        "0",
    ];
    let mut server = Server::spawn(&args);
    assert!(
        server
            .preamble
            .iter()
            .any(|l| l.contains("recovered generation 0")),
        "fresh durable server must report recovery: {:?}",
        server.preamble
    );

    // Ingest a burst of acked sightings: 8 devices, 5 rounds each.
    const CELLS: usize = 6;
    const DEVICES: usize = 8;
    const ROUNDS: usize = 5;
    let mut conn = server.connect();
    let mut acked: Vec<(String, u64)> = Vec::new();
    for round in 0..ROUNDS {
        let batch: Vec<(String, usize, f64)> = (0..DEVICES)
            .map(|d| {
                (
                    format!("device-{d}"),
                    (d + round) % CELLS,
                    round as f64 + 1.0,
                )
            })
            .collect();
        acked.extend(conn.observe(CELLS, &batch));
    }
    assert_eq!(acked.len(), DEVICES * ROUNDS);
    let max_acked_version = acked.iter().map(|(_, v)| *v).max().expect("acked versions");

    // Pull the plug, then restart on the same directory.
    server.kill_hard();
    let server = Server::spawn(&args);
    let replayed = format!("{} WAL records replayed", DEVICES * ROUNDS);
    assert!(
        server.preamble.iter().any(|l| l.contains(&replayed)),
        "recovery banner must account for every acked record: {:?}",
        server.preamble
    );

    // Every acked device is known again, and the version counter
    // resumes past everything acked before the crash.
    let mut conn = server.connect();
    let stats = conn.round_trip(r#"{"cmd": "profile_stats"}"#);
    let profiles = stats.get("profiles").expect("profiles payload");
    assert_eq!(
        profiles.get("devices").and_then(Value::as_u64),
        Some(DEVICES as u64),
        "devices lost across SIGKILL: {stats}"
    );
    assert_eq!(
        profiles.get("degraded").and_then(Value::as_bool),
        Some(false),
        "healthy restart must not be degraded: {stats}"
    );
    let bump = conn.observe(CELLS, &[("device-0".to_string(), 0, ROUNDS as f64 + 10.0)]);
    assert!(
        bump[0].1 > max_acked_version,
        "version regressed across restart: {} after acking {max_acked_version}",
        bump[0].1
    );

    // Planning works against the recovered profiles.
    let plan = conn.round_trip(
        r#"{"cmd": "plan_devices", "id": 1, "devices": ["device-0", "device-1"], "delay": 2, "estimator": "empirical"}"#,
    );
    assert_eq!(
        plan.get("ok").and_then(Value::as_bool),
        Some(true),
        "planning failed on recovered profiles: {plan}"
    );

    let stop = conn.round_trip(r#"{"cmd": "shutdown"}"#);
    assert_eq!(stop.get("stopping").and_then(Value::as_bool), Some(true));
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// SIGKILL after a checkpoint: recovery comes back from the rotated
/// snapshot generation, replaying only the post-checkpoint tail, and
/// still loses nothing.
#[test]
fn sigkill_after_checkpoint_recovers_from_the_snapshot() {
    let data_dir = scratch_dir("checkpoint");
    let dir_arg = data_dir.to_str().expect("utf8 temp path");
    let args = [
        "--data-dir",
        dir_arg,
        "--fsync",
        "always",
        "--checkpoint-every",
        "4",
        "--workers",
        "2",
    ];
    let mut server = Server::spawn(&args);
    let mut conn = server.connect();
    const CELLS: usize = 4;
    for i in 0..12usize {
        conn.observe(
            CELLS,
            &[(format!("dev-{}", i % 3), i % CELLS, i as f64 + 1.0)],
        );
    }
    // Wait (bounded) for a background checkpoint to land on disk.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let rotated = std::fs::read_dir(&data_dir)
            .map(|entries| {
                entries.flatten().any(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    name.starts_with("snapshot.") && !name.starts_with("snapshot.0")
                })
            })
            .unwrap_or(false);
        if rotated {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no checkpoint landed within 10s"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    server.kill_hard();
    let server = Server::spawn(&args);
    assert!(
        server
            .preamble
            .iter()
            .any(|l| l.contains("snapshot") && !l.contains("recovered generation 0")),
        "recovery must come from a rotated generation: {:?}",
        server.preamble
    );
    let mut conn = server.connect();
    let stats = conn.round_trip(r#"{"cmd": "profile_stats"}"#);
    let profiles = stats.get("profiles").expect("profiles payload");
    assert_eq!(
        profiles.get("devices").and_then(Value::as_u64),
        Some(3),
        "devices lost across checkpointed SIGKILL: {stats}"
    );
    let stop = conn.round_trip(r#"{"cmd": "shutdown"}"#);
    assert_eq!(stop.get("stopping").and_then(Value::as_bool), Some(true));
    let _ = std::fs::remove_dir_all(&data_dir);
}
