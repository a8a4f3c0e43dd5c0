//! Fixture-regression tests: each seeded-violation workspace under
//! `tests/fixtures/` must keep tripping its rule. The fixtures are the
//! executable specification of the workspace passes — if a resolver or
//! summary change stops a seed from firing, the analysis has silently
//! lost coverage, not gained precision.
//!
//! Each fixture is a miniature workspace (`[workspace]` manifest plus
//! one seeded source file at a realistic path); the binary runs against
//! it read-only with `--root`, so no copying is needed.

use std::path::Path;
use std::process::Command;

/// Runs the binary over one fixture workspace, returning the exit code
/// and stdout.
fn run_fixture(name: &str) -> (i32, String) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    assert!(root.join("Cargo.toml").exists(), "missing fixture {name}");
    let output = Command::new(env!("CARGO_BIN_EXE_pager-lint"))
        .arg("--root")
        .arg(&root)
        .output()
        .expect("run pager-lint");
    (
        output.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

#[test]
fn blocking_call_two_levels_below_the_shard_loop_is_reported() {
    let (code, stdout) = run_fixture("reactor_blocking");
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("no-blocking-in-reactor"), "{stdout}");
    assert!(stdout.contains("`sleep`"), "{stdout}");
    // The chain proves reachability went through the helper, not a
    // same-file text match.
    assert!(
        stdout.contains("Shard::run → Shard::pump → backoff"),
        "{stdout}"
    );
}

#[test]
fn blocking_call_in_a_handler_is_reported_through_trait_fan_out() {
    let (code, stdout) = run_fixture("reactor_handler");
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stdout.contains("Shard::run → Shard::dispatch → Router::on_line → sleep"),
        "{stdout}"
    );
}

#[test]
fn unsafe_without_safety_and_stray_extern_are_reported() {
    let (code, stdout) = run_fixture("unsafe_audit");
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("unsafe-audit"), "{stdout}");
    assert!(stdout.contains("SAFETY"), "{stdout}");
    assert!(stdout.contains("outside the designated FFI"), "{stdout}");
}

#[test]
fn cross_function_lock_inversion_is_reported() {
    let (code, stdout) = run_fixture("lock_order");
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("lock-order"), "{stdout}");
    assert!(
        stdout.contains("calls `Pool::refill` which may acquire `queue` lock"),
        "{stdout}"
    );
}

#[test]
fn unpaired_release_store_and_relaxed_read_are_reported() {
    let (code, stdout) = run_fixture("atomics_pairing");
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("atomics-pairing"), "{stdout}");
    assert!(stdout.contains("Relaxed load of `epoch`"), "{stdout}");
}

#[test]
fn an_allow_that_suppresses_nothing_is_reported() {
    let (code, stdout) = run_fixture("unused_allow");
    assert_eq!(code, 1, "{stdout}");
    let unused: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("[unused-allow]"))
        .collect();
    // Only the stale marker: not the live one, not the doc example.
    assert_eq!(unused.len(), 1, "{stdout}");
    assert!(unused[0].contains("cost.rs:10:"), "{stdout}");
}
