//! End-to-end tests of the `pager-lint` binary: exit codes, JSON
//! output, and detection of seeded violations.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Builds a minimal fixture workspace and returns its root.
fn fixture_workspace(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pager-lint-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let src = dir.join("crates/pager-core/src");
    std::fs::create_dir_all(&src).expect("mkdir fixture");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::write(
        src.join("lib.rs"),
        "pub fn safe(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n",
    )
    .expect("write lib");
    dir
}

fn run(root: &Path, args: &[&str]) -> (i32, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_pager-lint"))
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("run pager-lint");
    (
        output.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn clean_tree_exits_zero_and_seeded_violations_fail() {
    let root = fixture_workspace("seed");

    // Clean tree: exit 0.
    let (code, _, stderr) = run(&root, &[]);
    assert_eq!(code, 0, "{stderr}");

    // Seed a float-eq violation: exit 1 and the finding is reported.
    let bad = root.join("crates/pager-core/src/bad.rs");
    std::fs::write(&bad, "pub fn eq(a: f64, b: f64) -> bool { a == b }\n").expect("write bad");
    let (code, stdout, _) = run(&root, &[]);
    assert_eq!(code, 1);
    assert!(stdout.contains("no-float-eq"), "{stdout}");

    // With that fixed, a different violation still fails: nested
    // locks acquired against the declared order.
    std::fs::remove_file(&bad).expect("remove bad");
    std::fs::write(
        root.join("crates/pager-core/src/locks.rs"),
        "pub fn bad(a: &S) {\n    let t = a.latest_time.lock().unwrap();\n    \
         let s = a.shard_for(0).lock().unwrap();\n    drop(s);\n    drop(t);\n}\n",
    )
    .expect("write locks");
    let (code, stdout, _) = run(&root, &[]);
    assert_eq!(code, 1);
    assert!(stdout.contains("lock-order"), "{stdout}");

    std::fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn json_output_is_machine_readable() {
    let root = fixture_workspace("json");
    std::fs::write(
        root.join("crates/pager-core/src/bad.rs"),
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )
    .expect("write bad");
    let (code, stdout, _) = run(&root, &["--json"]);
    assert_eq!(code, 1);
    let doc = jsonio::parse(&stdout).expect("valid JSON");
    assert_eq!(
        doc.get("format").and_then(jsonio::Value::as_str),
        Some("pager-lint/v1")
    );
    let new = doc
        .get("new_findings")
        .and_then(jsonio::Value::as_array)
        .expect("new_findings array");
    assert_eq!(new.len(), 1);
    assert!(doc.get("baselined").is_none(), "{stdout}");
    assert_eq!(
        new[0].get("rule").and_then(jsonio::Value::as_str),
        Some("no-unwrap-outside-tests")
    );
    std::fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn usage_errors_exit_two() {
    let root = fixture_workspace("usage");
    for flag in ["--no-such-flag", "--write-baseline"] {
        let (code, _, stderr) = run(&root, &[flag]);
        assert_eq!(code, 2, "{flag}");
        assert!(stderr.contains("unknown argument"), "{flag}: {stderr}");
    }
    std::fs::remove_dir_all(&root).expect("cleanup");
}
