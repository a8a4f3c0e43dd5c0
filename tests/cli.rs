//! Integration tests for the `pager` CLI binary.

use std::process::Command;

fn pager() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pager"))
}

fn write_demo() -> tempfile_path::TempPath {
    tempfile_path::write(
        "# the Section 4.3 lower-bound instance\n\
         2/7 1/7 1/7 1/7 1/7 1/7 0 0\n\
         0   1/7 1/7 1/7 1/7 1/7 1/7 1/7\n",
    )
}

/// Minimal temp-file helper (keeps the workspace dependency-free).
mod tempfile_path {
    use std::path::PathBuf;

    pub struct TempPath(pub PathBuf);

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    pub fn write(content: &str) -> TempPath {
        let mut path = std::env::temp_dir();
        let unique = format!(
            "pager-cli-test-{}-{:?}.txt",
            std::process::id(),
            std::thread::current().id()
        );
        path.push(unique);
        std::fs::write(&path, content).expect("temp file written");
        TempPath(path)
    }
}

#[test]
fn greedy_plan_reports_exact_fraction() {
    let file = write_demo();
    let out = pager()
        .arg(&file.0)
        .args(["--delay", "2", "--exact"])
        .output()
        .expect("pager runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("320/49"), "{stdout}");
    assert!(stdout.contains("2 devices x 8 cells"), "{stdout}");
}

#[test]
fn optimal_algorithm_finds_317_49() {
    let file = write_demo();
    let out = pager()
        .arg(&file.0)
        .args(["--delay", "2", "--algorithm", "optimal", "--exact"])
        .output()
        .expect("pager runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("317/49"), "{stdout}");
}

#[test]
fn evaluate_mode_scores_a_given_strategy() {
    let file = write_demo();
    let out = pager()
        .arg(&file.0)
        .args(["--evaluate", "1,2,3,4,5 | 0,6,7", "--exact"])
        .output()
        .expect("pager runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("317/49"), "{stdout}");
}

#[test]
fn signature_mode_runs() {
    let file = write_demo();
    let out = pager()
        .arg(&file.0)
        .args(["--delay", "3", "--signature", "1"])
        .output()
        .expect("pager runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("signature(k=1)"), "{stdout}");
}

#[test]
fn compare_mode_lists_algorithms() {
    let file = write_demo();
    let out = pager()
        .arg(&file.0)
        .args(["--delay", "3", "--compare"])
        .output()
        .expect("pager runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for needle in ["greedy", "fig1", "optimal", "adaptive"] {
        assert!(stdout.contains(needle), "{stdout}");
    }
}

#[test]
fn report_mode_prints_breakdown() {
    let file = write_demo();
    let out = pager()
        .arg(&file.0)
        .args(["--delay", "3", "--report"])
        .output()
        .expect("pager runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Pr[stop]"), "{stdout}");
    assert!(stdout.contains("expected rounds"), "{stdout}");
}

#[test]
fn missing_file_fails_cleanly() {
    let out = pager()
        .arg("/definitely/not/a/file.txt")
        .output()
        .expect("pager runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn bad_arguments_print_usage() {
    let out = pager().arg("--nonsense").output().expect("pager runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn bad_strategy_spec_rejected() {
    let file = write_demo();
    // A duplicate, and cell indices far past the instance: each must
    // be a clean error (exit 1), not a panic or a huge allocation.
    for spec in ["0,0 | 1", "0 | 18446744073709551615", "0 | 100000000000"] {
        let out = pager()
            .arg(&file.0)
            .args(["--evaluate", spec])
            .output()
            .expect("pager runs");
        assert_eq!(out.status.code(), Some(1), "{spec}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("bad strategy spec"), "{spec}: {stderr}");
    }
}
