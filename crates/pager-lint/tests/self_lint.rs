//! The workspace must lint clean: zero findings, and no more
//! suppressions than the current baseline.
//!
//! This is the same check CI runs. If it fails after your change, fix
//! the finding; a justified `// lint:allow(rule): reason` is only room
//! under the ceiling, which may go down but not up.

use pager_lint::lint_workspace;
use std::path::Path;

/// The most `lint:allow` suppressions the workspace may carry.
const MAX_SUPPRESSED: usize = 10;

#[test]
fn workspace_has_no_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/pager-lint")
        .to_path_buf();
    let report = lint_workspace(&root).expect("lint run");
    assert!(
        report.files_scanned > 50,
        "scanned only {} files",
        report.files_scanned
    );
    let findings: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.excerpt))
        .collect();
    assert!(
        findings.is_empty(),
        "lint findings:\n{}",
        findings.join("\n")
    );
    let allowed: Vec<String> = report
        .allowed
        .iter()
        .map(|f| format!("{}:{}: [{}]", f.file, f.line, f.rule))
        .collect();
    assert!(
        allowed.len() <= MAX_SUPPRESSED,
        "{} suppressions, ceiling {MAX_SUPPRESSED}:\n{}",
        allowed.len(),
        allowed.join("\n")
    );
}
