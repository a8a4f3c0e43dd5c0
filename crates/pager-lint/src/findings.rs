//! Findings and reports.

use jsonio::Value;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (kebab-case name, e.g. `no-float-eq`).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The trimmed source line.
    pub excerpt: String,
}

impl Finding {
    /// JSON form for `--json` output.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("rule", Value::from(self.rule)),
            ("file", Value::from(self.file.as_str())),
            ("line", Value::from(u64::from(self.line))),
            ("message", Value::from(self.message.as_str())),
            ("excerpt", Value::from(self.excerpt.as_str())),
        ])
    }
}

/// Everything one lint run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings that were not suppressed inline, in file order.
    pub findings: Vec<Finding>,
    /// Findings suppressed by `lint:allow` markers (kept for `--json`
    /// visibility and the suppression-count summary).
    pub allowed: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
}
