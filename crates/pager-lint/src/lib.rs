//! pager-lint: the workspace-native static-analysis pass.
//!
//! A pure-std linter (no `syn`, no network) that enforces the
//! workspace's own invariants on top of rustc/clippy: float-comparison
//! discipline, no panicking escape hatches on the serving path, audited
//! atomic orderings, validated `Instance` construction, the global
//! lock-acquisition order, and — since v2 — interprocedural facts: no
//! blocking APIs reachable from reactor shard threads, audited unsafe
//! and FFI, cross-function lock inversions, and Release/Acquire atomic
//! pairing. See DESIGN.md §9 for the architecture and rule catalog.
//!
//! The v2 pipeline is two passes:
//!
//! 1. **per file**: [`lexer::lex`] → shared analyses
//!    ([`rules::test_regions`], [`rules::fn_spans`]) → per-file rules
//!    ([`rules::run_all`]) and the file's [`ir::FileIr`];
//! 2. **workspace**: the per-file IRs feed a [`callgraph::CallGraph`],
//!    function summaries propagate over it ([`summary`]), and the
//!    interprocedural rules run ([`rules::run_workspace`]).
//!
//! Findings from both passes flow through the inline suppression
//! filter ([`suppress::Allows`]); a marker that filtered nothing is a
//! finding of its own, and any finding left fails the run.

pub mod callgraph;
pub mod config;
pub mod findings;
pub mod ir;
pub mod lexer;
pub mod rules;
pub mod summary;
pub mod suppress;
pub mod walk;

use config::Policy;
use findings::Report;
use std::path::Path;

/// One analysed file, retained for the workspace pass.
pub struct FileAnalysis {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Raw source lines (owned, for excerpts after pass 1).
    pub lines: Vec<String>,
    /// The lexed code tokens.
    pub tokens: Vec<lexer::Token>,
    /// The comments (for `SAFETY:` adjacency checks).
    pub comments: Vec<lexer::Comment>,
    /// Inline `lint:allow` markers.
    pub allows: suppress::Allows,
    /// `#[cfg(test)]` line regions.
    pub test_regions: Vec<(u32, u32)>,
    /// The file's IR (functions, calls, locks, atomics, unsafe, FFI).
    pub ir: ir::FileIr,
}

impl callgraph::FileLike for FileAnalysis {
    fn path(&self) -> &str {
        &self.path
    }
    fn ir(&self) -> &ir::FileIr {
        &self.ir
    }
}

/// Lints one file's source with the *per-file* rules, splitting
/// results into kept and inline-suppressed findings. Workspace rules
/// (reachability, summaries) need [`lint_workspace`].
#[must_use]
pub fn lint_source(
    path: &str,
    source: &str,
    policy: &Policy,
) -> (Vec<findings::Finding>, Vec<findings::Finding>) {
    let (_analysis, kept, allowed) = analyze_file(path, source, policy);
    (kept, allowed)
}

/// Pass 1 for one file: per-file rules plus the retained analysis.
fn analyze_file(
    path: &str,
    source: &str,
    policy: &Policy,
) -> (FileAnalysis, Vec<findings::Finding>, Vec<findings::Finding>) {
    let lexed = lexer::lex(source);
    let lines: Vec<&str> = source.lines().collect();
    let regions = rules::test_regions(&lexed.tokens);
    let spans = rules::fn_spans(&lexed.tokens);
    let ctx = rules::FileContext {
        path,
        tokens: &lexed.tokens,
        lines: &lines,
        test_regions: &regions,
        fn_spans: &spans,
        policy,
    };
    let allows = suppress::Allows::collect(&lexed.comments);
    let (kept, allowed) = rules::run_all(&ctx)
        .into_iter()
        .partition(|f| !allows.covers(f.rule, f.line));
    let analysis = FileAnalysis {
        path: path.to_string(),
        lines: source.lines().map(str::to_string).collect(),
        ir: ir::build(&lexed.tokens),
        tokens: lexed.tokens,
        comments: lexed.comments,
        allows,
        test_regions: regions,
    };
    (analysis, kept, allowed)
}

/// Lints every `.rs` file under `root`: pass 1 per file, then the
/// workspace pass over the call graph.
///
/// # Errors
///
/// A message on unreadable files or directories.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let files =
        walk::collect_rust_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let policy = Policy;
    let mut report = Report::default();
    let mut analyses = Vec::with_capacity(files.len());
    for file in files {
        let source = std::fs::read_to_string(root.join(&file))
            .map_err(|e| format!("reading {file}: {e}"))?;
        let (analysis, kept, allowed) = analyze_file(&file, &source, &policy);
        report.findings.extend(kept);
        report.allowed.extend(allowed);
        report.files_scanned += 1;
        analyses.push(analysis);
    }

    let graph = callgraph::CallGraph::build(&analyses);
    let ws = rules::WorkspaceContext {
        files: &analyses,
        graph: &graph,
        policy: &policy,
    };
    for finding in rules::run_workspace(&ws) {
        let allowed = analyses
            .iter()
            .find(|a| a.path == finding.file)
            .is_some_and(|a| a.allows.covers(finding.rule, finding.line));
        if allowed {
            report.allowed.push(finding);
        } else {
            report.findings.push(finding);
        }
    }
    for (fi, analysis) in analyses.iter().enumerate() {
        for (line, rule) in analysis.allows.unused() {
            report.findings.push(ws.finding(
                fi,
                suppress::UNUSED_RULE,
                line,
                format!("`lint:allow({rule})` suppresses nothing on its lines; delete it"),
            ));
        }
    }
    report.findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then_with(|| a.line.cmp(&b.line))
            .then_with(|| a.rule.cmp(b.rule))
    });
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_applies_suppressions() {
        let src = "\
fn f(x: f64) -> bool {
    let a = x == 0.0; // lint:allow(no-float-eq): exact zero sentinel
    let _ = x;
    a && x == 1.0
}
";
        let (kept, allowed) = lint_source("crates/cellnet/src/x.rs", src, &Policy);
        assert_eq!(allowed.len(), 1);
        assert_eq!(allowed[0].line, 2);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].line, 4);
    }

    #[test]
    fn lint_workspace_scans_a_tree() {
        let dir = std::env::temp_dir().join(format!("pager-lint-ws-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let src_dir = dir.join("crates/pager-service/src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
        std::fs::write(
            src_dir.join("bad.rs"),
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )
        .unwrap();
        let report = lint_workspace(&dir).unwrap();
        assert_eq!(report.files_scanned, 1);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "no-unwrap-outside-tests");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
