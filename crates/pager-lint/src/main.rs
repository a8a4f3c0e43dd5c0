//! The `pager-lint` binary.
//!
//! ```text
//! pager-lint [--root DIR] [--json]
//! pager-lint --explain <rule>
//! ```
//!
//! Exit status: 0 when there are no findings, 1 when there are, 2 on
//! usage or I/O errors. `--explain` prints a rule's rationale and
//! allow-syntax (see docs/lint.md for the `--json` schema).

use pager_lint::findings::Report;
use pager_lint::{lint_workspace, rules, walk};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: Option<PathBuf>,
    json: bool,
    explain: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        json: false,
        explain: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root needs a directory")?;
                opts.root = Some(PathBuf::from(v));
            }
            "--json" => opts.json = true,
            "--explain" => {
                let v = it.next().ok_or("--explain needs a rule name")?;
                opts.explain = Some(v.clone());
            }
            "--help" | "-h" => {
                return Err("usage: pager-lint [--root DIR] [--json] | --explain <rule>".to_string())
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// Prints one rule's documentation, or lists the catalog for an
/// unknown name.
fn explain(name: &str) -> Result<ExitCode, String> {
    match rules::rule_info(name) {
        Some(info) => {
            println!("{} — {}", info.name, info.summary);
            println!();
            println!("{}", info.rationale);
            println!();
            println!("allow syntax:");
            println!("  {}", info.allow);
            Ok(ExitCode::SUCCESS)
        }
        None => {
            let known: Vec<&str> = rules::RULES.iter().map(|r| r.name).collect();
            Err(format!(
                "unknown rule {name:?}; known rules: {}",
                known.join(", ")
            ))
        }
    }
}

fn render_json(report: &Report) -> String {
    use jsonio::Value;
    let doc = Value::object(vec![
        ("format", Value::from("pager-lint/v1")),
        ("files_scanned", Value::from(report.files_scanned as u64)),
        ("suppressed", Value::from(report.allowed.len() as u64)),
        (
            "new_findings",
            Value::Array(report.findings.iter().map(|f| f.to_json()).collect()),
        ),
    ]);
    doc.to_string()
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args)?;

    if let Some(name) = &opts.explain {
        return explain(name);
    }

    let root = match opts.root {
        Some(root) => root,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            walk::find_workspace_root(&cwd)
                .ok_or("no [workspace] Cargo.toml above the current directory; pass --root")?
        }
    };
    let report = lint_workspace(&root)?;

    if opts.json {
        println!("{}", render_json(&report));
    } else {
        for f in &report.findings {
            println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
            println!("    {}", f.excerpt);
        }
        eprintln!(
            "pager-lint: {} files, {} finding(s), {} suppressed inline",
            report.files_scanned,
            report.findings.len(),
            report.allowed.len()
        );
        if !report.findings.is_empty() {
            eprintln!("pager-lint: fix the findings or add a justified lint:allow");
        }
    }

    Ok(if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("pager-lint: {message}");
            ExitCode::from(2)
        }
    }
}
