//! `no-raw-instance-literal`: struct-literal construction of
//! `Instance` outside `pager-core`.
//!
//! `Instance::from_rows` validates that every row is a probability
//! distribution (non-negative, sums to 1 within tolerance). A struct
//! literal `Instance { rows }` would bypass that validation — it only
//! compiles inside `pager-core` today because `rows` is private, but
//! the lint keeps the invariant explicit and catches any future
//! loosening (e.g. a `pub(crate)` field escaping via a re-export or a
//! new constructor crate-side).

use super::FileContext;
use crate::findings::Finding;
use crate::lexer::{Token, TokenKind};

pub(crate) const RULE: &str = "no-raw-instance-literal";

/// Tokens before `Instance` that mean "this is not a struct-literal
/// expression": type positions, declarations, and paths.
const NON_LITERAL_PREV: &[&str] = &[
    "struct", "enum", "union", "trait", "impl", "mod", "fn", "for", "dyn", "as", "use", "pub",
];

/// Runs the rule over one file.
#[must_use]
pub fn check(ctx: &FileContext<'_>) -> Vec<Finding> {
    if !ctx.policy.instance_literal_denied(ctx.path) {
        return Vec::new();
    }
    let tokens = ctx.tokens;
    let mut findings = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("Instance") {
            continue;
        }
        if ctx.in_test_region(t.line) {
            continue;
        }
        // `Instance { ... }` or `Instance::<S> { ... }` — a brace
        // after the name and its turbofish, if any (path qualifiers
        // like `core::Instance` still end with the name). A plain
        // `Instance<S> {` is a type position, never a literal.
        if !tokens
            .get(after_turbofish(tokens, i + 1))
            .is_some_and(|n| n.is_punct("{"))
        {
            continue;
        }
        if let Some(prev) = i.checked_sub(1).map(|p| &tokens[p]) {
            if prev.kind == TokenKind::Ident && NON_LITERAL_PREV.contains(&prev.text.as_str()) {
                continue;
            }
            // `-> Instance {` is a function body, not a literal.
            if prev.is_punct("->") {
                continue;
            }
        }
        findings.push(
            ctx.finding(
                RULE,
                t.line,
                "struct-literal `Instance { .. }` bypasses row validation; \
             use Instance::from_rows"
                    .to_string(),
            ),
        );
    }
    findings
}

/// The index just past a `::<…>` argument list starting at `at`, or
/// `at` itself when none starts there.
fn after_turbofish(tokens: &[Token], at: usize) -> usize {
    if !(tokens.get(at).is_some_and(|t| t.is_punct("::"))
        && tokens.get(at + 1).is_some_and(|t| t.is_punct("<")))
    {
        return at;
    }
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(at + 1) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth = depth.saturating_sub(1),
                ">>" => depth = depth.saturating_sub(2),
                _ => {}
            }
            if depth == 0 {
                return j + 1;
            }
        }
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::tests_support::run_rule_at;

    const PATH: &str = "crates/pager-service/src/service.rs";

    #[test]
    fn flags_literal_construction() {
        let src = "fn f(rows: Vec<Vec<f64>>) -> Instance { Instance { rows } }";
        let findings = run_rule_at(PATH, src, check);
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn flags_turbofish_literals() {
        for src in [
            "fn f(rows: Vec<Vec<Ratio>>) { let _ = Instance::<Ratio> { rows }; }",
            "fn f(rows: Vec<Vec<f64>>) { let _ = Instance::<Wrapped<f64>> { rows }; }",
        ] {
            let findings = run_rule_at(PATH, src, check);
            assert_eq!(findings.len(), 1, "{src}: {findings:?}");
        }
    }

    #[test]
    fn generic_type_positions_are_clean() {
        let src = "\
impl<S> Instance<S> {
    fn rows(&self) -> usize { 0 }
}
fn exact() -> Instance<Ratio> { Instance::<Ratio>::from_rows(Vec::new()).unwrap() }
";
        assert!(run_rule_at(PATH, src, check).is_empty());
    }

    #[test]
    fn declarations_and_calls_are_clean() {
        let src = "\
struct Instance { rows: Vec<Vec<f64>> }
impl Instance {
    fn id(&self) -> u32 { 0 }
}
fn mk(rows: Vec<Vec<f64>>) -> Instance {
    Instance::from_rows(rows).unwrap_or_else(|_| Instance::empty())
}
fn ret() -> Instance { mk(Vec::new()) }
";
        assert!(run_rule_at(PATH, src, check).is_empty());
    }

    #[test]
    fn pager_core_is_exempt() {
        let src = "fn f(rows: Vec<Vec<f64>>) -> Instance { Instance { rows } }";
        assert!(run_rule_at("crates/pager-core/src/instance.rs", src, check).is_empty());
    }
}
