//! `atomics-ordering-audit`: `Ordering::Relaxed` outside the metrics
//! module.
//!
//! Relaxed is correct for monotone counters that no other memory
//! access depends on — exactly what `jsonio/src/metrics.rs` holds, so
//! that file is exempt, and a stats counter anywhere else is a
//! `jsonio::metrics::Counter`. Everywhere else a Relaxed access is
//! suspect: version numbers that flow into cache keys, published
//! pointers, and shutdown flags all need Acquire/Release (or stronger)
//! to order the data they guard. Surviving Relaxed sites carry a
//! `lint:allow(atomics-ordering-audit)` whose comment explains why the
//! access has no cross-thread data dependency.

use super::FileContext;
use crate::findings::Finding;

pub(crate) const RULE: &str = "atomics-ordering-audit";

/// Runs the rule over one file.
#[must_use]
pub fn check(ctx: &FileContext<'_>) -> Vec<Finding> {
    if !ctx.policy.atomics_audited(ctx.path) {
        return Vec::new();
    }
    let tokens = ctx.tokens;
    let mut findings = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("Relaxed") {
            continue;
        }
        if ctx.in_test_region(t.line) {
            continue;
        }
        // Match `Ordering::Relaxed` or `atomic::Ordering::Relaxed`;
        // a bare `Relaxed` from a `use` import also matches when it is
        // an argument (preceded by `(` or `,`).
        let qualified =
            i >= 2 && tokens[i - 1].is_punct("::") && tokens[i - 2].is_ident("Ordering");
        let bare_arg = i >= 1 && (tokens[i - 1].is_punct("(") || tokens[i - 1].is_punct(","));
        if qualified || bare_arg {
            findings.push(
                ctx.finding(
                    RULE,
                    t.line,
                    "Relaxed ordering outside jsonio::metrics; count with a \
                 jsonio::metrics::Counter, use Acquire/Release for cross-thread \
                 handoff, or justify with lint:allow"
                        .to_string(),
                ),
            );
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::tests_support::run_rule_at;

    #[test]
    fn flags_relaxed_outside_metrics() {
        let src = "\
fn f(v: &std::sync::atomic::AtomicU64) {
    v.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    v.load(Ordering::Acquire);
}
";
        let findings = run_rule_at("crates/pager-profiles/src/store.rs", src, check);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn metrics_module_is_exempt() {
        let src = "fn f(v: &AtomicU64) { v.fetch_add(1, Ordering::Relaxed); }";
        assert!(run_rule_at("crates/jsonio/src/metrics.rs", src, check).is_empty());
        assert_eq!(
            run_rule_at("crates/pager-service/src/metrics.rs", src, check).len(),
            1
        );
    }

    #[test]
    fn unrelated_relaxed_ident_is_clean() {
        let src = "struct Relaxed; fn f() { let x = Relaxed; let _ = x; }";
        assert!(run_rule_at("crates/pager-profiles/src/store.rs", src, check).is_empty());
    }
}
