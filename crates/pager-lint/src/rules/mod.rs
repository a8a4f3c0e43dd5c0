//! The rule engine: shared per-file analyses plus the rule catalog.
//!
//! Each rule is a function from a [`FileContext`] to findings. The
//! context carries the token stream, the raw source lines (for
//! excerpts), `#[cfg(test)]` region spans, and `fn`-body token ranges —
//! the "dataflow-lite" substrate: rules reason per function over
//! tokens, not over a full AST (the workspace is offline, so no `syn`).

pub mod atomics;
pub mod atomics_pairing;
pub mod float_eq;
pub mod lock_order;
pub mod reactor_blocking;
pub mod unsafe_audit;
pub mod unwrap;

use crate::config::Policy;
use crate::findings::Finding;
use crate::lexer::{Token, TokenKind};

/// A half-open token range `[open, close]` of one `fn` body's braces.
#[derive(Debug, Clone, Copy)]
pub struct FnSpan {
    /// Index of the body's opening `{`.
    pub open: usize,
    /// Index of the matching `}` (inclusive).
    pub close: usize,
}

/// Everything a rule sees for one file.
pub struct FileContext<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    /// The lexed code tokens.
    pub tokens: &'a [Token],
    /// Raw source split into lines (for excerpts).
    pub lines: &'a [&'a str],
    /// Line spans of `#[cfg(test)]` items (inclusive).
    pub test_regions: &'a [(u32, u32)],
    /// Token ranges of every `fn` body (outermost first).
    pub fn_spans: &'a [FnSpan],
    /// The workspace policy.
    pub policy: &'a Policy,
}

impl FileContext<'_> {
    /// Builds a finding at the line of token `idx`.
    #[must_use]
    pub fn finding(&self, rule: &'static str, line: u32, message: String) -> Finding {
        let excerpt = self
            .lines
            .get(line.saturating_sub(1) as usize)
            .map_or("", |l| l.trim())
            .to_string();
        Finding {
            rule,
            file: self.path.to_string(),
            line,
            message,
            excerpt,
        }
    }

    /// Whether `line` lies inside a `#[cfg(test)]` item.
    #[must_use]
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(start, end)| line >= start && line <= end)
    }
}

/// Runs every per-file rule over one file.
#[must_use]
pub fn run_all(ctx: &FileContext<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(float_eq::check(ctx));
    findings.extend(unwrap::check(ctx));
    findings.extend(atomics::check(ctx));
    findings.extend(lock_order::check(ctx));
    findings.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(b.rule)));
    findings.dedup();
    findings
}

/// Everything the workspace passes see: every file's analysis plus the
/// call graph over them.
pub struct WorkspaceContext<'a> {
    pub files: &'a [crate::FileAnalysis],
    pub graph: &'a crate::callgraph::CallGraph,
    pub policy: &'a Policy,
}

impl WorkspaceContext<'_> {
    /// Builds a finding in file `file_idx` at `line`.
    #[must_use]
    pub fn finding(
        &self,
        file_idx: usize,
        rule: &'static str,
        line: u32,
        message: String,
    ) -> Finding {
        let file = &self.files[file_idx];
        let excerpt = file
            .lines
            .get(line.saturating_sub(1) as usize)
            .map_or("", |l| l.trim())
            .to_string();
        Finding {
            rule,
            file: file.path.clone(),
            line,
            message,
            excerpt,
        }
    }
}

/// Runs every workspace (interprocedural) rule.
#[must_use]
pub fn run_workspace(ws: &WorkspaceContext<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(reactor_blocking::check(ws));
    findings.extend(unsafe_audit::check(ws));
    findings.extend(atomics_pairing::check(ws));
    findings.extend(lock_order::check_workspace(ws));
    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then_with(|| a.line.cmp(&b.line))
            .then_with(|| a.rule.cmp(b.rule))
    });
    findings.dedup();
    findings
}

/// One rule's documentation for `pager-lint --explain`.
pub struct RuleInfo {
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Why the workspace enforces it.
    pub rationale: &'static str,
    /// How to suppress a justified exception.
    pub allow: &'static str,
}

/// The rule catalog, per-file rules first.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "no-float-eq",
        summary: "no == / != on floating-point operands",
        rationale: "Cost computations mix rationals and floats; exact float comparison \
                    hides platform-dependent rounding. Compare against an explicit \
                    epsilon or use the rational types.",
        allow: "// lint:allow(no-float-eq): <why exact equality is sound here>",
    },
    RuleInfo {
        name: "no-unwrap-outside-tests",
        summary: "no unwrap/expect/panic on the serving path",
        rationale: "The service answers paging queries under a deadline; a panic tears \
                    down the worker and drops in-flight requests. Return Result and let \
                    the dispatcher shed instead.",
        allow: "// lint:allow(no-unwrap-outside-tests): <why this cannot panic>",
    },
    RuleInfo {
        name: "atomics-ordering-audit",
        summary: "every atomic op names an audited memory ordering",
        rationale: "SeqCst-by-default hides the actual handoff protocol; each atomic \
                    use site must state (and justify) the ordering it needs.",
        allow: "// lint:allow(atomics-ordering-audit): <why this ordering is right>",
    },
    RuleInfo {
        name: "lock-order",
        summary: "nested lock acquisition follows the declared class order",
        rationale: "Two threads nesting classified mutexes in opposite orders deadlock. \
                    The global order lives in pager-lint/src/config.rs (LOCK_ORDER); \
                    v2 also propagates per-function lock summaries through the call \
                    graph, so a callee's acquisitions count against the caller's held \
                    guards.",
        allow: "// lint:allow(lock-order): <why this nesting cannot invert elsewhere>",
    },
    RuleInfo {
        name: "no-blocking-in-reactor",
        summary: "blocking APIs must not be reachable from reactor entry points",
        rationale: "Shard threads multiplex thousands of connections; one thread::sleep, \
                    channel recv, condvar wait, or long-held lock anywhere in the \
                    dispatch tree stalls every connection on that shard. Reachability is \
                    computed over the workspace call graph from Reactor::turn and the \
                    transport engine's shard loop, which reaches every Handler impl's \
                    inline path through trait fan-out.",
        allow: "// lint:allow(no-blocking-in-reactor): <why this boundary is safe> — on \
                a call line, this also cuts the call-graph edge, so everything behind a \
                justified handoff (e.g. an I/O-pool closure) is skipped",
    },
    RuleInfo {
        name: "unsafe-audit",
        summary: "unsafe sites justified; FFI wrapped once; EINTR retried",
        rationale: "Every unsafe block/fn/impl needs an adjacent // SAFETY: comment; \
                    every extern \"C\" symbol needs exactly one safe wrapper that checks \
                    the return value; read/write/epoll_wait wrappers must retry EINTR in \
                    a loop — a swallowed interrupt on the eventfd path is a lost wakeup.",
        allow: "// lint:allow(unsafe-audit): <why the audit requirement does not apply>",
    },
    RuleInfo {
        name: "atomics-pairing",
        summary: "Release stores have Acquire readers; no Relaxed reads of them",
        rationale: "A Release store publishes only to Acquire-or-stronger loads of the \
                    same atomic. An unpaired Release is dead ceremony; a Relaxed load of \
                    a Release-stored field silently misses the handoff. Fields are \
                    matched by name across the workspace.",
        allow: "// lint:allow(atomics-pairing): <why the weaker ordering suffices>",
    },
    RuleInfo {
        name: "unused-allow",
        summary: "every lint:allow marker suppresses something",
        rationale: "A marker that suppresses no finding of its rule — and, for \
                    no-blocking-in-reactor, cuts no reachable call-graph edge — is a \
                    stale justification that would silently excuse the next real \
                    finding on its lines. Doc comments hold no markers.",
        allow: "none: delete the marker",
    },
];

/// Looks up a rule's documentation by name.
#[must_use]
pub fn rule_info(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// Finds the line spans of `#[cfg(test)]` items (typically
/// `#[cfg(test)] mod tests { ... }`). The span runs from the attribute
/// to the matching close brace of the item it decorates (or the `;`
/// for brace-less items).
#[must_use]
pub fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            let start_line = tokens[i].line;
            // Skip to the closing `]` of this attribute.
            let mut j = i + 2; // at `[`
            let mut depth = 1i32;
            j += 1;
            while j < tokens.len() && depth > 0 {
                if tokens[j].is_punct("[") {
                    depth += 1;
                } else if tokens[j].is_punct("]") {
                    depth -= 1;
                }
                j += 1;
            }
            // Skip any further attributes, then find the item's body.
            while j < tokens.len() && tokens[j].is_punct("#") {
                while j < tokens.len() && !tokens[j].is_punct("]") {
                    j += 1;
                }
                j += 1;
            }
            // Scan to the first `{` or a `;` (brace-less item) at
            // bracket depth 0.
            let mut paren = 0i32;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct("(") || t.is_punct("[") {
                    paren += 1;
                } else if t.is_punct(")") || t.is_punct("]") {
                    paren -= 1;
                } else if paren == 0 && t.is_punct(";") {
                    regions.push((start_line, t.line));
                    break;
                } else if paren == 0 && t.is_punct("{") {
                    let close = matching_brace(tokens, j);
                    let end_line = tokens.get(close).map_or(t.line, |t| t.line);
                    regions.push((start_line, end_line));
                    j = close;
                    break;
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
    regions
}

/// Whether tokens at `i` start `#[cfg(...test...)]`.
fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    if !(tokens[i].is_punct("#")
        && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))
        && tokens.get(i + 2).is_some_and(|t| t.is_ident("cfg")))
    {
        return false;
    }
    // Look for the bare ident `test` inside the attribute's parens.
    let mut j = i + 3;
    let mut depth = 0i32;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth <= 0 {
                break;
            }
        } else if t.is_punct("]") {
            break;
        } else if t.is_ident("test") {
            return true;
        }
        j += 1;
    }
    false
}

/// Index of the `}` matching the `{` at `open`.
#[must_use]
pub fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Finds every `fn` body token range (including nested fns and
/// methods). `fn` keywords in signatures-without-bodies (traits,
/// extern blocks) contribute nothing.
#[must_use]
pub fn fn_spans(tokens: &[Token]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("fn") {
            continue;
        }
        // Walk to the body `{`, skipping the signature. Generic
        // brackets may nest (`Vec<Vec<f64>>` lexes `>>` as one shift
        // token — treat it as two closers); parens and where-clauses
        // pass through. Stop at `;` (no body) or `{`.
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut paren = 0i32;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct("(") || t.is_punct("[") {
                paren += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                paren -= 1;
            } else if t.is_punct("<") {
                angle += 1;
            } else if t.is_punct(">") {
                angle = (angle - 1).max(0);
            } else if t.is_punct("<<") {
                angle += 2;
            } else if t.is_punct(">>") {
                angle = (angle - 2).max(0);
            } else if t.is_punct("->") {
                // Return-type arrow: fine, keep scanning.
            } else if paren == 0 && angle == 0 && t.is_punct(";") {
                break; // declaration without a body
            } else if paren == 0 && angle == 0 && t.is_punct("{") {
                spans.push(FnSpan {
                    open: j,
                    close: matching_brace(tokens, j),
                });
                break;
            }
            j += 1;
        }
    }
    spans
}

/// Tokens that terminate an operand scan for `==` / `!=` at depth 0.
fn is_operand_boundary(t: &Token) -> bool {
    if t.kind == TokenKind::Punct {
        return matches!(
            t.text.as_str(),
            "," | ";"
                | "{"
                | "}"
                | "=="
                | "!="
                | "="
                | "<"
                | ">"
                | "<="
                | ">="
                | "&&"
                | "||"
                | "=>"
                | ".."
                | "..="
                | "+"
                | "-"
                | "*"
                | "/"
                | "%"
                | "!"
                | "?"
        );
    }
    t.kind == TokenKind::Ident
        && matches!(
            t.text.as_str(),
            "return" | "if" | "while" | "match" | "let" | "else" | "in"
        )
}

/// The operand tokens to the left of the comparison at `op`, in source
/// order, stopping at unbalanced brackets or expression boundaries.
#[must_use]
pub fn operand_left(tokens: &[Token], op: usize) -> Vec<&Token> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut j = op;
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        if t.is_punct(")") || t.is_punct("]") {
            depth += 1;
        } else if t.is_punct("(") || t.is_punct("[") {
            depth -= 1;
            if depth < 0 {
                break;
            }
        } else if depth == 0 && is_operand_boundary(t) {
            break;
        }
        out.push(t);
    }
    out.reverse();
    out
}

/// The operand tokens to the right of the comparison at `op`.
#[must_use]
pub fn operand_right(tokens: &[Token], op: usize) -> Vec<&Token> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut j = op + 1;
    // A leading unary minus or negation is part of the operand.
    while j < tokens.len() && (tokens[j].is_punct("-") || tokens[j].is_punct("!")) {
        j += 1;
    }
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
            if depth < 0 {
                break;
            }
        } else if depth == 0 && is_operand_boundary(t) {
            break;
        }
        out.push(t);
        j += 1;
    }
    out
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::{fn_spans, test_regions, FileContext};
    use crate::config::Policy;
    use crate::findings::Finding;
    use crate::lexer::lex;

    type Rule = fn(&FileContext<'_>) -> Vec<Finding>;

    /// Lexes `src`, builds a full context at `path`, runs one rule.
    pub(crate) fn run_rule_at(path: &str, src: &str, rule: Rule) -> Vec<Finding> {
        let lexed = lex(src);
        let lines: Vec<&str> = src.lines().collect();
        let regions = test_regions(&lexed.tokens);
        let spans = fn_spans(&lexed.tokens);
        let policy = Policy;
        let ctx = FileContext {
            path,
            tokens: &lexed.tokens,
            lines: &lines,
            test_regions: &regions,
            fn_spans: &spans,
            policy: &policy,
        };
        rule(&ctx)
    }

    /// [`run_rule_at`] at a path where every rule is in scope.
    pub(crate) fn run_rule(src: &str, rule: Rule) -> Vec<Finding> {
        run_rule_at("crates/pager-service/src/service.rs", src, rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn test_regions_cover_cfg_test_mods() {
        let src = "\
fn prod() { x.unwrap(); }

#[cfg(test)]
mod tests {
    fn helper() { y.unwrap(); }
}
fn after() {}
";
        let lexed = lex(src);
        let regions = test_regions(&lexed.tokens);
        assert_eq!(regions, vec![(3, 6)]);
    }

    #[test]
    fn cfg_all_test_matches_too() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod t { }\nfn f() {}";
        let lexed = lex(src);
        assert_eq!(test_regions(&lexed.tokens), vec![(1, 2)]);
    }

    #[test]
    fn cfg_not_test_items_are_not_regions() {
        // `not(test)` still contains the ident `test`; the coarse scan
        // treats it as test-gated, which is the *conservative* choice
        // for a deny rule only when it under-reports. Document the
        // known coarseness: cfg(not(test)) is rare enough in this
        // workspace (zero occurrences) that the scan accepts it.
        let src = "#[cfg(feature = \"simd\")]\nmod m { fn f() { x.unwrap(); } }";
        let lexed = lex(src);
        assert!(test_regions(&lexed.tokens).is_empty());
    }

    #[test]
    fn fn_spans_find_nested_bodies() {
        let src = "fn outer() { fn inner() { 1 } inner() }\ntrait T { fn sig(&self); }";
        let lexed = lex(src);
        let spans = fn_spans(&lexed.tokens);
        assert_eq!(spans.len(), 2, "trait method without body is skipped");
        assert!(spans[0].open < spans[1].open);
        assert!(spans[1].close < spans[0].close);
    }

    #[test]
    fn fn_spans_survive_generics_and_where() {
        let src = "fn g<T: Into<Vec<Vec<f64>>>>(x: T) -> Vec<u8> where T: Clone { body() }";
        let lexed = lex(src);
        let spans = fn_spans(&lexed.tokens);
        assert_eq!(spans.len(), 1);
        assert!(lexed.tokens[spans[0].open].is_punct("{"));
    }

    #[test]
    fn operand_scans_stop_at_boundaries() {
        let src = "if a[i].b(c, d) == f64::MAX && y != 2 { }";
        let lexed = lex(src);
        let eq = lexed.tokens.iter().position(|t| t.is_punct("==")).unwrap();
        let left: Vec<&str> = operand_left(&lexed.tokens, eq)
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert!(left.contains(&"a") && left.contains(&"d"));
        assert!(!left.contains(&"if"));
        let right: Vec<&str> = operand_right(&lexed.tokens, eq)
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(right, vec!["f64", "::", "MAX"]);
    }
}
