//! Inline suppressions: `// lint:allow(rule-name): reason`.
//!
//! An allow marker suppresses findings of the named rule on the
//! marker's own line(s) and on the line immediately following it —
//! covering both trailing-comment style and comment-above style:
//!
//! ```text
//! let x = mass == 0.0; // lint:allow(no-float-eq): exact zero sentinel
//!
//! // lint:allow(atomics-ordering-audit): monotone counter, no handoff
//! count.fetch_add(1, Ordering::Relaxed);
//! ```
//!
//! Several rules may be allowed at once: `lint:allow(rule-a, rule-b)`.
//! The suppression policy (see DESIGN.md §9) asks every allow to carry
//! a justification after the closing parenthesis; the lint itself only
//! enforces the marker shape — and that the marker is needed: one that
//! suppresses no finding of its rule (nor, for `no-blocking-in-reactor`,
//! cuts a reachable call-graph edge) is itself reported as
//! [`UNUSED_RULE`]. Doc comments hold no markers, so a doc that shows
//! the syntax, like this one, is never counted.

use crate::lexer::Comment;
use std::cell::Cell;

/// The rule an allow marker that suppressed nothing is reported under.
pub const UNUSED_RULE: &str = "unused-allow";

/// One rule named by one marker, with the lines it covers.
#[derive(Debug)]
struct Marker {
    rule: String,
    /// The line the marker itself is written on.
    line: u32,
    /// The covered span: the marker's comment block plus the next line.
    first: u32,
    last: u32,
    /// Whether [`Allows::covers`] has answered `true` for it.
    used: Cell<bool>,
}

/// Allow markers collected from one file's comments.
#[derive(Debug, Default)]
pub struct Allows {
    markers: Vec<Marker>,
}

impl Allows {
    /// Scans comments for `lint:allow(...)` markers. The lexer emits
    /// each `//` line as its own [`Comment`], so contiguous lines are
    /// first coalesced into blocks: a marker anywhere in a multi-line
    /// justification covers the whole block and the line after it.
    #[must_use]
    pub fn collect(comments: &[Comment]) -> Allows {
        let comments: Vec<&Comment> = comments.iter().filter(|c| !is_doc(&c.text)).collect();
        let mut allows = Allows::default();
        let mut i = 0;
        while i < comments.len() {
            let start = i;
            let mut end_line = comments[i].end_line;
            while i + 1 < comments.len() && comments[i + 1].line == end_line + 1 {
                i += 1;
                end_line = comments[i].end_line;
            }
            let block = &comments[start..=i];
            for comment in block {
                let mut rest = comment.text.as_str();
                while let Some(pos) = rest.find("lint:allow(") {
                    rest = &rest[pos + "lint:allow(".len()..];
                    let Some(close) = rest.find(')') else { break };
                    for rule in rest[..close].split(',') {
                        let rule = rule.trim();
                        if rule.is_empty() {
                            continue;
                        }
                        allows.markers.push(Marker {
                            rule: rule.to_string(),
                            line: comment.line,
                            first: block[0].line,
                            last: end_line + 1,
                            used: Cell::new(false),
                        });
                    }
                    rest = &rest[close..];
                }
            }
            i += 1;
        }
        allows
    }

    /// Whether `rule` is allowed on `line`; a `true` answer marks the
    /// covering markers used.
    #[must_use]
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        let mut covered = false;
        for marker in &self.markers {
            if marker.rule == rule && (marker.first..=marker.last).contains(&line) {
                marker.used.set(true);
                covered = true;
            }
        }
        covered
    }

    /// `(line, rule)` of every marker no [`Allows::covers`] call has
    /// needed so far.
    pub fn unused(&self) -> impl Iterator<Item = (u32, &str)> {
        self.markers
            .iter()
            .filter(|m| !m.used.get())
            .map(|m| (m.line, m.rule.as_str()))
    }
}

/// Whether a comment is documentation (`///`, `//!`, `/**`, `/*!`).
fn is_doc(text: &str) -> bool {
    ["///", "//!", "/**", "/*!"]
        .iter()
        .any(|prefix| text.starts_with(prefix))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn trailing_and_above_styles() {
        let src = "\
let a = x == 0.0; // lint:allow(no-float-eq): sentinel
// lint:allow(atomics-ordering-audit): counter only
count.fetch_add(1, Ordering::Relaxed);
let b = y == 0.0;
";
        let allows = Allows::collect(&lex(src).comments);
        assert!(allows.covers("no-float-eq", 1));
        assert!(allows.covers("atomics-ordering-audit", 2));
        assert!(allows.covers("atomics-ordering-audit", 3));
        assert!(!allows.covers("no-float-eq", 4));
        assert!(!allows.covers("no-unwrap-outside-tests", 1));
    }

    #[test]
    fn multiple_rules_in_one_marker() {
        let src = "// lint:allow(rule-a, rule-b)\nx();";
        let allows = Allows::collect(&lex(src).comments);
        assert!(allows.covers("rule-a", 2));
        assert!(allows.covers("rule-b", 2));
    }

    #[test]
    fn block_comment_span_covers_following_line() {
        let src = "/* lint:allow(rule-x)\n   spanning */\ncall();";
        let allows = Allows::collect(&lex(src).comments);
        assert!(allows.covers("rule-x", 3));
    }

    #[test]
    fn multi_line_justification_covers_the_whole_block() {
        let src = "\
// lint:allow(rule-y): the justification runs long
// and wraps onto a second and
// third comment line.
call();
other();
";
        let allows = Allows::collect(&lex(src).comments);
        assert!(allows.covers("rule-y", 4), "line after the block");
        assert!(allows.covers("rule-y", 2), "inside the block");
        assert!(!allows.covers("rule-y", 5), "past the covered span");
    }

    #[test]
    fn unused_markers_are_listed_and_doc_comments_hold_none() {
        let src = "\
/// Shows the syntax: `// lint:allow(rule-d): reason`.
// lint:allow(rule-a): needed
a();
// lint:allow(rule-b): stale
b();
";
        let allows = Allows::collect(&lex(src).comments);
        assert!(!allows.covers("rule-d", 2), "a doc comment is no marker");
        assert!(allows.covers("rule-a", 3));
        let unused: Vec<_> = allows.unused().collect();
        assert_eq!(unused, vec![(4, "rule-b")]);
    }
}
