//! `atomics-pairing`: Release stores need Acquire readers.
//!
//! A `Release` store only publishes its preceding writes to threads
//! that observe the stored value with an `Acquire` (or stronger) load
//! — a Release store nobody Acquire-loads is either dead ceremony or,
//! worse, the reader exists but uses `Relaxed` and silently misses the
//! handoff. The pass aggregates every atomic op in the workspace
//! ([`crate::ir::AtomicOp`], matched *by field name* — the workspace
//! names cross-thread atomics uniquely) and reports:
//!
//! 1. a field with `Release`/`AcqRel` stores but no `Acquire`-or-
//!    stronger load anywhere in the workspace;
//! 2. a `Relaxed` load of a field that is `Release`-stored somewhere —
//!    the load discards exactly the ordering the store paid for.
//!
//! Scope follows `atomics-ordering-audit`: `jsonio::metrics`'
//! monotone Relaxed counters are exempt via
//! [`crate::config::Policy::atomics_audited`].

use super::WorkspaceContext;
use crate::findings::Finding;
use crate::ir::AtomicOp;
use std::collections::HashSet;

pub(crate) const RULE: &str = "atomics-pairing";

/// Orderings that publish (for writes) / observe (for reads).
fn is_release(ord: &str) -> bool {
    matches!(ord, "Release" | "AcqRel" | "SeqCst")
}

fn is_acquire(ord: &str) -> bool {
    matches!(ord, "Acquire" | "AcqRel" | "SeqCst")
}

/// Whether the op writes the atomic (anything but a pure load).
fn is_write(op: &AtomicOp) -> bool {
    op.method != "load"
}

/// Runs the pass over the workspace.
#[must_use]
pub fn check(ws: &WorkspaceContext<'_>) -> Vec<Finding> {
    // (file index, op) for every audited, non-test atomic op.
    let mut ops: Vec<(usize, &AtomicOp)> = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if !ws.policy.atomics_audited(&file.path) {
            continue;
        }
        for f in &file.ir.fns {
            if f.in_test {
                continue;
            }
            for op in &f.atomics {
                ops.push((fi, op));
            }
        }
    }

    // Fields with Release-or-stronger writes / Acquire-or-stronger reads.
    let mut release_stored: HashSet<&str> = HashSet::new();
    let mut acquire_read: HashSet<&str> = HashSet::new();
    for (_, op) in &ops {
        if is_write(op) && op.orderings.iter().any(|o| is_release(o)) {
            release_stored.insert(op.field.as_str());
        }
        // RMW ops (swap, fetch_*, compare_exchange) read as well as
        // write; an AcqRel CAS observes earlier releases.
        if op.orderings.iter().any(|o| is_acquire(o)) && (op.method != "store") {
            acquire_read.insert(op.field.as_str());
        }
    }

    let mut findings = Vec::new();
    let mut unpaired_reported: HashSet<&str> = HashSet::new();
    for (fi, op) in &ops {
        let field = op.field.as_str();
        if is_write(op)
            && op.orderings.iter().any(|o| is_release(o))
            && !acquire_read.contains(field)
            && unpaired_reported.insert(field)
        {
            findings.push(ws.finding(
                *fi,
                RULE,
                op.line,
                format!(
                    "`{}` store on `{field}` has no Acquire/AcqRel/SeqCst load anywhere \
                     in the workspace; the release publishes nothing — add the acquiring \
                     reader or weaken the store",
                    op.orderings.join("/")
                ),
            ));
        }
        if op.method == "load"
            && op.orderings.iter().all(|o| o == "Relaxed")
            && release_stored.contains(field)
        {
            findings.push(ws.finding(
                *fi,
                RULE,
                op.line,
                format!(
                    "Relaxed load of `{field}`, which is Release-stored elsewhere; the \
                     load misses the store's handoff — use Acquire (or document why the \
                     value alone suffices)"
                ),
            ));
        }
    }
    findings
}
