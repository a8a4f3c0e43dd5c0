//! The workspace policy: which rule applies where.
//!
//! The policy is code, not a config file — the point of a
//! workspace-native linter is that the rules encode *this* workspace's
//! invariants (shard-before-latest-time lock order, metrics-only
//! Relaxed atomics, validated `Instance` construction), and changing an
//! invariant should be a reviewed code change next to the rule that
//! enforces it.

/// Lock classes in their global acquisition order. A thread holding a
/// lock of class `order[i]` may only acquire locks of class `order[j]`
/// with `j > i`. The order mirrors the dispatcher → profile-store flow:
/// job queue first, bookkeeping next, data shards last.
pub const LOCK_ORDER: &[&str] = &[
    "chaos",
    "cluster",
    "router",
    "reactor",
    "queue",
    "workers",
    "inflight",
    "worker_rx",
    "wal",
    "shard",
    "latest_time",
    "fs",
];

/// Maps a `.lock()` receiver identifier to its lock class. Receivers
/// not listed here are unclassified and exempt from ordering (but a
/// nested unclassified lock under a classified one is still reported:
/// every mutex in the workspace should have a class).
#[must_use]
pub fn lock_class(receiver: &str) -> Option<&'static str> {
    match receiver {
        // The chaos proxy's per-link fault policy: pump threads read
        // it before every forward and the schedule driver writes it
        // from outside the cluster entirely, so it sits above every
        // cluster lock and may never be taken under one.
        "link_policy" => Some("chaos"),
        // The cluster router's membership (shard map + epoch) lock
        // sits above everything: promotion decisions are taken there
        // before any per-backend state is touched.
        "membership" => Some("cluster"),
        // Router-internal state: backend connection pools and the
        // per-shard WAL-shipping cursors. Same rank — shipping pops a
        // pooled connection while holding its cursor lock.
        "conns" | "ship" => Some("router"),
        // The reactor's cross-thread completion queue: solver worker
        // threads push under it with the dispatcher's locks already
        // released, and shard threads drain it before touching any
        // service state — so it ranks above the dispatcher's queue.
        "completions" => Some("reactor"),
        "queue" => Some("queue"),
        "workers" => Some("workers"),
        "inflight" => Some("inflight"),
        "rx" | "worker_rx" => Some("worker_rx"),
        // The durable store's WAL lock wraps apply + append + fsync,
        // so it sits above the profile shards and the storage backend.
        "wal" => Some("wal"),
        "shard" | "shards" | "shard_for" => Some("shard"),
        "latest_time" => Some("latest_time"),
        // The in-memory storage backend's own state lock: always the
        // innermost (I/O calls never take further locks).
        "fs" => Some("fs"),
        _ => None,
    }
}

/// Rank of a lock class in [`LOCK_ORDER`].
#[must_use]
pub fn lock_rank(class: &str) -> Option<usize> {
    LOCK_ORDER.iter().position(|&c| c == class)
}

/// One denylisted blocking API for `no-blocking-in-reactor`.
#[derive(Debug, Clone, Copy)]
pub struct BlockingApi {
    /// The called method/function name.
    pub name: &'static str,
    /// When set, the call only matches if its path qualifier *or*
    /// receiver ident equals this (`thread` for `thread::sleep`,
    /// `sync_tx` for a bounded sender).
    pub context: Option<&'static str>,
    /// When true, only zero-argument calls match — separates
    /// `handle.join()` (blocks) from `parts.join(", ")` (string glue).
    pub empty_args_only: bool,
    /// Why the API stalls a shard thread, for the finding message.
    pub why: &'static str,
}

/// Blocking APIs that must never be reachable from a reactor shard
/// thread. Single-shot `read`/`write` are deliberately absent: on the
/// reactor's nonblocking fds they return `WouldBlock` instead of
/// stalling, and the `*_all`/`*_exact`/`*_to_end` combinators are the
/// ones that spin or block until satisfied.
pub const BLOCKING_APIS: &[BlockingApi] = &[
    BlockingApi {
        name: "sleep",
        context: Some("thread"),
        empty_args_only: false,
        why: "parks the shard thread for the full duration",
    },
    BlockingApi {
        name: "recv",
        context: None,
        empty_args_only: false,
        why: "blocks until a channel message arrives",
    },
    BlockingApi {
        name: "recv_timeout",
        context: None,
        empty_args_only: false,
        why: "blocks up to the timeout on an empty channel",
    },
    BlockingApi {
        name: "wait",
        context: None,
        empty_args_only: false,
        why: "parks on a condvar (or child process) indefinitely",
    },
    BlockingApi {
        name: "wait_timeout",
        context: None,
        empty_args_only: false,
        why: "parks on a condvar up to the timeout",
    },
    BlockingApi {
        name: "wait_while",
        context: None,
        empty_args_only: false,
        why: "parks on a condvar until the predicate clears",
    },
    BlockingApi {
        name: "join",
        context: None,
        empty_args_only: true,
        why: "blocks until another thread exits",
    },
    BlockingApi {
        name: "send",
        context: Some("sync_tx"),
        empty_args_only: false,
        why: "a bounded sync_channel send blocks when the queue is full",
    },
    BlockingApi {
        name: "read_exact",
        context: None,
        empty_args_only: false,
        why: "loops until the buffer is full (blocking or busy-spinning)",
    },
    BlockingApi {
        name: "read_to_end",
        context: None,
        empty_args_only: false,
        why: "loops until EOF (blocking or busy-spinning)",
    },
    BlockingApi {
        name: "read_line",
        context: None,
        empty_args_only: false,
        why: "loops until a newline arrives",
    },
    BlockingApi {
        name: "write_all",
        context: None,
        empty_args_only: false,
        why: "loops until every byte is written",
    },
];

/// The workspace policy consulted by rules.
#[derive(Debug, Default)]
pub struct Policy;

impl Policy {
    /// `no-unwrap-outside-tests` applies to library/binary code of the
    /// crates on the serving path; solver crates and tools keep their
    /// (baselined) panics until they are migrated.
    #[must_use]
    pub fn unwrap_denied(&self, path: &str) -> bool {
        (path.starts_with("crates/pager-core/src/")
            || path.starts_with("crates/pager-service/src/")
            || path.starts_with("crates/pager-reactor/src/")
            || path.starts_with("crates/pager-chaos/src/")
            || Self::DURABILITY_PATHS.contains(&path))
            && !Self::is_test_path(path)
    }

    /// The durability modules are panic-free from day one: recovery
    /// code runs against arbitrarily corrupt on-disk state, so every
    /// unwrap there is a latent crash on someone's bad disk. The rest
    /// of `pager-profiles` keeps its (pre-existing, baselined)
    /// `expect`s until migrated.
    const DURABILITY_PATHS: &'static [&'static str] = &[
        "crates/pager-profiles/src/wal.rs",
        "crates/pager-profiles/src/io.rs",
        "crates/pager-profiles/src/durable.rs",
    ];

    /// `atomics-ordering-audit` applies everywhere except the metrics
    /// module, whose counters are monotone and independent (Relaxed is
    /// the documented norm there).
    #[must_use]
    pub fn atomics_audited(&self, path: &str) -> bool {
        path != "crates/pager-service/src/metrics.rs" && !Self::is_test_path(path)
    }

    /// `no-raw-instance-literal` applies outside `pager-core`, which
    /// owns `Instance` and is allowed to construct it directly.
    #[must_use]
    pub fn instance_literal_denied(&self, path: &str) -> bool {
        !path.starts_with("crates/pager-core/src/") && !Self::is_test_path(path)
    }

    /// Whether the path is test/bench/example scaffolding (distinct
    /// from in-file `#[cfg(test)]` regions, which rules handle via
    /// [`crate::rules::FileContext::in_test_region`]).
    #[must_use]
    pub fn is_test_path(path: &str) -> bool {
        path.split('/')
            .any(|seg| seg == "tests" || seg == "benches" || seg == "examples" || seg == "fixtures")
    }

    /// Reactor shard-thread entry points for `no-blocking-in-reactor`,
    /// as `(file path, fn name)` pairs. Everything a shard thread runs
    /// is reachable from these: the transport engine's `Shard::run`
    /// drives the per-connection state machines — and, through the
    /// `Handler` trait's fan-out, every handler's inline path — and
    /// `Reactor::turn` is the poll loop they share.
    pub const REACTOR_ENTRY_POINTS: &'static [(&'static str, &'static str)] = &[
        ("crates/pager-service/src/engine.rs", "run"),
        ("crates/pager-reactor/src/reactor.rs", "turn"),
    ];

    /// Lock classes whose guards are held across I/O or fsync — a
    /// `.lock()` on these from a shard thread can stall for
    /// milliseconds, so `no-blocking-in-reactor` denies them outright.
    pub const LONG_HELD_LOCK_CLASSES: &'static [&'static str] = &["wal", "fs"];

    /// The only files allowed to declare `extern "C"` symbols; every
    /// declaration there must have exactly one checking safe wrapper
    /// (`unsafe-audit`).
    pub const FFI_FILES: &'static [&'static str] = &["crates/pager-reactor/src/sys.rs"];

    /// Syscalls the kernel may interrupt with `EINTR`; their wrappers
    /// must retry in a loop (`unsafe-audit`).
    pub const INTERRUPTIBLE_SYSCALLS: &'static [&'static str] = &["read", "write", "epoll_wait"];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_order_is_consistent_with_classes() {
        for &class in LOCK_ORDER {
            assert!(lock_rank(class).is_some());
        }
        assert!(lock_rank("queue") < lock_rank("inflight"));
        assert!(lock_rank("shard") < lock_rank("latest_time"));
        // The WAL lock wraps store applies; the storage backend's
        // state lock is innermost of all.
        assert!(lock_rank("wal") < lock_rank("shard"));
        assert!(lock_rank("latest_time") < lock_rank("fs"));
        // The chaos proxy's fault policy is written from outside the
        // cluster; nothing cluster-side may hold a lock across it.
        assert!(lock_rank("chaos") < lock_rank("cluster"));
        // The cluster layer sits above the service dispatcher: a
        // router holding membership may reach into backend pools, but
        // never the other way round.
        assert!(lock_rank("cluster") < lock_rank("router"));
        // Reactor completions are pushed by solver workers after the
        // dispatcher's locks are released and drained by shard threads
        // before any dispatcher lock is taken.
        assert!(lock_rank("router") < lock_rank("reactor"));
        assert!(lock_rank("reactor") < lock_rank("queue"));
        assert_eq!(lock_class("link_policy"), Some("chaos"));
        assert_eq!(lock_class("membership"), Some("cluster"));
        assert_eq!(lock_class("completions"), Some("reactor"));
        assert_eq!(lock_class("conns"), Some("router"));
        assert_eq!(lock_class("ship"), Some("router"));
        assert_eq!(lock_class("shard_for"), Some("shard"));
        assert_eq!(lock_class("wal"), Some("wal"));
        assert_eq!(lock_class("fs"), Some("fs"));
        assert_eq!(lock_class("mystery"), None);
    }

    #[test]
    fn scoping() {
        let p = Policy;
        assert!(p.unwrap_denied("crates/pager-core/src/dp.rs"));
        assert!(p.unwrap_denied("crates/pager-service/src/server.rs"));
        assert!(p.unwrap_denied("crates/pager-reactor/src/reactor.rs"));
        // The chaos proxy serves fault injection to tests, but its own
        // library code must not panic mid-schedule.
        assert!(p.unwrap_denied("crates/pager-chaos/src/proxy.rs"));
        assert!(!p.unwrap_denied("crates/cellnet/src/system.rs"));
        assert!(!p.unwrap_denied("crates/pager-core/tests/dp.rs"));
        // Durability modules are covered; the rest of pager-profiles
        // is not (yet).
        assert!(p.unwrap_denied("crates/pager-profiles/src/wal.rs"));
        assert!(p.unwrap_denied("crates/pager-profiles/src/io.rs"));
        assert!(p.unwrap_denied("crates/pager-profiles/src/durable.rs"));
        assert!(!p.unwrap_denied("crates/pager-profiles/src/store.rs"));
        assert!(!p.atomics_audited("crates/pager-service/src/metrics.rs"));
        assert!(p.atomics_audited("crates/pager-profiles/src/store.rs"));
        assert!(p.instance_literal_denied("crates/pager-service/src/service.rs"));
        assert!(!p.instance_literal_denied("crates/pager-core/src/instance.rs"));
        assert!(Policy::is_test_path("crates/pager-core/tests/x.rs"));
        assert!(Policy::is_test_path(
            "crates/pager-lint/tests/fixtures/bad.rs"
        ));
    }
}
