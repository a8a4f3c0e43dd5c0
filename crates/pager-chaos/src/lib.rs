//! Deterministic network fault injection for the paging cluster.
//!
//! The durability layer earned its guarantees against seeded disk
//! fault matrices (`pager-profiles::io::FaultyIo`) and whole-process
//! `SIGKILL` (the crash-recovery and cluster-failover tests). This
//! crate gives the *network* path the same discipline: a std-only,
//! in-process TCP fault proxy that interposes on any cluster link and
//! executes a declarative [`schedule::Schedule`] of faults —
//!
//! - [`schedule::Fault::Delay`] — fixed per-chunk forwarding latency;
//! - [`schedule::Fault::Jitter`] — seeded uniform extra latency;
//! - [`schedule::Fault::DropConn`] — sever established connections;
//! - [`schedule::Fault::Blackhole`] — accept, then never deliver a
//!   byte in either direction (the half-open failure mode: the peer's
//!   `connect` succeeds and its reads hang until *its* timeout);
//! - [`schedule::Fault::Partition`] — sever established connections
//!   *and* refuse new ones;
//! - [`schedule::Fault::Throttle`] — bound forwarded bytes/second;
//! - [`schedule::Fault::Corrupt`] — flip payload bytes in flight
//!   (byzantine bytes: the peer sees a well-connected link speaking
//!   garbage);
//! - [`schedule::Fault::DuplicateFrame`] — forward a chunk twice
//!   (stream desync: the duplicate trails the real message);
//! - [`schedule::Fault::Heal`] — restore transparent forwarding.
//!
//! Every random decision (jitter amounts, corruption positions and
//! rolls, duplication rolls) is drawn from the workspace's vendored
//! seeded `rand`, keyed by `(seed, link, connection, direction)` — so
//! a failing seed replays the exact same decision stream. Wall-clock
//! interleaving with real sockets is not reproducible, but the fault
//! *decisions* are, which is what makes a 32-seed matrix debuggable:
//! rerun the one failing seed and the link misbehaves the same way.
//!
//! The proxy is deliberately protocol-blind: it corrupts and delays
//! raw TCP chunks, not wire frames, so it exercises the real
//! resynchronisation and validation paths of `pager-wire`'s framing
//! and the cluster router's byzantine-reply detection rather than a
//! mock of them.
//!
//! `pager-cluster`'s orchestration harness wires one chaos proxy
//! in front of every launched `pager-serve` process (covering both the
//! router→shard request path and the owner→replica WAL-shipping path,
//! which the router drives over the same links) and drives schedules
//! through a [`net::ChaosNet`]; `pager-cluster::invariants` asserts
//! the cluster's safety properties after each schedule.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod net;
mod proxy;
mod schedule;

pub use net::ChaosNet;
pub use schedule::{Fault, Schedule, Step};
