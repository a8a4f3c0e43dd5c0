//! `pager-reactor` — a small std-only epoll event loop.
//!
//! The serving layer historically ran one OS thread per connection
//! with 50 ms polling reads; that caps out around a few thousand
//! sockets, far short of the million-user north star. This crate is
//! the enabling subsystem for a readiness-driven transport:
//!
//! * `sys` — a minimal in-tree FFI shim over the handful of Linux
//!   syscalls we need (`epoll_create1`, `epoll_ctl`, `epoll_wait`,
//!   `eventfd`). No external crates, honouring the offline build.
//! * [`poller`] — safe wrapper: register/modify/deregister fds with an
//!   [`Interest`] (edge- or level-triggered, and
//!   `EPOLLEXCLUSIVE` so one listener can be shared by every shard
//!   without thundering herds).
//! * [`waker`] — an `eventfd`-backed cross-thread wakeup handle, so
//!   solver workers can interrupt a shard blocked in `epoll_wait`.
//! * [`timer`] — deadline-ordered timers for deadlines, accept
//!   backoff and drain grace periods; expiry is driven by the poll
//!   timeout, not by parked threads.
//! * [`queue`] — a completion queue ([`queue::Remote`] posts a value
//!   from any thread and wakes the owning reactor).
//! * [`reactor`] — ties the above together: one [`reactor::Reactor`]
//!   per shard thread, with a single [`reactor::Reactor::turn`] call
//!   yielding readiness events, fired timers and drained completions.
//!
//! Everything is `#[cfg(target_os = "linux")]`; on other platforms the
//! crate compiles to an empty shell, and `pager-serve` serves
//! `--stdio` only.

#[cfg(target_os = "linux")]
pub mod poller;
#[cfg(target_os = "linux")]
pub mod queue;
#[cfg(target_os = "linux")]
pub mod reactor;
#[cfg(target_os = "linux")]
mod sys;
#[cfg(target_os = "linux")]
pub mod timer;
#[cfg(target_os = "linux")]
pub mod waker;

#[cfg(target_os = "linux")]
pub use poller::{Event, Interest, Poller};
#[cfg(target_os = "linux")]
pub use queue::{CompletionQueue, Remote};
#[cfg(target_os = "linux")]
pub use reactor::{Reactor, Turn, WAKER_TOKEN};
#[cfg(target_os = "linux")]
pub use timer::{TimerId, TimerWheel};
#[cfg(target_os = "linux")]
pub use waker::Waker;
