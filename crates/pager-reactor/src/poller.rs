//! Safe epoll wrapper: register file descriptors with an [`Interest`]
//! and collect readiness [`Event`]s.

use std::io;
use std::os::fd::{OwnedFd, RawFd};
use std::time::Duration;

use crate::sys;

/// What readiness a registration subscribes to and how it is
/// delivered.
#[derive(Clone, Copy, Debug, Default)]
pub struct Interest {
    /// Wake when the fd is readable (`EPOLLIN`; peer half-close is
    /// always subscribed via `EPOLLRDHUP`).
    pub readable: bool,
    /// Wake when the fd accepts writes (`EPOLLOUT`).
    pub writable: bool,
    /// Edge-triggered delivery (`EPOLLET`): one wakeup per readiness
    /// transition; the owner must drain to `WouldBlock`.
    pub edge: bool,
    /// `EPOLLEXCLUSIVE`: when the same fd is registered in many epoll
    /// instances (one listener shared across shards), wake only one.
    /// The kernel forbids later `modify` on such registrations.
    pub exclusive: bool,
}

impl Interest {
    /// Level-triggered read interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
        edge: false,
        exclusive: false,
    };

    fn events(self) -> u32 {
        // The kernel rejects EPOLLEXCLUSIVE combined with anything
        // outside EPOLLIN/EPOLLOUT/EPOLLET/EPOLLWAKEUP with EINVAL,
        // so half-close notification is only requested for ordinary
        // registrations.
        let mut bits = if self.exclusive { 0 } else { sys::EPOLLRDHUP };
        if self.readable {
            bits |= sys::EPOLLIN;
        }
        if self.writable {
            bits |= sys::EPOLLOUT;
        }
        if self.edge {
            bits |= sys::EPOLLET;
        }
        if self.exclusive {
            bits |= sys::EPOLLEXCLUSIVE;
        }
        bits
    }
}

/// One readiness notification, already decoded from the raw bitmask.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Peer closed its write side (`EPOLLRDHUP`): reads will drain
    /// buffered bytes and then return EOF.
    pub read_closed: bool,
    /// Hard hangup or error (`EPOLLHUP`/`EPOLLERR`): the next I/O on
    /// the fd will surface the failure.
    pub error: bool,
}

/// An epoll instance.
pub struct Poller {
    epfd: OwnedFd,
    buffer: Vec<sys::EpollEvent>,
}

const WAIT_BATCH: usize = 1024;

impl Poller {
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            epfd: sys::epoll_create()?,
            buffer: vec![sys::EpollEvent::default(); WAIT_BATCH],
        })
    }

    /// Registers `fd` under `token`.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::epoll_add(&self.epfd, fd, interest.events(), token)
    }

    /// Re-arms an existing registration with a new interest set.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::epoll_mod(&self.epfd, fd, interest.events(), token)
    }

    /// Removes a registration. Safe to call for already-closed fds;
    /// the caller decides whether the error matters.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        sys::epoll_del(&self.epfd, fd)
    }

    /// Blocks until readiness or `timeout` (forever when `None`),
    /// appending decoded events to `out`. Returns how many arrived.
    /// Signal interruptions are retried inside `sys::epoll_wait_events`
    /// with the same timeout, so `Ok(0)` always means the timeout (or a
    /// spurious wakeup), never a swallowed `EINTR`.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms = match timeout {
            None => -1,
            // Round up so a 0.4 ms deadline does not busy-spin at
            // timeout 0; expiry is re-checked against the clock.
            Some(t) => {
                let nanos = t.as_nanos();
                let ceil_ms = nanos.div_ceil(1_000_000);
                i32::try_from(ceil_ms).unwrap_or(i32::MAX)
            }
        };
        let count = sys::epoll_wait_events(&self.epfd, &mut self.buffer, timeout_ms)?;
        for raw in &self.buffer[..count] {
            let bits = raw.events;
            out.push(Event {
                token: raw.data,
                readable: bits & sys::EPOLLIN != 0,
                writable: bits & sys::EPOLLOUT != 0,
                read_closed: bits & sys::EPOLLRDHUP != 0,
                error: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(count)
    }
}
