//! Cross-thread wakeup for a reactor blocked in `epoll_wait`.

use std::io;
use std::os::fd::{AsRawFd, OwnedFd, RawFd};
use std::sync::Arc;

use crate::sys;

/// An `eventfd`-backed wakeup handle. Cloning is cheap; any clone may
/// [`wake`](Waker::wake) from any thread. The owning reactor registers
/// the fd read-side in its poller and `drain`s it when
/// the wakeup fires.
#[derive(Clone)]
pub struct Waker {
    fd: Arc<OwnedFd>,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        Ok(Waker {
            fd: Arc::new(sys::eventfd_create()?),
        })
    }

    /// The fd to register for read interest.
    pub(crate) fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Signals the reactor. Never blocks: a saturated counter already
    /// means a wakeup is pending.
    pub fn wake(&self) {
        let _ = sys::eventfd_signal(&self.fd);
    }

    /// Resets the counter after a wakeup was observed.
    pub(crate) fn drain(&self) {
        let _ = sys::eventfd_drain(&self.fd);
    }
}
