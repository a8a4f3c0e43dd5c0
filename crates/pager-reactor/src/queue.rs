//! Cross-thread completion queue.
//!
//! Solver workers finish a plan on their own threads; the connection
//! that awaits it lives on a reactor shard. A [`Remote`] posts the
//! completion and wakes the shard, whose next
//! [`turn`](crate::reactor::Reactor::turn) drains the queue.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

use crate::waker::Waker;

struct Inner<T> {
    completions: Mutex<VecDeque<T>>,
    waker: Waker,
}

/// The reactor-side receiving end.
pub(crate) struct CompletionQueue<T> {
    inner: Arc<Inner<T>>,
}

/// A cloneable posting handle usable from any thread.
pub struct Remote<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Remote<T> {
    fn clone(&self) -> Remote<T> {
        Remote {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> CompletionQueue<T> {
    pub(crate) fn new(waker: Waker) -> CompletionQueue<T> {
        CompletionQueue {
            inner: Arc::new(Inner {
                completions: Mutex::new(VecDeque::new()),
                waker,
            }),
        }
    }

    pub(crate) fn remote(&self) -> Remote<T> {
        Remote {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Moves every queued completion into `out`.
    pub(crate) fn drain(&self, out: &mut Vec<T>) {
        let mut completions = self
            .inner
            .completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        out.extend(completions.drain(..));
    }
}

impl<T> Remote<T> {
    /// Posts a completion and wakes the owning reactor.
    pub fn complete(&self, item: T) {
        {
            let mut completions = self
                .inner
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            completions.push_back(item);
        }
        // Wake *after* releasing the lock so the reactor's drain never
        // contends with the poster.
        self.inner.waker.wake();
    }
}
