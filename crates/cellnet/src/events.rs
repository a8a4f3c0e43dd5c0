//! A small discrete-event engine.
//!
//! The system simulator schedules terminal movements, location reports
//! and call arrivals as timestamped events; this module provides the
//! time-ordered queue with deterministic FIFO tie-breaking so seeded
//! simulations reproduce exactly.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A simulated timestamp (arbitrary time units).
pub(crate) type Time = f64;

/// Events the system simulator schedules.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Event {
    /// A terminal considers moving to a neighbouring cell.
    Move {
        /// The terminal that moves.
        terminal: usize,
    },
    /// A conference call arrives for a group of terminals.
    Call {
        /// The terminals that must be located.
        participants: Vec<usize>,
    },
    /// A terminal powers on or off.
    Power {
        /// The terminal affected.
        terminal: usize,
        /// `true` to power on.
        on: bool,
    },
}

#[derive(Debug)]
struct Scheduled {
    time: Time,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: reverse for earliest-first, with
        // sequence numbers breaking ties FIFO.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

/// A deterministic, time-ordered event queue.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
    now: Time,
}

impl EventQueue {
    /// An empty queue at time zero.
    #[must_use]
    pub(crate) fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Schedules an event at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is NaN or earlier than the current time.
    pub(crate) fn schedule(&mut self, at: Time, event: Event) {
        assert!(!at.is_nan(), "event time must not be NaN");
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            time: at,
            seq,
            event,
        });
    }

    /// Schedules an event `delay` after the current time.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative or NaN.
    pub(crate) fn schedule_in(&mut self, delay: Time, event: Event) {
        assert!(delay >= 0.0, "delay must be non-negative");
        self.schedule(self.now + delay, event);
    }

    /// Pops the earliest event, advancing the clock.
    pub(crate) fn pop(&mut self) -> Option<(Time, Event)> {
        let s = self.heap.pop()?;
        self.now = s.time;
        Some((s.time, s.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(3.0, Event::Move { terminal: 3 });
        q.schedule(1.0, Event::Move { terminal: 1 });
        q.schedule(2.0, Event::Move { terminal: 2 });
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Move { terminal } => terminal,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for t in 0..5 {
            q.schedule(1.0, Event::Move { terminal: t });
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Move { terminal } => terminal,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn clock_advances() {
        let mut q = EventQueue::new();
        q.schedule(
            2.5,
            Event::Power {
                terminal: 0,
                on: true,
            },
        );
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, 2.5);
        q.schedule_in(1.0, Event::Move { terminal: 0 });
        let (t2, _) = q.pop().unwrap();
        assert_eq!(t2, 3.5);
        assert!(q.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn no_time_travel() {
        let mut q = EventQueue::new();
        q.schedule(5.0, Event::Move { terminal: 0 });
        q.pop();
        q.schedule(1.0, Event::Move { terminal: 0 });
    }
}
