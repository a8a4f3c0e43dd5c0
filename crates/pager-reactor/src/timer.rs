//! Deadline-ordered timers.
//!
//! Deadlines, accept backoff and drain grace all need "call me back at
//! time T" without a dedicated thread. A shard carries few timers (one
//! deadline per in-flight request plus a couple of housekeeping ones),
//! so they live in one map ordered by `(deadline, id)`: the earliest is
//! the first entry, expiry pops from the front, and a cancel removes
//! one key.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Handle for cancelling a scheduled timer: its key in the map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerId {
    /// Deadline as an offset from [`TimerWheel`]'s start instant.
    at: Duration,
    id: u64,
}

pub(crate) struct TimerWheel {
    /// Armed timers: `(deadline offset, id)` to token.
    timers: BTreeMap<(Duration, u64), u64>,
    /// Deadlines are kept as offsets from here.
    start: Instant,
    next_id: u64,
}

impl TimerWheel {
    pub(crate) fn new(start: Instant) -> TimerWheel {
        TimerWheel {
            timers: BTreeMap::new(),
            start,
            next_id: 0,
        }
    }

    /// Schedules `token` to fire at `at`; a past deadline fires on the
    /// next [`expire`] call.
    ///
    /// [`expire`]: TimerWheel::expire
    pub(crate) fn schedule_at(&mut self, at: Instant, token: u64) -> TimerId {
        let timer = TimerId {
            at: at.saturating_duration_since(self.start),
            id: self.next_id,
        };
        self.next_id += 1;
        self.timers.insert((timer.at, timer.id), token);
        timer
    }

    /// Cancels a timer; a no-op if it already fired.
    pub(crate) fn cancel(&mut self, timer: TimerId) {
        self.timers.remove(&(timer.at, timer.id));
    }

    /// How long until the earliest timer fires (`None` when empty;
    /// zero when one is already due).
    pub(crate) fn next_timeout(&self, now: Instant) -> Option<Duration> {
        let (&(at, _), _) = self.timers.first_key_value()?;
        Some((self.start + at).saturating_duration_since(now))
    }

    /// Fires every timer due at `now`, in deadline order, appending
    /// their tokens to `fired`. Returns how many fired.
    pub(crate) fn expire(&mut self, now: Instant, fired: &mut Vec<u64>) -> usize {
        let now = now.saturating_duration_since(self.start);
        let before = fired.len();
        while let Some(entry) = self.timers.first_entry() {
            if entry.key().0 > now {
                break;
            }
            fired.push(entry.remove());
        }
        fired.len() - before
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.timers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_order_of_deadline() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(start);
        wheel.schedule_at(start + Duration::from_millis(5), 1);
        wheel.schedule_at(start + Duration::from_millis(2), 2);
        let mut fired = Vec::new();
        assert_eq!(
            wheel.expire(start + Duration::from_millis(1), &mut fired),
            0
        );
        wheel.expire(start + Duration::from_millis(3), &mut fired);
        assert_eq!(fired, vec![2]);
        wheel.expire(start + Duration::from_millis(10), &mut fired);
        assert_eq!(fired, vec![2, 1]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn cancel_suppresses_firing() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(start);
        let id = wheel.schedule_at(start + Duration::from_millis(2), 7);
        wheel.schedule_at(start + Duration::from_millis(2), 8);
        wheel.cancel(id);
        let mut fired = Vec::new();
        wheel.expire(start + Duration::from_millis(5), &mut fired);
        assert_eq!(fired, vec![8]);
        assert!(wheel.is_empty());
        // Cancelling an already-fired timer is a no-op.
        wheel.cancel(id);
    }

    #[test]
    fn next_timeout_tracks_earliest() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(start);
        assert!(wheel.next_timeout(start).is_none());
        wheel.schedule_at(start + Duration::from_millis(50), 1);
        wheel.schedule_at(start + Duration::from_millis(10), 2);
        let next = wheel.next_timeout(start).unwrap();
        assert!(next <= Duration::from_millis(11), "next = {next:?}");
        // A due timer reports zero, not an error.
        let late = wheel
            .next_timeout(start + Duration::from_millis(100))
            .unwrap();
        assert_eq!(late, Duration::ZERO);
    }

    #[test]
    fn past_deadlines_fire_immediately() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(start);
        let mut fired = Vec::new();
        wheel.expire(start + Duration::from_millis(10), &mut fired);
        wheel.schedule_at(start, 9); // already in the past
        wheel.expire(start + Duration::from_millis(12), &mut fired);
        assert_eq!(fired, vec![9]);
    }
}
