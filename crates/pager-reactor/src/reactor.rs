//! One reactor per shard thread: poller + waker + timers +
//! completion queue behind a single blocking [`Reactor::turn`].

use std::io;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};

use crate::poller::{Event, Interest, Poller};
use crate::queue::{CompletionQueue, Remote};
use crate::timer::{TimerId, TimerWheel};
use crate::waker::Waker;

/// Registration token reserved for the reactor's own waker fd; never
/// use it for connections.
pub(crate) const WAKER_TOKEN: u64 = u64::MAX;

/// Everything one [`Reactor::turn`] produced.
#[derive(Default)]
pub struct Turn<T> {
    /// Readiness events (the internal waker event is filtered out).
    pub events: Vec<Event>,
    /// Tokens of timers that fired.
    pub timers: Vec<u64>,
    /// Completions posted by [`Remote`] handles.
    pub completions: Vec<T>,
}

impl<T> Turn<T> {
    pub fn new() -> Turn<T> {
        Turn {
            events: Vec::new(),
            timers: Vec::new(),
            completions: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.events.clear();
        self.timers.clear();
        self.completions.clear();
    }
}

pub struct Reactor<T> {
    poller: Poller,
    waker: Waker,
    queue: CompletionQueue<T>,
    wheel: TimerWheel,
}

impl<T> Reactor<T> {
    pub fn new() -> io::Result<Reactor<T>> {
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.add(waker.as_raw_fd(), WAKER_TOKEN, Interest::READ)?;
        Ok(Reactor {
            poller,
            waker: waker.clone(),
            queue: CompletionQueue::new(waker),
            wheel: TimerWheel::new(Instant::now()),
        })
    }

    /// A handle other threads use to interrupt `turn`.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// A handle other threads use to post completions.
    pub fn remote(&self) -> Remote<T> {
        self.queue.remote()
    }

    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.poller.add(fd, token, interest)
    }

    pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.poller.modify(fd, token, interest)
    }

    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.poller.delete(fd)
    }

    /// Arms a timer firing `after` from now, yielding `token` in
    /// [`Turn::timers`].
    pub fn schedule(&mut self, after: Duration, token: u64) -> TimerId {
        self.schedule_at(Instant::now() + after, token)
    }

    /// Arms a timer firing at `at` (at once if it has passed).
    pub fn schedule_at(&mut self, at: Instant, token: u64) -> TimerId {
        self.wheel.schedule_at(at, token)
    }

    pub fn cancel_timer(&mut self, timer: TimerId) {
        self.wheel.cancel(timer);
    }

    /// Blocks until readiness, a timer, a completion, or `max_wait`
    /// (forever when `None` and no timer is armed), then fills `turn`.
    pub fn turn(&mut self, max_wait: Option<Duration>, turn: &mut Turn<T>) -> io::Result<()> {
        turn.clear();
        let now = Instant::now();
        let timer_wait = self.wheel.next_timeout(now);
        let timeout = match (timer_wait, max_wait) {
            (None, None) => None,
            (Some(t), None) | (None, Some(t)) => Some(t),
            (Some(a), Some(b)) => Some(a.min(b)),
        };
        // lint:allow(no-blocking-in-reactor): this is the reactor's
        // one designated blocking point — the epoll readiness wait
        // itself, bounded by the nearest timer deadline.
        self.poller.wait(&mut turn.events, timeout)?;
        let mut woken = false;
        turn.events.retain(|event| {
            if event.token == WAKER_TOKEN {
                woken = true;
                false
            } else {
                true
            }
        });
        if woken {
            self.waker.drain();
        }
        self.queue.drain(&mut turn.completions);
        self.wheel.expire(Instant::now(), &mut turn.timers);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn readiness_event_carries_token() {
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let mut reactor: Reactor<()> = Reactor::new().unwrap();
        reactor
            .register(
                std::os::fd::AsRawFd::as_raw_fd(&server),
                42,
                Interest {
                    readable: true,
                    writable: false,
                    edge: true,
                    exclusive: false,
                },
            )
            .unwrap();
        client.write_all(b"ping\n").unwrap();
        let mut turn = Turn::new();
        reactor
            .turn(Some(Duration::from_secs(2)), &mut turn)
            .unwrap();
        assert_eq!(turn.events.len(), 1);
        assert_eq!(turn.events[0].token, 42);
        assert!(turn.events[0].readable);
        let mut buf = [0u8; 8];
        let n = (&server).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping\n");
    }

    #[test]
    fn waker_interrupts_indefinite_wait() {
        let mut reactor: Reactor<u32> = Reactor::new().unwrap();
        let remote = reactor.remote();
        let poster = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.complete(7);
        });
        let mut turn = Turn::new();
        reactor
            .turn(Some(Duration::from_secs(5)), &mut turn)
            .unwrap();
        poster.join().unwrap();
        assert_eq!(turn.completions, vec![7]);
        assert!(turn.events.is_empty(), "waker event must be internal");
    }

    #[test]
    fn timer_fires_without_io() {
        let mut reactor: Reactor<()> = Reactor::new().unwrap();
        reactor.schedule(Duration::from_millis(20), 9);
        let started = Instant::now();
        let mut turn = Turn::new();
        while turn.timers.is_empty() {
            assert!(
                started.elapsed() < Duration::from_secs(2),
                "timer never fired"
            );
            reactor
                .turn(Some(Duration::from_secs(1)), &mut turn)
                .unwrap();
        }
        assert_eq!(turn.timers, vec![9]);
        assert!(started.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn cancelled_timer_stays_silent() {
        let mut reactor: Reactor<()> = Reactor::new().unwrap();
        let id = reactor.schedule(Duration::from_millis(10), 1);
        reactor.cancel_timer(id);
        let mut turn = Turn::new();
        reactor
            .turn(Some(Duration::from_millis(40)), &mut turn)
            .unwrap();
        assert!(turn.timers.is_empty());
    }

    #[test]
    fn edge_triggered_write_interest_rearms() {
        let (client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let fd = std::os::fd::AsRawFd::as_raw_fd(&server);
        let mut reactor: Reactor<()> = Reactor::new().unwrap();
        reactor
            .register(
                fd,
                1,
                Interest {
                    readable: true,
                    writable: true,
                    edge: true,
                    exclusive: false,
                },
            )
            .unwrap();
        // A fresh socket is immediately writable.
        let mut turn = Turn::new();
        reactor
            .turn(Some(Duration::from_secs(2)), &mut turn)
            .unwrap();
        assert!(turn.events.iter().any(|e| e.token == 1 && e.writable));
        drop(client);
        // Peer hangup surfaces as read-closed/readable.
        let started = Instant::now();
        loop {
            reactor
                .turn(Some(Duration::from_secs(1)), &mut turn)
                .unwrap();
            if turn
                .events
                .iter()
                .any(|e| e.token == 1 && (e.read_closed || e.readable || e.error))
            {
                break;
            }
            assert!(
                started.elapsed() < Duration::from_secs(2),
                "no hangup event"
            );
        }
    }
}
