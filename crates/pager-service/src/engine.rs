//! The transport engine: every TCP connection of `pager-serve` and of
//! the `pager-cluster` router is served by this one epoll event loop.
//!
//! Each shard thread owns a [`pager_reactor::Reactor`] and a set of
//! connection state machines (`read → split → dispatch → buffered
//! write → drain`). One listening socket is registered in every
//! shard's poller with `EPOLLEXCLUSIVE`, so the kernel load-balances
//! accepts across shards without `SO_REUSEPORT`.
//!
//! The engine knows nothing about paging. It reads each connection
//! through [`pager_wire::frame::next_message`] (rules in
//! `docs/wire.md`), answers the bytes that rule rejects itself, and
//! hands every request line or native frame to a [`Handler`], which
//! answers now or later through a [`Completion`] ([`Reply`]).
//! Around the handler the engine keeps the serving contracts:
//!
//! * **Ordering** — a connection dispatches strictly serially: the
//!   next buffered message is parsed only once the previous answer is
//!   queued, so answers leave in request order and each connection has
//!   at most one job in flight.
//! * **In-flight accounting** — a request counts from dispatch until
//!   its answer reaches the kernel ([`ReactorHandle::drain`] waits on
//!   this), decremented exactly once via flushed-byte offsets.
//! * **Deadline watchdog** — every deferred answer arms a watchdog
//!   timer at the deadline the handler names; a firing while the
//!   answer is still outstanding bumps the handler's
//!   `deadline_watchdog` counter. Telemetry only: enforcement stays
//!   with the solver and the router.
//! * **Isolation** — the I/O pool grows a worker whenever a job
//!   arrives and none is idle, so a job blocked on a dead backend never
//!   holds up another connection's request. Workers beyond
//!   [`ReactorConfig::io_threads`] exit after 10 s idle.
//! * **Drain** — a stop closes idle connections at once and stops
//!   dispatching buffered messages, but every dispatched request is
//!   answered and flushed before its connection closes.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use jsonio::metrics::Counter;
use pager_core::cancel::CancelToken;
use pager_reactor::{Event, Interest, Reactor, Remote, TimerId, Turn, Waker};
use pager_wire::frame::{self, Framing, Message};

/// Registration token for the shared listener (the reactor reserves
/// `u64::MAX` for its waker).
const LISTENER_TOKEN: u64 = u64::MAX - 1;
/// Timer token: retry a paused accept loop after fd exhaustion.
const ACCEPT_RETRY_TOKEN: u64 = u64::MAX - 2;
/// Timer token: force-close stalled writers during drain.
const GRACE_TOKEN: u64 = u64::MAX - 3;
/// First token handed to a connection; tokens are monotone per shard
/// and never reused, so a late completion can never be delivered to a
/// recycled connection.
const FIRST_CONN_TOKEN: u64 = 0;

/// How long to wait after `EMFILE`/`ENFILE` before accepting again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);
/// How long a draining shard keeps a connection whose peer is not
/// reading its pending response before force-closing it.
const FLUSH_GRACE: Duration = Duration::from_secs(30);
/// Poll cadence for [`ReactorHandle::drain`].
const DRAIN_POLL: Duration = Duration::from_millis(5);
/// How long an I/O pool worker beyond [`ReactorConfig::io_threads`]
/// may sit idle before it exits.
pub(crate) const IO_IDLE_EXIT: Duration = Duration::from_secs(10);

/// Tuning knobs for [`serve_reactor_with`]; the default suits both
/// `pager-serve` and the router.
#[derive(Clone, Copy, Debug)]
pub struct ReactorConfig {
    /// Shard (event-loop) threads. Each owns its own epoll instance;
    /// accepts are kernel-balanced across them.
    pub shards: usize,
    /// I/O pool workers kept alive while idle. The pool grows past
    /// this whenever every worker is busy.
    pub io_threads: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            shards: std::thread::available_parallelism()
                .map_or(1, usize::from)
                .clamp(1, 8),
            io_threads: 2,
        }
    }
}

/// What a service plugs into the engine: how to answer one message.
///
/// Methods run on a shard thread and must not block — anything that
/// may (disk, backend round trips) goes to [`Call::spawn`] behind a
/// [`Call::later`] completion, and work the handler queues elsewhere
/// (such as a solve too costly to run inline) answers through one.
/// Bounded CPU work, such as a cheap solve, may run here.
pub trait Handler: Send + Sync + 'static {
    /// Answers one request line, trimmed: a non-blank v1 line or the
    /// line inside a `JSON_REQ` frame. [`Call::reply_line`] and
    /// [`Completion::answer_line`] frame the answer the way the request
    /// arrived.
    fn on_line(self: Arc<Self>, line: &str, call: &mut Call<'_>) -> Reply;

    /// Answers one v2 frame other than `JSON_REQ`. `payload` borrows
    /// the connection's read buffer; a `Reply::Now` answer is encoded
    /// into [`Call::out`].
    fn on_frame(self: Arc<Self>, frame_op: u8, payload: &[u8], call: &mut Call<'_>) -> Reply;

    /// Node identity stamped on the `bad_request` answers the engine
    /// gives itself (bytes that are not a well-formed message).
    fn node(&self) -> Option<&str>;

    /// The counters the engine keeps on the handler's behalf.
    fn gauges(&self) -> Gauges<'_>;
}

/// Counters the engine maintains for its [`Handler`].
pub struct Gauges<'a> {
    /// Open connections (gauge).
    pub connections: &'a Counter,
    /// Watchdog firings: a deferred answer still outstanding when the
    /// deadline named in [`Call::later`] passed.
    pub deadline_watchdog: &'a Counter,
}

/// How a [`Handler`] answered one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reply {
    /// The answer is already queued on the connection (a v2 cache hit
    /// is encoded there straight from the borrowed payload, a plan
    /// solved during dispatch straight from its result).
    Now,
    /// The answer will arrive through the [`Completion`] the handler
    /// took with [`Call::later`].
    Later,
}

/// One message's view of its connection, handed to the [`Handler`].
pub struct Call<'a> {
    out: &'a mut Vec<u8>,
    stream: &'a Arc<TcpStream>,
    framing: Framing,
    token: u64,
    remote: &'a Remote<Done>,
    pool: &'a Arc<IoPool>,
    /// The watchdog deadline named in [`Call::later`].
    deadline: Option<Instant>,
    stop: bool,
}

impl Call<'_> {
    /// The connection's write buffer, for answers encoded in place.
    pub fn out(&mut self) -> &mut Vec<u8> {
        self.out
    }

    /// How the request arrived, for answers encoded in place with
    /// [`Framing::append_line`].
    pub(crate) fn framing(&self) -> Framing {
        self.framing
    }

    /// Queues a line-shaped answer, framed the way the request
    /// arrived; with `stop` the server begins draining once it is
    /// queued.
    pub fn reply_line(&mut self, line: &str, stop: bool) {
        self.framing.append_line(line, self.out);
        self.stop |= stop;
    }

    /// Defers the answer: the returned [`Completion`] builds it, and
    /// the watchdog is armed at the instant `deadline` fires (none for
    /// a token that never does). Return [`Reply::Later`] after calling
    /// this.
    pub fn later(&mut self, deadline: &CancelToken) -> Completion {
        self.deadline = deadline.deadline();
        Completion {
            conn: self.token,
            framing: self.framing,
            remote: self.remote.clone(),
            // Nothing queued ahead of the answer: it may go straight to
            // the socket (see `Answer::send`).
            direct: self.out.is_empty().then(|| Arc::clone(self.stream)),
        }
    }

    /// Runs `job` on the engine's I/O pool, off the shard thread; the
    /// pool sends the [`Answer`] it returns.
    pub fn spawn(&self, job: impl FnOnce() -> Answer + Send + 'static) {
        self.pool.execute(Box::new(job));
    }
}

/// Builds one deferred answer for its connection, on any thread.
pub struct Completion {
    conn: u64,
    framing: Framing,
    remote: Remote<Done>,
    direct: Option<Arc<TcpStream>>,
}

impl Completion {
    /// An answer of pre-encoded bytes.
    pub fn answer(self, bytes: Vec<u8>) -> Answer {
        Answer {
            to: self,
            bytes,
            stop: false,
        }
    }

    /// A line-shaped answer, framed the way the request arrived; with
    /// `stop` the server begins draining once it is queued.
    pub fn answer_line(self, line: &str, stop: bool) -> Answer {
        let mut bytes = Vec::with_capacity(line.len() + frame::HEADER_LEN);
        self.framing.append_line(line, &mut bytes);
        Answer {
            to: self,
            bytes,
            stop,
        }
    }
}

/// A deferred answer for its connection. A solver callback sends it;
/// an I/O-pool job returns it for the pool to send.
#[must_use = "an answer reaches its connection only when sent"]
pub struct Answer {
    to: Completion,
    bytes: Vec<u8>,
    stop: bool,
}

impl Answer {
    /// Delivers the answer. When nothing was queued ahead of it, it is
    /// written to the socket from this thread — the connection waits on
    /// this answer alone, so order holds and the client skips a hop
    /// through the shard — and the shard gets the unwritten rest (if
    /// any) plus the bookkeeping.
    pub(crate) fn send(mut self) {
        let mut written = 0;
        if let Some(stream) = &self.to.direct {
            while written < self.bytes.len() {
                match (&**stream).write(&self.bytes[written..]) {
                    Ok(0) => break,
                    Ok(n) => written += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    // WouldBlock or a dead peer: the shard takes over.
                    Err(_) => break,
                }
            }
            self.bytes.drain(..written);
        }
        self.to.remote.complete(Done {
            conn: self.to.conn,
            bytes: self.bytes,
            written,
            stop: self.stop,
        });
    }
}

/// A completion in flight to its shard.
struct Done {
    conn: u64,
    /// Answer bytes not yet written.
    bytes: Vec<u8>,
    /// Bytes already written straight to the socket.
    written: usize,
    stop: bool,
}

type IoJob = Box<dyn FnOnce() -> Answer + Send>;

/// Unbounded, elastic pool for handler work that may block. Unbounded
/// on purpose: `observe` fsyncs and WAL traffic never shed (the router
/// paces WAL shipping). Elastic because a connection waits on at most
/// one job, so a job must never queue behind another connection's
/// blocked one.
struct IoPool {
    /// Workers kept alive while idle.
    core: usize,
    idle_exit: Duration,
    state: Mutex<PoolState>,
    ready: Condvar,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

#[derive(Default)]
struct PoolState {
    jobs: VecDeque<IoJob>,
    /// Workers parked waiting for a job, or done with one and about
    /// to look for the next.
    idle: usize,
    /// Workers alive (running a job or parked).
    live: usize,
    closed: bool,
}

impl IoPool {
    /// Workers start on demand; the first `core` stay once started.
    fn new(core: usize, idle_exit: Duration) -> Arc<IoPool> {
        Arc::new(IoPool {
            core,
            idle_exit,
            state: Mutex::new(PoolState::default()),
            ready: Condvar::new(),
            threads: Mutex::new(Vec::new()),
        })
    }

    fn lock_state(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `job`, starting a worker when none is idle to take it.
    fn execute(self: &Arc<Self>, job: IoJob) {
        let grow = {
            let mut state = self.lock_state();
            state.jobs.push_back(job);
            let grow = state.jobs.len() > state.idle;
            if grow {
                state.live += 1;
            }
            grow
        };
        self.ready.notify_one();
        // A failed spawn leaves the job queued for the live workers.
        if grow && self.spawn_worker().is_err() {
            self.lock_state().live -= 1;
        }
    }

    fn spawn_worker(self: &Arc<Self>) -> io::Result<()> {
        let pool = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("pager-io".into())
            // lint:allow(no-blocking-in-reactor): this closure is the
            // I/O pool worker's body; it parks on the pool's condvar on
            // its own thread, never on a shard thread.
            .spawn(move || pool.work())?;
        let mut threads = self.threads.lock().unwrap_or_else(PoisonError::into_inner);
        threads.retain(|t| !t.is_finished());
        threads.push(handle);
        Ok(())
    }

    fn work(&self) {
        let mut state = self.lock_state();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                drop(state);
                let answer = job();
                // Count as idle before waking the shard: it may queue
                // this connection's next job at once, and this worker
                // takes it without the pool starting another.
                self.lock_state().idle += 1;
                answer.send();
                state = self.lock_state();
                state.idle -= 1;
                continue;
            }
            if state.closed {
                break;
            }
            state.idle += 1;
            let (next, wait) = self
                .ready
                .wait_timeout(state, self.idle_exit)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
            state.idle -= 1;
            if wait.timed_out() && state.jobs.is_empty() && state.live > self.core {
                break;
            }
        }
        state.live -= 1;
    }

    /// Runs every queued job, then stops and joins the workers.
    fn shutdown(&self) {
        self.lock_state().closed = true;
        self.ready.notify_all();
        let threads: Vec<_> = self
            .threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for thread in threads {
            let _ = thread.join();
        }
    }
}

/// State shared between the shards and the handle.
struct Shared {
    handler: Arc<dyn Handler>,
    stop: AtomicBool,
    /// Requests dispatched but not yet flushed to their sockets;
    /// `drain` waits for this to hit zero.
    inflight: AtomicU64,
    /// Condvar behind [`ReactorHandle::join`]: signalled when a
    /// handler (or `stop()`) requests a stop.
    stop_flag: Mutex<bool>,
    stop_cv: Condvar,
    /// Every shard's waker, for stop() and cross-shard shutdown.
    wakers: OnceLock<Vec<Waker>>,
    io_pool: Arc<IoPool>,
}

impl Shared {
    /// Requests a stop: sets the flag, signals `join`ers, and wakes
    /// every shard so it observes the flag now rather than at its
    /// next natural wakeup.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        {
            let mut stop_flag = self
                .stop_flag
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *stop_flag = true;
        }
        self.stop_cv.notify_all();
        if let Some(wakers) = self.wakers.get() {
            for waker in wakers {
                waker.wake();
            }
        }
    }

    fn dec_inflight(&self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One connection's state machine.
struct Conn {
    stream: Arc<TcpStream>,
    read_buf: Vec<u8>,
    /// Consumed prefix of `read_buf` (compacted periodically).
    read_pos: usize,
    write_buf: Vec<u8>,
    /// Flushed prefix of `write_buf` (compacted on full flush).
    write_pos: usize,
    /// Total bytes ever flushed; `pending_ends` holds the byte mark at
    /// which each queued answer will be fully flushed, so the in-flight
    /// gauge decrements exactly when an answer reaches the kernel.
    flushed_total: u64,
    pending_ends: VecDeque<u64>,
    /// A deferred answer is outstanding; the connection dispatches
    /// nothing else until it arrives.
    busy: bool,
    read_closed: bool,
    broken: bool,
    /// Whether the current epoll registration includes `EPOLLOUT`.
    want_write: bool,
    /// Deadline-watchdog timer for the outstanding answer.
    deadline: Option<TimerId>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream: Arc::new(stream),
            read_buf: Vec::new(),
            read_pos: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            flushed_total: 0,
            pending_ends: VecDeque::new(),
            busy: false,
            read_closed: false,
            broken: false,
            want_write: false,
            deadline: None,
        }
    }

    fn write_idle(&self) -> bool {
        self.write_pos >= self.write_buf.len()
    }

    /// Marks everything queued so far as one answer awaiting flush.
    fn end_answer(&mut self) {
        let end = self.flushed_total + (self.write_buf.len() - self.write_pos) as u64;
        self.pending_ends.push_back(end);
    }

    /// Drains the socket into `read_buf` until `WouldBlock` (required
    /// under edge-triggered delivery). A connection already marked
    /// read-closed (EOF, or closed by its handler) stops consuming
    /// input.
    fn read_available(&mut self) {
        if self.read_closed {
            return;
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match (&*self.stream).read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    return;
                }
                Ok(n) => self.read_buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.broken = true;
                    return;
                }
            }
        }
    }

    /// Writes until `WouldBlock` or empty; decrements the in-flight
    /// gauge for every answer that fully reached the kernel.
    fn flush(&mut self, shared: &Shared) {
        while self.write_pos < self.write_buf.len() {
            match (&*self.stream).write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    self.broken = true;
                    break;
                }
                Ok(n) => {
                    self.write_pos += n;
                    self.flushed_total += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.broken = true;
                    break;
                }
            }
        }
        while self
            .pending_ends
            .front()
            .is_some_and(|&end| end <= self.flushed_total)
        {
            self.pending_ends.pop_front();
            shared.dec_inflight();
        }
        if self.write_idle() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
    }
}

struct Shard {
    shared: Arc<Shared>,
    reactor: Reactor<Done>,
    remote: Remote<Done>,
    listener: Arc<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    accepting: bool,
    /// Set once the shard has observed the stop flag and torn down
    /// its accept registration / idle connections.
    stop_seen: bool,
    grace: Option<TimerId>,
}

impl Shard {
    fn new(shared: Arc<Shared>, listener: Arc<TcpListener>) -> io::Result<Shard> {
        let reactor = Reactor::new()?;
        // Level-triggered + exclusive: every shard registers the same
        // listening socket; the kernel wakes one shard per backlog
        // burst, and level-triggering re-arms as long as the backlog
        // is non-empty.
        reactor.register(listener.as_raw_fd(), LISTENER_TOKEN, LISTEN_INTEREST)?;
        let remote = reactor.remote();
        Ok(Shard {
            shared,
            reactor,
            remote,
            listener,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            accepting: true,
            stop_seen: false,
            grace: None,
        })
    }

    fn run(mut self) {
        let mut turn = Turn::new();
        loop {
            if !self.stop_seen && self.shared.stop.load(Ordering::SeqCst) {
                self.begin_stop();
            }
            if self.stop_seen && self.conns.is_empty() {
                return;
            }
            // While draining, tick periodically as a safety net; the
            // normal wake sources (completions, EPOLLOUT, timers)
            // drive progress.
            let wait = self.stop_seen.then_some(Duration::from_millis(50));
            if self.reactor.turn(wait, &mut turn).is_err() {
                // epoll itself failed: this shard cannot continue.
                // Release the in-flight accounting its connections
                // hold so drain() is not wedged forever.
                let tokens: Vec<u64> = self.conns.keys().copied().collect();
                for token in tokens {
                    self.close(token);
                }
                return;
            }
            for done in std::mem::take(&mut turn.completions) {
                self.on_complete(done);
            }
            for token in std::mem::take(&mut turn.timers) {
                self.on_timer(token);
            }
            for event in std::mem::take(&mut turn.events) {
                if event.token == LISTENER_TOKEN {
                    self.accept_burst();
                } else {
                    self.on_conn_event(event);
                }
            }
        }
    }

    // ---- accepting -------------------------------------------------

    fn accept_burst(&mut self) {
        if !self.accepting || self.stop_seen {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.register_conn(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if is_fd_exhaustion(&e) => {
                    self.pause_accept();
                    return;
                }
                // Transient per-connection failures (ECONNABORTED):
                // the level-triggered registration retries naturally.
                Err(_) => return,
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .reactor
            .register(stream.as_raw_fd(), token, conn_interest(false))
            .is_err()
        {
            return;
        }
        self.conns.insert(token, Conn::new(stream));
        self.shared.handler.gauges().connections.inc();
    }

    /// Out of fds: unhook the listener (required — `EPOLLEXCLUSIVE`
    /// registrations cannot be modified) and retry after a backoff,
    /// by which time closes may have freed descriptors.
    fn pause_accept(&mut self) {
        let _ = self.reactor.deregister(self.listener.as_raw_fd());
        self.accepting = false;
        self.reactor.schedule(ACCEPT_BACKOFF, ACCEPT_RETRY_TOKEN);
    }

    fn resume_accept(&mut self) {
        if self.accepting || self.stop_seen {
            return;
        }
        if self
            .reactor
            .register(self.listener.as_raw_fd(), LISTENER_TOKEN, LISTEN_INTEREST)
            .is_ok()
        {
            self.accepting = true;
            self.accept_burst();
        } else {
            self.reactor.schedule(ACCEPT_BACKOFF, ACCEPT_RETRY_TOKEN);
        }
    }

    // ---- connection I/O --------------------------------------------

    fn on_conn_event(&mut self, event: Event) {
        let token = event.token;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if event.error {
                conn.broken = true;
            }
            if event.readable || event.read_closed || event.error {
                conn.read_available();
            }
            if event.writable && !conn.broken {
                conn.flush(&self.shared);
            }
        }
        self.settle(token);
    }

    /// Dispatches buffered messages, advances the connection's
    /// interest, and closes it when it is done.
    fn settle(&mut self, token: u64) {
        while self.dispatch_next(token) {}
        self.update_interest(token);
        self.maybe_close(token);
    }

    /// Hands the next complete buffered message to the handler and
    /// applies its [`Reply`]. Returns whether to look for another.
    ///
    /// What each message is owed is decided by
    /// [`frame::next_message`], with the connection's EOF as its flag;
    /// the engine answers rejected bytes itself, and a malformed header
    /// is answered once before the connection closes.
    fn dispatch_next(&mut self, token: u64) -> bool {
        if self.stop_seen || self.shared.stop.load(Ordering::SeqCst) {
            return false;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        if conn.busy || conn.broken {
            return false;
        }
        let pending = &conn.read_buf[conn.read_pos..];
        let Some((message, consumed)) = frame::next_message(pending, conn.read_closed) else {
            return false;
        };
        let handler: Arc<dyn Handler> = Arc::clone(&self.shared.handler);
        let before = conn.write_buf.len();
        let mut call = Call {
            out: &mut conn.write_buf,
            stream: &conn.stream,
            framing: Framing::Line,
            token,
            remote: &self.remote,
            pool: &self.shared.io_pool,
            deadline: None,
            stop: false,
        };
        let mut close = false;
        let reply = match message {
            Message::Blank => None,
            Message::Line { text, framing } => {
                call.framing = framing;
                Some(handler.on_line(text, &mut call))
            }
            Message::Frame { op, payload } => Some(handler.on_frame(op, payload, &mut call)),
            Message::Reject {
                framing,
                reason,
                close: fatal,
            } => {
                framing.append_bad_request(call.out, handler.node(), reason);
                close = fatal;
                Some(Reply::Now)
            }
        };
        let (deadline, stop) = (call.deadline, call.stop);
        conn.read_pos += consumed;
        if conn.read_pos == conn.read_buf.len() || conn.read_pos > 64 * 1024 {
            conn.read_buf.drain(..conn.read_pos);
            conn.read_pos = 0;
        }
        let Some(reply) = reply else {
            // A blank line: nothing to answer.
            return true;
        };
        let answered = conn.write_buf.len() > before;
        if answered || reply == Reply::Later {
            self.shared.inflight.fetch_add(1, Ordering::SeqCst);
        }
        match reply {
            Reply::Later => {
                conn.busy = true;
                if let Some(at) = deadline {
                    conn.deadline = Some(self.reactor.schedule_at(at, token));
                }
            }
            Reply::Now => {
                if answered {
                    conn.end_answer();
                }
                if close {
                    // Discard the rest of the stream; `read_closed`
                    // stops further reads and closes once the answer
                    // has flushed.
                    conn.read_closed = true;
                    conn.read_buf.clear();
                    conn.read_pos = 0;
                }
                conn.flush(&self.shared);
            }
        }
        if stop {
            // The answer is already queued, so the drain flushes it
            // before this connection closes.
            self.shared.request_stop();
        }
        reply == Reply::Now && !close
    }

    fn on_complete(&mut self, done: Done) {
        let deadline = match self.conns.get_mut(&done.conn) {
            None => {
                // The connection died while its request was running;
                // the answer has nowhere to go.
                self.shared.dec_inflight();
                None
            }
            Some(conn) => {
                conn.busy = false;
                conn.flushed_total += done.written as u64;
                conn.write_buf.extend_from_slice(&done.bytes);
                conn.end_answer();
                conn.flush(&self.shared);
                conn.deadline.take()
            }
        };
        if let Some(timer) = deadline {
            self.reactor.cancel_timer(timer);
        }
        if done.stop {
            self.shared.request_stop();
        }
        self.settle(done.conn);
    }

    fn on_timer(&mut self, token: u64) {
        match token {
            ACCEPT_RETRY_TOKEN => self.resume_accept(),
            GRACE_TOKEN => self.on_grace(),
            conn_token => {
                let overdue = self.conns.get_mut(&conn_token).is_some_and(|conn| {
                    conn.deadline = None;
                    conn.busy
                });
                if overdue {
                    self.shared.handler.gauges().deadline_watchdog.inc();
                }
            }
        }
    }

    /// Re-arms write interest to match buffered output.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want_write = !conn.write_idle();
        if conn.broken || want_write == conn.want_write {
            return;
        }
        conn.want_write = want_write;
        if self
            .reactor
            .reregister(conn.stream.as_raw_fd(), token, conn_interest(want_write))
            .is_err()
        {
            conn.broken = true;
        }
    }

    fn maybe_close(&mut self, token: u64) {
        let should_close = self.conns.get(&token).is_some_and(|conn| {
            conn.broken || ((conn.read_closed || self.stop_seen) && !conn.busy && conn.write_idle())
        });
        if should_close {
            self.close(token);
        }
    }

    fn close(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.reactor.deregister(conn.stream.as_raw_fd());
        if let Some(timer) = conn.deadline.take() {
            self.reactor.cancel_timer(timer);
        }
        // Answers queued but never flushed will never reach the
        // kernel now; release their in-flight accounting. (A request
        // still marked busy is released by `on_complete` when its
        // orphaned completion arrives.)
        for _ in conn.pending_ends.drain(..) {
            self.shared.dec_inflight();
        }
        self.shared.handler.gauges().connections.dec();
    }

    // ---- drain -----------------------------------------------------

    /// First reaction to the stop flag: stop accepting, close idle
    /// connections, keep flushing the rest. Dispatch of buffered
    /// messages has already ceased (see `dispatch_next`).
    fn begin_stop(&mut self) {
        self.stop_seen = true;
        if self.accepting {
            let _ = self.reactor.deregister(self.listener.as_raw_fd());
            self.accepting = false;
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.maybe_close(token);
        }
        if !self.conns.is_empty() && self.grace.is_none() {
            self.grace = Some(self.reactor.schedule(FLUSH_GRACE, GRACE_TOKEN));
        }
    }

    /// Drain grace expired: force-close connections stalled on a peer
    /// that is not reading. Requests still outstanding get another
    /// grace period.
    fn on_grace(&mut self) {
        self.grace = None;
        let stalled: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| !conn.busy)
            .map(|(&token, _)| token)
            .collect();
        for token in stalled {
            self.close(token);
        }
        if !self.conns.is_empty() {
            self.grace = Some(self.reactor.schedule(FLUSH_GRACE, GRACE_TOKEN));
        }
    }
}

const LISTEN_INTEREST: Interest = Interest {
    readable: true,
    writable: false,
    edge: false,
    exclusive: true,
};

fn conn_interest(writable: bool) -> Interest {
    Interest {
        readable: true,
        writable,
        edge: true,
        exclusive: false,
    }
}

fn is_fd_exhaustion(error: &io::Error) -> bool {
    matches!(error.raw_os_error(), Some(23) | Some(24)) // ENFILE | EMFILE
}

/// A running engine.
pub struct ReactorHandle {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    shards: Mutex<Vec<JoinHandle<()>>>,
}

impl ReactorHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Whether a stop has been requested.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Requests dispatched but not yet answered and flushed.
    #[must_use]
    pub(crate) fn inflight(&self) -> u64 {
        self.shared.inflight.load(Ordering::SeqCst)
    }

    /// Asks every shard to stop accepting and drain. Does not block.
    pub fn stop(&self) {
        self.shared.request_stop();
    }

    /// Stops, then waits up to `budget` for in-flight requests to be
    /// answered *and flushed*. Returns how many were still pending
    /// when the budget ran out (0 = drained cleanly).
    pub fn drain(&self, budget: Duration) -> u64 {
        self.stop();
        let deadline = Instant::now() + budget;
        loop {
            let pending = self.inflight();
            if pending == 0 || Instant::now() >= deadline {
                return pending;
            }
            std::thread::sleep(DRAIN_POLL);
        }
    }

    /// Blocks until a stop is requested (a handler's stopping answer
    /// or [`ReactorHandle::stop`]).
    pub fn join(&self) {
        let mut stop_flag = self
            .shared
            .stop_flag
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while !*stop_flag {
            stop_flag = self
                .shared
                .stop_cv
                .wait(stop_flag)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        self.stop();
        let handles: Vec<_> = self
            .shards
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
        // Only after every shard exited: shards may still queue I/O
        // jobs while draining.
        self.shared.io_pool.shutdown();
    }
}

/// Serves `handler` on `addr` until stopped.
///
/// # Errors
///
/// Binding, epoll setup, or thread spawning failures.
pub fn serve_reactor_with<A: ToSocketAddrs>(
    handler: Arc<dyn Handler>,
    addr: A,
    config: ReactorConfig,
) -> io::Result<ReactorHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let listener = Arc::new(listener);
    let shared = Arc::new(Shared {
        handler,
        stop: AtomicBool::new(false),
        inflight: AtomicU64::new(0),
        stop_flag: Mutex::new(false),
        stop_cv: Condvar::new(),
        wakers: OnceLock::new(),
        io_pool: IoPool::new(config.io_threads, IO_IDLE_EXIT),
    });
    let shard_count = config.shards.max(1);
    let mut shards = Vec::with_capacity(shard_count);
    let mut wakers = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        let shard = Shard::new(Arc::clone(&shared), Arc::clone(&listener))?;
        wakers.push(shard.reactor.waker());
        shards.push(shard);
    }
    // Set before any shard thread runs, so `request_stop` can always
    // reach every shard.
    let _ = shared.wakers.set(wakers);
    let threads = shards
        .into_iter()
        .enumerate()
        .map(|(i, shard)| {
            std::thread::Builder::new()
                .name(format!("pager-shard-{i}"))
                .spawn(move || shard.run())
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok(ReactorHandle {
        addr,
        shared,
        shards: Mutex::new(threads),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn io_pool_grows_past_a_blocked_job_and_shrinks_back() {
        let pool = IoPool::new(1, Duration::from_millis(50));
        let live = || pool.lock_state().live;
        let reactor: Reactor<Done> = Reactor::new().expect("reactor");
        let remote = reactor.remote();
        let answer = move || {
            let to = Completion {
                conn: 0,
                framing: Framing::Line,
                remote: remote.clone(),
                direct: None,
            };
            to.answer(Vec::new())
        };
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        let (blocked_done, blocked_answer) = (done_tx.clone(), answer.clone());
        pool.execute(Box::new(move || {
            let _ = release_rx.recv();
            let _ = blocked_done.send("blocked");
            blocked_answer()
        }));
        // The only core worker is parked on the first job; the second
        // still runs at once on a worker the pool starts for it.
        pool.execute(Box::new(move || {
            let _ = done_tx.send("free");
            answer()
        }));
        assert_eq!(done_rx.recv_timeout(Duration::from_secs(5)), Ok("free"));
        let _ = release_tx.send(());
        assert_eq!(done_rx.recv_timeout(Duration::from_secs(5)), Ok("blocked"));
        // The extra worker exits after its idle time; the core stays.
        let deadline = Instant::now() + Duration::from_secs(5);
        while live() > 1 {
            assert!(Instant::now() < deadline, "extra worker never exited");
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(live(), 1, "a core worker exited");
        pool.shutdown();
        assert_eq!(live(), 0);
    }
}
