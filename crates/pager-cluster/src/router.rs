//! The cluster router: v1 JSON-lines and v2 binary frames in, the
//! same protocol out.
//!
//! A client speaks exactly the protocol a standalone `pager-serve`
//! speaks; the router forwards each request to the shard that owns its
//! routing key (device name for `observe`/`plan_devices`, the
//! quantised instance fingerprint for raw `plan` — so the v1 JSON,
//! `textio` string and v2 binary forms of one instance all land on the
//! same shard and share its strategy cache), over pooled connections
//! with per-backend circuit breakers. `overloaded` and `degraded`
//! answers from a shard pass through unchanged (with the shard's own
//! `retry_after_ms`), and transport failures trigger retry-with-backoff
//! within the request's `deadline_ms` budget — promoting a warm
//! replica and bumping the membership epoch if the owner is gone.
//!
//! Requests arrive typed: [`handle_line`](Router::handle_line) parses
//! v1 lines with [`pager_wire::json::parse_routed`] and dispatches on
//! [`pager_wire::Request`] — the same enum `pager-service`'s `proto`
//! consumes — so a new op is added in `pager-wire` once and both ends
//! pick it up. [`handle_frame`](Router::handle_frame) forwards v2
//! `plan` frames shard-ward *without* decoding the matrix: only the
//! fixed-size header fields are viewed (for the routing fingerprint
//! and deadline) and the frame bytes travel to the backend as-is.
//!
//! `observe` is special-cased twice: the batch is split per owning
//! shard, and the router ships each owner's WAL tail to that shard's
//! replicas (see [`crate::ship`]) *before* acking the client, so an
//! acked sighting is always replayable from a survivor.
//!
//! Lock order within the router (enforced by `pager-lint`):
//! `membership` (class `cluster`) strictly above the `conns` pools and
//! `ship` cursors (class `router`). Membership is snapshotted and
//! released before any backend I/O.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use jsonio::Value;
use pager_profiles::Sighting;
use pager_wire::frame::{self, op};
use pager_wire::{
    binary, json, ErrorCode, IdView, PlanFrameView, Request, RoutedRequest, WireError,
};

use crate::ring::ShardMap;
use crate::ship::ShipCursors;
use crate::wire::Conn;

/// Protocol version stamped on router-origin response lines (matches
/// `pager_wire::json::PROTOCOL_VERSION`).
pub const PROTOCOL_VERSION: u64 = 1;

/// Quantisation grid for the `plan` routing fingerprint. Matches the
/// default service cache grid so near-identical matrices co-locate
/// with the strategies they would hit; routing only needs determinism,
/// so a backend configured with a different grid still works — its
/// cache keys just use its own resolution.
const ROUTING_GRID: u32 = 1000;

/// Whether `CHAOS_DEBUG` diagnostics are enabled. Read once: a
/// per-request `env::var` takes a process-global lock, which is enough
/// timing perturbation to mask the races the chaos matrix hunts.
pub(crate) fn chaos_debug() -> bool {
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG.get_or_init(|| std::env::var("CHAOS_DEBUG").is_ok())
}

/// One process a shard can be served by.
#[derive(Debug, Clone)]
pub struct BackendSpec {
    /// Stable node identity (the backend's `--node-id`).
    pub node: String,
    /// `host:port` the backend listens on.
    pub addr: String,
}

/// A shard and the processes backing it, owner first.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Ring member name (stable across failovers).
    pub shard: String,
    /// Owner at index 0, warm replicas after.
    pub backends: Vec<BackendSpec>,
}

/// Router tuning.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: u32,
    /// Starting membership epoch.
    pub epoch: u64,
    /// TCP connect timeout per backend dial.
    pub connect_timeout: Duration,
    /// Read/write timeout per backend round trip.
    pub io_timeout: Duration,
    /// Consecutive transport failures before a backend's breaker opens.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects calls before half-opening.
    pub breaker_cooldown: Duration,
    /// Retry budget for requests that carry no `deadline_ms`.
    pub default_deadline: Duration,
    /// How long an idle pooled backend connection may sit unused
    /// before the router drops it instead of reusing it. Reaping is
    /// lazy (at checkout), so an idle router holds sockets at most
    /// one checkout past the TTL — and an engine-served backend
    /// holds the matching server side for pennies, not a thread.
    pub pool_idle_ttl: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            vnodes: 64,
            epoch: 0,
            connect_timeout: Duration::from_millis(1000),
            io_timeout: Duration::from_millis(5000),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(500),
            default_deadline: Duration::from_millis(2000),
            pool_idle_ttl: Duration::from_secs(30),
        }
    }
}

/// Pops the most recently repooled entry younger than `ttl`, dropping
/// every expired entry along the way. Generic so the reap policy is
/// testable without opening sockets.
pub(crate) fn checkout_pooled<C>(
    pool: &Mutex<Vec<(C, Instant)>>,
    now: Instant,
    ttl: Duration,
) -> Option<C> {
    let mut conns = pool.lock().unwrap_or_else(|e| e.into_inner());
    conns.retain(|(_, parked_at)| now.duration_since(*parked_at) < ttl);
    conns.pop().map(|(conn, _)| conn)
}

/// The result of routing one line.
#[derive(Debug)]
pub struct RouterOutcome {
    /// The response line (compact JSON).
    pub response: String,
    /// Whether the caller should stop serving (client sent `shutdown`).
    pub shutdown: bool,
}

/// One backend process: its pooled connections and breaker state.
#[derive(Debug)]
pub(crate) struct Backend {
    pub(crate) node: String,
    pub(crate) addr: String,
    /// Idle pooled connections, each stamped with when it was parked.
    /// Poisoned connections (any transport or parse error
    /// mid-round-trip) are dropped, never returned; parked ones
    /// expire after [`RouterConfig::pool_idle_ttl`].
    conns: Mutex<Vec<(Conn, Instant)>>,
    /// Consecutive transport failures (reset on success).
    failures: AtomicU32,
    /// Breaker-open horizon, in micros since the router's `start`.
    /// 0 = closed.
    open_until_micros: AtomicU64,
}

/// Point-in-time routing table: the ring plus, per shard, which
/// backend indexes currently serve it.
#[derive(Debug, Clone)]
pub(crate) struct Membership {
    pub(crate) map: ShardMap,
    /// Parallel to `map.shards`.
    pub(crate) shards: Vec<ShardNodes>,
}

/// The processes serving one shard right now.
#[derive(Debug, Clone)]
pub(crate) struct ShardNodes {
    /// Index into `Router::backends` of the current owner.
    pub(crate) owner: usize,
    /// Indexes of the warm replicas (ship targets / promotion pool).
    pub(crate) replicas: Vec<usize>,
}

/// Router-side counters, dumped by the `stats` op.
#[derive(Debug, Default)]
pub(crate) struct RouterMetrics {
    pub(crate) requests: AtomicU64,
    pub(crate) forwarded: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) failovers: AtomicU64,
    pub(crate) shed_passthrough: AtomicU64,
    pub(crate) transport_errors: AtomicU64,
    pub(crate) shipped_records: AtomicU64,
    pub(crate) breaker_rejections: AtomicU64,
    /// Replies that arrived intact but are not valid pager responses
    /// (corrupted or byzantine backend). These trip the breaker like
    /// transport failures — a garbage-speaking backend must not be
    /// retried forever.
    pub(crate) byzantine_replies: AtomicU64,
    /// Open client connections on the TCP front end (gauge).
    pub(crate) connections: AtomicU64,
    /// Front-end watchdog firings: a request still unanswered when its
    /// deadline budget elapsed.
    pub(crate) deadline_watchdog: AtomicU64,
}

impl RouterMetrics {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed); // lint:allow(atomics-ordering-audit): monotone counter, no handoff
    }

    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed); // lint:allow(atomics-ordering-audit): monotone counter, no handoff
    }

    fn to_json(&self) -> Value {
        let read = |c: &AtomicU64| {
            Value::from(c.load(Ordering::Relaxed)) // lint:allow(atomics-ordering-audit): report-only read
        };
        Value::object(vec![
            ("requests", read(&self.requests)),
            ("forwarded", read(&self.forwarded)),
            ("retries", read(&self.retries)),
            ("failovers", read(&self.failovers)),
            ("shed_passthrough", read(&self.shed_passthrough)),
            ("transport_errors", read(&self.transport_errors)),
            ("shipped_records", read(&self.shipped_records)),
            ("breaker_rejections", read(&self.breaker_rejections)),
            ("byzantine_replies", read(&self.byzantine_replies)),
            ("connections", read(&self.connections)),
            ("deadline_watchdog", read(&self.deadline_watchdog)),
        ])
    }
}

/// The router itself. Cheap to share behind an `Arc`; every method
/// takes `&self` and is safe to call from many client threads.
#[derive(Debug)]
pub struct Router {
    pub(crate) backends: Vec<Backend>,
    /// Routing table; class `cluster` in the workspace lock order.
    pub(crate) membership: Mutex<Membership>,
    /// Per-shard WAL-ship cursors; class `router`. Holding a shard's
    /// cursor serializes shipping for that shard only.
    pub(crate) ship: Vec<Mutex<ShipCursors>>,
    pub(crate) config: RouterConfig,
    pub(crate) metrics: RouterMetrics,
    /// Epoch base for breaker timestamps.
    start: Instant,
}

impl Router {
    /// Builds a router over `shards` (each with its owner-first backend
    /// list). Fails on an empty or inconsistent spec.
    pub fn new(shards: Vec<ShardSpec>, config: RouterConfig) -> Result<Router, String> {
        if shards.is_empty() {
            return Err("router needs at least one shard".to_string());
        }
        let mut backends: Vec<Backend> = Vec::new();
        let mut shard_nodes: Vec<ShardNodes> = Vec::new();
        let mut names: Vec<String> = Vec::new();
        for spec in &shards {
            if spec.backends.is_empty() {
                return Err(format!("shard {:?} has no backends", spec.shard));
            }
            if names.contains(&spec.shard) {
                return Err(format!("duplicate shard {:?}", spec.shard));
            }
            names.push(spec.shard.clone());
            let mut idxs = Vec::with_capacity(spec.backends.len());
            for b in &spec.backends {
                idxs.push(backends.len());
                backends.push(Backend {
                    node: b.node.clone(),
                    addr: b.addr.clone(),
                    conns: Mutex::new(Vec::new()),
                    failures: AtomicU32::new(0),
                    open_until_micros: AtomicU64::new(0),
                });
            }
            shard_nodes.push(ShardNodes {
                owner: idxs[0],
                replicas: idxs[1..].to_vec(),
            });
        }
        let map = ShardMap::new(&names, config.vnodes, config.epoch);
        let ship = (0..names.len())
            .map(|_| Mutex::new(ShipCursors::default()))
            .collect();
        Ok(Router {
            backends,
            membership: Mutex::new(Membership {
                map,
                shards: shard_nodes,
            }),
            ship,
            config,
            metrics: RouterMetrics::default(),
            start: Instant::now(),
        })
    }

    /// Current membership epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        let membership = self.membership.lock().unwrap_or_else(|e| e.into_inner());
        membership.map.epoch
    }

    /// Snapshot of `(owner, replicas, epoch)` for a shard index.
    pub(crate) fn shard_snapshot(&self, shard: usize) -> (usize, Vec<usize>, u64) {
        let membership = self.membership.lock().unwrap_or_else(|e| e.into_inner());
        let nodes = &membership.shards[shard];
        (nodes.owner, nodes.replicas.clone(), membership.map.epoch)
    }

    /// Number of shards in the routing table.
    fn shard_count(&self) -> usize {
        let membership = self.membership.lock().unwrap_or_else(|e| e.into_inner());
        membership.shards.len()
    }

    /// Shard index owning `key`, or `None` for an empty map.
    fn shard_of(&self, key: &str) -> Option<usize> {
        let membership = self.membership.lock().unwrap_or_else(|e| e.into_inner());
        membership.map.owner_index(key)
    }

    fn now_micros(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Runs one round trip against a backend through its pool and
    /// breaker: checkout (or dial), `run`, repool on success, drop the
    /// poisoned connection and count the failure otherwise. Every
    /// socket operation is bounded by `budget` (the caller's remaining
    /// deadline), so a blackholed backend costs one bounded timeout,
    /// never a parked router thread.
    fn with_backend_conn<T>(
        &self,
        idx: usize,
        budget: Duration,
        run: impl FnOnce(&mut Conn) -> Result<T, String>,
    ) -> Result<T, String> {
        let backend = &self.backends[idx];
        let open_until = backend.open_until_micros.load(Ordering::Acquire);
        if open_until > self.now_micros() {
            RouterMetrics::bump(&self.metrics.breaker_rejections);
            return Err(format!("breaker open for {}", backend.node));
        }
        let connect_timeout = self
            .config
            .connect_timeout
            .min(budget)
            .max(Duration::from_millis(1));
        let pooled = checkout_pooled(&backend.conns, Instant::now(), self.config.pool_idle_ttl);
        let mut conn = match pooled {
            Some(conn) => conn,
            None => match Conn::connect(&backend.addr, connect_timeout) {
                Ok(conn) => conn,
                Err(e) => {
                    self.record_failure(idx);
                    return Err(e);
                }
            },
        };
        // Re-arm the socket timeouts for this call: a pooled
        // connection carries whatever budget its previous caller had.
        if let Err(e) = conn.set_io_timeout(self.config.io_timeout.min(budget)) {
            self.record_failure(idx);
            return Err(e);
        }
        match run(&mut conn) {
            Ok(value) => {
                backend.failures.store(0, Ordering::Release);
                let mut conns = backend.conns.lock().unwrap_or_else(|e| e.into_inner());
                conns.push((conn, Instant::now()));
                Ok(value)
            }
            Err(e) => {
                // `conn` is poisoned; drop it instead of repooling.
                self.record_failure(idx);
                Err(e)
            }
        }
    }

    /// One v1 round trip to a backend with the router's configured
    /// `io_timeout` as the budget. For calls inside a request deadline
    /// prefer [`Router::call_backend_within`].
    pub(crate) fn call_backend(&self, idx: usize, line: &str) -> Result<Value, String> {
        self.call_backend_within(idx, line, self.config.io_timeout)
    }

    /// One v1 round trip to a backend, through its pool and breaker,
    /// with every socket operation bounded by the remaining deadline
    /// `budget`. The line travels sealed in CRC-checked frames both
    /// ways, so a byte flipped in flight is rejected here instead of
    /// served. A reply that verifies but is not a pager response (no
    /// `ok` field — a byzantine backend sealing garbage correctly)
    /// poisons the connection and counts toward the breaker like any
    /// transport failure, so a garbage-speaking backend is not
    /// retried forever.
    pub(crate) fn call_backend_within(
        &self,
        idx: usize,
        line: &str,
        budget: Duration,
    ) -> Result<Value, String> {
        self.with_backend_conn(idx, budget, |conn| {
            let value = conn.round_trip_checked(line)?;
            if value.get("ok").and_then(Value::as_bool).is_none() {
                RouterMetrics::bump(&self.metrics.byzantine_replies);
                return Err("byzantine reply from backend (no ok field)".to_string());
            }
            Ok(value)
        })
    }

    /// One v2 round trip to a backend, through the same pool, breaker
    /// and budget discipline. The frame bytes are forwarded verbatim;
    /// a response with an op the protocol cannot produce is byzantine.
    fn call_backend_frame(
        &self,
        idx: usize,
        frame_bytes: &[u8],
        budget: Duration,
    ) -> Result<(u8, Vec<u8>), String> {
        self.with_backend_conn(idx, budget, |conn| {
            let (resp_op, payload) = conn.round_trip_frame(frame_bytes)?;
            if !matches!(
                resp_op,
                op::PLAN_RESP | op::ERROR | op::PONG | op::JSON_RESP
            ) {
                RouterMetrics::bump(&self.metrics.byzantine_replies);
                return Err(format!(
                    "byzantine reply from backend (response op 0x{resp_op:02X})"
                ));
            }
            Ok((resp_op, payload))
        })
    }

    fn record_failure(&self, idx: usize) {
        RouterMetrics::bump(&self.metrics.transport_errors);
        let backend = &self.backends[idx];
        let failures = backend.failures.fetch_add(1, Ordering::AcqRel) + 1;
        if failures >= self.config.breaker_threshold {
            let horizon = self.now_micros()
                + u64::try_from(self.config.breaker_cooldown.as_micros()).unwrap_or(u64::MAX);
            backend.open_until_micros.store(horizon, Ordering::Release);
            // Half-open: one probe is allowed once the horizon passes;
            // reset the count so a success fully closes the breaker.
            backend.failures.store(0, Ordering::Release);
        }
    }

    /// Promotes a replica to owner of `shard` after `dead` failed, if
    /// nobody has done so yet. Returns `true` when the shard still has
    /// an owner afterwards (promotion happened or had already
    /// happened), `false` when no replica is left to promote. The
    /// epoch fanout to survivors is best-effort and bounded by
    /// `give_up` — a wedged survivor must not park the failover past
    /// the caller's deadline.
    fn promote(&self, shard: usize, dead: usize, give_up: Instant) -> bool {
        let (epoch, survivors) = {
            let mut membership = self.membership.lock().unwrap_or_else(|e| e.into_inner());
            let nodes = &mut membership.shards[shard];
            if nodes.owner != dead {
                // A concurrent request already failed over.
                return true;
            }
            match nodes.replicas.first().copied() {
                None => return false,
                Some(next) => {
                    nodes.replicas.remove(0);
                    nodes.owner = next;
                    membership.map.epoch += 1;
                    RouterMetrics::bump(&self.metrics.failovers);
                    if chaos_debug() {
                        eprintln!(
                            "[chaos-debug] promote shard={shard} dead={dead} next={next} epoch={}",
                            membership.map.epoch
                        );
                    }
                    (membership.map.epoch, self.live_backends(&membership))
                }
            }
        };
        // Best-effort: tell every survivor the new epoch so node_info
        // answers agree across the cluster. Skipped survivors catch up
        // on the next `epoch` broadcast.
        let line = json::encode_request(&Request::Epoch { epoch });
        for idx in survivors {
            let remaining = give_up.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            let _ = self.call_backend_within(idx, &line, remaining);
        }
        true
    }

    /// Backend indexes still referenced by the routing table.
    fn live_backends(&self, membership: &Membership) -> Vec<usize> {
        let mut live: Vec<usize> = Vec::new();
        for nodes in &membership.shards {
            if !live.contains(&nodes.owner) {
                live.push(nodes.owner);
            }
            for &r in &nodes.replicas {
                if !live.contains(&r) {
                    live.push(r);
                }
            }
        }
        live
    }

    /// Drops a dead replica from its shard (shipping noticed it is
    /// unreachable). Keeps `observe` available: better to lose a
    /// replica than to fail every write to the shard.
    pub(crate) fn drop_replica(&self, shard: usize, dead: usize) {
        let mut membership = self.membership.lock().unwrap_or_else(|e| e.into_inner());
        let nodes = &mut membership.shards[shard];
        let before = nodes.replicas.len();
        nodes.replicas.retain(|&r| r != dead);
        if nodes.replicas.len() != before {
            membership.map.epoch += 1;
            if chaos_debug() {
                eprintln!(
                    "[chaos-debug] drop_replica shard={shard} dead={dead} epoch={}",
                    membership.map.epoch
                );
            }
        }
    }

    /// Forwards `line` to the owner of `shard`, retrying within
    /// `deadline` across overloads (honoring the shard's
    /// `retry_after_ms`) and owner failovers. `overloaded` answers are
    /// passed through once the budget is exhausted; `degraded` and
    /// other application-level errors pass through immediately.
    fn call_shard(&self, shard: usize, line: &str, deadline: Duration) -> Result<Value, String> {
        self.call_shard_traced(shard, line, deadline)
            .map(|(value, _)| value)
    }

    /// [`Router::call_shard`], also reporting *which* backend served
    /// the successful attempt. `route_observe` needs the distinction:
    /// the replication pass must refuse to ack a sighting if the shard
    /// failed over away from the backend that applied it.
    fn call_shard_traced(
        &self,
        shard: usize,
        line: &str,
        deadline: Duration,
    ) -> Result<(Value, usize), String> {
        self.call_shard_with(shard, deadline, |router, owner, remaining| {
            router
                .call_backend_within(owner, line, remaining)
                .map(|value| {
                    let overloaded = value.get("ok").and_then(Value::as_bool) == Some(false)
                        && value.get("code").and_then(Value::as_str)
                            == Some(ErrorCode::Overloaded.as_str());
                    let retry_after = overloaded.then(|| {
                        value
                            .get("retry_after_ms")
                            .and_then(Value::as_u64)
                            .unwrap_or(10)
                    });
                    (value, retry_after)
                })
        })
    }

    /// Forwards one v2 frame to the owner of `shard`, with the same
    /// retry/overload/failover policy as [`Router::call_shard`]. The
    /// overload check decodes only `ERROR` frames.
    fn call_shard_frame(
        &self,
        shard: usize,
        frame_bytes: &[u8],
        deadline: Duration,
    ) -> Result<(u8, Vec<u8>), String> {
        self.call_shard_with(shard, deadline, |router, owner, remaining| {
            router
                .call_backend_frame(owner, frame_bytes, remaining)
                .map(|reply| {
                    let retry_after = frame_overload_retry(reply.0, &reply.1);
                    (reply, retry_after)
                })
        })
        .map(|(reply, _)| reply)
    }

    /// The shared retry loop behind both protocols: `call` receives
    /// the remaining deadline budget (which bounds its socket
    /// operations) and returns the response plus `Some(retry_after_ms)`
    /// when the shard shed the request as overloaded. The success value
    /// carries the backend index that served the final attempt.
    fn call_shard_with<T>(
        &self,
        shard: usize,
        deadline: Duration,
        call: impl Fn(&Router, usize, Duration) -> Result<(T, Option<u64>), String>,
    ) -> Result<(T, usize), String> {
        let give_up = Instant::now() + deadline;
        let mut backoff = Duration::from_millis(5);
        loop {
            let remaining = give_up.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(format!("shard {shard} unavailable within deadline"));
            }
            let (owner, _, _) = self.shard_snapshot(shard);
            match call(self, owner, remaining) {
                Ok((value, retry_after)) => {
                    RouterMetrics::bump(&self.metrics.forwarded);
                    let Some(retry_after) = retry_after else {
                        return Ok((value, owner));
                    };
                    let wait = Duration::from_millis(retry_after);
                    if Instant::now() + wait >= give_up {
                        RouterMetrics::bump(&self.metrics.shed_passthrough);
                        return Ok((value, owner));
                    }
                    RouterMetrics::bump(&self.metrics.retries);
                    std::thread::sleep(wait);
                }
                Err(error) => {
                    let has_owner = self.promote(shard, owner, give_up);
                    if Instant::now() + backoff >= give_up {
                        return Err(format!(
                            "shard {shard} unavailable within deadline: {error}"
                        ));
                    }
                    RouterMetrics::bump(&self.metrics.retries);
                    if !has_owner {
                        // Nothing to promote; wait for the breaker to
                        // half-open and probe the old owner again.
                        std::thread::sleep(backoff);
                    } else if backoff > Duration::from_millis(5) {
                        // Freshly promoted owner: retry almost
                        // immediately, it is already warm.
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    backoff = (backoff * 2).min(Duration::from_millis(100));
                }
            }
        }
    }

    /// Routes one request line, returning the response line to send
    /// back to the client.
    #[must_use]
    pub fn handle_line(&self, line: &str) -> RouterOutcome {
        RouterMetrics::bump(&self.metrics.requests);
        match self.parse_line(line) {
            Ok(routed) => self.route(line, routed),
            Err(outcome) => outcome,
        }
    }

    /// Parses one request line, or answers its parse error.
    pub(crate) fn parse_line(&self, line: &str) -> Result<RoutedRequest, RouterOutcome> {
        json::parse_routed(line).map_err(|e| {
            let (code, message) = match e {
                WireError::BadRequest(m) => (ErrorCode::BadRequest, m),
                WireError::Unsupported(m) => (ErrorCode::Unsupported, m),
            };
            RouterOutcome {
                response: self.error_line(code, &message),
                shutdown: false,
            }
        })
    }

    /// The request's deadline budget in ms: its own `deadline_ms`,
    /// else the router default.
    pub(crate) fn budget_ms(&self, deadline_ms: Option<u64>) -> u64 {
        deadline_ms.unwrap_or_else(|| {
            u64::try_from(self.config.default_deadline.as_millis()).unwrap_or(u64::MAX)
        })
    }

    /// Answers the requests that touch no backend — `ping`, `stats` /
    /// `metrics` and `node_info` — from the router's own state.
    pub(crate) fn control(&self, request: &Request) -> Option<RouterOutcome> {
        match request {
            Request::Ping => Some(RouterOutcome {
                response: self.ok_line(vec![("pong", Value::Bool(true))]),
                shutdown: false,
            }),
            Request::NodeInfo => Some(self.local_node_info()),
            Request::Stats | Request::Metrics => Some(RouterOutcome {
                response: self.ok_line(vec![
                    ("epoch", Value::from(self.epoch())),
                    ("router", self.metrics.to_json()),
                ]),
                shutdown: false,
            }),
            _ => None,
        }
    }

    /// Routes one parsed request line to the shards that serve it.
    /// `line` is forwarded verbatim where the request goes to one
    /// shard, so ids and unknown fields survive.
    pub(crate) fn route(&self, line: &str, routed: RoutedRequest) -> RouterOutcome {
        if let Some(outcome) = self.control(&routed.request) {
            return outcome;
        }
        let deadline = Duration::from_millis(self.budget_ms(routed.deadline_ms));
        match routed.request {
            // Raw `plan`: route by `route_key` when the client names
            // one, otherwise by the quantised instance fingerprint —
            // identical instances land on the same shard (in any wire
            // form) and share its strategy cache. The original line is
            // forwarded untouched, so ids and unknown fields survive.
            Request::Plan { instance, .. } => {
                let key = routed
                    .route_key
                    .unwrap_or_else(|| plan_route_key(instance.fingerprint64(ROUTING_GRID)));
                self.forward_by_key(line, &key, deadline)
            }
            // `plan_devices` routes by its first device (or an
            // explicit `route_key`). All devices of a call group must
            // live on one shard — co-locate them by keying their
            // sightings consistently.
            Request::PlanDevices { devices, .. } => {
                let key = routed
                    .route_key
                    .or_else(|| devices.first().cloned())
                    .unwrap_or_default();
                self.forward_by_key(line, &key, deadline)
            }
            Request::Observe { cells, sightings } => self.route_observe(cells, sightings, deadline),
            Request::ProfileStats => self.route_profile_stats(deadline),
            Request::Epoch { epoch } => self.adopt_epoch(epoch),
            Request::Shutdown => self.broadcast_shutdown(),
            Request::WalShip { .. } | Request::WalApply { .. } => RouterOutcome {
                response: self.error_line(
                    ErrorCode::Unsupported,
                    "WAL ops address a node, not the router",
                ),
                shutdown: false,
            },
            // Answered by `control` above.
            Request::Ping | Request::NodeInfo | Request::Stats | Request::Metrics => {
                RouterOutcome {
                    response: self.error_line(ErrorCode::Internal, "control op reached routing"),
                    shutdown: false,
                }
            }
        }
    }

    /// Routes one v2 frame, appending the response frame(s) to `out`.
    /// Returns `true` when the caller should stop serving (the client
    /// sent `shutdown` inside a JSON-wrapped frame).
    ///
    /// `plan` frames are forwarded without decode/re-encode: the view
    /// reads only the header fields it routes by, and the backend's
    /// response frame is relayed verbatim. Frame-native responses are
    /// not stamped with `shard`/`router_epoch` — that metadata is a v1
    /// JSON affordance; v2 clients wanting membership ask `node_info`.
    #[must_use]
    pub fn handle_frame(&self, frame_op: u8, payload: &[u8], out: &mut Vec<u8>) -> bool {
        RouterMetrics::bump(&self.metrics.requests);
        match frame_op {
            op::PLAN => self.route_plan_frame(frame_op, payload, out),
            op::JSON_REQ => match std::str::from_utf8(payload) {
                Ok(line) => {
                    let outcome = self.handle_line(line);
                    frame::write_checked_frame(out, op::JSON_RESP, outcome.response.as_bytes());
                    return outcome.shutdown;
                }
                Err(_) => binary::encode_error_response(
                    out,
                    IdView::Null,
                    None,
                    ErrorCode::BadRequest,
                    "JSON request frame payload is not UTF-8",
                    None,
                ),
            },
            other => Self::answer_local_frame(other, out),
        }
        false
    }

    /// Answers the frames that need no backend: `PING`, and an error
    /// for an op the router does not serve.
    pub(crate) fn answer_local_frame(frame_op: u8, out: &mut Vec<u8>) {
        if frame_op == op::PING {
            binary::encode_pong(out, None);
        } else {
            binary::encode_error_response(
                out,
                IdView::Null,
                None,
                ErrorCode::Unsupported,
                &format!("unknown request op 0x{frame_op:02X}"),
                None,
            );
        }
    }

    /// Forwards a binary `plan` frame to the shard owning its instance
    /// fingerprint — the same key the v1 path derives from the parsed
    /// matrix, so both forms share one shard's cache.
    pub(crate) fn route_plan_frame(&self, frame_op: u8, payload: &[u8], out: &mut Vec<u8>) {
        let view = match PlanFrameView::parse(payload) {
            Ok(view) => view,
            Err(message) => {
                binary::encode_error_response(
                    out,
                    IdView::Null,
                    None,
                    ErrorCode::BadRequest,
                    message,
                    None,
                );
                return;
            }
        };
        let key = plan_route_key(view.instance_fingerprint(ROUTING_GRID));
        let Some(shard) = self.shard_of(&key) else {
            binary::encode_error_response(
                out,
                view.id(),
                None,
                ErrorCode::Internal,
                "empty shard map",
                None,
            );
            return;
        };
        let deadline = view
            .deadline_ms()
            .map_or(self.config.default_deadline, Duration::from_millis);
        // Re-frame the borrowed payload: one memcpy, no field decode.
        let mut forward = Vec::with_capacity(frame::HEADER_LEN + payload.len());
        frame::write_frame(&mut forward, frame_op, payload);
        match self.call_shard_frame(shard, &forward, deadline) {
            Ok((resp_op, body)) => frame::write_frame(out, resp_op, &body),
            Err(error) => binary::encode_error_response(
                out,
                view.id(),
                None,
                ErrorCode::Unavailable,
                &error,
                None,
            ),
        }
    }

    fn forward_by_key(&self, line: &str, key: &str, deadline: Duration) -> RouterOutcome {
        let Some(shard) = self.shard_of(key) else {
            return RouterOutcome {
                response: self.error_line(ErrorCode::Internal, "empty shard map"),
                shutdown: false,
            };
        };
        match self.call_shard(shard, line, deadline) {
            Ok(response) => RouterOutcome {
                response: self.stamp(response, shard),
                shutdown: false,
            },
            Err(error) => RouterOutcome {
                response: self.error_line(ErrorCode::Unavailable, &error),
                shutdown: false,
            },
        }
    }

    /// `observe`: split the batch per owning shard, forward each
    /// sub-batch, ship each owner's WAL to its replicas, then ack with
    /// the merged per-device versions. The ack therefore promises that
    /// every sighting in the batch is durable on its owner *and*
    /// replayed on that shard's live replicas.
    fn route_observe(
        &self,
        cells: usize,
        sightings: Vec<Sighting>,
        deadline: Duration,
    ) -> RouterOutcome {
        // One budget covers the whole observe — every per-shard
        // forward and every replication pass draws from the same
        // remaining time, so the client's deadline bounds the ack.
        let give_up = Instant::now() + deadline;
        // Group sightings by owning shard, preserving batch order
        // within each group (versions are assigned in apply order).
        let shard_count = {
            let membership = self.membership.lock().unwrap_or_else(|e| e.into_inner());
            membership.shards.len()
        };
        let mut groups: Vec<Vec<Sighting>> = vec![Vec::new(); shard_count];
        for sighting in sightings {
            let Some(shard) = self.shard_of(&sighting.device) else {
                return RouterOutcome {
                    response: self.error_line(ErrorCode::Internal, "empty shard map"),
                    shutdown: false,
                };
            };
            groups[shard].push(sighting);
        }
        let mut ingested = 0u64;
        let mut versions: Vec<(String, Value)> = Vec::new();
        for (shard, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let sub = json::encode_request(&Request::Observe {
                cells,
                sightings: group,
            });
            let remaining = give_up.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return RouterOutcome {
                    response: self.error_line(ErrorCode::Unavailable, "observe deadline exhausted"),
                    shutdown: false,
                };
            }
            let (response, applied_on) = match self.call_shard_traced(shard, &sub, remaining) {
                Ok(traced) => traced,
                Err(error) => {
                    return RouterOutcome {
                        response: self.error_line(ErrorCode::Unavailable, &error),
                        shutdown: false,
                    }
                }
            };
            if response.get("ok").and_then(Value::as_bool) != Some(true) {
                // Pass the shard's own error (degraded, overloaded
                // after budget, bad_request) through unchanged.
                return RouterOutcome {
                    response: self.stamp(response, shard),
                    shutdown: false,
                };
            }
            ingested += response
                .get("ingested")
                .and_then(Value::as_u64)
                .unwrap_or(0);
            if let Some(batch) = response.get("versions").and_then(Value::as_object) {
                for (device, version) in batch {
                    match versions.iter_mut().find(|(d, _)| d == device) {
                        Some(entry) => entry.1 = version.clone(),
                        None => versions.push((device.clone(), version.clone())),
                    }
                }
            }
            // Replicate before acking: a SIGKILLed owner must never
            // take an acked sighting with it. Shipping draws from the
            // same budget, so a wedged link fails the ack honestly
            // instead of parking the client. `applied_on` pins the
            // replication pass to the backend that ingested the batch:
            // if the shard fails over in between, the ack must fail —
            // the sighting lives only on the deposed owner.
            if let Err(error) = self.ship_shard(
                shard,
                applied_on,
                give_up.saturating_duration_since(Instant::now()),
            ) {
                return RouterOutcome {
                    response: self.error_line(
                        ErrorCode::Unavailable,
                        &format!("replication failed: {error}"),
                    ),
                    shutdown: false,
                };
            }
        }
        let mut fields = vec![
            ("ingested", Value::from(ingested)),
            ("versions", Value::Object(versions)),
        ];
        if chaos_debug() {
            // Diagnostic for the chaos invariant checker: which node
            // the routing table credits as the (last touched) shard's
            // owner at ack time. Unknown fields are ignored by every
            // consumer, and the field only appears under CHAOS_DEBUG.
            let snapshot: Vec<Value> = (0..self.shard_count())
                .map(|shard| Value::from(i64::try_from(self.shard_snapshot(shard).0).unwrap_or(-1)))
                .collect();
            fields.push(("debug_owners", Value::Array(snapshot)));
        }
        RouterOutcome {
            response: self.ok_line(fields),
            shutdown: false,
        }
    }

    /// `profile_stats`: scatter to every shard owner and answer with
    /// the per-shard breakdown plus summed totals.
    fn route_profile_stats(&self, deadline: Duration) -> RouterOutcome {
        let shard_names = {
            let membership = self.membership.lock().unwrap_or_else(|e| e.into_inner());
            membership.map.shards.clone()
        };
        let scatter = json::encode_request(&Request::ProfileStats);
        let mut per_shard: Vec<(String, Value)> = Vec::new();
        let mut devices = 0u64;
        let mut sightings = 0u64;
        for (shard, shard_name) in shard_names.iter().enumerate() {
            let response = match self.call_shard(shard, &scatter, deadline) {
                Ok(response) => response,
                Err(error) => {
                    return RouterOutcome {
                        response: self.error_line(ErrorCode::Unavailable, &error),
                        shutdown: false,
                    }
                }
            };
            if let Some(profiles) = response.get("profiles") {
                devices += profiles.get("devices").and_then(Value::as_u64).unwrap_or(0);
                sightings += profiles
                    .get("sightings")
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                per_shard.push((shard_name.clone(), profiles.clone()));
            }
        }
        RouterOutcome {
            response: self.ok_line(vec![
                ("devices", Value::from(devices)),
                ("sightings", Value::from(sightings)),
                ("shards", Value::Object(per_shard)),
            ]),
            shutdown: false,
        }
    }

    /// The router's own `node_info`: membership as the router sees it.
    fn local_node_info(&self) -> RouterOutcome {
        let (epoch, shards) = {
            let membership = self.membership.lock().unwrap_or_else(|e| e.into_inner());
            let shards: Vec<Value> = membership
                .shards
                .iter()
                .enumerate()
                .map(|(i, nodes)| {
                    Value::object(vec![
                        ("shard", Value::from(membership.map.shards[i].as_str())),
                        (
                            "owner",
                            Value::from(self.backends[nodes.owner].node.as_str()),
                        ),
                        (
                            "replicas",
                            Value::Array(
                                nodes
                                    .replicas
                                    .iter()
                                    .map(|&r| Value::from(self.backends[r].node.as_str()))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect();
            (membership.map.epoch, shards)
        };
        RouterOutcome {
            response: self.ok_line(vec![
                ("role", Value::from("router")),
                ("epoch", Value::from(epoch)),
                ("shards", Value::Array(shards)),
            ]),
            shutdown: false,
        }
    }

    /// `epoch`: adopt a higher membership epoch (monotone) and fan it
    /// out to every live backend.
    fn adopt_epoch(&self, epoch: u64) -> RouterOutcome {
        let (adopted, live) = {
            let mut membership = self.membership.lock().unwrap_or_else(|e| e.into_inner());
            if epoch > membership.map.epoch {
                membership.map.epoch = epoch;
            }
            (membership.map.epoch, self.live_backends(&membership))
        };
        let line = json::encode_request(&Request::Epoch { epoch: adopted });
        for idx in live {
            let _ = self.call_backend(idx, &line);
        }
        RouterOutcome {
            response: self.ok_line(vec![("epoch", Value::from(adopted))]),
            shutdown: false,
        }
    }

    /// `shutdown`: stop every backend (best effort), then stop serving.
    fn broadcast_shutdown(&self) -> RouterOutcome {
        let live = {
            let membership = self.membership.lock().unwrap_or_else(|e| e.into_inner());
            self.live_backends(&membership)
        };
        let line = json::encode_request(&Request::Shutdown);
        for idx in live {
            let _ = self.call_backend(idx, &line);
        }
        RouterOutcome {
            response: self.ok_line(vec![("stopping", Value::Bool(true))]),
            shutdown: true,
        }
    }

    /// Stamps routing metadata onto a forwarded response: which shard
    /// served it and the router's membership epoch.
    fn stamp(&self, response: Value, shard: usize) -> String {
        let name = {
            let membership = self.membership.lock().unwrap_or_else(|e| e.into_inner());
            membership.map.shards.get(shard).cloned()
        };
        match response {
            Value::Object(mut fields) => {
                if let Some(name) = name {
                    fields.push(("shard".to_string(), Value::Str(name)));
                }
                fields.push(("router_epoch".to_string(), Value::from(self.epoch())));
                Value::Object(fields).to_string()
            }
            other => other.to_string(),
        }
    }

    fn ok_line(&self, fields: Vec<(&'static str, Value)>) -> String {
        let mut all = vec![
            ("v", Value::from(PROTOCOL_VERSION)),
            ("ok", Value::Bool(true)),
            ("router_epoch", Value::from(self.epoch())),
        ];
        all.extend(fields);
        Value::object(all).to_string()
    }

    fn error_line(&self, code: ErrorCode, message: &str) -> String {
        Value::object(vec![
            ("v", Value::from(PROTOCOL_VERSION)),
            ("ok", Value::Bool(false)),
            ("code", Value::from(code.as_str())),
            ("error", Value::from(message)),
            ("router_epoch", Value::from(self.epoch())),
        ])
        .to_string()
    }
}

/// The consistent-hash key for a `plan` request: the quantised
/// instance fingerprint in a stable text form.
fn plan_route_key(fingerprint: u64) -> String {
    format!("{fingerprint:016x}")
}

/// `Some(retry_after_ms)` when a v2 response frame is an `overloaded`
/// error (the only response the router retries); `None` otherwise.
fn frame_overload_retry(resp_op: u8, payload: &[u8]) -> Option<u64> {
    if resp_op != op::ERROR {
        return None;
    }
    let value = binary::response_to_value(resp_op, payload).ok()?;
    if value.get("code").and_then(Value::as_str) != Some(ErrorCode::Overloaded.as_str()) {
        return None;
    }
    Some(
        value
            .get("retry_after_ms")
            .and_then(Value::as_u64)
            .unwrap_or(10),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_checkout_reaps_expired_and_pops_fresh() {
        let ttl = Duration::from_secs(30);
        let now = Instant::now();
        let pool = Mutex::new(vec![
            (1u32, now - Duration::from_secs(60)), // expired
            (2u32, now - Duration::from_secs(5)),  // fresh
            (3u32, now - Duration::from_secs(31)), // expired
            (4u32, now),                           // fresh
        ]);
        // Most recently parked wins; expired entries are gone for good.
        assert_eq!(checkout_pooled(&pool, now, ttl), Some(4));
        assert_eq!(checkout_pooled(&pool, now, ttl), Some(2));
        assert_eq!(checkout_pooled(&pool, now, ttl), None);
        assert!(pool.lock().unwrap().is_empty(), "expired entries reaped");
    }

    #[test]
    fn pool_checkout_empties_fully_idle_pool() {
        let ttl = Duration::from_millis(10);
        let parked = Instant::now();
        let pool = Mutex::new(vec![(7u32, parked), (8u32, parked)]);
        let later = parked + Duration::from_millis(11);
        assert_eq!(checkout_pooled(&pool, later, ttl), None);
        assert!(pool.lock().unwrap().is_empty());
    }

    #[test]
    fn v1_and_v2_plan_requests_share_a_route_key() {
        let instance =
            pager_core::Instance::from_rows(vec![vec![0.5, 0.25, 0.25], vec![0.1, 0.2, 0.7]])
                .unwrap();
        let spec = pager_wire::PlanSpec::new(pager_core::Delay::new(2).unwrap());
        let mut frame_bytes = Vec::new();
        assert!(binary::encode_plan_request(
            &mut frame_bytes,
            &Value::from(7u64),
            &instance,
            &spec,
        ));
        let frame::Split::V2Frame { payload, .. } = frame::split(&frame_bytes) else {
            panic!("expected a complete plan frame");
        };
        let view = PlanFrameView::parse(payload).unwrap();
        assert_eq!(
            plan_route_key(view.instance_fingerprint(ROUTING_GRID)),
            plan_route_key(instance.fingerprint64(ROUTING_GRID)),
        );
    }

    /// A backend that answers every request frame with a fixed reply
    /// line in a correctly sealed `JSON_RESP` — syntactically valid
    /// JSON, semantically garbage when asked to be. The request's
    /// correlation id is echoed into object-shaped replies, so the
    /// reply passes the transport's duplicate screen and reaches
    /// semantic validation: this models a byzantine *backend* rather
    /// than a corrupted link, and the CRC verifies end to end.
    fn scripted_backend(reply: &'static str) -> String {
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                std::thread::spawn(move || {
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 4096];
                    loop {
                        match frame::split(&buf) {
                            frame::Split::NeedMore => {
                                let Ok(n) = stream.read(&mut chunk) else {
                                    break;
                                };
                                if n == 0 {
                                    break;
                                }
                                buf.extend_from_slice(&chunk[..n]);
                            }
                            frame::Split::V2Frame {
                                payload, consumed, ..
                            } => {
                                let echoed = std::str::from_utf8(payload)
                                    .ok()
                                    .and_then(|text| jsonio::parse(text).ok())
                                    .and_then(|request| request.get("id").cloned());
                                let line = match (jsonio::parse(reply), echoed) {
                                    (Ok(Value::Object(mut fields)), Some(id)) => {
                                        match fields.iter_mut().find(|(key, _)| key == "id") {
                                            Some((_, slot)) => *slot = id,
                                            None => fields.push(("id".to_string(), id)),
                                        }
                                        Value::Object(fields).to_string()
                                    }
                                    _ => reply.to_string(),
                                };
                                buf.drain(..consumed);
                                let mut out = Vec::new();
                                frame::write_checked_frame(
                                    &mut out,
                                    op::JSON_RESP,
                                    line.as_bytes(),
                                );
                                if stream.write_all(&out).is_err() {
                                    break;
                                }
                            }
                            frame::Split::V1Line { consumed, .. } => {
                                buf.drain(..consumed);
                                let mut out = Vec::new();
                                frame::write_checked_frame(
                                    &mut out,
                                    op::JSON_RESP,
                                    reply.as_bytes(),
                                );
                                if stream.write_all(&out).is_err() {
                                    break;
                                }
                            }
                            frame::Split::Malformed(_) => break,
                        }
                    }
                });
            }
        });
        addr
    }

    fn one_backend_router(addr: String) -> Router {
        Router::new(
            vec![ShardSpec {
                shard: "s0".to_string(),
                backends: vec![BackendSpec {
                    node: "n0".to_string(),
                    addr,
                }],
            }],
            RouterConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn byzantine_replies_trip_the_breaker() {
        // The reply parses as JSON and echoes the correlation id, so
        // it is not a transport error — but with no `ok` field it is
        // not a pager response either. It must count toward the
        // breaker and the byzantine metric, never be relayed.
        let router = one_backend_router(scripted_backend("{\"pong\":true}"));
        let budget = Duration::from_millis(500);
        for _ in 0..router.config.breaker_threshold {
            let err = router
                .call_backend_within(0, "{\"cmd\":\"ping\"}", budget)
                .unwrap_err();
            assert!(err.contains("byzantine"), "{err}");
        }
        // The breaker is now open: the next call is rejected locally.
        let err = router
            .call_backend_within(0, "{\"cmd\":\"ping\"}", budget)
            .unwrap_err();
        assert!(err.contains("breaker open"), "{err}");
        assert_eq!(
            router.metrics.byzantine_replies.load(Ordering::Relaxed),
            u64::from(router.config.breaker_threshold),
        );
        assert_eq!(router.metrics.breaker_rejections.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn well_formed_replies_pass_byzantine_validation() {
        let router = one_backend_router(scripted_backend("{\"ok\":true,\"pong\":true}"));
        let value = router
            .call_backend_within(0, "{\"cmd\":\"ping\"}", Duration::from_millis(500))
            .unwrap();
        assert_eq!(value.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(router.metrics.byzantine_replies.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn ship_refuses_ack_after_failover_away_from_applier() {
        // One shard, owner + one replica. An observe applied on the
        // owner races a failover: by the time the replication pass
        // runs, the shard's owner is no longer the backend that holds
        // the write. Acking would lose the sighting, so `ship_shard`
        // pinned to the deposed owner must fail.
        let router = Router::new(
            vec![ShardSpec {
                shard: "s0".to_string(),
                backends: vec![
                    BackendSpec {
                        node: "n0".to_string(),
                        addr: scripted_backend("{\"ok\":true}"),
                    },
                    BackendSpec {
                        node: "n1".to_string(),
                        addr: scripted_backend("{\"ok\":true}"),
                    },
                ],
            }],
            RouterConfig::default(),
        )
        .unwrap();
        let (old_owner, replicas, _) = router.shard_snapshot(0);
        assert_eq!(replicas.len(), 1);
        assert!(router.promote(0, old_owner, Instant::now() + Duration::from_millis(200)));
        let err = router
            .ship_shard(0, old_owner, Duration::from_millis(100))
            .unwrap_err();
        assert!(err.contains("failed over mid-observe"), "{err}");
        // Pinned to the *current* owner the pass succeeds — the shard
        // has no replicas left after the promotion, so nothing ships.
        let (new_owner, replicas_after, _) = router.shard_snapshot(0);
        assert_ne!(new_owner, old_owner);
        assert!(replicas_after.is_empty());
        assert_eq!(
            router.ship_shard(0, new_owner, Duration::from_millis(100)),
            Ok(0)
        );
    }

    #[test]
    fn overload_retry_reads_only_error_frames() {
        let mut out = Vec::new();
        binary::encode_error_response(
            &mut out,
            IdView::U64(1),
            None,
            ErrorCode::Overloaded,
            "server overloaded, retry after 50 ms",
            Some(50),
        );
        let frame::Split::V2Frame { op: o, payload, .. } = frame::split(&out) else {
            panic!("expected a complete error frame");
        };
        assert_eq!(frame_overload_retry(o, payload), Some(50));

        let mut pong = Vec::new();
        binary::encode_pong(&mut pong, None);
        let frame::Split::V2Frame { op: o, payload, .. } = frame::split(&pong) else {
            panic!("expected a complete pong frame");
        };
        assert_eq!(frame_overload_retry(o, payload), None);
    }
}
