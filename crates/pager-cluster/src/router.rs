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
//! A request's budget becomes one [`CancelToken`] when the request is
//! read (`Router::deadline`); every hop it makes — forwards, retries,
//! failover fan-out, scatter, WAL shipping — reads its socket timeouts
//! from that token's [`CancelToken::remaining`], so no hop can stretch
//! the client's deadline.
//!
//! Requests arrive typed: [`handle_line`](Router::handle_line) parses
//! v1 lines with [`pager_wire::json::parse_routed`] and dispatches on
//! [`pager_wire::Request`] — the same enum `pager-service`'s `proto`
//! consumes — so a new op is added in `pager-wire` once and both ends
//! pick it up. [`handle_frame`](Router::handle_frame) forwards v2
//! `plan` frames shard-ward *without* decoding the matrix: only the
//! fixed-size header fields are viewed (for the routing fingerprint
//! and deadline) and the payload travels to the backend in one copy.
//!
//! Every backend call, of either protocol, is one `Conn::call`: a
//! sealed request frame carrying a per-connection nonce in place of the
//! client's id, and a sealed, nonce-correlated reply of an op the
//! request can produce, with the client's id restored
//! (`crate::wire`). `Router::call_backend` adds the pool, the
//! breaker and the byzantine count; `call_shard` adds overload retry
//! and failover.
//!
//! `observe` is special-cased twice: the batch is split per owning
//! shard, and each sub-batch replicates in two hops of native v2
//! frames — the owner's `OBSERVE_RESP` carries the WAL frames it
//! appended, and the router forwards them to that shard's replicas as
//! `WAL_APPLY` (see `crate::ship`) *before* acking the client, so an
//! acked sighting is always replayable from a survivor. Those hops
//! have no v1 form: a client's `observe` is a JSON line, and the
//! router's own answer to it is one.
//!
//! Lock order within the router (enforced by `pager-lint`):
//! `membership` (class `cluster`) strictly above the `conns` pools and
//! `ship` cursors (class `router`). Membership is snapshotted and
//! released before any backend I/O.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use jsonio::metrics::Counter;
use jsonio::Value;
use pager_core::cancel::CancelToken;
use pager_profiles::Sighting;
use pager_service::LineOutcome;
use pager_wire::frame::{self, op, Message};
use pager_wire::{
    binary, json, ErrorBody, ErrorCode, IdView, PlanFrameView, Request, RoutedRequest, WireError,
};

use crate::ring::ShardMap;
use crate::ship::{Appended, ShipCursors};
use crate::wire::{socket_timeout, Ask, Conn, Reply};

/// Quantisation grid for the `plan` routing fingerprint. Matches the
/// default service cache grid so near-identical matrices co-locate
/// with the strategies they would hit; routing only needs determinism,
/// so a backend configured with a different grid still works — its
/// cache keys just use its own resolution.
const ROUTING_GRID: u32 = 1000;

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

/// Consecutive transport failures before a backend's breaker opens.
pub(crate) const BREAKER_THRESHOLD: u32 = 3;

/// How long an open breaker rejects calls before half-opening.
const BREAKER_COOLDOWN: Duration = Duration::from_millis(500);

/// How long an idle pooled backend connection may sit unused before
/// the router drops it instead of reusing it. Reaping is lazy (at
/// checkout), so an idle router holds sockets at most one checkout
/// past the TTL — and an engine-served backend holds the matching
/// server side for pennies, not a thread.
const POOL_IDLE_TTL: Duration = Duration::from_secs(30);

/// Router tuning: the socket and deadline bounds. Ring shape comes
/// from [`Router::new`]; breaker and pool policy are constants.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// TCP connect timeout per backend dial.
    pub connect_timeout: Duration,
    /// Cap on each read and write of a backend call; what is left of
    /// the request's deadline cuts it further.
    pub io_timeout: Duration,
    /// Retry budget for requests that carry no `deadline_ms`.
    pub default_deadline: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            connect_timeout: Duration::from_millis(1000),
            io_timeout: Duration::from_millis(5000),
            default_deadline: Duration::from_millis(2000),
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

/// One backend process: its pooled connections and breaker state.
#[derive(Debug)]
pub(crate) struct Backend {
    pub(crate) node: String,
    pub(crate) addr: String,
    /// Idle pooled connections, each stamped with when it was parked.
    /// Poisoned connections (any transport or parse error
    /// mid-round-trip) are dropped, never returned; parked ones
    /// expire after [`POOL_IDLE_TTL`].
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

jsonio::registry! {
    /// Router-side counters, dumped by the `stats` op.
    pub(crate) struct RouterMetrics {
        /// Client requests received (lines and frames).
        requests: Counter,
        /// Backend calls that returned a reply (a shed reply that is
        /// retried counts again on the retry).
        forwarded: Counter,
        /// Backend calls retried after a failure or a shed reply.
        retries: Counter,
        /// Replica promotions after an owner failed.
        failovers: Counter,
        /// Shed replies relayed to the client because waiting out their
        /// retry hint would overrun the deadline.
        shed_passthrough: Counter,
        /// Backend calls counted as failures against the breaker.
        transport_errors: Counter,
        /// WAL records shipped to replicas.
        shipped_records: Counter,
        /// `WAL_SHIP` round trips: replica catch-up reads of the
        /// owner's WAL. Steady single-writer traffic forwards each
        /// observe's frames from its ack and leaves this at 0.
        ship_catchups: Counter,
        /// Backend calls refused locally by an open breaker.
        breaker_rejections: Counter,
        /// Replies that arrived intact but are not valid pager responses
        /// (corrupted or byzantine backend). These trip the breaker like
        /// transport failures — a garbage-speaking backend must not be
        /// retried forever.
        byzantine_replies: Counter,
        /// Open client connections on the TCP front end (gauge).
        connections: Counter,
        /// Front-end watchdog firings: a request still unanswered when its
        /// deadline budget elapsed.
        deadline_watchdog: Counter,
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
    /// list), hashed onto a ring with `vnodes` virtual nodes per shard,
    /// at membership epoch 0. Fails on an empty or inconsistent spec.
    pub fn new(
        shards: Vec<ShardSpec>,
        vnodes: u32,
        config: RouterConfig,
    ) -> Result<Router, String> {
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
        let map = ShardMap::new(&names, vnodes, 0);
        let ship = shard_nodes
            .iter()
            .map(|nodes| Mutex::new(ShipCursors::new(nodes.owner)))
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
    pub(crate) fn epoch(&self) -> u64 {
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
    pub(crate) fn shard_count(&self) -> usize {
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

    /// One call to a backend, through its pool and breaker: checkout
    /// (or dial), [`Conn::call`], repool on success, drop the poisoned
    /// connection and count the failure otherwise. The dial and every
    /// socket operation of the call are bounded by what is left of
    /// `deadline`, so a blackholed or trickling backend costs at most
    /// the budget, never a parked router thread. A byzantine reply —
    /// intact but not a pager answer to this request — bumps
    /// `byzantine_replies` and counts against the breaker like any
    /// failure, so a garbage-speaking backend is not retried forever.
    pub(crate) fn call_backend(
        &self,
        idx: usize,
        ask: Ask<'_>,
        deadline: &CancelToken,
    ) -> Result<Reply, String> {
        let backend = &self.backends[idx];
        if self.breaker_open(idx) {
            self.metrics.breaker_rejections.inc();
            return Err(format!("breaker open for {}", backend.node));
        }
        let pooled = checkout_pooled(&backend.conns, Instant::now(), POOL_IDLE_TTL);
        let dialed = match pooled {
            Some(conn) => Ok(conn),
            None => socket_timeout(self.config.connect_timeout, deadline)
                .and_then(|timeout| Conn::connect(&backend.addr, timeout)),
        };
        let result = dialed.and_then(|mut conn| {
            let byzantine = &self.metrics.byzantine_replies;
            let reply = conn.call(ask, deadline, self.config.io_timeout, byzantine)?;
            Ok((conn, reply))
        });
        match result {
            Ok((conn, reply)) => {
                backend.failures.store(0, Ordering::Release);
                let mut conns = backend.conns.lock().unwrap_or_else(|e| e.into_inner());
                conns.push((conn, Instant::now()));
                Ok(reply)
            }
            Err(e) => {
                // A poisoned connection is dropped instead of repooled.
                self.record_failure(idx);
                Err(e)
            }
        }
    }

    /// Whether `idx`'s breaker rejects calls right now: its last
    /// [`BREAKER_THRESHOLD`] calls failed and the cooldown has not
    /// passed.
    pub(crate) fn breaker_open(&self, idx: usize) -> bool {
        self.backends[idx].open_until_micros.load(Ordering::Acquire) > self.now_micros()
    }

    fn record_failure(&self, idx: usize) {
        self.metrics.transport_errors.inc();
        let backend = &self.backends[idx];
        let failures = backend.failures.fetch_add(1, Ordering::AcqRel) + 1;
        if failures >= BREAKER_THRESHOLD {
            let horizon =
                self.now_micros() + u64::try_from(BREAKER_COOLDOWN.as_micros()).unwrap_or(u64::MAX);
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
    /// `deadline` — a wedged survivor must not park the failover past
    /// the caller's deadline.
    fn promote(&self, shard: usize, dead: usize, deadline: &CancelToken) -> bool {
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
                    self.metrics.failovers.inc();
                    (membership.map.epoch, self.live_backends(&membership))
                }
            }
        };
        // Best-effort: tell every survivor the new epoch so node_info
        // answers agree across the cluster. Skipped survivors catch up
        // on the next `epoch` broadcast.
        let line = json::encode_request(&Request::Epoch { epoch });
        for idx in survivors {
            if deadline.is_cancelled() {
                break;
            }
            let _ = self.call_backend(idx, Ask::Line(&line), deadline);
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
        }
    }

    /// Sends `ask` to the owner of `shard`, retrying within `deadline`
    /// across overloads (honoring the shard's `retry_after_ms`) and
    /// owner failovers. An `overloaded` answer is passed through once
    /// the budget is exhausted; `degraded` and other application-level
    /// errors pass through immediately. Also reports *which* backend
    /// served the answer: `route_observe`'s replication pass must
    /// refuse to ack a sighting if the shard failed over away from the
    /// backend that applied it.
    fn call_shard(
        &self,
        shard: usize,
        ask: Ask<'_>,
        deadline: &CancelToken,
    ) -> Result<(Reply, usize), String> {
        let mut backoff = Duration::from_millis(5);
        loop {
            if deadline.is_cancelled() {
                return Err(format!("shard {shard} unavailable within deadline"));
            }
            let (owner, _, _) = self.shard_snapshot(shard);
            match self.call_backend(owner, ask, deadline) {
                Ok(reply) => {
                    self.metrics.forwarded.inc();
                    let Some(retry_after) = reply.overload_retry() else {
                        return Ok((reply, owner));
                    };
                    let wait = Duration::from_millis(retry_after);
                    if outlasts(deadline, wait) {
                        self.metrics.shed_passthrough.inc();
                        return Ok((reply, owner));
                    }
                    self.metrics.retries.inc();
                    std::thread::sleep(wait);
                }
                Err(error) => {
                    let has_owner = self.promote(shard, owner, deadline);
                    if outlasts(deadline, backoff) {
                        return Err(format!(
                            "shard {shard} unavailable within deadline: {error}"
                        ));
                    }
                    self.metrics.retries.inc();
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

    /// [`Router::call_shard`] to the shard owning `key`: the forward
    /// both `plan` forms and `plan_devices` make. Returns the reply as
    /// `answer` reads it and the shard that served it; an error comes
    /// with the code it is answered with.
    fn forward<T>(
        &self,
        key: &str,
        ask: Ask<'_>,
        deadline: &CancelToken,
        answer: fn(Reply) -> Result<T, String>,
    ) -> Result<(T, usize), (ErrorCode, String)> {
        let shard = self
            .shard_of(key)
            .ok_or_else(|| (ErrorCode::Internal, "empty shard map".to_string()))?;
        let (reply, _) = self
            .call_shard(shard, ask, deadline)
            .map_err(|error| (ErrorCode::Unavailable, error))?;
        answer(reply)
            .map(|reply| (reply, shard))
            .map_err(|error| (ErrorCode::Internal, error))
    }

    /// Routes one request line, returning the response line to send
    /// back to the client.
    #[must_use]
    pub fn handle_line(&self, line: &str) -> LineOutcome {
        self.metrics.requests.inc();
        match self.parse_line(line) {
            Ok(routed) => self.route(line, &self.deadline(routed.deadline_ms), routed),
            Err(outcome) => outcome,
        }
    }

    /// Parses one request line, or answers its parse error (echoing the
    /// line's `id` when it was valid JSON).
    pub(crate) fn parse_line(&self, line: &str) -> Result<RoutedRequest, LineOutcome> {
        json::parse_routed(line).map_err(|(id, e)| {
            let (code, message) = match e {
                WireError::BadRequest(m) => (ErrorCode::BadRequest, m),
                WireError::Unsupported(m) => (ErrorCode::Unsupported, m),
            };
            self.error(&id, code, &message)
        })
    }

    /// A request's deadline: its own `deadline_ms`, else the router
    /// default. This is the router's one budget rule; the token is made
    /// when the request is read, so time queued before routing counts
    /// against it, and every hop reads its socket timeouts from it.
    pub(crate) fn deadline(&self, deadline_ms: Option<u64>) -> CancelToken {
        CancelToken::with_timeout(
            deadline_ms.map_or(self.config.default_deadline, Duration::from_millis),
        )
    }

    /// [`Router::deadline`] for a v2 `plan` frame: the `deadline_ms` of
    /// its header, if the header parses.
    pub(crate) fn frame_deadline(&self, payload: &[u8]) -> CancelToken {
        self.deadline(
            PlanFrameView::parse(payload)
                .ok()
                .and_then(|view| view.deadline_ms()),
        )
    }

    /// Answers the requests that touch no backend — `ping`, `stats` /
    /// `metrics` and `node_info` — from the router's own state.
    pub(crate) fn control(&self, routed: &RoutedRequest) -> Option<LineOutcome> {
        let id = &routed.id;
        match routed.request {
            Request::Ping => Some(self.ok(id, vec![("pong", Value::Bool(true))])),
            Request::NodeInfo => Some(self.local_node_info(id)),
            Request::Stats | Request::Metrics => Some(self.ok(
                id,
                vec![
                    ("epoch", Value::from(self.epoch())),
                    ("router", Value::object(self.metrics.entries())),
                ],
            )),
            _ => None,
        }
    }

    /// Routes one parsed request line to the shards that serve it,
    /// within `deadline`. `line` is forwarded verbatim where the
    /// request goes to one shard, so ids and unknown fields survive.
    pub(crate) fn route(
        &self,
        line: &str,
        deadline: &CancelToken,
        routed: RoutedRequest,
    ) -> LineOutcome {
        if let Some(outcome) = self.control(&routed) {
            return outcome;
        }
        let RoutedRequest {
            id,
            request,
            route_key,
            ..
        } = routed;
        match request {
            // Raw `plan`: route by `route_key` when the client names
            // one, otherwise by the quantised instance fingerprint —
            // identical instances land on the same shard (in any wire
            // form) and share its strategy cache. The original line is
            // forwarded untouched, so ids and unknown fields survive.
            Request::Plan { instance, .. } => {
                let key = route_key
                    .unwrap_or_else(|| plan_route_key(instance.fingerprint64(ROUTING_GRID)));
                self.forward_by_key(line, &id, &key, deadline)
            }
            // `plan_devices` routes by its first device (or an
            // explicit `route_key`). All devices of a call group must
            // live on one shard — co-locate them by keying their
            // sightings consistently.
            Request::PlanDevices { devices, .. } => {
                let key = route_key
                    .or_else(|| devices.first().cloned())
                    .unwrap_or_default();
                self.forward_by_key(line, &id, &key, deadline)
            }
            Request::Observe { cells, sightings } => {
                self.route_observe(&id, cells, sightings, deadline)
            }
            Request::ProfileStats => self.route_profile_stats(&id, deadline),
            Request::Epoch { epoch } => self.adopt_epoch(&id, epoch),
            Request::Shutdown => self.broadcast_shutdown(&id),
            // Answered by `control` above.
            Request::Ping | Request::NodeInfo | Request::Stats | Request::Metrics => {
                self.error(&id, ErrorCode::Internal, "control op reached routing")
            }
        }
    }

    /// Routes one v2 frame, appending the response frame to `out`.
    /// Returns `true` when the caller should stop serving (the client
    /// sent `shutdown` inside a JSON-wrapped frame).
    ///
    /// A `JSON_REQ` frame is unwrapped by
    /// [`frame::Message::of_frame`] and routed as the line it carries
    /// (counted once, by [`Router::handle_line`]). `plan` frames are
    /// forwarded without decode/re-encode: the view reads only the
    /// header fields it routes by, and the backend's response frame is
    /// relayed, sealed, with the client's id. Frame-native responses
    /// are not stamped with `shard`/`router_epoch` — that metadata is a
    /// v1 JSON affordance; v2 clients wanting membership ask
    /// `node_info`.
    #[must_use]
    pub fn handle_frame(&self, frame_op: u8, payload: &[u8], out: &mut Vec<u8>) -> bool {
        match Message::of_frame(frame_op, payload) {
            Message::Line { text, framing } => {
                let outcome = self.handle_line(text);
                framing.append_line(&outcome.response, out);
                return outcome.shutdown;
            }
            Message::Reject {
                framing, reason, ..
            } => {
                framing.append_bad_request(out, None, reason);
            }
            // `of_frame` never yields a blank line.
            Message::Frame { .. } | Message::Blank => {
                self.metrics.requests.inc();
                if frame_op == op::PLAN {
                    let deadline = self.frame_deadline(payload);
                    self.route_plan_frame(payload, &deadline, out);
                } else {
                    Self::answer_local_frame(frame_op, out);
                }
            }
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
    /// matrix, so both forms share one shard's cache — and relays the
    /// backend's answer, sealed, with the client's id.
    pub(crate) fn route_plan_frame(
        &self,
        payload: &[u8],
        deadline: &CancelToken,
        out: &mut Vec<u8>,
    ) {
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
        match self.forward(&key, Ask::Plan(payload), deadline, Reply::into_frame) {
            Ok(((reply_op, body), _)) => {
                let start = frame::begin_frame(out, reply_op);
                out.extend_from_slice(&body);
                frame::seal_frame(out, start);
            }
            Err((code, error)) => {
                binary::encode_error_response(out, view.id(), None, code, &error, None);
            }
        }
    }

    /// Forwards a v1 `plan` or `plan_devices` line to the shard owning
    /// `key` and stamps the answer with that shard.
    fn forward_by_key(
        &self,
        line: &str,
        id: &Value,
        key: &str,
        deadline: &CancelToken,
    ) -> LineOutcome {
        match self.forward(key, Ask::Line(line), deadline, Reply::into_line) {
            Ok((response, shard)) => LineOutcome {
                response: self.stamp(response, shard),
                shutdown: false,
            },
            Err((code, error)) => self.error(id, code, &error),
        }
    }

    /// `observe`: split the batch per owning shard, forward each
    /// sub-batch, forward the WAL frames each owner's ack carries to
    /// its replicas, then ack with the merged per-device versions. The ack therefore promises that
    /// every sighting in the batch is durable on its owner *and*
    /// replayed on that shard's live replicas.
    fn route_observe(
        &self,
        id: &Value,
        cells: usize,
        sightings: Vec<Sighting>,
        deadline: &CancelToken,
    ) -> LineOutcome {
        // One deadline covers the whole observe — every per-shard
        // forward and every replication pass draws from it, so the
        // client's deadline bounds the ack. Group sightings by owning
        // shard, preserving batch order within each group (versions
        // are assigned in apply order).
        let mut groups: Vec<Vec<Sighting>> = vec![Vec::new(); self.shard_count()];
        for sighting in sightings {
            let Some(shard) = self.shard_of(&sighting.device) else {
                return self.error(id, ErrorCode::Internal, "empty shard map");
            };
            groups[shard].push(sighting);
        }
        let mut ingested = 0u64;
        let mut versions: Vec<(String, Value)> = Vec::new();
        for (shard, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let ask = Ask::Observe {
                cells,
                sightings: &group,
            };
            let (reply, applied_on) = match self.call_shard(shard, ask, deadline) {
                Ok(served) => served,
                Err(error) => return self.error(id, ErrorCode::Unavailable, &error),
            };
            let ack = match reply {
                Reply::Observed(ack) => ack,
                // Pass the shard's own error (degraded, overloaded
                // after budget, bad_request) through unchanged.
                Reply::Frame(op::ERROR, payload) => return self.relay_error(id, &payload, shard),
                other => return self.error(id, ErrorCode::Internal, &other.unexpected()),
            };
            ingested += ack.ingested;
            for (device, version) in ack.versions {
                match versions.iter_mut().find(|(d, _)| *d == device) {
                    Some(entry) => entry.1 = Value::from(version),
                    None => versions.push((device, Value::from(version))),
                }
            }
            // Replicate before acking: a SIGKILLed owner must never
            // take an acked sighting with it. The owner's ack carries
            // the frames it appended, which go straight to the
            // replicas. Shipping draws from the same deadline, so a
            // wedged link fails the ack honestly instead of parking
            // the client. `applied_on` pins the replication pass to
            // the backend that ingested the batch: if the shard fails
            // over in between, the ack must fail — the sighting lives
            // only on the deposed owner.
            let appended = ack.frames.map(Appended::from);
            if let Err(error) = self.ship_shard(shard, applied_on, appended.as_ref(), deadline) {
                return self.error(
                    id,
                    ErrorCode::Unavailable,
                    &format!("replication failed: {error}"),
                );
            }
        }
        self.ok(
            id,
            vec![
                ("ingested", Value::from(ingested)),
                ("versions", Value::Object(versions)),
            ],
        )
    }

    /// `profile_stats`: scatter to every shard owner and answer with
    /// the per-shard breakdown plus summed totals. Every shard call
    /// draws from the one `deadline`, so the scatter answers within it
    /// however many shards are slow.
    fn route_profile_stats(&self, id: &Value, deadline: &CancelToken) -> LineOutcome {
        let shard_names = {
            let membership = self.membership.lock().unwrap_or_else(|e| e.into_inner());
            membership.map.shards.clone()
        };
        let scatter = json::encode_request(&Request::ProfileStats);
        let mut per_shard: Vec<(String, Value)> = Vec::new();
        let mut devices = 0u64;
        let mut sightings = 0u64;
        for (shard, shard_name) in shard_names.iter().enumerate() {
            let response = match self
                .call_shard(shard, Ask::Line(&scatter), deadline)
                .and_then(|(reply, _)| reply.into_line())
            {
                Ok(response) => response,
                Err(error) => return self.error(id, ErrorCode::Unavailable, &error),
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
        self.ok(
            id,
            vec![
                ("devices", Value::from(devices)),
                ("sightings", Value::from(sightings)),
                ("shards", Value::Object(per_shard)),
            ],
        )
    }

    /// The router's own `node_info`: membership as the router sees it.
    fn local_node_info(&self, id: &Value) -> LineOutcome {
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
        self.ok(
            id,
            vec![
                ("role", Value::from("router")),
                ("epoch", Value::from(epoch)),
                ("shards", Value::Array(shards)),
            ],
        )
    }

    /// `epoch`: adopt a higher membership epoch (monotone) and fan it
    /// out to every live backend. The fan-out carries no client
    /// deadline: each call is bounded by `io_timeout` alone.
    fn adopt_epoch(&self, id: &Value, epoch: u64) -> LineOutcome {
        let (adopted, live) = {
            let mut membership = self.membership.lock().unwrap_or_else(|e| e.into_inner());
            if epoch > membership.map.epoch {
                membership.map.epoch = epoch;
            }
            (membership.map.epoch, self.live_backends(&membership))
        };
        let line = json::encode_request(&Request::Epoch { epoch: adopted });
        for idx in live {
            let _ = self.call_backend(idx, Ask::Line(&line), &CancelToken::never());
        }
        self.ok(id, vec![("epoch", Value::from(adopted))])
    }

    /// `shutdown`: stop every backend (best effort, each call bounded
    /// by `io_timeout`), then stop serving.
    fn broadcast_shutdown(&self, id: &Value) -> LineOutcome {
        let live = {
            let membership = self.membership.lock().unwrap_or_else(|e| e.into_inner());
            self.live_backends(&membership)
        };
        let line = json::encode_request(&Request::Shutdown);
        for idx in live {
            let _ = self.call_backend(idx, Ask::Line(&line), &CancelToken::never());
        }
        LineOutcome {
            shutdown: true,
            ..self.ok(id, vec![("stopping", Value::Bool(true))])
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

    /// A router-origin success answer: `id` echoed (omitted when
    /// null), then the `router_epoch` stamp, then `fields`.
    fn ok(&self, id: &Value, fields: Vec<(&'static str, Value)>) -> LineOutcome {
        let mut all = vec![("router_epoch", Value::from(self.epoch()))];
        all.extend(fields);
        LineOutcome {
            response: json::ok_line_with_id(None, id, all),
            shutdown: false,
        }
    }

    /// A router-origin error answer: the node's error line (`id`
    /// echoed, `null` when the request had none) with the
    /// `router_epoch` stamp last.
    fn error(&self, id: &Value, code: ErrorCode, message: &str) -> LineOutcome {
        let body = ErrorBody {
            id,
            code,
            message,
            retry_after_ms: None,
        };
        self.error_line(None, &body, None)
    }

    /// A shard's `ERROR` frame relayed to the client as the error line
    /// the shard would have answered a v1 line with — its node, code,
    /// message and retry hint, the client's `id` — stamped like any
    /// forwarded answer.
    fn relay_error(&self, id: &Value, payload: &[u8], shard: usize) -> LineOutcome {
        match binary::decode_error(payload) {
            Ok((_, error)) => {
                let body = ErrorBody {
                    id,
                    code: error.code,
                    message: error.message,
                    retry_after_ms: error.retry_after_ms,
                };
                self.error_line(error.node, &body, Some(shard))
            }
            // `Conn::call` decoded the frame before handing it over.
            Err(message) => self.error(id, ErrorCode::Internal, message),
        }
    }

    /// An error line stamped with the serving `shard` (a forwarded
    /// answer) and the `router_epoch`, in the order [`Router::stamp`]
    /// appends them.
    fn error_line(
        &self,
        node: Option<&str>,
        body: &ErrorBody<'_>,
        shard: Option<usize>,
    ) -> LineOutcome {
        let line = json::error_line(node, body);
        // `line` is one JSON object: reopen it before its closing brace.
        let mut response = line.strip_suffix('}').unwrap_or(&line).to_string();
        let name = shard.and_then(|shard| {
            let membership = self.membership.lock().unwrap_or_else(|e| e.into_inner());
            membership.map.shards.get(shard).cloned()
        });
        if let Some(name) = name {
            response.push_str(&format!(",\"shard\":{}", Value::Str(name)));
        }
        response.push_str(&format!(",\"router_epoch\":{}}}", self.epoch()));
        LineOutcome {
            response,
            shutdown: false,
        }
    }
}

/// Whether waiting `wait` would reach `deadline`.
fn outlasts(deadline: &CancelToken, wait: Duration) -> bool {
    deadline.remaining().is_some_and(|left| left <= wait)
}

/// The consistent-hash key for a `plan` request: the quantised
/// instance fingerprint in a stable text form.
fn plan_route_key(fingerprint: u64) -> String {
    format!("{fingerprint:016x}")
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

    /// A backend serving each connection on its own thread: every
    /// request frame is answered with the bytes `respond` returns for
    /// its op and payload, written one byte per `pace` when it is set
    /// (a link that trickles).
    fn backend<F>(respond: F, pace: Option<Duration>) -> String
    where
        F: Fn(u8, &[u8]) -> Vec<u8> + Clone + Send + 'static,
    {
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                let respond = respond.clone();
                std::thread::spawn(move || {
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 4096];
                    loop {
                        let out = match frame::split(&buf) {
                            frame::Split::NeedMore => {
                                let Ok(n) = stream.read(&mut chunk) else {
                                    break;
                                };
                                if n == 0 {
                                    break;
                                }
                                buf.extend_from_slice(&chunk[..n]);
                                continue;
                            }
                            frame::Split::V2Frame {
                                op: request_op,
                                payload,
                                consumed,
                            } => {
                                let out = respond(request_op, payload);
                                buf.drain(..consumed);
                                out
                            }
                            frame::Split::V1Line { .. } | frame::Split::Malformed(_) => break,
                        };
                        let written = match pace {
                            None => stream.write_all(&out),
                            Some(pace) => out.iter().try_for_each(|byte| {
                                std::thread::sleep(pace);
                                stream.write_all(std::slice::from_ref(byte))
                            }),
                        };
                        if written.is_err() {
                            break;
                        }
                    }
                });
            }
        });
        addr
    }

    /// `payload` in a sealed frame.
    fn sealed(reply_op: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let start = frame::begin_frame(&mut out, reply_op);
        out.extend_from_slice(payload);
        frame::seal_frame(&mut out, start);
        out
    }

    /// `reply` in a sealed `JSON_RESP`, with the `id` of the `JSON_REQ`
    /// payload `request` echoed into object-shaped replies — so the
    /// reply passes the hop's correlation and reaches its validation.
    fn json_reply(reply: &str, request: &[u8]) -> Vec<u8> {
        let echoed = std::str::from_utf8(request)
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
        sealed(op::JSON_RESP, line.as_bytes())
    }

    /// A backend that answers every request with a fixed reply line in
    /// a correctly sealed `JSON_RESP` — syntactically valid JSON,
    /// semantically garbage when asked to be. This models a byzantine
    /// *backend* rather than a corrupted link: the CRC verifies end to
    /// end.
    fn scripted_backend(reply: &'static str) -> String {
        scripted_backend_after(reply, Duration::ZERO)
    }

    /// [`scripted_backend`], answering each request `delay` after it
    /// arrives.
    fn scripted_backend_after(reply: &'static str, delay: Duration) -> String {
        backend(
            move |_, request| {
                std::thread::sleep(delay);
                json_reply(reply, request)
            },
            None,
        )
    }

    /// A backend that accepts connections and never answers: a
    /// blackholed node.
    fn silent_backend() -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            for stream in listener.incoming() {
                held.extend(stream.ok());
            }
        });
        addr
    }

    /// A backend answering every native request, `delay` after it
    /// arrives, with the sealed frame `answer` encodes for the request's
    /// op and id.
    fn native_backend<F>(delay: Duration, answer: F) -> String
    where
        F: Fn(&mut Vec<u8>, u8, IdView<'_>) + Clone + Send + 'static,
    {
        backend(
            move |request_op, payload| {
                std::thread::sleep(delay);
                let mut out = Vec::new();
                answer(
                    &mut out,
                    request_op,
                    binary::id_of(payload).unwrap_or(IdView::Null),
                );
                out
            },
            None,
        )
    }

    /// An owner whose WAL tail is empty: every `WAL_SHIP` reads nothing.
    fn empty_owner() -> String {
        native_backend(Duration::ZERO, |out, _, id| {
            let tail = pager_profiles::WalSegment {
                generation: 0,
                offset: 0,
                bytes: Vec::new(),
                latest_generation: 0,
                end_of_generation: false,
            };
            binary::encode_wal_segment(out, id, &tail);
        })
    }

    /// A replica that applies every `WAL_APPLY` as 2 records in 8
    /// bytes, answering `delay` after it arrives.
    fn applying_replica(delay: Duration) -> String {
        native_backend(delay, |out, _, id| {
            let applied = binary::WalApplied {
                applied: 2,
                consumed: 8,
                profile_version: 2,
            };
            binary::encode_wal_applied(out, id, &applied);
        })
    }

    /// An owner refusing every request with this `ERROR`.
    fn refusing_owner(code: ErrorCode, message: &'static str, retry: Option<u64>) -> String {
        native_backend(Duration::ZERO, move |out, _, id| {
            binary::encode_error_response(out, id, Some("n0"), code, message, retry);
        })
    }

    /// A sealed (or, with `sealed` false, unsealed) `PLAN_RESP` echoing
    /// `id`, from the node named `node`.
    fn plan_reply(id: IdView<'_>, node: &str, sealed: bool) -> Vec<u8> {
        let mut out = Vec::new();
        binary::encode_plan_response(
            &mut out,
            id,
            Some(node),
            "greedy",
            1.5,
            0,
            false,
            false,
            false,
            &[vec![0, 1]],
        );
        if sealed {
            return out;
        }
        let frame::Split::V2Frame { payload, .. } = frame::split(&out) else {
            panic!("encoder produced a non-frame");
        };
        let mut plain = Vec::new();
        frame::write_frame(&mut plain, op::PLAN_RESP, payload);
        plain
    }

    /// The payload of a `PLAN` frame with `id` and a 300 ms deadline.
    fn plan_payload(id: &Value) -> Vec<u8> {
        let instance = pager_core::Instance::from_rows(vec![vec![0.5, 0.5]]).unwrap();
        let spec =
            pager_wire::PlanSpec::new(pager_core::Delay::new(2).unwrap()).with_deadline_ms(300);
        let mut wire = Vec::new();
        assert!(binary::encode_plan_request(&mut wire, id, &instance, &spec));
        wire[frame::HEADER_LEN..].to_vec()
    }

    /// Routes one `PLAN` payload through `router` and decodes the answer.
    fn route_plan(router: &Router, payload: &[u8]) -> Value {
        let mut out = Vec::new();
        assert!(!router.handle_frame(op::PLAN, payload, &mut out));
        let frame::Split::V2Frame {
            op: reply_op,
            payload,
            ..
        } = frame::split(&out)
        else {
            panic!("expected a frame, got {out:?}");
        };
        binary::response_to_value(reply_op, payload).unwrap()
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
            64,
            RouterConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn a_profile_stats_scatter_keeps_its_deadline() {
        // Two shards whose backends each answer after 0.7·D: given the
        // full budget per shard, the scatter would answer after 1.4·D.
        const D: u64 = 400;
        let reply = "{\"ok\":true,\"profiles\":{\"devices\":1,\"sightings\":2}}";
        let shards = (0..2)
            .map(|i| ShardSpec {
                shard: format!("s{i}"),
                backends: vec![BackendSpec {
                    node: format!("n{i}"),
                    addr: scripted_backend_after(reply, Duration::from_millis(D * 7 / 10)),
                }],
            })
            .collect();
        let router = Router::new(shards, 64, RouterConfig::default()).unwrap();
        let started = Instant::now();
        let outcome =
            router.handle_line(&format!(r#"{{"cmd":"profile_stats","deadline_ms":{D}}}"#));
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(D + 100),
            "answered after {elapsed:?}: {}",
            outcome.response
        );
        let answer = jsonio::parse(&outcome.response).unwrap();
        assert!(
            answer.get("ok").and_then(Value::as_bool) == Some(true)
                || answer.get("code").and_then(Value::as_str) == Some("unavailable"),
            "{answer}"
        );
    }

    #[test]
    fn router_answers_echo_the_request_id() {
        let router = one_backend_router(scripted_backend(
            "{\"ok\":true,\"profiles\":{\"devices\":0,\"sightings\":0}}",
        ));
        // An id-less answer is unchanged; an id rides right after "v".
        assert_eq!(
            router.handle_line(r#"{"cmd":"ping"}"#).response,
            r#"{"v":1,"ok":true,"router_epoch":0,"pong":true}"#
        );
        assert_eq!(
            router.handle_line(r#"{"cmd":"ping","id":7}"#).response,
            r#"{"v":1,"id":7,"ok":true,"router_epoch":0,"pong":true}"#
        );
        let stats = router.handle_line(r#"{"cmd":"profile_stats","id":"s-1"}"#);
        assert!(
            stats
                .response
                .starts_with(r#"{"v":1,"id":"s-1","ok":true,"router_epoch":0,"devices":0"#),
            "{}",
            stats.response
        );
        // Router-origin errors echo the id, null when there is none.
        let dead = one_backend_router("127.0.0.1:1".to_string());
        let unavailable = dead
            .handle_line(r#"{"cmd":"profile_stats","id":9,"deadline_ms":50}"#)
            .response;
        assert!(
            unavailable.starts_with(r#"{"v":1,"id":9,"ok":false,"code":"unavailable","error":"#)
                && unavailable.ends_with(r#","router_epoch":0}"#),
            "{unavailable}"
        );
        assert_eq!(
            dead.handle_line(r#"{"cmd":"nope","id":3}"#).response,
            r#"{"v":1,"id":3,"ok":false,"code":"unsupported","error":"unknown cmd \"nope\"","router_epoch":0}"#
        );
        assert!(dead
            .handle_line("not json")
            .response
            .starts_with(r#"{"v":1,"id":null,"ok":false,"code":"bad_request""#));
    }

    #[test]
    fn a_json_wrapped_request_counts_once() {
        // Answered by the router itself: no backend is dialled.
        let router = one_backend_router("127.0.0.1:1".to_string());
        let mut out = Vec::new();
        assert!(!router.handle_frame(op::JSON_REQ, br#"{"cmd":"ping"}"#, &mut out));
        assert_eq!(router.metrics.requests.get(), 1);
        let frame::Split::V2Frame {
            op: resp_op,
            payload,
            ..
        } = frame::split(&out)
        else {
            panic!("expected a JSON_RESP frame, got {out:?}");
        };
        assert_eq!(resp_op, op::JSON_RESP);
        let reply = jsonio::parse(std::str::from_utf8(payload).unwrap()).unwrap();
        assert_eq!(reply.get("pong").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn byzantine_replies_trip_the_breaker() {
        // The reply parses as JSON and echoes the correlation id, so
        // it is not a transport error — but with no `ok` field it is
        // not a pager response either. It must count toward the
        // breaker and the byzantine metric, never be relayed.
        let router = one_backend_router(scripted_backend("{\"pong\":true}"));
        let budget = Duration::from_millis(500);
        let ping = Ask::Line("{\"cmd\":\"ping\"}");
        for _ in 0..BREAKER_THRESHOLD {
            let err = router
                .call_backend(0, ping, &CancelToken::with_timeout(budget))
                .unwrap_err();
            assert!(err.contains("byzantine"), "{err}");
        }
        // The breaker is now open: the next call is rejected locally.
        let err = router
            .call_backend(0, ping, &CancelToken::with_timeout(budget))
            .unwrap_err();
        assert!(err.contains("breaker open"), "{err}");
        assert_eq!(
            router.metrics.byzantine_replies.get(),
            u64::from(BREAKER_THRESHOLD),
        );
        assert_eq!(router.metrics.breaker_rejections.get(), 1);
    }

    #[test]
    fn well_formed_replies_pass_byzantine_validation() {
        let router = one_backend_router(scripted_backend("{\"ok\":true,\"pong\":true}"));
        let value = router
            .call_backend(
                0,
                Ask::Line("{\"cmd\":\"ping\"}"),
                &CancelToken::with_timeout(Duration::from_millis(500)),
            )
            .and_then(Reply::into_line)
            .unwrap();
        assert_eq!(value.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(router.metrics.byzantine_replies.get(), 0);
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
            64,
            RouterConfig::default(),
        )
        .unwrap();
        let (old_owner, replicas, _) = router.shard_snapshot(0);
        assert_eq!(replicas.len(), 1);
        assert!(router.promote(
            0,
            old_owner,
            &CancelToken::with_timeout(Duration::from_millis(200))
        ));
        let err = router
            .ship_shard(
                0,
                old_owner,
                None,
                &CancelToken::with_timeout(Duration::from_millis(100)),
            )
            .unwrap_err();
        assert!(err.contains("failed over mid-observe"), "{err}");
        // Pinned to the *current* owner the pass succeeds — the shard
        // has no replicas left after the promotion, so nothing ships.
        let (new_owner, replicas_after, _) = router.shard_snapshot(0);
        assert_ne!(new_owner, old_owner);
        assert!(replicas_after.is_empty());
        assert_eq!(
            router.ship_shard(
                0,
                new_owner,
                None,
                &CancelToken::with_timeout(Duration::from_millis(100))
            ),
            Ok(0)
        );
    }

    #[test]
    fn ship_forwards_appended_frames_once_and_catches_up_gaps() {
        use crate::ship::{Appended, Cursor};
        // The owner answers every `WAL_SHIP` with an empty tail; the
        // replica applies every chunk as 2 records in 8 bytes.
        let router = Router::new(
            vec![ShardSpec {
                shard: "s0".to_string(),
                backends: vec![
                    BackendSpec {
                        node: "n0".to_string(),
                        addr: empty_owner(),
                    },
                    BackendSpec {
                        node: "n1".to_string(),
                        addr: applying_replica(Duration::ZERO),
                    },
                ],
            }],
            64,
            RouterConfig::default(),
        )
        .unwrap();
        let (owner, _, _) = router.shard_snapshot(0);
        let budget = Duration::from_secs(2);
        let appended = |generation, offset| Appended {
            incarnation: 7,
            at: Cursor { generation, offset },
            bytes: vec![0; 8],
        };
        // At the cursor: forwarded, no read-back.
        let first = appended(0, 0);
        assert_eq!(
            router.ship_shard(0, owner, Some(&first), &CancelToken::with_timeout(budget)),
            Ok(2)
        );
        // Already shipped (a concurrent catch-up passed it): nothing.
        assert_eq!(
            router.ship_shard(0, owner, Some(&first), &CancelToken::with_timeout(budget)),
            Ok(0)
        );
        assert_eq!(router.metrics.ship_catchups.get(), 0);
        // A gap, a later generation, or no frames at all: catch up.
        for gap in [Some(appended(0, 20)), Some(appended(1, 0)), None] {
            let before = router.metrics.ship_catchups.get();
            assert_eq!(
                router.ship_shard(0, owner, gap.as_ref(), &CancelToken::with_timeout(budget)),
                Ok(0)
            );
            assert_eq!(router.metrics.ship_catchups.get(), before + 1);
        }
        assert_eq!(router.metrics.shipped_records.get(), 2);
    }

    #[test]
    fn ship_catches_up_when_the_owner_reopened_under_the_cursor() {
        use crate::ship::{Appended, Cursor};
        // The owner reopened and recovered a WAL shorter than the
        // replica's cursor: every `WAL_SHIP` from the cursor fails.
        let router = Router::new(
            vec![ShardSpec {
                shard: "s0".to_string(),
                backends: vec![
                    BackendSpec {
                        node: "n0".to_string(),
                        addr: refusing_owner(
                            ErrorCode::BadRequest,
                            "offset 8 beyond WAL length 0 for generation 0",
                            None,
                        ),
                    },
                    BackendSpec {
                        node: "n1".to_string(),
                        addr: applying_replica(Duration::ZERO),
                    },
                ],
            }],
            64,
            RouterConfig::default(),
        )
        .unwrap();
        let (owner, _, _) = router.shard_snapshot(0);
        let budget = Duration::from_secs(2);
        let appended = |incarnation| Appended {
            incarnation,
            at: Cursor::default(),
            bytes: vec![0; 8],
        };
        assert_eq!(
            router.ship_shard(
                0,
                owner,
                Some(&appended(1)),
                &CancelToken::with_timeout(budget)
            ),
            Ok(2)
        );
        // Same incarnation: the cursor past the frames proves them shipped.
        assert_eq!(
            router.ship_shard(
                0,
                owner,
                Some(&appended(1)),
                &CancelToken::with_timeout(budget)
            ),
            Ok(0)
        );
        assert_eq!(router.metrics.ship_catchups.get(), 0);
        // A new incarnation's frames also end at the cursor, but the
        // cursor indexes the old log: catch-up re-checks it against the
        // owner's WAL and the ack fails instead of skipping the replica.
        let err = router
            .ship_shard(
                0,
                owner,
                Some(&appended(2)),
                &CancelToken::with_timeout(budget),
            )
            .unwrap_err();
        assert!(err.contains("beyond WAL length"), "{err}");
        assert_eq!(router.metrics.ship_catchups.get(), 1);
        // The replica is kept; only the ack failed.
        assert_eq!(router.shard_snapshot(0).1.len(), 1);
    }

    #[test]
    fn a_replica_answering_after_the_deadline_is_kept() {
        use crate::ship::{Appended, Cursor};
        // The replica is healthy but slow: its `WAL_APPLY` answer
        // arrives after the observe's replication budget is spent.
        let router = Router::new(
            vec![ShardSpec {
                shard: "s0".to_string(),
                backends: vec![
                    BackendSpec {
                        node: "n0".to_string(),
                        addr: empty_owner(),
                    },
                    BackendSpec {
                        node: "n1".to_string(),
                        addr: applying_replica(Duration::from_millis(400)),
                    },
                ],
            }],
            64,
            RouterConfig::default(),
        )
        .unwrap();
        let (owner, _, _) = router.shard_snapshot(0);
        let appended = Appended {
            incarnation: 1,
            at: Cursor::default(),
            bytes: vec![0; 8],
        };
        // Running out of time is the ack's failure, not the replica's.
        let err = router
            .ship_shard(
                0,
                owner,
                Some(&appended),
                &CancelToken::with_timeout(Duration::from_millis(100)),
            )
            .unwrap_err();
        assert!(err.contains("deadline exhausted"), "{err}");
        assert_eq!(router.shard_snapshot(0).1.len(), 1);
        assert_eq!(router.metrics.shipped_records.get(), 0);
    }

    #[test]
    fn a_silent_replica_is_dropped_when_its_breaker_opens() {
        use crate::ship::{Appended, Cursor};
        let router = Router::new(
            vec![ShardSpec {
                shard: "s0".to_string(),
                backends: vec![
                    BackendSpec {
                        node: "n0".to_string(),
                        addr: empty_owner(),
                    },
                    BackendSpec {
                        node: "n1".to_string(),
                        addr: silent_backend(),
                    },
                ],
            }],
            64,
            RouterConfig::default(),
        )
        .unwrap();
        let (owner, replicas, _) = router.shard_snapshot(0);
        let appended = Appended {
            incarnation: 1,
            at: Cursor::default(),
            bytes: vec![0; 8],
        };
        let ship = || {
            router.ship_shard(
                0,
                owner,
                Some(&appended),
                &CancelToken::with_timeout(Duration::from_millis(100)),
            )
        };
        // A replica still silent at the deadline may be a slow healthy
        // one: the ack fails and the replica stays...
        for _ in 1..BREAKER_THRESHOLD {
            let err = ship().unwrap_err();
            assert!(err.contains("deadline exhausted"), "{err}");
            assert_eq!(router.shard_snapshot(0).1, replicas);
        }
        // ...until the silence that opens its breaker: it is dropped,
        // and the ack goes on without it.
        assert_eq!(ship(), Ok(0));
        assert!(router.shard_snapshot(0).1.is_empty());
        assert_eq!(
            router.metrics.transport_errors.get(),
            u64::from(BREAKER_THRESHOLD)
        );
    }

    #[test]
    fn an_owners_error_reaches_the_client_as_its_error_line() {
        // What the owner's JSON error line became after the router
        // restored the id and stamped it: the line an `ERROR` frame must
        // relay byte for byte.
        let observe = r#"{"cmd":"observe","cells":4,"deadline_ms":300,"sightings":[{"device":"d","cell":1,"time":1.0}]}"#;
        let degraded = one_backend_router(refusing_owner(
            ErrorCode::Degraded,
            "data disk failed; observes are refused",
            None,
        ));
        assert_eq!(
            degraded.handle_line(observe).response,
            r#"{"v":1,"id":null,"ok":false,"code":"degraded","error":"data disk failed; observes are refused","node":"n0","shard":"s0","router_epoch":0}"#
        );
        // An overload whose hint outlasts the budget is relayed at once,
        // hint and all.
        let overloaded = one_backend_router(refusing_owner(
            ErrorCode::Overloaded,
            "server overloaded, retry after 5000 ms",
            Some(5000),
        ));
        assert_eq!(
            overloaded.handle_line(observe).response,
            r#"{"v":1,"id":null,"ok":false,"code":"overloaded","error":"server overloaded, retry after 5000 ms","node":"n0","retry_after_ms":5000,"shard":"s0","router_epoch":0}"#
        );
        assert_eq!(overloaded.metrics.shed_passthrough.get(), 1);
        assert_eq!(overloaded.metrics.retries.get(), 0);
        // The relayed line echoes the client's id.
        let named = overloaded.handle_line(&observe.replacen("{", r#"{"id":"o-1","#, 1));
        assert!(
            named
                .response
                .starts_with(r#"{"v":1,"id":"o-1","ok":false,"code":"overloaded""#),
            "{}",
            named.response
        );
        assert_eq!(overloaded.metrics.byzantine_replies.get(), 0);
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
        assert_eq!(Reply::Frame(o, payload.to_vec()).overload_retry(), Some(50));

        let mut pong = Vec::new();
        binary::encode_pong(&mut pong, None);
        let frame::Split::V2Frame { op: o, payload, .. } = frame::split(&pong) else {
            panic!("expected a complete pong frame");
        };
        assert_eq!(Reply::Frame(o, payload.to_vec()).overload_retry(), None);
    }
    #[test]
    fn unsealed_plan_replies_are_byzantine_and_never_relayed() {
        // The backend echoes the forwarded id, so only the missing seal
        // is wrong: the client must get an honest error, not the plan.
        let router = one_backend_router(backend(
            |_, payload| {
                let id = PlanFrameView::parse(payload).map_or(IdView::Null, |view| view.id());
                plan_reply(id, "unsealed", false)
            },
            None,
        ));
        let answer = route_plan(&router, &plan_payload(&Value::Int(7)));
        assert_eq!(
            answer.get("code").and_then(Value::as_str),
            Some("unavailable"),
            "{answer}"
        );
        assert_eq!(answer.get("id").and_then(Value::as_i64), Some(7));
        assert!(router.metrics.byzantine_replies.get() >= 1);
    }

    #[test]
    fn stale_plan_replies_are_skipped_and_the_client_id_restored() {
        // Every request after a connection's first is answered twice:
        // first by a sealed, intact PLAN_RESP echoing the previous
        // nonce (a replayed duplicate), then by the right one.
        let router = one_backend_router(backend(
            |_, payload| {
                let id = PlanFrameView::parse(payload).map_or(IdView::Null, |view| view.id());
                let mut out = Vec::new();
                let earlier = match id {
                    IdView::U64(n) => n.checked_sub(1),
                    IdView::I64(n) => u64::try_from(n - 1).ok(),
                    IdView::Null | IdView::Str(_) => None,
                };
                if let Some(earlier) = earlier.filter(|&n| n > 0) {
                    out.extend(plan_reply(IdView::U64(earlier), "stale", true));
                }
                out.extend(plan_reply(id, "fresh", true));
                out
            },
            None,
        ));
        for id in [
            Value::Int(7),
            Value::Int(8),
            Value::from("q-1"),
            Value::from("q-2"),
        ] {
            let answer = route_plan(&router, &plan_payload(&id));
            assert_eq!(
                answer.get("node").and_then(Value::as_str),
                Some("fresh"),
                "{answer}"
            );
            assert_eq!(answer.get("id"), Some(&id), "{answer}");
        }
        assert_eq!(router.metrics.transport_errors.get(), 0);
    }

    #[test]
    fn a_trickling_backend_cannot_hold_a_hop_past_its_deadline() {
        // A sealed, correct reply that arrives one byte per 20 ms: each
        // read returns well inside the 500 ms io_timeout, but the whole
        // reply takes over a second.
        const D: u64 = 300;
        let reply = format!("{{\"ok\":true,\"pad\":\"{}\"}}", "x".repeat(48));
        let addr = backend(
            move |_, request| json_reply(&reply, request),
            Some(Duration::from_millis(20)),
        );
        let router = Router::new(
            vec![ShardSpec {
                shard: "s0".to_string(),
                backends: vec![BackendSpec {
                    node: "n0".to_string(),
                    addr,
                }],
            }],
            64,
            RouterConfig {
                io_timeout: Duration::from_millis(500),
                ..RouterConfig::default()
            },
        )
        .unwrap();
        let started = Instant::now();
        let outcome = router.handle_line(&format!(
            r#"{{"cmd":"plan_devices","devices":["d"],"delay":2,"deadline_ms":{D}}}"#
        ));
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(D + 100),
            "answered after {elapsed:?}: {}",
            outcome.response
        );
        let answer = jsonio::parse(&outcome.response).unwrap();
        assert_eq!(
            answer.get("code").and_then(Value::as_str),
            Some("unavailable"),
            "{answer}"
        );
    }
}
