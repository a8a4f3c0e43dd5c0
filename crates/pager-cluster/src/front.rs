//! The router's TCP front end: [`Router`] as a transport-engine
//! [`Handler`].
//!
//! `pager-cluster launch` serves the router through the same engine as
//! `pager-serve`, so clients get its ordering, drain and deadline
//! watchdog. Only what touches no backend answers on a shard thread:
//! `ping`, `stats`/`metrics`, `node_info`, parse errors and `PING`
//! frames. Every request that talks to a backend — forwards, `observe`
//! with its WAL shipping, scatters, epoch fan-out, `shutdown` — runs
//! on the engine's I/O pool, which grows a worker whenever none is
//! idle, so a client waiting on a dead backend never delays another
//! client's request.
//!
//! The request's deadline is made here, when the request is read, and
//! the watchdog is armed at its instant: time queued for the I/O pool
//! counts against the budget, as the client sees it.

use std::sync::Arc;

use pager_service::engine::{Call, Gauges, Handler, Reply};
use pager_wire::frame::op;

use crate::router::Router;

impl Handler for Router {
    fn on_line(self: Arc<Self>, line: &str, call: &mut Call<'_>) -> Reply {
        self.metrics.requests.inc();
        let routed = match self.parse_line(line) {
            Ok(routed) => routed,
            Err(outcome) => {
                call.reply_line(&outcome.response, false);
                return Reply::Now;
            }
        };
        if let Some(outcome) = self.control(&routed) {
            call.reply_line(&outcome.response, false);
            return Reply::Now;
        }
        let deadline = self.deadline(routed.deadline_ms);
        let done = call.later(&deadline);
        let line = line.to_string();
        call.spawn(move || {
            // lint:allow(no-blocking-in-reactor): this closure runs on
            // the I/O pool; blocking backend round trips are the design.
            let outcome = self.route(&line, &deadline, routed);
            done.answer_line(&outcome.response, outcome.shutdown)
        });
        Reply::Later
    }

    fn on_frame(self: Arc<Self>, frame_op: u8, payload: &[u8], call: &mut Call<'_>) -> Reply {
        self.metrics.requests.inc();
        if frame_op != op::PLAN {
            Router::answer_local_frame(frame_op, call.out());
            return Reply::Now;
        }
        let deadline = self.frame_deadline(payload);
        let done = call.later(&deadline);
        let payload = payload.to_vec();
        call.spawn(move || {
            let mut out = Vec::new();
            // lint:allow(no-blocking-in-reactor): this closure runs on
            // the I/O pool; the forward is a blocking backend round trip.
            self.route_plan_frame(&payload, &deadline, &mut out);
            done.answer(out)
        });
        Reply::Later
    }

    fn node(&self) -> Option<&str> {
        None
    }

    fn gauges(&self) -> Gauges<'_> {
        Gauges {
            connections: &self.metrics.connections,
            deadline_watchdog: &self.metrics.deadline_watchdog,
        }
    }
}
