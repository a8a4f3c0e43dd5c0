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

use std::sync::Arc;

use pager_service::engine::{Call, Gauges, Handler, Reply};
use pager_wire::frame::op;
use pager_wire::PlanFrameView;

use crate::router::{Router, RouterMetrics};

impl Handler for Router {
    fn on_line(self: Arc<Self>, line: &str, call: &mut Call<'_>) -> Reply {
        RouterMetrics::bump(&self.metrics.requests);
        let routed = match self.parse_line(line) {
            Ok(routed) => routed,
            Err(outcome) => {
                call.reply_line(&outcome.response, false);
                return Reply::Now;
            }
        };
        if let Some(outcome) = self.control(&routed.request) {
            call.reply_line(&outcome.response, false);
            return Reply::Now;
        }
        let done = call.later(Some(self.budget_ms(routed.deadline_ms)));
        let line = line.to_string();
        call.spawn(move || {
            // lint:allow(no-blocking-in-reactor): this closure runs on
            // the I/O pool; blocking backend round trips are the design.
            let outcome = self.route(&line, routed);
            done.answer_line(&outcome.response, outcome.shutdown)
        });
        Reply::Later
    }

    fn on_frame(self: Arc<Self>, frame_op: u8, payload: &[u8], call: &mut Call<'_>) -> Reply {
        RouterMetrics::bump(&self.metrics.requests);
        if frame_op != op::PLAN {
            Router::answer_local_frame(frame_op, call.out());
            return Reply::Now;
        }
        let deadline_ms = PlanFrameView::parse(payload)
            .ok()
            .and_then(|view| view.deadline_ms());
        let done = call.later(Some(self.budget_ms(deadline_ms)));
        let payload = payload.to_vec();
        call.spawn(move || {
            let mut out = Vec::new();
            // lint:allow(no-blocking-in-reactor): this closure runs on
            // the I/O pool; the forward is a blocking backend round trip.
            self.route_plan_frame(frame_op, &payload, &mut out);
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
