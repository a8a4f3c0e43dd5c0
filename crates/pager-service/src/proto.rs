//! Wire protocol handling: typed requests in, typed responses out.
//!
//! The protocol itself — the [`Request`] and answer-body types, the
//! v1 JSON-lines encoding, and the v2 binary framing — lives in
//! [`pager_wire`]; the byte-level schemas and negotiation rules are
//! documented in `docs/wire.md`. This module is the
//! *server-side* glue: it decodes one message, runs it against a
//! [`PagerService`], and encodes the answer in the protocol the
//! message arrived in.
//!
//! Entry points:
//!
//! * [`handle_line`] / [`handle_request`] — the v1 path: one JSON
//!   line in, one JSON line out (plus a shutdown flag).
//! * [`handle_frame`] — the v2 path: one decoded frame in, one frame
//!   appended to the output buffer. `plan` frames first probe the
//!   strategy cache straight from the borrowed payload
//!   ([`PagerService::plan_cache_probe`]); a steady-state cache hit is
//!   answered without a single heap allocation. The replication ops a
//!   cluster router sends (`OBSERVE`, `WAL_APPLY`, `WAL_SHIP`) are
//!   decoded here too, and answered natively from the same
//!   [`Observed`], `WalApplyOutcome` and `WalSegment` values the service
//!   returns.
//!
//! The TCP engine's [`PagerService`] handler and the stdio front
//! ([`crate::server::serve_lines`]) both funnel through these
//! functions, so the two fronts answer byte-identically by
//! construction.

use jsonio::Value;
use pager_wire::binary::{ObserveBatch, WalApplied, WalShip};
use pager_wire::frame::{op, Message};
use pager_wire::{binary, json, ErrorBody, IdBuf, IdView, PlanBody, PlanFrameView};

pub use pager_wire::Request;

use pager_profiles::wal::SHIP_WINDOW_BYTES;
use pager_profiles::Estimator;

use crate::error::ServiceError;
use crate::service::{Observed, PagerService, PlanResponse};

/// Parses one v1 wire line into a typed request, paired with the `id`
/// the line carries (`Value::Null` when absent), so the caller can
/// echo it on the response whatever the outcome. Every response
/// echoes its request's id — the cluster router's request/reply
/// correlation relies on it to reject stale duplicated replies.
pub(crate) fn parse_request_with_id(line: &str) -> (Value, Result<Request, ServiceError>) {
    let (id, request) = json::parse_request_with_id(line);
    (id, request.map_err(ServiceError::from))
}

/// What handling one line produced.
#[derive(Debug)]
pub struct LineOutcome {
    /// The response line (no trailing newline).
    pub response: String,
    /// Whether the server should stop accepting connections.
    pub shutdown: bool,
}

/// Handles one wire line end to end against a service.
#[must_use]
pub fn handle_line(service: &PagerService, line: &str) -> LineOutcome {
    let (id, request) = parse_request_with_id(line);
    handle_request(service, request, &id)
}

/// Handles one parsed request (or its parse failure) against a
/// service, producing the v1 response line. `id` is the request
/// line's `id` (from [`parse_request_with_id`]); it is echoed on the
/// response whatever the outcome.
#[must_use]
pub(crate) fn handle_request(
    service: &PagerService,
    request: Result<Request, ServiceError>,
    id: &Value,
) -> LineOutcome {
    match request {
        Err(error) => LineOutcome {
            response: error_line(service, id, &error),
            shutdown: false,
        },
        Ok(request) => LineOutcome {
            shutdown: matches!(request, Request::Shutdown),
            response: respond(service, request, id),
        },
    }
}

/// [`handle_request`] for a control op — anything but `observe` and
/// the plans — answered without touching storage or a solver, so the
/// engine runs it inline on a shard thread.
pub(crate) fn handle_control(service: &PagerService, request: Request, id: &Value) -> LineOutcome {
    LineOutcome {
        shutdown: matches!(request, Request::Shutdown),
        response: respond_control(service, request, id),
    }
}

/// Runs one typed request against the service and produces its
/// answer. Every op's response fields are assembled here and in
/// [`respond_control`] — in the frozen v1 order — regardless of which
/// codec carries them. `id` is echoed on every answer, control
/// responses included.
fn respond(service: &PagerService, request: Request, id: &Value) -> String {
    let control = |fields| json::ok_line_with_id(service.node_id(), id, fields);
    match request {
        Request::Observe { cells, sightings } => match service.observe(cells, &sightings) {
            Err(error) => error_line(service, id, &error),
            Ok(Observed { versions, .. }) => {
                let latest = latest_versions(&versions)
                    .into_iter()
                    .map(|(device, version)| (device.to_string(), Value::from(version)))
                    .collect();
                control(vec![
                    ("ingested", Value::from(versions.len())),
                    ("versions", Value::Object(latest)),
                ])
            }
        },
        Request::PlanDevices {
            id,
            devices,
            estimator,
            now,
            spec,
        } => {
            let refs: Vec<&str> = devices.iter().map(String::as_str).collect();
            let result = service.plan_devices(&refs, estimator, now, spec);
            device_plan_response_line(service, &id, estimator, &result)
        }
        Request::Plan { id, instance, spec } => {
            let result = service.plan(&instance, spec);
            plan_response_line(service, &id, &result)
        }
        control => respond_control(service, control, id),
    }
}

/// The control ops' answers: in-memory reads and the epoch/shutdown
/// flags, nothing that waits on disk or a solver.
fn respond_control(service: &PagerService, request: Request, id: &Value) -> String {
    let control = |fields| json::ok_line_with_id(service.node_id(), id, fields);
    match request {
        Request::Ping => control(vec![("pong", Value::Bool(true))]),
        Request::Metrics => control(vec![("metrics", service.metrics_json())]),
        Request::Shutdown => control(vec![("stopping", Value::Bool(true))]),
        Request::ProfileStats => {
            let stats = service.profiles().stats();
            control(vec![(
                "profiles",
                Value::object(vec![
                    ("devices", Value::from(stats.devices)),
                    ("sightings", Value::from(stats.sightings)),
                    ("evictions", Value::from(stats.evictions)),
                    ("version", Value::from(stats.version)),
                    (
                        "latest_time",
                        match service.profiles().latest_time() {
                            Some(t) => Value::Float(t),
                            None => Value::Null,
                        },
                    ),
                    ("degraded", Value::Bool(service.degraded())),
                ]),
            )])
        }
        Request::NodeInfo => {
            let stats = service.profiles().stats();
            control(vec![
                ("epoch", Value::from(service.epoch())),
                ("devices", Value::from(stats.devices)),
                ("profile_version", Value::from(stats.version)),
                ("degraded", Value::Bool(service.degraded())),
                ("durable", Value::Bool(service.wal_generation().is_some())),
                (
                    "wal_generation",
                    match service.wal_generation() {
                        Some(generation) => Value::from(generation),
                        None => Value::Null,
                    },
                ),
            ])
        }
        Request::Stats => control(vec![
            ("epoch", Value::from(service.epoch())),
            ("stats", service.metrics_json()),
        ]),
        Request::Epoch { epoch } => {
            control(vec![("epoch", Value::from(service.adopt_epoch(epoch)))])
        }
        // `respond` answers these before delegating here.
        Request::Observe { .. } | Request::PlanDevices { .. } | Request::Plan { .. } => error_line(
            service,
            id,
            &ServiceError::Internal("a blocking request reached the control path".into()),
        ),
    }
}

/// The last version of each device in an observe's `versions` (a
/// device may appear several times in one batch), in the order devices
/// first appear.
fn latest_versions(versions: &[(String, u64)]) -> Vec<(&str, u64)> {
    let mut latest: Vec<(&str, u64)> = Vec::new();
    for (device, version) in versions {
        match latest.iter_mut().find(|(d, _)| d == device) {
            Some(entry) => entry.1 = *version,
            None => latest.push((device, *version)),
        }
    }
    latest
}

/// The borrowed body of a successful plan answer.
pub(crate) fn plan_body<'a>(id: &'a Value, response: &'a PlanResponse) -> PlanBody<'a> {
    PlanBody {
        id,
        strategy: &response.plan.strategy,
        expected_paging: response.plan.expected_paging,
        tier: response.plan.tier.name(),
        downgraded: response.plan.downgraded,
        cached: response.cached,
        coalesced: response.coalesced,
        planning_micros: response.plan.planning_micros,
    }
}

/// The borrowed body of an error answer. `message` is passed in
/// because [`ServiceError::message`] formats an owned string the body
/// can only borrow.
fn error_body<'a>(id: &'a Value, error: &ServiceError, message: &'a str) -> ErrorBody<'a> {
    ErrorBody {
        id,
        code: error.wire_code(),
        message,
        retry_after_ms: match error {
            ServiceError::Overloaded { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        },
    }
}

/// Formats a `plan` answer (success or error) exactly as
/// [`handle_request`] would. The engine's handler calls this for
/// answers ready during dispatch and from solver-completion callbacks.
pub(crate) fn plan_response_line(
    service: &PagerService,
    id: &Value,
    result: &Result<PlanResponse, ServiceError>,
) -> String {
    match result {
        Err(error) => error_line(service, id, error),
        Ok(response) => json::plan_line(service.node_id(), &plan_body(id, response)),
    }
}

/// Formats a `plan_devices` answer (success or error) exactly as
/// [`handle_request`] would.
pub(crate) fn device_plan_response_line(
    service: &PagerService,
    id: &Value,
    estimator: Estimator,
    result: &Result<crate::service::DevicePlanResponse, ServiceError>,
) -> String {
    match result {
        Err(error) => error_line(service, id, error),
        Ok(served) => json::device_plan_line(
            service.node_id(),
            &plan_body(id, &served.response),
            &pager_wire::DeviceExt {
                estimator: estimator.name(),
                now: served.now,
                versions: &served.versions,
                stale_profiles: served.stale_profiles as u64,
            },
        ),
    }
}

/// Formats an error answer exactly as [`handle_request`] would.
pub(crate) fn error_line(service: &PagerService, id: &Value, error: &ServiceError) -> String {
    let message = error.message();
    json::error_line(service.node_id(), &error_body(id, error, &message))
}

/// What a native v2 frame needs from the caller after the fast paths
/// ran.
///
/// [`dispatch_frame`] answers everything it can without blocking —
/// cache-hit plans, pings, malformed payloads, unknown ops — directly
/// into the output buffer. A cache miss is handed back: the engine
/// routes it like a v1 plan (a cheap one is solved on the shard thread,
/// a costlier one leaves it), [`handle_frame`] solves it in place. So
/// is a decoded replication op, which may block on disk: the engine
/// runs it on its I/O pool, [`handle_frame`] in place.
pub(crate) enum FrameDispatch {
    /// `out` now holds the complete response frame; nothing else to do.
    Answered,
    /// A plan frame that missed the cache: solve `instance`/`spec` and
    /// answer with [`plan_response_frame`] / [`error_frame`], echoing
    /// `id`.
    Solve {
        id: IdBuf,
        instance: pager_core::Instance,
        spec: pager_wire::PlanSpec,
    },
    /// A replication op: run it with [`replicate`], echoing `id`.
    Replicate { id: IdBuf, op: Replication },
}

/// A decoded replication op, owned so it can leave the shard thread.
pub(crate) enum Replication {
    /// `OBSERVE`: ingest the batch and answer with its frames.
    Observe(ObserveBatch),
    /// `WAL_APPLY`: apply these raw WAL frames.
    WalApply(Vec<u8>),
    /// `WAL_SHIP`: export a segment of this node's WAL.
    WalShip(WalShip),
}

/// Decodes the payload of a replication op (`OBSERVE`, `WAL_APPLY` or
/// `WAL_SHIP`), with the decoders' bounds: a frame that fails them is
/// refused before anything is applied or logged.
fn decode_replication(
    frame_op: u8,
    payload: &[u8],
) -> Result<(IdView<'_>, Replication), &'static str> {
    match frame_op {
        op::OBSERVE => {
            binary::decode_observe(payload).map(|(id, batch)| (id, Replication::Observe(batch)))
        }
        op::WAL_APPLY => binary::decode_wal_apply(payload)
            .map(|(id, bytes)| (id, Replication::WalApply(bytes.to_vec()))),
        _ => binary::decode_wal_ship(payload).map(|(id, ship)| (id, Replication::WalShip(ship))),
    }
}

/// Runs one replication op against the service and appends its native
/// answer (or an `ERROR`) to `out`, echoing `id`. It may block on disk.
pub(crate) fn replicate(
    service: &PagerService,
    id: IdView<'_>,
    op: Replication,
    out: &mut Vec<u8>,
) {
    let result = match op {
        Replication::Observe(ObserveBatch { cells, sightings }) => {
            service
                .observe(cells, &sightings)
                .map(|Observed { versions, appended }| {
                    // Ship-before-ack's first hop: the frames the batch
                    // appended ride the ack to the router, which forwards
                    // them to the replicas. A batch over one ship window
                    // leaves them off, which bounds the ack; the router then
                    // catches the replicas up through `WAL_SHIP`, window by
                    // window.
                    let frames = appended.filter(|append| append.bytes.len() <= SHIP_WINDOW_BYTES);
                    binary::encode_observe_ack(
                        out,
                        id,
                        service.node_id(),
                        versions.len() as u64,
                        &latest_versions(&versions),
                        frames.as_ref(),
                    );
                })
        }
        Replication::WalApply(bytes) => service.apply_wal(&bytes).map(|outcome| {
            let applied = WalApplied {
                applied: outcome.records,
                consumed: outcome.consumed,
                profile_version: service.profiles().latest_version(),
            };
            binary::encode_wal_applied(out, id, &applied);
        }),
        Replication::WalShip(ship) => {
            // At most one window, so the answer fits one frame.
            let max_bytes = usize::try_from(ship.max_bytes)
                .map_or(SHIP_WINDOW_BYTES, |n| n.min(SHIP_WINDOW_BYTES));
            service
                .export_wal(ship.generation, ship.offset, max_bytes)
                .map(|segment| binary::encode_wal_segment(out, id, &segment))
        }
    };
    if let Err(error) = result {
        error_frame(service, id, &error, out);
    }
}

/// Runs the non-blocking part of native v2 frame handling (every op
/// but `JSON_REQ`, which carries a v1 line).
///
/// `plan` frames probe the strategy cache straight from the borrowed
/// payload ([`PagerService::plan_cache_probe`]); a steady-state hit is
/// encoded into `out` without touching the heap. A miss is returned
/// to the caller instead of solved.
pub(crate) fn dispatch_frame(
    service: &PagerService,
    frame_op: u8,
    payload: &[u8],
    out: &mut Vec<u8>,
) -> FrameDispatch {
    match frame_op {
        op::PLAN => match PlanFrameView::parse(payload) {
            Err(message) => {
                binary::encode_error_response(
                    out,
                    IdView::Null,
                    service.node_id(),
                    pager_wire::ErrorCode::BadRequest,
                    message,
                    None,
                );
                FrameDispatch::Answered
            }
            Ok(view) => {
                if let Some(response) = service.plan_cache_probe(&view) {
                    plan_response_frame(service, view.id(), &response, out);
                    return FrameDispatch::Answered;
                }
                // Every answer echoes the frame's id: the router's hop
                // correlates replies by it.
                match view.to_request().map_err(ServiceError::from) {
                    Ok(Request::Plan { instance, spec, .. }) => FrameDispatch::Solve {
                        id: IdBuf::from(view.id()),
                        instance,
                        spec,
                    },
                    // A plan frame decodes to a plan request by
                    // construction.
                    Ok(_) => {
                        let error = ServiceError::Internal(
                            "plan frame decoded to a non-plan request".into(),
                        );
                        error_frame(service, view.id(), &error, out);
                        FrameDispatch::Answered
                    }
                    Err(error) => {
                        error_frame(service, view.id(), &error, out);
                        FrameDispatch::Answered
                    }
                }
            }
        },
        op::PING => {
            binary::encode_pong(out, service.node_id());
            FrameDispatch::Answered
        }
        op::OBSERVE | op::WAL_APPLY | op::WAL_SHIP => match decode_replication(frame_op, payload) {
            Ok((id, op)) => FrameDispatch::Replicate {
                id: IdBuf::from(id),
                op,
            },
            Err(message) => {
                binary::encode_error_response(
                    out,
                    binary::id_of(payload).unwrap_or(IdView::Null),
                    service.node_id(),
                    pager_wire::ErrorCode::BadRequest,
                    message,
                    None,
                );
                FrameDispatch::Answered
            }
        },
        other => {
            let message = format!("unknown request op 0x{other:02X}");
            binary::encode_error_response(
                out,
                IdView::Null,
                service.node_id(),
                pager_wire::ErrorCode::Unsupported,
                &message,
                None,
            );
            FrameDispatch::Answered
        }
    }
}

/// Handles one v2 frame end to end against a service, appending the
/// response frame to `out`. Returns whether the server should stop
/// accepting connections.
///
/// `plan` frames first probe the strategy cache straight from the
/// borrowed payload; a hit is encoded without touching the heap. A
/// miss falls back to the typed decode + [`PagerService::plan`]. The
/// replication ops run in place. All cold ops arrive JSON-wrapped (op
/// `0x7E`) and are answered JSON-wrapped (op `0x7F`).
#[must_use]
pub fn handle_frame(
    service: &PagerService,
    frame_op: u8,
    payload: &[u8],
    out: &mut Vec<u8>,
) -> bool {
    handle_message(service, Message::of_frame(frame_op, payload), out)
}

/// Answers one message of either protocol, as
/// [`pager_wire::frame::next_message`] yields it, appending the answer
/// to `out`. Returns whether the stream ends here: a `shutdown`
/// request, or a rejection that closes.
pub(crate) fn handle_message(
    service: &PagerService,
    message: Message<'_>,
    out: &mut Vec<u8>,
) -> bool {
    match message {
        Message::Blank => false,
        Message::Line { text, framing } => {
            let outcome = handle_line(service, text);
            framing.append_line(&outcome.response, out);
            outcome.shutdown
        }
        Message::Frame { op, payload } => {
            match dispatch_frame(service, op, payload, out) {
                FrameDispatch::Answered => {}
                FrameDispatch::Solve { id, instance, spec } => {
                    match service.plan(&instance, spec) {
                        Ok(response) => plan_response_frame(service, id.view(), &response, out),
                        Err(error) => error_frame(service, id.view(), &error, out),
                    }
                }
                FrameDispatch::Replicate { id, op } => replicate(service, id.view(), op, out),
            }
            false
        }
        Message::Reject {
            framing,
            reason,
            close,
        } => {
            framing.append_bad_request(out, service.node_id(), reason);
            close
        }
    }
}

/// Encodes a `plan` answer as a native v2 frame echoing `id`: the id
/// borrowed from a cache-hit frame's payload (nothing is allocated
/// beyond `out` growth, amortised by the caller reusing its buffer), or
/// a solved request's owned id.
pub(crate) fn plan_response_frame(
    service: &PagerService,
    id: IdView<'_>,
    response: &PlanResponse,
    out: &mut Vec<u8>,
) {
    binary::encode_plan_response(
        out,
        id,
        service.node_id(),
        response.plan.tier.name(),
        response.plan.expected_paging,
        response.plan.planning_micros,
        response.plan.downgraded,
        response.cached,
        response.coalesced,
        response.plan.strategy.groups(),
    );
}

/// Encodes an error answer as a native v2 frame echoing `id`.
pub(crate) fn error_frame(
    service: &PagerService,
    id: IdView<'_>,
    error: &ServiceError,
    out: &mut Vec<u8>,
) {
    let message = error.message();
    // The body's own id is unused: the frame echoes `id`, as borrowed.
    let ErrorBody {
        code,
        retry_after_ms,
        ..
    } = error_body(&Value::Null, error, &message);
    binary::encode_error_response(out, id, service.node_id(), code, &message, retry_after_ms);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use pager_profiles::wal::MAX_DEVICE_BYTES;
    use pager_wire::frame::{self, Split};

    fn service() -> PagerService {
        PagerService::new(ServiceConfig {
            workers: 2,
            capacity: 64,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn plan_request_round_trip() {
        let svc = service();
        let line = r#"{"id": 7, "instance": [[0.5, 0.3, 0.2]], "delay": 2}"#;
        let out = handle_line(&svc, line);
        assert!(!out.shutdown);
        let v = jsonio::parse(&out.response).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_i64), Some(7));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("cached").and_then(Value::as_bool), Some(false));
        assert!(v.get("ep").and_then(Value::as_f64).unwrap() > 0.0);
        // Strategy covers all three cells.
        let strategy = v.get("strategy").and_then(Value::as_array).unwrap();
        let total: usize = strategy.iter().map(|g| g.as_array().unwrap().len()).sum();
        assert_eq!(total, 3);
        // Identical follow-up is served from cache.
        let again = handle_line(&svc, line);
        let v2 = jsonio::parse(&again.response).unwrap();
        assert_eq!(v2.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(v2.get("strategy"), v.get("strategy"));
    }

    #[test]
    fn textio_instances_are_accepted() {
        let svc = service();
        let line = r##"{"id": "t", "instance": "# demo\n0.5 0.5\n1/4 3/4", "delay": 2}"##;
        let v = jsonio::parse(&handle_line(&svc, line).response).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
        assert_eq!(v.get("id").and_then(Value::as_str), Some("t"));
    }

    #[test]
    fn variants_parse_and_validate() {
        let svc = service();
        let bw = r#"{"instance": [[0.25,0.25,0.25,0.25]], "delay": 2, "variant": "bandwidth", "bandwidth": 2}"#;
        let v = jsonio::parse(&handle_line(&svc, bw).response).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
        assert_eq!(v.get("tier").and_then(Value::as_str), Some("bandwidth"));
        let missing = r#"{"instance": [[1.0]], "delay": 1, "variant": "bandwidth"}"#;
        let v = jsonio::parse(&handle_line(&svc, missing).response).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        let unknown = r#"{"instance": [[1.0]], "delay": 1, "variant": "psychic"}"#;
        let v = jsonio::parse(&handle_line(&svc, unknown).response).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn malformed_lines_get_error_responses() {
        let svc = service();
        for bad in [
            "not json",
            "{}",
            r#"{"instance": [[0.5, 0.6]], "delay": 2}"#,
            r#"{"instance": [[0.5, 0.5]], "delay": 0}"#,
            r#"{"instance": [[0.5, 0.5]]}"#,
            r#"{"cmd": "dance"}"#,
            r#"{"instance": [[0.5, 0.5]], "delay": 1, "deadline_ms": "soon"}"#,
        ] {
            let out = handle_line(&svc, bad);
            let v = jsonio::parse(&out.response).unwrap();
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{bad}");
            assert!(v.get("error").is_some(), "{bad}");
            assert!(v.get("code").is_some(), "{bad}");
        }
    }

    #[test]
    fn responses_carry_version_and_stable_codes() {
        let svc = service();
        // Every response line — success or error — is versioned.
        for line in [
            r#"{"cmd": "ping"}"#,
            r#"{"cmd": "metrics"}"#,
            r#"{"instance": [[0.5, 0.5]], "delay": 1}"#,
            "not json",
        ] {
            let v = jsonio::parse(&handle_line(&svc, line).response).unwrap();
            assert_eq!(v.get("v").and_then(Value::as_u64), Some(1), "{line}");
        }
        // Codes distinguish the client's fault from this server's
        // limits.
        let bad = handle_line(&svc, r#"{"instance": [[0.9, 0.2]], "delay": 1}"#);
        let v = jsonio::parse(&bad.response).unwrap();
        assert_eq!(v.get("code").and_then(Value::as_str), Some("bad_request"));
        let unsupported = handle_line(
            &svc,
            r#"{"instance": [[0.5, 0.5]], "delay": 1, "variant": "psychic"}"#,
        );
        let v = jsonio::parse(&unsupported.response).unwrap();
        assert_eq!(v.get("code").and_then(Value::as_str), Some("unsupported"));
        let unknown_cmd = handle_line(&svc, r#"{"cmd": "dance"}"#);
        let v = jsonio::parse(&unknown_cmd.response).unwrap();
        assert_eq!(v.get("code").and_then(Value::as_str), Some("unsupported"));
    }

    #[test]
    fn oversize_device_names_are_rejected_at_parse() {
        let svc = service();
        let giant = "d".repeat(MAX_DEVICE_BYTES + 1);
        let line = format!(
            r#"{{"cmd": "observe", "cells": 4,
                "sightings": [{{"device": "ok", "cell": 0, "time": 1.0}},
                              {{"device": "{giant}", "cell": 1, "time": 2.0}}]}}"#
        );
        let v = jsonio::parse(&handle_line(&svc, &line).response).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("bad_request"));
        // Rejected at parse: nothing from the batch was ingested.
        assert_eq!(svc.profiles().stats().devices, 0);
        // At the limit is accepted.
        let at_limit = "d".repeat(MAX_DEVICE_BYTES);
        let line = format!(
            r#"{{"cmd": "observe", "cells": 4,
                "sightings": [{{"device": "{at_limit}", "cell": 0, "time": 1.0}}]}}"#
        );
        let v = jsonio::parse(&handle_line(&svc, &line).response).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
    }

    #[test]
    fn unknown_fields_are_tolerated() {
        // A newer client may send fields this server has never heard
        // of; they must be ignored, not rejected.
        let svc = service();
        let line = r#"{"id": 3, "instance": [[0.5, 0.5]], "delay": 1,
                       "future_knob": {"x": 1}, "priority": "high"}"#;
        let v = jsonio::parse(&handle_line(&svc, line).response).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
        assert_eq!(v.get("id").and_then(Value::as_i64), Some(3));
        assert_eq!(v.get("downgraded").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn deadline_ms_is_parsed_into_the_spec() {
        let line = r#"{"instance": [[0.5, 0.5]], "delay": 1, "deadline_ms": 250}"#;
        match json::parse_request(line).unwrap() {
            Request::Plan { spec, .. } => assert_eq!(spec.deadline_ms(), Some(250)),
            other => panic!("expected a plan request, got {other:?}"),
        }
        // Omitted: defer to the server default.
        let line = r#"{"instance": [[0.5, 0.5]], "delay": 1}"#;
        match json::parse_request(line).unwrap() {
            Request::Plan { spec, .. } => assert_eq!(spec.deadline_ms(), None),
            other => panic!("expected a plan request, got {other:?}"),
        }
    }

    #[test]
    fn observe_and_plan_devices_round_trip() {
        let svc = service();
        // Ingest a short history for two devices.
        for t in 0..25 {
            let line = format!(
                r#"{{"cmd": "observe", "cells": 3, "sightings": [
                    {{"device": "a", "cell": {}, "time": {t}.0}},
                    {{"device": "b", "cell": 1, "time": {t}.0}}]}}"#,
                t % 3
            );
            let v = jsonio::parse(&handle_line(&svc, &line).response).unwrap();
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
            assert_eq!(v.get("ingested").and_then(Value::as_u64), Some(2));
        }
        // Stats reflect the ingest.
        let stats = handle_line(&svc, r#"{"cmd": "profile_stats"}"#);
        let v = jsonio::parse(&stats.response).unwrap();
        let profiles = v.get("profiles").unwrap();
        assert_eq!(profiles.get("devices").and_then(Value::as_u64), Some(2));
        assert_eq!(profiles.get("sightings").and_then(Value::as_u64), Some(50));
        assert_eq!(
            profiles.get("latest_time").and_then(Value::as_f64),
            Some(24.0)
        );
        // Plan for the named devices.
        let line = r#"{"cmd": "plan_devices", "id": 5, "devices": ["a", "b"], "delay": 2, "estimator": "empirical"}"#;
        let v = jsonio::parse(&handle_line(&svc, line).response).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
        assert_eq!(v.get("id").and_then(Value::as_i64), Some(5));
        assert_eq!(
            v.get("estimator").and_then(Value::as_str),
            Some("empirical")
        );
        assert_eq!(v.get("now").and_then(Value::as_f64), Some(24.0));
        let versions = v.get("profile_versions").and_then(Value::as_array).unwrap();
        assert_eq!(versions.len(), 2);
        assert_eq!(v.get("stale_profiles").and_then(Value::as_u64), Some(0));
        // Identical request hits the cache; an observe in between
        // bumps a version and forces a fresh plan.
        let v2 = jsonio::parse(&handle_line(&svc, line).response).unwrap();
        assert_eq!(v2.get("cached").and_then(Value::as_bool), Some(true));
        let bump = r#"{"cmd": "observe", "cells": 3, "sightings": [{"device": "a", "cell": 2, "time": 30.0}]}"#;
        assert!(handle_line(&svc, bump).response.contains("true"));
        let v3 = jsonio::parse(&handle_line(&svc, line).response).unwrap();
        assert_eq!(v3.get("cached").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn profile_ops_validate() {
        let svc = service();
        for bad in [
            r#"{"cmd": "observe"}"#,
            r#"{"cmd": "observe", "cells": 0, "sightings": []}"#,
            r#"{"cmd": "observe", "cells": 3, "sightings": [{"device": "a"}]}"#,
            r#"{"cmd": "observe", "cells": 3, "sightings": [{"device": "a", "cell": 9, "time": 0.0}]}"#,
            r#"{"cmd": "plan_devices", "devices": ["nobody"], "delay": 2}"#,
            r#"{"cmd": "plan_devices", "devices": [], "delay": 2}"#,
            r#"{"cmd": "plan_devices", "devices": ["a"], "delay": 2, "estimator": "psychic"}"#,
        ] {
            let v = jsonio::parse(&handle_line(&svc, bad).response).unwrap();
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{bad}");
        }
    }

    #[test]
    fn node_identity_epoch_and_stats() {
        let svc = PagerService::new(ServiceConfig {
            workers: 2,
            capacity: 64,
            node_id: Some("shard-a".into()),
            epoch: 3,
            ..ServiceConfig::default()
        });
        let info = jsonio::parse(&handle_line(&svc, r#"{"cmd": "node_info"}"#).response).unwrap();
        assert_eq!(info.get("node").and_then(Value::as_str), Some("shard-a"));
        assert_eq!(info.get("epoch").and_then(Value::as_u64), Some(3));
        assert_eq!(info.get("durable").and_then(Value::as_bool), Some(false));
        assert_eq!(info.get("degraded").and_then(Value::as_bool), Some(false));
        // Epochs are monotone: adopting an older epoch is a no-op.
        let v =
            jsonio::parse(&handle_line(&svc, r#"{"cmd": "epoch", "epoch": 7}"#).response).unwrap();
        assert_eq!(v.get("epoch").and_then(Value::as_u64), Some(7));
        let v =
            jsonio::parse(&handle_line(&svc, r#"{"cmd": "epoch", "epoch": 5}"#).response).unwrap();
        assert_eq!(v.get("epoch").and_then(Value::as_u64), Some(7));
        // `stats` wraps the metrics registry with node identity.
        let _ = handle_line(&svc, r#"{"instance": [[0.5, 0.5]], "delay": 1}"#);
        let v = jsonio::parse(&handle_line(&svc, r#"{"cmd": "stats"}"#).response).unwrap();
        assert_eq!(v.get("node").and_then(Value::as_str), Some("shard-a"));
        assert_eq!(v.get("epoch").and_then(Value::as_u64), Some(7));
        assert_eq!(
            v.get("stats")
                .and_then(|s| s.get("requests"))
                .and_then(Value::as_u64),
            Some(1)
        );
        // Errors carry the node stamp too.
        let v = jsonio::parse(&handle_line(&svc, "not json").response).unwrap();
        assert_eq!(v.get("node").and_then(Value::as_str), Some("shard-a"));
        // A standalone server omits the field and has no WAL to ship.
        let plain = service();
        let v = jsonio::parse(&handle_line(&plain, r#"{"cmd": "node_info"}"#).response).unwrap();
        assert!(v.get("node").is_none());
        let v = native_error(&plain, |out| {
            binary::encode_wal_ship(out, IdView::Null, &ship_from(0, 0))
        });
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("unsupported"));
    }

    /// Runs the one native frame `encode` writes against `service` and
    /// returns the answer's op and payload.
    fn native(service: &PagerService, encode: impl FnOnce(&mut Vec<u8>)) -> (u8, Vec<u8>) {
        let mut wire = Vec::new();
        encode(&mut wire);
        let (op_in, payload) = split_one(&wire);
        let mut out = Vec::new();
        assert!(!handle_frame(service, op_in, &payload, &mut out));
        split_one(&out)
    }

    /// [`native`] for a request answered with an `ERROR`, decoded to its
    /// JSON shape.
    fn native_error(service: &PagerService, encode: impl FnOnce(&mut Vec<u8>)) -> Value {
        let (op_out, body) = native(service, encode);
        assert_eq!(op_out, op::ERROR, "expected an error frame");
        binary::response_to_value(op_out, &body).unwrap()
    }

    fn ship_from(generation: u64, offset: u64) -> WalShip {
        WalShip {
            generation,
            offset,
            max_bytes: SHIP_WINDOW_BYTES as u64,
        }
    }

    fn sighting(device: &str, cell: usize, time: f64) -> pager_profiles::Sighting {
        pager_profiles::Sighting {
            device: device.to_string(),
            cell,
            time,
        }
    }

    /// An `OBSERVE` of `sightings` over four cells, and its decoded ack.
    fn observe_frame(
        service: &PagerService,
        sightings: &[pager_profiles::Sighting],
    ) -> binary::ObserveAck {
        let (op_out, body) = native(service, |out| {
            binary::encode_observe(out, IdView::U64(5), 4, sightings);
        });
        assert_eq!(op_out, op::OBSERVE_RESP);
        let (id, ack) = binary::decode_observe_ack(&body).unwrap();
        assert_eq!(id, IdView::U64(5));
        ack
    }

    /// A `WAL_APPLY` of `bytes`, and its decoded answer.
    fn apply_frame(service: &PagerService, bytes: &[u8]) -> WalApplied {
        let (op_out, body) = native(service, |out| {
            binary::encode_wal_apply(out, IdView::U64(6), bytes)
        });
        assert_eq!(op_out, op::WAL_APPLY_RESP);
        binary::decode_wal_applied(&body).unwrap().1
    }

    /// A node on an in-memory disk, fsyncing every ack.
    fn durable_node(name: &str) -> PagerService {
        use crate::service::DurabilityOptions;
        use pager_profiles::io::MemIo;
        use pager_profiles::FsyncPolicy;
        use std::sync::Arc;
        PagerService::try_new(ServiceConfig {
            workers: 2,
            capacity: 64,
            node_id: Some(name.to_string()),
            durability: Some(DurabilityOptions {
                data_dir: "/node".into(),
                fsync: FsyncPolicy::Always,
                checkpoint_every: 0,
                retain_wal: 4,
                io: Some(Arc::new(MemIo::new())),
            }),
            ..ServiceConfig::default()
        })
        .unwrap()
    }

    fn dumped(service: &PagerService, key: &str) -> u64 {
        service
            .metrics_json()
            .get(key)
            .and_then(Value::as_u64)
            .unwrap()
    }

    #[test]
    fn observe_ack_carries_its_frames_only_when_shipping() {
        let owner = durable_node("owner");
        let replica = durable_node("replica");
        let plain = handle_line(
            &owner,
            r#"{"cmd": "observe", "cells": 4, "sightings": [{"device": "a", "cell": 1, "time": 1.0}]}"#,
        )
        .response;
        assert_eq!(
            plain, r#"{"v":1,"ok":true,"node":"owner","ingested":1,"versions":{"a":1}}"#,
            "a v1 observe acks as it always has"
        );
        let shipped = observe_frame(&owner, &[sighting("b", 2, 1.5), sighting("a", 3, 2.0)]);
        assert_eq!(shipped.node.as_deref(), Some("owner"));
        assert_eq!(shipped.ingested, 2);
        assert_eq!(
            shipped.versions,
            vec![("b".to_string(), 2), ("a".to_string(), 3)]
        );
        let frames = shipped.frames.expect("a durable owner ships its frames");
        assert_eq!(
            owner
                .observe(4, &[])
                .unwrap()
                .appended
                .map(|append| append.incarnation),
            Some(frames.incarnation)
        );
        // The frames start where the first observe's ended and are
        // exactly what `WAL_SHIP` would read back from there.
        assert_eq!(frames.generation, 0);
        let offset = frames.offset;
        assert!(offset > 0, "{frames:?}");
        let export = owner.export_wal(0, offset, 1 << 20).unwrap();
        assert_eq!(frames.bytes, export.bytes);
        // Forwarded after the first batch's frames, they reproduce the
        // owner's versions on the replica.
        let head = owner.export_wal(0, 0, offset as usize).unwrap();
        replica.apply_wal(&head.bytes).unwrap();
        let applied = apply_frame(&replica, &frames.bytes);
        assert_eq!(applied.applied, 2);
        assert_eq!(applied.consumed, frames.bytes.len() as u64);
        assert_eq!(applied.profile_version, 3);
        for device in ["a", "b"] {
            assert_eq!(
                replica.profiles().version(device),
                owner.profiles().version(device)
            );
        }
    }

    #[test]
    fn observe_frames_over_the_bounds_are_refused_before_anything_is_logged() {
        let owner = durable_node("owner");
        let giant = "d".repeat(MAX_DEVICE_BYTES + 1);
        for (what, batch) in [
            (
                "oversize device",
                vec![sighting("ok", 0, 1.0), sighting(&giant, 1, 2.0)],
            ),
            (
                "non-finite time",
                vec![sighting("ok", 0, 1.0), sighting("b", 1, f64::NAN)],
            ),
            ("infinite time", vec![sighting("ok", 0, f64::INFINITY)]),
        ] {
            let v = native_error(&owner, |out| {
                binary::encode_observe(out, IdView::U64(41), 4, &batch);
            });
            assert_eq!(
                v.get("code").and_then(Value::as_str),
                Some("bad_request"),
                "{what}"
            );
            assert_eq!(v.get("id").and_then(Value::as_u64), Some(41), "{what}: {v}");
            assert_eq!(
                owner.profiles().stats().devices,
                0,
                "{what}: nothing applied"
            );
            assert_eq!(dumped(&owner, "wal_appends"), 0, "{what}: nothing logged");
        }
        // At the limit is accepted.
        let at_limit = "d".repeat(MAX_DEVICE_BYTES);
        let ack = observe_frame(&owner, &[sighting(&at_limit, 0, 1.0)]);
        assert_eq!(ack.ingested, 1);
        assert_eq!(dumped(&owner, "wal_appends"), 1);
    }

    #[test]
    fn a_shipped_chunk_costs_the_replica_one_fsync() {
        let owner = durable_node("owner");
        let replica = durable_node("replica");
        let sightings: Vec<pager_profiles::Sighting> = (0..128u32)
            .map(|i| pager_profiles::Sighting {
                device: format!("d{}", i % 16),
                cell: (i % 4) as usize,
                time: f64::from(i),
            })
            .collect();
        let Observed { versions, appended } = owner.observe(4, &sightings).unwrap();
        let append = appended.expect("a durable owner returns its frames");
        assert_eq!(dumped(&owner, "wal_fsyncs"), 1);
        let before = dumped(&replica, "wal_fsyncs");
        let outcome = replica.apply_wal(&append.bytes).unwrap();
        assert_eq!(outcome.records, 128);
        assert_eq!(outcome.consumed, append.bytes.len() as u64);
        assert_eq!(dumped(&replica, "wal_fsyncs"), before + 1);
        for (device, version) in &versions[versions.len() - 16..] {
            assert_eq!(replica.profiles().version(device), Some(*version));
        }
        assert_eq!(
            replica.profiles().latest_version(),
            owner.profiles().latest_version()
        );
    }

    #[test]
    fn an_observe_over_one_ship_window_acks_without_frames() {
        let owner = durable_node("owner");
        let replica = durable_node("replica");
        // 600 frames of ~4 KiB each: more than one ship window.
        let device = |i: u32| format!("{}{}", "d".repeat(4000), i % 4);
        let sightings: Vec<pager_profiles::Sighting> = (0..600u32)
            .map(|i| sighting(&device(i), (i % 4) as usize, f64::from(i)))
            .collect();
        let mut request = Vec::new();
        binary::encode_observe(&mut request, IdView::U64(5), 4, &sightings);
        let (op_out, response) = native(&owner, |out| out.extend_from_slice(&request));
        assert_eq!(op_out, op::OBSERVE_RESP);
        let (_, ack) = binary::decode_observe_ack(&response).unwrap();
        assert_eq!(ack.ingested, 600);
        assert!(ack.frames.is_none(), "frames on an oversize ack");
        assert!(response.len() < request.len());
        // The replica converges through window-sized `WAL_SHIP` reads.
        let mut offset = 0;
        loop {
            let (op_out, body) = native(&owner, |out| {
                binary::encode_wal_ship(out, IdView::U64(7), &ship_from(0, offset));
            });
            assert_eq!(op_out, op::WAL_SHIP_RESP);
            let (_, export) = binary::decode_wal_segment(&body).unwrap();
            if export.bytes.is_empty() {
                break;
            }
            assert!(export.bytes.len() <= SHIP_WINDOW_BYTES);
            offset += apply_frame(&replica, &export.bytes).consumed;
        }
        assert!(offset > SHIP_WINDOW_BYTES as u64);
        for i in 0..4 {
            assert_eq!(
                replica.profiles().version(&device(i)),
                owner.profiles().version(&device(i))
            );
        }
    }

    #[test]
    fn wal_ship_and_apply_replicate_versions() {
        let owner = durable_node("owner");
        let replica = durable_node("replica");
        let observe = r#"{"cmd": "observe", "cells": 4, "sightings": [
            {"device": "a", "cell": 1, "time": 1.0},
            {"device": "b", "cell": 2, "time": 1.5}]}"#;
        let acked = jsonio::parse(&handle_line(&owner, observe).response).unwrap();
        assert_eq!(
            acked.get("ok").and_then(Value::as_bool),
            Some(true),
            "{acked}"
        );
        // Ship the owner's WAL and apply it to the replica.
        let (op_out, body) = native(&owner, |out| {
            binary::encode_wal_ship(out, IdView::Str("ship"), &ship_from(0, 0));
        });
        assert_eq!(op_out, op::WAL_SHIP_RESP);
        let (id, ship) = binary::decode_wal_segment(&body).unwrap();
        assert_eq!(id, IdView::Str("ship"));
        assert_eq!((ship.generation, ship.offset), (0, 0));
        assert!(!ship.end_of_generation);
        let len = ship.bytes.len() as u64;
        assert!(len > 0);
        let applied = apply_frame(&replica, &ship.bytes);
        assert_eq!(applied.applied, 2);
        assert_eq!(applied.consumed, len);
        // The replica reproduced the owner's version numbering exactly.
        let versions = acked.get("versions").and_then(Value::as_object).unwrap();
        let owner_max = versions.iter().map(|(_, v)| v.as_u64().unwrap()).max();
        assert_eq!(Some(applied.profile_version), owner_max);
        // And it plans from the replicated profiles.
        let plan = jsonio::parse(
            &handle_line(
                &replica,
                r#"{"cmd": "plan_devices", "id": 1, "devices": ["a", "b"], "delay": 2, "estimator": "empirical"}"#,
            )
            .response,
        )
        .unwrap();
        assert_eq!(
            plan.get("ok").and_then(Value::as_bool),
            Some(true),
            "{plan}"
        );
        assert_eq!(plan.get("node").and_then(Value::as_str), Some("replica"));
        // A truncated apply is rejected at decode, echoing its id.
        let mut wire = Vec::new();
        binary::encode_wal_apply(&mut wire, IdView::U64(11), &ship.bytes);
        let (op_in, payload) = split_one(&wire);
        let mut out = Vec::new();
        assert!(!handle_frame(
            &replica,
            op_in,
            &payload[..payload.len() - 1],
            &mut out
        ));
        let (op_out, body) = split_one(&out);
        let bad = binary::response_to_value(op_out, &body).unwrap();
        assert_eq!(bad.get("code").and_then(Value::as_str), Some("bad_request"));
        assert_eq!(bad.get("id").and_then(Value::as_u64), Some(11));
        // The v1 JSON forms of the WAL ops are gone.
        for line in [
            r#"{"cmd": "wal_ship", "generation": 0}"#,
            r#"{"cmd": "wal_apply", "bytes": ""}"#,
        ] {
            let v = jsonio::parse(&handle_line(&replica, line).response).unwrap();
            assert_eq!(
                v.get("code").and_then(Value::as_str),
                Some("unsupported"),
                "{line}"
            );
        }
    }

    #[test]
    fn control_lines() {
        let svc = service();
        let ping = handle_line(&svc, r#"{"cmd": "ping"}"#);
        assert!(ping.response.contains("pong"));
        let _ = handle_line(&svc, r#"{"instance": [[0.5, 0.5]], "delay": 1}"#);
        let metrics = handle_line(&svc, r#"{"cmd": "metrics"}"#);
        let v = jsonio::parse(&metrics.response).unwrap();
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("requests"))
                .and_then(Value::as_u64),
            Some(1)
        );
        // Without a data directory the durability counters read zero.
        for field in [
            "wal_appends",
            "wal_fsyncs",
            "wal_recovered_records",
            "wal_truncated_bytes",
            "checkpoints",
            "degraded",
        ] {
            let value = v.get("metrics").and_then(|m| m.get(field));
            assert_eq!(value.and_then(Value::as_u64), Some(0), "{field}");
        }
        let stop = handle_line(&svc, r#"{"cmd": "shutdown"}"#);
        assert!(stop.shutdown);
    }

    #[test]
    fn metrics_dump_reports_cache_evictions() {
        let svc = PagerService::new(ServiceConfig {
            workers: 1,
            shards: 1,
            capacity: 2,
            ..ServiceConfig::default()
        });
        for i in 1..=6 {
            let p = f64::from(i) / 8.0;
            let line = format!(r#"{{"instance": [[{p}, {}]], "delay": 2}}"#, 1.0 - p);
            let v = jsonio::parse(&handle_line(&svc, &line).response).unwrap();
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
        }
        let v = jsonio::parse(&handle_line(&svc, r#"{"cmd": "metrics"}"#).response).unwrap();
        let evictions = v
            .get("metrics")
            .and_then(|m| m.get("evictions"))
            .and_then(Value::as_u64);
        assert!(svc.cache_evictions() > 0);
        assert_eq!(evictions, Some(svc.cache_evictions()));
    }

    #[test]
    fn control_responses_echo_the_request_id() {
        // Every response echoes its request's id — the cluster hop's
        // request/reply correlation keys on it, so control ops and
        // errors must echo just like plans always have.
        let svc = service();
        let ping =
            jsonio::parse(&handle_line(&svc, r#"{"cmd": "ping", "id": 3}"#).response).unwrap();
        assert_eq!(ping.get("id").and_then(Value::as_i64), Some(3));
        assert_eq!(ping.get("ok").and_then(Value::as_bool), Some(true));
        let observe = jsonio::parse(
            &handle_line(
                &svc,
                r#"{"cmd": "observe", "id": 9, "cells": 4, "sightings": [{"device": "d", "cell": 1, "time": 1.0}]}"#,
            )
            .response,
        )
        .unwrap();
        assert_eq!(observe.get("id").and_then(Value::as_i64), Some(9));
        // Errors echo too (a failed internal call must still correlate).
        let bad = jsonio::parse(
            &handle_line(&svc, r#"{"cmd": "epoch", "id": 11, "epoch": "soon"}"#).response,
        )
        .unwrap();
        assert_eq!(bad.get("id").and_then(Value::as_i64), Some(11));
        assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));
        // String ids ride through unchanged.
        let named =
            jsonio::parse(&handle_line(&svc, r#"{"cmd": "stats", "id": "s-1"}"#).response).unwrap();
        assert_eq!(named.get("id").and_then(Value::as_str), Some("s-1"));
        // Id-less control responses stay byte-identical to the frozen
        // v1 shape: no "id" key at all.
        let plain = handle_line(&svc, r#"{"cmd": "ping"}"#).response;
        assert!(!plain.contains("\"id\""), "{plain}");
    }

    fn split_one(buf: &[u8]) -> (u8, Vec<u8>) {
        match frame::split(buf) {
            Split::V2Frame { op, payload, .. } => (op, payload.to_vec()),
            other => panic!("expected a v2 frame, got {other:?}"),
        }
    }

    #[test]
    fn plan_frames_answer_natively_and_hit_the_cache() {
        use pager_core::{Delay, Instance};
        use pager_wire::PlanSpec;
        let svc = service();
        let instance = Instance::from_rows(vec![vec![0.5, 0.3, 0.2]]).unwrap();
        let spec = PlanSpec::new(Delay::new(2).unwrap());
        let mut wire = Vec::new();
        assert!(binary::encode_plan_request(
            &mut wire,
            &Value::Int(41),
            &instance,
            &spec
        ));
        let (op_in, payload) = split_one(&wire);
        assert_eq!(op_in, op::PLAN);
        // First frame: a miss, planned fresh.
        let mut out = Vec::new();
        assert!(!handle_frame(&svc, op_in, &payload, &mut out));
        let (op_out, body) = split_one(&out);
        let v = binary::response_to_value(op_out, &body).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_i64), Some(41));
        assert_eq!(v.get("cached").and_then(Value::as_bool), Some(false));
        // Second, identical frame: served from cache via the borrowed
        // fast path.
        let mut out2 = Vec::new();
        assert!(!handle_frame(&svc, op_in, &payload, &mut out2));
        let (op_out2, body2) = split_one(&out2);
        let v2 = binary::response_to_value(op_out2, &body2).unwrap();
        assert_eq!(v2.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(v2.get("strategy"), v.get("strategy"));
        assert_eq!(svc.metrics().requests.get(), 2);
        assert_eq!(svc.metrics().cache_hits.get(), 1);
    }

    #[test]
    fn a_u64_plan_frame_id_survives_the_solve_and_the_hit() {
        use pager_core::{Delay, Instance};
        use pager_wire::PlanSpec;
        let svc = service();
        let instance = Instance::from_rows(vec![vec![0.6, 0.3, 0.1]]).unwrap();
        let spec = PlanSpec::new(Delay::new(2).unwrap());
        let mut wire = Vec::new();
        assert!(binary::encode_plan_request(
            &mut wire,
            &Value::Int(0),
            &instance,
            &spec
        ));
        // An id above `i64::MAX` only the binary form can carry.
        let (_, payload) = split_one(&wire);
        let mut big = Vec::new();
        binary::splice_id(&mut big, IdView::U64(u64::MAX), &payload).unwrap();
        for cached in [false, true] {
            let mut out = Vec::new();
            assert!(!handle_frame(&svc, op::PLAN, &big, &mut out));
            let (op_out, body) = split_one(&out);
            assert_eq!(op_out, op::PLAN_RESP);
            let echoed = binary::splice_id(&mut Vec::new(), IdView::Null, &body).unwrap();
            assert_eq!(echoed, IdView::U64(u64::MAX), "cached: {cached}");
            let v = binary::response_to_value(op_out, &body).unwrap();
            assert_eq!(v.get("cached").and_then(Value::as_bool), Some(cached));
        }
    }

    #[test]
    fn fast_path_and_v1_line_agree_on_strategy() {
        use pager_core::{Delay, Instance};
        use pager_wire::PlanSpec;
        let svc = service();
        let line = r#"{"id": 1, "instance": [[0.4, 0.4, 0.2], [0.1, 0.8, 0.1]], "delay": 2}"#;
        let v1 = jsonio::parse(&handle_line(&svc, line).response).unwrap();
        let instance = Instance::from_rows(vec![vec![0.4, 0.4, 0.2], vec![0.1, 0.8, 0.1]]).unwrap();
        let spec = PlanSpec::new(Delay::new(2).unwrap());
        let mut wire = Vec::new();
        assert!(binary::encode_plan_request(
            &mut wire,
            &Value::Int(1),
            &instance,
            &spec
        ));
        let (op_in, payload) = split_one(&wire);
        let mut out = Vec::new();
        let _ = handle_frame(&svc, op_in, &payload, &mut out);
        let (op_out, body) = split_one(&out);
        let v2 = binary::response_to_value(op_out, &body).unwrap();
        // Byte-identical strategies across codecs; the v2 answer came
        // from the cache the v1 request populated.
        assert_eq!(v2.get("strategy"), v1.get("strategy"));
        assert_eq!(v2.get("tier"), v1.get("tier"));
        assert_eq!(v2.get("cached").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn json_wrapped_frames_round_trip_cold_ops() {
        let svc = service();
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, op::JSON_REQ, br#"{"cmd": "profile_stats"}"#);
        let (op_in, payload) = split_one(&wire);
        let mut out = Vec::new();
        assert!(!handle_frame(&svc, op_in, &payload, &mut out));
        let (op_out, body) = split_one(&out);
        assert_eq!(op_out, op::JSON_RESP);
        let v = jsonio::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        // Shutdown propagates through the wrap.
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, op::JSON_REQ, br#"{"cmd": "shutdown"}"#);
        let (op_in, payload) = split_one(&wire);
        let mut out = Vec::new();
        assert!(handle_frame(&svc, op_in, &payload, &mut out));
    }

    #[test]
    fn plan_frames_failing_validation_echo_their_id() {
        use pager_core::{Delay, Instance};
        use pager_wire::PlanSpec;
        let svc = service();
        let instance = Instance::from_rows(vec![vec![0.5, 0.5]]).unwrap();
        let spec = PlanSpec::new(Delay::new(2).unwrap());
        for id in [Value::Int(17), Value::from("bad-rows")] {
            let mut wire = Vec::new();
            assert!(binary::encode_plan_request(
                &mut wire, &id, &instance, &spec
            ));
            // The last probability becomes 0.9: the row sums to 1.4, so
            // the frame parses but fails `to_request`.
            let len = wire.len();
            wire[len - 8..].copy_from_slice(&0.9f64.to_le_bytes());
            let (op_in, payload) = split_one(&wire);
            let mut out = Vec::new();
            assert!(!handle_frame(&svc, op_in, &payload, &mut out));
            let (op_out, body) = split_one(&out);
            assert_eq!(op_out, op::ERROR);
            let v = binary::response_to_value(op_out, &body).unwrap();
            assert_eq!(v.get("code").and_then(Value::as_str), Some("bad_request"));
            assert_eq!(v.get("id"), Some(&id), "{v}");
        }
    }

    #[test]
    fn ping_frames_pong_and_bad_frames_error() {
        let svc = service();
        let mut out = Vec::new();
        assert!(!handle_frame(&svc, op::PING, b"", &mut out));
        let (op_out, body) = split_one(&out);
        assert_eq!(op_out, op::PONG);
        let v = binary::response_to_value(op_out, &body).unwrap();
        assert_eq!(v.get("pong").and_then(Value::as_bool), Some(true));
        // Truncated plan payload → bad_request frame, no panic.
        let mut out = Vec::new();
        assert!(!handle_frame(&svc, op::PLAN, &[3, 0, 0], &mut out));
        let (op_out, body) = split_one(&out);
        assert_eq!(op_out, op::ERROR);
        let v = binary::response_to_value(op_out, &body).unwrap();
        assert_eq!(v.get("code").and_then(Value::as_str), Some("bad_request"));
        // Unknown op → unsupported.
        let mut out = Vec::new();
        assert!(!handle_frame(&svc, 0x44, b"", &mut out));
        let (op_out, body) = split_one(&out);
        let v = binary::response_to_value(op_out, &body).unwrap();
        assert_eq!(v.get("code").and_then(Value::as_str), Some("unsupported"));
    }
}
