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
//!   answered without a single heap allocation.
//!
//! The TCP engine's [`PagerService`] handler and the stdio front
//! ([`crate::server::serve_lines`]) both funnel through these
//! functions, so the two fronts answer byte-identically by
//! construction.

use jsonio::Value;
use pager_wire::frame::{op, Message};
use pager_wire::{binary, json, ErrorBody, IdBuf, IdView, PlanBody, PlanFrameView};

pub use pager_wire::json::PROTOCOL_VERSION;
pub use pager_wire::Request;

use pager_profiles::wal::{encode_hex, SHIP_WINDOW_BYTES};
use pager_profiles::Estimator;

use crate::error::ServiceError;
use crate::service::{Observed, PagerService, PlanResponse};

/// Parses one v1 wire line into a typed request, paired with the `id`
/// the line carries (`Value::Null` when absent), so the caller can
/// echo it on the response whatever the outcome. Every response
/// echoes its request's id — the cluster router's request/reply
/// correlation relies on it to reject stale duplicated replies.
pub fn parse_request_with_id(line: &str) -> (Value, Result<Request, ServiceError>) {
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
pub fn handle_request(
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

/// [`handle_request`] for a control op — anything but `observe`, WAL
/// ship/apply and the plans — answered without touching storage or a
/// solver, so the engine runs it inline on a shard thread.
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
        Request::Observe {
            cells,
            sightings,
            ship,
        } => match service.observe(cells, &sightings) {
            Err(error) => error_line(service, id, &error),
            Ok(Observed { versions, appended }) => {
                // Last version per device (a device may appear several
                // times in one batch).
                let mut latest: Vec<(String, Value)> = Vec::new();
                for (device, version) in &versions {
                    match latest.iter_mut().find(|(d, _)| d == device) {
                        Some(entry) => entry.1 = Value::from(*version),
                        None => latest.push((device.clone(), Value::from(*version))),
                    }
                }
                let mut fields = vec![
                    ("ingested", Value::from(versions.len())),
                    ("versions", Value::Object(latest)),
                ];
                // The router's two-hop replication: the appended
                // frames ride the ack, so no `wal_ship` read-back. A
                // batch over one ship window leaves them off, which
                // bounds the ack; the router then catches the
                // replicas up through `wal_ship`, window by window.
                if let (true, Some(append)) = (ship, appended) {
                    if append.bytes.len() <= SHIP_WINDOW_BYTES {
                        fields.extend([
                            ("wal_incarnation", Value::from(append.incarnation)),
                            ("wal_generation", Value::from(append.generation)),
                            ("wal_offset", Value::from(append.offset)),
                            ("wal_bytes", Value::from(encode_hex(&append.bytes))),
                        ]);
                    }
                }
                control(fields)
            }
        },
        Request::WalShip {
            generation,
            offset,
            max_bytes,
        } => match service.export_wal(generation, offset, max_bytes) {
            Err(error) => error_line(service, id, &error),
            Ok(segment) => control(vec![
                ("generation", Value::from(segment.generation)),
                ("offset", Value::from(segment.offset)),
                ("len", Value::from(segment.bytes.len())),
                ("bytes", Value::from(encode_hex(&segment.bytes))),
                ("latest_generation", Value::from(segment.latest_generation)),
                ("end_of_generation", Value::Bool(segment.end_of_generation)),
            ]),
        },
        Request::WalApply { bytes } => match service.apply_wal(&bytes) {
            Err(error) => error_line(service, id, &error),
            Ok(outcome) => control(vec![
                ("applied", Value::from(outcome.records)),
                ("consumed", Value::from(outcome.consumed)),
                (
                    "profile_version",
                    Value::from(service.profiles().latest_version()),
                ),
            ]),
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
        Request::Observe { .. }
        | Request::WalShip { .. }
        | Request::WalApply { .. }
        | Request::PlanDevices { .. }
        | Request::Plan { .. } => error_line(
            service,
            id,
            &ServiceError::Internal("a blocking request reached the control path".into()),
        ),
    }
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
/// a costlier one leaves it), [`handle_frame`] solves it in place.
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
/// miss falls back to the typed decode + [`PagerService::plan`]. All
/// cold ops arrive JSON-wrapped (op `0x7E`) and are answered
/// JSON-wrapped (op `0x7F`).
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
            if let FrameDispatch::Solve { id, instance, spec } =
                dispatch_frame(service, op, payload, out)
            {
                match service.plan(&instance, spec) {
                    Ok(response) => plan_response_frame(service, id.view(), &response, out),
                    Err(error) => error_frame(service, id.view(), &error, out),
                }
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
        let v =
            jsonio::parse(&handle_line(&plain, r#"{"cmd": "wal_ship", "generation": 0}"#).response)
                .unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("unsupported"));
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
            "an observe without the ship flag acks as it always has"
        );
        let shipped = jsonio::parse(
            &handle_line(
                &owner,
                r#"{"cmd": "observe", "cells": 4, "ship": true, "sightings": [
                    {"device": "b", "cell": 2, "time": 1.5}, {"device": "a", "cell": 3, "time": 2.0}]}"#,
            )
            .response,
        )
        .unwrap();
        let field = |name| shipped.get(name).and_then(Value::as_u64).unwrap();
        assert_eq!(
            owner
                .observe(4, &[])
                .unwrap()
                .appended
                .map(|append| append.incarnation),
            Some(field("wal_incarnation"))
        );
        // The frames start where the first observe's ended and are
        // exactly what `wal_ship` would read back from there.
        assert_eq!(field("wal_generation"), 0);
        let offset = field("wal_offset");
        assert!(offset > 0, "{shipped}");
        let hex = shipped.get("wal_bytes").and_then(Value::as_str).unwrap();
        let export = owner.export_wal(0, offset, 1 << 20).unwrap();
        assert_eq!(hex, encode_hex(&export.bytes));
        // Forwarded after the first batch's frames, they reproduce the
        // owner's versions on the replica.
        let head = owner.export_wal(0, 0, offset as usize).unwrap();
        replica.apply_wal(&head.bytes).unwrap();
        let apply_line = format!(r#"{{"cmd": "wal_apply", "bytes": "{hex}"}}"#);
        let applied = jsonio::parse(&handle_line(&replica, &apply_line).response).unwrap();
        assert_eq!(applied.get("applied").and_then(Value::as_u64), Some(2));
        assert_eq!(
            applied.get("consumed").and_then(Value::as_u64),
            Some(hex.len() as u64 / 2)
        );
        assert_eq!(
            applied.get("profile_version").and_then(Value::as_u64),
            Some(3)
        );
        for device in ["a", "b"] {
            assert_eq!(
                replica.profiles().version(device),
                owner.profiles().version(device)
            );
        }
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
        let sightings: Vec<String> = (0..600u32)
            .map(|i| {
                format!(
                    r#"{{"device": "{}", "cell": {}, "time": {i}}}"#,
                    device(i),
                    i % 4
                )
            })
            .collect();
        let line = format!(
            r#"{{"cmd": "observe", "cells": 4, "ship": true, "sightings": [{}]}}"#,
            sightings.join(",")
        );
        let response = handle_line(&owner, &line).response;
        let ack = jsonio::parse(&response).unwrap();
        assert_eq!(ack.get("ingested").and_then(Value::as_u64), Some(600));
        for field in [
            "wal_incarnation",
            "wal_generation",
            "wal_offset",
            "wal_bytes",
        ] {
            assert!(ack.get(field).is_none(), "{field} on an oversize ack");
        }
        assert!(response.len() < line.len());
        // The replica converges through window-sized `wal_ship` reads.
        let mut offset = 0;
        loop {
            let export = owner.export_wal(0, offset, SHIP_WINDOW_BYTES).unwrap();
            if export.bytes.is_empty() {
                break;
            }
            offset += replica.apply_wal(&export.bytes).unwrap().consumed;
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
        let ship = jsonio::parse(
            &handle_line(
                &owner,
                r#"{"cmd": "wal_ship", "generation": 0, "offset": 0}"#,
            )
            .response,
        )
        .unwrap();
        assert_eq!(
            ship.get("ok").and_then(Value::as_bool),
            Some(true),
            "{ship}"
        );
        let hex = ship.get("bytes").and_then(Value::as_str).unwrap();
        let len = ship.get("len").and_then(Value::as_u64).unwrap();
        assert_eq!(hex.len() as u64, 2 * len);
        let apply_line = format!(r#"{{"cmd": "wal_apply", "bytes": "{hex}"}}"#);
        let applied = jsonio::parse(&handle_line(&replica, &apply_line).response).unwrap();
        assert_eq!(applied.get("applied").and_then(Value::as_u64), Some(2));
        assert_eq!(applied.get("consumed").and_then(Value::as_u64), Some(len));
        // The replica reproduced the owner's version numbering exactly.
        let versions = acked.get("versions").and_then(Value::as_object).unwrap();
        let owner_max = versions.iter().map(|(_, v)| v.as_u64().unwrap()).max();
        assert_eq!(
            applied.get("profile_version").and_then(Value::as_u64),
            owner_max
        );
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
        // Garbage hex is rejected at parse.
        let bad = jsonio::parse(
            &handle_line(&replica, r#"{"cmd": "wal_apply", "bytes": "zz"}"#).response,
        )
        .unwrap();
        assert_eq!(bad.get("code").and_then(Value::as_str), Some("bad_request"));
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
            &handle_line(&svc, r#"{"cmd": "wal_apply", "id": 11, "bytes": "zz"}"#).response,
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
