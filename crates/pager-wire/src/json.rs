//! The v1 JSON-lines codec.
//!
//! This is `pager-service`'s historical `proto.rs` parsing and
//! formatting, moved wholesale: the lines it produces are
//! byte-identical to what the service emitted before the codec split,
//! and the parser keeps the same tolerances (unknown fields ignored,
//! `textio` instance strings accepted, stable error codes).

use jsonio::Value;
use pager_core::{Delay, Instance};
use pager_profiles::wal::MAX_DEVICE_BYTES;
use pager_profiles::{Estimator, Sighting};

use crate::error::{ErrorCode, WireError};
use crate::request::{PlanSpec, Request, RoutedRequest, Variant};
use crate::response::{DeviceExt, ErrorBody, PlanBody};
use crate::textio::ParseInstanceError;

/// Protocol version stamped on every v1 response line.
pub(crate) const PROTOCOL_VERSION: u64 = 1;

/// Parses one v1 wire line. Unknown fields are ignored for forward
/// compatibility; unknown commands and variants are rejected with
/// [`WireError::Unsupported`].
///
/// # Errors
///
/// [`WireError::BadRequest`] for malformed JSON or invalid payloads,
/// [`WireError::Unsupported`] for commands or variants this server
/// does not know.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    parse_request_with_id(line).1
}

/// [`parse_request`] plus the `id` the line carries (`Value::Null`
/// when absent or when the line is not valid JSON), so a server can
/// echo it on *every* response — including control responses and
/// errors, which the cluster's request/reply correlation depends on.
pub fn parse_request_with_id(line: &str) -> (Value, Result<Request, WireError>) {
    match parse_json(line) {
        Err(e) => (Value::Null, Err(e)),
        Ok(value) => {
            let id = value.get("id").cloned().unwrap_or(Value::Null);
            (id, parse_value(&value))
        }
    }
}

/// [`parse_request`] plus the `id` and the routing hints a cluster
/// router reads from the same line (`route_key`, `deadline_ms`), so
/// the router never touches raw JSON itself.
///
/// # Errors
///
/// As [`parse_request`], paired with the line's `id` (`Value::Null`
/// when absent or when the line is not valid JSON) so the error
/// answer can echo it.
pub fn parse_routed(line: &str) -> Result<RoutedRequest, (Value, WireError)> {
    let value = parse_json(line).map_err(|e| (Value::Null, e))?;
    let id = value.get("id").cloned().unwrap_or(Value::Null);
    match routing_hints(&value) {
        Ok((request, route_key, deadline_ms)) => Ok(RoutedRequest {
            id,
            request,
            route_key,
            deadline_ms,
        }),
        Err(e) => Err((id, e)),
    }
}

/// The request and its routing hints, for [`parse_routed`].
fn routing_hints(value: &Value) -> Result<(Request, Option<String>, Option<u64>), WireError> {
    let request = parse_value(value)?;
    let route_key = match value.get("route_key") {
        None | Some(Value::Null) => None,
        Some(key) => Some(
            key.as_str()
                .ok_or_else(|| WireError::BadRequest("\"route_key\" must be a string".to_string()))?
                .to_string(),
        ),
    };
    let deadline_ms = match value.get("deadline_ms") {
        None | Some(Value::Null) => None,
        Some(ms) => Some(ms.as_u64().ok_or_else(|| {
            WireError::BadRequest("\"deadline_ms\" must be a non-negative integer".to_string())
        })?),
    };
    Ok((request, route_key, deadline_ms))
}

fn parse_json(line: &str) -> Result<Value, WireError> {
    jsonio::parse(line).map_err(|e| WireError::BadRequest(e.to_string()))
}

fn parse_value(value: &Value) -> Result<Request, WireError> {
    if let Some(cmd) = value.get("cmd") {
        return match cmd.as_str() {
            Some("metrics") => Ok(Request::Metrics),
            Some("ping") => Ok(Request::Ping),
            Some("shutdown") => Ok(Request::Shutdown),
            Some("observe") => parse_observe(value).map_err(WireError::BadRequest),
            Some("plan_devices") => parse_plan_devices(value),
            Some("profile_stats") => Ok(Request::ProfileStats),
            Some("node_info") => Ok(Request::NodeInfo),
            Some("stats") => Ok(Request::Stats),
            Some("epoch") => parse_epoch(value).map_err(WireError::BadRequest),
            _ => Err(WireError::Unsupported(format!("unknown cmd {cmd}"))),
        };
    }
    let id = value.get("id").cloned().unwrap_or(Value::Null);
    let instance = value
        .get("instance")
        .ok_or_else(|| WireError::BadRequest("missing \"instance\"".to_string()))?;
    let instance = parse_instance_payload(instance).map_err(WireError::BadRequest)?;
    let spec = parse_spec(value)?;
    Ok(Request::Plan { id, instance, spec })
}

/// The request fields every planning command shares: `delay`,
/// `variant` (+ its parameters), `cache`, `deadline_ms`. This is the
/// only place the v1 wire constructs a [`PlanSpec`].
fn parse_spec(value: &Value) -> Result<PlanSpec, WireError> {
    let delay = Delay::from_json(
        value
            .get("delay")
            .ok_or_else(|| WireError::BadRequest("missing \"delay\"".to_string()))?,
    )
    .map_err(WireError::BadRequest)?;
    let variant = parse_variant(value)?;
    let cache = match value.get("cache") {
        None => true,
        Some(flag) => flag
            .as_bool()
            .ok_or_else(|| WireError::BadRequest("\"cache\" must be a boolean".to_string()))?,
    };
    let mut spec = PlanSpec::new(delay).with_variant(variant).with_cache(cache);
    match value.get("deadline_ms") {
        None | Some(Value::Null) => {}
        Some(ms) => {
            spec = spec.with_deadline_ms(ms.as_u64().ok_or_else(|| {
                WireError::BadRequest("\"deadline_ms\" must be a non-negative integer".to_string())
            })?);
        }
    }
    Ok(spec)
}

fn parse_observe(value: &Value) -> Result<Request, String> {
    let cells = value
        .get("cells")
        .and_then(Value::as_usize)
        .filter(|&c| c > 0)
        .ok_or_else(|| "\"observe\" needs a positive integer \"cells\"".to_string())?;
    let raw = value
        .get("sightings")
        .and_then(Value::as_array)
        .ok_or_else(|| "\"observe\" needs a \"sightings\" array".to_string())?;
    let mut sightings = Vec::with_capacity(raw.len());
    for (i, s) in raw.iter().enumerate() {
        let device = s
            .get("device")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("sighting {i} needs a string \"device\""))?;
        // Bound device names at the door: the durable store's WAL
        // enforces the same limit, and rejecting here keeps the
        // in-memory and durable configurations behaving identically.
        if device.len() > MAX_DEVICE_BYTES {
            return Err(format!(
                "sighting {i}: device name is {} bytes, over the {MAX_DEVICE_BYTES}-byte limit",
                device.len()
            ));
        }
        let cell = s
            .get("cell")
            .and_then(Value::as_usize)
            .ok_or_else(|| format!("sighting {i} needs an integer \"cell\""))?;
        let time = s
            .get("time")
            .and_then(Value::as_f64)
            .filter(|t| t.is_finite())
            .ok_or_else(|| format!("sighting {i} needs a finite \"time\""))?;
        sightings.push(Sighting {
            device: device.to_string(),
            cell,
            time,
        });
    }
    Ok(Request::Observe { cells, sightings })
}

fn parse_epoch(value: &Value) -> Result<Request, String> {
    let epoch = value
        .get("epoch")
        .and_then(Value::as_u64)
        .ok_or_else(|| "\"epoch\" needs a non-negative integer \"epoch\"".to_string())?;
    Ok(Request::Epoch { epoch })
}

fn parse_plan_devices(value: &Value) -> Result<Request, WireError> {
    let id = value.get("id").cloned().unwrap_or(Value::Null);
    let raw = value
        .get("devices")
        .and_then(Value::as_array)
        .ok_or_else(|| {
            WireError::BadRequest("\"plan_devices\" needs a \"devices\" array".to_string())
        })?;
    let mut devices = Vec::with_capacity(raw.len());
    for (i, d) in raw.iter().enumerate() {
        devices.push(
            d.as_str()
                .ok_or_else(|| WireError::BadRequest(format!("device {i} must be a string")))?
                .to_string(),
        );
    }
    let estimator =
        match value.get("estimator") {
            None => Estimator::Markov,
            Some(e) => Estimator::parse(e.as_str().ok_or_else(|| {
                WireError::BadRequest("\"estimator\" must be a string".to_string())
            })?)
            .map_err(WireError::Unsupported)?,
        };
    let now =
        match value.get("now") {
            None | Some(Value::Null) => None,
            Some(t) => Some(t.as_f64().filter(|t| t.is_finite()).ok_or_else(|| {
                WireError::BadRequest("\"now\" must be a finite number".to_string())
            })?),
        };
    let spec = parse_spec(value)?;
    Ok(Request::PlanDevices {
        id,
        devices,
        estimator,
        now,
        spec,
    })
}

/// Accepts either the JSON rows form or the [`crate::textio`] string
/// form.
fn parse_instance_payload(payload: &Value) -> Result<Instance, String> {
    match payload {
        Value::Str(text) => crate::textio::parse_instance(text).map_err(|e| match e {
            ParseInstanceError::Invalid(message) => message,
            other => other.to_string(),
        }),
        other => Instance::from_json(other),
    }
}

fn parse_variant(value: &Value) -> Result<Variant, WireError> {
    let name = match value.get("variant") {
        None => return Ok(Variant::Auto),
        Some(v) => v
            .as_str()
            .ok_or_else(|| WireError::BadRequest("\"variant\" must be a string".to_string()))?,
    };
    match name {
        "auto" => Ok(Variant::Auto),
        "exact" => Ok(Variant::Exact),
        "greedy" => Ok(Variant::Greedy),
        "bandwidth" => {
            let cap = value
                .get("bandwidth")
                .and_then(Value::as_usize)
                .ok_or_else(|| {
                    WireError::BadRequest(
                        "variant \"bandwidth\" needs a positive integer \"bandwidth\"".to_string(),
                    )
                })?;
            Ok(Variant::Bandwidth(cap))
        }
        "signature" => {
            let k = value.get("k").and_then(Value::as_usize).ok_or_else(|| {
                WireError::BadRequest(
                    "variant \"signature\" needs a positive integer \"k\"".to_string(),
                )
            })?;
            Ok(Variant::Signature(k))
        }
        other => Err(WireError::Unsupported(format!("unknown variant {other:?}"))),
    }
}

/// Encodes a request back into its v1 line form (no trailing
/// newline). Round-trips with [`parse_request`]; the router uses it for
/// the lines it fans out (`epoch`, `shutdown`, `profile_stats`), and
/// test clients use it to speak the protocol without hand-rolled JSON.
#[must_use]
pub fn encode_request(request: &Request) -> String {
    let value = match request {
        Request::Plan { id, instance, spec } => {
            let mut fields = vec![("id", id.clone()), ("instance", instance.to_json())];
            fields.extend(spec_fields(spec));
            Value::object(fields)
        }
        Request::Observe { cells, sightings } => Value::object(vec![
            ("cmd", Value::from("observe")),
            ("cells", Value::from(*cells)),
            (
                "sightings",
                Value::Array(
                    sightings
                        .iter()
                        .map(|s| {
                            Value::object(vec![
                                ("device", Value::from(s.device.as_str())),
                                ("cell", Value::from(s.cell)),
                                ("time", Value::Float(s.time)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Request::PlanDevices {
            id,
            devices,
            estimator,
            now,
            spec,
        } => {
            let mut fields = vec![
                ("cmd", Value::from("plan_devices")),
                ("id", id.clone()),
                (
                    "devices",
                    Value::Array(devices.iter().map(|d| Value::from(d.as_str())).collect()),
                ),
                ("estimator", Value::from(estimator.name())),
            ];
            if let Some(now) = now {
                fields.push(("now", Value::Float(*now)));
            }
            fields.extend(spec_fields(spec));
            Value::object(fields)
        }
        Request::ProfileStats => command("profile_stats"),
        Request::NodeInfo => command("node_info"),
        Request::Stats => command("stats"),
        Request::Epoch { epoch } => Value::object(vec![
            ("cmd", Value::from("epoch")),
            ("epoch", Value::from(*epoch)),
        ]),
        Request::Metrics => command("metrics"),
        Request::Ping => command("ping"),
        Request::Shutdown => command("shutdown"),
    };
    value.to_string()
}

fn command(name: &'static str) -> Value {
    Value::object(vec![("cmd", Value::from(name))])
}

fn spec_fields(spec: &PlanSpec) -> Vec<(&'static str, Value)> {
    let mut fields = vec![
        ("delay", Value::from(spec.delay().get())),
        ("variant", Value::from(spec.variant().name())),
    ];
    match spec.variant() {
        Variant::Bandwidth(b) => fields.push(("bandwidth", Value::from(b))),
        Variant::Signature(k) => fields.push(("k", Value::from(k))),
        _ => {}
    }
    if !spec.cache_enabled() {
        fields.push(("cache", Value::Bool(false)));
    }
    if let Some(ms) = spec.deadline_ms() {
        fields.push(("deadline_ms", Value::from(ms)));
    }
    fields
}

/// The shard identity stamped on every response line when the server
/// was started with one.
fn node_field(node: Option<&str>) -> Option<(&'static str, Value)> {
    node.map(|id| ("node", Value::from(id)))
}

/// The response fields shared by `plan` and `plan_devices` answers, in
/// the frozen v1 order.
fn plan_fields(node: Option<&str>, body: &PlanBody<'_>) -> Vec<(&'static str, Value)> {
    let mut fields = vec![
        ("v", Value::from(PROTOCOL_VERSION)),
        ("id", body.id.clone()),
        ("ok", Value::Bool(true)),
        ("strategy", body.strategy.to_json()),
        ("ep", Value::Float(body.expected_paging)),
        ("tier", Value::from(body.tier)),
        ("downgraded", Value::Bool(body.downgraded)),
        ("cached", Value::Bool(body.cached)),
        ("coalesced", Value::Bool(body.coalesced)),
        ("planning_micros", Value::from(body.planning_micros)),
    ];
    fields.extend(node_field(node));
    fields
}

/// A versioned `{"v": 1, "ok": true, ...}` response line — every
/// control answer (`ping`, `metrics`, `observe`, ...). The request's `id`
/// rides right after `"v"`, the position plan and error lines use; a
/// null id is omitted entirely, keeping responses to id-less requests
/// byte-identical to the frozen v1 format.
#[must_use]
pub fn ok_line_with_id(
    node: Option<&str>,
    id: &Value,
    fields: Vec<(&'static str, Value)>,
) -> String {
    let mut all = vec![("v", Value::from(PROTOCOL_VERSION))];
    if *id != Value::Null {
        all.push(("id", id.clone()));
    }
    all.push(("ok", Value::Bool(true)));
    all.extend(node_field(node));
    all.extend(fields);
    Value::object(all).to_string()
}

/// A `plan` answer line.
#[must_use]
pub fn plan_line(node: Option<&str>, body: &PlanBody<'_>) -> String {
    Value::object(plan_fields(node, body)).to_string()
}

/// A `plan_devices` answer line.
#[must_use]
pub fn device_plan_line(node: Option<&str>, body: &PlanBody<'_>, ext: &DeviceExt<'_>) -> String {
    let mut fields = plan_fields(node, body);
    fields.extend([
        ("estimator", Value::from(ext.estimator)),
        ("now", Value::Float(ext.now)),
        (
            "profile_versions",
            Value::Array(ext.versions.iter().map(|&v| Value::from(v)).collect()),
        ),
        ("stale_profiles", Value::from(ext.stale_profiles)),
    ]);
    Value::object(fields).to_string()
}

/// An error answer line. `retry_after_ms` rides along exactly for
/// [`ErrorCode::Overloaded`].
#[must_use]
pub fn error_line(node: Option<&str>, body: &ErrorBody<'_>) -> String {
    let mut fields = vec![
        ("v", Value::from(PROTOCOL_VERSION)),
        ("id", body.id.clone()),
        ("ok", Value::Bool(false)),
        ("code", Value::from(body.code.as_str())),
        ("error", Value::from(body.message)),
    ];
    fields.extend(node_field(node));
    if body.code == ErrorCode::Overloaded {
        if let Some(ms) = body.retry_after_ms {
            fields.push(("retry_after_ms", Value::from(ms)));
        }
    }
    Value::object(fields).to_string()
}
