//! The v2 binary codec: flat little-endian payloads inside
//! length-prefixed frames.
//!
//! Only the hot ops get native encodings — `plan` requests (op 0x01),
//! plan responses (0x02), errors (0x03) and ping/pong (0x04/0x05).
//! Every other request rides op 0x7E with its v1 JSON line as the
//! payload, and is answered with op 0x7F the same way, so the full
//! command surface works over v2 framing without a second encoding of
//! every cold op.
//!
//! The plan-request payload is designed for *zero-copy* serving:
//! [`PlanFrameView`] borrows the payload, exposes the fields and the
//! probability matrix without materialising an
//! [`Instance`], and computes the same cache
//! fingerprint the service derives from a parsed instance — so a
//! cache-hit plan can be answered without a single heap allocation.
//!
//! ## Payload layouts (all integers little-endian)
//!
//! `PLAN` (0x01): `id` (see below), `delay: u32`, `variant: u8`,
//! `variant_param: u32`, `flags: u8` (bit 0 = cache enabled),
//! `deadline_ms: u64` (`u64::MAX` = none), `devices: u32`,
//! `cells: u32`, then `devices × cells` probabilities as `f64`,
//! row-major.
//!
//! `PLAN_RESP` (0x02): `id`, `flags: u8` (bit 0 downgraded, bit 1
//! cached, bit 2 coalesced), `tier: u8`, `ep: f64`,
//! `planning_micros: u64`, `node` (length-prefixed string, empty =
//! absent), `groups: u32`, then per group `len: u32` + `len × u32`
//! cell indices.
//!
//! `ERROR` (0x03): `id`, `code: u8` ([`ErrorCode::tag`]),
//! `retry_after_ms: u64` (`u64::MAX` = none), `message`
//! (length-prefixed string), `node` (length-prefixed string).
//!
//! `PONG` (0x05): `node` (length-prefixed string).
//!
//! An `id` is a tag byte — 0 null, 1 `u64`, 2 `i64`, 3 string — then
//! the 8-byte value or a length-prefixed string. Decoders tolerate
//! trailing payload bytes (the binary analogue of ignoring unknown
//! JSON fields).

use jsonio::Value;
use pager_core::fingerprint::fingerprint_words;
use pager_core::{Delay, Instance};

use crate::error::{ErrorCode, WireError};
use crate::frame::{self, op};
use crate::json;
use crate::request::{fold_cache_key, PlanSpec, Request, Variant};
use crate::response::Response;

/// Variant tag bytes in plan-request payloads.
const VARIANT_AUTO: u8 = 0;
const VARIANT_EXACT: u8 = 1;
const VARIANT_GREEDY: u8 = 2;
const VARIANT_BANDWIDTH: u8 = 3;
const VARIANT_SIGNATURE: u8 = 4;

fn variant_to_tag(variant: Variant) -> (u8, u32) {
    match variant {
        Variant::Auto => (VARIANT_AUTO, 0),
        Variant::Exact => (VARIANT_EXACT, 0),
        Variant::Greedy => (VARIANT_GREEDY, 0),
        Variant::Bandwidth(b) => (VARIANT_BANDWIDTH, saturate_u32(b)),
        Variant::Signature(k) => (VARIANT_SIGNATURE, saturate_u32(k)),
    }
}

fn variant_from_tag(tag: u8, param: u32) -> Option<Variant> {
    match tag {
        VARIANT_AUTO => Some(Variant::Auto),
        VARIANT_EXACT => Some(Variant::Exact),
        VARIANT_GREEDY => Some(Variant::Greedy),
        VARIANT_BANDWIDTH => Some(Variant::Bandwidth(param as usize)),
        VARIANT_SIGNATURE => Some(Variant::Signature(param as usize)),
        _ => None,
    }
}

fn saturate_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Solver-tier tags in plan-response payloads (stable names frozen by
/// the v1 protocol).
const TIER_NAMES: [&str; 4] = ["exact", "greedy", "bandwidth", "signature"];

fn tier_to_tag(name: &str) -> u8 {
    TIER_NAMES
        .iter()
        .position(|&n| n == name)
        .map_or(u8::MAX, |i| i as u8)
}

fn tier_from_tag(tag: u8) -> Option<&'static str> {
    TIER_NAMES.get(tag as usize).copied()
}

/// A request id borrowed from a frame payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IdView<'a> {
    /// No id (`null`).
    Null,
    /// A non-negative integer id.
    U64(u64),
    /// A signed integer id.
    I64(i64),
    /// A string id.
    Str(&'a str),
}

impl IdView<'_> {
    /// Materialises the id as a JSON value (allocates for strings —
    /// slow path only).
    #[must_use]
    pub fn to_value(self) -> Value {
        match self {
            IdView::Null => Value::Null,
            IdView::U64(u) => Value::from(u),
            IdView::I64(i) => Value::from(i),
            IdView::Str(s) => Value::from(s),
        }
    }
}

/// Encodes an id field; returns `false` (encoding nothing) for id
/// shapes the binary form cannot carry — the caller falls back to the
/// JSON-wrapped op.
fn encode_id_value(out: &mut Vec<u8>, id: &Value) -> bool {
    match id {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            encode_str(out, s);
        }
        _ => return false,
    }
    true
}

fn encode_id_view(out: &mut Vec<u8>, id: IdView<'_>) {
    match id {
        IdView::Null => out.push(0),
        IdView::U64(u) => {
            out.push(1);
            out.extend_from_slice(&u.to_le_bytes());
        }
        IdView::I64(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        IdView::Str(s) => {
            out.push(3);
            encode_str(out, s);
        }
    }
}

fn encode_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&saturate_u32(s.len()).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked, allocation-free payload reader.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or("truncated payload")?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, &'static str> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, &'static str> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, &'static str> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn i64(&mut self) -> Result<i64, &'static str> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(i64::from_le_bytes(a))
    }

    fn str(&mut self) -> Result<&'a str, &'static str> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| "invalid UTF-8 in string field")
    }

    fn id(&mut self) -> Result<IdView<'a>, &'static str> {
        match self.u8()? {
            0 => Ok(IdView::Null),
            1 => Ok(IdView::U64(self.u64()?)),
            2 => Ok(IdView::I64(self.i64()?)),
            3 => Ok(IdView::Str(self.str()?)),
            _ => Err("unknown id tag"),
        }
    }
}

fn f64_at(bytes: &[u8], off: usize) -> f64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&bytes[off..off + 8]);
    f64::from_le_bytes(a)
}

/// A borrowed, validated-on-demand view of a v2 plan-request payload.
///
/// Parsing a view touches only the fixed-size header fields and slices
/// the probability matrix in place — no heap allocation. The service's
/// fast path uses it to probe the strategy cache and answer hits
/// without ever materialising an `Instance`.
#[derive(Debug, Clone, Copy)]
pub struct PlanFrameView<'a> {
    id: IdView<'a>,
    delay: u32,
    variant_tag: u8,
    variant_param: u32,
    cache: bool,
    deadline_ms: Option<u64>,
    devices: u32,
    cells: u32,
    probs: &'a [u8],
}

impl<'a> PlanFrameView<'a> {
    /// Parses the payload of an op-0x01 frame.
    ///
    /// # Errors
    ///
    /// A static description of the malformation (truncation, zero
    /// dimensions, matrix size mismatch). No allocation on either
    /// path.
    pub fn parse(payload: &'a [u8]) -> Result<PlanFrameView<'a>, &'static str> {
        let mut r = Reader::new(payload);
        let id = r.id()?;
        let delay = r.u32()?;
        let variant_tag = r.u8()?;
        let variant_param = r.u32()?;
        let flags = r.u8()?;
        let deadline_raw = r.u64()?;
        let devices = r.u32()?;
        let cells = r.u32()?;
        if devices == 0 || cells == 0 {
            return Err("plan frame has zero devices or cells");
        }
        let matrix_len = (devices as u64)
            .checked_mul(cells as u64)
            .and_then(|n| n.checked_mul(8))
            .and_then(|n| usize::try_from(n).ok())
            .ok_or("plan frame matrix size overflows")?;
        let probs = r
            .take(matrix_len)
            .map_err(|_| "plan frame matrix truncated")?;
        Ok(PlanFrameView {
            id,
            delay,
            variant_tag,
            variant_param,
            cache: flags & 1 != 0,
            deadline_ms: (deadline_raw != u64::MAX).then_some(deadline_raw),
            devices,
            cells,
            probs,
        })
    }

    /// The request id, borrowed.
    #[must_use]
    pub fn id(&self) -> IdView<'a> {
        self.id
    }

    /// The delay bound as sent (validated by [`Delay::new`] on the
    /// slow path; the fast path can only hit keys whose delay was
    /// already validated).
    #[must_use]
    pub fn delay(&self) -> u32 {
        self.delay
    }

    /// The requested variant, `None` for an unknown tag.
    #[must_use]
    pub fn variant(&self) -> Option<Variant> {
        variant_from_tag(self.variant_tag, self.variant_param)
    }

    /// Whether the request may read/populate the strategy cache.
    #[must_use]
    pub fn cache_enabled(&self) -> bool {
        self.cache
    }

    /// The explicit deadline budget, if any.
    #[must_use]
    pub fn deadline_ms(&self) -> Option<u64> {
        self.deadline_ms
    }

    /// Number of devices (matrix rows).
    #[must_use]
    pub fn devices(&self) -> usize {
        self.devices as usize
    }

    /// Number of cells (matrix columns).
    #[must_use]
    pub fn cells(&self) -> usize {
        self.cells as usize
    }

    /// The probability at flat index `i` (row-major).
    #[must_use]
    pub fn prob(&self, i: usize) -> f64 {
        f64_at(self.probs, i * 8)
    }

    /// Whether the matrix passes the same validation
    /// `Instance::from_rows` applies: finite, non-negative entries and
    /// rows summing to 1 within tolerance. Allocation-free.
    #[must_use]
    pub fn rows_valid(&self) -> bool {
        let cells = self.cells as usize;
        for row in 0..self.devices as usize {
            let mut sum = 0.0f64;
            for col in 0..cells {
                let p = self.prob(row * cells + col);
                if !p.is_finite() || p < 0.0 {
                    return false;
                }
                sum += p;
            }
            if (sum - 1.0).abs() > pager_core::ROW_SUM_TOL {
                return false;
            }
        }
        true
    }

    /// The quantisation bucket of the probability at flat index `i` —
    /// must stay in lock-step with `pager_core`'s `quantize_row`.
    #[must_use]
    pub fn bucket(&self, i: usize, grid: u32) -> u32 {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let bucket = (self.prob(i) * f64::from(grid.max(1))).round() as u32;
        bucket
    }

    /// Whether the matrix quantises to exactly `buckets` under `grid`.
    #[must_use]
    pub fn buckets_match(&self, buckets: &[u32], grid: u32) -> bool {
        let n = self.devices as usize * self.cells as usize;
        buckets.len() == n && (0..n).all(|i| self.bucket(i, grid) == buckets[i])
    }

    /// The fingerprint of just the instance matrix — identical to
    /// `Instance::fingerprint64` for the same matrix and grid, so a
    /// router can shard a binary plan frame onto the same backend as
    /// the equivalent v1 JSON (or `textio`) request. Allocation-free.
    #[must_use]
    pub fn instance_fingerprint(&self, grid: u32) -> u64 {
        let n = self.devices as usize * self.cells as usize;
        let buckets = (0..n).map(|i| u64::from(self.bucket(i, grid)));
        fingerprint_words(self.devices as usize, self.cells as usize, grid, buckets)
    }

    /// The cache fingerprint of this request: identical to what the
    /// service derives from a parsed `Instance` for the same matrix,
    /// delay and variant (matrix requests: estimator tag 0, no
    /// profile versions). Allocation-free.
    #[must_use]
    pub fn request_fingerprint(&self, grid: u32) -> u64 {
        let variant = self.variant().unwrap_or(Variant::Auto);
        fold_cache_key(
            self.instance_fingerprint(grid),
            u64::from(self.delay),
            variant,
            0,
            &[],
        )
    }

    /// Materialises the view as a typed request (the slow path for
    /// cache misses).
    ///
    /// # Errors
    ///
    /// [`WireError::BadRequest`] for an invalid matrix or delay,
    /// [`WireError::Unsupported`] for an unknown variant tag.
    pub fn to_request(&self) -> Result<Request, WireError> {
        let variant = self.variant().ok_or_else(|| {
            WireError::Unsupported(format!("unknown variant tag {}", self.variant_tag))
        })?;
        let cells = self.cells as usize;
        let rows: Vec<Vec<f64>> = (0..self.devices as usize)
            .map(|row| (0..cells).map(|col| self.prob(row * cells + col)).collect())
            .collect();
        let instance =
            Instance::from_rows(rows).map_err(|e| WireError::BadRequest(e.to_string()))?;
        let delay =
            Delay::new(self.delay as usize).map_err(|e| WireError::BadRequest(e.to_string()))?;
        let mut spec = PlanSpec::new(delay)
            .with_variant(variant)
            .with_cache(self.cache);
        if let Some(ms) = self.deadline_ms {
            spec = spec.with_deadline_ms(ms);
        }
        Ok(Request::Plan {
            id: self.id.to_value(),
            instance,
            spec,
        })
    }
}

/// Encodes a plan request as a complete 0x01 frame. Returns `false`
/// without writing when the id shape cannot ride the binary form (the
/// caller should fall back to [`encode_json_request`]).
pub fn encode_plan_request(
    out: &mut Vec<u8>,
    id: &Value,
    instance: &Instance,
    spec: &PlanSpec,
) -> bool {
    let start = frame::begin_frame(out, op::PLAN);
    if !encode_id_value(out, id) {
        out.truncate(start);
        return false;
    }
    out.extend_from_slice(&saturate_u32(spec.delay().get()).to_le_bytes());
    let (vtag, vparam) = variant_to_tag(spec.variant());
    out.push(vtag);
    out.extend_from_slice(&vparam.to_le_bytes());
    out.push(u8::from(spec.cache_enabled()));
    out.extend_from_slice(&spec.deadline_ms().unwrap_or(u64::MAX).to_le_bytes());
    out.extend_from_slice(&saturate_u32(instance.num_devices()).to_le_bytes());
    out.extend_from_slice(&saturate_u32(instance.num_cells()).to_le_bytes());
    for row in 0..instance.num_devices() {
        for col in 0..instance.num_cells() {
            out.extend_from_slice(&instance.prob(row, col).to_le_bytes());
        }
    }
    frame::finish_frame(out, start);
    true
}

/// Encodes any request as a 0x7E JSON-wrapped frame.
pub fn encode_json_request(out: &mut Vec<u8>, request: &Request) {
    let start = frame::begin_frame(out, op::JSON_REQ);
    out.extend_from_slice(json::encode_request(request).as_bytes());
    frame::finish_frame(out, start);
}

/// Encodes a plan answer as a complete 0x02 frame, echoing the
/// *borrowed* id — the zero-allocation response path for cache hits.
/// `groups` is visited through the callback-free iterator to keep the
/// strategy unshared.
// A flat positional signature: every field of the 0x02 payload in its
// wire order, so the encoder reads as the layout spec.
#[allow(clippy::too_many_arguments)]
pub fn encode_plan_response(
    out: &mut Vec<u8>,
    id: IdView<'_>,
    node: Option<&str>,
    tier: &str,
    expected_paging: f64,
    planning_micros: u64,
    downgraded: bool,
    cached: bool,
    coalesced: bool,
    groups: &[Vec<usize>],
) {
    let start = frame::begin_frame(out, op::PLAN_RESP);
    encode_id_view(out, id);
    let flags = u8::from(downgraded) | (u8::from(cached) << 1) | (u8::from(coalesced) << 2);
    out.push(flags);
    out.push(tier_to_tag(tier));
    out.extend_from_slice(&expected_paging.to_le_bytes());
    out.extend_from_slice(&planning_micros.to_le_bytes());
    encode_str(out, node.unwrap_or(""));
    out.extend_from_slice(&saturate_u32(groups.len()).to_le_bytes());
    for group in groups {
        out.extend_from_slice(&saturate_u32(group.len()).to_le_bytes());
        for &cell in group {
            out.extend_from_slice(&saturate_u32(cell).to_le_bytes());
        }
    }
    frame::finish_frame(out, start);
}

/// Encodes an error answer as a complete 0x03 frame with a borrowed
/// id (allocation-free apart from `out` growth).
pub fn encode_error_response(
    out: &mut Vec<u8>,
    id: IdView<'_>,
    node: Option<&str>,
    code: ErrorCode,
    message: &str,
    retry_after_ms: Option<u64>,
) {
    let start = frame::begin_frame(out, op::ERROR);
    encode_id_view(out, id);
    out.push(code.tag());
    out.extend_from_slice(&retry_after_ms.unwrap_or(u64::MAX).to_le_bytes());
    encode_str(out, message);
    encode_str(out, node.unwrap_or(""));
    frame::finish_frame(out, start);
}

/// Encodes a pong answer as a complete 0x05 frame.
pub fn encode_pong(out: &mut Vec<u8>, node: Option<&str>) {
    let start = frame::begin_frame(out, op::PONG);
    encode_str(out, node.unwrap_or(""));
    frame::finish_frame(out, start);
}

/// Decodes the payload of a response frame (op 0x02/0x03/0x05/0x7F)
/// into the same object shape the v1 line would parse to, with
/// `"v": 2`. Client-side only — servers never decode responses.
///
/// # Errors
///
/// [`WireError::BadRequest`] for truncated or inconsistent payloads
/// and unknown ops.
pub fn response_to_value(resp_op: u8, payload: &[u8]) -> Result<Value, WireError> {
    let bad = |m: &'static str| WireError::BadRequest(m.to_string());
    match resp_op {
        op::JSON_RESP => {
            let text = std::str::from_utf8(payload)
                .map_err(|_| bad("invalid UTF-8 in JSON response frame"))?;
            jsonio::parse(text).map_err(|e| WireError::BadRequest(e.to_string()))
        }
        op::PONG => {
            let mut r = Reader::new(payload);
            let node = r.str().map_err(bad)?;
            let mut fields = vec![("v", Value::from(2u64)), ("ok", Value::Bool(true))];
            if !node.is_empty() {
                fields.push(("node", Value::from(node)));
            }
            fields.push(("pong", Value::Bool(true)));
            Ok(Value::object(fields))
        }
        op::PLAN_RESP => {
            let mut r = Reader::new(payload);
            let id = r.id().map_err(bad)?;
            let flags = r.u8().map_err(bad)?;
            let tier =
                tier_from_tag(r.u8().map_err(bad)?).ok_or_else(|| bad("unknown tier tag"))?;
            let ep = f64::from_le_bytes({
                let mut a = [0u8; 8];
                a.copy_from_slice(r.take(8).map_err(bad)?);
                a
            });
            let micros = r.u64().map_err(bad)?;
            let node = r.str().map_err(bad)?.to_string();
            let group_count = r.u32().map_err(bad)? as usize;
            let mut groups = Vec::with_capacity(group_count.min(1024));
            for _ in 0..group_count {
                let len = r.u32().map_err(bad)? as usize;
                let mut cells = Vec::with_capacity(len.min(4096));
                for _ in 0..len {
                    cells.push(Value::from(r.u32().map_err(bad)? as usize));
                }
                groups.push(Value::Array(cells));
            }
            let mut fields = vec![
                ("v", Value::from(2u64)),
                ("id", id.to_value()),
                ("ok", Value::Bool(true)),
                ("strategy", Value::Array(groups)),
                ("ep", Value::Float(ep)),
                ("tier", Value::from(tier)),
                ("downgraded", Value::Bool(flags & 1 != 0)),
                ("cached", Value::Bool(flags & 2 != 0)),
                ("coalesced", Value::Bool(flags & 4 != 0)),
                ("planning_micros", Value::from(micros)),
            ];
            if !node.is_empty() {
                fields.push(("node", Value::from(node)));
            }
            Ok(Value::object(fields))
        }
        op::ERROR => {
            let mut r = Reader::new(payload);
            let id = r.id().map_err(bad)?;
            let code = ErrorCode::from_tag(r.u8().map_err(bad)?)
                .ok_or_else(|| bad("unknown error code tag"))?;
            let retry = r.u64().map_err(bad)?;
            let message = r.str().map_err(bad)?.to_string();
            let node = r.str().map_err(bad)?.to_string();
            let mut fields = vec![
                ("v", Value::from(2u64)),
                ("id", id.to_value()),
                ("ok", Value::Bool(false)),
                ("code", Value::from(code.as_str())),
                ("error", Value::from(message)),
            ];
            if !node.is_empty() {
                fields.push(("node", Value::from(node)));
            }
            if retry != u64::MAX {
                fields.push(("retry_after_ms", Value::from(retry)));
            }
            Ok(Value::object(fields))
        }
        other => Err(WireError::BadRequest(format!(
            "unknown response op 0x{other:02X}"
        ))),
    }
}

/// Decodes a v2 request frame's payload into a typed request.
///
/// # Errors
///
/// [`WireError::BadRequest`] for malformed payloads,
/// [`WireError::Unsupported`] for unknown ops or variants.
pub fn decode_request_frame(req_op: u8, payload: &[u8]) -> Result<Request, WireError> {
    match req_op {
        op::PLAN => PlanFrameView::parse(payload)
            .map_err(|m| WireError::BadRequest(m.to_string()))?
            .to_request(),
        op::PING => Ok(Request::Ping),
        op::JSON_REQ => {
            let text = std::str::from_utf8(payload)
                .map_err(|_| WireError::BadRequest("invalid UTF-8 in JSON request frame".into()))?;
            json::parse_request(text)
        }
        other => Err(WireError::Unsupported(format!(
            "unknown request op 0x{other:02X}"
        ))),
    }
}

/// Encodes a typed response as a complete v2 frame: native encodings
/// for plan/error/pong, 0x7F JSON-wrap for everything else.
pub fn encode_response(out: &mut Vec<u8>, node: Option<&str>, response: &Response<'_>) {
    match response {
        Response::Plan(body) => encode_plan_response(
            out,
            id_view_of(body.id),
            node,
            body.tier,
            body.expected_paging,
            body.planning_micros,
            body.downgraded,
            body.cached,
            body.coalesced,
            body.strategy.groups(),
        ),
        Response::Error(body) => encode_error_response(
            out,
            id_view_of(body.id),
            node,
            body.code,
            body.message,
            body.retry_after_ms,
        ),
        Response::Pong => encode_pong(out, node),
        other => {
            let start = frame::begin_frame(out, op::JSON_RESP);
            out.extend_from_slice(json::encode_response(node, other).as_bytes());
            frame::finish_frame(out, start);
        }
    }
}

fn id_view_of(id: &Value) -> IdView<'_> {
    match id {
        Value::Int(i) => IdView::I64(*i),
        Value::Str(s) => IdView::Str(s),
        _ => IdView::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Split;

    fn instance() -> Instance {
        Instance::from_rows(vec![vec![0.5, 0.3, 0.2], vec![0.25, 0.25, 0.5]])
            .expect("valid instance")
    }

    fn spec() -> PlanSpec {
        PlanSpec::new(Delay::new(2).expect("valid delay")).with_deadline_ms(250)
    }

    /// Encodes a plan request as a PLAN frame and checks that it decodes
    /// unchanged from that frame, from a v1 line and from a JSON-wrapped
    /// frame.
    fn assert_plan_round_trips(id: &Value, instance: &Instance, spec: &PlanSpec) {
        let mut out = Vec::new();
        assert!(encode_plan_request(&mut out, id, instance, spec));
        let Split::V2Frame { op: o, payload, .. } = frame::split(&out) else {
            panic!("expected a v2 frame");
        };
        assert_eq!(o, op::PLAN);
        let request = PlanFrameView::parse(payload)
            .expect("parses")
            .to_request()
            .expect("materialises");
        let line = json::encode_request(&request);
        let mut wrapped = Vec::new();
        encode_json_request(&mut wrapped, &request);
        let Split::V2Frame {
            op: json_op,
            payload: json_payload,
            ..
        } = frame::split(&wrapped)
        else {
            panic!("expected a v2 frame");
        };
        assert_eq!(json_op, op::JSON_REQ);
        let decoded = [
            Ok(request),
            decode_request_frame(o, payload),
            json::parse_request(&line),
            decode_request_frame(json_op, json_payload),
        ];
        for request in decoded {
            let Request::Plan {
                id: got_id,
                instance: got_instance,
                spec: got_spec,
            } = request.expect("decodes")
            else {
                panic!("expected plan");
            };
            assert_eq!(&got_id, id);
            assert_eq!(&got_instance, instance);
            assert_eq!(got_spec.variant(), spec.variant());
            assert_eq!(got_spec.cache_enabled(), spec.cache_enabled());
            assert_eq!(&got_spec, spec);
        }
    }

    #[test]
    fn plan_request_round_trips() {
        let mut out = Vec::new();
        assert!(encode_plan_request(
            &mut out,
            &Value::Int(7),
            &instance(),
            &spec()
        ));
        let Split::V2Frame { op: o, payload, .. } = frame::split(&out) else {
            panic!("expected a v2 frame");
        };
        assert_eq!(o, op::PLAN);
        let view = PlanFrameView::parse(payload).expect("parses");
        assert_eq!(view.id(), IdView::I64(7));
        assert_eq!(view.delay(), 2);
        assert_eq!(view.variant(), Some(Variant::Auto));
        assert!(view.cache_enabled());
        assert_eq!(view.deadline_ms(), Some(250));
        assert_eq!(view.devices(), 2);
        assert_eq!(view.cells(), 3);
        assert!(view.rows_valid());
        assert_plan_round_trips(&Value::Int(7), &instance(), &spec());
        // A string id, a non-Auto variant and a disabled cache survive
        // every path too.
        let spec = PlanSpec::new(Delay::new(1).expect("valid delay"))
            .with_variant(Variant::Greedy)
            .with_cache(false);
        assert_eq!(spec.variant(), Variant::Greedy);
        assert!(!spec.cache_enabled());
        let instance = Instance::from_rows(vec![vec![0.5, 0.5]]).expect("valid instance");
        assert_plan_round_trips(&Value::from("rt"), &instance, &spec);
        // Cold ops ride the JSON-wrapped frame too.
        let mut wrapped = Vec::new();
        encode_json_request(&mut wrapped, &Request::Metrics);
        let Split::V2Frame { op: o, payload, .. } = frame::split(&wrapped) else {
            panic!("expected a v2 frame");
        };
        assert_eq!(o, op::JSON_REQ);
        assert!(matches!(
            decode_request_frame(o, payload),
            Ok(Request::Metrics)
        ));
        let ping = json::encode_request(&Request::Ping);
        assert!(matches!(json::parse_request(&ping), Ok(Request::Ping)));
    }

    #[test]
    fn view_fingerprints_are_pinned() {
        let inst = Instance::from_rows(vec![
            vec![0.5, 0.25, 0.125, 0.125],
            vec![0.1, 0.2, 0.3, 0.4],
        ])
        .expect("valid");
        for (delay, variant, pinned) in [
            (2, Variant::Auto, 0x436e_21e4_e593_26a5),
            (3, Variant::Greedy, 0x074d_7fe9_ddc5_ada6),
            (2, Variant::Signature(1), 0x1f61_fd9b_6745_2ba0),
        ] {
            let spec = PlanSpec::new(Delay::new(delay).unwrap()).with_variant(variant);
            let mut out = Vec::new();
            assert!(encode_plan_request(&mut out, &Value::Int(9), &inst, &spec));
            let Split::V2Frame { payload, .. } = frame::split(&out) else {
                panic!("expected a v2 frame");
            };
            let view = PlanFrameView::parse(payload).expect("parses");
            assert_eq!(view.instance_fingerprint(1000), 0x661f_21c9_0c2a_0ac7);
            assert_eq!(view.request_fingerprint(1000), pinned, "{variant:?}");
        }
    }

    #[test]
    fn invalid_rows_fail_validation_not_parsing() {
        let bad = Instance::from_rows(vec![vec![0.5, 0.5]]).expect("valid");
        let mut out = Vec::new();
        assert!(encode_plan_request(&mut out, &Value::Null, &bad, &spec()));
        // Corrupt one probability to 0.9 (row sum 1.4).
        let len = out.len();
        out[len - 8..].copy_from_slice(&0.9f64.to_le_bytes());
        let Split::V2Frame { payload, .. } = frame::split(&out) else {
            panic!("expected a v2 frame");
        };
        let view = PlanFrameView::parse(payload).expect("still parses");
        assert!(!view.rows_valid());
        assert!(view.to_request().is_err());
    }

    #[test]
    fn truncated_plan_payloads_are_rejected() {
        let mut out = Vec::new();
        assert!(encode_plan_request(
            &mut out,
            &Value::Int(1),
            &instance(),
            &spec()
        ));
        let Split::V2Frame { payload, .. } = frame::split(&out) else {
            panic!("expected a v2 frame");
        };
        for cut in [0, 1, 5, 10, 20, payload.len() - 1] {
            assert!(
                PlanFrameView::parse(&payload[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn plan_response_round_trips_through_value() {
        let groups = vec![vec![0usize], vec![1, 2]];
        let mut out = Vec::new();
        encode_plan_response(
            &mut out,
            IdView::Str("q"),
            Some("shard-a"),
            "greedy",
            2.25,
            41,
            false,
            true,
            false,
            &groups,
        );
        let Split::V2Frame { op: o, payload, .. } = frame::split(&out) else {
            panic!("expected a v2 frame");
        };
        assert_eq!(o, op::PLAN_RESP);
        let v = response_to_value(o, payload).expect("decodes");
        assert_eq!(v.get("id").and_then(Value::as_str), Some("q"));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("tier").and_then(Value::as_str), Some("greedy"));
        assert_eq!(v.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("downgraded").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("node").and_then(Value::as_str), Some("shard-a"));
        assert_eq!(v.get("ep").and_then(Value::as_f64), Some(2.25));
        let strategy = v.get("strategy").and_then(Value::as_array).expect("array");
        assert_eq!(strategy.len(), 2);
    }

    #[test]
    fn error_response_round_trips_with_retry_hint() {
        let mut out = Vec::new();
        encode_error_response(
            &mut out,
            IdView::Null,
            None,
            ErrorCode::Overloaded,
            "server overloaded, retry after 50 ms",
            Some(50),
        );
        let Split::V2Frame { op: o, payload, .. } = frame::split(&out) else {
            panic!("expected a v2 frame");
        };
        let v = response_to_value(o, payload).expect("decodes");
        assert_eq!(v.get("code").and_then(Value::as_str), Some("overloaded"));
        assert_eq!(v.get("retry_after_ms").and_then(Value::as_u64), Some(50));
        assert!(v.get("node").is_none());
    }

    #[test]
    fn unknown_ops_are_unsupported() {
        assert!(matches!(
            decode_request_frame(0x55, b""),
            Err(WireError::Unsupported(_))
        ));
        assert!(response_to_value(0x56, b"").is_err());
    }
}
