//! `pager-wire`: the typed wire protocol of the paging service.
//!
//! This crate is the single definition of *what* clients can ask the
//! service ([`Request`]) and what it answers — a plan ([`PlanBody`],
//! plus [`DeviceExt`] for `plan_devices`), an error ([`ErrorBody`]),
//! or a control op's ordered field list ([`json::ok_line_with_id`]) —
//! plus the two encodings either can travel in:
//!
//! - **v1** — JSON lines: one object per line, `"v": 1`, stable error
//!   codes, unknown fields ignored ([`json`]). This is the protocol
//!   the service has always spoken; its field orders and semantics are
//!   frozen here byte-for-byte.
//! - **v2** — binary frames: an 8-byte header (magic, version, op,
//!   length) and flat little-endian payloads ([`binary`], [`frame`]).
//!   Hot ops (`plan`, `ping`) get native layouts, and so do the three
//!   replication hops a cluster router makes (`OBSERVE`, `WAL_APPLY`,
//!   `WAL_SHIP`), which have no v1 form; every other op rides a frame
//!   that carries its v1 line as the payload.
//!
//! Protocol selection is *per message*, not per connection: the first
//! byte of a message is either the frame magic `0xB7` (v2) or the
//! start of a JSON line (v1), and [`frame::split`] tells them apart.
//! A v2-capable client can talk to a v1-era server only by sending
//! lines, and a v1 client works unchanged against a v2 server — no
//! handshake, no negotiation round-trip.
//!
//! The binary plan-request payload is laid out so a server can probe
//! its strategy cache without decoding: [`PlanFrameView`] borrows the
//! payload, validates the matrix, and computes the exact cache
//! fingerprint the service would derive from a parsed instance —
//! which is what makes a steady-state cache-hit `plan` answerable
//! with zero heap allocation.

pub mod binary;
#[cfg(feature = "count-alloc")]
pub mod count_alloc;
mod error;
pub mod frame;
pub mod json;
mod request;
mod response;
pub mod textio;

pub use binary::{IdBuf, IdView, PlanFrameView};
pub use error::{ErrorCode, WireError};
pub use request::{fold_cache_key, PlanSpec, Request, RoutedRequest, Variant};
pub use response::{DeviceExt, ErrorBody, PlanBody};
