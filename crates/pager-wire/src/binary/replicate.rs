//! The replication ops: a router's `OBSERVE` to a shard owner, and the
//! `WAL_APPLY` / `WAL_SHIP` calls that keep the shard's replicas warm.
//! Layouts are in the [`super`] module doc. Every encoder writes one
//! complete, sealed frame; every decoder enforces the bounds the v1
//! JSON parser enforces, so a frame that decodes is one the service may
//! apply.

use pager_profiles::wal::MAX_DEVICE_BYTES;
use pager_profiles::{Sighting, WalAppend, WalSegment};

use super::{encode_id_view, encode_str, saturate_u32, IdView, Reader};
use crate::frame::{self, op};

// The decoders' static messages name the limit.
const _: () = assert!(MAX_DEVICE_BYTES == 4096);

/// The smallest encoded sighting (empty device name): a bound on how
/// many a payload can hold, so a hostile count cannot pre-allocate.
const MIN_SIGHTING_BYTES: usize = 4 + 8 + 8;

/// The sightings an `OBSERVE` frame carries.
#[derive(Debug, Clone, PartialEq)]
pub struct ObserveBatch {
    /// Number of cells the sighted area has (positive).
    pub cells: usize,
    /// The sightings, in order.
    pub sightings: Vec<Sighting>,
}

/// An owner's answer to an `OBSERVE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObserveAck {
    /// The answering node's name.
    pub node: Option<String>,
    /// Sightings ingested.
    pub ingested: u64,
    /// The latest version of each device, in batch order.
    pub versions: Vec<(String, u64)>,
    /// The WAL frames the batch appended: absent without a durable
    /// store, and when they pass one ship window.
    pub frames: Option<WalAppend>,
}

/// A replica's answer to a `WAL_APPLY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalApplied {
    /// Records decoded from the frames and applied.
    pub applied: u64,
    /// Bytes consumed: the frames' valid prefix.
    pub consumed: u64,
    /// The replica's latest profile version afterwards.
    pub profile_version: u64,
}

/// A `WAL_SHIP` read: where to read the owner's WAL from, and how much.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalShip {
    /// WAL generation to read from.
    pub generation: u64,
    /// Byte offset within that generation.
    pub offset: u64,
    /// Upper bound on the bytes returned (positive).
    pub max_bytes: u64,
}

fn put_u64(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&saturate_u32(bytes.len()).to_le_bytes());
    out.extend_from_slice(bytes);
}

impl<'a> Reader<'a> {
    fn usize(&mut self) -> Result<usize, &'static str> {
        usize::try_from(self.u64()?).map_err(|_| "integer field overflows usize")
    }

    fn f64(&mut self) -> Result<f64, &'static str> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, &'static str> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err("flag byte is neither 0 nor 1"),
        }
    }

    fn bytes(&mut self) -> Result<&'a [u8], &'static str> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// The leading `id` of a native payload. A server echoes it on the
/// `ERROR` for a payload that fails to decode past its id.
///
/// # Errors
///
/// The payload does not start with a well-formed id.
pub fn id_of(payload: &[u8]) -> Result<IdView<'_>, &'static str> {
    Reader::new(payload).id()
}

/// Appends a sealed `OBSERVE` frame.
pub fn encode_observe(out: &mut Vec<u8>, id: IdView<'_>, cells: usize, sightings: &[Sighting]) {
    let start = frame::begin_frame(out, op::OBSERVE);
    encode_id_view(out, id);
    put_u64(out, cells as u64);
    out.extend_from_slice(&saturate_u32(sightings.len()).to_le_bytes());
    for sighting in sightings {
        encode_str(out, &sighting.device);
        put_u64(out, sighting.cell as u64);
        put_u64(out, sighting.time.to_bits());
    }
    frame::seal_frame(out, start);
}

/// Decodes an `OBSERVE` payload.
///
/// # Errors
///
/// Truncation, a zero cell count, a device name over
/// [`MAX_DEVICE_BYTES`] or a non-finite time.
pub fn decode_observe(payload: &[u8]) -> Result<(IdView<'_>, ObserveBatch), &'static str> {
    let mut r = Reader::new(payload);
    let id = r.id()?;
    let cells = r.usize()?;
    if cells == 0 {
        return Err("observe frame needs a positive cell count");
    }
    let count = r.u32()? as usize;
    let mut sightings = Vec::with_capacity(count.min(r.remaining() / MIN_SIGHTING_BYTES));
    for _ in 0..count {
        let device = r.str()?;
        if device.len() > MAX_DEVICE_BYTES {
            return Err("observe frame device name is over the 4096-byte limit");
        }
        let cell = r.usize()?;
        let time = r.f64()?;
        if !time.is_finite() {
            return Err("observe frame sighting time is not finite");
        }
        sightings.push(Sighting {
            device: device.to_string(),
            cell,
            time,
        });
    }
    Ok((id, ObserveBatch { cells, sightings }))
}

/// Appends a sealed `OBSERVE_RESP` frame.
pub fn encode_observe_ack(
    out: &mut Vec<u8>,
    id: IdView<'_>,
    node: Option<&str>,
    ingested: u64,
    versions: &[(&str, u64)],
    frames: Option<&WalAppend>,
) {
    let start = frame::begin_frame(out, op::OBSERVE_RESP);
    encode_id_view(out, id);
    encode_str(out, node.unwrap_or(""));
    put_u64(out, ingested);
    out.extend_from_slice(&saturate_u32(versions.len()).to_le_bytes());
    for &(device, version) in versions {
        encode_str(out, device);
        put_u64(out, version);
    }
    match frames {
        None => out.push(0),
        Some(append) => {
            out.push(1);
            put_u64(out, append.incarnation);
            put_u64(out, append.generation);
            put_u64(out, append.offset);
            put_bytes(out, &append.bytes);
        }
    }
    frame::seal_frame(out, start);
}

/// Decodes an `OBSERVE_RESP` payload.
///
/// # Errors
///
/// Truncation or a bad frames flag.
pub fn decode_observe_ack(payload: &[u8]) -> Result<(IdView<'_>, ObserveAck), &'static str> {
    let mut r = Reader::new(payload);
    let id = r.id()?;
    let node = Some(r.str()?).filter(|n| !n.is_empty()).map(str::to_string);
    let ingested = r.u64()?;
    let count = r.u32()? as usize;
    let mut versions = Vec::with_capacity(count.min(r.remaining() / 12));
    for _ in 0..count {
        let device = r.str()?.to_string();
        versions.push((device, r.u64()?));
    }
    let frames = if r.bool()? {
        Some(WalAppend {
            incarnation: r.u64()?,
            generation: r.u64()?,
            offset: r.u64()?,
            bytes: r.bytes()?.to_vec(),
        })
    } else {
        None
    };
    Ok((
        id,
        ObserveAck {
            node,
            ingested,
            versions,
            frames,
        },
    ))
}

/// Appends a sealed `WAL_APPLY` frame carrying raw WAL frames.
pub fn encode_wal_apply(out: &mut Vec<u8>, id: IdView<'_>, bytes: &[u8]) {
    let start = frame::begin_frame(out, op::WAL_APPLY);
    encode_id_view(out, id);
    put_bytes(out, bytes);
    frame::seal_frame(out, start);
}

/// Decodes a `WAL_APPLY` payload, borrowing its WAL bytes.
///
/// # Errors
///
/// Truncation.
pub fn decode_wal_apply(payload: &[u8]) -> Result<(IdView<'_>, &[u8]), &'static str> {
    let mut r = Reader::new(payload);
    let id = r.id()?;
    Ok((id, r.bytes()?))
}

/// Appends a sealed `WAL_APPLY_RESP` frame.
pub fn encode_wal_applied(out: &mut Vec<u8>, id: IdView<'_>, applied: &WalApplied) {
    let start = frame::begin_frame(out, op::WAL_APPLY_RESP);
    encode_id_view(out, id);
    put_u64(out, applied.applied);
    put_u64(out, applied.consumed);
    put_u64(out, applied.profile_version);
    frame::seal_frame(out, start);
}

/// Decodes a `WAL_APPLY_RESP` payload.
///
/// # Errors
///
/// Truncation.
pub fn decode_wal_applied(payload: &[u8]) -> Result<(IdView<'_>, WalApplied), &'static str> {
    let mut r = Reader::new(payload);
    let id = r.id()?;
    let applied = WalApplied {
        applied: r.u64()?,
        consumed: r.u64()?,
        profile_version: r.u64()?,
    };
    Ok((id, applied))
}

/// Appends a sealed `WAL_SHIP` frame.
pub fn encode_wal_ship(out: &mut Vec<u8>, id: IdView<'_>, ship: &WalShip) {
    let start = frame::begin_frame(out, op::WAL_SHIP);
    encode_id_view(out, id);
    put_u64(out, ship.generation);
    put_u64(out, ship.offset);
    put_u64(out, ship.max_bytes);
    frame::seal_frame(out, start);
}

/// Decodes a `WAL_SHIP` payload.
///
/// # Errors
///
/// Truncation or a zero `max_bytes`.
pub fn decode_wal_ship(payload: &[u8]) -> Result<(IdView<'_>, WalShip), &'static str> {
    let mut r = Reader::new(payload);
    let id = r.id()?;
    let ship = WalShip {
        generation: r.u64()?,
        offset: r.u64()?,
        max_bytes: r.u64()?,
    };
    if ship.max_bytes == 0 {
        return Err("wal_ship frame needs a positive max_bytes");
    }
    Ok((id, ship))
}

/// Appends a sealed `WAL_SHIP_RESP` frame.
pub fn encode_wal_segment(out: &mut Vec<u8>, id: IdView<'_>, segment: &WalSegment) {
    let start = frame::begin_frame(out, op::WAL_SHIP_RESP);
    encode_id_view(out, id);
    put_u64(out, segment.generation);
    put_u64(out, segment.offset);
    put_u64(out, segment.latest_generation);
    out.push(u8::from(segment.end_of_generation));
    put_bytes(out, &segment.bytes);
    frame::seal_frame(out, start);
}

/// Decodes a `WAL_SHIP_RESP` payload.
///
/// # Errors
///
/// Truncation or a bad end-of-generation flag.
pub fn decode_wal_segment(payload: &[u8]) -> Result<(IdView<'_>, WalSegment), &'static str> {
    let mut r = Reader::new(payload);
    let id = r.id()?;
    let generation = r.u64()?;
    let offset = r.u64()?;
    let latest_generation = r.u64()?;
    let end_of_generation = r.bool()?;
    let bytes = r.bytes()?.to_vec();
    Ok((
        id,
        WalSegment {
            generation,
            offset,
            bytes,
            latest_generation,
            end_of_generation,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Split;
    use proptest::prelude::*;

    /// Device names covering the encoding edge cases (empty, unicode,
    /// at the limit).
    fn device(pick: usize) -> String {
        match pick % 5 {
            0 => String::new(),
            1 => "alice".to_string(),
            2 => "b\u{f6}b-\u{4e16}\u{754c}".to_string(),
            3 => "d".repeat(MAX_DEVICE_BYTES),
            _ => format!("device-{pick}"),
        }
    }

    fn id(tag: u8, n: u64) -> IdView<'static> {
        match tag % 4 {
            0 => IdView::Null,
            1 => IdView::U64(n),
            2 => IdView::I64(n as i64),
            _ => IdView::Str("client-7"),
        }
    }

    /// The payload of the one sealed frame `encode` appends.
    fn payload_of(encode: impl FnOnce(&mut Vec<u8>)) -> (u8, Vec<u8>) {
        let mut out = Vec::new();
        encode(&mut out);
        match frame::split(&out) {
            Split::V2Frame {
                op,
                payload,
                consumed,
            } => {
                assert_eq!(consumed, out.len(), "one frame");
                assert_eq!(out[3], frame::FLAG_CHECKED, "sealed");
                (op, payload.to_vec())
            }
            other => panic!("encoder wrote {other:?}"),
        }
    }

    fn batch(raw: &[(usize, u64, f64)]) -> Vec<Sighting> {
        raw.iter()
            .map(|&(pick, cell, time)| Sighting {
                device: device(pick),
                cell: cell as usize,
                time,
            })
            .collect()
    }

    /// One valid payload of every replication op, from the sampled
    /// fields, each with the encoder's op.
    fn every_payload(
        tag: u8,
        n: u64,
        raw: &[(usize, u64, f64)],
        bytes: &[u8],
        frames: bool,
    ) -> Vec<(u8, Vec<u8>)> {
        let id = id(tag, n);
        let sightings = batch(raw);
        let versions: Vec<(&str, u64)> = sightings
            .iter()
            .map(|s| (s.device.as_str(), n ^ s.cell as u64))
            .collect();
        let append = WalAppend {
            incarnation: n,
            generation: n >> 3,
            offset: n >> 1,
            bytes: bytes.to_vec(),
        };
        let segment = WalSegment {
            generation: n >> 2,
            offset: n,
            bytes: bytes.to_vec(),
            latest_generation: n >> 1,
            end_of_generation: frames,
        };
        vec![
            payload_of(|out| encode_observe(out, id, n as usize % 64 + 1, &sightings)),
            payload_of(|out| {
                let frames = frames.then_some(&append);
                encode_observe_ack(out, id, Some("n1"), n, &versions, frames);
            }),
            payload_of(|out| encode_wal_apply(out, id, bytes)),
            payload_of(|out| {
                let applied = WalApplied {
                    applied: n,
                    consumed: n / 2,
                    profile_version: !n,
                };
                encode_wal_applied(out, id, &applied);
            }),
            payload_of(|out| {
                let ship = WalShip {
                    generation: n,
                    offset: !n,
                    max_bytes: n | 1,
                };
                encode_wal_ship(out, id, &ship);
            }),
            payload_of(|out| encode_wal_segment(out, id, &segment)),
        ]
    }

    /// Decodes `payload` as `op` and re-encodes what it read: `None`
    /// when the payload does not decode.
    fn reencode(reply_op: u8, payload: &[u8]) -> Option<Vec<u8>> {
        let (_, bytes) = match reply_op {
            op::OBSERVE => {
                let (id, batch) = decode_observe(payload).ok()?;
                payload_of(|out| encode_observe(out, id, batch.cells, &batch.sightings))
            }
            op::OBSERVE_RESP => {
                let (id, ack) = decode_observe_ack(payload).ok()?;
                let versions: Vec<(&str, u64)> =
                    ack.versions.iter().map(|(d, v)| (d.as_str(), *v)).collect();
                payload_of(|out| {
                    let node = ack.node.as_deref();
                    encode_observe_ack(out, id, node, ack.ingested, &versions, ack.frames.as_ref());
                })
            }
            op::WAL_APPLY => {
                let (id, bytes) = decode_wal_apply(payload).ok()?;
                payload_of(|out| encode_wal_apply(out, id, bytes))
            }
            op::WAL_APPLY_RESP => {
                let (id, applied) = decode_wal_applied(payload).ok()?;
                payload_of(|out| encode_wal_applied(out, id, &applied))
            }
            op::WAL_SHIP => {
                let (id, ship) = decode_wal_ship(payload).ok()?;
                payload_of(|out| encode_wal_ship(out, id, &ship))
            }
            op::WAL_SHIP_RESP => {
                let (id, segment) = decode_wal_segment(payload).ok()?;
                payload_of(|out| encode_wal_segment(out, id, &segment))
            }
            other => panic!("not a replication op: {other:#04x}"),
        };
        Some(bytes)
    }

    const OPS: [u8; 6] = [
        op::OBSERVE,
        op::OBSERVE_RESP,
        op::WAL_APPLY,
        op::WAL_APPLY_RESP,
        op::WAL_SHIP,
        op::WAL_SHIP_RESP,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every payload decodes to what was encoded, byte for byte, and
        /// every strict prefix of it is rejected.
        #[test]
        fn payloads_round_trip_and_truncations_are_rejected(
            tag in 0u8..4,
            n in any::<u64>(),
            raw in proptest::collection::vec((0usize..16, any::<u64>(), -1e9f64..1e9), 0..6),
            bytes in proptest::collection::vec(any::<u8>(), 0..48),
            frames in any::<bool>(),
        ) {
            for (payload_op, payload) in every_payload(tag, n, &raw, &bytes, frames) {
                prop_assert!(OPS.contains(&payload_op));
                let read = reencode(payload_op, &payload);
                prop_assert_eq!(read.as_ref(), Some(&payload));
                for cut in 0..payload.len() {
                    prop_assert!(
                        reencode(payload_op, &payload[..cut]).is_none(),
                        "op {:#04x} cut at {}", payload_op, cut
                    );
                }
            }
        }

        /// Random bytes never panic a decoder, and are rejected unless
        /// they start with a payload the decoder reads back exactly.
        #[test]
        fn random_bytes_are_rejected_or_read_exactly(
            tag in 0u8..5,
            rest in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            let mut payload = vec![tag];
            payload.extend_from_slice(&rest);
            for payload_op in OPS {
                if let Some(read) = reencode(payload_op, &payload) {
                    prop_assert!(payload.starts_with(&read), "op {:#04x}", payload_op);
                }
            }
        }
    }

    #[test]
    fn observe_frames_enforce_the_json_parsers_bounds() {
        let good = Sighting {
            device: "d".repeat(MAX_DEVICE_BYTES),
            cell: 1,
            time: 2.0,
        };
        let (_, payload) =
            payload_of(|out| encode_observe(out, IdView::U64(3), 4, std::slice::from_ref(&good)));
        let (id, batch) = decode_observe(&payload).unwrap();
        assert_eq!(id, IdView::U64(3));
        assert_eq!(batch.sightings, vec![good.clone()]);
        let giant = Sighting {
            device: "d".repeat(MAX_DEVICE_BYTES + 1),
            ..good.clone()
        };
        for (cells, sighting) in [
            (0, good.clone()),
            (4, giant),
            (
                4,
                Sighting {
                    time: f64::NAN,
                    ..good.clone()
                },
            ),
            (
                4,
                Sighting {
                    time: f64::INFINITY,
                    ..good
                },
            ),
        ] {
            let (_, payload) =
                payload_of(|out| encode_observe(out, IdView::U64(3), cells, &[sighting]));
            assert!(decode_observe(&payload).is_err(), "{cells}");
            assert_eq!(id_of(&payload), Ok(IdView::U64(3)), "the id still reads");
        }
        let ship = WalShip {
            generation: 0,
            offset: 0,
            max_bytes: 0,
        };
        let (_, payload) = payload_of(|out| encode_wal_ship(out, IdView::Null, &ship));
        assert!(decode_wal_ship(&payload).is_err());
    }

    #[test]
    fn a_hostile_count_does_not_preallocate() {
        // A count of u32::MAX sightings in a 20-byte payload: rejected as
        // truncated, without reserving room for four billion sightings.
        let mut payload = vec![0];
        payload.extend_from_slice(&4u64.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_observe(&payload).is_err());
        let mut ack = vec![0, 0, 0, 0, 0];
        ack.extend_from_slice(&1u64.to_le_bytes());
        ack.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_observe_ack(&ack).is_err());
    }
}
