//! Append-only write-ahead log for sightings.
//!
//! Each record is framed as
//!
//! ```text
//! ┌────────────┬────────────┬─────────┬──────────────────┐
//! │ len: u32 LE│ crc: u32 LE│ ver: u8 │ payload (len-1 B)│
//! └────────────┴────────────┴─────────┴──────────────────┘
//! ```
//!
//! `len` counts the version byte plus the payload; `crc` is CRC-32
//! (IEEE) over those same bytes. Version 1 payloads encode one
//! sighting:
//!
//! ```text
//! cells: u32 LE | cell: u32 LE | time: f64 bits LE | dev_len: u32 LE | device: utf-8
//! ```
//!
//! Recovery scans from the start and stops at the first frame that is
//! short, oversized, or fails its checksum — everything before that
//! point is replayed, everything after is truncated. The scanner never
//! resyncs past a bad frame: a mid-log corruption conservatively
//! discards the suffix, which preserves the invariant that the
//! recovered log is always a *prefix* of what was appended (the
//! property the proptests pin down).

/// One durable sighting: [`crate::store::Sighting`] plus the cell
/// count it was observed against (a separate argument on the ingest
/// path, so the WAL carries it explicitly).
#[derive(Debug, Clone, PartialEq)]
pub struct SightingRecord {
    /// Opaque device identifier.
    pub device: String,
    /// Number of cells in the device's network at observation time.
    pub cells: usize,
    /// When it was seen.
    pub time: f64,
    /// The cell it was seen in.
    pub cell: usize,
}

/// Frame header size: `len` + `crc`.
pub(crate) const HEADER_BYTES: usize = 8;

/// Current record version.
pub(crate) const RECORD_VERSION: u8 = 1;

/// Upper bound on `len` — a corrupt length field must not cause a
/// gigabyte allocation. Generous next to a real sighting (device name
/// plus ~17 bytes).
pub(crate) const MAX_RECORD_BYTES: u32 = 1 << 20;

/// Most WAL bytes one shipping message carries: a `WAL_SHIP` window,
/// and the frames an observe ack may forward (a larger batch leaves
/// them to `WAL_SHIP`). Above the largest frame, so every window makes
/// progress, and well under the wire's 16 MiB frame limit.
pub const SHIP_WINDOW_BYTES: usize = 2 * 1024 * 1024;
const _: () = assert!(SHIP_WINDOW_BYTES > MAX_RECORD_BYTES as usize + HEADER_BYTES);

/// A WAL file grows by this many zero-filled bytes at a time, so an
/// append that fits writes into space the file already has and its
/// sync commits no new file size. 256 KiB takes well under a
/// millisecond to write and sync on ext4, and a 60-byte record stream
/// fills it about once per 4,000 acks.
pub(crate) const EXTENT_BYTES: usize = 256 * 1024;

/// Upper bound on a device identifier, in bytes. Enforced at encode
/// time (and again by the scanner) so every encodable record frames
/// well under the 1 MiB record cap: a record the ingest path acks is
/// always one the recovery scan will accept, never a poison frame that
/// truncates the log and the acked records behind it.
pub const MAX_DEVICE_BYTES: usize = 4096;

/// The CRC-32 lookup tables, built at compile time: `CRC_TABLES[0]` is
/// the classic one-byte table, and `CRC_TABLES[k][i]` is the CRC of
/// byte `i` followed by `k` zero bytes, so eight lookups advance the
/// CRC by eight bytes at once (slicing-by-8).
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320). The one
/// copy: every WAL record and every sealed wire frame is checked with
/// it.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// Encodes one sighting as a framed v1 record.
///
/// # Errors
///
/// A message when the sighting cannot be represented losslessly: a
/// device name over [`MAX_DEVICE_BYTES`], or a `cells`/`cell` value
/// that does not fit the wire's `u32`. Rejecting here (rather than
/// saturating) keeps the round-trip exact and keeps every encoded
/// frame within the 1 MiB record cap, which the recovery scanner
/// relies on.
pub fn encode_record(sighting: &SightingRecord) -> Result<Vec<u8>, String> {
    let device = sighting.device.as_bytes();
    if device.len() > MAX_DEVICE_BYTES {
        return Err(format!(
            "device name is {} bytes, over the {MAX_DEVICE_BYTES}-byte limit",
            device.len()
        ));
    }
    let cells = u32::try_from(sighting.cells)
        .map_err(|_| format!("cell count {} does not fit u32", sighting.cells))?;
    let cell = u32::try_from(sighting.cell)
        .map_err(|_| format!("cell index {} does not fit u32", sighting.cell))?;
    // Bounded by MAX_DEVICE_BYTES above, so the frame length always
    // fits u32 and stays far below MAX_RECORD_BYTES.
    let dev_len = u32::try_from(device.len())
        .map_err(|_| format!("device length {} does not fit u32", device.len()))?;
    let mut body = Vec::with_capacity(1 + 16 + 4 + device.len());
    body.push(RECORD_VERSION);
    body.extend_from_slice(&cells.to_le_bytes());
    body.extend_from_slice(&cell.to_le_bytes());
    body.extend_from_slice(&sighting.time.to_bits().to_le_bytes());
    body.extend_from_slice(&dev_len.to_le_bytes());
    body.extend_from_slice(device);
    let len = u32::try_from(body.len())
        .map_err(|_| format!("record body {} bytes does not fit u32", body.len()))?;
    let mut frame = Vec::with_capacity(HEADER_BYTES + body.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&crc32(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    Ok(frame)
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let end = at.checked_add(4)?;
    let chunk: [u8; 4] = bytes.get(at..end)?.try_into().ok()?;
    Some(u32::from_le_bytes(chunk))
}

/// Decodes a checksum-verified v1 payload (the bytes after the
/// version byte). `None` means the payload is structurally invalid —
/// possible only if a corrupted record also collided the CRC, so the
/// scanner treats it like a bad checksum.
fn decode_v1(payload: &[u8]) -> Option<SightingRecord> {
    let cells = read_u32(payload, 0)? as usize;
    let cell = read_u32(payload, 4)? as usize;
    let time_bits: [u8; 8] = payload.get(8..16)?.try_into().ok()?;
    let time = f64::from_bits(u64::from_le_bytes(time_bits));
    let dev_len = read_u32(payload, 16)? as usize;
    if dev_len > MAX_DEVICE_BYTES {
        // Symmetric with encode: a frame no encoder could have
        // produced is corruption, not data.
        return None;
    }
    let device_bytes = payload.get(20..)?;
    if device_bytes.len() != dev_len {
        return None;
    }
    let device = std::str::from_utf8(device_bytes).ok()?.to_string();
    Some(SightingRecord {
        device,
        cells,
        time,
        cell,
    })
}

/// Outcome of scanning a WAL image.
#[derive(Debug)]
pub struct WalScan {
    /// Decoded records, in append order.
    pub records: Vec<SightingRecord>,
    /// End offset of each valid frame: `frame_ends[i]` is the log
    /// length that covers exactly `records[..=i]` (so replay can
    /// truncate after any record without re-encoding it).
    pub frame_ends: Vec<u64>,
    /// Byte length of the valid prefix; everything past it is torn,
    /// corrupt or free space.
    pub valid_len: u64,
    /// Bytes past the valid prefix up to the last non-zero byte (torn
    /// tail, corruption). Zeros after that are free space: a WAL file
    /// grows in zero-filled extents ahead of its frames.
    pub truncated_bytes: u64,
}

/// Scans a WAL image, stopping at the first bad frame. Never panics,
/// whatever the input: corrupt lengths are bounds-checked before any
/// allocation and unknown record versions stop the scan like a torn
/// tail (a v2 log must not half-load under v1 code). A zero length
/// word ends the log, so a zero tail scans as free space.
#[must_use]
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut frame_ends = Vec::new();
    let mut at = 0usize;
    while let Some(len) = read_u32(bytes, at) {
        let Some(expected_crc) = read_u32(bytes, at + 4) else {
            break;
        };
        if len == 0 || len > MAX_RECORD_BYTES {
            break;
        }
        let body_start = at + HEADER_BYTES;
        let Some(body_end) = body_start.checked_add(len as usize) else {
            break;
        };
        let Some(body) = bytes.get(body_start..body_end) else {
            break;
        };
        if crc32(body) != expected_crc {
            break;
        }
        let (&version, payload) = match body.split_first() {
            Some(split) => split,
            None => break,
        };
        if version != RECORD_VERSION {
            break;
        }
        let Some(sighting) = decode_v1(payload) else {
            break;
        };
        records.push(sighting);
        at = body_end;
        frame_ends.push(at as u64);
    }
    WalScan {
        records,
        frame_ends,
        valid_len: at as u64,
        truncated_bytes: (nonzero_len(bytes) as u64).saturating_sub(at as u64),
    }
}

/// Length of `bytes` without its trailing zeros: the end of what a
/// WAL file holds beyond its free space.
#[must_use]
pub fn nonzero_len(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .rposition(|&b| b != 0)
        .map_or(0, |last| last + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sighting(device: &str, cells: usize, time: f64, cell: usize) -> SightingRecord {
        SightingRecord {
            device: device.to_string(),
            cells,
            time,
            cell,
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        let kib: Vec<u8> = (0..1024u32).map(|i| (i * 31 + 7) as u8).collect();
        assert_eq!(crc32(&kib), 0x7C32_1B5D);
    }

    /// The bytewise CRC-32 loop: one table lookup per byte.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_loop() {
        // Every length to 4 KiB, from every start within a word, so each
        // split between the 8-byte loop and the tail is covered.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=4096 {
                let bytes = &data[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn record_bytes_are_pinned() {
        // The on-disk format: recovery of existing logs depends on it.
        assert_eq!(
            encode_record(&sighting("dev-7", 12, 42.5, 3)).unwrap(),
            [
                26, 0, 0, 0, 6, 62, 169, 15, 1, 12, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 64, 69, 64,
                5, 0, 0, 0, 100, 101, 118, 45, 55
            ]
        );
    }

    #[test]
    fn encode_scan_round_trip() {
        let records = vec![
            sighting("alice", 8, 1.5, 3),
            sighting("bob", 8, 2.0, 0),
            sighting("", 1, 0.0, 0),
            sighting("π-device", 16, 1e9, 15),
        ];
        let mut log = Vec::new();
        for record in &records {
            log.extend_from_slice(&encode_record(record).unwrap());
        }
        let scan = scan(&log);
        assert_eq!(scan.valid_len, log.len() as u64);
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(scan.records.len(), records.len());
        for (got, want) in scan.records.iter().zip(&records) {
            assert_eq!(got.device, want.device);
            assert_eq!(got.cells, want.cells);
            assert_eq!(got.cell, want.cell);
            assert!((got.time - want.time).abs() < 1e-12);
        }
    }

    #[test]
    fn truncated_tail_is_dropped_cleanly() {
        let full = encode_record(&sighting("alice", 4, 1.0, 2)).unwrap();
        let mut log = full.clone();
        log.extend_from_slice(&encode_record(&sighting("bob", 4, 2.0, 3)).unwrap());
        // Cut anywhere inside the second record. Trailing zeros of
        // the torn piece read as free space, not as truncated bytes.
        for cut in full.len()..log.len() {
            let scan = scan(&log[..cut]);
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.valid_len, full.len() as u64);
            let torn = &log[full.len()..cut];
            assert_eq!(scan.truncated_bytes, nonzero_len(torn) as u64);
        }
    }

    #[test]
    fn bad_checksum_stops_the_scan() {
        let mut log = encode_record(&sighting("alice", 4, 1.0, 2)).unwrap();
        let tail = encode_record(&sighting("bob", 4, 2.0, 3)).unwrap();
        let flip_at = log.len() + HEADER_BYTES + 3; // inside bob's body
        log.extend_from_slice(&tail);
        log[flip_at] ^= 0x01;
        let scan = scan(&log);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.truncated_bytes, tail.len() as u64);
    }

    #[test]
    fn a_zero_tail_is_free_space() {
        let frame = encode_record(&sighting("alice", 4, 1.0, 2)).unwrap();
        let mut log = frame.clone();
        log.resize(frame.len() + EXTENT_BYTES, 0);
        let scanned = scan(&log);
        assert_eq!(scanned.records.len(), 1);
        assert_eq!(scanned.valid_len, frame.len() as u64);
        assert_eq!(scanned.truncated_bytes, 0);
        // A torn header inside the zeros counts up to its last byte.
        log[frame.len()..frame.len() + 3].copy_from_slice(&[7, 0, 9]);
        assert_eq!(scan(&log).truncated_bytes, 3);
    }

    #[test]
    fn corrupt_length_does_not_allocate_or_panic() {
        let mut log = Vec::new();
        log.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd len
        log.extend_from_slice(&0u32.to_le_bytes());
        log.extend_from_slice(&[0u8; 64]);
        let scan = scan(&log);
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
    }

    #[test]
    fn unknown_version_stops_the_scan() {
        let mut frame = encode_record(&sighting("alice", 4, 1.0, 2)).unwrap();
        // Bump the version byte and re-checksum so only the version is
        // "wrong".
        frame[HEADER_BYTES] = RECORD_VERSION + 1;
        let crc = crc32(&frame[HEADER_BYTES..]).to_le_bytes();
        frame[4..8].copy_from_slice(&crc);
        let scan = scan(&frame);
        assert!(scan.records.is_empty());
        assert_eq!(scan.truncated_bytes, frame.len() as u64);
    }

    #[test]
    fn oversize_or_unrepresentable_records_are_rejected_at_encode() {
        let long_device = "x".repeat(MAX_DEVICE_BYTES + 1);
        let err = encode_record(&sighting(&long_device, 4, 1.0, 2)).unwrap_err();
        assert!(err.contains("byte limit"), "{err}");
        // Exactly at the limit still encodes and round-trips.
        let at_limit = "y".repeat(MAX_DEVICE_BYTES);
        let frame = encode_record(&sighting(&at_limit, 4, 1.0, 2)).unwrap();
        assert!(frame.len() as u32 <= MAX_RECORD_BYTES);
        let scanned = scan(&frame);
        assert_eq!(scanned.records.len(), 1);
        assert_eq!(scanned.records[0].device, at_limit);
        // cells/cell over u32 are rejected, not silently saturated.
        #[cfg(target_pointer_width = "64")]
        {
            let too_many_cells = u64::from(u32::MAX) as usize + 1;
            assert!(encode_record(&sighting("a", too_many_cells, 1.0, 0)).is_err());
            assert!(encode_record(&sighting("a", 4, 1.0, too_many_cells)).is_err());
        }
    }

    #[test]
    fn scan_reports_a_frame_end_per_record() {
        let a = encode_record(&sighting("alice", 4, 1.0, 2)).unwrap();
        let b = encode_record(&sighting("bob", 4, 2.0, 3)).unwrap();
        let mut log = a.clone();
        log.extend_from_slice(&b);
        let scanned = scan(&log);
        assert_eq!(
            scanned.frame_ends,
            vec![a.len() as u64, (a.len() + b.len()) as u64]
        );
    }

    #[test]
    fn empty_and_garbage_inputs_never_panic() {
        assert!(scan(&[]).records.is_empty());
        assert!(scan(&[0x00]).records.is_empty());
        let garbage: Vec<u8> = (0..255u8).cycle().take(4096).collect();
        let result = scan(&garbage);
        // Whatever it decodes, the prefix property holds.
        assert!(result.valid_len + result.truncated_bytes == 4096);
    }
}
