//! Cheap instance fingerprints for strategy caching.
//!
//! A planning service wants to reuse a strategy computed for one
//! instance on any other instance that is *close enough*: paging
//! strategies depend on probabilities only through cell-weight
//! ordering and prefix sums, so nearby instances plan identically or
//! nearly so. The fingerprint quantises every probability to a
//! configurable grid (bucket `round(p * grid)`) and hashes the
//! buckets together with the instance shape, giving a stable,
//! allocation-light cache key: instances within `1/(2*grid)` per
//! entry of each other collide on purpose.
//!
//! The quantisation error of the *served* strategy's expected paging
//! cost is bounded: moving every probability by at most `eps = 1/(2*grid)`
//! changes any strategy's EP by at most `m * c * eps * c` in the
//! crudest bound, and in practice far less; `pager-service` ships a
//! property test pinning an empirical bound.

use crate::instance::Instance;

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a 64-bit hash state `hash` (start from
/// [`FNV1A64_OFFSET`]). Instance fingerprints, plan-cache keys,
/// profile-store shard routing and the cluster ring all hash with
/// this one function, so its output is part of the wire and routing
/// contract. Inlined: the v2 cache-hit path calls it once per word.
#[inline]
#[must_use]
pub fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Quantises one probability row to bucket indices on a `grid`-step
/// lattice (`bucket = round(p * grid)`, so `grid = 1000` keys
/// probabilities by three decimal places).
#[must_use]
pub fn quantize_row(row: &[f64], grid: u32) -> Vec<u32> {
    let g = f64::from(grid.max(1));
    row.iter()
        .map(|&p| {
            // Probabilities are validated to [0, ~1]; the cast is safe.
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let bucket = (p * g).round() as u32;
            bucket
        })
        .collect()
}

impl Instance {
    /// The quantised representation of the whole instance: every row
    /// bucketed to the `grid` lattice, concatenated. Two instances
    /// with equal output (and equal shape) are interchangeable for
    /// caching at that grid.
    #[must_use]
    pub fn quantized_buckets(&self, grid: u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.num_devices() * self.num_cells());
        for row in self.rows() {
            out.extend(quantize_row(row, grid));
        }
        out
    }

    /// A 64-bit FNV-1a fingerprint of the quantised instance plus its
    /// shape. Cheap (`O(m*c)`, no allocation) and stable across runs
    /// and platforms — suitable for shard selection and wire-level
    /// cache diagnostics. Equal fingerprints are *almost certainly*
    /// the same quantised instance; exact-match callers should compare
    /// [`Instance::quantized_buckets`].
    #[must_use]
    pub fn fingerprint64(&self, grid: u32) -> u64 {
        let g = f64::from(grid.max(1));
        let buckets = self.rows().flatten().map(|&p| {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let bucket = (p * g).round() as u64;
            bucket
        });
        fingerprint_words(self.num_devices(), self.num_cells(), grid, buckets)
    }
}

/// FNV-1a over an instance's shape `(m, c, grid)` and then its
/// quantised buckets in row-major order: the layout of
/// [`Instance::fingerprint64`], shared with the v2 frame view so that
/// both reach the same value.
#[inline]
#[must_use]
pub fn fingerprint_words(
    devices: usize,
    cells: usize,
    grid: u32,
    buckets: impl IntoIterator<Item = u64>,
) -> u64 {
    [devices as u64, cells as u64, u64::from(grid)]
        .into_iter()
        .chain(buckets)
        .fold(FNV1A64_OFFSET, |hash, word| {
            fnv1a64(hash, &word.to_le_bytes())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(rows: Vec<Vec<f64>>) -> Instance {
        Instance::from_rows(rows).unwrap()
    }

    #[test]
    fn fingerprints_are_pinned() {
        // Cache keys and v2 request fingerprints derive from these.
        let a = inst(vec![
            vec![0.5, 0.25, 0.125, 0.125],
            vec![0.1, 0.2, 0.3, 0.4],
        ]);
        assert_eq!(a.fingerprint64(1000), 0x661f_21c9_0c2a_0ac7);
        assert_eq!(a.fingerprint64(1), 0x2f25_ce4c_b997_2fa3);
        let uniform = Instance::uniform(3, 5).unwrap();
        assert_eq!(uniform.fingerprint64(100_000), 0x2df6_d7ae_683c_136e);
    }

    #[test]
    fn quantize_row_buckets() {
        assert_eq!(quantize_row(&[0.5, 0.25, 0.25], 4), vec![2, 1, 1]);
        assert_eq!(quantize_row(&[0.5004, 0.4996], 1000), vec![500, 500]);
        assert_eq!(quantize_row(&[0.0, 1.0], 10), vec![0, 10]);
    }

    #[test]
    fn nearby_instances_share_fingerprints() {
        let a = inst(vec![vec![0.5001, 0.4999]]);
        let b = inst(vec![vec![0.4999, 0.5001]]);
        assert_eq!(a.fingerprint64(100), b.fingerprint64(100));
        assert_eq!(a.quantized_buckets(100), b.quantized_buckets(100));
        // A fine grid separates them.
        assert_ne!(a.fingerprint64(100_000), b.fingerprint64(100_000));
    }

    #[test]
    fn distinct_shapes_distinct_fingerprints() {
        let a = inst(vec![vec![0.5, 0.5]]);
        let b = inst(vec![vec![0.5, 0.5], vec![0.5, 0.5]]);
        assert_ne!(a.fingerprint64(100), b.fingerprint64(100));
        // Same buckets, different grid → different key space.
        assert_ne!(a.fingerprint64(100), a.fingerprint64(200));
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let a = inst(vec![vec![0.3, 0.3, 0.4], vec![0.2, 0.5, 0.3]]);
        assert_eq!(a.fingerprint64(1000), a.clone().fingerprint64(1000));
    }
}
