//! Consistent-hash shard map with virtual nodes and membership epochs.
//!
//! Keys (device names, or any routing key) are hashed onto a 64-bit
//! ring; each shard owns the arcs that end at its virtual-node points.
//! Virtual nodes smooth the load split. The router builds one map and
//! never changes its members: a failover or a dropped replica changes
//! the backends serving a shard and bumps the map's membership
//! **epoch**, but every key keeps its shard.

use pager_core::fingerprint;

/// FNV-1a (64-bit) with a murmur-style avalanche finalizer. Stable
/// across platforms and versions: the ring layout is part of the
/// deployment contract (two routers with the same membership must
/// route a key identically), so we pin the hash rather than borrow
/// `DefaultHasher`'s unspecified algorithm. Raw FNV-1a diffuses the
/// high bits poorly on short, similar keys (`shard-0#17`,
/// `device-42`) — bad enough to starve whole shards on a 4-member
/// ring — so the finalizer mixes every input bit into the ordering
/// bits the ring actually compares.
#[must_use]
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = fingerprint::fnv1a64(fingerprint::FNV1A64_OFFSET, bytes);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^ (hash >> 33)
}

/// A versioned consistent-hash map from keys to shard names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// Membership epoch; the router bumps it whenever a shard changes
    /// backends (a failover or a dropped replica).
    pub epoch: u64,
    /// Virtual nodes per shard.
    pub vnodes: u32,
    /// Member shard names, in join order.
    pub shards: Vec<String>,
    /// Ring points, sorted by hash: `(point, index into shards)`.
    ring: Vec<(u64, u32)>,
}

impl ShardMap {
    /// Builds a map over `shards` with `vnodes` virtual nodes each, at
    /// epoch `epoch`. Duplicate names are ignored after the first.
    #[must_use]
    pub fn new(shards: &[String], vnodes: u32, epoch: u64) -> Self {
        let mut unique: Vec<String> = Vec::new();
        for s in shards {
            if !unique.contains(s) {
                unique.push(s.clone());
            }
        }
        let vnodes = vnodes.max(1);
        let mut ring = Vec::with_capacity(unique.len() * vnodes as usize);
        for (idx, shard) in unique.iter().enumerate() {
            for vnode in 0..vnodes {
                let point = fnv1a64(format!("{shard}#{vnode}").as_bytes());
                #[allow(clippy::cast_possible_truncation)]
                ring.push((point, idx as u32));
            }
        }
        ring.sort_unstable();
        // Colliding points would make ownership depend on sort order of
        // the shard index; keep the first (lowest index) deterministically.
        ring.dedup_by_key(|&mut (point, _)| point);
        ShardMap {
            epoch,
            vnodes,
            shards: unique,
            ring,
        }
    }

    /// The shard owning `key`, or `None` on an empty map.
    #[must_use]
    pub fn owner(&self, key: &str) -> Option<&str> {
        self.owner_index(key).map(|i| self.shards[i].as_str())
    }

    /// Index (into [`Self::shards`]) of the shard owning `key`.
    #[must_use]
    pub fn owner_index(&self, key: &str) -> Option<usize> {
        if self.ring.is_empty() {
            return None;
        }
        // Successor point on the ring (wrap to the first past the top).
        let point = fnv1a64(key.as_bytes());
        let idx = self.ring.partition_point(|&(p, _)| p < point);
        let (_, shard) = self.ring[idx % self.ring.len()];
        Some(shard as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("shard-{i}")).collect()
    }

    #[test]
    fn placements_are_pinned() {
        // Routers of different builds must agree on every owner.
        let map = ShardMap::new(&names(3), 64, 1);
        let owners: Vec<usize> = (0..32)
            .map(|k| map.owner_index(&format!("device-{k}")).unwrap())
            .collect();
        let pinned = [
            1, 0, 1, 2, 0, 1, 0, 0, 1, 1, 2, 2, 2, 0, 2, 2, 2, 2, 1, 2, 2, 2, 1, 1, 1, 2, 2, 1, 1,
            2, 2, 1,
        ];
        assert_eq!(owners, pinned);
        assert_eq!(fnv1a64(b"device-0"), 0x96aa_6644_3512_1539);
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let a = ShardMap::new(&names(4), 64, 0);
        let b = ShardMap::new(&names(4), 64, 0);
        for i in 0..1000 {
            let key = format!("device-{i}");
            assert_eq!(a.owner(&key), b.owner(&key));
            assert!(a.owner(&key).is_some());
        }
        assert!(ShardMap::new(&[], 64, 0).owner("x").is_none());
    }

    #[test]
    fn virtual_nodes_balance_the_split() {
        let map = ShardMap::new(&names(4), 64, 0);
        let mut counts = [0usize; 4];
        for i in 0..1000 {
            let key = format!("device-{i}");
            let idx = map.owner_index(&key).expect("non-empty map");
            counts[idx] += 1;
        }
        for &c in &counts {
            assert!(c > 50, "unbalanced split: {counts:?}");
        }
    }
}
