//! Consistent-hash shard map with virtual nodes and membership epochs.
//!
//! Keys (device names, or any routing key) are hashed onto a 64-bit
//! ring; each shard owns the arcs that end at its virtual-node points.
//! Virtual nodes smooth the load split, and — the property that makes
//! consistent hashing worth its salt — adding or removing one shard
//! only moves the arcs adjacent to that shard's points. Every
//! membership change bumps a monotone **epoch** and yields a
//! deterministic [`RebalancePlan`] listing exactly which arcs changed
//! hands, so an operator (or the harness) can verify that a join
//! steals only from the survivors and a leave spills only from the
//! departed.

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
pub fn fnv1a64(bytes: &[u8]) -> u64 {
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
    /// Membership epoch; bumped by every `with_shard`/`without_shard`.
    pub epoch: u64,
    /// Virtual nodes per shard.
    pub vnodes: u32,
    /// Member shard names, in join order.
    pub shards: Vec<String>,
    /// Ring points, sorted by hash: `(point, index into shards)`.
    ring: Vec<(u64, u32)>,
}

/// One arc of the ring that changed owner in a membership change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArcMove {
    /// First hash in the arc (arcs are `(start..=end]` going clockwise,
    /// with wraparound when `start > end`).
    pub start: u64,
    /// Last hash in the arc.
    pub end: u64,
    /// Shard that owned the arc before the change.
    pub from: String,
    /// Shard that owns the arc after the change.
    pub to: String,
}

/// The deterministic diff between two consecutive membership epochs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalancePlan {
    /// Epoch the plan starts from.
    pub from_epoch: u64,
    /// Epoch the plan produces.
    pub to_epoch: u64,
    /// Arcs that change owner, sorted by `start`, adjacent same-owner
    /// arcs coalesced. Empty when nothing moves (e.g. removing a shard
    /// that was never a member).
    pub moves: Vec<ArcMove>,
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
        let mut map = ShardMap {
            epoch,
            vnodes: vnodes.max(1),
            shards: unique,
            ring: Vec::new(),
        };
        map.rebuild();
        map
    }

    fn rebuild(&mut self) {
        self.ring.clear();
        for (idx, shard) in self.shards.iter().enumerate() {
            for vnode in 0..self.vnodes {
                let point = fnv1a64(format!("{shard}#{vnode}").as_bytes());
                #[allow(clippy::cast_possible_truncation)]
                self.ring.push((point, idx as u32));
            }
        }
        self.ring.sort_unstable();
        // Colliding points would make ownership depend on sort order of
        // the shard index; keep the first (lowest index) deterministically.
        self.ring.dedup_by_key(|&mut (point, _)| point);
    }

    /// Number of member shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the map has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard owning `key`, or `None` on an empty map.
    #[must_use]
    pub fn owner(&self, key: &str) -> Option<&str> {
        self.owner_index(key).map(|i| self.shards[i].as_str())
    }

    /// Index (into [`Self::shards`]) of the shard owning `key`.
    #[must_use]
    pub fn owner_index(&self, key: &str) -> Option<usize> {
        self.owner_of_point(fnv1a64(key.as_bytes()))
    }

    fn owner_of_point(&self, point: u64) -> Option<usize> {
        if self.ring.is_empty() {
            return None;
        }
        // Successor point on the ring (wrap to the first past the top).
        let idx = self.ring.partition_point(|&(p, _)| p < point);
        let (_, shard) = self.ring[idx % self.ring.len()];
        Some(shard as usize)
    }

    /// Up to `n` distinct shards for `key`: the owner first, then the
    /// next distinct shards clockwise — the standard replica
    /// preference list.
    #[must_use]
    pub fn successors(&self, key: &str, n: usize) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        if self.ring.is_empty() || n == 0 {
            return out;
        }
        let point = fnv1a64(key.as_bytes());
        let start = self.ring.partition_point(|&(p, _)| p < point);
        for step in 0..self.ring.len() {
            let (_, shard) = self.ring[(start + step) % self.ring.len()];
            let name = self.shards[shard as usize].as_str();
            if !out.contains(&name) {
                out.push(name);
                if out.len() == n {
                    break;
                }
            }
        }
        out
    }

    /// Adds `shard` (no-op plan if already a member), bumping the
    /// epoch and returning the new map plus the deterministic diff.
    #[must_use]
    pub fn with_shard(&self, shard: &str) -> (ShardMap, RebalancePlan) {
        let mut shards = self.shards.clone();
        if !shards.iter().any(|s| s == shard) {
            shards.push(shard.to_string());
        }
        self.transition(shards)
    }

    /// Removes `shard` (no-op plan if not a member), bumping the epoch
    /// and returning the new map plus the deterministic diff.
    #[must_use]
    pub fn without_shard(&self, shard: &str) -> (ShardMap, RebalancePlan) {
        let shards: Vec<String> = self
            .shards
            .iter()
            .filter(|s| *s != shard)
            .cloned()
            .collect();
        self.transition(shards)
    }

    fn transition(&self, shards: Vec<String>) -> (ShardMap, RebalancePlan) {
        let next = ShardMap::new(&shards, self.vnodes, self.epoch + 1);
        let plan = self.diff(&next);
        (next, plan)
    }

    /// Computes the arc-by-arc ownership diff from `self` to `next`.
    ///
    /// Walks the union of both rings' points: between two consecutive
    /// boundary points ownership is constant in both maps, so sampling
    /// each arc's end point gives the exact before/after owners.
    #[must_use]
    pub fn diff(&self, next: &ShardMap) -> RebalancePlan {
        let mut points: Vec<u64> = self
            .ring
            .iter()
            .chain(next.ring.iter())
            .map(|&(p, _)| p)
            .collect();
        points.sort_unstable();
        points.dedup();
        let mut moves: Vec<ArcMove> = Vec::new();
        for (i, &end) in points.iter().enumerate() {
            let start = if i == 0 {
                // The arc ending at the lowest point wraps from the top.
                *points.last().unwrap_or(&end)
            } else {
                points[i - 1]
            };
            let (before, after) = match (self.owner_of_point(end), next.owner_of_point(end)) {
                (Some(b), Some(a)) => (b, a),
                _ => continue,
            };
            if self.shards[before] == next.shards[after] {
                continue;
            }
            let from = self.shards[before].clone();
            let to = next.shards[after].clone();
            // Coalesce with the previous move when the arcs are
            // adjacent and transfer between the same pair of shards.
            if let Some(last) = moves.last_mut() {
                if last.end == start && last.from == from && last.to == to {
                    last.end = end;
                    continue;
                }
            }
            moves.push(ArcMove {
                start,
                end,
                from,
                to,
            });
        }
        RebalancePlan {
            from_epoch: self.epoch,
            to_epoch: next.epoch,
            moves,
        }
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

    #[test]
    fn successors_lists_distinct_shards_owner_first() {
        let map = ShardMap::new(&names(3), 32, 0);
        for i in 0..100 {
            let key = format!("device-{i}");
            let succ = map.successors(&key, 2);
            assert_eq!(succ.len(), 2);
            assert_eq!(Some(succ[0]), map.owner(&key));
            assert_ne!(succ[0], succ[1]);
        }
        assert_eq!(map.successors("k", 5).len(), 3, "capped at member count");
    }

    #[test]
    fn join_moves_arcs_only_to_the_new_shard() {
        let map = ShardMap::new(&names(3), 64, 7);
        let (next, plan) = map.with_shard("shard-3");
        assert_eq!(plan.from_epoch, 7);
        assert_eq!(plan.to_epoch, 8);
        assert_eq!(next.epoch, 8);
        assert!(!plan.moves.is_empty());
        for mv in &plan.moves {
            assert_eq!(mv.to, "shard-3", "join must only steal arcs: {mv:?}");
            assert_ne!(mv.from, "shard-3");
        }
        // Keys outside the moved arcs keep their owner.
        let mut moved = 0usize;
        for i in 0..1000 {
            let key = format!("device-{i}");
            if map.owner(&key) != next.owner(&key) {
                assert_eq!(next.owner(&key), Some("shard-3"));
                moved += 1;
            }
        }
        assert!(moved > 0 && moved < 600, "join moved {moved}/1000 keys");
    }

    #[test]
    fn leave_spills_arcs_only_from_the_departed_shard() {
        let map = ShardMap::new(&names(4), 64, 0);
        let (next, plan) = map.without_shard("shard-2");
        assert_eq!(next.len(), 3);
        for mv in &plan.moves {
            assert_eq!(mv.from, "shard-2", "leave must only spill arcs: {mv:?}");
            assert_ne!(mv.to, "shard-2");
        }
        for i in 0..1000 {
            let key = format!("device-{i}");
            if map.owner(&key) != next.owner(&key) {
                assert_eq!(map.owner(&key), Some("shard-2"));
            }
        }
    }

    #[test]
    fn no_op_membership_changes_produce_empty_plans() {
        let map = ShardMap::new(&names(3), 16, 3);
        let (next, plan) = map.with_shard("shard-1");
        assert!(plan.moves.is_empty());
        assert_eq!(next.epoch, 4, "epoch still bumps — the change was acked");
        let (_, plan) = map.without_shard("shard-9");
        assert!(plan.moves.is_empty());
    }
}
