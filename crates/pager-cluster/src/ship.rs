//! WAL shipping: keeping a shard's replicas warm.
//!
//! After every routed `observe` the router tails the owner's
//! write-ahead log (via the `wal_ship` wire op, which exports the raw
//! `pager-profiles::wal` frames as hex) and replays the new frames
//! into each replica (`wal_apply`) **before** acking the client. The
//! owner stamps profile versions in WAL-apply order under its WAL
//! lock, so a replica fed only shipped frames, in order, reproduces
//! the owner's version numbering exactly — which is what lets failover
//! promise both "no acked sighting lost" and "no version regression".
//!
//! The router keeps one cursor per `(shard, replica)` pair: the WAL
//! generation and byte offset shipped so far. Cursors live behind the
//! per-shard `ship` mutex (lock class `router`), so shipping for one
//! shard is serialized while other shards ship concurrently.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use jsonio::Value;
use pager_wire::{json, Request};

use crate::router::Router;

/// A replica's position in its owner's WAL.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cursor {
    /// WAL generation being tailed.
    pub generation: u64,
    /// Bytes of that generation already applied to the replica.
    pub offset: u64,
}

/// Ship cursors for one shard, keyed by replica backend index.
#[derive(Debug, Default)]
pub struct ShipCursors {
    cursors: HashMap<usize, Cursor>,
}

/// Window per `wal_ship` request. Must exceed the largest possible
/// frame (`MAX_RECORD_BYTES` + header) or a frame bigger than the
/// window could never make progress.
const SHIP_WINDOW_BYTES: usize = 2 * 1024 * 1024;

/// Iteration bound per catch-up call: a backstop against a cursor bug
/// looping forever, far above anything a real tail needs.
const MAX_ROUNDS: usize = 100_000;

impl Router {
    /// Catches every live replica of `shard` up to the owner's current
    /// WAL tip, within `budget`. Returns the number of records applied
    /// across replicas.
    ///
    /// `applied_on` is the backend whose WAL holds the observe being
    /// acked. If the shard's owner is no longer that backend — a
    /// concurrent failover promoted a replica between the apply and
    /// this call, or mid-ship — the ack must fail: the routing table
    /// now points at a node that never saw the sighting, and shipping
    /// from (or trivially skipping) the deposed owner would ack a
    /// write the cluster has already abandoned. The caller surfaces an
    /// honest error and the client retries against the new owner.
    ///
    /// An unreachable replica is dropped from the shard (availability
    /// over replication depth); an unreachable *owner* — or an
    /// exhausted budget — is an error: the caller must not ack the
    /// observe that triggered the ship.
    pub(crate) fn ship_shard(
        &self,
        shard: usize,
        applied_on: usize,
        budget: Duration,
    ) -> Result<u64, String> {
        let give_up = Instant::now() + budget;
        let (owner, replicas, _) = self.shard_snapshot(shard);
        if owner != applied_on {
            return Err(format!(
                "shard {shard} failed over mid-observe \
                 (applied on backend {applied_on}, owner is now {owner})"
            ));
        }
        if replicas.is_empty() {
            return Ok(0);
        }
        let mut shipped = 0u64;
        let mut dead: Vec<usize> = Vec::new();
        {
            // Lock order: `ship` (class router) is taken *after* the
            // membership snapshot above released the cluster lock, and
            // membership is never re-locked while this guard is held.
            let mut ship = self.ship[shard].lock().unwrap_or_else(|e| e.into_inner());
            for replica in replicas {
                let cursor = ship.cursors.entry(replica).or_default();
                match self.ship_to_replica(owner, replica, cursor, give_up) {
                    Ok(records) => shipped += records,
                    Err(ShipError::Replica(())) => {
                        // The replica is gone; stop shipping to it and
                        // let the shard run with reduced redundancy.
                        ship.cursors.remove(&replica);
                        dead.push(replica);
                    }
                    Err(ShipError::Owner(e)) => return Err(e),
                }
            }
        }
        for replica in dead {
            self.drop_replica(shard, replica);
        }
        // Re-check after shipping: a promotion that raced the ship may
        // have installed an owner this pass never delivered to (its
        // apply failed and it was queued for dropping — but as owner it
        // is no longer in the replica list, so the drop is a no-op).
        let (owner_after, _, _) = self.shard_snapshot(shard);
        if owner_after != applied_on {
            return Err(format!(
                "shard {shard} failed over mid-ship \
                 (applied on backend {applied_on}, owner is now {owner_after})"
            ));
        }
        self.metrics.shipped_records.add(shipped);
        Ok(shipped)
    }

    /// Tails `owner`'s WAL from `cursor` and applies it to `replica`
    /// until the cursor reaches the owner's tip or `give_up` passes.
    fn ship_to_replica(
        &self,
        owner: usize,
        replica: usize,
        cursor: &mut Cursor,
        give_up: Instant,
    ) -> Result<u64, ShipError> {
        let mut applied = 0u64;
        for _ in 0..MAX_ROUNDS {
            // Budget exhaustion is an owner-side error, not the
            // replica's fault: fail the ack rather than dropping a
            // healthy replica that ran out of time.
            let remaining = give_up.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ShipError::Owner(
                    "replication deadline exhausted".to_string(),
                ));
            }
            let request = json::encode_request(&Request::WalShip {
                generation: cursor.generation,
                offset: cursor.offset,
                max_bytes: SHIP_WINDOW_BYTES,
            });
            let export = self
                .call_backend_within(owner, &request, remaining)
                .map_err(ShipError::Owner)?;
            if export.get("ok").and_then(Value::as_bool) != Some(true) {
                let error = export
                    .get("error")
                    .and_then(Value::as_str)
                    .unwrap_or("wal_ship failed")
                    .to_string();
                return Err(ShipError::Owner(error));
            }
            let len = export.get("len").and_then(Value::as_u64).unwrap_or(0);
            let end_of_generation = export
                .get("end_of_generation")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            if len > 0 {
                let bytes = pager_profiles::wal::decode_hex(
                    export
                        .get("bytes")
                        .and_then(Value::as_str)
                        .unwrap_or_default(),
                )
                .map_err(|e| ShipError::Owner(format!("wal_ship exported bad hex: {e}")))?;
                let apply = json::encode_request(&Request::WalApply { bytes });
                let remaining = give_up.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(ShipError::Owner(
                        "replication deadline exhausted".to_string(),
                    ));
                }
                let outcome = self
                    .call_backend_within(replica, &apply, remaining)
                    .map_err(|_| ShipError::Replica(()))?;
                if outcome.get("ok").and_then(Value::as_bool) != Some(true) {
                    return Err(ShipError::Replica(()));
                }
                applied += outcome.get("applied").and_then(Value::as_u64).unwrap_or(0);
                let consumed = outcome.get("consumed").and_then(Value::as_u64).unwrap_or(0);
                if consumed == 0 {
                    // A window bigger than any frame yielded no full
                    // frame: the tail is torn mid-write. Retry next
                    // observe; do not spin here.
                    return Err(ShipError::Owner(
                        "wal_ship made no progress (torn frame at tail?)".to_string(),
                    ));
                }
                cursor.offset += consumed;
            } else if end_of_generation {
                cursor.generation += 1;
                cursor.offset = 0;
            } else {
                // Empty read at the latest generation: caught up.
                return Ok(applied);
            }
        }
        Err(ShipError::Owner(format!(
            "wal shipping did not converge after {MAX_ROUNDS} rounds"
        )))
    }
}

/// Which side of a ship round trip failed — they have opposite
/// consequences (replica loss is tolerable, owner loss fails the ack).
enum ShipError {
    Owner(String),
    Replica(()),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursors_default_to_generation_zero() {
        let mut cursors = ShipCursors::default();
        let c = cursors.cursors.entry(3).or_default();
        assert_eq!(
            *c,
            Cursor {
                generation: 0,
                offset: 0
            }
        );
    }
}
