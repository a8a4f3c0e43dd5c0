//! WAL shipping: keeping a shard's replicas warm.
//!
//! A routed `observe` replicates in two hops, both native v2 frames.
//! The router sends the sub-batch to the owner as an `OBSERVE`, and the
//! owner's `OBSERVE_RESP` carries the raw WAL frames that batch
//! appended, with the owner's incarnation and where they start
//! (omitted for a batch over one ship window). The router then forwards
//! those bytes to each replica (`WAL_APPLY`) **before** acking the
//! client. The owner stamps profile versions in WAL-apply
//! order under its WAL lock, so a replica fed only shipped frames, in
//! order, reproduces the owner's version numbering exactly — which is
//! what lets failover promise both "no acked sighting lost" and "no
//! version regression".
//!
//! The router keeps one cursor per `(shard, replica)` pair: the WAL
//! generation and byte offset shipped so far. Per replica, the
//! appended frames are forwarded only when the cursor sits exactly at
//! their start. A cursor already past their end means a concurrent
//! observe's catch-up shipped them, but only while the owner's
//! incarnation (a nonce drawn each time it opens its store) is the one
//! the cursors last advanced against: a reopened owner may have
//! recovered a WAL shorter than the cursor. Anything else — a cursor
//! gap left by an unreplicated write, a generation rollover, a replica
//! join, a frame the replica did not fully consume, an ack without
//! frames, a reopened owner, or a new owner after failover — falls
//! back to the catch-up loop: tail the owner's WAL with `WAL_SHIP`
//! from the cursor (which fails if the cursor is past the owner's
//! WAL) and apply each window until the cursor reaches the owner's
//! tip.
//!
//! Cursors live behind the per-shard `ship` mutex (lock class
//! `router`), so shipping for one shard is serialized while other
//! shards ship concurrently.

use std::collections::HashMap;

use pager_core::cancel::CancelToken;
use pager_profiles::wal::SHIP_WINDOW_BYTES;
use pager_profiles::WalAppend;
use pager_wire::binary::{self, WalShip};
use pager_wire::frame::op;

use crate::router::Router;
use crate::wire::{Ask, Reply};

/// A replica's position in its owner's WAL.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Cursor {
    /// WAL generation being tailed.
    pub generation: u64,
    /// Bytes of that generation already applied to the replica.
    pub offset: u64,
}

/// Ship cursors for one shard, keyed by replica backend index.
#[derive(Debug)]
pub(crate) struct ShipCursors {
    /// The backend whose WAL the cursors index. Until a catch-up pass
    /// against a new owner succeeds, appended frames are not trusted
    /// to line up with the cursors.
    owner: usize,
    /// The owner incarnation the cursors last advanced against (`None`
    /// until a pass that carried frames succeeds). A reopened owner
    /// may have recovered a WAL shorter than the cursors, so a cursor
    /// past an ack's frames proves they were shipped only while the
    /// ack's incarnation matches this one.
    incarnation: Option<u64>,
    cursors: HashMap<usize, Cursor>,
}

impl ShipCursors {
    /// Cursors at the start of `owner`'s WAL.
    pub(crate) fn new(owner: usize) -> ShipCursors {
        ShipCursors {
            owner,
            incarnation: None,
            cursors: HashMap::new(),
        }
    }
}

/// The WAL frames one observe appended on the owner, as its ack
/// reported them.
#[derive(Debug)]
pub(crate) struct Appended {
    /// The owner's incarnation: which open of its store wrote them.
    pub(crate) incarnation: u64,
    /// Where the frames start in the owner's WAL.
    pub(crate) at: Cursor,
    /// The raw frames.
    pub(crate) bytes: Vec<u8>,
}

impl From<WalAppend> for Appended {
    fn from(append: WalAppend) -> Appended {
        Appended {
            incarnation: append.incarnation,
            at: Cursor {
                generation: append.generation,
                offset: append.offset,
            },
            bytes: append.bytes,
        }
    }
}

impl Appended {
    /// The cursor just past these frames.
    fn end(&self) -> Cursor {
        Cursor {
            offset: self.at.offset + self.bytes.len() as u64,
            ..self.at
        }
    }
}

/// Iteration bound per catch-up call: a backstop against a cursor bug
/// looping forever, far above anything a real tail needs.
const MAX_ROUNDS: usize = 100_000;

impl Router {
    /// Brings every live replica of `shard` up to at least the end of
    /// `appended` — the frames the observe being acked wrote on the
    /// owner — within `deadline`: forwarded as-is when the replica's
    /// cursor sits at their start, by catch-up to the owner's tip
    /// otherwise (always, when `appended` is `None`). Returns the
    /// number of records applied across replicas.
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
    /// A replica that refuses the connection or answers garbage is
    /// dropped from the shard at once (availability over replication
    /// depth). One that is still silent when `deadline` fires cannot
    /// be told from a slow healthy one, so that ack fails and the
    /// replica stays. The failed call that opens its breaker (the
    /// [`BREAKER_THRESHOLD`](crate::router::BREAKER_THRESHOLD)th in a
    /// row) drops it, and that ack goes on without it. An unreachable
    /// *owner* — or an exhausted budget — is an error: the caller must
    /// not ack the observe that triggered the ship.
    pub(crate) fn ship_shard(
        &self,
        shard: usize,
        applied_on: usize,
        appended: Option<&Appended>,
        deadline: &CancelToken,
    ) -> Result<u64, String> {
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
            let appended = appended.filter(|_| ship.owner == owner);
            let same_log = appended.is_some_and(|a| ship.incarnation == Some(a.incarnation));
            for replica in replicas {
                let cursor = ship.cursors.entry(replica).or_default();
                match self.ship_to_replica(owner, replica, cursor, appended, same_log, deadline) {
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
            // Every surviving cursor now reaches past the frames this
            // owner's incarnation appended (or, without frames, its
            // tip as a catch-up read it).
            ship.owner = owner;
            ship.incarnation = appended.map(|a| a.incarnation);
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

    /// Advances `replica`'s `cursor` past `appended`: forwards the
    /// frames when the cursor is at their start, does nothing when a
    /// concurrent catch-up already passed them in the same owner
    /// incarnation (`same_log`), and otherwise runs
    /// [`Router::catch_up`], which re-checks the cursor against the
    /// owner's WAL.
    fn ship_to_replica(
        &self,
        owner: usize,
        replica: usize,
        cursor: &mut Cursor,
        appended: Option<&Appended>,
        same_log: bool,
        deadline: &CancelToken,
    ) -> Result<u64, ShipError> {
        let mut applied = 0u64;
        if let Some(appended) = appended {
            if same_log && *cursor >= appended.end() {
                return Ok(0);
            }
            if *cursor == appended.at {
                let (records, consumed) =
                    self.apply_to_replica(replica, &appended.bytes, deadline)?;
                cursor.offset += consumed;
                if consumed == appended.bytes.len() as u64 {
                    return Ok(records);
                }
                // The owner appends whole frames, so a shorter valid
                // prefix should not happen; if it does, catch up the
                // rest from the owner.
                applied = records;
            }
        }
        self.catch_up(owner, replica, cursor, deadline)
            .map(|records| applied + records)
    }

    /// Sends `bytes` to `replica` as one `WAL_APPLY`, returning the
    /// records it applied and the bytes it consumed.
    fn apply_to_replica(
        &self,
        replica: usize,
        bytes: &[u8],
        deadline: &CancelToken,
    ) -> Result<(u64, u64), ShipError> {
        let exhausted = || ShipError::Owner("replication deadline exhausted".to_string());
        if deadline.is_cancelled() {
            return Err(exhausted());
        }
        // A reply cut off by the deadline fails the ack: the replica
        // may be healthy, only the budget ran out. Once the failure
        // opens the replica's breaker, it has failed
        // `BREAKER_THRESHOLD` calls in a row and is dropped.
        let reply = self
            .call_backend(replica, Ask::WalApply(bytes), deadline)
            .map_err(|_| {
                if deadline.is_cancelled() && !self.breaker_open(replica) {
                    exhausted()
                } else {
                    ShipError::Replica(())
                }
            })?;
        match reply {
            Reply::Applied(applied) => Ok((applied.applied, applied.consumed)),
            // The replica refused the frames (an `ERROR`).
            _ => Err(ShipError::Replica(())),
        }
    }

    /// Tails `owner`'s WAL from `cursor` with `WAL_SHIP` and applies
    /// it to `replica` until the cursor reaches the owner's tip or
    /// `deadline` fires.
    fn catch_up(
        &self,
        owner: usize,
        replica: usize,
        cursor: &mut Cursor,
        deadline: &CancelToken,
    ) -> Result<u64, ShipError> {
        let mut applied = 0u64;
        for _ in 0..MAX_ROUNDS {
            // Budget exhaustion is an owner-side error, not the
            // replica's fault: fail the ack rather than dropping a
            // healthy replica that ran out of time.
            if deadline.is_cancelled() {
                return Err(ShipError::Owner(
                    "replication deadline exhausted".to_string(),
                ));
            }
            let read = WalShip {
                generation: cursor.generation,
                offset: cursor.offset,
                max_bytes: SHIP_WINDOW_BYTES as u64,
            };
            self.metrics.ship_catchups.inc();
            let export = match self
                .call_backend(owner, Ask::WalShip(read), deadline)
                .map_err(ShipError::Owner)?
            {
                Reply::Segment(segment) => segment,
                Reply::Frame(op::ERROR, payload) => {
                    let error = binary::decode_error(&payload)
                        .map_or("wal_ship failed", |(_, error)| error.message);
                    return Err(ShipError::Owner(error.to_string()));
                }
                other => return Err(ShipError::Owner(other.unexpected())),
            };
            if !export.bytes.is_empty() {
                let (records, consumed) =
                    self.apply_to_replica(replica, &export.bytes, deadline)?;
                applied += records;
                if consumed == 0 {
                    // A window bigger than any frame yielded no full
                    // frame: the tail is torn mid-write. Retry next
                    // observe; do not spin here.
                    return Err(ShipError::Owner(
                        "wal_ship made no progress (torn frame at tail?)".to_string(),
                    ));
                }
                cursor.offset += consumed;
            } else if export.end_of_generation {
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
        let mut cursors = ShipCursors::new(0);
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
