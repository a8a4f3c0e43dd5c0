//! Cluster topology specification.
//!
//! A [`Topology`] is the declarative input to the orchestration
//! harness and the `pager-cluster launch` subcommand: how many shards,
//! how many replicas behind each, and the per-node service tuning that
//! every `pager-serve` process is launched with. It round-trips
//! through JSON so a spec can live in a file or be embedded in CI.
//!
//! A topology may carry a [`ChaosSpec`]: a seed plus a declarative
//! `pager-chaos` fault schedule. When present, the harness interposes
//! one chaos proxy per node on the `router-><node-id>` link, and the
//! invariant checker (see [`crate::invariants`]) can execute the
//! schedule against the live cluster.

use jsonio::Value;
use pager_chaos::Schedule;

/// Declarative description of a cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Number of shards (primary owners). Keys are spread across these.
    pub shards: usize,
    /// Warm replicas per shard (0 = no failover capacity).
    pub replicas: usize,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: u32,
    /// Planning workers per node.
    pub workers: usize,
    /// Admission queue depth per node.
    pub queue_depth: usize,
    /// Closed WAL generations each node retains for followers.
    pub wal_retain: u64,
    /// Sightings between checkpoints (0 = never checkpoint).
    pub checkpoint_every: u64,
    /// Optional network fault injection: when set, the harness routes
    /// every router→node link through a seeded chaos proxy.
    pub chaos: Option<ChaosSpec>,
}

/// Seeded network fault injection for a launched cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Seed for every random fault decision (jitter, corruption
    /// positions, duplication rolls). The same seed and schedule
    /// replay the same decision stream.
    pub seed: u64,
    /// The fault schedule to run against the links.
    pub schedule: Schedule,
}

impl ChaosSpec {
    /// Serializes to a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("seed", Value::from(self.seed)),
            ("schedule", self.schedule.to_json()),
        ])
    }

    /// Parses a chaos spec from its JSON object form.
    pub fn from_json(value: &Value) -> Result<ChaosSpec, String> {
        let seed = value
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or_else(|| "chaos needs integer \"seed\"".to_string())?;
        let schedule = Schedule::from_json(
            value
                .get("schedule")
                .ok_or_else(|| "chaos needs a \"schedule\" object".to_string())?,
        )?;
        Ok(ChaosSpec { seed, schedule })
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology {
            shards: 3,
            replicas: 1,
            vnodes: 64,
            workers: 2,
            queue_depth: 256,
            wal_retain: 8,
            checkpoint_every: 0,
            chaos: None,
        }
    }
}

impl Topology {
    /// Shard names, `shard-0 .. shard-{n-1}`. These are ring members
    /// and stable across replica failovers: promotion changes which
    /// *process* backs a shard, never the shard's identity.
    #[must_use]
    pub fn shard_names(&self) -> Vec<String> {
        (0..self.shards).map(|i| format!("shard-{i}")).collect()
    }

    /// Node id for replica `r` of shard `s`: the owner is
    /// `shard-{s}.r0`, warm replicas `shard-{s}.r1..`.
    #[must_use]
    pub fn node_id(&self, shard: usize, replica: usize) -> String {
        format!("shard-{shard}.r{replica}")
    }

    /// Total processes the topology launches.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.shards * (self.replicas + 1)
    }

    /// Serializes to a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("shards", Value::Int(self.shards as i64)),
            ("replicas", Value::Int(self.replicas as i64)),
            ("vnodes", Value::Int(i64::from(self.vnodes))),
            ("workers", Value::Int(self.workers as i64)),
            ("queue_depth", Value::Int(self.queue_depth as i64)),
            ("wal_retain", Value::Int(self.wal_retain as i64)),
            ("checkpoint_every", Value::Int(self.checkpoint_every as i64)),
        ];
        if let Some(chaos) = &self.chaos {
            fields.push(("chaos", chaos.to_json()));
        }
        Value::object(fields)
    }

    /// Builds a topology from a JSON object; absent fields keep their
    /// defaults, present fields must parse.
    pub fn from_json(value: &Value) -> Result<Topology, String> {
        let mut t = Topology::default();
        let fields = value
            .as_object()
            .ok_or_else(|| "topology must be a JSON object".to_string())?;
        for (key, v) in fields {
            match key.as_str() {
                "shards" => t.shards = usize_field(v, "shards", 1)?,
                "replicas" => t.replicas = usize_field(v, "replicas", 0)?,
                "vnodes" => {
                    let n = usize_field(v, "vnodes", 1)?;
                    t.vnodes = u32::try_from(n).map_err(|_| "vnodes is too large".to_string())?;
                }
                "workers" => t.workers = usize_field(v, "workers", 1)?,
                "queue_depth" => t.queue_depth = usize_field(v, "queue_depth", 1)?,
                "wal_retain" => {
                    t.wal_retain = v
                        .as_u64()
                        .ok_or_else(|| "wal_retain must be a non-negative integer".to_string())?;
                }
                "checkpoint_every" => {
                    t.checkpoint_every = v.as_u64().ok_or_else(|| {
                        "checkpoint_every must be a non-negative integer".to_string()
                    })?;
                }
                "chaos" => t.chaos = Some(ChaosSpec::from_json(v)?),
                other => return Err(format!("unknown topology field {other:?}")),
            }
        }
        Ok(t)
    }

    /// Parses a topology from JSON text.
    pub fn parse(text: &str) -> Result<Topology, String> {
        let value = jsonio::parse(text).map_err(|e| e.to_string())?;
        Topology::from_json(&value)
    }
}

fn usize_field(value: &Value, name: &str, min: usize) -> Result<usize, String> {
    value
        .as_usize()
        .filter(|&n| n >= min)
        .ok_or_else(|| format!("{name} must be an integer >= {min}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_json() {
        let t = Topology {
            shards: 5,
            replicas: 2,
            vnodes: 16,
            workers: 4,
            queue_depth: 32,
            wal_retain: 3,
            checkpoint_every: 100,
            chaos: None,
        };
        let back = Topology::from_json(&t.to_json()).expect("round trip");
        assert_eq!(back, t);
        assert_eq!(back.nodes(), 15);
        assert_eq!(back.node_id(2, 1), "shard-2.r1");
        assert_eq!(back.shard_names()[4], "shard-4");
    }

    #[test]
    fn chaos_spec_round_trips() {
        let t = Topology {
            chaos: Some(ChaosSpec {
                seed: 42,
                schedule: pager_chaos::Schedule::parse(
                    r#"{"steps": [
                        {"at_ms": 100, "link": "router->shard-0.r0", "fault": {"kind": "blackhole"}},
                        {"at_ms": 900, "link": "*", "fault": {"kind": "heal"}}
                    ]}"#,
                )
                .expect("schedule"),
            }),
            ..Topology::default()
        };
        let back = Topology::from_json(&t.to_json()).expect("round trip");
        assert_eq!(back, t);
        let spec = back.chaos.expect("chaos kept");
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.schedule.duration_ms(), 900);
        // Junk chaos specs are rejected, not silently dropped.
        assert!(Topology::parse("{\"chaos\": {\"seed\": 1}}").is_err());
        assert!(Topology::parse("{\"chaos\": {\"schedule\": {\"steps\": []}}}").is_err());
    }

    #[test]
    fn parse_applies_defaults_and_rejects_junk() {
        let t = Topology::parse("{\"shards\": 2}").expect("partial spec");
        assert_eq!(t.shards, 2);
        assert_eq!(t.replicas, Topology::default().replicas);
        assert!(Topology::parse("{\"shards\": 0}").is_err());
        assert!(Topology::parse("{\"warp\": 9}").is_err());
        assert!(Topology::parse("[1,2]").is_err());
    }
}
