//! Declarative fault schedules.
//!
//! A [`Schedule`] is an ordered list of [`Step`]s: *at* a millisecond
//! offset from the schedule's start, apply a [`Fault`] to every link
//! whose name matches a pattern. Schedules round-trip through JSON so
//! they can live in a topology file, a test table, or a CI artifact —
//! and so a failing seed's schedule can be replayed verbatim.
//!
//! ```json
//! {"steps": [
//!   {"at_ms": 200,  "link": "router->shard-0.r0", "fault": {"kind": "blackhole"}},
//!   {"at_ms": 250,  "link": "*->shard-0.r1",      "fault": {"kind": "corrupt", "byte_flips": 3, "prob_pct": 60}},
//!   {"at_ms": 1200, "link": "*",                  "fault": {"kind": "heal"}}
//! ]}
//! ```
//!
//! Link names follow the harness convention `router-><node-id>`
//! (every cluster link originates at the router, which also drives
//! owner→replica WAL shipping over its own connections). A pattern is
//! either a literal name, or contains a single `*` matching any
//! substring.

use jsonio::Value;

/// One fault a link can be put under. See the crate docs for the
/// failure mode each models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Fixed forwarding latency added to every chunk, milliseconds.
    Delay {
        /// Added latency per forwarded chunk.
        ms: u64,
    },
    /// Seeded uniform extra latency in `[0, ms]` per chunk.
    Jitter {
        /// Upper bound on the extra latency.
        ms: u64,
    },
    /// Sever every established connection through the link once. New
    /// connections are still accepted.
    DropConn,
    /// Accept connections and deliver nothing in either direction:
    /// the peer's `connect` succeeds, its reads hang until its own
    /// timeout. This is the half-open failure mode.
    Blackhole,
    /// Sever established connections and refuse new ones: the link is
    /// cut both ways until healed.
    Partition,
    /// Bound forwarded throughput, bytes per second.
    Throttle {
        /// Forwarding budget; 0 is treated as fully healed throttle.
        bps: u64,
    },
    /// Flip `byte_flips` payload bytes (XOR with a seeded non-zero
    /// mask at seeded positions) in each affected chunk; a chunk is
    /// affected with probability `prob_pct`/100 (seeded roll).
    Corrupt {
        /// Bytes flipped per corrupted chunk.
        byte_flips: u32,
        /// Percent of chunks corrupted (100 = every chunk).
        prob_pct: u8,
    },
    /// Forward an affected chunk twice; the duplicate trails the
    /// original, desynchronising the peer's stream. A chunk is
    /// affected with probability `prob_pct`/100 (seeded roll).
    DuplicateFrame {
        /// Percent of chunks duplicated (100 = every chunk).
        prob_pct: u8,
    },
    /// Restore transparent forwarding (clears every fault above,
    /// including a partition; connections severed earlier stay dead).
    Heal,
}

impl Fault {
    /// The JSON `kind` tag.
    #[must_use]
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Fault::Delay { .. } => "delay",
            Fault::Jitter { .. } => "jitter",
            Fault::DropConn => "drop_conn",
            Fault::Blackhole => "blackhole",
            Fault::Partition => "partition",
            Fault::Throttle { .. } => "throttle",
            Fault::Corrupt { .. } => "corrupt",
            Fault::DuplicateFrame { .. } => "duplicate_frame",
            Fault::Heal => "heal",
        }
    }

    /// Serializes to a JSON object (`{"kind": ..., ...params}`).
    #[must_use]
    pub(crate) fn to_json(&self) -> Value {
        let mut fields = vec![("kind", Value::from(self.kind()))];
        match self {
            Fault::Delay { ms } | Fault::Jitter { ms } => fields.push(("ms", Value::from(*ms))),
            Fault::Throttle { bps } => fields.push(("bps", Value::from(*bps))),
            Fault::Corrupt {
                byte_flips,
                prob_pct,
            } => {
                fields.push(("byte_flips", Value::from(u64::from(*byte_flips))));
                fields.push(("prob_pct", Value::from(u64::from(*prob_pct))));
            }
            Fault::DuplicateFrame { prob_pct } => {
                fields.push(("prob_pct", Value::from(u64::from(*prob_pct))));
            }
            Fault::DropConn | Fault::Blackhole | Fault::Partition | Fault::Heal => {}
        }
        Value::object(fields)
    }

    /// Parses a fault from its JSON object form.
    pub(crate) fn from_json(value: &Value) -> Result<Fault, String> {
        let kind = value
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| "fault needs a string \"kind\"".to_string())?;
        let ms = || {
            value
                .get("ms")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("fault {kind:?} needs integer \"ms\""))
        };
        let prob_pct = || -> Result<u8, String> {
            match value.get("prob_pct") {
                None => Ok(100),
                Some(v) => v
                    .as_u64()
                    .filter(|&p| p <= 100)
                    .and_then(|p| u8::try_from(p).ok())
                    .ok_or_else(|| format!("fault {kind:?} needs \"prob_pct\" in 0..=100")),
            }
        };
        match kind {
            "delay" => Ok(Fault::Delay { ms: ms()? }),
            "jitter" => Ok(Fault::Jitter { ms: ms()? }),
            "drop_conn" => Ok(Fault::DropConn),
            "blackhole" => Ok(Fault::Blackhole),
            "partition" => Ok(Fault::Partition),
            "throttle" => {
                let bps = value
                    .get("bps")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| "fault \"throttle\" needs integer \"bps\"".to_string())?;
                Ok(Fault::Throttle { bps })
            }
            "corrupt" => {
                let byte_flips = value
                    .get("byte_flips")
                    .and_then(Value::as_u64)
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| "fault \"corrupt\" needs integer \"byte_flips\"".to_string())?;
                Ok(Fault::Corrupt {
                    byte_flips,
                    prob_pct: prob_pct()?,
                })
            }
            "duplicate_frame" => Ok(Fault::DuplicateFrame {
                prob_pct: prob_pct()?,
            }),
            "heal" => Ok(Fault::Heal),
            other => Err(format!("unknown fault kind {other:?}")),
        }
    }
}

/// One schedule entry: at `at_ms` after the schedule starts, apply
/// `fault` to every link matching `link`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Offset from schedule start, milliseconds.
    pub at_ms: u64,
    /// Link pattern: a literal link name, or one `*` matching any
    /// substring (`"*"` matches every link).
    pub link: String,
    /// The fault to apply.
    pub fault: Fault,
}

impl Step {
    /// Serializes to a JSON object.
    #[must_use]
    pub(crate) fn to_json(&self) -> Value {
        Value::object(vec![
            ("at_ms", Value::from(self.at_ms)),
            ("link", Value::from(self.link.as_str())),
            ("fault", self.fault.to_json()),
        ])
    }

    /// Parses a step from its JSON object form.
    pub(crate) fn from_json(value: &Value) -> Result<Step, String> {
        let at_ms = value
            .get("at_ms")
            .and_then(Value::as_u64)
            .ok_or_else(|| "step needs integer \"at_ms\"".to_string())?;
        let link = value
            .get("link")
            .and_then(Value::as_str)
            .ok_or_else(|| "step needs string \"link\"".to_string())?
            .to_string();
        let fault = Fault::from_json(
            value
                .get("fault")
                .ok_or_else(|| "step needs a \"fault\" object".to_string())?,
        )?;
        Ok(Step { at_ms, link, fault })
    }
}

/// An ordered fault schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    steps: Vec<Step>,
}

impl Schedule {
    /// Builds a schedule, sorting steps by `at_ms` (stable: ties keep
    /// their given order).
    #[must_use]
    pub fn new(mut steps: Vec<Step>) -> Schedule {
        steps.sort_by_key(|s| s.at_ms);
        Schedule { steps }
    }

    /// The steps, in execution order.
    #[must_use]
    pub(crate) fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Offset of the last step — how long a driver takes to run the
    /// whole schedule.
    #[must_use]
    pub fn duration_ms(&self) -> u64 {
        self.steps.last().map_or(0, |s| s.at_ms)
    }

    /// Serializes to `{"steps": [...]}`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object(vec![(
            "steps",
            Value::Array(self.steps.iter().map(Step::to_json).collect()),
        )])
    }

    /// Parses a schedule from its JSON object form.
    pub fn from_json(value: &Value) -> Result<Schedule, String> {
        let steps = value
            .get("steps")
            .and_then(Value::as_array)
            .ok_or_else(|| "schedule needs a \"steps\" array".to_string())?;
        let steps = steps
            .iter()
            .map(Step::from_json)
            .collect::<Result<Vec<Step>, String>>()?;
        Ok(Schedule::new(steps))
    }

    /// Parses a schedule from JSON text.
    pub fn parse(text: &str) -> Result<Schedule, String> {
        let value = jsonio::parse(text).map_err(|e| e.to_string())?;
        Schedule::from_json(&value)
    }
}

/// Whether `link` matches `pattern`: equality, or — when the pattern
/// contains one `*` — prefix/suffix match around it.
#[must_use]
pub(crate) fn link_matches(pattern: &str, link: &str) -> bool {
    match pattern.find('*') {
        None => pattern == link,
        Some(star) => {
            let (prefix, rest) = pattern.split_at(star);
            let suffix = &rest[1..];
            link.len() >= prefix.len() + suffix.len()
                && link.starts_with(prefix)
                && link.ends_with(suffix)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_round_trip_through_json() {
        let faults = vec![
            Fault::Delay { ms: 40 },
            Fault::Jitter { ms: 15 },
            Fault::DropConn,
            Fault::Blackhole,
            Fault::Partition,
            Fault::Throttle { bps: 64_000 },
            Fault::Corrupt {
                byte_flips: 3,
                prob_pct: 60,
            },
            Fault::DuplicateFrame { prob_pct: 25 },
            Fault::Heal,
        ];
        for fault in faults {
            let back = Fault::from_json(&fault.to_json()).expect("round trip");
            assert_eq!(back, fault);
        }
    }

    #[test]
    fn schedules_sort_and_round_trip() {
        let schedule = Schedule::new(vec![
            Step {
                at_ms: 900,
                link: "*".into(),
                fault: Fault::Heal,
            },
            Step {
                at_ms: 100,
                link: "router->shard-0.r0".into(),
                fault: Fault::Blackhole,
            },
        ]);
        assert_eq!(schedule.steps()[0].at_ms, 100, "sorted by at_ms");
        assert_eq!(schedule.duration_ms(), 900);
        let text = schedule.to_json().to_string();
        let back = Schedule::parse(&text).expect("parse");
        assert_eq!(back, schedule);
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(Schedule::parse("{\"steps\": 3}").is_err());
        assert!(Schedule::parse("{}").is_err());
        assert!(Fault::from_json(&jsonio::parse("{\"kind\": \"warp\"}").unwrap()).is_err());
        assert!(Fault::from_json(&jsonio::parse("{\"kind\": \"delay\"}").unwrap()).is_err());
        assert!(Fault::from_json(
            &jsonio::parse("{\"kind\": \"corrupt\", \"byte_flips\": 1, \"prob_pct\": 101}")
                .unwrap()
        )
        .is_err());
    }

    #[test]
    fn link_patterns_match() {
        assert!(link_matches("*", "router->shard-0.r0"));
        assert!(link_matches("router->shard-0.r0", "router->shard-0.r0"));
        assert!(!link_matches("router->shard-0.r0", "router->shard-0.r1"));
        assert!(link_matches("*->shard-0.r1", "router->shard-0.r1"));
        assert!(link_matches("router->*", "router->shard-2.r0"));
        assert!(link_matches("router->shard-0.*", "router->shard-0.r1"));
        assert!(!link_matches("*->shard-1.r0", "router->shard-0.r0"));
        // A bare star must not double-count overlapping halves.
        assert!(!link_matches("ab*ba", "aba"));
    }
}
