//! Seeded inputs for every workload. The servers only ever see what
//! these functions generate from `--seed`.

use std::collections::HashSet;

use pager_cluster::ShardMap;
use pager_core::Instance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::{DistributionFamily, InstanceGenerator};

/// Cache grid the servers run with (the `pager-serve` default).
pub const GRID: u32 = 1000;
/// Distinct hot instances: they fit the 4,096-entry cache.
pub const HOT_INSTANCES: usize = 1024;
/// Cells per device in cluster-mixed.
pub const CLUSTER_CELLS: usize = 16;
/// Conference groups in cluster-mixed (2–4 members each, ≈2k devices).
pub const CLUSTER_GROUPS: usize = 672;
/// The cluster's shard count and the ring's virtual nodes per shard
/// (the `pager-cluster launch` topology defaults).
pub const SHARDS: usize = 2;
pub const VNODES: u32 = 64;

/// Independent random streams derived from one seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The seed of segment `k` of a run seeded with `seed`.
pub fn segment_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k as u64)
}

/// Stream ids, one per input set.
pub mod stream {
    pub const HOT: u64 = 1;
    pub const COLD: u64 = 10;
    pub const CLUSTER: u64 = 30;
    pub const CLUSTER_OPS: u64 = 40;
    pub const TRACE: u64 = 50;
}

/// Every family except `Uniform`, whose instances repeat exactly for
/// equal sizes and would turn "fresh" cold requests into cache hits.
const FAMILIES: [DistributionFamily; 5] = [
    DistributionFamily::Zipf,
    DistributionFamily::Geometric,
    DistributionFamily::GaussianLine,
    DistributionFamily::Dirichlet,
    DistributionFamily::Hotspot,
];

fn instance(rng: &mut StdRng, m: usize, c: usize) -> Instance {
    let family = FAMILIES[rng.gen_range(0..FAMILIES.len())];
    InstanceGenerator::new(family).generate(m, c, rng)
}

/// Which tier a generated plan request is sized for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Exact,
    Greedy,
}

impl Tier {
    pub fn name(self) -> &'static str {
        match self {
            Tier::Exact => "exact",
            Tier::Greedy => "greedy",
        }
    }
}

/// One plan request: an instance and its delay bound.
#[derive(Debug, Clone)]
pub struct PlanInput {
    pub instance: Instance,
    pub delay: usize,
    pub tier: Tier,
}

impl PlanInput {
    /// The tier the default `TierPolicy` (exact up to 10 cells and 4
    /// devices) picks for these dimensions.
    fn sized(instance: Instance, delay: usize) -> PlanInput {
        let tier = if instance.num_cells() <= 10 && instance.num_devices() <= 4 {
            Tier::Exact
        } else {
            Tier::Greedy
        };
        PlanInput {
            instance,
            delay,
            tier,
        }
    }
}

/// The hot instance set the traced run serves from a warm cache:
/// `HOT_INSTANCES` distinct instances with a fixed size schedule
/// (c = 8–32, m = 2–4, d = 2–4) so only the probabilities depend on
/// the seed.
pub fn hot_set(seed: u64) -> Vec<PlanInput> {
    let mut rng = rng(seed, stream::HOT);
    let mut seen = HashSet::new();
    let mut set = Vec::with_capacity(HOT_INSTANCES);
    for j in 0..HOT_INSTANCES {
        let c = 8 + j % 25;
        let m = 2 + (j / 25) % 3;
        let d = 2 + (j / 75) % 3;
        loop {
            let inst = instance(&mut rng, m, c);
            if seen.insert((inst.fingerprint64(GRID), d)) {
                set.push(PlanInput::sized(inst, d));
                break;
            }
        }
    }
    set
}

/// Cold-plan sizes: every fourth request is exact-tier (c = 8–10,
/// m = 2–4, d = 2–3), the rest greedy-tier (c = 64–256, m = 2–8,
/// d = 2–8). Cell counts cycle so each run has the same size mix.
pub const EXACT_CELLS: [usize; 3] = [8, 9, 10];
pub const GREEDY_CELLS: [usize; 3] = [64, 128, 256];

/// An endless, seeded stream of fresh (cold) plan requests.
pub struct ColdStream {
    rng: StdRng,
    k: usize,
}

impl ColdStream {
    pub fn new(seed: u64, stream_id: u64) -> ColdStream {
        ColdStream {
            rng: rng(seed, stream_id),
            k: 0,
        }
    }
}

impl Iterator for ColdStream {
    type Item = PlanInput;

    fn next(&mut self) -> Option<PlanInput> {
        let k = self.k;
        self.k += 1;
        let input = if k.is_multiple_of(4) {
            let c = EXACT_CELLS[(k / 4) % EXACT_CELLS.len()];
            let m = self.rng.gen_range(2..=4);
            let d = self.rng.gen_range(2..=3);
            PlanInput::sized(instance(&mut self.rng, m, c), d)
        } else {
            let g = k - k / 4 - 1;
            let c = GREEDY_CELLS[g % GREEDY_CELLS.len()];
            let m = self.rng.gen_range(2..=8);
            let d = self.rng.gen_range(2..=8);
            PlanInput::sized(instance(&mut self.rng, m, c), d)
        };
        Some(input)
    }
}

/// A cluster-mixed device: its name and the cell it is usually seen in.
#[derive(Debug, Clone)]
pub struct Device {
    pub name: String,
    pub home: usize,
}

/// A conference group: 2–4 devices the ring places on one shard, and
/// the client connection that owns (and alone writes) them.
#[derive(Debug, Clone)]
pub struct Group {
    pub devices: Vec<usize>,
    pub conn: usize,
}

/// The cluster-mixed population.
pub struct Population {
    pub devices: Vec<Device>,
    pub groups: Vec<Group>,
}

impl Population {
    /// Groups owned by connection `conn`.
    pub fn groups_of(&self, conn: usize) -> Vec<usize> {
        (0..self.groups.len())
            .filter(|&g| self.groups[g].conn == conn)
            .collect()
    }

    /// Devices owned by connection `conn`.
    pub fn devices_of(&self, conn: usize) -> Vec<usize> {
        self.groups_of(conn)
            .into_iter()
            .flat_map(|g| self.groups[g].devices.iter().copied())
            .collect()
    }
}

/// Shard names as the cluster names them.
pub fn shard_names() -> Vec<String> {
    (0..SHARDS).map(|i| format!("shard-{i}")).collect()
}

/// Builds the device population under `prefix`. Group `g` lives on
/// shard `g % SHARDS`: member names are salted until `ShardMap::owner`
/// maps them there, so a group's `plan_devices` never spans shards.
pub fn population(seed: u64, prefix: &str) -> Population {
    let mut rng = rng(seed, stream::CLUSTER);
    let names = shard_names();
    let ring = ShardMap::new(&names, VNODES, 0);
    let mut devices = Vec::new();
    let mut groups = Vec::with_capacity(CLUSTER_GROUPS);
    for g in 0..CLUSTER_GROUPS {
        let home_shard = names[g % SHARDS].as_str();
        let members = rng.gen_range(2..=4);
        let mut ids = Vec::with_capacity(members);
        for j in 0..members {
            let name = (0u32..)
                .map(|salt| format!("{prefix}g{g}m{j}s{salt}"))
                .find(|name| ring.owner(name) == Some(home_shard))
                .unwrap_or_default();
            ids.push(devices.len());
            devices.push(Device {
                name,
                home: rng.gen_range(0..CLUSTER_CELLS),
            });
        }
        groups.push(Group {
            devices: ids,
            conn: (g / SHARDS) % 2,
        });
    }
    Population { devices, groups }
}

/// One cluster-mixed operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// One sighting of `device` in `cell`.
    Observe { device: usize, cell: usize },
    /// A plan for `group` under `delay`.
    Plan { group: usize, delay: usize },
}

/// A connection's endless op stream: three observes, then one plan.
pub struct OpStream<'a> {
    pop: &'a Population,
    devices: Vec<usize>,
    groups: Vec<usize>,
    rng: StdRng,
    k: usize,
}

impl<'a> OpStream<'a> {
    pub fn new(pop: &'a Population, seed: u64, conn: usize) -> OpStream<'a> {
        OpStream {
            pop,
            devices: pop.devices_of(conn),
            groups: pop.groups_of(conn),
            rng: rng(seed, stream::CLUSTER_OPS + conn as u64),
            k: 0,
        }
    }
}

impl Iterator for OpStream<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let k = self.k;
        self.k += 1;
        if k % 4 == 3 {
            let group = self.groups[self.rng.gen_range(0..self.groups.len())];
            let delay = self.rng.gen_range(2..=4);
            Some(Op::Plan { group, delay })
        } else {
            let device = self.devices[self.rng.gen_range(0..self.devices.len())];
            // Mostly the device's home cell, sometimes anywhere.
            let cell = if self.rng.gen_bool(0.7) {
                self.pop.devices[device].home
            } else {
                self.rng.gen_range(0..CLUSTER_CELLS)
            };
            Some(Op::Observe { device, cell })
        }
    }
}

/// A v1 `observe` line for a batch of `(device name, cell)` sightings
/// at `time`.
pub fn observe_line(id: u64, sightings: &[(&str, usize)], time: u64) -> String {
    let body: Vec<String> = sightings
        .iter()
        .map(|(d, c)| format!(r#"{{"device": "{d}", "cell": {c}, "time": {time}.0}}"#))
        .collect();
    format!(
        r#"{{"cmd": "observe", "id": {id}, "cells": {CLUSTER_CELLS}, "sightings": [{}]}}"#,
        body.join(", ")
    )
}

/// A v1 `plan_devices` line with an explicit `now`.
pub fn plan_devices_line(id: u64, devices: &[&str], delay: usize, now: u64) -> String {
    let names: Vec<String> = devices.iter().map(|d| format!("\"{d}\"")).collect();
    format!(
        r#"{{"cmd": "plan_devices", "id": {id}, "devices": [{}], "delay": {delay}, "now": {now}.0, "deadline_ms": 5000}}"#,
        names.join(", ")
    )
}
