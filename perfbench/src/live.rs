//! The end-to-end runs: real server processes over loopback TCP,
//! closed-loop clients, two connections.
//!
//! The measured window is cut into equal segments. Each segment is a
//! whole run in small: fresh server processes and their set-up, fresh
//! client threads and connections, inputs from the segment's own seed.
//! On two shared cores the rate a segment reaches depends on where the
//! scheduler places the client and server threads and on the server's
//! memory layout, and both stick for seconds; drawing them anew per
//! segment and reporting medians over segments keeps one unlucky draw
//! from deciding the run.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::client;
use crate::gen;
use crate::probe;
use crate::procs;
use crate::stats::Latencies;

/// Where binaries live and scratch files go, plus the run's seed.
pub struct Env {
    pub bin_dir: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
}

impl Env {
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }
}

/// Client connections (and client threads) per workload.
pub const CONNS: usize = 2;
/// Segments per end-to-end run.
pub const SEGMENTS: usize = 15;
pub const STOP_GRACE: Duration = Duration::from_secs(10);

/// Health and cache counters read from the servers after a segment
/// (deltas over the segment where the server keeps totals).
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub cache_hits: f64,
    pub cache_probes: f64,
    pub shed: f64,
    pub downgrades: f64,
    pub coalesced: f64,
    pub retries: f64,
    pub failovers: f64,
    pub breaker_rejections: f64,
    pub shipped_records: f64,
}

impl Counters {
    /// A run that shed, downgraded, retried or failed over measured
    /// overload rather than the code.
    pub fn overloaded(&self) -> bool {
        self.shed + self.downgrades + self.retries + self.failovers > 0.0
    }

    fn add(&mut self, o: &Counters) {
        self.cache_hits += o.cache_hits;
        self.cache_probes += o.cache_probes;
        self.shed += o.shed;
        self.downgrades += o.downgrades;
        self.coalesced += o.coalesced;
        self.retries += o.retries;
        self.failovers += o.failovers;
        self.breaker_rejections += o.breaker_rejections;
        self.shipped_records += o.shipped_records;
    }
}

/// What one segment saw.
#[derive(Debug, Default, Clone)]
pub struct Segment {
    /// Requests answered correctly.
    pub ok: u64,
    /// Measured wall time, in-flight requests drained included.
    pub secs: f64,
    /// CPU seconds the server processes spent in `secs`.
    pub server_cpu_s: f64,
    /// Spawn to ready, preload included.
    pub setup_s: f64,
    /// Summed peak RSS of the server processes.
    pub rss_kib: u64,
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    pub steal_share: f64,
    /// The host-speed probe around the segment (mean of the probes
    /// just before and just after it), in ns per round trip.
    pub probe_ns: f64,
    pub plan: Latencies,
    pub observe: Latencies,
}

/// What a run, one of its segments, or one client measured.
#[derive(Debug, Default)]
pub struct Live {
    pub attempted: u64,
    pub failed: u64,
    pub window_s: f64,
    pub segments: Vec<Segment>,
    pub ep_sum: f64,
    pub ep_n: u64,
    pub client_cpu_s: f64,
    /// Most server threads seen in any segment.
    pub server_threads: u64,
    pub counters: Counters,
    /// Failures outside the measured window (set-up, preload).
    pub setup_failures: u64,
    /// The first few failure descriptions, for stderr.
    pub notes: Vec<String>,
}

impl Live {
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Files one answer's latency, and whether it was correct, under
    /// this client's (single) segment.
    pub fn record(&mut self, ns: u128, observe: bool, ok: bool) {
        if self.segments.is_empty() {
            self.segments.push(Segment::default());
        }
        let seg = &mut self.segments[0];
        if observe {
            seg.observe.push_ns(ns);
        } else {
            seg.plan.push_ns(ns);
        }
        seg.ok += u64::from(ok);
    }

    /// Every latency of one kind across the segments.
    pub fn latencies(&self, observe: bool) -> Latencies {
        let mut all = Latencies::default();
        for seg in &self.segments {
            all.extend(if observe {
                seg.observe.clone()
            } else {
                seg.plan.clone()
            });
        }
        all
    }

    pub fn fail(&mut self, note: impl FnOnce() -> String) {
        self.failed += 1;
        self.note(note());
    }

    pub fn note(&mut self, note: String) {
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Adds `other`'s tallies. Its segments are appended when
    /// `append` (folding segments into a run), merged index by index
    /// otherwise (folding clients into a segment).
    fn absorb(&mut self, other: Live, append: bool) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.window_s += other.window_s;
        if append {
            self.segments.extend(other.segments);
        } else {
            if self.segments.len() < other.segments.len() {
                self.segments
                    .resize(other.segments.len(), Segment::default());
            }
            for (mine, theirs) in self.segments.iter_mut().zip(other.segments) {
                mine.ok += theirs.ok;
                mine.plan.extend(theirs.plan);
                mine.observe.extend(theirs.observe);
            }
        }
        self.ep_sum += other.ep_sum;
        self.ep_n += other.ep_n;
        self.client_cpu_s += other.client_cpu_s;
        self.server_threads = self.server_threads.max(other.server_threads);
        self.counters.add(&other.counters);
        self.setup_failures += other.setup_failures;
        for note in other.notes {
            self.note(note);
        }
    }
}

/// A client of a segment: its connection and its tally.
pub trait Client: Send {
    /// Drives requests until `until`, finishing what is in flight.
    fn drive(&mut self, until: Instant) -> Result<(), String>;
    /// The client's tally.
    fn part(&mut self) -> &mut Live;
}

/// Measures one segment: every client on its own thread until `window`
/// has passed, with the server processes' CPU read around it. Returns
/// the segment's tally with its set-up time still unset.
pub fn measure<C: Client>(
    pids: &[u32],
    window: Duration,
    clients: &mut [C],
) -> Result<Live, String> {
    let client_cpu0 = self_cpu_s();
    let cpu0 = procs::cpu_seconds_of(pids);
    let machine0 = procs::machine_ticks();
    let begun = Instant::now();
    let until = begun + window;
    let results: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| s.spawn(move || c.drive(until)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    for result in results {
        result?;
    }
    let secs = begun.elapsed().as_secs_f64();
    let server_cpu_s = procs::cpu_seconds_of(pids) - cpu0;
    let machine1 = procs::machine_ticks();
    let mut live = Live {
        segments: vec![Segment::default()],
        ..Live::default()
    };
    for c in clients.iter_mut() {
        live.absorb(std::mem::take(c.part()), false);
    }
    live.window_s = secs;
    live.client_cpu_s = self_cpu_s() - client_cpu0;
    live.server_threads = procs::status_sum(pids, "Threads");
    let seg = &mut live.segments[0];
    seg.secs = secs;
    seg.server_cpu_s = server_cpu_s;
    seg.rss_kib = procs::status_sum(pids, "VmHWM");
    let ticks = machine1.1.saturating_sub(machine0.1).max(1);
    seg.steal_share = machine1.0.saturating_sub(machine0.0) as f64 / ticks as f64;
    Ok(live)
}

/// Runs `segments` segments of `window / segments` each, every one with
/// its own seed derived from `seed`, and folds them into one run. The
/// host-speed probe runs before the first segment and after every one,
/// while no server is up.
pub fn run_segments(
    seed: u64,
    window: Duration,
    segments: usize,
    mut segment: impl FnMut(u64, Duration) -> Result<Live, String>,
) -> Result<Live, String> {
    let length = window / segments.max(1) as u32;
    let mut run = Live::default();
    let mut before = probe::probe_ns()?;
    for k in 0..segments {
        let mut part = segment(gen::segment_seed(seed, k), length)?;
        let after = probe::probe_ns()?;
        for seg in &mut part.segments {
            seg.probe_ns = (before + after) / 2.0;
        }
        before = after;
        run.absorb(part, true);
    }
    Ok(run)
}

/// Process-wide client CPU seconds (all benchmark threads).
pub fn self_cpu_s() -> f64 {
    procs::cpu_seconds("self")
}

/// Reads the node's cumulative metrics.
pub fn node_metrics(addr: &str) -> Result<jsonio::Value, String> {
    let reply = client::control(addr, "metrics")?;
    reply
        .get("metrics")
        .cloned()
        .ok_or_else(|| "metrics reply without metrics".to_string())
}
