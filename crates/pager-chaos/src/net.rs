//! A registry of chaos proxies plus the schedule driver.
//!
//! [`ChaosNet`] owns one [`ChaosProxy`] per interposed cluster link
//! and knows how to execute a [`Schedule`] against them: sleep until
//! each step's offset, then apply its fault to every link matching
//! the step's pattern.

use std::time::{Duration, Instant};

use crate::proxy::ChaosProxy;
use crate::schedule::{link_matches, Fault, Schedule};

/// All chaos proxies for one cluster under test.
#[derive(Debug, Default)]
pub struct ChaosNet {
    proxies: Vec<ChaosProxy>,
}

impl ChaosNet {
    /// An empty net; links are added as the harness wires them.
    #[must_use]
    pub fn new() -> ChaosNet {
        ChaosNet::default()
    }

    /// Spawns a proxy for `link` forwarding to `upstream` and returns
    /// the address peers should dial instead of the upstream.
    pub fn add(&mut self, link: &str, upstream: &str, seed: u64) -> Result<String, String> {
        if self.proxies.iter().any(|p| p.link() == link) {
            return Err(format!("chaos link {link} already registered"));
        }
        let proxy = ChaosProxy::spawn(link, upstream, seed)?;
        let addr = proxy.addr();
        self.proxies.push(proxy);
        Ok(addr)
    }

    /// Applies `fault` to every link matching `pattern` (literal or
    /// single-`*` glob). Returns how many links matched.
    pub fn apply(&self, pattern: &str, fault: &Fault) -> usize {
        let mut hit = 0;
        for proxy in &self.proxies {
            if link_matches(pattern, proxy.link()) {
                proxy.apply(fault);
                hit += 1;
            }
        }
        hit
    }

    /// Heals every link.
    pub fn heal_all(&self) {
        for proxy in &self.proxies {
            proxy.heal();
        }
    }

    /// Executes a schedule from `t=0` now: sleeps to each step's
    /// `at_ms` offset, then applies its fault to matching links.
    /// Returns per-step match counts (a step matching zero links is
    /// almost always a schedule typo — callers should assert on it).
    pub fn run_schedule(&self, schedule: &Schedule) -> Vec<usize> {
        let start = Instant::now();
        let mut matched = Vec::with_capacity(schedule.steps().len());
        for step in schedule.steps() {
            let due = Duration::from_millis(step.at_ms);
            let elapsed = start.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
            matched.push(self.apply(&step.link, &step.fault));
        }
        matched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Step;
    use std::net::TcpListener;

    fn sink_addr() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind sink");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                drop(stream);
            }
        });
        addr
    }

    #[test]
    fn add_rejects_duplicate_links() {
        let upstream = sink_addr();
        let mut net = ChaosNet::new();
        net.add("router->n0", &upstream, 1).expect("first");
        let err = net.add("router->n0", &upstream, 1).expect_err("dup");
        assert!(err.contains("already registered"), "{err}");
    }

    #[test]
    fn apply_glob_hits_matching_links_only() {
        let upstream = sink_addr();
        let mut net = ChaosNet::new();
        net.add("router->shard-0.r0", &upstream, 1).expect("add");
        net.add("router->shard-0.r1", &upstream, 1).expect("add");
        net.add("router->shard-1.r0", &upstream, 1).expect("add");
        assert_eq!(net.apply("router->shard-0.*", &Fault::Blackhole), 2);
        assert_eq!(net.apply("router->shard-1.r0", &Fault::Heal), 1);
        assert_eq!(net.apply("nope", &Fault::Heal), 0);
    }

    #[test]
    fn run_schedule_reports_match_counts_in_order() {
        let upstream = sink_addr();
        let mut net = ChaosNet::new();
        net.add("router->n0", &upstream, 1).expect("add");
        net.add("router->n1", &upstream, 1).expect("add");
        let schedule = Schedule::new(vec![
            Step {
                at_ms: 0,
                link: "router->*".to_string(),
                fault: Fault::Delay { ms: 1 },
            },
            Step {
                at_ms: 10,
                link: "router->n1".to_string(),
                fault: Fault::Heal,
            },
            Step {
                at_ms: 10,
                link: "missing".to_string(),
                fault: Fault::Heal,
            },
        ]);
        let begin = Instant::now();
        let matched = net.run_schedule(&schedule);
        assert!(begin.elapsed() >= Duration::from_millis(10));
        assert_eq!(matched, vec![2, 1, 0]);
    }
}
