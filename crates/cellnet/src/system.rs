//! The system simulator: terminals, reports, calls, paging.
//!
//! Ties the substrate together into the pipeline the paper motivates
//! (Section 1.1):
//!
//! 1. terminals roam a [`Topology`] under a mobility model and *report*
//!    whenever they cross a [`LocationAreaPlan`] boundary (consuming
//!    wireless links);
//! 2. conference calls arrive; for each participant the system knows
//!    only the last-reported location area;
//! 3. per area, the system estimates the participants' conditional cell
//!    distributions from their movement histories and asks a
//!    [`PagingPlanner`] for a `d`-round strategy;
//! 4. paging runs until the participants are found, consuming wireless
//!    links per cell paged.
//!
//! The planner is a trait so this crate stays independent of the
//! optimiser: [`BlanketPlanner`] reproduces the GSM MAP / IS-41
//! baseline, and the root crate wires in the paper's
//! `e/(e−1)`-approximation.

use crate::area::LocationAreaPlan;
use crate::cost::LinkUsage;
use crate::events::{Event, EventQueue, Time};
use crate::mobility::MobilityModel;
use crate::terminal::Terminal;
use crate::topology::Topology;
use pager_profiles::estimators::empirical_from_counts;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Laplace smoothing mass per cell in the location estimate.
const SMOOTHING: f64 = 0.5;

/// Plans a paging strategy for one location area.
///
/// `rows[i]` is participant `i`'s estimated distribution over the
/// area's cells (local indices `0..rows[i].len()`, each row summing to
/// one). The returned groups must partition those local indices into at
/// most `delay` non-empty rounds.
pub trait PagingPlanner {
    /// Produces the paging groups.
    fn plan(&self, rows: &[Vec<f64>], delay: usize) -> Vec<Vec<usize>>;
}

/// The GSM MAP / IS-41 baseline: page every cell of the area at once.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlanketPlanner;

impl PagingPlanner for BlanketPlanner {
    fn plan(&self, rows: &[Vec<f64>], _delay: usize) -> Vec<Vec<usize>> {
        let c = rows.first().map_or(0, Vec::len);
        vec![(0..c).collect()]
    }
}

/// Static configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The cell graph.
    pub topology: Topology,
    /// The location-area partition.
    pub areas: LocationAreaPlan,
    /// Number of terminals.
    pub num_terminals: usize,
    /// Movement-history window per terminal.
    pub history_cap: usize,
    /// Mean time between movement steps of one terminal (exponential).
    pub mean_move_interval: Time,
    /// Mean time between conference-call arrivals (exponential).
    pub mean_call_interval: Time,
    /// Participants per conference call.
    pub call_size: usize,
    /// Paging delay bound `d` passed to the planner.
    pub paging_delay: usize,
    /// Simulation end time.
    pub horizon: Time,
    /// Mean time between power toggles per terminal (`None` = always
    /// on). Powered-off terminals do not report crossings (their known
    /// area goes stale) and do not answer pages (searches for them
    /// fail even after the global fallback).
    pub mean_power_toggle: Option<Time>,
}

impl SystemConfig {
    /// A reasonable default configuration over a given topology.
    #[must_use]
    pub fn new(topology: Topology, areas: LocationAreaPlan, num_terminals: usize) -> SystemConfig {
        SystemConfig {
            topology,
            areas,
            num_terminals,
            history_cap: 256,
            mean_move_interval: 1.0,
            mean_call_interval: 5.0,
            call_size: 2,
            paging_delay: 2,
            horizon: 1000.0,
            mean_power_toggle: None,
        }
    }
}

/// Outcome of one conference-call establishment.
#[derive(Debug, Clone, PartialEq)]
pub struct CallRecord {
    /// When the call arrived.
    pub time: Time,
    /// The participants.
    pub participants: Vec<usize>,
    /// Cells paged across all areas involved.
    pub cells_paged: u64,
    /// Paging rounds used (max across areas, paged in parallel).
    pub rounds: u64,
    /// Whether every participant was found (always true when terminals
    /// report reliably).
    pub found_all: bool,
}

/// Aggregate outcome of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationOutcome {
    /// Wireless-link usage tallies.
    pub usage: LinkUsage,
    /// Per-call records in arrival order.
    pub calls: Vec<CallRecord>,
    /// Total terminal movement steps executed.
    pub moves: u64,
}

/// The system simulator.
#[derive(Debug)]
pub struct System<M: MobilityModel> {
    config: SystemConfig,
    terminals: Vec<Terminal>,
    mobility: Vec<M>,
    /// Last area each terminal reported from.
    known_area: Vec<usize>,
    rng: StdRng,
}

impl<M: MobilityModel> System<M> {
    /// Creates a system with one mobility model per terminal, placing
    /// terminals uniformly at random.
    ///
    /// # Panics
    ///
    /// Panics if `mobility.len() != config.num_terminals`, if there are
    /// no terminals, or if `call_size` exceeds the number of terminals.
    #[must_use]
    pub fn new(config: SystemConfig, mobility: Vec<M>, seed: u64) -> System<M> {
        assert_eq!(
            mobility.len(),
            config.num_terminals,
            "one mobility model per terminal"
        );
        assert!(config.num_terminals > 0, "need at least one terminal");
        assert!(
            config.call_size >= 1 && config.call_size <= config.num_terminals,
            "call size must be between 1 and the number of terminals"
        );
        assert!(config.paging_delay >= 1, "paging delay must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let c = config.topology.num_cells();
        let terminals: Vec<Terminal> = (0..config.num_terminals)
            .map(|_| Terminal::new(rng.gen_range(0..c), config.history_cap))
            .collect();
        let known_area = terminals
            .iter()
            .map(|t| config.areas.area_of(t.cell()))
            .collect();
        System {
            config,
            terminals,
            mobility,
            known_area,
            rng,
        }
    }

    fn exp_interval(rng: &mut StdRng, mean: Time) -> Time {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        -mean * u.ln()
    }

    /// Estimates a terminal's conditional distribution over the cells
    /// of its known area (local indices).
    fn estimate_in_area(&self, terminal: usize) -> Vec<f64> {
        let area = self.known_area[terminal];
        let history = self.terminals[terminal].history();
        // Count sightings per area cell.
        let counts: Vec<f64> = self
            .config
            .areas
            .cells_in(area)
            .iter()
            .map(|&cell| history.iter().filter(|&&h| h == cell).count() as f64)
            .collect();
        empirical_from_counts(&counts, SMOOTHING)
    }

    /// Establishes one conference call, returning the record.
    fn establish_call(
        &mut self,
        time: Time,
        participants: &[usize],
        planner: &dyn PagingPlanner,
        usage: &mut LinkUsage,
    ) -> CallRecord {
        // Group participants by known area.
        let mut by_area: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for &p in participants {
            by_area.entry(self.known_area[p]).or_default().push(p);
        }
        let mut cells_paged = 0u64;
        let mut rounds_max = 0u64;
        let mut paged = vec![false; self.config.topology.num_cells()];
        let mut leftover: Vec<usize> = Vec::new();
        for (area, group) in by_area {
            let cells = self.config.areas.cells_in(area).to_vec();
            let rows: Vec<Vec<f64>> = group.iter().map(|&p| self.estimate_in_area(p)).collect();
            let delay = self.config.paging_delay.min(cells.len());
            let groups = planner.plan(&rows, delay);
            debug_assert!(
                groups.iter().map(Vec::len).sum::<usize>() == cells.len(),
                "planner must partition the area"
            );
            // Page round by round until all of `group` found. Only a
            // powered-on terminal in a paged cell answers.
            let mut unfound: Vec<usize> = group.clone();
            let mut rounds = 0u64;
            for g in &groups {
                rounds += 1;
                cells_paged += g.len() as u64;
                let paged_cells: Vec<usize> = g.iter().map(|&local| cells[local]).collect();
                for &cell in &paged_cells {
                    paged[cell] = true;
                }
                unfound.retain(|&p| {
                    !(self.terminals[p].is_powered()
                        && paged_cells.contains(&self.terminals[p].cell()))
                });
                if unfound.is_empty() {
                    break;
                }
            }
            rounds_max = rounds_max.max(rounds);
            leftover.extend(unfound);
        }
        // Global fallback: a participant was not in its known area (its
        // reports went stale while powered off) — page every remaining
        // cell in one extra round. Powered-off participants still do
        // not answer: the call fails for them.
        let mut found_all = true;
        if !leftover.is_empty() {
            let fallback: Vec<usize> = (0..paged.len()).filter(|&cell| !paged[cell]).collect();
            if !fallback.is_empty() {
                cells_paged += fallback.len() as u64;
                rounds_max += 1;
                leftover.retain(|&p| {
                    !(self.terminals[p].is_powered()
                        && fallback.contains(&self.terminals[p].cell()))
                });
            }
            found_all = leftover.is_empty();
        }
        usage.pages += cells_paged;
        usage.searches += 1;
        usage.paging_rounds += rounds_max;
        CallRecord {
            time,
            participants: participants.to_vec(),
            cells_paged,
            rounds: rounds_max,
            found_all,
        }
    }

    /// Runs the simulation to the horizon with the given planner.
    pub fn run(&mut self, planner: &dyn PagingPlanner) -> SimulationOutcome {
        let mut queue = EventQueue::new();
        let mut usage = LinkUsage::new();
        let mut calls = Vec::new();
        let mut moves = 0u64;
        // Prime the queue.
        for t in 0..self.config.num_terminals {
            let dt = Self::exp_interval(&mut self.rng, self.config.mean_move_interval);
            queue.schedule(dt, Event::Move { terminal: t });
        }
        let dt = Self::exp_interval(&mut self.rng, self.config.mean_call_interval);
        queue.schedule(
            dt,
            Event::Call {
                participants: self.draw_participants(),
            },
        );
        if let Some(mean_toggle) = self.config.mean_power_toggle {
            for t in 0..self.config.num_terminals {
                let dt = Self::exp_interval(&mut self.rng, mean_toggle);
                queue.schedule(
                    dt,
                    Event::Power {
                        terminal: t,
                        on: false,
                    },
                );
            }
        }
        while let Some((time, event)) = queue.pop() {
            if time > self.config.horizon {
                break;
            }
            match event {
                Event::Move { terminal } => {
                    moves += 1;
                    let current = self.terminals[terminal].cell();
                    let next = self.mobility[terminal].next_cell(
                        current,
                        &self.config.topology,
                        &mut self.rng,
                    );
                    if next != current {
                        self.terminals[terminal].move_to(next);
                        if self.config.areas.crosses_boundary(current, next)
                            && self.terminals[terminal].is_powered()
                        {
                            usage.reports += 1;
                            self.known_area[terminal] = self.config.areas.area_of(next);
                        }
                    }
                    let dt = Self::exp_interval(&mut self.rng, self.config.mean_move_interval);
                    queue.schedule_in(dt, Event::Move { terminal });
                }
                Event::Call { participants } => {
                    let record = self.establish_call(time, &participants, planner, &mut usage);
                    calls.push(record);
                    let dt = Self::exp_interval(&mut self.rng, self.config.mean_call_interval);
                    queue.schedule_in(
                        dt,
                        Event::Call {
                            participants: self.draw_participants(),
                        },
                    );
                }
                Event::Power { terminal, on } => {
                    self.terminals[terminal].set_powered(on);
                    if on {
                        // GSM attach: a terminal reports its location
                        // area when switched back on.
                        usage.reports += 1;
                        self.known_area[terminal] =
                            self.config.areas.area_of(self.terminals[terminal].cell());
                    }
                    if let Some(mean_toggle) = self.config.mean_power_toggle {
                        let dt = Self::exp_interval(&mut self.rng, mean_toggle);
                        queue.schedule_in(dt, Event::Power { terminal, on: !on });
                    }
                }
            }
        }
        SimulationOutcome {
            usage,
            calls,
            moves,
        }
    }

    /// Draws distinct random participants for a call.
    fn draw_participants(&mut self) -> Vec<usize> {
        let mut chosen = Vec::with_capacity(self.config.call_size);
        while chosen.len() < self.config.call_size {
            let t = self.rng.gen_range(0..self.config.num_terminals);
            if !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::RandomWalk;
    use crate::topology::Topology;

    fn small_system(seed: u64) -> System<RandomWalk> {
        let topology = Topology::grid(4, 4);
        let areas = LocationAreaPlan::tiles(&topology, 2, 2);
        let mut config = SystemConfig::new(topology, areas, 4);
        config.horizon = 200.0;
        config.mean_call_interval = 3.0;
        let mobility = (0..4).map(|_| RandomWalk::new(0.2)).collect();
        System::new(config, mobility, seed)
    }

    #[test]
    fn blanket_run_finds_everyone() {
        let mut sys = small_system(42);
        let outcome = sys.run(&BlanketPlanner);
        assert!(!outcome.calls.is_empty());
        assert!(outcome.calls.iter().all(|c| c.found_all));
        assert!(outcome.usage.pages > 0);
        assert!(outcome.usage.searches == outcome.calls.len() as u64);
        assert!(outcome.moves > 0);
    }

    #[test]
    fn blanket_pages_whole_areas() {
        let mut sys = small_system(7);
        let outcome = sys.run(&BlanketPlanner);
        for call in &outcome.calls {
            // Each area has 4 cells; 2 participants hit at most 2 areas.
            assert!(call.cells_paged % 4 == 0, "{call:?}");
            assert!(call.cells_paged <= 8);
            assert_eq!(call.rounds, 1);
        }
    }

    #[test]
    fn seeded_runs_reproduce() {
        let a = small_system(99).run(&BlanketPlanner);
        let b = small_system(99).run(&BlanketPlanner);
        assert_eq!(a.usage, b.usage);
        assert_eq!(a.calls.len(), b.calls.len());
    }

    #[test]
    fn reports_counted_on_boundary_crossings() {
        let mut sys = small_system(5);
        let outcome = sys.run(&BlanketPlanner);
        // With 4 terminals walking ~200 steps each over 2x2 tiles,
        // boundary crossings must occur.
        assert!(outcome.usage.reports > 0);
    }

    #[test]
    fn two_round_planner_reduces_pages() {
        // A planner that pages the most likely half first.
        struct Halver;
        impl PagingPlanner for Halver {
            fn plan(&self, rows: &[Vec<f64>], delay: usize) -> Vec<Vec<usize>> {
                let c = rows[0].len();
                if delay < 2 || c < 2 {
                    return vec![(0..c).collect()];
                }
                let weight = |j: usize| -> f64 { rows.iter().map(|r| r[j]).sum() };
                let mut order: Vec<usize> = (0..c).collect();
                order.sort_by(|&a, &b| weight(b).total_cmp(&weight(a)));
                let (first, second) = order.split_at(c / 2);
                vec![first.to_vec(), second.to_vec()]
            }
        }
        let blanket = small_system(123).run(&BlanketPlanner);
        let halved = small_system(123).run(&Halver);
        assert!(
            halved.usage.pages < blanket.usage.pages,
            "halved {} vs blanket {}",
            halved.usage.pages,
            blanket.usage.pages
        );
        // Reporting traffic is identical (same seed, same movement).
        assert_eq!(halved.usage.reports, blanket.usage.reports);
        assert!(halved.calls.iter().all(|c| c.found_all));
    }

    #[test]
    fn power_cycling_causes_failures_and_fallbacks() {
        let topology = Topology::grid(4, 4);
        let areas = LocationAreaPlan::tiles(&topology, 2, 2);
        let mut config = SystemConfig::new(topology, areas, 4);
        config.horizon = 400.0;
        config.mean_call_interval = 2.0;
        config.mean_power_toggle = Some(6.0);
        let mobility = (0..4).map(|_| RandomWalk::new(0.2)).collect();
        let mut sys = System::new(config, mobility, 31);
        let outcome = sys.run(&BlanketPlanner);
        assert!(!outcome.calls.is_empty());
        // With frequent toggling some calls must fail (a participant
        // was powered off when paged).
        let failures = outcome.calls.iter().filter(|c| !c.found_all).count();
        assert!(failures > 0, "expected at least one failed call");
        // And some calls needed the global fallback: with 2x2 areas a
        // blanket page per area is 4 cells; a fallback call pages more
        // than 2 areas' worth.
        let fallbacks = outcome.calls.iter().filter(|c| c.cells_paged > 8).count();
        assert!(fallbacks > 0, "expected fallback paging to trigger");
        // Power-on attach reports are included in the tally.
        assert!(outcome.usage.reports > 0);
    }

    #[test]
    fn always_on_systems_never_fail() {
        let mut sys = small_system(64);
        let outcome = sys.run(&BlanketPlanner);
        assert!(outcome.calls.iter().all(|c| c.found_all));
    }

    #[test]
    fn config_guards() {
        let topology = Topology::line(4);
        let areas = LocationAreaPlan::single(&topology);
        let config = SystemConfig::new(topology, areas, 2);
        let result =
            std::panic::catch_unwind(move || System::new(config, vec![RandomWalk::new(0.1)], 0));
        assert!(result.is_err(), "mobility count mismatch must panic");
    }
}
