//! A cellular-network simulator: the substrate grounding the
//! Conference Call paging model of Bar-Noy & Malewicz (PODC 2002).
//!
//! The paper's model assumes each mobile device's location is given as
//! a probability distribution over the cells of a location area. This
//! crate produces those inputs the way a real system would (Section 1.1
//! of the paper): terminals roam a cell [`topology::Topology`] under
//! [`mobility`] models, report crossings of [`area::LocationAreaPlan`]
//! boundaries, and each terminal's cell distribution is estimated
//! from its movement history with the Laplace rule of
//! `pager_profiles::estimators`. The
//! [`system::System`] discrete-event simulator ties it together and
//! accounts wireless-link cost ([`CostModel`]) for both reporting and paging, so
//! the classic reporting-vs-paging trade-off can be measured against
//! any paging planner (the root crate plugs in the paper's
//! `e/(e−1)`-approximation).
//!
//! # Example
//!
//! ```
//! use cellnet::area::LocationAreaPlan;
//! use cellnet::mobility::RandomWalk;
//! use cellnet::system::{BlanketPlanner, System, SystemConfig};
//! use cellnet::topology::Topology;
//!
//! let topology = Topology::grid(4, 4);
//! let areas = LocationAreaPlan::tiles(&topology, 2, 2);
//! let mut config = SystemConfig::new(topology, areas, 3);
//! config.horizon = 50.0;
//! let mobility = (0..3).map(|_| RandomWalk::new(0.2)).collect();
//! let mut system = System::new(config, mobility, 7);
//! let outcome = system.run(&BlanketPlanner);
//! assert!(outcome.calls.iter().all(|c| c.found_all));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
mod cost;
mod events;
pub mod mobility;
pub mod stats;
pub mod system;
mod terminal;
pub mod topology;

pub use area::LocationAreaPlan;
pub use cost::{CostModel, LinkUsage};
pub use stats::Accumulator;
pub use system::{BlanketPlanner, PagingPlanner, SimulationOutcome, System, SystemConfig};
pub use topology::Topology;
