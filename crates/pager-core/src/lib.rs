//! Conference-call paging under delay constraints.
//!
//! This crate implements the primary contribution of Bar-Noy & Malewicz,
//! *“Establishing wireless conference calls under delay constraints”*
//! (PODC 2002; J. Algorithms 51(2), 2004): planning which cells a
//! wireless system should page, over at most `d` rounds, to locate `m`
//! mobile devices whose positions are known only as probability
//! distributions over `c` cells, minimising the expected number of
//! cells paged.
//!
//! # Map of the crate
//!
//! | paper | module |
//! |-------|--------|
//! | §1.2 model, Lemma 2.1 (`f64` or exact, via [`Scalar`]) | [`Instance`], [`Strategy`] |
//! | §4.2 heuristic (Fig. 1, Thm 4.8, `e/(e−1)`) | [`greedy`], [`fig1`], [`dp`] |
//! | §4.1 special case `m = d = 2` (`4/3`) | [`greedy::two_device_two_round`] |
//! | §4.3 lower bound `320/317` | [`lower_bound_instance`] |
//! | m = 1 optimum (refs [11, 16, 17]) | [`single_user`] |
//! | §3 analytic bounds (Lemmas 3.1, 3.4) | [`bounds`] |
//! | exact ground truth for small instances | [`optimal`], [`cell_types`] |
//! | §5 adaptive strategies | [`adaptive`] |
//! | §5 bandwidth-limited paging | [`bandwidth`] |
//! | §5 Yellow Pages / Signature problems | [`yellow_pages`], [`signature`] |
//! | §5 response collisions / lossy paging | [`lossy`] |
//! | Monte-Carlo validation | [`simulation`] |
//!
//! # Quickstart
//!
//! ```
//! use pager_core::{greedy_strategy, Delay, Instance};
//!
//! // Two devices over five cells, at most two paging rounds.
//! let instance = Instance::from_rows(vec![
//!     vec![0.4, 0.3, 0.15, 0.1, 0.05],
//!     vec![0.2, 0.2, 0.2, 0.2, 0.2],
//! ])?;
//! let strategy = greedy_strategy(&instance, Delay::new(2)?);
//! let ep = instance.expected_paging(&strategy)?;
//! assert!(ep < 5.0); // beats blanket paging
//! # Ok::<(), pager_core::Error>(())
//! ```

#![forbid(unsafe_code)]
// Index-based loops are the clearer idiom in limb- and DP-style
// arithmetic where several arrays are co-indexed.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod analysis;
pub mod bandwidth;
pub mod bounds;
pub mod cancel;
pub mod cell_types;
pub mod dp;
mod error;
pub mod fig1;
pub mod fingerprint;
pub mod greedy;
mod instance;
mod json_impls;
pub mod lossy;
pub mod lower_bound_instance;
pub mod moving;
pub mod optimal;
mod scalar;
pub mod signature;
pub mod simulation;
pub mod single_user;
mod strategy;
pub mod yellow_pages;

pub use cancel::CancelToken;
pub use error::{Error, Result};
pub use greedy::{
    greedy_strategy, greedy_strategy_planned, greedy_strategy_planned_cancel, two_device_two_round,
    PlannedStrategy,
};
pub use instance::{Delay, Instance, ROW_SUM_TOL};
pub use scalar::Scalar;
pub use single_user::single_user_optimal;
pub use strategy::Strategy;
