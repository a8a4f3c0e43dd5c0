//! NP-hardness reduction pipeline for the Conference Call problem
//! (Section 3 of Bar-Noy & Malewicz, PODC 2002 / J. Algorithms 2004).
//!
//! The chain of reductions, each implemented and verified end to end on
//! small instances with exact rational arithmetic:
//!
//! ```text
//! Partition ──(Lemma 3.7)──▶ Quasipartition2 ──(Lemma 3.6)──▶ Multipartition
//!     │                            │
//!     │                    (QP1 = the member with M = 3,
//!     │                     r_u = 1/3, r_v = 2/3, x_u = x_v = 1/2)
//!     ▼                            ▼
//! Quasipartition1 ──(Lemma 3.2)──▶ Conference Call (m = 2, d = 2)
//! ```
//!
//! plus the Section 5 device lift `(c, 2, d) → (c + 1, m, d + 1)` and
//! the Section 5.1 Quadratic Assignment Problem encoding of the
//! two-device full-delay case.
//!
//! The headline consequence (Corollary 3.3 / Theorem 3.8): the
//! Conference Call problem is NP-hard, already for every fixed `m ≥ 2`
//! and `d ≥ 2` — which is why the `e/(e−1)`-approximation of Section 4
//! (implemented in [`pager_core`]) is the right tool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device_lift;
pub mod multipartition;
pub mod partition;
pub mod qap;
pub mod quasipartition;
pub mod reduction;

pub use multipartition::MultipartitionParams;
pub use partition::PartitionInstance;
pub use quasipartition::{Qp1Instance, Qp2Params};
pub use reduction::{quasipartition1_to_conference_call, verify_reduction};
