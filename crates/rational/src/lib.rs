//! Exact arbitrary-precision arithmetic: [`BigInt`] and [`Ratio`].
//!
//! This crate is the numerical substrate of the `conference-call` workspace.
//! The NP-hardness reductions of Bar-Noy & Malewicz (Section 3 of the paper)
//! distinguish expected-paging values that differ by `O(1/S^2)` where `S` is
//! a sum of Partition sizes, and the Section 4.3 lower bound is the exact
//! fraction `320/317`. Floating point cannot certify either, so the
//! workspace computes expected paging exactly over the rationals.
//!
//! The crate is self-contained (no dependencies) and implements:
//!
//! * [`BigInt`] — sign-magnitude arbitrary-precision integers over `u32`
//!   limbs, with schoolbook and Karatsuba multiplication, Knuth Algorithm D
//!   division, binary GCD, exponentiation, radix-10 parsing and printing;
//! * [`Ratio`] — always-normalised exact rationals with total ordering,
//!   field arithmetic, exact conversion from `f64`, and rounding back.
//!
//! # Examples
//!
//! ```
//! use rational::{BigInt, Ratio};
//!
//! let a = BigInt::from(10u32).pow(40);
//! let b = &a + &BigInt::from(1u32);
//! assert_eq!((&b - &a).to_string(), "1");
//!
//! // The Section 4.3 lower-bound ratio, exactly.
//! let heuristic = Ratio::new(BigInt::from(320), BigInt::from(49));
//! let optimal = Ratio::new(BigInt::from(317), BigInt::from(49));
//! assert_eq!((&heuristic / &optimal).to_string(), "320/317");
//! ```

#![forbid(unsafe_code)]
// Index-based loops are the clearer idiom in limb- and DP-style
// arithmetic where several arrays are co-indexed.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

mod bigint;
mod bigint_ops;
mod convert;
mod json_impls;
mod parse;
mod ratio;

pub use bigint::BigInt;
pub use parse::ParseBigIntError;
pub use ratio::{ParseRatioError, Ratio};
