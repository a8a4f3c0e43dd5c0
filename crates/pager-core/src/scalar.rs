//! The two number systems of the paper, behind one trait.
//!
//! The Section 4 heuristic runs in `f64`, which is what the server
//! executes; the Section 3 reductions and the Section 4.3 `320/317`
//! bound need exact [`Ratio`]s. [`crate::Instance`], Lemma 2.1, the
//! Fig. 1 greedy, the cut DP and the exhaustive optimum are each written
//! once over [`Scalar`], and monomorphise to plain float code for `f64`.

use std::cell::RefCell;
use std::cmp::Ordering;

use crate::instance::ROW_SUM_TOL;
use jsonio::Value;
use rational::Ratio;

/// The arithmetic an instance, its expected paging and the cut DP run
/// on. Sealed: only `f64` and [`Ratio`] implement it. Cell weights are
/// the std [`Sum`](core::iter::Sum), so `f64` keeps its own summation.
pub trait Scalar: Clone + PartialOrd + for<'a> core::iter::Sum<&'a Self> + sealed::Tables {
    /// What [`crate::Instance::prob`] hands out: the value for `f64`, a
    /// borrow for [`Ratio`].
    type Entry<'a>
    where
        Self: 'a;
    /// The additive identity.
    fn zero() -> Self;
    /// The multiplicative identity.
    fn one() -> Self;
    /// `self + rhs`.
    fn add(&self, rhs: &Self) -> Self;
    /// `self − rhs`.
    fn sub(&self, rhs: &Self) -> Self;
    /// `self · rhs`.
    fn mul(&self, rhs: &Self) -> Self;
    /// `count · self`.
    fn times(&self, count: usize) -> Self;
    /// A total order: `f64::total_cmp` for floats.
    fn total_cmp(&self, rhs: &Self) -> Ordering;
    /// The nearest `f64`, for [`crate::Error`] values.
    fn to_f64(&self) -> f64;
    /// `self` as [`Scalar::Entry`].
    fn entry(&self) -> Self::Entry<'_>;
    /// Whether `self` may be a probability: non-negative, and finite
    /// for `f64`.
    fn is_probability(&self) -> bool;
    /// Whether a row sum counts as one: within [`ROW_SUM_TOL`] for
    /// `f64`, exactly for [`Ratio`].
    fn is_unit_sum(&self) -> bool;
    /// One probability as JSON: a number for `f64`, a ratio string for
    /// [`Ratio`].
    fn to_json(&self) -> Value;
    /// Parses one probability written by [`Scalar::to_json`].
    ///
    /// # Errors
    ///
    /// A message when `value` is not of that shape.
    fn from_json(value: &Value) -> Result<Self, String>;
}

mod sealed {
    /// Where a [`super::Scalar`] keeps the DP's tables, off the public trait.
    pub trait Tables: Sized {
        /// Runs `f` on the DP's savings and cut tables, which the DP clears
        /// and resizes before use. The default allocates them per call.
        fn with_tables<R>(f: impl FnOnce(&mut Vec<Self>, &mut Vec<usize>) -> R) -> R {
            f(&mut Vec::new(), &mut Vec::new())
        }
    }
}

thread_local! {
    static F64_TABLES: RefCell<(Vec<f64>, Vec<usize>)> = RefCell::default();
}

impl Scalar for f64 {
    type Entry<'a> = f64;
    fn zero() -> f64 {
        0.0
    }
    fn one() -> f64 {
        1.0
    }
    fn add(&self, rhs: &f64) -> f64 {
        self + rhs
    }
    fn sub(&self, rhs: &f64) -> f64 {
        self - rhs
    }
    fn mul(&self, rhs: &f64) -> f64 {
        self * rhs
    }
    fn times(&self, count: usize) -> f64 {
        count as f64 * self
    }
    fn total_cmp(&self, rhs: &f64) -> Ordering {
        f64::total_cmp(self, rhs)
    }
    fn to_f64(&self) -> f64 {
        *self
    }
    fn entry(&self) -> f64 {
        *self
    }
    fn is_probability(&self) -> bool {
        self.is_finite() && *self >= 0.0
    }
    fn is_unit_sum(&self) -> bool {
        (self - 1.0).abs() <= ROW_SUM_TOL
    }
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
    fn from_json(value: &Value) -> Result<f64, String> {
        value
            .as_f64()
            .ok_or_else(|| format!("probability must be a number, got {value}"))
    }
}

impl sealed::Tables for f64 {
    /// The float DP runs on every greedy/bandwidth-tier plan, and its
    /// tables are the dominant per-solve allocation. A thread-local
    /// arena means a worker thread allocates them once at the largest
    /// `(d, c)` it has seen and then re-solves allocation-free — part
    /// of the wire fast path's steady-state zero-allocation budget.
    fn with_tables<R>(f: impl FnOnce(&mut Vec<f64>, &mut Vec<usize>) -> R) -> R {
        F64_TABLES.with(|tables| {
            let (best, cut) = &mut *tables.borrow_mut();
            f(best, cut)
        })
    }
}

impl Scalar for Ratio {
    type Entry<'a> = &'a Ratio;
    fn zero() -> Ratio {
        Ratio::zero()
    }
    fn one() -> Ratio {
        Ratio::one()
    }
    fn add(&self, rhs: &Ratio) -> Ratio {
        self + rhs
    }
    fn sub(&self, rhs: &Ratio) -> Ratio {
        self - rhs
    }
    fn mul(&self, rhs: &Ratio) -> Ratio {
        self * rhs
    }
    fn times(&self, count: usize) -> Ratio {
        &Ratio::from(count) * self
    }
    fn total_cmp(&self, rhs: &Ratio) -> Ordering {
        self.cmp(rhs)
    }
    fn to_f64(&self) -> f64 {
        Ratio::to_f64(self)
    }
    fn entry(&self) -> &Ratio {
        self
    }
    fn is_probability(&self) -> bool {
        !self.is_negative()
    }
    fn is_unit_sum(&self) -> bool {
        *self == Ratio::one()
    }
    fn to_json(&self) -> Value {
        Ratio::to_json(self)
    }
    fn from_json(value: &Value) -> Result<Ratio, String> {
        Ratio::from_json(value)
    }
}

impl sealed::Tables for Ratio {}
