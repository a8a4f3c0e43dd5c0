//! The [`Ratio`] type: exact, always-normalised rational numbers.

use crate::bigint::BigInt;
use crate::parse::ParseBigIntError;
use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, Div, Mul, Neg, Sub};
use core::str::FromStr;

/// An exact rational number `num / den`.
///
/// Invariants: `den > 0`, `gcd(|num|, den) == 1`, and zero is `0/1`.
///
/// # Examples
///
/// ```
/// use rational::Ratio;
///
/// let third = Ratio::from_fraction(1, 3);
/// let sum = &third + &third + &third;
/// assert_eq!(sum, Ratio::from_integer(1));
/// assert!(third < Ratio::from_fraction(1, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: BigInt,
    den: BigInt,
}

/// Error returned when a string cannot be parsed as a [`Ratio`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatioError {
    msg: String,
}

impl fmt::Display for ParseRatioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {}", self.msg)
    }
}

impl std::error::Error for ParseRatioError {}

impl From<ParseBigIntError> for ParseRatioError {
    fn from(e: ParseBigIntError) -> Self {
        ParseRatioError { msg: e.to_string() }
    }
}

impl Ratio {
    /// Creates `num / den`, normalising sign and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    #[must_use]
    pub fn new(num: BigInt, den: BigInt) -> Ratio {
        assert!(!den.is_zero(), "Ratio with zero denominator");
        let (num, den) = if den.is_negative() {
            (-num, -den)
        } else {
            (num, den)
        };
        if num.is_zero() {
            return Ratio {
                num: BigInt::zero(),
                den: BigInt::one(),
            };
        }
        let g = num.gcd(&den);
        Ratio {
            num: &num / &g,
            den: &den / &g,
        }
    }

    /// The rational zero.
    #[must_use]
    pub fn zero() -> Ratio {
        Ratio {
            num: BigInt::zero(),
            den: BigInt::one(),
        }
    }

    /// The rational one.
    #[must_use]
    pub fn one() -> Ratio {
        Ratio {
            num: BigInt::one(),
            den: BigInt::one(),
        }
    }

    /// Creates an integer-valued rational.
    #[must_use]
    pub fn from_integer(v: i64) -> Ratio {
        Ratio {
            num: BigInt::from(v),
            den: BigInt::one(),
        }
    }

    /// Creates `num / den` from machine integers.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    #[must_use]
    pub fn from_fraction(num: i64, den: i64) -> Ratio {
        Ratio::new(BigInt::from(num), BigInt::from(den))
    }

    /// Converts a finite `f64` to the **exact** rational it represents
    /// (every finite double is a dyadic rational).
    ///
    /// Returns `None` for NaN or infinities.
    ///
    /// ```
    /// use rational::Ratio;
    /// assert_eq!(Ratio::from_f64(0.5), Some(Ratio::from_fraction(1, 2)));
    /// assert_eq!(Ratio::from_f64(f64::NAN), None);
    /// ```
    #[must_use]
    pub fn from_f64(v: f64) -> Option<Ratio> {
        if !v.is_finite() {
            return None;
        }
        // lint:allow(no-float-eq): exact zero test, ±0.0 both map to zero
        if v == 0.0 {
            return Some(Ratio::zero());
        }
        let bits = v.abs().to_bits();
        let raw_exp = ((bits >> 52) & 0x7FF) as i64;
        let (mantissa, exponent) = if raw_exp == 0 {
            (bits & ((1u64 << 52) - 1), -1074i64)
        } else {
            ((bits & ((1u64 << 52) - 1)) | (1u64 << 52), raw_exp - 1075)
        };
        let m = BigInt::from(mantissa);
        let r = if exponent >= 0 {
            Ratio::new(m.shl_bits(exponent as u64), BigInt::one())
        } else {
            Ratio::new(m, BigInt::one().shl_bits((-exponent) as u64))
        };
        Some(if v < 0.0 { -r } else { r })
    }

    /// Approximates as `f64` (rounds via numerator/denominator floats with
    /// a scale correction for huge operands).
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        let nb = self.num.bits() as i64;
        let db = self.den.bits() as i64;
        // Rescale so both parts convert without overflow/underflow.
        let excess = (nb.max(db) - 900).max(0);
        let n = self.num.shr_bits(excess as u64).to_f64();
        let d = self.den.shr_bits(excess as u64).to_f64();
        // lint:allow(no-float-eq): exact zero sentinel from shr_bits underflow
        if d == 0.0 {
            // Denominator vanished under shifting: the value is enormous.
            return if self.num.is_negative() {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            };
        }
        n / d
    }

    /// The (reduced) numerator.
    #[must_use]
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// The (reduced, positive) denominator.
    #[must_use]
    pub fn denom(&self) -> &BigInt {
        &self.den
    }

    /// Returns `true` iff the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Returns `true` iff the value is strictly negative.
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Returns `true` iff the value is strictly positive.
    #[must_use]
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// Returns `true` iff the value is an integer.
    #[must_use]
    pub fn is_integer(&self) -> bool {
        self.den.is_one()
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    #[must_use]
    pub fn recip(&self) -> Ratio {
        assert!(!self.is_zero(), "reciprocal of zero");
        Ratio::new(self.den.clone(), self.num.clone())
    }

    /// Raises to an integer power (negative exponents invert).
    ///
    /// # Panics
    ///
    /// Panics when raising zero to a negative power.
    #[must_use]
    pub fn pow(&self, exp: i32) -> Ratio {
        if exp >= 0 {
            Ratio {
                num: self.num.pow(exp as u32),
                den: self.den.pow(exp as u32),
            }
        } else {
            self.recip().pow(-exp)
        }
    }

    /// Absolute value.
    #[cfg(test)]
    fn abs(&self) -> Ratio {
        Ratio {
            num: self.num.abs(),
            den: self.den.clone(),
        }
    }

    /// Largest integer `<= self`.
    #[must_use]
    pub fn floor(&self) -> BigInt {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_negative() {
            q - BigInt::one()
        } else {
            q
        }
    }

    /// Smallest integer `>= self`.
    #[must_use]
    pub fn ceil(&self) -> BigInt {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_positive() {
            q + BigInt::one()
        } else {
            q
        }
    }

    fn add_inner(&self, other: &Ratio) -> Ratio {
        Ratio::new(
            &(&self.num * &other.den) + &(&other.num * &self.den),
            &self.den * &other.den,
        )
    }

    fn mul_inner(&self, other: &Ratio) -> Ratio {
        Ratio::new(&self.num * &other.num, &self.den * &other.den)
    }
}

impl Default for Ratio {
    fn default() -> Ratio {
        Ratio::zero()
    }
}

impl From<BigInt> for Ratio {
    fn from(v: BigInt) -> Ratio {
        Ratio {
            num: v,
            den: BigInt::one(),
        }
    }
}

impl From<i64> for Ratio {
    fn from(v: i64) -> Ratio {
        Ratio::from_integer(v)
    }
}

impl From<u64> for Ratio {
    fn from(v: u64) -> Ratio {
        Ratio {
            num: BigInt::from(v),
            den: BigInt::one(),
        }
    }
}

impl From<usize> for Ratio {
    fn from(v: usize) -> Ratio {
        Ratio {
            num: BigInt::from(v),
            den: BigInt::one(),
        }
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Ratio) -> Ordering {
        // Denominators are positive, so cross-multiplication preserves order.
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

impl fmt::Display for Ratio {
    /// Formats as `num/den`, or just `num` for integers.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl FromStr for Ratio {
    type Err = ParseRatioError;

    /// Parses `"a/b"`, a plain integer `"a"`, or a decimal `"a.b"`.
    fn from_str(s: &str) -> Result<Ratio, ParseRatioError> {
        if let Some((n, d)) = s.split_once('/') {
            let num: BigInt = n.trim().parse()?;
            let den: BigInt = d.trim().parse()?;
            if den.is_zero() {
                return Err(ParseRatioError {
                    msg: "zero denominator".into(),
                });
            }
            return Ok(Ratio::new(num, den));
        }
        if let Some((int_part, frac_part)) = s.split_once('.') {
            let negative = int_part.trim_start().starts_with('-');
            let int: BigInt = if int_part.is_empty() || int_part == "-" || int_part == "+" {
                BigInt::zero()
            } else {
                int_part.parse()?
            };
            if frac_part.is_empty() || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseRatioError {
                    msg: format!("bad fractional part {frac_part:?}"),
                });
            }
            let frac: BigInt = frac_part.parse()?;
            let scale = BigInt::from(10u8).pow(frac_part.len() as u32);
            let int_abs = int.abs();
            let combined = &int_abs * &scale + frac;
            let r = Ratio::new(combined, scale);
            return Ok(if negative { -r } else { r });
        }
        let num: BigInt = s.trim().parse()?;
        Ok(Ratio::from(num))
    }
}

macro_rules! forward_ratio_binop {
    ($trait:ident, $method:ident) => {
        impl $trait<Ratio> for Ratio {
            type Output = Ratio;
            fn $method(self, rhs: Ratio) -> Ratio {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Ratio> for Ratio {
            type Output = Ratio;
            fn $method(self, rhs: &Ratio) -> Ratio {
                (&self).$method(rhs)
            }
        }
        impl $trait<Ratio> for &Ratio {
            type Output = Ratio;
            fn $method(self, rhs: Ratio) -> Ratio {
                self.$method(&rhs)
            }
        }
    };
}

impl Add<&Ratio> for &Ratio {
    type Output = Ratio;
    fn add(self, rhs: &Ratio) -> Ratio {
        self.add_inner(rhs)
    }
}
forward_ratio_binop!(Add, add);

impl Sub<&Ratio> for &Ratio {
    type Output = Ratio;
    fn sub(self, rhs: &Ratio) -> Ratio {
        self.add_inner(&-rhs.clone())
    }
}
forward_ratio_binop!(Sub, sub);

impl Mul<&Ratio> for &Ratio {
    type Output = Ratio;
    fn mul(self, rhs: &Ratio) -> Ratio {
        self.mul_inner(rhs)
    }
}
forward_ratio_binop!(Mul, mul);

impl Div<&Ratio> for &Ratio {
    type Output = Ratio;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: &Ratio) -> Ratio {
        self.mul_inner(&rhs.recip())
    }
}
forward_ratio_binop!(Div, div);

impl Neg for Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        Ratio {
            num: -self.num,
            den: self.den,
        }
    }
}

impl Neg for &Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        -self.clone()
    }
}

impl core::iter::Sum for Ratio {
    fn sum<I: Iterator<Item = Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::zero(), |acc, x| &acc + &x)
    }
}

impl<'a> core::iter::Sum<&'a Ratio> for Ratio {
    fn sum<I: Iterator<Item = &'a Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::zero(), |acc, x| &acc + x)
    }
}

impl core::iter::Product for Ratio {
    fn product<I: Iterator<Item = Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::one(), |acc, x| &acc * &x)
    }
}

impl<'a> core::iter::Product<&'a Ratio> for Ratio {
    fn product<I: Iterator<Item = &'a Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::one(), |acc, x| &acc * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Ratio {
        Ratio::from_fraction(n, d)
    }

    #[test]
    fn normalisation() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, 5), Ratio::zero());
        assert_eq!(r(0, -5).denom(), &BigInt::one());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(BigInt::one(), BigInt::zero());
    }

    #[test]
    fn field_arithmetic() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), r(2, 1));
        assert_eq!(-r(1, 2), r(-1, 2));
        assert_eq!(r(1, 2) + r(-1, 2), Ratio::zero());
    }

    #[test]
    fn ordering_is_total() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(-1, 2) < Ratio::zero());
        assert!(r(7, 7) == Ratio::one());
        let mut v = vec![r(3, 4), r(-1, 2), r(2, 3), Ratio::zero()];
        v.sort();
        assert_eq!(v, vec![r(-1, 2), Ratio::zero(), r(2, 3), r(3, 4)]);
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(r(7, 2).floor(), BigInt::from(3));
        assert_eq!(r(7, 2).ceil(), BigInt::from(4));
        assert_eq!(r(-7, 2).floor(), BigInt::from(-4));
        assert_eq!(r(-7, 2).ceil(), BigInt::from(-3));
        assert_eq!(r(4, 2).floor(), BigInt::from(2));
        assert_eq!(r(4, 2).ceil(), BigInt::from(2));
    }

    #[test]
    fn powers() {
        assert_eq!(r(2, 3).pow(2), r(4, 9));
        assert_eq!(r(2, 3).pow(-2), r(9, 4));
        assert_eq!(r(2, 3).pow(0), Ratio::one());
        assert_eq!(r(-1, 2).pow(3), r(-1, 8));
    }

    #[test]
    fn f64_round_trip_dyadics() {
        for v in [0.0, 0.5, -0.75, 1.0, 3.25, 2f64.powi(-30), 1048576.0] {
            let q = Ratio::from_f64(v).unwrap();
            assert_eq!(q.to_f64(), v, "{v}");
        }
        assert!(Ratio::from_f64(f64::INFINITY).is_none());
    }

    #[test]
    fn f64_of_third_is_not_third() {
        // 1/3 is not dyadic: from_f64 must return the *exact* double.
        let q = Ratio::from_f64(1.0 / 3.0).unwrap();
        assert_ne!(q, r(1, 3));
        assert!((&q - &r(1, 3)).abs() < r(1, 1 << 52));
    }

    #[test]
    fn parse_forms() {
        assert_eq!("3/4".parse::<Ratio>().unwrap(), r(3, 4));
        assert_eq!("-3/4".parse::<Ratio>().unwrap(), r(-3, 4));
        assert_eq!("3/-4".parse::<Ratio>().unwrap(), r(-3, 4));
        assert_eq!("5".parse::<Ratio>().unwrap(), r(5, 1));
        assert_eq!("0.25".parse::<Ratio>().unwrap(), r(1, 4));
        assert_eq!("-0.2".parse::<Ratio>().unwrap(), r(-1, 5));
        assert_eq!("-.5".parse::<Ratio>().unwrap(), r(-1, 2));
        assert!("1/0".parse::<Ratio>().is_err());
        assert!("a/b".parse::<Ratio>().is_err());
        assert!("1.x".parse::<Ratio>().is_err());
    }

    #[test]
    fn display_round_trips() {
        for q in [r(22, 7), r(-5, 3), r(4, 1), Ratio::zero()] {
            let s = q.to_string();
            assert_eq!(s.parse::<Ratio>().unwrap(), q, "{s}");
        }
        assert_eq!(r(4, 2).to_string(), "2");
        assert_eq!(r(1, 2).to_string(), "1/2");
    }

    #[test]
    fn sums_and_products() {
        let xs = [r(1, 2), r(1, 3), r(1, 6)];
        let s: Ratio = xs.iter().sum();
        assert_eq!(s, Ratio::one());
        let p: Ratio = xs.iter().product();
        assert_eq!(p, r(1, 36));
    }

    #[test]
    fn paper_lower_bound_fraction() {
        // Section 4.3: heuristic 320/49 vs optimal 317/49.
        let h = r(320, 49);
        let o = r(317, 49);
        assert_eq!(&h / &o, r(320, 317));
        assert!(&h / &o < r(4, 3));
    }

    #[test]
    fn to_f64_huge_values() {
        let huge = Ratio::from(BigInt::from(10u8).pow(400));
        assert!(huge.to_f64().is_infinite());
        let tiny = huge.recip();
        assert!(tiny.to_f64() >= 0.0 && tiny.to_f64() < 1e-300);
    }
}
