//! The [`BigInt`] type: sign-magnitude arbitrary-precision integers.
//!
//! The magnitude is a little-endian vector of `u32` limbs with no trailing
//! zero limbs; zero is represented by an empty limb vector and
//! [`Sign::Zero`]. All arithmetic lives in [`crate::bigint_ops`]; this
//! module defines the representation, invariants, constructors, ordering
//! and small accessors.

use core::cmp::Ordering;

/// Sign of a [`BigInt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Sign {
    /// Strictly negative.
    Minus,
    /// Exactly zero (the magnitude is empty).
    Zero,
    /// Strictly positive.
    Plus,
}

impl Sign {
    /// Returns the opposite sign (`Zero` stays `Zero`).
    #[must_use]
    pub(crate) fn negate(self) -> Sign {
        match self {
            Sign::Minus => Sign::Plus,
            Sign::Zero => Sign::Zero,
            Sign::Plus => Sign::Minus,
        }
    }

    /// Sign of the product of two signs.
    #[must_use]
    pub(crate) fn combine(self, other: Sign) -> Sign {
        match (self, other) {
            (Sign::Zero, _) | (_, Sign::Zero) => Sign::Zero,
            (Sign::Plus, Sign::Plus) | (Sign::Minus, Sign::Minus) => Sign::Plus,
            _ => Sign::Minus,
        }
    }
}

/// An arbitrary-precision signed integer.
///
/// # Examples
///
/// ```
/// use rational::BigInt;
///
/// let x: BigInt = "123456789012345678901234567890".parse()?;
/// let y = &x * &x;
/// assert!(y > x);
/// # Ok::<(), rational::ParseBigIntError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    pub(crate) sign: Sign,
    /// Little-endian `u32` limbs; empty iff `sign == Sign::Zero`;
    /// the last limb is never zero.
    pub(crate) mag: Vec<u32>,
}

impl BigInt {
    /// The integer zero.
    #[must_use]
    pub fn zero() -> BigInt {
        BigInt {
            sign: Sign::Zero,
            mag: Vec::new(),
        }
    }

    /// The integer one.
    #[must_use]
    pub fn one() -> BigInt {
        BigInt {
            sign: Sign::Plus,
            mag: vec![1],
        }
    }

    /// Builds a `BigInt` from a sign and little-endian limbs, normalising
    /// trailing zero limbs and the zero sign.
    #[must_use]
    pub(crate) fn from_sign_mag(sign: Sign, mut mag: Vec<u32>) -> BigInt {
        while mag.last() == Some(&0) {
            mag.pop();
        }
        if mag.is_empty() {
            return BigInt::zero();
        }
        debug_assert!(sign != Sign::Zero, "nonzero magnitude with Zero sign");
        BigInt { sign, mag }
    }

    /// Returns `true` iff the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// Returns `true` iff the value is one.
    #[must_use]
    pub(crate) fn is_one(&self) -> bool {
        self.sign == Sign::Plus && self.mag == [1]
    }

    /// Returns `true` iff the value is strictly negative.
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Minus
    }

    /// Returns `true` iff the value is strictly positive.
    #[must_use]
    pub(crate) fn is_positive(&self) -> bool {
        self.sign == Sign::Plus
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(&self) -> BigInt {
        BigInt {
            sign: if self.sign == Sign::Minus {
                Sign::Plus
            } else {
                self.sign
            },
            mag: self.mag.clone(),
        }
    }

    /// Number of bits in the magnitude (`0` for zero).
    #[must_use]
    pub(crate) fn bits(&self) -> u64 {
        match self.mag.last() {
            None => 0,
            Some(&top) => (self.mag.len() as u64 - 1) * 32 + u64::from(32 - top.leading_zeros()),
        }
    }

    /// Compares magnitudes, ignoring signs.
    #[must_use]
    pub(crate) fn cmp_mag(a: &[u32], b: &[u32]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for (x, y) in a.iter().rev().zip(b.iter().rev()) {
            match x.cmp(y) {
                Ordering::Equal => {}
                non_eq => return non_eq,
            }
        }
        Ordering::Equal
    }

    /// Asserts representation invariants (debug builds only).
    pub(crate) fn debug_check(&self) {
        debug_assert!(
            self.mag.last() != Some(&0),
            "trailing zero limb: {:?}",
            self.mag
        );
        debug_assert_eq!(self.mag.is_empty(), self.sign == Sign::Zero);
    }
}

impl Default for BigInt {
    fn default() -> BigInt {
        BigInt::zero()
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &BigInt) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &BigInt) -> Ordering {
        let rank = |s: Sign| match s {
            Sign::Minus => 0_u8,
            Sign::Zero => 1,
            Sign::Plus => 2,
        };
        match rank(self.sign).cmp(&rank(other.sign)) {
            Ordering::Equal => {}
            non_eq => return non_eq,
        }
        match self.sign {
            Sign::Zero => Ordering::Equal,
            Sign::Plus => BigInt::cmp_mag(&self.mag, &other.mag),
            Sign::Minus => BigInt::cmp_mag(&other.mag, &self.mag),
        }
    }
}

macro_rules! impl_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> BigInt {
                let mut v = v as u128;
                let mut mag = Vec::new();
                while v != 0 {
                    mag.push((v & 0xFFFF_FFFF) as u32);
                    v >>= 32;
                }
                BigInt::from_sign_mag(if mag.is_empty() { Sign::Zero } else { Sign::Plus }, mag)
            }
        }
    )*};
}

macro_rules! impl_from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> BigInt {
                let neg = v < 0;
                // Two's-complement-safe absolute value.
                let mut m = (v as i128).unsigned_abs();
                let mut mag = Vec::new();
                while m != 0 {
                    mag.push((m & 0xFFFF_FFFF) as u32);
                    m >>= 32;
                }
                let sign = if mag.is_empty() {
                    Sign::Zero
                } else if neg {
                    Sign::Minus
                } else {
                    Sign::Plus
                };
                BigInt::from_sign_mag(sign, mag)
            }
        }
    )*};
}

impl_from_unsigned!(u8, u16, u32, u64, u128, usize);
impl_from_signed!(i8, i16, i32, i64, i128, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_representation() {
        let z = BigInt::zero();
        assert!(z.is_zero());
        assert!(!z.is_positive());
        assert!(!z.is_negative());
        assert_eq!(z.bits(), 0);
        assert_eq!(BigInt::from(0u32), z);
        assert_eq!(BigInt::from(0i64), z);
        assert_eq!(BigInt::default(), z);
    }

    #[test]
    fn from_primitives_round_sign() {
        assert!(BigInt::from(5u8).is_positive());
        assert!(BigInt::from(-5i8).is_negative());
        assert_eq!(BigInt::from(i64::MIN).to_string(), i64::MIN.to_string());
        assert_eq!(BigInt::from(u128::MAX).to_string(), u128::MAX.to_string());
        assert_eq!(BigInt::from(i128::MIN).to_string(), i128::MIN.to_string());
    }

    #[test]
    fn ordering_across_signs() {
        let neg = BigInt::from(-7);
        let zero = BigInt::zero();
        let pos = BigInt::from(7);
        assert!(neg < zero);
        assert!(zero < pos);
        assert!(neg < pos);
        assert!(BigInt::from(-10) < BigInt::from(-2));
        assert!(BigInt::from(10) > BigInt::from(2));
    }

    #[test]
    fn ordering_by_limb_count() {
        let small = BigInt::from(u32::MAX);
        let big = BigInt::from(u64::from(u32::MAX) + 1);
        assert!(small < big);
        assert!(big.abs() > small.abs());
    }

    #[test]
    fn bits_counts() {
        assert_eq!(BigInt::from(1u32).bits(), 1);
        assert_eq!(BigInt::from(2u32).bits(), 2);
        assert_eq!(BigInt::from(255u32).bits(), 8);
        assert_eq!(BigInt::from(256u32).bits(), 9);
        assert_eq!(BigInt::from(u64::MAX).bits(), 64);
    }

    #[test]
    fn sign_algebra() {
        assert_eq!(Sign::Plus.negate(), Sign::Minus);
        assert_eq!(Sign::Zero.negate(), Sign::Zero);
        assert_eq!(Sign::Minus.combine(Sign::Minus), Sign::Plus);
        assert_eq!(Sign::Minus.combine(Sign::Plus), Sign::Minus);
        assert_eq!(Sign::Zero.combine(Sign::Plus), Sign::Zero);
    }

    #[test]
    fn one_is_one() {
        assert!(BigInt::one().is_one());
        assert!(!BigInt::zero().is_one());
        assert!(!BigInt::from(-1).is_one());
    }
}
