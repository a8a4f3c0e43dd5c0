//! Conversions between [`BigInt`] and primitive types, including exact
//! `f64` decomposition.

use crate::bigint::{BigInt, Sign};
use core::fmt;

/// Error returned by the fallible `TryFrom<&BigInt>` conversions when the
/// value does not fit the target primitive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TryFromBigIntError;

impl fmt::Display for TryFromBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "big integer out of range for target type")
    }
}

impl std::error::Error for TryFromBigIntError {}

impl BigInt {
    /// Converts to `f64`, rounding to nearest. Values whose magnitude
    /// exceeds `f64::MAX` become `±inf`.
    #[must_use]
    pub(crate) fn to_f64(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        // Take the top 64 bits of the magnitude and scale.
        let bits = self.bits();
        let mut acc: f64 = 0.0;
        // At most the top three limbs matter for a 53-bit mantissa.
        let n = self.mag.len();
        let top = n.saturating_sub(3);
        for i in (top..n).rev() {
            acc = acc * 4_294_967_296.0 + f64::from(self.mag[i]);
        }
        let exp = (top as i64) * 32;
        let mut val = acc * 2f64.powi(exp.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32);
        let _ = bits;
        if self.sign == Sign::Minus {
            val = -val;
        }
        val
    }

    /// Converts to `u64` if it fits and is non-negative.
    #[must_use]
    pub fn to_u64(&self) -> Option<u64> {
        u64::try_from(self).ok()
    }

    fn mag_as_u128(&self) -> Option<u128> {
        if self.mag.len() > 4 {
            return None;
        }
        let mut v: u128 = 0;
        for &limb in self.mag.iter().rev() {
            v = (v << 32) | u128::from(limb);
        }
        Some(v)
    }
}

impl TryFrom<&BigInt> for u64 {
    type Error = TryFromBigIntError;
    fn try_from(x: &BigInt) -> Result<u64, TryFromBigIntError> {
        if x.sign == Sign::Minus {
            return Err(TryFromBigIntError);
        }
        let m = x.mag_as_u128().ok_or(TryFromBigIntError)?;
        u64::try_from(m).map_err(|_| TryFromBigIntError)
    }
}

impl TryFrom<&BigInt> for i64 {
    type Error = TryFromBigIntError;
    fn try_from(x: &BigInt) -> Result<i64, TryFromBigIntError> {
        let m = x.mag_as_u128().ok_or(TryFromBigIntError)?;
        match x.sign {
            Sign::Zero => Ok(0),
            Sign::Plus => i64::try_from(m).map_err(|_| TryFromBigIntError),
            Sign::Minus => {
                if m <= i64::MIN.unsigned_abs().into() {
                    Ok((m as i128).wrapping_neg() as i64)
                } else {
                    Err(TryFromBigIntError)
                }
            }
        }
    }
}

impl TryFrom<&BigInt> for i128 {
    type Error = TryFromBigIntError;
    fn try_from(x: &BigInt) -> Result<i128, TryFromBigIntError> {
        let m = x.mag_as_u128().ok_or(TryFromBigIntError)?;
        match x.sign {
            Sign::Zero => Ok(0),
            Sign::Plus => i128::try_from(m).map_err(|_| TryFromBigIntError),
            Sign::Minus => {
                if m <= i128::MIN.unsigned_abs() {
                    Ok(m.wrapping_neg() as i128)
                } else {
                    Err(TryFromBigIntError)
                }
            }
        }
    }
}

impl TryFrom<&BigInt> for usize {
    type Error = TryFromBigIntError;
    fn try_from(x: &BigInt) -> Result<usize, TryFromBigIntError> {
        u64::try_from(x)
            .ok()
            .and_then(|v| usize::try_from(v).ok())
            .ok_or(TryFromBigIntError)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_f64_small() {
        assert_eq!(BigInt::from(0u8).to_f64(), 0.0);
        assert_eq!(BigInt::from(42).to_f64(), 42.0);
        assert_eq!(BigInt::from(-42).to_f64(), -42.0);
        assert_eq!(BigInt::from(u64::MAX).to_f64(), u64::MAX as f64);
    }

    #[test]
    fn to_f64_large() {
        let x = BigInt::from(10u8).pow(100);
        let f = x.to_f64();
        assert!((f - 1e100).abs() / 1e100 < 1e-12);
        assert_eq!((-x).to_f64(), -f);
    }

    #[test]
    fn try_into_primitives() {
        assert_eq!(i64::try_from(&BigInt::from(i64::MAX)), Ok(i64::MAX));
        assert_eq!(i64::try_from(&BigInt::from(i64::MIN)), Ok(i64::MIN));
        assert!(i64::try_from(&(BigInt::from(i64::MAX) + BigInt::one())).is_err());
        assert!(u64::try_from(&BigInt::from(-1)).is_err());
        assert_eq!(u64::try_from(&BigInt::from(u64::MAX)), Ok(u64::MAX));
        assert_eq!(i128::try_from(&BigInt::from(i128::MIN)), Ok(i128::MIN));
        assert!(i128::try_from(&(BigInt::from(10u8).pow(60))).is_err());
        assert_eq!(usize::try_from(&BigInt::from(7u8)), Ok(7usize));
    }

    #[test]
    fn helper_getters() {
        assert_eq!(BigInt::from(-7).to_u64(), None);
    }
}
