//! JSON conversions (via the workspace's [`jsonio`] crate).
//!
//! [`Ratio`] serialises as the `"num/den"` (or plain integer) string
//! accepted by its `FromStr`.
//! String forms keep arbitrary precision intact across any format.

use crate::Ratio;
use jsonio::Value;

impl Ratio {
    /// Renders as a JSON string (`"num/den"` or a plain integer).
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }

    /// Parses from a JSON string accepted by [`Ratio`]'s `FromStr`.
    ///
    /// # Errors
    ///
    /// A message when the value is not a string or fails to parse.
    pub fn from_json(value: &Value) -> Result<Ratio, String> {
        let text = value
            .as_str()
            .ok_or_else(|| format!("Ratio must be a JSON string, got {value}"))?;
        text.parse()
            .map_err(|e| format!("invalid Ratio {text:?}: {e:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_json_round_trip() {
        for q in [
            Ratio::from_fraction(320, 317),
            Ratio::from_fraction(-5, 3),
            Ratio::from_integer(7),
            Ratio::zero(),
        ] {
            let json = q.to_json().to_string();
            let back = Ratio::from_json(&jsonio::parse(&json).unwrap()).unwrap();
            assert_eq!(back, q, "{json}");
        }
    }

    #[test]
    fn bad_payloads_rejected() {
        assert!(Ratio::from_json(&jsonio::parse("\"1/0\"").unwrap()).is_err());
        // Must be a string, not a bare number.
        assert!(Ratio::from_json(&jsonio::parse("3.5").unwrap()).is_err());
    }
}
