//! JSON conversions (via the workspace's [`jsonio`] crate).
//!
//! All types serialise through their natural data representation and
//! deserialise through their validating constructors, so invalid
//! payloads (rows not summing to one, non-partition strategies, zero
//! delays) are rejected at the boundary. Used by the `pager-service`
//! wire protocol and by fixtures.

use crate::instance::{Delay, Instance};
use crate::scalar::Scalar;
use crate::strategy::Strategy;
use jsonio::Value;

impl Delay {
    /// Renders as a JSON integer.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn to_json(self) -> Value {
        Value::from(self.get())
    }

    /// Parses from a JSON positive integer.
    ///
    /// # Errors
    ///
    /// A message when the value is not an integer or is zero.
    pub fn from_json(value: &Value) -> Result<Delay, String> {
        let raw = value
            .as_usize()
            .ok_or_else(|| format!("delay must be a non-negative integer, got {value}"))?;
        Delay::new(raw).map_err(|e| e.to_string())
    }
}

impl Strategy {
    /// Renders as a JSON array of per-round cell-index arrays.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.groups()
                .iter()
                .map(|g| Value::Array(g.iter().map(|&cell| Value::from(cell)).collect()))
                .collect(),
        )
    }

    /// Parses from a JSON array of arrays, re-validating the partition
    /// property.
    ///
    /// # Errors
    ///
    /// A message on malformed JSON shape or an invalid strategy.
    #[cfg(test)]
    pub(crate) fn from_json(value: &Value) -> Result<Strategy, String> {
        let outer = value
            .as_array()
            .ok_or_else(|| "strategy must be an array of arrays".to_string())?;
        let mut groups = Vec::with_capacity(outer.len());
        for round in outer {
            let cells = round
                .as_array()
                .ok_or_else(|| "strategy round must be an array".to_string())?;
            let group: Result<Vec<usize>, String> = cells
                .iter()
                .map(|c| {
                    c.as_usize().ok_or_else(|| {
                        format!("cell index must be a non-negative integer, got {c}")
                    })
                })
                .collect();
            groups.push(group?);
        }
        Strategy::new(groups).map_err(|e| e.to_string())
    }
}

impl<S: Scalar> Instance<S> {
    /// Renders as a JSON array of probability rows: numbers for `f64`,
    /// ratio strings for [`rational::Ratio`].
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.rows()
                .map(|row| Value::Array(row.iter().map(S::to_json).collect()))
                .collect(),
        )
    }

    /// Parses from a JSON array of rows written by
    /// [`Instance::to_json`], re-validating row sums.
    ///
    /// # Errors
    ///
    /// A message on malformed JSON shape or an invalid instance.
    pub fn from_json(value: &Value) -> Result<Instance<S>, String> {
        let outer = value
            .as_array()
            .ok_or_else(|| "instance must be an array of rows".to_string())?;
        let mut rows = Vec::with_capacity(outer.len());
        for row in outer {
            let cells = row
                .as_array()
                .ok_or_else(|| "instance row must be an array of numbers".to_string())?;
            let parsed: Result<Vec<S>, String> = cells.iter().map(S::from_json).collect();
            rows.push(parsed?);
        }
        Instance::from_rows(rows).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rational::Ratio;

    #[test]
    fn delay_round_trip() {
        let d = Delay::new(4).unwrap();
        let json = d.to_json().to_string();
        assert_eq!(json, "4");
        let back = Delay::from_json(&jsonio::parse(&json).unwrap()).unwrap();
        assert_eq!(back, d);
        assert!(Delay::from_json(&jsonio::parse("0").unwrap()).is_err());
        assert!(Delay::from_json(&jsonio::parse("\"2\"").unwrap()).is_err());
    }

    #[test]
    fn strategy_round_trip_and_validation() {
        let s = Strategy::new(vec![vec![2, 0], vec![1]]).unwrap();
        let json = s.to_json().to_string();
        assert_eq!(json, "[[2,0],[1]]");
        let back = Strategy::from_json(&jsonio::parse(&json).unwrap()).unwrap();
        assert_eq!(back, s);
        // Not a partition: duplicate cell.
        assert!(Strategy::from_json(&jsonio::parse("[[0,0]]").unwrap()).is_err());
        // Not a partition: gap.
        assert!(Strategy::from_json(&jsonio::parse("[[0],[2]]").unwrap()).is_err());
        // Out of range: a gap, reported without allocating for it.
        assert_eq!(
            Strategy::from_json(&jsonio::parse("[[0],[100000000000]]").unwrap()).unwrap_err(),
            crate::Error::MissingCell { cell: 1 }.to_string()
        );
    }

    #[test]
    fn instance_round_trip_and_validation() {
        let inst = Instance::from_rows(vec![vec![0.5, 0.25, 0.25], vec![0.1, 0.2, 0.7]]).unwrap();
        let json = inst.to_json().to_string();
        let back = Instance::from_json(&jsonio::parse(&json).unwrap()).unwrap();
        assert_eq!(back, inst);
        // Row does not sum to one.
        assert!(Instance::<f64>::from_json(&jsonio::parse("[[0.5,0.4]]").unwrap()).is_err());
    }

    #[test]
    fn exact_instance_round_trip() {
        let exact = Instance::from_rows(vec![vec![
            Ratio::from_fraction(2, 7),
            Ratio::from_fraction(5, 7),
        ]])
        .unwrap();
        let json = exact.to_json().to_string();
        assert_eq!(json, "[[\"2/7\",\"5/7\"]]");
        let back = Instance::<Ratio>::from_json(&jsonio::parse(&json).unwrap()).unwrap();
        assert_eq!(back, exact);
        assert!(Instance::<Ratio>::from_json(&jsonio::parse("[[\"1/2\"]]").unwrap()).is_err());
    }

    #[test]
    fn integer_probabilities_accepted() {
        // `1` (Int) should work where a probability is expected.
        let inst = Instance::<f64>::from_json(&jsonio::parse("[[0, 1]]").unwrap()).unwrap();
        assert_eq!(inst.prob(0, 1), 1.0);
    }
}
