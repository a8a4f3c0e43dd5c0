//! Plain-text instance I/O for the CLI and for exchanging instances
//! between tools.
//!
//! The format is one device per line, whitespace-separated cell
//! probabilities; blank lines and `#` comments are ignored. Entries
//! may be decimals (`0.25`) or exact fractions (`2/7`); a file whose
//! entries are all fractions round-trips exactly through
//! [`parse_exact_instance`].
//!
//! ```text
//! # three devices over four cells
//! 0.4 0.3 0.2 0.1
//! 1/4 1/4 1/4 1/4
//! 0.7 0.1 0.1 0.1
//! ```

use pager_core::Instance;
use rational::Ratio;

/// Errors parsing an instance from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseInstanceError {
    /// The text contained no probability rows.
    Empty,
    /// A token failed to parse as a number or fraction.
    BadToken {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// The rows did not form a valid instance.
    Invalid(String),
}

impl core::fmt::Display for ParseInstanceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ParseInstanceError::Empty => write!(f, "no probability rows found"),
            ParseInstanceError::BadToken { line, token } => {
                write!(f, "line {line}: cannot parse {token:?} as a probability")
            }
            ParseInstanceError::Invalid(msg) => write!(f, "invalid instance: {msg}"),
        }
    }
}

impl std::error::Error for ParseInstanceError {}

fn parse_rows(text: &str) -> Result<Vec<(usize, Vec<Ratio>)>, ParseInstanceError> {
    let mut rows = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let body = line.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let mut row = Vec::new();
        for token in body.split_whitespace() {
            let value: Ratio = token.parse().map_err(|_| ParseInstanceError::BadToken {
                line: idx + 1,
                token: token.to_string(),
            })?;
            row.push(value);
        }
        rows.push((idx + 1, row));
    }
    if rows.is_empty() {
        return Err(ParseInstanceError::Empty);
    }
    Ok(rows)
}

/// Parses an [`Instance`] (f64) from text.
///
/// # Errors
///
/// [`ParseInstanceError`] on malformed text or invalid probabilities.
pub fn parse_instance(text: &str) -> Result<Instance, ParseInstanceError> {
    let rows = parse_rows(text)?;
    let float_rows: Vec<Vec<f64>> = rows
        .into_iter()
        .map(|(_, row)| row.iter().map(Ratio::to_f64).collect())
        .collect();
    Instance::from_rows(float_rows).map_err(|e| ParseInstanceError::Invalid(e.to_string()))
}

/// Parses an exact [`Instance`] from text — rows must sum to exactly 1,
/// so use fraction entries (`1/3`) or exact decimals (`0.25`).
///
/// # Errors
///
/// [`ParseInstanceError`] on malformed text or rows not summing to 1.
pub fn parse_exact_instance(text: &str) -> Result<Instance<Ratio>, ParseInstanceError> {
    let rows = parse_rows(text)?;
    let exact_rows: Vec<Vec<Ratio>> = rows.into_iter().map(|(_, row)| row).collect();
    Instance::from_rows(exact_rows).map_err(|e| ParseInstanceError::Invalid(e.to_string()))
}

/// Renders an instance back to the text format (decimal probabilities,
/// full `f64` precision).
#[must_use]
pub fn format_instance(instance: &Instance) -> String {
    let mut out = String::new();
    for row in instance.rows() {
        let cells: Vec<String> = row.iter().map(|p| format!("{p}")).collect();
        out.push_str(&cells.join(" "));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_decimals_and_fractions() {
        let text = "# demo\n0.5 0.5\n1/4 3/4\n";
        let inst = parse_instance(text).unwrap();
        assert_eq!(inst.num_devices(), 2);
        assert!((inst.prob(1, 0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn exact_round_trip() {
        let text = "2/7 5/7\n1/2 1/2\n";
        let exact = parse_exact_instance(text).unwrap();
        assert_eq!(exact.prob(0, 0), &rational::Ratio::from_fraction(2, 7));
    }

    #[test]
    fn reports_bad_tokens_with_line_numbers() {
        let err = parse_instance("0.5 0.5\nfoo 1.0\n").unwrap_err();
        assert_eq!(
            err,
            ParseInstanceError::BadToken {
                line: 2,
                token: "foo".into()
            }
        );
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn rejects_empty_and_invalid() {
        assert_eq!(
            parse_instance("# only comments\n"),
            Err(ParseInstanceError::Empty)
        );
        assert!(matches!(
            parse_instance("0.5 0.4\n"),
            Err(ParseInstanceError::Invalid(_))
        ));
        assert!(matches!(
            parse_exact_instance("0.5 0.4\n"),
            Err(ParseInstanceError::Invalid(_))
        ));
    }

    #[test]
    fn format_round_trips() {
        let inst = Instance::from_rows(vec![vec![0.25, 0.75], vec![0.5, 0.5]]).unwrap();
        let text = format_instance(&inst);
        let back = parse_instance(&text).unwrap();
        assert_eq!(back, inst);
    }
}
