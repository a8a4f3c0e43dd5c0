//! The plain-text instance format: one device per line,
//! whitespace-separated cell probabilities, blank lines and `#`
//! comments ignored. Entries may be decimals (`0.25`) or exact
//! fractions (`2/7`). The v1 wire accepts it as a string `"instance"`;
//! the root crate's `textio` module serves it to the CLI.

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

fn parse_rows(text: &str) -> Result<Vec<Vec<Ratio>>, ParseInstanceError> {
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
        rows.push(row);
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
    let float_rows: Vec<Vec<f64>> = parse_rows(text)?
        .into_iter()
        .map(|row| row.iter().map(Ratio::to_f64).collect())
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
    Instance::from_rows(parse_rows(text)?).map_err(|e| ParseInstanceError::Invalid(e.to_string()))
}
