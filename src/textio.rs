//! Plain-text instance I/O for the CLI and for exchanging instances
//! between tools.
//!
//! The format is one device per line, whitespace-separated cell
//! probabilities; blank lines and `#` comments are ignored. Entries
//! may be decimals (`0.25`) or exact fractions (`2/7`); a file whose
//! entries are all fractions round-trips exactly through
//! [`pager_wire::textio::parse_exact_instance`]. The parser is
//! [`pager_wire::textio`], the one the v1 wire's string instances go
//! through.
//!
//! ```text
//! # three devices over four cells
//! 0.4 0.3 0.2 0.1
//! 1/4 1/4 1/4 1/4
//! 0.7 0.1 0.1 0.1
//! ```

pub use pager_wire::textio::{parse_instance, ParseInstanceError};

#[cfg(test)]
mod tests {
    use super::*;
    use pager_core::Instance;
    use pager_wire::textio::parse_exact_instance;

    /// Renders an instance back to the text format (decimal probabilities,
    /// full `f64` precision).
    fn format_instance(instance: &Instance) -> String {
        let mut out = String::new();
        for row in instance.rows() {
            let cells: Vec<String> = row.iter().map(|p| format!("{p}")).collect();
            out.push_str(&cells.join(" "));
            out.push('\n');
        }
        out
    }

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
