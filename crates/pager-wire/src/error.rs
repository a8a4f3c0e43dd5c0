//! The wire-level error vocabulary, shared by every protocol surface.
//!
//! Error codes are *programs'* names for failures: clients switch on
//! them, routers decide retry policy from them, and they must never
//! drift between the service, the cluster router, and the two codecs.
//! This module is the single definition; `pager-service`'s
//! `ServiceError::code` and `pager-cluster`'s router both delegate
//! here.

use core::fmt;

/// A stable wire error code.
///
/// The string forms are part of the public protocol (v1 `"code"`
/// field, v2 error-frame tag) and may never change; add new variants
/// instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The request itself is invalid; retrying unchanged will fail
    /// again.
    BadRequest,
    /// Well-formed, but asks for something this server cannot do.
    Unsupported,
    /// The server is at capacity; retry after the hinted delay.
    Overloaded,
    /// Something went wrong inside the server; not the client's fault.
    Internal,
    /// The data disk failed; writes are refused, planning continues.
    Degraded,
    /// No live backend could answer within the deadline (router-side
    /// failover exhausted its budget).
    Unavailable,
}

impl ErrorCode {
    /// Every code, for exhaustive round-trip tests and tables.
    pub(crate) const ALL: [ErrorCode; 6] = [
        ErrorCode::BadRequest,
        ErrorCode::Unsupported,
        ErrorCode::Overloaded,
        ErrorCode::Internal,
        ErrorCode::Degraded,
        ErrorCode::Unavailable,
    ];

    /// The stable string form carried in v1 `"code"` fields.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Internal => "internal",
            ErrorCode::Degraded => "degraded",
            ErrorCode::Unavailable => "unavailable",
        }
    }

    /// Parses the stable string form back into a code.
    #[must_use]
    pub fn parse(text: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.as_str() == text)
    }

    /// The one-byte tag carried in v2 error frames.
    #[must_use]
    pub(crate) fn tag(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 1,
            ErrorCode::Unsupported => 2,
            ErrorCode::Overloaded => 3,
            ErrorCode::Internal => 4,
            ErrorCode::Degraded => 5,
            ErrorCode::Unavailable => 6,
        }
    }

    /// Decodes a v2 error-frame tag.
    #[must_use]
    pub(crate) fn from_tag(tag: u8) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.tag() == tag)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a request could not be decoded (or why the peer answered with
/// an error). Decoding only ever produces the first two codes; the
/// full set appears when re-materialising a peer's error frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Malformed bytes: not JSON, a truncated frame, an invalid
    /// payload.
    BadRequest(String),
    /// Syntactically fine, semantically unknown: an unknown command,
    /// variant, or op code.
    Unsupported(String),
}

impl WireError {
    /// The code this decode failure maps to on the wire.
    #[must_use]
    pub(crate) fn code(&self) -> ErrorCode {
        match self {
            WireError::BadRequest(_) => ErrorCode::BadRequest,
            WireError::Unsupported(_) => ErrorCode::Unsupported,
        }
    }

    /// The human-readable message.
    #[must_use]
    pub(crate) fn message(&self) -> &str {
        match self {
            WireError::BadRequest(m) | WireError::Unsupported(m) => m,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code(), self.message())
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_code_round_trips_through_strings() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("psychic"), None);
        assert_eq!(ErrorCode::parse(""), None);
        // The strings are frozen protocol surface.
        assert_eq!(ErrorCode::BadRequest.as_str(), "bad_request");
        assert_eq!(ErrorCode::Unsupported.as_str(), "unsupported");
        assert_eq!(ErrorCode::Overloaded.as_str(), "overloaded");
        assert_eq!(ErrorCode::Internal.as_str(), "internal");
        assert_eq!(ErrorCode::Degraded.as_str(), "degraded");
        assert_eq!(ErrorCode::Unavailable.as_str(), "unavailable");
    }

    #[test]
    fn every_code_round_trips_through_tags() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::from_tag(code.tag()), Some(code));
        }
        assert_eq!(ErrorCode::from_tag(0), None);
        assert_eq!(ErrorCode::from_tag(200), None);
        // Tags are distinct.
        let mut tags: Vec<u8> = ErrorCode::ALL.iter().map(|c| c.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), ErrorCode::ALL.len());
    }

    #[test]
    fn wire_error_maps_to_codes() {
        assert_eq!(
            WireError::BadRequest("x".into()).code(),
            ErrorCode::BadRequest
        );
        assert_eq!(
            WireError::Unsupported("x".into()).code(),
            ErrorCode::Unsupported
        );
        assert_eq!(
            WireError::BadRequest("bad".into()).to_string(),
            "bad_request: bad"
        );
    }
}
