//! The service's single error surface.
//!
//! Every failure a request can hit — malformed JSON, an invalid
//! variant parameter, a full admission queue, a dead worker pool —
//! folds into [`ServiceError`], and each variant maps to a *stable
//! wire code* clients can switch on. Messages are for humans and may
//! change; codes are for programs and may not.

use core::fmt;

use pager_wire::{ErrorCode, WireError};

/// Why the service could not answer a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The request itself is invalid: malformed JSON, a bad instance,
    /// an infeasible bandwidth cap, an out-of-range signature
    /// threshold, unknown devices. Retrying unchanged will fail again.
    BadRequest(String),
    /// The request is well-formed but asks for something this server
    /// cannot do: an unknown command or variant, or a forced exact
    /// plan beyond solver limits.
    Unsupported(String),
    /// The server is at capacity: the bounded admission queue was
    /// full, or the request's deadline expired before a non-degradable
    /// plan finished. Retry after the hinted delay.
    Overloaded {
        /// Suggested client back-off before retrying.
        retry_after_ms: u64,
    },
    /// Something went wrong inside the server (worker pool gone,
    /// spawn failure, shutdown race). Not the client's fault.
    Internal(String),
    /// The data disk failed: writes (`observe`) are refused because
    /// their durability can no longer be guaranteed, while planning
    /// keeps serving from in-memory profiles. Clears only on restart
    /// with a healthy disk.
    Degraded(String),
}

impl ServiceError {
    /// The typed wire code.
    #[must_use]
    pub(crate) fn wire_code(&self) -> ErrorCode {
        match self {
            ServiceError::BadRequest(_) => ErrorCode::BadRequest,
            ServiceError::Unsupported(_) => ErrorCode::Unsupported,
            ServiceError::Overloaded { .. } => ErrorCode::Overloaded,
            ServiceError::Internal(_) => ErrorCode::Internal,
            ServiceError::Degraded(_) => ErrorCode::Degraded,
        }
    }

    /// The stable wire code (`"code"` field of error responses).
    #[must_use]
    pub(crate) fn code(&self) -> &'static str {
        self.wire_code().as_str()
    }

    /// The human-readable message (`"error"` field of error
    /// responses).
    #[must_use]
    pub(crate) fn message(&self) -> String {
        match self {
            ServiceError::BadRequest(m)
            | ServiceError::Unsupported(m)
            | ServiceError::Internal(m)
            | ServiceError::Degraded(m) => m.clone(),
            ServiceError::Overloaded { retry_after_ms } => {
                format!("server overloaded, retry after {retry_after_ms} ms")
            }
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code(), self.message())
    }
}

impl std::error::Error for ServiceError {}

impl From<WireError> for ServiceError {
    fn from(error: WireError) -> ServiceError {
        match error {
            WireError::BadRequest(m) => ServiceError::BadRequest(m),
            WireError::Unsupported(m) => ServiceError::Unsupported(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable() {
        assert_eq!(ServiceError::BadRequest("x".into()).code(), "bad_request");
        assert_eq!(ServiceError::Unsupported("x".into()).code(), "unsupported");
        assert_eq!(
            ServiceError::Overloaded { retry_after_ms: 50 }.code(),
            "overloaded"
        );
        assert_eq!(ServiceError::Internal("x".into()).code(), "internal");
        assert_eq!(ServiceError::Degraded("x".into()).code(), "degraded");
    }

    #[test]
    fn overloaded_message_carries_hint() {
        let e = ServiceError::Overloaded { retry_after_ms: 75 };
        assert!(e.message().contains("75"));
        assert!(e.to_string().starts_with("overloaded:"));
    }

    #[test]
    fn wire_errors_map_to_service_errors() {
        assert_eq!(
            ServiceError::from(WireError::BadRequest("x".into())),
            ServiceError::BadRequest("x".into())
        );
        assert_eq!(
            ServiceError::from(WireError::Unsupported("y".into())),
            ServiceError::Unsupported("y".into())
        );
        assert_eq!(
            ServiceError::Overloaded { retry_after_ms: 1 }.wire_code(),
            ErrorCode::Overloaded
        );
    }

    #[test]
    fn is_std_error() {
        fn takes<E: std::error::Error + Send + Sync + 'static>(_: E) {}
        takes(ServiceError::Internal("boom".into()));
    }
}
