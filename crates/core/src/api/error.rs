//! The wire layer's failures: a machine-readable code and a message.

use super::{API_VERSION, API_VERSION_V2};

/// Machine-readable failure classes, the `"code"` field of an error
/// response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApiErrorCode {
    /// The request was malformed: bad JSON, a missing or unknown field, an
    /// out-of-range value.
    BadRequest,
    /// The request named a schema version this server does not speak.
    VersionMismatch,
    /// The daemon's job queue is at `max_pending` capacity — the
    /// 429-equivalent; retry after drain.
    Busy,
    /// The daemon is draining for shutdown and admits no new work.
    ShuttingDown,
    /// The server failed internally (snapshot IO, a poisoned lock, ...).
    Internal,
}

impl ApiErrorCode {
    /// Every machine code, in wire-spelling order — the single exhaustive
    /// list the server, `taco-cli` and the round-trip tests share, so a
    /// new code cannot exist without a wire spelling and a parse.
    pub(crate) const ALL: [ApiErrorCode; 5] = [
        ApiErrorCode::BadRequest,
        ApiErrorCode::VersionMismatch,
        ApiErrorCode::Busy,
        ApiErrorCode::ShuttingDown,
        ApiErrorCode::Internal,
    ];

    /// `true` for the codes a client may retry verbatim after a delay (the
    /// daemon was healthy but temporarily unable to admit the request).
    pub fn is_retryable(self) -> bool {
        matches!(self, ApiErrorCode::Busy)
    }

    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ApiErrorCode::BadRequest => "bad_request",
            ApiErrorCode::VersionMismatch => "version_mismatch",
            ApiErrorCode::Busy => "busy",
            ApiErrorCode::ShuttingDown => "shutting_down",
            ApiErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire spelling back to a code.
    pub(crate) fn from_str_opt(s: &str) -> Option<ApiErrorCode> {
        ApiErrorCode::ALL.into_iter().find(|code| code.as_str() == s)
    }
}

/// A structured wire-layer failure: a machine-readable code plus a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// The failure class.
    pub code: ApiErrorCode,
    /// What went wrong, for humans.
    pub message: String,
}

impl ApiError {
    /// A [`ApiErrorCode::BadRequest`] error.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ApiError { code: ApiErrorCode::BadRequest, message: message.into() }
    }

    /// A [`ApiErrorCode::VersionMismatch`] error naming the found version
    /// and the supported ones.
    pub(crate) fn version_mismatch(found: &str) -> Self {
        ApiError {
            code: ApiErrorCode::VersionMismatch,
            message: format!(
                "api_version {found:?} is not supported; this server speaks {API_VERSION:?} \
                 and {API_VERSION_V2:?}"
            ),
        }
    }

    /// A [`ApiErrorCode::Busy`] rejection.
    pub fn busy(message: impl Into<String>) -> Self {
        ApiError { code: ApiErrorCode::Busy, message: message.into() }
    }

    /// A [`ApiErrorCode::ShuttingDown`] rejection.
    pub fn shutting_down() -> Self {
        ApiError {
            code: ApiErrorCode::ShuttingDown,
            message: "server is draining for shutdown".into(),
        }
    }

    /// An [`ApiErrorCode::Internal`] error.
    pub fn internal(message: impl Into<String>) -> Self {
        ApiError { code: ApiErrorCode::Internal, message: message.into() }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for ApiError {}
