//! Error types shared by the codecs in this crate.

use std::error::Error;
use std::fmt;

/// Error produced when parsing wire data (addresses, headers, datagrams,
/// RIPng messages) fails.
///
/// The variants carry enough context to pinpoint the offending field; the
/// [`fmt::Display`] form is a lowercase, punctuation-free sentence as
/// recommended by the Rust API guidelines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseError {
    /// The input ended before a complete structure could be read.
    ///
    /// `needed` is the minimum number of bytes that would have been required,
    /// `got` is how many were available.
    Truncated {
        /// What was being parsed when the input ran out.
        what: &'static str,
        /// Minimum bytes required.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// A version field held something other than 6.
    BadVersion(u8),
    /// A field held a value outside its legal range.
    BadField {
        /// Field name.
        field: &'static str,
        /// Offending value (widened to `u64`).
        value: u64,
    },
    /// Textual IPv6 address could not be parsed.
    BadAddressSyntax,
    /// A prefix length was larger than 128.
    BadPrefixLen(u8),
    /// The payload-length field disagrees with the actual buffer size.
    LengthMismatch {
        /// Length declared in the header.
        declared: usize,
        /// Length actually present.
        actual: usize,
    },
    /// A checksum failed verification.
    BadChecksum {
        /// Protocol whose checksum failed.
        what: &'static str,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Truncated { what, needed, got } => {
                write!(f, "truncated {what}: needed {needed} bytes, got {got}")
            }
            ParseError::BadVersion(v) => write!(f, "ip version field was {v}, expected 6"),
            ParseError::BadField { field, value } => {
                write!(f, "field {field} held illegal value {value}")
            }
            ParseError::BadAddressSyntax => write!(f, "invalid ipv6 address syntax"),
            ParseError::BadPrefixLen(l) => write!(f, "prefix length {l} exceeds 128"),
            ParseError::LengthMismatch { declared, actual } => {
                write!(f, "payload length {declared} disagrees with buffer size {actual}")
            }
            ParseError::BadChecksum { what } => write!(f, "{what} checksum verification failed"),
        }
    }
}

impl Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_unpunctuated() {
        let cases: Vec<ParseError> = vec![
            ParseError::Truncated { what: "ipv6 header", needed: 40, got: 3 },
            ParseError::BadVersion(4),
            ParseError::BadField { field: "metric", value: 99 },
            ParseError::BadAddressSyntax,
            ParseError::BadPrefixLen(200),
            ParseError::LengthMismatch { declared: 10, actual: 4 },
            ParseError::BadChecksum { what: "udp" },
        ];
        for c in cases {
            let s = c.to_string();
            assert!(!s.ends_with('.'), "{s}");
            assert!(s.chars().next().unwrap().is_lowercase(), "{s}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ParseError>();
    }
}
