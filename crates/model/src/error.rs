//! Error types shared by the model crate.

use std::fmt;

/// Errors produced while constructing or validating model types.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// A URL path failed to parse (empty, no leading `/`, invalid bytes, …).
    InvalidPath {
        /// The offending input.
        input: String,
        /// Human-readable reason the parse failed.
        reason: &'static str,
    },
    /// A node specification had a zero or otherwise nonsensical capacity.
    InvalidNodeSpec {
        /// Which field was invalid.
        field: &'static str,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidPath { input, reason } => {
                write!(f, "invalid URL path {input:?}: {reason}")
            }
            ModelError::InvalidNodeSpec { field } => {
                write!(
                    f,
                    "invalid node specification: field `{field}` out of range"
                )
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let e = ModelError::InvalidPath {
            input: "foo".into(),
            reason: "missing leading slash",
        };
        let s = e.to_string();
        assert!(s.starts_with("invalid"));
        assert!(s.contains("missing leading slash"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
    }
}
