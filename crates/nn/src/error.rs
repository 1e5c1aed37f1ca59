//! Error type for network operations.

use c2pi_tensor::TensorError;
use std::fmt;

/// Error returned by fallible network operations.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// A tensor kernel rejected its inputs.
    Tensor(TensorError),
    /// `backward` was called before `forward` (no cached activation).
    MissingCache {
        /// Layer whose cache was empty.
        layer: &'static str,
    },
    /// A model cut point / boundary id does not exist.
    UnknownCutPoint(String),
    /// Invalid configuration (e.g. zero channels).
    BadConfig(String),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::MissingCache { layer } => {
                write!(f, "backward called before forward in {layer}")
            }
            NnError::UnknownCutPoint(id) => write!(f, "unknown cut point {id}"),
            NnError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = NnError::from(TensorError::LengthMismatch { expected: 1, found: 2 });
        assert!(e.to_string().contains("tensor error"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&NnError::MissingCache { layer: "relu" }).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}
