//! Error type for PI engine operations.

use c2pi_mpc::MpcError;
use c2pi_nn::NnError;
use c2pi_tensor::TensorError;
use std::fmt;

/// Error returned by fallible PI operations.
#[derive(Debug, Clone, PartialEq)]
pub enum PiError {
    /// An MPC protocol failed.
    Mpc(MpcError),
    /// A network-layer error surfaced through the model interface.
    Nn(NnError),
    /// A tensor kernel rejected its inputs.
    Tensor(TensorError),
    /// A layer that has no secure execution appeared in the crypto prefix.
    UnsupportedLayer(String),
    /// Invalid configuration (batch > 1, odd pool size, …).
    BadConfig(String),
    /// An input element is not a finite number (NaN or ±∞), which the
    /// fixed-point encoding cannot represent. Refused on the client
    /// before any frame is sent or any material is taken.
    InputOutOfRange {
        /// Flat index of the first offending element.
        index: usize,
        /// Its value.
        value: f32,
    },
    /// One of the party threads panicked.
    PartyPanic(&'static str),
    /// The persistent material store failed (I/O, corruption, or a
    /// fingerprint mismatch with the session it was opened for).
    Store(String),
}

impl fmt::Display for PiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PiError::Mpc(e) => write!(f, "mpc error: {e}"),
            PiError::Nn(e) => write!(f, "network error: {e}"),
            PiError::Tensor(e) => write!(f, "tensor error: {e}"),
            PiError::UnsupportedLayer(d) => write!(f, "no secure execution for layer {d}"),
            PiError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            PiError::InputOutOfRange { index, value } => {
                write!(f, "input element {index} is {value}, not a finite number")
            }
            PiError::PartyPanic(side) => write!(f, "{side} thread panicked"),
            PiError::Store(msg) => write!(f, "material store: {msg}"),
        }
    }
}

impl std::error::Error for PiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PiError::Mpc(e) => Some(e),
            PiError::Nn(e) => Some(e),
            PiError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MpcError> for PiError {
    fn from(e: MpcError) -> Self {
        PiError::Mpc(e)
    }
}

impl From<c2pi_transport::TransportError> for PiError {
    fn from(e: c2pi_transport::TransportError) -> Self {
        PiError::Mpc(MpcError::Transport(e))
    }
}

impl From<NnError> for PiError {
    fn from(e: NnError) -> Self {
        PiError::Nn(e)
    }
}

impl From<TensorError> for PiError {
    fn from(e: TensorError) -> Self {
        PiError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        assert!(PiError::UnsupportedLayer("gelu".into()).to_string().contains("gelu"));
        assert!(PiError::PartyPanic("client").to_string().contains("client"));
        let nan = PiError::InputOutOfRange { index: 3, value: f32::NAN };
        assert_eq!(nan.to_string(), "input element 3 is NaN, not a finite number");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PiError>();
    }
}
