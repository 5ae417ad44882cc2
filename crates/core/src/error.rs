//! Error type for the QMARL framework layer.

use std::error::Error;
use std::fmt;

/// Errors surfaced while building or training QMARL frameworks.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The underlying VQC layer failed.
    Vqc(qmarl_vqc::error::VqcError),
    /// The environment failed.
    Env(qmarl_env::error::EnvError),
    /// The batched execution runtime failed.
    Runtime(qmarl_runtime::error::RuntimeError),
    /// A parameter vector had the wrong length.
    ParamLenMismatch {
        /// Expected length.
        expected: usize,
        /// Supplied length.
        actual: usize,
    },
    /// An observation/state vector had the wrong length.
    FeatureLenMismatch {
        /// Expected length.
        expected: usize,
        /// Supplied length.
        actual: usize,
    },
    /// A training configuration value was rejected.
    InvalidConfig(String),
    /// A checkpoint file was unreadable, truncated or corrupt.
    ///
    /// Distinct from [`CoreError::InvalidConfig`] so callers that watch a
    /// checkpoint directory (the serving hot-swap path) can skip torn or
    /// half-written files without swallowing genuine configuration
    /// mistakes.
    CorruptCheckpoint(String),
    /// An update sweep produced a NaN or infinite TD target or gradient.
    /// The sweep stops before its first optimiser step, so every
    /// parameter and Adam moment keeps its previous value.
    NonFinite {
        /// The epoch whose update sweep produced the value.
        epoch: usize,
        /// The agent whose actor gradient it was; `None` for the critic's
        /// TD targets and gradient.
        agent: Option<usize>,
        /// What was non-finite.
        what: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Vqc(e) => write!(f, "vqc error: {e}"),
            CoreError::Env(e) => write!(f, "environment error: {e}"),
            CoreError::Runtime(e) => write!(f, "runtime error: {e}"),
            CoreError::ParamLenMismatch { expected, actual } => {
                write!(f, "expected {expected} parameters, got {actual}")
            }
            CoreError::FeatureLenMismatch { expected, actual } => {
                write!(
                    f,
                    "expected a {expected}-dimensional feature vector, got {actual}"
                )
            }
            CoreError::InvalidConfig(msg) => write!(f, "invalid training config: {msg}"),
            CoreError::CorruptCheckpoint(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CoreError::NonFinite { epoch, agent, what } => {
                write!(f, "non-finite {what} in epoch {epoch}")?;
                match agent {
                    Some(n) => write!(f, " (agent {n})"),
                    None => write!(f, " (critic)"),
                }
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Vqc(e) => Some(e),
            CoreError::Env(e) => Some(e),
            CoreError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<qmarl_vqc::error::VqcError> for CoreError {
    fn from(e: qmarl_vqc::error::VqcError) -> Self {
        CoreError::Vqc(e)
    }
}

impl From<qmarl_env::error::EnvError> for CoreError {
    fn from(e: qmarl_env::error::EnvError) -> Self {
        CoreError::Env(e)
    }
}

impl From<qmarl_runtime::error::RuntimeError> for CoreError {
    fn from(e: qmarl_runtime::error::RuntimeError) -> Self {
        // Length mismatches keep their specific core variants so callers'
        // error matching is unchanged by the runtime rewiring.
        match e {
            qmarl_runtime::error::RuntimeError::ParamLenMismatch { expected, actual } => {
                CoreError::ParamLenMismatch { expected, actual }
            }
            qmarl_runtime::error::RuntimeError::InputLenMismatch { expected, actual } => {
                CoreError::FeatureLenMismatch { expected, actual }
            }
            qmarl_runtime::error::RuntimeError::Vqc(e) => CoreError::Vqc(e),
            qmarl_runtime::error::RuntimeError::Env(e) => CoreError::Env(e),
            other => CoreError::Runtime(other),
        }
    }
}

impl<E: Into<CoreError>> From<qmarl_runtime::rollout::RolloutError<E>> for CoreError {
    fn from(e: qmarl_runtime::rollout::RolloutError<E>) -> Self {
        match e {
            qmarl_runtime::rollout::RolloutError::Env(e) => CoreError::Env(e),
            qmarl_runtime::rollout::RolloutError::Policy(e) => e.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = CoreError::from(qmarl_vqc::error::VqcError::InvalidConfig("x".into()));
        assert!(e.to_string().contains("vqc error"));
        assert!(e.source().is_some());
        let e = CoreError::from(qmarl_env::error::EnvError::EpisodeOver);
        assert!(e.source().is_some());
        let e = CoreError::InvalidConfig("bad gamma".into());
        assert!(e.source().is_none());
        assert!(!CoreError::ParamLenMismatch {
            expected: 1,
            actual: 2
        }
        .to_string()
        .is_empty());
        assert!(!CoreError::FeatureLenMismatch {
            expected: 1,
            actual: 2
        }
        .to_string()
        .is_empty());
        let e = CoreError::NonFinite {
            epoch: 3,
            agent: Some(1),
            what: "actor gradient",
        };
        assert_eq!(
            e.to_string(),
            "non-finite actor gradient in epoch 3 (agent 1)"
        );
        assert!(e.source().is_none());
    }
}
