//! Errors raised while validating or building scenarios.

use strat_core::ModelError;
use strat_graph::GraphError;

/// Why a [`Scenario`](crate::Scenario) could not be built or parsed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// A model parameter is out of its domain.
    InvalidParameter {
        /// Which parameter.
        what: &'static str,
        /// Human-readable constraint violation.
        reason: String,
    },
    /// The capacity model cannot be interpreted in the requested unit
    /// (e.g. Saroiu bandwidths asked for as collaboration slots).
    CapacityUnit {
        /// The offending model, rendered for the message.
        model: String,
        /// The unit the caller asked for.
        wanted: &'static str,
    },
    /// An explicit value list does not cover the peer count.
    SizeMismatch {
        /// Peers the scenario declares.
        expected: usize,
        /// Values actually provided.
        actual: usize,
    },
    /// A swarm build was requested but the scenario has no `swarm` section.
    MissingSwarm,
    /// A session build was requested but the swarm section has no `churn`
    /// sub-section.
    MissingChurn,
    /// An event-engine build was requested but the swarm section has no
    /// `timing` sub-section.
    MissingTiming,
    /// A universe build was requested but the swarm section has no
    /// `universe` sub-section.
    MissingUniverse,
    /// The underlying graph construction failed.
    Graph(GraphError),
    /// The underlying matching-model construction failed.
    Model(ModelError),
    /// JSON parsing or schema walking failed.
    Parse(String),
}

impl core::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScenarioError::InvalidParameter { what, reason } => {
                write!(f, "invalid {what}: {reason}")
            }
            ScenarioError::CapacityUnit { model, wanted } => {
                write!(f, "capacity model {model} cannot provide {wanted}")
            }
            ScenarioError::SizeMismatch { expected, actual } => {
                write!(
                    f,
                    "explicit values cover {actual} peers, scenario declares {expected}"
                )
            }
            ScenarioError::MissingSwarm => {
                write!(f, "scenario has no `swarm` section; cannot build a swarm")
            }
            ScenarioError::MissingChurn => {
                write!(
                    f,
                    "swarm section has no `churn` sub-section; cannot build a session"
                )
            }
            ScenarioError::MissingTiming => {
                write!(
                    f,
                    "swarm section has no `timing` sub-section; cannot build an event engine"
                )
            }
            ScenarioError::MissingUniverse => {
                write!(
                    f,
                    "swarm section has no `universe` sub-section; cannot build a universe"
                )
            }
            ScenarioError::Graph(e) => write!(f, "topology: {e}"),
            ScenarioError::Model(e) => write!(f, "model: {e}"),
            ScenarioError::Parse(msg) => write!(f, "scenario JSON: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// `Ok` when `ok` holds, else `what`'s [`ScenarioError::InvalidParameter`]
/// with the reason `reason` renders.
pub(crate) fn ensure(
    ok: bool,
    what: &'static str,
    reason: impl FnOnce() -> String,
) -> Result<(), ScenarioError> {
    ok.then_some(())
        .ok_or_else(|| ScenarioError::InvalidParameter {
            what,
            reason: reason(),
        })
}

impl From<GraphError> for ScenarioError {
    fn from(e: GraphError) -> Self {
        ScenarioError::Graph(e)
    }
}

impl From<ModelError> for ScenarioError {
    fn from(e: ModelError) -> Self {
        ScenarioError::Model(e)
    }
}

impl From<serde_json::ParseError> for ScenarioError {
    fn from(e: serde_json::ParseError) -> Self {
        ScenarioError::Parse(e.to_string())
    }
}

impl From<serde::DeError> for ScenarioError {
    fn from(e: serde::DeError) -> Self {
        ScenarioError::Parse(e.to_string())
    }
}
