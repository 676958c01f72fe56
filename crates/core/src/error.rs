//! Typed errors for the accelerator model: the `SimError` plumbed from
//! the functional engine up through the cycle simulators.
//!
//! Before fault injection existed, every violated invariant was an
//! `assert!`/`panic!` that killed the point. `SimError` makes those
//! conditions values: injected faults (and genuine model bugs) surface
//! as `Err` results the harness can classify, retry, or quarantine.

use sparten_tensor::TensorError;
use std::fmt;

/// An error surfaced by the accelerator model instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A sparse tensor violated its structural invariants.
    Tensor(TensorError),
    /// The CPU-side command stream violated the control protocol.
    Protocol {
        /// What was malformed.
        detail: String,
    },
    /// A compute unit with assigned work never completes.
    StuckUnit {
        /// Cluster holding the stuck unit.
        cluster: usize,
        /// Unit index within the cluster.
        unit: usize,
    },
    /// The output collector's traced nonzero count disagrees with the
    /// values actually stored (e.g. a dropped collector write).
    OutputAccounting {
        /// Nonzero writes counted by the work trace.
        traced: u64,
        /// Nonzero values present in the stored output.
        stored: u64,
    },
    /// A cross-check invariant failed (telemetry reconciliation, cycle
    /// accounting identities, ...).
    Invariant {
        /// Which check failed.
        context: String,
        /// What it reported.
        detail: String,
    },
}

impl SimError {
    /// Builds an [`SimError::Invariant`] from any displayable detail.
    pub fn invariant(context: impl Into<String>, detail: impl fmt::Display) -> Self {
        SimError::Invariant {
            context: context.into(),
            detail: detail.to_string(),
        }
    }
}

impl From<TensorError> for SimError {
    fn from(e: TensorError) -> Self {
        SimError::Tensor(e)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Tensor(e) => write!(f, "tensor invariant violated: {e}"),
            SimError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            SimError::StuckUnit { cluster, unit } => write!(
                f,
                "compute unit {unit} in cluster {cluster} is stuck with assigned work"
            ),
            SimError::OutputAccounting { traced, stored } => write!(
                f,
                "output accounting mismatch: trace counted {traced} nonzero writes, \
                 store holds {stored}"
            ),
            SimError::Invariant { context, detail } => write!(f, "{context}: {detail}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_errors_convert() {
        let e: SimError = TensorError::StrayMaskBits { len: 4 }.into();
        assert!(matches!(e, SimError::Tensor(_)));
        assert!(e.to_string().contains("tensor invariant"));
    }

    #[test]
    fn protocol_display_keeps_detail() {
        let e = SimError::Protocol {
            detail: "slots must load in order".into(),
        };
        assert!(e.to_string().contains("slots must load in order"));
    }

    #[test]
    fn invariant_helper_formats() {
        let e = SimError::invariant("telemetry reconcile", "counter drift on work.nonzero");
        assert_eq!(
            e.to_string(),
            "telemetry reconcile: counter drift on work.nonzero"
        );
    }
}
