//! Error type of the characterization library.

use rh_dram::DramError;
use rh_softmc::SoftMcError;
use std::error::Error;
use std::fmt;

/// Errors surfaced while characterizing a module.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CharError {
    /// The testing infrastructure failed.
    Infra(SoftMcError),
    /// Row-mapping reverse engineering could not find a consistent
    /// scheme.
    MappingUnresolved {
        /// Number of adjacency observations collected.
        observations: usize,
    },
    /// A victim row too close to the bank edge for the requested
    /// neighborhood.
    VictimOutOfRange {
        /// The offending row.
        row: u32,
    },
    /// The bank's geometry cannot hold the requested victim sample
    /// together with the guard neighborhood around each victim.
    SampleInfeasible {
        /// Rows per bank of the module under test.
        rows_per_bank: u32,
        /// Victim rows the scale asks for.
        victims: u32,
        /// Neighborhood radius written around each victim.
        radius: u32,
    },
    /// A campaign worker thread panicked; the panic was contained and
    /// converted into this per-module outcome.
    WorkerPanicked {
        /// The panic payload, if it was a string.
        detail: String,
    },
    /// A request names something that does not exist or does not
    /// decode: an unknown target, a malformed fleet payload or replay
    /// token. Never transient: the same input fails the same way.
    InvalidInput {
        /// What was wrong with the input.
        detail: String,
    },
    /// Reading or writing a campaign checkpoint failed.
    Checkpoint {
        /// What went wrong (I/O errors are not `Clone`, so the message
        /// is captured instead).
        detail: String,
    },
    /// The worker was cancelled (campaign shutdown or a watchdog
    /// deadline) and unwound at a command boundary. Never retried and
    /// never checkpointed: a resumed campaign re-runs the module.
    Cancelled {
        /// The operation that observed the cancellation.
        op: String,
    },
}

impl CharError {
    /// The [`WorkerPanicked`](CharError::WorkerPanicked) error of a
    /// caught panic, with its payload if that was a string.
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> Self {
        let detail = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        CharError::WorkerPanicked { detail }
    }

    /// Whether a retry against a fresh bench could plausibly succeed.
    /// The campaign runner quarantines a module early when its error is
    /// not transient.
    pub fn is_transient(&self) -> bool {
        match self {
            CharError::Infra(e) => e.is_transient(),
            CharError::WorkerPanicked { .. } => false,
            _ => false,
        }
    }

    /// Whether this error is a cooperative cancellation rather than a
    /// fault. The campaign runner records such modules as
    /// [`Cancelled`](crate::ModuleStatus::Cancelled) instead of
    /// quarantining them.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, CharError::Cancelled { .. })
    }
}

impl fmt::Display for CharError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CharError::Infra(e) => write!(f, "infrastructure error: {e}"),
            CharError::MappingUnresolved { observations } => write!(
                f,
                "no row-mapping scheme consistent with {observations} adjacency observations"
            ),
            CharError::VictimOutOfRange { row } => {
                write!(f, "victim row {row} too close to the bank edge")
            }
            CharError::SampleInfeasible { rows_per_bank, victims, radius } => write!(
                f,
                "bank with {rows_per_bank} rows cannot hold {victims} victims with radius-{radius} neighborhoods"
            ),
            CharError::WorkerPanicked { detail } => {
                write!(f, "campaign worker panicked: {detail}")
            }
            CharError::InvalidInput { detail } => write!(f, "invalid input: {detail}"),
            CharError::Checkpoint { detail } => {
                write!(f, "campaign checkpoint error: {detail}")
            }
            CharError::Cancelled { op } => {
                write!(f, "cancelled during {op}")
            }
        }
    }
}

impl Error for CharError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CharError::Infra(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<SoftMcError> for CharError {
    fn from(e: SoftMcError) -> Self {
        match e {
            // Cancellation is a scheduling decision, not an
            // infrastructure fault — keep its identity so the campaign
            // can tell the two apart.
            SoftMcError::Cancelled { op } => CharError::Cancelled { op },
            other => CharError::Infra(other),
        }
    }
}

#[doc(hidden)]
impl From<DramError> for CharError {
    fn from(e: DramError) -> Self {
        CharError::Infra(SoftMcError::Dram(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CharError::MappingUnresolved { observations: 3 };
        assert!(e.to_string().contains("3 adjacency"));
        assert!(Error::source(&e).is_none());
        let e2 = CharError::from(SoftMcError::InvalidProgram { reason: "x".into() });
        assert!(Error::source(&e2).is_some());
    }

    #[test]
    fn campaign_variants_display_and_classify() {
        let p = CharError::WorkerPanicked { detail: "index out of bounds".into() };
        assert_eq!(p.to_string(), "campaign worker panicked: index out of bounds");
        assert!(Error::source(&p).is_none());
        assert!(!p.is_transient());

        let i = CharError::InvalidInput { detail: "unknown repro target 'fig99'".into() };
        assert_eq!(i.to_string(), "invalid input: unknown repro target 'fig99'");
        assert!(!i.is_transient());

        let c = CharError::Checkpoint { detail: "bad JSON at byte 7".into() };
        assert_eq!(c.to_string(), "campaign checkpoint error: bad JSON at byte 7");
        assert!(Error::source(&c).is_none());
        assert!(!c.is_transient());

        // Transience tunnels through Infra to the SoftMcError taxonomy.
        let t = CharError::from(SoftMcError::HostLink { op: "run".into() });
        assert!(t.is_transient());
        let d = CharError::from(SoftMcError::Unresponsive { after_ops: 1 });
        assert!(!d.is_transient());

        // Cancellation keeps its identity through the conversion.
        let c = CharError::from(SoftMcError::Cancelled { op: "program loop".into() });
        assert!(matches!(c, CharError::Cancelled { .. }), "{c:?}");
        assert!(c.is_cancelled());
        assert!(!c.is_transient());
        assert_eq!(c.to_string(), "cancelled during program loop");
    }
}
