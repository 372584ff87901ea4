use std::fmt;

/// Why a runtime call could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The tracking layer's piggyback merge rejected a message the
    /// delivery gate had approved (e.g. a poisoned or stale piggyback
    /// admitted across an incarnation boundary). The protocol state on
    /// this rank can no longer be trusted, so the incarnation must
    /// drop volatile state and rebuild through the normal rollback
    /// path — it is a single-rank fault, not a process abort.
    Desync,
    /// A collective operation could not complete because its
    /// contribution pattern was violated — a participant died
    /// mid-collective, double-contributed, or a root supplied no
    /// value. Carries a short reason for diagnostics. Survivors unwind
    /// and retry the operation through the normal recovery path.
    Collective(&'static str),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Desync => {
                write!(f, "tracking merge rejected a gate-approved message; rank desynchronized")
            }
            Fault::Collective(reason) => {
                write!(f, "collective operation failed: {reason}")
            }
        }
    }
}

impl std::error::Error for Fault {}

/// What an application step reports back to the runtime loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// More steps to run.
    Continue,
    /// The application has finished its computation.
    Done,
}
