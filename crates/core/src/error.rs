//! Error type for the DASH core.

use dash_linalg::LinalgError;
use dash_mpc::MpcError;
use dash_stats::StatsError;
use std::fmt;

/// Errors from scan construction and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Party-local data had inconsistent shapes (y length vs X/C rows).
    ShapeMismatch {
        what: &'static str,
        expected: usize,
        got: usize,
    },
    /// Parties disagree on the number of variants M or covariates K.
    PartiesInconsistent {
        what: &'static str,
        party: usize,
        expected: usize,
        got: usize,
    },
    /// No parties were supplied.
    NoParties,
    /// Too few samples: the scan needs N > K + 1 so the residual degrees
    /// of freedom `N − K − 1` are positive.
    NotEnoughSamples { n: usize, k: usize },
    /// The pooled permanent covariates are rank deficient (collinear), so
    /// the model is unidentifiable.
    CollinearCovariates,
    /// A configuration value was invalid.
    BadConfig { what: &'static str },
    /// A worker thread panicked; the payload is preserved instead of
    /// aborting the process with an opaque join failure.
    WorkerPanicked { reason: String },
    /// Saving, loading, or validating a crash-recovery checkpoint failed
    /// (corrupt file, fingerprint mismatch, unsupported configuration).
    Checkpoint { what: String },
    /// A [`SummandSource`](crate::secure::SummandSource) could not read
    /// its party's data (a streamed table that fails to parse).
    Source { what: String },
    /// A [`RowSink`](crate::model::RowSink) could not take or keep the
    /// rows handed to it (a result file that cannot be written).
    Sink { what: String },
    /// An underlying linear-algebra kernel failed.
    Linalg(LinalgError),
    /// An underlying statistical routine failed.
    Stats(StatsError),
    /// An MPC protocol failed.
    Mpc(MpcError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ShapeMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what}: expected {expected}, got {got}"),
            CoreError::PartiesInconsistent {
                what,
                party,
                expected,
                got,
            } => write!(
                f,
                "party {party} disagrees on {what}: expected {expected}, got {got}"
            ),
            CoreError::NoParties => write!(f, "at least one party is required"),
            CoreError::NotEnoughSamples { n, k } => write!(
                f,
                "need N > K + 1 for positive degrees of freedom; got N = {n}, K = {k}"
            ),
            CoreError::CollinearCovariates => write!(
                f,
                "pooled permanent covariates are collinear; drop or merge columns of C"
            ),
            CoreError::BadConfig { what } => write!(f, "invalid configuration: {what}"),
            CoreError::WorkerPanicked { reason } => {
                write!(f, "worker thread panicked: {reason}")
            }
            CoreError::Checkpoint { what } => write!(f, "checkpoint: {what}"),
            CoreError::Source { what } => write!(f, "party data: {what}"),
            CoreError::Sink { what } => write!(f, "results: {what}"),
            CoreError::Linalg(e) => write!(f, "linear algebra: {e}"),
            CoreError::Stats(e) => write!(f, "statistics: {e}"),
            CoreError::Mpc(e) => write!(f, "mpc: {e}"),
        }
    }
}

impl CoreError {
    /// Builds [`CoreError::WorkerPanicked`] from a thread's panic payload,
    /// recovering the human-readable message when there is one.
    pub(crate) fn worker_panicked(payload: &(dyn std::any::Any + Send)) -> Self {
        let reason = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        CoreError::WorkerPanicked { reason }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Linalg(e) => Some(e),
            CoreError::Stats(e) => Some(e),
            CoreError::Mpc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for CoreError {
    fn from(e: LinalgError) -> Self {
        // Rank deficiency during R inversion / Cholesky is the
        // collinear-covariates condition; translate it so callers get a
        // domain-level diagnosis.
        match e {
            LinalgError::Singular { .. } | LinalgError::NotPositiveDefinite { .. } => {
                CoreError::CollinearCovariates
            }
            other => CoreError::Linalg(other),
        }
    }
}

impl From<StatsError> for CoreError {
    fn from(e: StatsError) -> Self {
        CoreError::Stats(e)
    }
}

impl From<MpcError> for CoreError {
    fn from(e: MpcError) -> Self {
        CoreError::Mpc(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singular_translates_to_collinear() {
        let e: CoreError = LinalgError::Singular {
            pivot_index: 1,
            pivot: 0.0,
        }
        .into();
        assert_eq!(e, CoreError::CollinearCovariates);
        let e: CoreError = LinalgError::NotPositiveDefinite {
            pivot_index: 0,
            pivot: -1.0,
        }
        .into();
        assert_eq!(e, CoreError::CollinearCovariates);
    }

    #[test]
    fn other_linalg_preserved() {
        let inner = LinalgError::NotTall { rows: 2, cols: 3 };
        let e: CoreError = inner.clone().into();
        assert_eq!(e, CoreError::Linalg(inner));
    }

    #[test]
    fn displays() {
        assert!(CoreError::NoParties.to_string().contains("at least one"));
        assert!(CoreError::NotEnoughSamples { n: 3, k: 2 }
            .to_string()
            .contains("N = 3"));
    }
}
