//! Typed admission outcomes: overload produces answers, not backlog.
//!
//! Submitting a job can fail in three ways, all of which the serving layer
//! reports explicitly instead of silently enqueueing:
//!
//! * [`AdmissionError::Invalid`] — the [`crate::JobSpec`] itself is
//!   malformed (see [`InvalidJob`]); [`crate::Client::submit`] returns this
//!   immediately, so a bad job never reaches a worker thread.
//! * [`AdmissionError::Rejected`] — the shard is full and the incoming job
//!   is the cheapest-to-retry work in sight; [`crate::Client::submit`]
//!   returns this immediately, so the tenant can back off and retry.
//! * [`AdmissionError::Shed`] — the job *was* admitted earlier but a more
//!   valuable job displaced it before a worker picked it up; it arrives on
//!   the job's reply channel as the `Err` arm of [`crate::JobReply`].
//!
//! "Cheaper" is [`crate::JobSpec::shed_rank`]: Background before Batch
//! before Interactive, and Infer before Train within a class — an
//! inference is a stateless read, so retrying it costs nothing, while a
//! dropped training step loses an SGD update.

use crate::qos::QosClass;
use std::fmt;

/// Why a job was not served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The target shard was at its bound and no queued job was cheaper to
    /// shed than the incoming one; the job was never enqueued.
    Rejected {
        /// The per-shard job bound that was hit.
        bound: usize,
    },
    /// The job was enqueued but later displaced by a more valuable
    /// arrival; delivered on the reply channel.
    Shed {
        /// QoS class of the job that displaced this one.
        by: QosClass,
    },
    /// The job spec is malformed; the job was never enqueued.
    Invalid(InvalidJob),
}

/// Why [`crate::Client::submit`] refused a malformed [`crate::JobSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidJob {
    /// `model` is not an index into the server's catalog.
    UnknownModel {
        /// The requested catalog index.
        model: usize,
        /// Number of models in the catalog.
        catalog: usize,
    },
    /// The job asks for zero request rows.
    NoRows,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Rejected { bound } => write!(
                f,
                "rejected: queue shard at its {bound}-job bound held no cheaper work"
            ),
            AdmissionError::Shed { by } => {
                write!(f, "shed from the queue by an arriving {by} job")
            }
            AdmissionError::Invalid(InvalidJob::UnknownModel { model, catalog }) => write!(
                f,
                "invalid job: model {model} is not in the {catalog}-model catalog"
            ),
            AdmissionError::Invalid(InvalidJob::NoRows) => {
                write!(f, "invalid job: a job needs at least one request row")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// What a reply channel yields: the completed [`crate::JobResult`] or the
/// typed reason the job was dropped after admission.
pub type JobReply = Result<crate::JobResult, AdmissionError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_cause() {
        let rejected = AdmissionError::Rejected { bound: 64 };
        assert!(rejected.to_string().contains("64"));
        let shed = AdmissionError::Shed {
            by: QosClass::Interactive,
        };
        assert!(shed.to_string().contains("interactive"));
        let unknown = AdmissionError::Invalid(InvalidJob::UnknownModel {
            model: 7,
            catalog: 2,
        });
        assert!(unknown.to_string().contains("model 7"));
        assert!(AdmissionError::Invalid(InvalidJob::NoRows)
            .to_string()
            .contains("row"));
    }
}
