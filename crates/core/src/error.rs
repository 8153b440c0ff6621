//! Error type shared by every module of the quality-sensitive answering model.

use std::fmt;

use crate::types::QuestionId;

/// Convenient result alias used throughout the crate.
pub type Result<T, E = CdasError> = std::result::Result<T, E>;

/// Errors produced by the quality-sensitive answering model.
///
/// Every variant carries enough context to explain *why* a model refused to produce an
/// estimate; callers in the engine surface these directly to the job requester.
#[derive(Debug, Clone, PartialEq)]
pub enum CdasError {
    /// The mean worker accuracy `μ` is not usable by the prediction model.
    ///
    /// Theorem 3 requires `μ > 0.5`: if the average worker is no better than a coin flip,
    /// no number of workers makes a majority reliable.
    InvalidMeanAccuracy {
        /// The offending mean accuracy.
        mu: f64,
    },
    /// A worker accuracy outside `(0, 1)` was supplied where an open-interval value is
    /// required (e.g. when computing the log-odds confidence).
    InvalidWorkerAccuracy {
        /// The offending accuracy value.
        accuracy: f64,
    },
    /// The user-required accuracy `C` is outside the half-open interval `[0, 1)`.
    InvalidRequiredAccuracy {
        /// The offending required accuracy.
        required: f64,
    },
    /// An observation with no votes was given to a component that needs at least one vote.
    EmptyObservation,
    /// The answer domain is too small (fewer than two possible answers).
    DegenerateDomain {
        /// The offending domain size.
        size: usize,
    },
    /// A sampling plan was requested with a rate outside `(0, 1]`.
    InvalidSamplingRate {
        /// The offending sampling rate.
        rate: f64,
    },
    /// A quantity that must be positive was zero or negative.
    NonPositive {
        /// Human-readable name of the quantity.
        what: &'static str,
    },
    /// The prediction model's worker estimate is astronomically large — the required
    /// accuracy is so close to 1 (or the mean worker accuracy so close to ½) that the
    /// Chernoff bound demands more workers than any HIT could ever be assigned. The
    /// inputs are *individually* valid, which is why this is a separate variant: the
    /// combination is what cannot be served.
    WorkerEstimateOverflow {
        /// The required accuracy `C` that produced the estimate.
        required: f64,
        /// The mean worker accuracy `μ` that produced the estimate.
        mu: f64,
        /// The conservative upper bound that overflowed the refinement's search range
        /// (saturated at `u64::MAX` when it exceeds even that).
        upper: u64,
    },
    /// A job demands more concurrent workers than the shared pool roster can ever supply,
    /// so scheduling it would wait forever.
    PoolExhausted {
        /// Workers the job's batches need at once.
        needed: usize,
        /// Workers the shared roster holds in total.
        available: usize,
    },
    /// The scheduler detected a tick in which no batch could be published or ingested
    /// although jobs remain unfinished (a progress bug or an impossible configuration).
    SchedulerStalled {
        /// The tick at which progress stopped.
        ticks: usize,
    },
    /// A fleet was built over a crowd with no workers: nothing could ever be dispatched.
    EmptyFleet,
    /// A configuration value no run can use: a non-finite number, a reversed range, or
    /// a non-positive distribution shape. It is caught before anything is built or
    /// journaled, instead of panicking inside a sampler mid-run or skewing a report.
    InvalidConfig {
        /// The offending field, e.g. `crowd.latency` or `service.budget`.
        field: &'static str,
        /// What is wrong with its value.
        detail: String,
    },
    /// A job was submitted with no questions: there is no human part to crowdsource.
    EmptyJob {
        /// The offending job's name.
        name: String,
    },
    /// A batch lists the same question twice. The engine keeps answers and verdicts per
    /// question id, so the second copy could never be verified.
    DuplicateQuestion {
        /// The repeated question id.
        question: QuestionId,
    },
    /// The requested shard count cannot partition the fleet's crowd: zero shards serve
    /// nothing, and more shards than workers would leave shards with empty rosters.
    InvalidShardCount {
        /// The requested shard count.
        shards: usize,
        /// The number of workers in the crowd being partitioned.
        workers: usize,
    },
    /// An I/O operation on the write-ahead journal failed (open, read, write, or sync).
    JournalIo {
        /// The path (directory or segment file) the operation touched.
        path: String,
        /// The underlying I/O error, rendered to text (keeps the variant `Clone + PartialEq`).
        detail: String,
    },
    /// A journal record failed its integrity checks somewhere other than the torn tail of
    /// the final segment — a CRC mismatch, an undecodable payload, or a frame that
    /// overruns a non-final segment. Unlike a torn tail (expected after a crash), this
    /// means the journal was damaged after it was written.
    JournalCorrupt {
        /// The segment file in which the damage was found.
        segment: String,
        /// Byte offset of the damaged record frame within the segment.
        offset: u64,
        /// What exactly failed to check out.
        detail: String,
    },
    /// The journal holds no `RunStarted` record, so there is no run to recover — either
    /// the directory is empty or the process died before the header record was durable.
    JournalEmpty,
    /// Replaying the journal diverged from the journaled history: deterministic
    /// re-execution produced a dispatch, charge, or commit that contradicts a journaled
    /// record. The journal belongs to a different configuration or was edited.
    JournalDiverged {
        /// The first contradiction found.
        detail: String,
    },
}

impl fmt::Display for CdasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdasError::InvalidMeanAccuracy { mu } => write!(
                f,
                "mean worker accuracy must be in (0.5, 1.0) for the prediction model, got {mu}"
            ),
            CdasError::InvalidWorkerAccuracy { accuracy } => {
                write!(
                    f,
                    "worker accuracy must lie strictly inside (0, 1), got {accuracy}"
                )
            }
            CdasError::InvalidRequiredAccuracy { required } => {
                write!(f, "required accuracy must lie in [0, 1), got {required}")
            }
            CdasError::EmptyObservation => write!(f, "observation contains no votes"),
            CdasError::DegenerateDomain { size } => {
                write!(
                    f,
                    "answer domain must contain at least 2 answers, got {size}"
                )
            }
            CdasError::InvalidSamplingRate { rate } => {
                write!(f, "sampling rate must lie in (0, 1], got {rate}")
            }
            CdasError::NonPositive { what } => write!(f, "{what} must be positive"),
            CdasError::WorkerEstimateOverflow { required, mu, upper } => write!(
                f,
                "worker estimate overflowed: required accuracy {required} with mean worker \
                 accuracy {mu} needs ~{upper} workers, beyond any dispatchable HIT"
            ),
            CdasError::PoolExhausted { needed, available } => write!(
                f,
                "job needs {needed} concurrent workers but the shared pool roster only has {available}"
            ),
            CdasError::SchedulerStalled { ticks } => {
                write!(f, "scheduler made no progress at tick {ticks}")
            }
            CdasError::EmptyFleet => {
                write!(f, "fleet crowd has no workers; nothing can be dispatched")
            }
            CdasError::InvalidConfig { field, detail } => write!(f, "invalid {field}: {detail}"),
            CdasError::EmptyJob { name } => {
                write!(f, "job {name:?} has no questions to crowdsource")
            }
            CdasError::DuplicateQuestion { question } => {
                write!(f, "question {question} appears twice in one batch")
            }
            CdasError::InvalidShardCount { shards, workers } => write!(
                f,
                "cannot split a {workers}-worker crowd into {shards} shards \
                 (need 1 <= shards <= workers)"
            ),
            CdasError::JournalIo { path, detail } => {
                write!(f, "journal I/O error at {path}: {detail}")
            }
            CdasError::JournalCorrupt {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "journal segment {segment} corrupt at byte {offset}: {detail}"
            ),
            CdasError::JournalEmpty => {
                write!(f, "journal holds no run to recover (no RunStarted record)")
            }
            CdasError::JournalDiverged { detail } => write!(
                f,
                "journal replay diverged from the journaled history: {detail}"
            ),
        }
    }
}

impl std::error::Error for CdasError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_offending_values() {
        let e = CdasError::InvalidMeanAccuracy { mu: 0.4 };
        assert!(e.to_string().contains("0.4"));
        let e = CdasError::InvalidRequiredAccuracy { required: 1.2 };
        assert!(e.to_string().contains("1.2"));
        let e = CdasError::InvalidWorkerAccuracy { accuracy: -0.1 };
        assert!(e.to_string().contains("-0.1"));
        let e = CdasError::InvalidSamplingRate { rate: 0.0 };
        assert!(e.to_string().contains('0'));
        let e = CdasError::DegenerateDomain { size: 1 };
        assert!(e.to_string().contains('1'));
        let e = CdasError::PoolExhausted {
            needed: 9,
            available: 4,
        };
        assert!(e.to_string().contains('9') && e.to_string().contains('4'));
        let e = CdasError::SchedulerStalled { ticks: 17 };
        assert!(e.to_string().contains("17"));
        let e = CdasError::EmptyFleet;
        assert!(e.to_string().contains("no workers"));
        let e = CdasError::InvalidConfig {
            field: "crowd.latency",
            detail: "the range 10..1 is reversed".to_string(),
        };
        assert!(e.to_string().contains("crowd.latency") && e.to_string().contains("10..1"));
        let e = CdasError::EmptyJob {
            name: "thor".to_string(),
        };
        assert!(e.to_string().contains("thor"));
        let e = CdasError::DuplicateQuestion {
            question: QuestionId(41),
        };
        assert!(e.to_string().contains("q41"));
        let e = CdasError::InvalidShardCount {
            shards: 9,
            workers: 4,
        };
        assert!(e.to_string().contains('9') && e.to_string().contains('4'));
        let e = CdasError::JournalIo {
            path: "/tmp/journal".to_string(),
            detail: "disk on fire".to_string(),
        };
        assert!(e.to_string().contains("/tmp/journal") && e.to_string().contains("disk on fire"));
        let e = CdasError::JournalCorrupt {
            segment: "segment-000001.cdj".to_string(),
            offset: 96,
            detail: "crc mismatch".to_string(),
        };
        assert!(e.to_string().contains("segment-000001.cdj"));
        assert!(e.to_string().contains("96") && e.to_string().contains("crc mismatch"));
        let e = CdasError::JournalEmpty;
        assert!(e.to_string().contains("no run to recover"));
        let e = CdasError::JournalDiverged {
            detail: "commit for job 3 seq 0 does not match".to_string(),
        };
        assert!(e.to_string().contains("job 3"));
        let e = CdasError::WorkerEstimateOverflow {
            required: 0.99,
            mu: 0.5000000001,
            upper: u64::MAX,
        };
        assert!(e.to_string().contains("0.99"));
        assert!(e.to_string().contains("workers"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_e: &E) {}
        assert_err(&CdasError::EmptyObservation);
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(CdasError::EmptyObservation, CdasError::EmptyObservation);
        assert_ne!(
            CdasError::EmptyObservation,
            CdasError::NonPositive { what: "n" }
        );
    }
}
