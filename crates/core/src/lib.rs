//! # cdas-core — the quality-sensitive answering model of CDAS
//!
//! This crate implements the core contribution of *CDAS: A Crowdsourcing Data Analytics
//! System* (Liu et al., PVLDB 5(10), 2012): a **quality-sensitive answering model** that a
//! crowdsourcing query engine uses to
//!
//! 1. **predict** how many human workers must be assigned to a task so that the aggregated
//!    answer meets a user-required accuracy `C` ([`prediction`]),
//! 2. **verify** (aggregate) the conflicting answers returned by workers, weighting each
//!    worker by their historical accuracy ([`verification`]),
//! 3. process answers **online**, producing an approximate result as soon as the first
//!    answer arrives and terminating early once the result is stable ([`online`]),
//! 4. estimate worker accuracy by **sampling** gold questions with known ground truth
//!    ([`sampling`]), and
//! 5. present aggregated results with per-answer percentages and keyword reasons
//!    ([`presentation`]), and
//! 6. **share** the worker-accuracy estimates learned by one job with every other job
//!    multiplexed over the same crowd ([`sharing`]).
//!
//! The crate is deliberately free of I/O and randomness: it consumes plain observations
//! (who answered what, with which estimated accuracy) and produces decisions. The
//! surrounding crates (`cdas-crowd`, `cdas-engine`) supply those observations, either from
//! a simulated crowd or from a real platform adapter.
//!
//! ## Quick example
//!
//! ```
//! use cdas_core::prediction::PredictionModel;
//! use cdas_core::types::{Label, Observation, Vote, WorkerId};
//! use cdas_core::verification::probabilistic::ProbabilisticVerifier;
//!
//! // 1. How many workers do we need for 95% expected accuracy if the average
//! //    worker is right 75% of the time?
//! let prediction = PredictionModel::new(0.75).unwrap();
//! let n = prediction.refined_workers(0.95).unwrap();
//! assert!(n >= 5 && n % 2 == 1);
//!
//! // 2. Aggregate conflicting answers, weighting by worker accuracy
//! //    (the worked example of Table 3/4 in the paper).
//! let obs = Observation::from_votes(vec![
//!     Vote::new(WorkerId(1), Label::from("pos"), 0.54),
//!     Vote::new(WorkerId(2), Label::from("pos"), 0.31),
//!     Vote::new(WorkerId(3), Label::from("neu"), 0.49),
//!     Vote::new(WorkerId(4), Label::from("neg"), 0.73),
//!     Vote::new(WorkerId(5), Label::from("pos"), 0.46),
//! ]);
//! let verifier = ProbabilisticVerifier::with_domain_size(3);
//! let result = verifier.verify(&obs).unwrap();
//! assert_eq!(result.best().as_str(), "neg");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod accuracy;
pub mod codec;
pub mod economics;
pub mod error;
pub mod math;
pub mod model;
pub mod online;
pub mod prediction;
pub mod presentation;
pub mod sampling;
pub mod sharing;
pub mod types;
pub mod verification;

pub use error::{CdasError, Result};
pub use model::QualitySensitiveModel;
pub use types::{Label, Observation, QuestionId, Vote, WorkerId};
