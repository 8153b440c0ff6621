//! Worker-accuracy bookkeeping: per-worker estimates and population statistics.
//!
//! The prediction model (§3) only needs the population mean `μ`; the verification model
//! (§4) needs the individual accuracy `a_j` of every worker that voted. Both are served by
//! [`AccuracyRegistry`], which the engine populates from the sampling estimator
//! ([`crate::sampling`]) or, in simulations, directly from the crowd model.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::{CdasError, Result};
use crate::math::clamp_probability;
use crate::types::WorkerId;

/// Population-level statistics over worker accuracies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyStats {
    /// Mean accuracy `μ` over the population.
    pub mean: f64,
    /// Unbiased sample variance of the accuracies (0 for fewer than two workers).
    pub variance: f64,
    /// Smallest observed accuracy.
    pub min: f64,
    /// Largest observed accuracy.
    pub max: f64,
    /// Number of workers the statistics were computed from.
    pub count: usize,
}

impl AccuracyStats {
    /// Compute statistics from a slice of accuracies.
    ///
    /// Returns an error when the slice is empty or any accuracy lies outside `[0, 1]`.
    pub fn from_accuracies(accuracies: &[f64]) -> Result<Self> {
        if accuracies.is_empty() {
            return Err(CdasError::EmptyObservation);
        }
        for &a in accuracies {
            if !(0.0..=1.0).contains(&a) || a.is_nan() {
                return Err(CdasError::InvalidWorkerAccuracy { accuracy: a });
            }
        }
        let count = accuracies.len();
        let mean = accuracies.iter().sum::<f64>() / count as f64;
        let variance = if count > 1 {
            accuracies.iter().map(|a| (a - mean).powi(2)).sum::<f64>() / (count as f64 - 1.0)
        } else {
            0.0
        };
        let min = accuracies.iter().copied().fold(f64::INFINITY, f64::min);
        let max = accuracies.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Ok(AccuracyStats {
            mean,
            variance,
            min,
            max,
            count,
        })
    }

    /// Standard deviation of the accuracies.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }
}

/// Registry of per-worker accuracy estimates with a population mean.
///
/// The registry also caches the worker's log-odds `ln(a_j / (1 − a_j))`, mirroring the
/// paper's remark that the confidence term can be cached per known worker.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AccuracyRegistry {
    entries: BTreeMap<WorkerId, WorkerAccuracy>,
    /// Accuracy assumed for a worker the registry has never seen.
    default_accuracy: Option<f64>,
}

/// A single worker's accuracy estimate together with the cached log-odds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkerAccuracy {
    /// Estimated probability of the worker answering correctly.
    pub accuracy: f64,
    /// Cached `ln(a / (1 − a))`, the worker-specific part of the confidence in Definition 2.
    pub log_odds: f64,
    /// How many gold (sample) questions the estimate is based on; zero when the estimate
    /// was injected directly (e.g. from a simulation oracle).
    pub samples: usize,
}

impl WorkerAccuracy {
    /// Build an estimate from an accuracy value, clamping it into `(0, 1)`.
    pub fn new(accuracy: f64, samples: usize) -> Self {
        let a = clamp_probability(accuracy);
        WorkerAccuracy {
            accuracy: a,
            log_odds: (a / (1.0 - a)).ln(),
            samples,
        }
    }
}

impl AccuracyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the accuracy assumed for workers that have never been sampled.
    pub fn with_default_accuracy(mut self, accuracy: f64) -> Self {
        self.default_accuracy = Some(clamp_probability(accuracy));
        self
    }

    /// Record (or overwrite) a worker's accuracy estimate.
    pub fn set(&mut self, worker: WorkerId, accuracy: f64, samples: usize) {
        self.entries
            .insert(worker, WorkerAccuracy::new(accuracy, samples));
    }

    /// Look up a worker's estimate.
    pub fn get(&self, worker: WorkerId) -> Option<&WorkerAccuracy> {
        self.entries.get(&worker)
    }

    /// The accuracy used for a worker: their estimate if known, otherwise the default, and
    /// finally the population mean if no default was configured.
    pub fn accuracy_of(&self, worker: WorkerId) -> Option<f64> {
        if let Some(e) = self.entries.get(&worker) {
            return Some(e.accuracy);
        }
        if let Some(d) = self.default_accuracy {
            return Some(d);
        }
        self.stats().ok().map(|s| s.mean)
    }

    /// The configured fallback accuracy for unknown workers, if any.
    pub fn default_accuracy(&self) -> Option<f64> {
        self.default_accuracy
    }

    /// Number of workers with an estimate.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry has no estimates.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A registry holding only the estimates of `workers` (workers without one are
    /// skipped), with this registry's default accuracy.
    pub fn subset(&self, workers: impl IntoIterator<Item = WorkerId>) -> AccuracyRegistry {
        AccuracyRegistry {
            entries: workers
                .into_iter()
                .filter_map(|w| self.entries.get(&w).map(|e| (w, *e)))
                .collect(),
            default_accuracy: self.default_accuracy,
        }
    }

    /// Iterate over `(worker, estimate)` pairs in worker-id order.
    pub fn iter(&self) -> impl Iterator<Item = (&WorkerId, &WorkerAccuracy)> {
        self.entries.iter()
    }

    /// Population statistics over all recorded estimates.
    pub fn stats(&self) -> Result<AccuracyStats> {
        let accuracies: Vec<f64> = self.entries.values().map(|e| e.accuracy).collect();
        AccuracyStats::from_accuracies(&accuracies)
    }

    /// The population mean `μ`, or the configured default when the registry is empty.
    pub fn mean_accuracy(&self) -> Option<f64> {
        if self.entries.is_empty() {
            self.default_accuracy
        } else {
            self.stats().ok().map(|s| s.mean)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basic() {
        let s = AccuracyStats::from_accuracies(&[0.5, 0.7, 0.9]).unwrap();
        assert!((s.mean - 0.7).abs() < 1e-12);
        assert!((s.variance - 0.04).abs() < 1e-12);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 0.9);
        assert_eq!(s.count, 3);
        assert!((s.std_dev() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn stats_single_worker_has_zero_variance() {
        let s = AccuracyStats::from_accuracies(&[0.8]).unwrap();
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn stats_rejects_empty_and_out_of_range() {
        assert_eq!(
            AccuracyStats::from_accuracies(&[]),
            Err(CdasError::EmptyObservation)
        );
        assert!(matches!(
            AccuracyStats::from_accuracies(&[0.5, 1.5]),
            Err(CdasError::InvalidWorkerAccuracy { .. })
        ));
        assert!(matches!(
            AccuracyStats::from_accuracies(&[-0.1]),
            Err(CdasError::InvalidWorkerAccuracy { .. })
        ));
    }

    #[test]
    fn worker_accuracy_caches_log_odds() {
        let w = WorkerAccuracy::new(0.8, 10);
        assert!((w.log_odds - (0.8f64 / 0.2).ln()).abs() < 1e-12);
        assert_eq!(w.samples, 10);
        // Extreme accuracies are clamped so the log-odds stay finite.
        let w = WorkerAccuracy::new(1.0, 5);
        assert!(w.log_odds.is_finite());
    }

    #[test]
    fn registry_lookup_and_fallbacks() {
        let mut r = AccuracyRegistry::new().with_default_accuracy(0.6);
        assert!(r.is_empty());
        assert_eq!(r.accuracy_of(WorkerId(1)), Some(0.6));
        r.set(WorkerId(1), 0.9, 20);
        r.set(WorkerId(2), 0.7, 20);
        assert_eq!(r.len(), 2);
        assert_eq!(r.accuracy_of(WorkerId(1)), Some(0.9));
        assert_eq!(r.accuracy_of(WorkerId(99)), Some(0.6));
        assert!((r.mean_accuracy().unwrap() - 0.8).abs() < 1e-12);
        assert_eq!(r.iter().count(), 2);
        assert_eq!(r.get(WorkerId(2)).unwrap().samples, 20);
    }

    #[test]
    fn subset_keeps_the_named_workers_and_the_default() {
        let mut r = AccuracyRegistry::new().with_default_accuracy(0.6);
        r.set(WorkerId(1), 0.9, 20);
        r.set(WorkerId(2), 0.7, 0);
        r.set(WorkerId(3), 0.8, 4);
        let sub = r.subset([WorkerId(3), WorkerId(1), WorkerId(3), WorkerId(9)]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.get(WorkerId(1)), r.get(WorkerId(1)));
        assert_eq!(sub.get(WorkerId(3)), r.get(WorkerId(3)));
        assert_eq!(sub.get(WorkerId(2)), None);
        assert_eq!(sub.default_accuracy(), Some(0.6));
        assert!(r.subset([]).is_empty());
    }

    #[test]
    fn registry_without_default_falls_back_to_mean() {
        let mut r = AccuracyRegistry::new();
        assert_eq!(r.accuracy_of(WorkerId(5)), None);
        r.set(WorkerId(1), 0.6, 1);
        r.set(WorkerId(2), 0.8, 1);
        let a = r.accuracy_of(WorkerId(5)).unwrap();
        assert!((a - 0.7).abs() < 1e-12);
    }
}
