//! Cross-job sharing of worker-accuracy estimates.
//!
//! §2.1 describes a job manager that accepts *jobs* (plural), yet the accuracy a worker
//! demonstrates on one job's gold questions (§3.3, Algorithm 4) is knowledge about the
//! *worker*, not about the job. When many analytics jobs multiplex one worker pool, the
//! estimates every job learns should immediately reweight that worker's votes in every
//! other job. This module provides the two pieces the multi-job scheduler
//! (`cdas_engine::scheduler`) builds on:
//!
//! * [`SharedAccuracyRegistry`] — a cheaply clonable, generation-counted, thread-safe
//!   handle to one [`AccuracyRegistry`] behind one `RwLock`, shared by every job of a
//!   fleet. Jobs [`record`](SharedAccuracyRegistry::record) and
//!   [`absorb`](SharedAccuracyRegistry::absorb) the estimates their gold questions
//!   produce; both merge per worker, weighting by the number of gold questions behind
//!   each estimate. A parallel fleet ([`run_parallel`]) never writes one registry from
//!   two threads: each shard runs over its own registry seeded from a snapshot, and the
//!   parent merges the shards' changes back after the threads join.
//! * [`AccuracyCache`] — a scheduler's read handle on the shared registry. It reads the
//!   registry in place and counts each read as a hit (no write since the handle's
//!   previous read) or a miss, which the fleet report exposes. It is not `Sync`: each
//!   scheduler, and so each shard thread, owns its own.
//!
//! [`run_parallel`]: ../../cdas_engine/scheduler/struct.JobScheduler.html#method.run_parallel
//!
//! ```
//! use cdas_core::sharing::{AccuracyCache, SharedAccuracyRegistry};
//! use cdas_core::types::WorkerId;
//!
//! let shared = SharedAccuracyRegistry::new();
//! let job_a_handle = shared.clone(); // both handles see the same estimates
//! job_a_handle.record(WorkerId(7), 0.9, 10);
//!
//! let cache = AccuracyCache::new(shared);
//! assert_eq!(cache.subset([WorkerId(7)]).accuracy_of(WorkerId(7)), Some(0.9));
//! assert_eq!(cache.accuracy_of(WorkerId(7)), Some(0.9)); // no write since: a hit
//! assert_eq!(cache.hits(), 1);
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::accuracy::AccuracyRegistry;
use crate::types::WorkerId;

/// Generation value meaning "not read yet".
const NEVER: u64 = u64::MAX;

#[derive(Debug, Default)]
struct Shared {
    registry: RwLock<AccuracyRegistry>,
    /// Write generation, bumped after every write that changed an entry.
    generation: AtomicU64,
}

/// A cheaply clonable, thread-safe handle to one [`AccuracyRegistry`] shared across jobs.
///
/// Every clone refers to the same registry; writes through any handle are visible to
/// all. A monotonically increasing *generation* is bumped on every write that changed an
/// entry, which lets [`AccuracyCache`] tell whether a write landed between two reads
/// without diffing registries.
#[derive(Debug, Clone, Default)]
pub struct SharedAccuracyRegistry {
    inner: Arc<Shared>,
}

impl SharedAccuracyRegistry {
    /// An empty shared registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared registry seeded with existing estimates (e.g. from a previous fleet run),
    /// including the seed's configured default accuracy.
    pub fn with_registry(registry: AccuracyRegistry) -> Self {
        SharedAccuracyRegistry {
            inner: Arc::new(Shared {
                registry: RwLock::new(registry),
                generation: AtomicU64::new(0),
            }),
        }
    }

    // Poison recovery is sound in both helpers: a write sets whole entries one at a
    // time, so a panic mid-write leaves every entry valid — at worst a batch is merged
    // only in part.
    fn read_registry(&self) -> RwLockReadGuard<'_, AccuracyRegistry> {
        self.inner
            .registry
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn write_registry(&self) -> RwLockWriteGuard<'_, AccuracyRegistry> {
        self.inner
            .registry
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Mark a write that changed at least one entry.
    fn bump(&self) {
        self.inner.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Record (or merge) a single worker estimate backed by `samples` gold questions.
    ///
    /// Merging follows the same policy as [`absorb`](Self::absorb); this is the hot write
    /// of the clocked ingestion path.
    pub fn record(&self, worker: WorkerId, accuracy: f64, samples: usize) {
        if merge_entry(&mut self.write_registry(), worker, accuracy, samples) {
            self.bump();
        }
    }

    /// Merge a batch of estimates (typically one HIT's gold-sampling output) into the
    /// shared registry. Returns the number of workers whose entry changed.
    ///
    /// Per worker, the merge pools sample counts: an existing estimate backed by `s₁` gold
    /// questions and a new one backed by `s₂` combine into the sample-weighted mean backed
    /// by `s₁ + s₂`. Injected estimates (`samples == 0`, e.g. a simulation oracle) never
    /// displace sampled ones; among injected estimates the latest wins, and re-setting an
    /// injected estimate to its current value changes nothing.
    pub fn absorb(&self, estimates: &AccuracyRegistry) -> usize {
        let mut registry = self.write_registry();
        let mut changed = 0;
        for (&worker, incoming) in estimates.iter() {
            if merge_entry(&mut registry, worker, incoming.accuracy, incoming.samples) {
                changed += 1;
            }
        }
        if changed > 0 {
            self.bump();
        }
        changed
    }

    /// Overwrite a batch of estimates verbatim — no pooling — returning the number of
    /// workers whose entry changed (bit-compared, so re-adopting an identical entry is a
    /// no-op and does not bump the generation).
    ///
    /// This is the merge-back primitive for shard isolation (see
    /// `JobScheduler::run_parallel`): each parallel shard runs over its own registry
    /// seeded from a pre-spawn snapshot of the fleet registry, and once the threads join
    /// the parent adopts every entry a shard *changed*. A shard's entry already pooled
    /// the seed's history with the run's new gold samples, so [`absorb`](Self::absorb)
    /// would pool the seed portion twice; adoption replaces the entry wholesale instead.
    /// Sound because shard rosters are disjoint — each worker's sampled history lives in
    /// exactly one shard.
    pub fn adopt(&self, estimates: &AccuracyRegistry) -> usize {
        let mut registry = self.write_registry();
        let mut changed = 0;
        for (&worker, incoming) in estimates.iter() {
            let same = registry.get(worker).is_some_and(|current| {
                current.accuracy.to_bits() == incoming.accuracy.to_bits()
                    && current.samples == incoming.samples
            });
            if !same {
                registry.set(worker, incoming.accuracy, incoming.samples);
                changed += 1;
            }
        }
        if changed > 0 {
            self.bump();
        }
        changed
    }

    /// The current write generation (bumped on every mutating call that changed an entry).
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::Acquire)
    }

    /// An owned copy of the current registry, default accuracy included.
    pub fn snapshot(&self) -> AccuracyRegistry {
        self.read_registry().clone()
    }

    /// Number of workers with an estimate.
    pub fn len(&self) -> usize {
        self.read_registry().len()
    }

    /// Whether no worker has an estimate yet.
    pub fn is_empty(&self) -> bool {
        self.read_registry().is_empty()
    }

    /// The population mean `μ` over all shared estimates, falling back to the seeded
    /// default accuracy when no worker has an estimate yet
    /// ([`AccuracyRegistry::mean_accuracy`]).
    pub fn mean_accuracy(&self) -> Option<f64> {
        self.read_registry().mean_accuracy()
    }

    /// A worker's current shared estimate, if any.
    pub fn accuracy_of(&self, worker: WorkerId) -> Option<f64> {
        self.read_registry().get(worker).map(|e| e.accuracy)
    }
}

/// The per-worker merge policy (see [`SharedAccuracyRegistry::absorb`]), applied under
/// the registry's write lock. Returns whether the entry changed.
///
/// The incoming accuracy is normalized *before* pooling, as [`AccuracyRegistry::set`]
/// normalizes every write: a NaN becomes 0.5 and out-of-range values clamp into (0, 1),
/// so a degenerate input shifts the sample-weighted mean by at most its own weight
/// instead of poisoning (NaN) or inflating (>1) the worker's whole pooled history.
fn merge_entry(
    registry: &mut AccuracyRegistry,
    worker: WorkerId,
    accuracy: f64,
    samples: usize,
) -> bool {
    let accuracy = crate::math::clamp_probability(accuracy);
    let (accuracy, samples) = match registry.get(worker) {
        None => (accuracy, samples),
        Some(current) if samples == 0 => {
            // A sampled estimate outranks an injected one, and re-setting an injected
            // estimate to its current value is no change.
            if current.samples > 0 || current.accuracy.to_bits() == accuracy.to_bits() {
                return false;
            }
            (accuracy, 0) // both injected: latest wins
        }
        Some(current) => {
            let total = current.samples + samples;
            let pooled = (current.accuracy * current.samples as f64 + accuracy * samples as f64)
                / total as f64;
            (pooled, total)
        }
    };
    registry.set(worker, accuracy, samples);
    true
}

/// A scheduler's read handle on a [`SharedAccuracyRegistry`].
///
/// [`subset`](AccuracyCache::subset) and [`accuracy_of`](AccuracyCache::accuracy_of)
/// read the shared registry in place and copy only the estimates they are asked for.
/// Each read counts as a *hit* when no write changed the registry since this handle's
/// previous read, and as a *miss* otherwise (the first read is a miss): reads that
/// follow a batch's new gold estimates miss, while reads in batches that learned
/// nothing new — gold-free jobs, steady state after the crowd is fully estimated — hit.
/// [`hits`](AccuracyCache::hits) and [`misses`](AccuracyCache::misses) feed the fleet
/// metrics.
#[derive(Debug)]
pub struct AccuracyCache {
    shared: SharedAccuracyRegistry,
    /// The shared generation at the previous read ([`NEVER`] before the first).
    last_read: Cell<u64>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl AccuracyCache {
    /// A read handle on the given shared registry (its first read is a miss).
    pub fn new(shared: SharedAccuracyRegistry) -> Self {
        AccuracyCache {
            shared,
            last_read: Cell::new(NEVER),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// The shared registry behind the handle (for absorbing new estimates).
    pub fn shared(&self) -> &SharedAccuracyRegistry {
        &self.shared
    }

    /// Count one read: a hit when the generation has not moved since the previous read.
    fn count_read(&self) {
        let generation = self.shared.generation();
        let counter = if self.last_read.replace(generation) == generation {
            &self.hits
        } else {
            &self.misses
        };
        counter.set(counter.get() + 1);
    }

    /// The current estimates of `workers` only, with the shared registry's default
    /// accuracy ([`AccuracyRegistry::subset`]).
    pub fn subset(&self, workers: impl IntoIterator<Item = WorkerId>) -> AccuracyRegistry {
        self.count_read();
        self.shared.read_registry().subset(workers)
    }

    /// A single worker's current shared estimate, if any.
    pub fn accuracy_of(&self, worker: WorkerId) -> Option<f64> {
        self.count_read();
        self.shared.accuracy_of(worker)
    }

    /// Number of reads with no write since the previous read.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Number of reads with a write since the previous read (including the first read).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Fraction of reads that were hits (0 when nothing was read yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.get() + self.misses.get();
        if total == 0 {
            0.0
        } else {
            self.hits.get() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_one_registry() {
        let a = SharedAccuracyRegistry::new();
        let b = a.clone();
        assert!(a.is_empty());
        b.record(WorkerId(1), 0.8, 5);
        assert_eq!(a.len(), 1);
        assert_eq!(a.accuracy_of(WorkerId(1)), Some(0.8));
        assert_eq!(a.generation(), b.generation());
    }

    #[test]
    fn absorb_pools_samples_per_worker() {
        let shared = SharedAccuracyRegistry::new();
        shared.record(WorkerId(1), 0.6, 4);
        // A second job sees the same worker do better on 8 gold questions.
        let mut estimates = AccuracyRegistry::new();
        estimates.set(WorkerId(1), 0.9, 8);
        estimates.set(WorkerId(2), 0.7, 2);
        assert_eq!(shared.absorb(&estimates), 2);
        let snap = shared.snapshot();
        let w1 = snap.get(WorkerId(1)).unwrap();
        assert!((w1.accuracy - (0.6 * 4.0 + 0.9 * 8.0) / 12.0).abs() < 1e-12);
        assert_eq!(w1.samples, 12);
        assert_eq!(snap.get(WorkerId(2)).unwrap().samples, 2);
    }

    #[test]
    fn adopt_overwrites_without_pooling() {
        // A shard seeded with (0.6, 4) pools 8 new gold samples into (0.8, 12); the
        // parent adopts the pooled entry verbatim instead of re-pooling the seed.
        let shared = SharedAccuracyRegistry::new();
        shared.record(WorkerId(1), 0.6, 4);
        let mut delta = AccuracyRegistry::new();
        delta.set(WorkerId(1), 0.8, 12);
        delta.set(WorkerId(2), 0.7, 2);
        assert_eq!(shared.adopt(&delta), 2);
        let w1 = shared.snapshot().get(WorkerId(1)).copied().unwrap();
        assert_eq!(w1.accuracy.to_bits(), 0.8f64.to_bits());
        assert_eq!(w1.samples, 12);
        // Unlike absorb, adopt lets an injected entry replace a sampled one — the
        // adopter vouches for the entry being the worker's whole history.
        let mut injected = AccuracyRegistry::new();
        injected.set(WorkerId(2), 0.3, 0);
        assert_eq!(shared.adopt(&injected), 1);
        assert_eq!(shared.accuracy_of(WorkerId(2)), Some(0.3));
        // Re-adopting identical entries is a generation-preserving no-op.
        let before = shared.generation();
        assert_eq!(shared.adopt(&injected), 0);
        assert_eq!(shared.generation(), before, "no-op adopt must not bump");
        assert_eq!(shared.adopt(&AccuracyRegistry::new()), 0);
    }

    #[test]
    fn injected_estimates_never_displace_sampled_ones() {
        let shared = SharedAccuracyRegistry::new();
        shared.record(WorkerId(1), 0.8, 6);
        let before = shared.generation();
        let mut oracle = AccuracyRegistry::new();
        oracle.set(WorkerId(1), 0.2, 0);
        assert_eq!(shared.absorb(&oracle), 0);
        assert_eq!(shared.accuracy_of(WorkerId(1)), Some(0.8));
        assert_eq!(shared.generation(), before, "no-op absorb must not bump");
        // But injected-over-injected updates in place.
        shared.record(WorkerId(2), 0.5, 0);
        shared.record(WorkerId(2), 0.6, 0);
        assert_eq!(shared.accuracy_of(WorkerId(2)), Some(0.6));
    }

    #[test]
    fn re_setting_an_injected_estimate_to_its_value_is_a_no_op() {
        // A registry-sourced job re-absorbs its whole oracle at every batch's first
        // ingest: the repeat must count no change and leave the generation alone.
        let shared = SharedAccuracyRegistry::new();
        let mut oracle = AccuracyRegistry::new();
        oracle.set(WorkerId(1), 0.7, 0);
        oracle.set(WorkerId(2), 0.9, 0);
        assert_eq!(shared.absorb(&oracle), 2);
        let before = shared.generation();
        assert_eq!(shared.absorb(&oracle), 0);
        shared.record(WorkerId(1), 0.7, 0);
        assert_eq!(shared.generation(), before, "no-op re-set must not bump");
        // A different injected value still replaces the old one.
        shared.record(WorkerId(1), 0.6, 0);
        assert_eq!(shared.accuracy_of(WorkerId(1)), Some(0.6));
        assert_eq!(shared.generation(), before + 1);
    }

    #[test]
    fn absorbing_nothing_is_free() {
        let shared = SharedAccuracyRegistry::new();
        let before = shared.generation();
        assert_eq!(shared.absorb(&AccuracyRegistry::new()), 0);
        assert_eq!(shared.generation(), before);
    }

    #[test]
    fn cache_serves_repeated_reads_without_rebuilding() {
        let shared = SharedAccuracyRegistry::new();
        shared.record(WorkerId(3), 0.75, 3);
        let cache = AccuracyCache::new(shared.clone());
        assert_eq!(cache.subset([WorkerId(3), WorkerId(4)]).len(), 1);
        assert_eq!(cache.accuracy_of(WorkerId(3)), Some(0.75));
        assert_eq!(cache.misses(), 1, "only the first read rebuilds");
        assert_eq!(cache.hits(), 1);
        // A write through any handle invalidates the cache.
        shared.record(WorkerId(4), 0.65, 2);
        assert_eq!(cache.subset([WorkerId(3), WorkerId(4)]).len(), 2);
        assert_eq!(cache.misses(), 2);
        assert!(cache.hit_rate() > 0.0);
    }

    #[test]
    fn seeded_registry_is_visible_immediately() {
        let mut seed = AccuracyRegistry::new();
        seed.set(WorkerId(9), 0.9, 10);
        let shared = SharedAccuracyRegistry::with_registry(seed);
        assert_eq!(shared.len(), 1);
        assert!((shared.mean_accuracy().unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn degenerate_accuracies_are_normalized_before_pooling() {
        // Regression: a lock-striped version briefly pooled the *raw* incoming accuracy and
        // clamped only the result, so record(w, 1.5, …) credited >100% accuracy into the
        // weighted mean and record(w, NaN, …) wiped the worker's whole history to 0.5.
        // Parity with the old set()-then-merge path: normalize first, pool second.
        let shared = SharedAccuracyRegistry::new();
        shared.record(WorkerId(1), 0.5, 10);
        shared.record(WorkerId(1), 1.5, 2); // clamps to ~1.0 before pooling
        let pooled = shared.accuracy_of(WorkerId(1)).unwrap();
        assert!(
            (pooled - (0.5 * 10.0 + 1.0 * 2.0) / 12.0).abs() < 1e-6,
            "pooled {pooled}"
        );
        shared.record(WorkerId(2), 0.8, 10);
        shared.record(WorkerId(2), f64::NAN, 2); // NaN contributes 0.5 at weight 2
        let pooled = shared.accuracy_of(WorkerId(2)).unwrap();
        assert!(!pooled.is_nan(), "NaN must not erase the history");
        assert!((pooled - (0.8 * 10.0 + 0.5 * 2.0) / 12.0).abs() < 1e-12);
    }

    #[test]
    fn seeded_default_accuracy_survives_striping() {
        // Regression: a lock-striped version initially copied only the seed's *entries*, so
        // a registry seeded with a default accuracy lost it — snapshots stopped answering
        // for unseen workers and the empty-registry mean flipped to None. The default
        // must round-trip like the pre-striping full clone did.
        let seed = AccuracyRegistry::new().with_default_accuracy(0.75);
        let shared = SharedAccuracyRegistry::with_registry(seed);
        assert_eq!(shared.mean_accuracy(), Some(0.75), "empty-registry mean");
        let snap = shared.snapshot();
        assert_eq!(snap.accuracy_of(WorkerId(123)), Some(0.75));
        assert_eq!(snap.default_accuracy(), Some(0.75));
        // Real estimates still take over once they exist.
        shared.record(WorkerId(1), 0.9, 4);
        assert_eq!(shared.mean_accuracy(), Some(0.9));
        assert_eq!(shared.snapshot().accuracy_of(WorkerId(123)), Some(0.75));
    }

    #[test]
    fn entries_spread_across_stripes_and_reads_see_all_of_them() {
        // Two rounds over the 16 buckets an earlier, lock-striped registry kept: every
        // entry recorded is seen by every read.
        let shared = SharedAccuracyRegistry::new();
        for id in 0..32 {
            shared.record(WorkerId(id), 0.6, 3);
        }
        assert_eq!(shared.len(), 32);
        let snap = shared.snapshot();
        assert_eq!(snap.len(), 32);
        for id in 0..32 {
            assert_eq!(shared.accuracy_of(WorkerId(id)), Some(0.6));
        }
        assert!((shared.mean_accuracy().unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn concurrent_writers_over_disjoint_workers_match_the_sequential_registry() {
        // The parallel-fleet contract: shard threads own disjoint worker partitions, so
        // each worker's estimate sequence is applied by exactly one thread in a
        // deterministic order — the final registry must be bit-identical to applying all
        // sequences on one thread, whatever the cross-thread interleaving was.
        const THREADS: u64 = 8;
        const WORKERS_PER_THREAD: u64 = 40;
        let record_all = |shared: &SharedAccuracyRegistry, t: u64| {
            for w in 0..WORKERS_PER_THREAD {
                let worker = WorkerId(t * WORKERS_PER_THREAD + w);
                // Two merges per worker, so the pooled mean is actually exercised.
                shared.record(worker, 0.5 + 0.001 * (w % 37) as f64, 3);
                shared.record(worker, 0.9 - 0.002 * (w % 11) as f64, 7);
            }
        };

        let sequential = SharedAccuracyRegistry::new();
        for t in 0..THREADS {
            record_all(&sequential, t);
        }

        let parallel = SharedAccuracyRegistry::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let handle = parallel.clone();
                scope.spawn(move || record_all(&handle, t));
            }
        });

        let (a, b) = (sequential.snapshot(), parallel.snapshot());
        assert_eq!(a.len(), b.len());
        for (&worker, expected) in a.iter() {
            let got = b.get(worker).expect("worker present in parallel registry");
            assert_eq!(expected.accuracy.to_bits(), got.accuracy.to_bits());
            assert_eq!(expected.samples, got.samples);
        }
    }

    #[test]
    fn contended_workers_pool_every_sample_exactly_once() {
        // Threads hammering the SAME workers: per-worker merges are atomic under the
        // registry lock, so no sample is lost or double-counted, and the pooled mean lands
        // within float-reassociation distance of the sequential order (the weighted-mean
        // merge is order-independent up to rounding).
        const THREADS: usize = 8;
        const ROUNDS: usize = 25;
        let workers = [WorkerId(0), WorkerId(1), WorkerId(16), WorkerId(17)];

        let parallel = SharedAccuracyRegistry::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let handle = parallel.clone();
                scope.spawn(move || {
                    for r in 0..ROUNDS {
                        for w in workers {
                            handle.record(w, 0.5 + 0.01 * ((t + r) % 30) as f64, 2);
                        }
                    }
                });
            }
        });

        let sequential = SharedAccuracyRegistry::new();
        for t in 0..THREADS {
            for r in 0..ROUNDS {
                for w in workers {
                    sequential.record(w, 0.5 + 0.01 * ((t + r) % 30) as f64, 2);
                }
            }
        }

        let (par, seq) = (parallel.snapshot(), sequential.snapshot());
        for w in workers {
            let p = par.get(w).unwrap();
            let s = seq.get(w).unwrap();
            assert_eq!(p.samples, THREADS * ROUNDS * 2, "a sample went missing");
            assert_eq!(p.samples, s.samples);
            assert!(
                (p.accuracy - s.accuracy).abs() < 1e-9,
                "pooled mean diverged: parallel {} vs sequential {}",
                p.accuracy,
                s.accuracy
            );
        }
        assert!(parallel.generation() > 0);
    }
}
