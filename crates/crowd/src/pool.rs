//! The worker pool: the population of candidate workers a platform can assign to a HIT.

use cdas_core::accuracy::AccuracyRegistry;
use cdas_core::types::WorkerId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::approval::ApprovalModel;
use crate::arrival::LatencyModel;
use crate::behavior::WorkerBehavior;
use crate::distribution::AccuracyDistribution;
use crate::question::CrowdQuestion;
use crate::worker::SimulatedWorker;

/// Configuration of a simulated worker population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolConfig {
    /// Number of workers in the pool.
    pub size: usize,
    /// Distribution of latent worker accuracies.
    pub accuracy: AccuracyDistribution,
    /// Fraction of the pool that are spammers.
    pub spammer_fraction: f64,
    /// Fraction of the pool that are colluders.
    pub colluder_fraction: f64,
    /// Fraction of the pool that are experts (with a 0.5 boost).
    pub expert_fraction: f64,
    /// Approval-rate model (decoupled from accuracy, Figure 14).
    pub approval: ApprovalModel,
    /// Latency model shared by all workers.
    pub latency: LatencyModel,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for PoolConfig {
    /// A pool shaped like the paper's AMT population: 500 workers whose accuracies follow
    /// the Figure 14 histogram, a small spammer minority and no colluders.
    fn default() -> Self {
        PoolConfig {
            size: 500,
            accuracy: AccuracyDistribution::paper_accuracy(),
            spammer_fraction: 0.03,
            colluder_fraction: 0.0,
            expert_fraction: 0.02,
            approval: ApprovalModel::default(),
            latency: LatencyModel::Exponential { mean: 5.0 },
            seed: 42,
        }
    }
}

impl PoolConfig {
    /// A small, clean pool of purely diligent workers — handy for unit tests.
    pub fn clean(size: usize, accuracy: f64, seed: u64) -> Self {
        PoolConfig {
            size,
            accuracy: AccuracyDistribution::Constant(accuracy),
            spammer_fraction: 0.0,
            colluder_fraction: 0.0,
            expert_fraction: 0.0,
            approval: ApprovalModel::default(),
            latency: LatencyModel::Constant(1.0),
            seed,
        }
    }
}

/// The worker population.
///
/// Workers are kept in ascending id order: [`generate`](Self::generate) numbers them
/// `0..size` and [`partition`](Self::partition) keeps each shard's workers in pool
/// order. [`get`](Self::get) relies on this to binary-search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerPool {
    workers: Vec<SimulatedWorker>,
    seed: u64,
}

impl WorkerPool {
    /// Build a pool from a configuration (deterministic given the seed).
    pub fn generate(config: &PoolConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut workers = Vec::with_capacity(config.size);
        for i in 0..config.size {
            let accuracy = config.accuracy.sample(&mut rng);
            let behavior = assign_behavior(config, i);
            let approval = config.approval.sample(accuracy, &mut rng);
            workers.push(
                SimulatedWorker::diligent(WorkerId(i as u64), accuracy)
                    .with_behavior(behavior)
                    .with_approval_rate(approval)
                    .with_latency(config.latency),
            );
        }
        WorkerPool {
            workers,
            seed: config.seed,
        }
    }

    /// Number of workers in the pool.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// All workers.
    pub fn workers(&self) -> &[SimulatedWorker] {
        &self.workers
    }

    /// Look up a worker by id (a binary search over the id-ordered workers).
    pub fn get(&self, id: WorkerId) -> Option<&SimulatedWorker> {
        let index = self.workers.binary_search_by_key(&id, |w| w.id).ok()?;
        self.workers.get(index)
    }

    /// Pick `n` distinct random workers ("n random workers provide the answers", §3.1).
    /// When `n` exceeds the pool size the whole pool is returned.
    pub fn assign<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<&SimulatedWorker> {
        let mut indices: Vec<usize> = (0..self.workers.len()).collect();
        indices.shuffle(rng);
        indices
            .into_iter()
            .take(n.min(self.workers.len()))
            .filter_map(|i| self.workers.get(i))
            .collect()
    }

    /// The true mean accuracy of the pool on an average-difficulty question with `m`
    /// candidate answers (behaviour-adjusted). This is the `μ` an omniscient prediction
    /// model would use; the engine instead estimates it by sampling.
    pub fn true_mean_accuracy(&self, reference: &CrowdQuestion) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        self.workers
            .iter()
            .map(|w| w.effective_accuracy(reference))
            .sum::<f64>()
            / self.workers.len() as f64
    }

    /// An *oracle* accuracy registry containing every worker's true effective accuracy on
    /// the reference question. Experiments use it to isolate the verification model from
    /// sampling error; the engine's production path uses the sampling estimator instead.
    pub fn oracle_registry(&self, reference: &CrowdQuestion) -> AccuracyRegistry {
        let mut registry = AccuracyRegistry::new();
        for w in &self.workers {
            registry.set(w.id, w.effective_accuracy(reference), 0);
        }
        registry
    }

    /// Histogram of `(true accuracy, approval rate)` pairs — the raw data of Figure 14.
    pub fn accuracy_vs_approval(&self) -> Vec<(f64, f64)> {
        self.workers
            .iter()
            .map(|w| (w.true_accuracy, w.approval_rate))
            .collect()
    }

    /// Partition the pool into `shards` disjoint sub-pools by round-robin striping:
    /// worker at index `i` goes to shard `i % shards`. Every worker lands in **exactly
    /// one** shard (the property the parallel fleet's lease isolation rests on, proptested
    /// below), shard sizes differ by at most one, and within a shard the original roster
    /// order is preserved — so a 1-way partition returns a pool identical to `self`.
    ///
    /// `shards == 0` is treated as 1.
    pub fn partition(&self, shards: usize) -> Vec<WorkerPool> {
        let shards = shards.max(1);
        let mut parts: Vec<Vec<SimulatedWorker>> = vec![Vec::new(); shards];
        for (i, worker) in self.workers.iter().enumerate() {
            if let Some(part) = parts.get_mut(i % shards) {
                part.push(worker.clone());
            }
        }
        parts
            .into_iter()
            .map(|workers| WorkerPool {
                workers,
                seed: self.seed,
            })
            .collect()
    }
}

fn assign_behavior(config: &PoolConfig, index: usize) -> WorkerBehavior {
    // Deterministic striping by index keeps the behaviour mix exact and reproducible.
    let f = (index as f64 + 0.5) / config.size.max(1) as f64;
    if f < config.spammer_fraction {
        WorkerBehavior::Spammer
    } else if f < config.spammer_fraction + config.colluder_fraction {
        WorkerBehavior::Colluder
    } else if f < config.spammer_fraction + config.colluder_fraction + config.expert_fraction {
        WorkerBehavior::Expert { boost: 0.5 }
    } else {
        WorkerBehavior::Diligent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdas_core::types::{AnswerDomain, Label, QuestionId};

    fn reference_question() -> CrowdQuestion {
        CrowdQuestion::new(
            QuestionId(0),
            AnswerDomain::from_strs(&["pos", "neu", "neg"]),
            Label::from("pos"),
        )
    }

    #[test]
    fn generation_is_deterministic() {
        let config = PoolConfig::default();
        let a = WorkerPool::generate(&config);
        let b = WorkerPool::generate(&config);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        assert!(!a.is_empty());
    }

    #[test]
    fn behaviour_fractions_are_respected() {
        let config = PoolConfig {
            size: 200,
            spammer_fraction: 0.1,
            colluder_fraction: 0.05,
            expert_fraction: 0.05,
            ..PoolConfig::default()
        };
        let pool = WorkerPool::generate(&config);
        let spammers = pool
            .workers()
            .iter()
            .filter(|w| w.behavior == WorkerBehavior::Spammer)
            .count();
        let colluders = pool
            .workers()
            .iter()
            .filter(|w| w.behavior == WorkerBehavior::Colluder)
            .count();
        assert_eq!(spammers, 20);
        assert_eq!(colluders, 10);
    }

    #[test]
    fn assignment_picks_distinct_workers() {
        let pool = WorkerPool::generate(&PoolConfig::clean(50, 0.8, 7));
        let mut rng = StdRng::seed_from_u64(3);
        let assigned = pool.assign(9, &mut rng);
        assert_eq!(assigned.len(), 9);
        let mut ids: Vec<u64> = assigned.iter().map(|w| w.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 9);
        // Requesting more than the pool returns the whole pool.
        let all = pool.assign(500, &mut rng);
        assert_eq!(all.len(), 50);
    }

    #[test]
    fn clean_pool_mean_accuracy_matches_configuration() {
        let pool = WorkerPool::generate(&PoolConfig::clean(30, 0.75, 9));
        let mu = pool.true_mean_accuracy(&reference_question());
        assert!((mu - 0.75).abs() < 1e-9);
        let registry = pool.oracle_registry(&reference_question());
        assert_eq!(registry.len(), 30);
        assert!((registry.mean_accuracy().unwrap() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn default_pool_mean_accuracy_is_usable() {
        let pool = WorkerPool::generate(&PoolConfig::default());
        let mu = pool.true_mean_accuracy(&reference_question());
        assert!(mu > 0.55 && mu < 0.8, "mean accuracy {mu}");
    }

    #[test]
    fn accuracy_vs_approval_shows_the_figure_14_gap() {
        let pool = WorkerPool::generate(&PoolConfig::default());
        let pairs = pool.accuracy_vs_approval();
        assert_eq!(pairs.len(), pool.len());
        let mean_acc: f64 = pairs.iter().map(|(a, _)| a).sum::<f64>() / pairs.len() as f64;
        let mean_app: f64 = pairs.iter().map(|(_, p)| p).sum::<f64>() / pairs.len() as f64;
        assert!(
            mean_app > mean_acc + 0.1,
            "approval {mean_app} vs accuracy {mean_acc}"
        );
    }

    #[test]
    fn lookup_by_id() {
        let pool = WorkerPool::generate(&PoolConfig::clean(5, 0.8, 1));
        assert!(pool.get(WorkerId(3)).is_some());
        assert!(pool.get(WorkerId(99)).is_none());
    }

    #[test]
    fn one_way_partition_is_the_identity() {
        let pool = WorkerPool::generate(&PoolConfig::clean(17, 0.8, 3));
        let parts = pool.partition(1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], pool);
        // Zero shards degrades to one.
        assert_eq!(pool.partition(0).len(), 1);
    }

    #[test]
    fn partition_balances_within_one_worker() {
        let pool = WorkerPool::generate(&PoolConfig::clean(22, 0.8, 3));
        let parts = pool.partition(4);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 22);
        assert_eq!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The parallel fleet's isolation invariant: shard-partitioning assigns every
        /// worker to exactly one shard — no worker in two shards (two shard threads could
        /// otherwise lease the same worker into overlapping HITs), and no worker dropped.
        /// Each shard's `get` finds exactly its own workers: shard ids are strided, so a
        /// shard out of id order would make the binary search miss.
        #[test]
        fn partition_is_disjoint_and_covering(size in 1usize..120, shards in 1usize..12) {
            let pool = WorkerPool::generate(&PoolConfig::clean(size, 0.8, 7));
            let parts = pool.partition(shards);
            prop_assert_eq!(parts.len(), shards);
            let mut seen = std::collections::BTreeMap::new();
            for (s, part) in parts.iter().enumerate() {
                for w in part.workers() {
                    let previous = seen.insert(w.id, s);
                    prop_assert!(
                        previous.is_none(),
                        "worker {:?} assigned to shards {:?} and {}",
                        w.id,
                        previous,
                        s
                    );
                }
            }
            prop_assert_eq!(seen.len(), pool.len(), "every worker is in some shard");
            for (s, part) in parts.iter().enumerate() {
                for (&id, &owner) in &seen {
                    prop_assert_eq!(
                        part.get(id).map(|w| w.id),
                        (owner == s).then_some(id),
                        "shard {} looking up {:?}",
                        s,
                        id
                    );
                }
            }
            // Sizes are balanced within one worker.
            let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            prop_assert!(max - min <= 1);
        }
    }
}
