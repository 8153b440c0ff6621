//! A declarative description of one simulated crowd: the [`CrowdSpec`].
//!
//! The multi-job scheduler in `cdas-engine` needs three coordinated views of the *same*
//! crowd — a [`WorkerPool`] (who the workers are), a [`SimulatedPlatform`] or
//! [`ShardedPlatform`] (how they answer), and a [`PoolLedger`] (who is checked out) — and
//! hand-wiring them means repeating the pool in three places and keeping the seeds in
//! sync by discipline. A [`CrowdSpec`] is the single source of truth those three views
//! are derived from: describe the crowd once, then let the fleet facade (or your own
//! code) build consistent pools, platforms and ledgers from it on demand.
//!
//! Everything a spec builds is deterministic given its seed, so two calls to
//! [`CrowdSpec::build_platform`] produce bit-identical simulations — which is what lets
//! the facade run one fleet under several execution modes (the `cdas-engine` fleet
//! facade's `ExecutionMode`) over *identical* crowds and compare the reports.
//!
//! ```
//! use cdas_crowd::spec::CrowdSpec;
//! use cdas_crowd::arrival::LatencyModel;
//!
//! let spec = CrowdSpec::clean(32, 0.85)
//!     .latency(LatencyModel::Exponential { mean: 5.0 })
//!     .seed(7);
//! assert_eq!(spec.worker_count(), 32);
//! let pool = spec.build_pool();
//! let ledger = spec.build_ledger();
//! assert_eq!(pool.len(), ledger.roster_len());
//! ```

use cdas_core::economics::CostModel;
use cdas_core::types::WorkerId;
use cdas_core::{CdasError, Result};

use crate::arrival::LatencyModel;
use crate::distribution::AccuracyDistribution;
use crate::lease::PoolLedger;
use crate::platform::SimulatedPlatform;
use crate::pool::{PoolConfig, WorkerPool};
use crate::sharded::ShardedPlatform;

/// A declarative description of a simulated crowd, from which consistent
/// [`WorkerPool`]s, [`SimulatedPlatform`]s, [`ShardedPlatform`]s and [`PoolLedger`]s are
/// built on demand.
///
/// The spec owns a [`PoolConfig`] plus the two platform-side knobs the pool does not
/// carry: the [`CostModel`] the platform charges with and the platform RNG seed (which
/// defaults to the pool seed, matching how the examples and tests have always wired the
/// two by hand).
#[derive(Debug, Clone, PartialEq)]
pub struct CrowdSpec {
    config: PoolConfig,
    cost_model: CostModel,
    platform_seed: Option<u64>,
}

impl CrowdSpec {
    /// A spec over an explicit [`PoolConfig`] — the escape hatch for populations the
    /// convenience constructors do not cover (spammers, colluders, empirical accuracy
    /// distributions).
    pub fn from_config(config: PoolConfig) -> Self {
        CrowdSpec {
            config,
            cost_model: CostModel::default(),
            platform_seed: None,
        }
    }

    /// A clean crowd of `size` diligent workers at constant `accuracy` — the spec
    /// equivalent of [`PoolConfig::clean`] (seed 42; override with [`seed`](Self::seed)).
    pub fn clean(size: usize, accuracy: f64) -> Self {
        Self::from_config(PoolConfig::clean(size, accuracy, 42))
    }

    /// The paper-shaped crowd: 500 workers following the Figure 14 accuracy histogram
    /// with a small spammer minority ([`PoolConfig::default`]).
    pub fn paper() -> Self {
        Self::from_config(PoolConfig::default())
    }

    /// Set the number of workers.
    pub fn size(mut self, size: usize) -> Self {
        self.config.size = size;
        self
    }

    /// Set the latency model every worker samples completion times from.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.config.latency = latency;
        self
    }

    /// Set the distribution of latent worker accuracies.
    pub fn accuracy(mut self, accuracy: AccuracyDistribution) -> Self {
        self.config.accuracy = accuracy;
        self
    }

    /// Set the RNG seed for the pool *and* (unless [`platform_seed`](Self::platform_seed)
    /// overrides it) the platform.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Give the platform its own RNG seed, decoupled from the pool's.
    pub fn platform_seed(mut self, seed: u64) -> Self {
        self.platform_seed = Some(seed);
        self
    }

    /// Set the cost model platforms built from this spec charge with.
    pub fn cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// The underlying pool configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// The cost model platforms built from this spec charge with.
    pub fn cost(&self) -> &CostModel {
        &self.cost_model
    }

    /// How many workers this crowd holds.
    pub fn worker_count(&self) -> usize {
        self.config.size
    }

    /// The seed platforms built from this spec use.
    pub fn effective_platform_seed(&self) -> u64 {
        self.platform_seed.unwrap_or(self.config.seed)
    }

    /// The explicit platform seed override, if one was set (`None` means the platform
    /// follows the pool seed). The codec round-trips this raw value so a decoded spec
    /// compares equal to the original.
    pub fn platform_seed_override(&self) -> Option<u64> {
        self.platform_seed
    }

    /// Generate the worker pool (deterministic given the seed).
    pub fn build_pool(&self) -> WorkerPool {
        WorkerPool::generate(&self.config)
    }

    /// Build a fresh simulated platform over this crowd.
    pub fn build_platform(&self) -> SimulatedPlatform {
        SimulatedPlatform::new(
            self.build_pool(),
            self.cost_model,
            self.effective_platform_seed(),
        )
    }

    /// Build a fresh sharded platform over this crowd, split `shards` ways
    /// ([`ShardedPlatform::split`]; a 1-way split is bit-identical to
    /// [`build_platform`](Self::build_platform)).
    pub fn build_sharded(&self, shards: usize) -> ShardedPlatform {
        ShardedPlatform::split(
            &self.build_pool(),
            self.cost_model,
            self.effective_platform_seed(),
            shards,
        )
    }

    /// Build a fresh lease ledger over this crowd's full roster, the ids `0..size`
    /// [`WorkerPool::generate`] numbers its workers with.
    pub fn build_ledger(&self) -> PoolLedger {
        PoolLedger::new((0..self.config.size as u64).map(WorkerId))
    }

    /// Check that the simulator can sample this crowd: every number in it is finite,
    /// each `Uniform` range and `Empirical` bin runs from low to high, and `Beta` shapes
    /// are positive. The samplers assume all three: a reversed range or a zero shape
    /// panics mid-run, and a NaN accuracy quietly yields a crowd that is never right.
    /// The fleet facade and the service call this before they build or journal
    /// anything, so a bad spec comes back as [`CdasError::InvalidConfig`].
    pub fn validate(&self) -> Result<()> {
        let config = &self.config;
        finite("crowd.spammer_fraction", config.spammer_fraction)?;
        finite("crowd.colluder_fraction", config.colluder_fraction)?;
        finite("crowd.expert_fraction", config.expert_fraction)?;
        let approval = &config.approval;
        finite("crowd.approval", approval.auto_approval_fraction)?;
        finite("crowd.approval", approval.accuracy_weight)?;
        finite("crowd.approval", approval.noise)?;
        finite("crowd.cost_model", self.cost_model.worker_fee)?;
        finite("crowd.cost_model", self.cost_model.platform_fee)?;
        match config.latency {
            LatencyModel::Constant(v) | LatencyModel::Exponential { mean: v } => {
                finite("crowd.latency", v)
            }
            LatencyModel::Uniform { lo, hi } => ordered("crowd.latency", lo, hi),
            LatencyModel::LogNormal { mu, sigma } => {
                finite("crowd.latency", mu)?;
                finite("crowd.latency", sigma)
            }
        }?;
        match &config.accuracy {
            AccuracyDistribution::Constant(v) => finite("crowd.accuracy", *v),
            AccuracyDistribution::Uniform { lo, hi } => ordered("crowd.accuracy", *lo, *hi),
            AccuracyDistribution::Beta { alpha, beta } => {
                positive("crowd.accuracy", *alpha)?;
                positive("crowd.accuracy", *beta)
            }
            AccuracyDistribution::TruncatedNormal { mean, std } => {
                finite("crowd.accuracy", *mean)?;
                finite("crowd.accuracy", *std)
            }
            AccuracyDistribution::Empirical { bins } => {
                bins.iter().try_for_each(|&(lo, hi, weight)| {
                    ordered("crowd.accuracy", lo, hi)?;
                    finite("crowd.accuracy", weight)
                })
            }
        }
    }
}

fn finite(field: &'static str, value: f64) -> Result<()> {
    if value.is_finite() {
        return Ok(());
    }
    Err(CdasError::InvalidConfig {
        field,
        detail: format!("{value} is not a finite number"),
    })
}

fn ordered(field: &'static str, lo: f64, hi: f64) -> Result<()> {
    finite(field, lo)?;
    finite(field, hi)?;
    if lo <= hi {
        return Ok(());
    }
    Err(CdasError::InvalidConfig {
        field,
        detail: format!("the range {lo}..{hi} is reversed"),
    })
}

fn positive(field: &'static str, value: f64) -> Result<()> {
    finite(field, value)?;
    if value > 0.0 {
        return Ok(());
    }
    Err(CdasError::InvalidConfig {
        field,
        detail: format!("the shape {value} is not positive"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::CrowdPlatform;
    use crate::question::CrowdQuestion;
    use cdas_core::types::{AnswerDomain, Label, QuestionId};

    fn request() -> crate::hit::HitRequest {
        let qs: Vec<CrowdQuestion> = (0..3)
            .map(|i| {
                CrowdQuestion::new(
                    QuestionId(i),
                    AnswerDomain::from_strs(&["a", "b"]),
                    Label::from("a"),
                )
            })
            .collect();
        crate::hit::HitRequest::new(qs, 4, 0.01)
    }

    #[test]
    fn spec_builds_the_same_views_as_hand_wiring() {
        let spec = CrowdSpec::clean(12, 0.8)
            .seed(7)
            .latency(LatencyModel::Exponential { mean: 5.0 });
        let pool = WorkerPool::generate(&PoolConfig {
            latency: LatencyModel::Exponential { mean: 5.0 },
            ..PoolConfig::clean(12, 0.8, 7)
        });
        assert_eq!(spec.build_pool(), pool);
        assert_eq!(
            spec.build_ledger().roster(),
            PoolLedger::from_pool(&pool).roster()
        );

        // Platforms are separate instances but bit-identical simulations.
        let mut a = spec.build_platform();
        let mut b = SimulatedPlatform::new(pool, CostModel::default(), 7);
        let ha = a.publish(request());
        let hb = b.publish(request());
        assert_eq!(ha, hb);
        assert_eq!(a.poll(ha, f64::INFINITY), b.poll(hb, f64::INFINITY));
        assert_eq!(a.total_cost(), b.total_cost());
    }

    #[test]
    fn platform_seed_decouples_from_the_pool_seed() {
        let spec = CrowdSpec::clean(6, 0.8).seed(3);
        assert_eq!(spec.effective_platform_seed(), 3);
        let spec = spec.platform_seed(99);
        assert_eq!(spec.effective_platform_seed(), 99);
        // The pool itself is still the seed-3 pool.
        assert_eq!(
            spec.build_pool(),
            WorkerPool::generate(&PoolConfig::clean(6, 0.8, 3))
        );
    }

    #[test]
    fn sharded_build_partitions_the_same_crowd() {
        let spec = CrowdSpec::clean(10, 0.8).seed(5);
        let sharded = spec.build_sharded(2);
        assert_eq!(sharded.shard_count(), 2);
        let total: usize = sharded.shards().iter().map(|s| s.roster().len()).sum();
        assert_eq!(total, 10);
        // A 1-way split mints the same HIT ids as the plain platform.
        let mut one = spec.build_sharded(1);
        let mut plain = spec.build_platform();
        let a = one.shards_mut()[0].platform_mut().publish(request());
        let b = plain.publish(request());
        assert_eq!(a, b);
    }

    #[test]
    fn size_and_paper_constructors() {
        assert_eq!(CrowdSpec::paper().worker_count(), 500);
        assert_eq!(CrowdSpec::paper().size(40).worker_count(), 40);
        assert_eq!(CrowdSpec::clean(8, 0.9).worker_count(), 8);
    }
}
