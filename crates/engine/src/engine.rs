//! The two-phase crowdsourcing engine (§2.1, Algorithm 1).
//!
//! **Phase 1** — the engine renders the HIT from the query template, decides how many
//! workers to request (either a fixed count supplied by an experiment, or the prediction
//! model's `g(C)` given a mean worker accuracy), and publishes it to the crowd platform.
//!
//! **Phase 2** — answers come back asynchronously. The engine first scores the *gold*
//! questions to estimate each participating worker's accuracy (Algorithm 4), then verifies
//! every real question with the configured strategy: Half-Voting, Majority-Voting, or the
//! probability-based verification model — the latter either offline (all answers) or online
//! with one of the early-termination strategies, in which case the HIT is cancelled once
//! every question has terminated. Phase 2 is the collector in [`crate::clocked`]: it polls
//! as answers arrive under a [`cdas_crowd::clock::SimClock`] and cancels *mid-flight*, so
//! the saved assignments are genuinely never delivered, never paid for, and their workers
//! are freed while the HIT is still running.
//! [`collect_batch`](CrowdsourcingEngine::collect_batch) is that collector with a single
//! end-of-time poll, so it has already paid for every answer by the time it verifies.
//!
//! The two phases are **re-entrant per batch**: [`CrowdsourcingEngine::publish_batch`]
//! returns a [`BatchTicket`] and [`CrowdsourcingEngine::collect_batch`] redeems it, so a
//! scheduler can keep many batches — from many jobs — in flight at once and interleave
//! publishes with ingestion ([`crate::scheduler`]). [`CrowdsourcingEngine::run_hit`] is the
//! single-batch composition of the two.

use std::collections::BTreeSet;

use cdas_core::accuracy::AccuracyRegistry;
use cdas_core::economics::CostModel;
use cdas_core::online::TerminationStrategy;
use cdas_core::prediction::PredictionModel;
use cdas_core::types::{HitId, QuestionId, WorkerId};
use cdas_core::verification::Verdict;
use cdas_core::{CdasError, Result};
use cdas_crowd::clock::SimClock;
use cdas_crowd::hit::HitRequest;
use cdas_crowd::platform::CrowdPlatform;
use cdas_crowd::question::CrowdQuestion;
use serde::{Deserialize, Serialize};

use crate::clocked::EndOfTime;

/// Which answer-verification strategy the engine applies to each question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VerificationStrategy {
    /// Accept an answer returned by at least half of the assigned workers.
    HalfVoting,
    /// Accept the strictly most-voted answer.
    MajorityVoting,
    /// The paper's probability-based verification model.
    Probabilistic,
}

impl VerificationStrategy {
    /// All strategies in the order the paper's figures list them.
    pub const ALL: [VerificationStrategy; 3] = [
        VerificationStrategy::MajorityVoting,
        VerificationStrategy::HalfVoting,
        VerificationStrategy::Probabilistic,
    ];

    /// Display name matching the figures.
    pub fn name(&self) -> &'static str {
        match self {
            VerificationStrategy::HalfVoting => "Half-Voting",
            VerificationStrategy::MajorityVoting => "Majority-Voting",
            VerificationStrategy::Probabilistic => "Verification",
        }
    }
}

/// How many workers to request per HIT.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WorkerCountPolicy {
    /// A fixed assignment count (used by the "vary the number of workers" experiments).
    Fixed(usize),
    /// Use the prediction model: the refined estimate `g(C)` for the configured required
    /// accuracy, computed from the given mean worker accuracy.
    Predicted {
        /// The mean worker accuracy `μ` the prediction model uses.
        mean_accuracy: f64,
    },
}

/// Where the verification model gets per-worker accuracies from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AccuracySource {
    /// Estimate from the gold questions inside the HIT (the production path, §3.3).
    GoldSampling,
    /// Use an externally supplied registry (e.g. the simulator's oracle, or estimates from
    /// previous HITs). Used by experiments that isolate verification from sampling noise.
    Registry(AccuracyRegistry),
}

/// Engine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Verification strategy.
    pub verification: VerificationStrategy,
    /// Online early-termination strategy; `None` waits for all answers (offline).
    pub termination: Option<TerminationStrategy>,
    /// Worker-count policy.
    pub workers: WorkerCountPolicy,
    /// The user-required accuracy `C` (drives the prediction model and reporting).
    pub required_accuracy: f64,
    /// Source of per-worker accuracies for verification.
    pub accuracy_source: AccuracySource,
    /// Accuracy assumed for a worker with no estimate (new worker, no gold answers).
    pub default_worker_accuracy: f64,
    /// Answer-domain size `m` for verification and online termination; `None` uses each
    /// question's declared domain size (`question.domain.size()`). The engine never
    /// uses the per-observation estimate of Theorem 5, which `cdas-core`'s online
    /// processor makes when it is built without a domain size.
    pub domain_size: Option<usize>,
    /// Reward per assignment (the `m_c` handed to the platform request).
    pub reward: f64,
    /// Cost model used for engine-side accounting.
    pub cost_model: CostModel,
}

impl EngineConfig {
    /// The configuration a job implies over the engine defaults: its required accuracy
    /// `C` and the size of its answer domain. Both the job manager's processing plans and
    /// the scheduler's [`crate::scheduler::ScheduledJob::new`] derive through here, so the
    /// rule cannot drift between the two paths.
    pub fn for_job(required_accuracy: f64, domain_size: usize) -> Self {
        EngineConfig {
            required_accuracy,
            domain_size: Some(domain_size),
            ..EngineConfig::default()
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            verification: VerificationStrategy::Probabilistic,
            termination: None,
            workers: WorkerCountPolicy::Fixed(5),
            required_accuracy: 0.9,
            accuracy_source: AccuracySource::GoldSampling,
            default_worker_accuracy: 0.7,
            domain_size: None,
            reward: 0.01,
            cost_model: CostModel::default(),
        }
    }
}

/// A phase-1 receipt: one published-but-not-yet-ingested HIT batch.
///
/// Returned by [`CrowdsourcingEngine::publish_batch`] (or
/// [`publish_batch_to`](CrowdsourcingEngine::publish_batch_to)) and redeemed by
/// [`collect_batch`](CrowdsourcingEngine::collect_batch). Holding a ticket is what makes
/// the engine re-entrant: any number of tickets — across jobs — may be outstanding against
/// one platform, and each is ingested independently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[must_use = "a BatchTicket is the only handle for collecting its HIT; dropping it strands the published batch"]
pub struct BatchTicket {
    /// The platform HIT id phase 2 will poll.
    pub hit: HitId,
    /// The batch's questions (kept so phase 2 can score gold questions and verify).
    pub questions: Vec<CrowdQuestion>,
    /// Number of workers the HIT was assigned to.
    pub workers_assigned: usize,
}

/// The verdict for one question of a HIT.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuestionVerdict {
    /// The question.
    pub question: QuestionId,
    /// The accepted answer (or `NoAnswer` for indecisive voting).
    pub verdict: Verdict,
    /// How many answers were consumed before the decision (equals the assignment count for
    /// offline processing, fewer when early termination fired).
    pub answers_used: usize,
    /// Whether this was a gold (sampling) question.
    pub is_gold: bool,
    /// Reason keywords collected from workers that voted for the accepted answer.
    pub reasons: Vec<String>,
}

/// The outcome of one HIT run end to end through the engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HitOutcome {
    /// The platform HIT id.
    pub hit: HitId,
    /// Per-question verdicts (gold questions included, flagged).
    pub verdicts: Vec<QuestionVerdict>,
    /// Number of workers the HIT was assigned to.
    pub workers_assigned: usize,
    /// The mean worker accuracy estimated from gold questions (when sampling was used).
    pub estimated_mean_accuracy: Option<f64>,
    /// The accuracy estimates the verification used: those of the workers whose answers
    /// the batch ingested, with the configured default accuracy for anyone else.
    pub registry: AccuracyRegistry,
    /// Dollars charged by the platform for this HIT.
    pub cost: f64,
}

impl HitOutcome {
    /// The verdicts of the real (non-gold) questions.
    pub fn real_verdicts(&self) -> impl Iterator<Item = &QuestionVerdict> {
        self.verdicts.iter().filter(|v| !v.is_gold)
    }

    /// Fraction of real questions with no accepted answer (the paper's no-answer ratio).
    pub fn no_answer_ratio(&self) -> f64 {
        let real: Vec<_> = self.real_verdicts().collect();
        if real.is_empty() {
            return 0.0;
        }
        real.iter().filter(|v| !v.verdict.is_accepted()).count() as f64 / real.len() as f64
    }

    /// Average number of answers consumed per real question (Figure 12's metric).
    pub fn mean_answers_used(&self) -> f64 {
        let real: Vec<_> = self.real_verdicts().collect();
        if real.is_empty() {
            return 0.0;
        }
        real.iter().map(|v| v.answers_used).sum::<usize>() as f64 / real.len() as f64
    }
}

/// The two-phase crowdsourcing engine.
#[derive(Debug, Clone)]
pub struct CrowdsourcingEngine {
    config: EngineConfig,
}

impl CrowdsourcingEngine {
    /// Create an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        CrowdsourcingEngine { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Phase-1 worker-count decision.
    pub fn decide_workers(&self) -> Result<usize> {
        match self.config.workers {
            WorkerCountPolicy::Fixed(n) => {
                if n == 0 {
                    return Err(CdasError::NonPositive {
                        what: "worker count",
                    });
                }
                Ok(n)
            }
            WorkerCountPolicy::Predicted { mean_accuracy } => {
                let model = PredictionModel::new(mean_accuracy)?;
                Ok(model.refined_workers(self.config.required_accuracy)? as usize)
            }
        }
    }

    /// Run one HIT end to end: publish, collect answers, estimate accuracies, verify.
    ///
    /// `questions` is the HIT batch (gold questions flagged); the platform delivers answers
    /// in arrival order, which the online path consumes incrementally. Equivalent to
    /// [`publish_batch`](Self::publish_batch) immediately followed by
    /// [`collect_batch`](Self::collect_batch).
    pub fn run_hit<P: CrowdPlatform>(
        &self,
        platform: &mut P,
        questions: Vec<CrowdQuestion>,
    ) -> Result<HitOutcome> {
        let ticket = self.publish_batch(platform, questions)?;
        self.collect_batch(platform, ticket)
    }

    /// Phase 1: publish one batch, letting the platform pick the workers.
    ///
    /// The worker count comes from the configured [`WorkerCountPolicy`]. The returned
    /// [`BatchTicket`] is redeemed later by [`collect_batch`](Self::collect_batch); any
    /// number of tickets may be outstanding at once.
    pub fn publish_batch<P: CrowdPlatform>(
        &self,
        platform: &mut P,
        questions: Vec<CrowdQuestion>,
    ) -> Result<BatchTicket> {
        check_batch(&questions)?;
        let workers = self.decide_workers()?;
        let request = HitRequest::new(questions.clone(), workers, self.config.reward);
        let hit = platform.publish(request);
        Ok(BatchTicket {
            hit,
            questions,
            workers_assigned: workers,
        })
    }

    /// Phase 1, lease-aware: publish one batch to an explicit worker set.
    ///
    /// Used by the multi-job scheduler after checking `workers` out of a
    /// [`cdas_crowd::lease::PoolLedger`], so batches in flight concurrently never share a
    /// worker. The assignment count is `workers.len()` — the caller already sized the
    /// lease (usually via [`decide_workers`](Self::decide_workers)).
    pub fn publish_batch_to<P: CrowdPlatform>(
        &self,
        platform: &mut P,
        questions: Vec<CrowdQuestion>,
        workers: &[WorkerId],
    ) -> Result<BatchTicket> {
        check_batch(&questions)?;
        if workers.is_empty() {
            return Err(CdasError::NonPositive {
                what: "worker count",
            });
        }
        let request = HitRequest::new(questions.clone(), workers.len(), self.config.reward);
        let hit = platform.publish_to(request, workers);
        Ok(BatchTicket {
            hit,
            questions,
            workers_assigned: workers.len(),
        })
    }

    /// Phase 2: ingest one published batch — poll its answers, estimate worker accuracies
    /// from the gold questions, verify every question, and account for cost.
    ///
    /// This is [`collect_batch_clocked`](Self::collect_batch_clocked) with one end-of-time
    /// poll: the platform's arrival look-ahead is ignored, so every answer is delivered
    /// (and paid for) before the first verdict, and an early-terminated HIT is cancelled
    /// afterwards.
    pub fn collect_batch<P: CrowdPlatform>(
        &self,
        platform: &mut P,
        ticket: BatchTicket,
    ) -> Result<HitOutcome> {
        let clocked =
            self.collect_batch_clocked(&mut EndOfTime(platform), ticket, &mut SimClock::new())?;
        Ok(clocked.outcome)
    }
}

/// Reject a batch no collector can verify: one with no questions, or one that lists a
/// question id twice (answers and verdicts are kept per id, so the second copy would
/// get none).
fn check_batch(questions: &[CrowdQuestion]) -> Result<()> {
    if questions.is_empty() {
        return Err(CdasError::EmptyObservation);
    }
    let mut seen = BTreeSet::new();
    match questions.iter().find(|q| !seen.insert(q.id)) {
        Some(repeated) => Err(CdasError::DuplicateQuestion {
            question: repeated.id,
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdas_core::types::{AnswerDomain, Label};
    use cdas_crowd::pool::{PoolConfig, WorkerPool};
    use cdas_crowd::SimulatedPlatform;

    fn sentiment_question(id: u64, gold: bool) -> CrowdQuestion {
        let q = CrowdQuestion::new(
            QuestionId(id),
            AnswerDomain::from_strs(&["Positive", "Neutral", "Negative"]),
            Label::from("Positive"),
        )
        .with_reasons(vec!["acting".to_string()]);
        if gold {
            q.as_gold()
        } else {
            q
        }
    }

    fn batch(real: u64, gold: u64) -> Vec<CrowdQuestion> {
        let mut qs: Vec<CrowdQuestion> = (0..gold).map(|i| sentiment_question(i, true)).collect();
        qs.extend((gold..gold + real).map(|i| sentiment_question(i, false)));
        qs
    }

    fn platform(accuracy: f64, seed: u64) -> SimulatedPlatform {
        let pool = WorkerPool::generate(&PoolConfig::clean(60, accuracy, seed));
        SimulatedPlatform::new(pool, CostModel::default(), seed)
    }

    /// The workers who answer `questions` when `engine` publishes them as the first HIT
    /// of a platform over `pool` seeded `seed`, read off an identical twin platform.
    fn answering_workers(
        engine: &CrowdsourcingEngine,
        pool: &WorkerPool,
        seed: u64,
        questions: Vec<CrowdQuestion>,
    ) -> Vec<WorkerId> {
        let mut twin = SimulatedPlatform::new(pool.clone(), CostModel::default(), seed);
        let ticket = engine.publish_batch(&mut twin, questions).unwrap();
        let mut workers: Vec<WorkerId> = twin
            .poll(ticket.hit, f64::INFINITY)
            .iter()
            .map(|a| a.worker)
            .collect();
        workers.sort_unstable();
        workers.dedup();
        workers
    }

    /// `registry` holds exactly the estimates of `workers`, each the oracle's injected
    /// estimate bit for bit.
    fn assert_oracle_entries_of(
        registry: &AccuracyRegistry,
        workers: &[WorkerId],
        oracle: &AccuracyRegistry,
    ) {
        let listed: Vec<WorkerId> = registry.iter().map(|(w, _)| *w).collect();
        assert_eq!(listed, workers, "only the answering workers are kept");
        for (w, entry) in registry.iter() {
            let truth = oracle.get(*w).unwrap();
            assert_eq!(entry.accuracy.to_bits(), truth.accuracy.to_bits());
            assert_eq!(entry.samples, 0);
        }
    }

    #[test]
    fn decide_workers_fixed_and_predicted() {
        let fixed = CrowdsourcingEngine::new(EngineConfig {
            workers: WorkerCountPolicy::Fixed(7),
            ..EngineConfig::default()
        });
        assert_eq!(fixed.decide_workers().unwrap(), 7);
        let zero = CrowdsourcingEngine::new(EngineConfig {
            workers: WorkerCountPolicy::Fixed(0),
            ..EngineConfig::default()
        });
        assert!(zero.decide_workers().is_err());
        let predicted = CrowdsourcingEngine::new(EngineConfig {
            workers: WorkerCountPolicy::Predicted {
                mean_accuracy: 0.75,
            },
            required_accuracy: 0.95,
            ..EngineConfig::default()
        });
        let n = predicted.decide_workers().unwrap();
        assert!(n % 2 == 1 && n >= 5);
    }

    #[test]
    fn offline_probabilistic_hit_answers_most_questions_correctly() {
        let engine = CrowdsourcingEngine::new(EngineConfig {
            workers: WorkerCountPolicy::Fixed(9),
            verification: VerificationStrategy::Probabilistic,
            ..EngineConfig::default()
        });
        let mut p = platform(0.8, 3);
        let outcome = engine.run_hit(&mut p, batch(20, 5)).unwrap();
        assert_eq!(outcome.workers_assigned, 9);
        assert_eq!(outcome.verdicts.len(), 25);
        assert!(outcome.estimated_mean_accuracy.unwrap() > 0.6);
        assert!(outcome.cost > 0.0);
        let correct = outcome
            .real_verdicts()
            .filter(|v| v.verdict.label().map(|l| l.as_str()) == Some("Positive"))
            .count();
        assert!(correct >= 18, "only {correct}/20 correct");
        assert_eq!(outcome.no_answer_ratio(), 0.0);
        // Reasons echo the keyword of correct workers.
        assert!(outcome
            .real_verdicts()
            .any(|v| v.reasons.contains(&"acting".to_string())));
    }

    #[test]
    fn voting_strategies_can_fail_to_answer() {
        // A 0.52-accuracy pool over 3 labels frequently splits the votes.
        let engine = CrowdsourcingEngine::new(EngineConfig {
            workers: WorkerCountPolicy::Fixed(5),
            verification: VerificationStrategy::HalfVoting,
            ..EngineConfig::default()
        });
        let mut p = platform(0.45, 11);
        let outcome = engine.run_hit(&mut p, batch(60, 10)).unwrap();
        assert!(
            outcome.no_answer_ratio() > 0.0,
            "expected some undecided questions with a weak pool"
        );
    }

    #[test]
    fn online_termination_consumes_fewer_answers() {
        let offline = CrowdsourcingEngine::new(EngineConfig {
            workers: WorkerCountPolicy::Fixed(15),
            verification: VerificationStrategy::Probabilistic,
            termination: None,
            ..EngineConfig::default()
        });
        let online = CrowdsourcingEngine::new(EngineConfig {
            workers: WorkerCountPolicy::Fixed(15),
            verification: VerificationStrategy::Probabilistic,
            termination: Some(TerminationStrategy::ExpMax),
            ..EngineConfig::default()
        });
        let outcome_offline = offline
            .run_hit(&mut platform(0.85, 17), batch(15, 5))
            .unwrap();
        let outcome_online = online
            .run_hit(&mut platform(0.85, 17), batch(15, 5))
            .unwrap();
        assert!(outcome_online.mean_answers_used() < outcome_offline.mean_answers_used());
        assert!(outcome_online.cost <= outcome_offline.cost);
        // End-of-time collection pays for everything it polled: the consumed-answer
        // savings are informational here and only become dollars on the clocked path.
        assert!(
            (outcome_online.cost - outcome_offline.cost).abs() < 1e-9,
            "the end-of-time path must not pretend termination saved money"
        );
        // Accuracy should not collapse.
        let correct = outcome_online
            .real_verdicts()
            .filter(|v| v.verdict.label().map(|l| l.as_str()) == Some("Positive"))
            .count();
        assert!(correct >= 13, "online accuracy too low: {correct}/15");
    }

    #[test]
    fn terminated_hit_cost_matches_platform_cost() {
        // Regression for the terminated-HIT cost divergence: the engine used to re-price a
        // terminated HIT at the consumed fraction while the platform kept the full charge,
        // so fleet accounting (platform ledger) disagreed with `HitOutcome::cost`.
        let engine = CrowdsourcingEngine::new(EngineConfig {
            workers: WorkerCountPolicy::Fixed(15),
            verification: VerificationStrategy::Probabilistic,
            termination: Some(TerminationStrategy::ExpMax),
            ..EngineConfig::default()
        });
        let mut p = platform(0.85, 17);
        let outcome = engine.run_hit(&mut p, batch(15, 5)).unwrap();
        assert!(
            outcome.mean_answers_used() < 15.0,
            "termination should have fired somewhere"
        );
        assert!(
            (outcome.cost - p.total_cost()).abs() < 1e-9,
            "engine cost {} != platform cost {}",
            outcome.cost,
            p.total_cost()
        );
    }

    #[test]
    fn registry_source_skips_sampling() {
        let pool = WorkerPool::generate(&PoolConfig::clean(40, 0.8, 23));
        let reference = sentiment_question(0, false);
        let oracle = pool.oracle_registry(&reference);
        let engine = CrowdsourcingEngine::new(EngineConfig {
            workers: WorkerCountPolicy::Fixed(7),
            accuracy_source: AccuracySource::Registry(oracle.clone()),
            ..EngineConfig::default()
        });
        let voters = answering_workers(&engine, &pool, 23, batch(10, 0));
        assert_eq!(voters.len(), 7);
        let mut p = SimulatedPlatform::new(pool, CostModel::default(), 23);
        let outcome = engine.run_hit(&mut p, batch(10, 0)).unwrap();
        assert_oracle_entries_of(&outcome.registry, &voters, &oracle);
        assert_eq!(outcome.estimated_mean_accuracy, oracle.mean_accuracy());
    }

    #[test]
    fn empty_batch_is_rejected() {
        let engine = CrowdsourcingEngine::new(EngineConfig::default());
        let mut p = platform(0.8, 1);
        assert!(engine.run_hit(&mut p, Vec::new()).is_err());
        assert!(engine.publish_batch(&mut p, Vec::new()).is_err());
        assert!(engine
            .publish_batch_to(&mut p, Vec::new(), &[WorkerId(1)])
            .is_err());
        assert!(engine.publish_batch_to(&mut p, batch(2, 0), &[]).is_err());
    }

    #[test]
    fn repeated_question_id_is_rejected_before_publishing() {
        let engine = CrowdsourcingEngine::new(EngineConfig::default());
        let mut p = platform(0.8, 1);
        let mut questions = batch(4, 1);
        questions.push(sentiment_question(2, false));
        let repeated = Err(CdasError::DuplicateQuestion {
            question: QuestionId(2),
        });
        assert_eq!(
            engine.run_hit(&mut p, questions.clone()).map(|_| ()),
            repeated
        );
        assert_eq!(
            engine.publish_batch(&mut p, questions.clone()).map(|_| ()),
            repeated
        );
        assert_eq!(
            engine
                .publish_batch_to(&mut p, questions, &[WorkerId(1), WorkerId(2)])
                .map(|_| ()),
            repeated
        );
        // Nothing reached the platform: its first HIT is still unpublished.
        let ticket = engine.publish_batch(&mut p, batch(4, 1)).unwrap();
        assert_eq!(ticket.hit, HitId(0));
    }

    #[test]
    fn split_phases_match_run_hit() {
        let engine = CrowdsourcingEngine::new(EngineConfig {
            workers: WorkerCountPolicy::Fixed(7),
            ..EngineConfig::default()
        });
        let composed = engine
            .run_hit(&mut platform(0.8, 31), batch(10, 3))
            .unwrap();
        let mut p = platform(0.8, 31);
        let ticket = engine.publish_batch(&mut p, batch(10, 3)).unwrap();
        assert_eq!(ticket.workers_assigned, 7);
        assert_eq!(ticket.questions.len(), 13);
        let split = engine.collect_batch(&mut p, ticket).unwrap();
        assert_eq!(composed, split, "run_hit must be publish + collect");
    }

    #[test]
    fn interleaved_batches_account_costs_independently() {
        // Two tickets outstanding at once; each collect must only see its own charges.
        let engine = CrowdsourcingEngine::new(EngineConfig {
            workers: WorkerCountPolicy::Fixed(5),
            ..EngineConfig::default()
        });
        let mut p = platform(0.8, 13);
        let t1 = engine.publish_batch(&mut p, batch(10, 2)).unwrap();
        let t2 = engine.publish_batch(&mut p, batch(10, 2)).unwrap();
        let o1 = engine.collect_batch(&mut p, t1).unwrap();
        let o2 = engine.collect_batch(&mut p, t2).unwrap();
        assert!(o1.cost > 0.0);
        assert!(
            (o1.cost - o2.cost).abs() < 1e-9,
            "same-shape batches, same cost"
        );
        assert!((o1.cost + o2.cost - p.total_cost()).abs() < 1e-9);
    }

    #[test]
    fn cached_collect_reuses_estimates_from_earlier_batches() {
        use cdas_core::sharing::{AccuracyCache, SharedAccuracyRegistry};

        let engine = CrowdsourcingEngine::new(EngineConfig {
            workers: WorkerCountPolicy::Fixed(7),
            ..EngineConfig::default()
        });
        let mut p = platform(0.8, 41);
        let cache = AccuracyCache::new(SharedAccuracyRegistry::new());
        let mut clock = SimClock::new();

        // Batch 1 carries gold questions: its estimates land in the shared registry.
        let t1 = engine.publish_batch(&mut p, batch(8, 4)).unwrap();
        let o1 = engine
            .drive_clocked(&mut p, t1, &mut clock, Some(&cache))
            .unwrap()
            .outcome;
        assert!(!cache.shared().is_empty());
        assert!(o1.estimated_mean_accuracy.is_some());

        // Batch 2 has NO gold questions, yet its verification registry is non-empty:
        // every estimate it weights votes with was learned in batch 1.
        let t2 = engine.publish_batch(&mut p, batch(8, 0)).unwrap();
        let o2 = engine
            .drive_clocked(&mut p, t2, &mut clock, Some(&cache))
            .unwrap()
            .outcome;
        assert!(!o2.registry.is_empty());
        assert!(
            o2.registry.iter().all(|(_, e)| e.samples > 0),
            "estimates came from gold sampling"
        );
    }

    #[test]
    fn cached_collect_honours_a_configured_registry_source() {
        use cdas_core::sharing::{AccuracyCache, SharedAccuracyRegistry};

        let pool = WorkerPool::generate(&PoolConfig::clean(30, 0.8, 51));
        let oracle = pool.oracle_registry(&sentiment_question(0, false));
        let engine = CrowdsourcingEngine::new(EngineConfig {
            workers: WorkerCountPolicy::Fixed(5),
            accuracy_source: AccuracySource::Registry(oracle.clone()),
            ..EngineConfig::default()
        });
        let voters = answering_workers(&engine, &pool, 51, batch(6, 0));
        assert_eq!(voters.len(), 5);
        let mut p = SimulatedPlatform::new(pool, CostModel::default(), 51);
        let cache = AccuracyCache::new(SharedAccuracyRegistry::new());
        // A gold-free batch: without the configured registry there would be nothing to
        // weight votes with beyond the default.
        let ticket = engine.publish_batch(&mut p, batch(6, 0)).unwrap();
        let outcome = engine
            .drive_clocked(&mut p, ticket, &mut SimClock::new(), Some(&cache))
            .unwrap()
            .outcome;
        assert_eq!(
            cache.shared().len(),
            30,
            "the oracle registry seeded the fleet registry"
        );
        assert_oracle_entries_of(&outcome.registry, &voters, &oracle);
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(VerificationStrategy::HalfVoting.name(), "Half-Voting");
        assert_eq!(
            VerificationStrategy::MajorityVoting.name(),
            "Majority-Voting"
        );
        assert_eq!(VerificationStrategy::Probabilistic.name(), "Verification");
        assert_eq!(VerificationStrategy::ALL.len(), 3);
    }
}
