//! Phase 2: ingestion of a HIT batch as its answers arrive (§4.2, Algorithm 5).
//!
//! A [`ClockedCollector`] is created when the batch is published and then *fed* answers as
//! they arrive, advancing a [`SimClock`] from arrival event to arrival event:
//!
//! 1. each arriving worker submission is first scored against the batch's gold questions
//!    (Algorithm 4 becomes incremental — a worker's weight reflects their own gold score
//!    the moment their submission lands),
//! 2. the real questions' votes stream into per-question [`OnlineProcessor`]s
//!    (Algorithm 5), and
//! 3. the moment *every* question's termination condition has fired, the caller cancels
//!    the HIT mid-flight: undelivered assignments are never charged
//!    ([`cdas_crowd::platform::CancelReceipt`]), and the workers still typing get their
//!    remaining simulated minutes back — which a scheduler can immediately re-lease to
//!    another job ([`crate::scheduler::JobScheduler::run_clocked`]).
//!
//! Strategies without an online termination signal (the voting strategies, or
//! probabilistic verification without a [`cdas_core::online::TerminationStrategy`]) ingest
//! incrementally too and verify once, when the batch completes. The engine-side cost of a
//! batch is *by construction* what the platform charged for the delivered answers.
//!
//! This is the only phase-2 implementation. On a platform without arrival look-ahead
//! ([`CrowdPlatform::next_arrival`] keeps its default `None`) it makes one end-of-time
//! poll per HIT and never moves the clock: [`CrowdsourcingEngine::collect_batch`] and
//! `ExecutionMode::EndOfTime` runs are this collector over such a view of the platform.

use std::collections::{BTreeMap, BTreeSet};

use cdas_core::accuracy::AccuracyRegistry;
use cdas_core::online::OnlineProcessor;
use cdas_core::sampling::SamplingEstimator;
use cdas_core::sharing::AccuracyCache;
use cdas_core::types::{HitId, Label, Observation, QuestionId, Vote, WorkerId};
use cdas_core::verification::probabilistic::ProbabilisticVerifier;
use cdas_core::verification::voting::{HalfVoting, MajorityVoting};
use cdas_core::verification::{Verdict, Verifier};
use cdas_core::Result;
use cdas_crowd::clock::SimClock;
use cdas_crowd::hit::HitRequest;
use cdas_crowd::platform::{CancelReceipt, CrowdPlatform, WorkerAnswer};
use cdas_crowd::question::CrowdQuestion;
use serde::{Deserialize, Serialize};

use crate::engine::{
    AccuracySource, BatchTicket, CrowdsourcingEngine, EngineConfig, HitOutcome, QuestionVerdict,
    VerificationStrategy,
};

/// A platform seen without arrival look-ahead. Every method forwards to the wrapped
/// platform except [`CrowdPlatform::next_arrival`], which keeps the trait default `None`,
/// so a collector over this view polls each HIT once, at the end of time.
pub(crate) struct EndOfTime<'a, P>(pub(crate) &'a mut P);

impl<P: CrowdPlatform> CrowdPlatform for EndOfTime<'_, P> {
    fn publish(&mut self, request: HitRequest) -> HitId {
        self.0.publish(request)
    }

    fn publish_to(&mut self, request: HitRequest, workers: &[WorkerId]) -> HitId {
        self.0.publish_to(request, workers)
    }

    fn advance_time(&mut self, now: f64) {
        self.0.advance_time(now);
    }

    fn poll(&mut self, hit: HitId, now: f64) -> Vec<WorkerAnswer> {
        self.0.poll(hit, now)
    }

    fn cancel(&mut self, hit: HitId, now: f64) -> CancelReceipt {
        self.0.cancel(hit, now)
    }

    fn total_cost(&self) -> f64 {
        self.0.total_cost()
    }
}

/// The outcome of one clocked batch: the ordinary [`HitOutcome`] plus its temporal facts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClockedOutcome {
    /// The verdicts, registry and cost, exactly as [`HitOutcome`] reports them: the
    /// registry holds only the estimates of the batch's answering workers. The cost
    /// equals what the platform charged for the delivered answers — a cancelled HIT is
    /// genuinely cheaper here, not merely re-priced.
    pub outcome: HitOutcome,
    /// Simulated time the batch was published at.
    pub published_at: f64,
    /// Simulated time the batch finished: the mid-flight termination instant, or the last
    /// arrival when the batch ran to its natural makespan (the publication instant on a
    /// platform without look-ahead).
    pub completed_at: f64,
    /// Simulated time of the first final verdict on a *real* question (`None` when no real
    /// question received an accepted answer).
    pub first_verdict_at: Option<f64>,
    /// Whether the batch was cancelled mid-flight by early termination.
    pub cancelled: bool,
    /// Per-question answers actually delivered (and charged).
    pub answers_delivered: usize,
    /// Per-question answers cancelled before delivery (never charged).
    pub answers_cancelled: usize,
    /// Distinct workers whose submission was cut off by the cancellation.
    pub workers_cancelled: usize,
    /// Simulated worker-minutes reclaimed by the cancellation (zero without one).
    pub reclaimed_minutes: f64,
}

impl ClockedOutcome {
    /// Wall-clock latency of the batch, publication to completion, in simulated minutes.
    pub fn latency(&self) -> f64 {
        (self.completed_at - self.published_at).max(0.0)
    }
}

/// Incremental phase-2 state for one published batch.
///
/// Create with [`CrowdsourcingEngine::begin_clocked`], feed with
/// [`ingest`](Self::ingest) after every poll, and redeem with
/// [`finalize`](Self::finalize) once ingestion reports termination or the platform has no
/// arrivals left. The single-batch composition of those steps is
/// [`CrowdsourcingEngine::collect_batch_clocked`].
#[derive(Debug, Clone)]
pub struct ClockedCollector {
    config: EngineConfig,
    hit: HitId,
    questions: Vec<CrowdQuestion>,
    workers_assigned: usize,
    published_at: f64,
    gold_truth: BTreeMap<QuestionId, Label>,
    estimator: SamplingEstimator,
    /// The Laplace-smoothed registry over this batch's gold tallies, maintained
    /// incrementally (one `set` per arriving submission) so hot-path lookups never
    /// rebuild the whole estimator.
    local_registry: AccuracyRegistry,
    /// Dollars the platform charged for this batch's polls so far, reported by the
    /// caller via [`ClockedCollector::record_charge`].
    charged: f64,
    /// Per-question online processors, created at each question's first vote. Only
    /// populated for probabilistic verification with a termination strategy — the other
    /// strategies verify once at finalize.
    processors: BTreeMap<QuestionId, OnlineProcessor>,
    votes: BTreeMap<QuestionId, Vec<WorkerAnswer>>,
    answers_delivered: usize,
    first_verdict_at: Option<f64>,
    terminated_at: Option<f64>,
    seeded_shared: bool,
}

impl CrowdsourcingEngine {
    /// Begin clocked ingestion of a batch published at simulated time `published_at`.
    pub fn begin_clocked(&self, ticket: BatchTicket, published_at: f64) -> ClockedCollector {
        let BatchTicket {
            hit,
            questions,
            workers_assigned,
        } = ticket;
        let gold_truth = questions
            .iter()
            .filter(|q| q.is_gold)
            .map(|q| (q.id, q.ground_truth.clone()))
            .collect();
        ClockedCollector {
            config: self.config().clone(),
            hit,
            questions,
            workers_assigned,
            published_at,
            gold_truth,
            estimator: SamplingEstimator::new(),
            local_registry: AccuracyRegistry::new(),
            charged: 0.0,
            processors: BTreeMap::new(),
            votes: BTreeMap::new(),
            answers_delivered: 0,
            first_verdict_at: None,
            terminated_at: None,
            seeded_shared: false,
        }
    }

    /// Phase 2, clocked: ingest one batch by advancing `clock` from arrival event to
    /// arrival event, and cancel the HIT mid-flight as soon as every question's
    /// termination condition fires. The clock ends at the batch's completion time.
    ///
    /// On a platform without arrival look-ahead ([`CrowdPlatform::next_arrival`] returns
    /// `None`), this is a single end-of-time poll that leaves the clock where it was —
    /// exactly [`collect_batch`](Self::collect_batch).
    pub fn collect_batch_clocked<P: CrowdPlatform>(
        &self,
        platform: &mut P,
        ticket: BatchTicket,
        clock: &mut SimClock,
    ) -> Result<ClockedOutcome> {
        self.drive_clocked(platform, ticket, clock, None)
    }

    /// The loop behind [`collect_batch_clocked`](Self::collect_batch_clocked). With a
    /// `cache`, gold estimates are absorbed into the shared registry behind it as
    /// submissions arrive, and votes are weighted with the fleet-wide estimates.
    pub(crate) fn drive_clocked<P: CrowdPlatform>(
        &self,
        platform: &mut P,
        ticket: BatchTicket,
        clock: &mut SimClock,
        cache: Option<&AccuracyCache>,
    ) -> Result<ClockedOutcome> {
        let mut collector = self.begin_clocked(ticket, clock.now());
        let hit = collector.hit();
        loop {
            // No look-ahead (or nothing further arrives) drains whatever the platform
            // still holds at the current instant.
            let next = platform.next_arrival(hit).filter(|t| t.is_finite());
            let poll_at = next.map_or(f64::INFINITY, |t| clock.advance_to(t));
            let cost_before = platform.total_cost();
            let answers = platform.poll(hit, poll_at);
            collector.record_charge(platform.total_cost() - cost_before);
            let terminated = collector.ingest(answers, clock.now(), cache)?;
            if terminated || next.is_none() {
                let receipt = terminated.then(|| platform.cancel(hit, clock.now()));
                return collector.finalize(clock.now(), receipt, cache);
            }
        }
    }
}

impl ClockedCollector {
    /// The platform HIT this collector ingests.
    pub fn hit(&self) -> HitId {
        self.hit
    }

    /// Simulated time the batch was published at.
    pub fn published_at(&self) -> f64 {
        self.published_at
    }

    /// Per-question answers delivered (and charged) so far.
    pub fn answers_delivered(&self) -> usize {
        self.answers_delivered
    }

    /// Whether every question's termination condition has fired.
    pub fn is_terminated(&self) -> bool {
        self.terminated_at.is_some()
    }

    /// Record what the platform charged for one of this batch's polls: snapshot
    /// `platform.total_cost()` around the poll and pass the difference. This is what
    /// makes `HitOutcome::cost` equal the platform ledger *by construction*, whatever
    /// cost model the platform uses — the engine never re-prices.
    /// [`CrowdsourcingEngine::collect_batch_clocked`] and the clocked scheduler do this
    /// for you; only direct `ingest` users need to call it.
    pub fn record_charge(&mut self, amount: f64) {
        if amount.is_finite() && amount > 0.0 {
            self.charged += amount;
        }
    }

    /// Whether the online path (probabilistic verification with a termination strategy)
    /// is active; other configurations ingest incrementally but verify at finalize.
    fn online(&self) -> bool {
        self.config.verification == VerificationStrategy::Probabilistic
            && self.config.termination.is_some()
    }

    /// Feed the answers of one poll, stamped with the poll time `now`.
    ///
    /// Returns whether the whole batch has terminated — the caller should then cancel the
    /// HIT on the platform and [`finalize`](Self::finalize). Answers are processed one
    /// worker submission at a time: the submission's gold answers are scored first, so the
    /// worker's own vote weight already reflects their gold score.
    ///
    /// The poll's answers are taken by value and moved, never copied: into per-worker
    /// submissions, then into the collector's per-question answer lists, whose keywords
    /// [`finalize`](Self::finalize) moves into the verdicts' reasons. The online
    /// processors hold votes without keywords, which no processor or verifier reads.
    pub fn ingest(
        &mut self,
        answers: Vec<WorkerAnswer>,
        now: f64,
        cache: Option<&AccuracyCache>,
    ) -> Result<bool> {
        if let Some(cache) = cache {
            if !self.seeded_shared {
                // A configured registry (simulation oracle, prior deployment) seeds the
                // fleet registry as injected estimates; gold-sampled estimates always
                // outrank them.
                if let AccuracySource::Registry(r) = &self.config.accuracy_source {
                    cache.shared().absorb(r);
                }
                self.seeded_shared = true;
            }
        }
        for submission in group_by_worker(answers) {
            self.ingest_submission(submission, now, cache)?;
        }
        if self.terminated_at.is_none() && self.online() && self.all_questions_terminated() {
            self.terminated_at = Some(now);
        }
        Ok(self.is_terminated())
    }

    /// One worker's complete submission (workers answer every question of the batch at
    /// their single completion time).
    fn ingest_submission(
        &mut self,
        submission: Vec<WorkerAnswer>,
        now: f64,
        cache: Option<&AccuracyCache>,
    ) -> Result<()> {
        let Some(worker) = submission.first().map(|a| a.worker) else {
            return Ok(());
        };
        // Algorithm 4, incrementally: score this submission's gold answers...
        for answer in &submission {
            if let Some(truth) = self.gold_truth.get(&answer.question) {
                self.estimator
                    .record(answer.worker, answer.question, &answer.label, truth);
            }
        }
        // ...fold the refreshed estimate into the batch-local registry, and share exactly
        // this worker's estimate with the fleet before weighting their votes. Each worker
        // submits once per batch, so the shared registry absorbs one sampled estimate per
        // (worker, batch). (Absorbing the whole local registry here would re-pool every
        // earlier worker's samples on every submission and inflate their weight
        // fleet-wide.)
        if let Some(tally) = self.estimator.tally(worker) {
            if let Some(smoothed) = tally.smoothed_accuracy() {
                self.local_registry.set(worker, smoothed, tally.total);
                if let Some(cache) = cache {
                    cache.shared().record(worker, smoothed, tally.total);
                }
            }
        }
        let accuracy = self.accuracy_for(worker, cache);

        let online = self.online();
        let mean = if online {
            self.running_mean(cache)
        } else {
            0.0
        };
        for answer in submission {
            self.answers_delivered += 1;
            if online {
                self.observe(&answer, accuracy, mean, now)?;
            }
            self.votes.entry(answer.question).or_default().push(answer);
        }
        Ok(())
    }

    /// Fold one answer, weighted with `accuracy`, into its question's online processor,
    /// which is created at the question's first vote with the population mean `mean`.
    fn observe(&mut self, answer: &WorkerAnswer, accuracy: f64, mean: f64, now: f64) -> Result<()> {
        let processor = match self.processors.get_mut(&answer.question) {
            Some(p) => p,
            None => {
                // `online` is true only when a termination strategy is configured; if
                // that invariant ever breaks, skip online processing for the answer
                // instead of panicking the run.
                let Some(strategy) = self.config.termination else {
                    return Ok(());
                };
                let domain = self.config.domain_size.unwrap_or_else(|| {
                    self.questions
                        .iter()
                        .find(|q| q.id == answer.question)
                        .map(|q| q.domain.size())
                        .unwrap_or(2)
                });
                let p = OnlineProcessor::new(self.workers_assigned, mean, strategy)?
                    .with_domain_size(domain);
                self.processors.entry(answer.question).or_insert(p)
            }
        };
        if processor.is_terminated() {
            // This question already has its verdict; later answers for it were only
            // delivered because *other* questions kept the HIT alive.
            return Ok(());
        }
        let vote = Vote::new(answer.worker, answer.label.clone(), accuracy);
        if processor.observe(vote)
            && self.first_verdict_at.is_none()
            && !self.gold_truth.contains_key(&answer.question)
        {
            self.first_verdict_at = Some(now);
        }
        Ok(())
    }

    /// Whether every question of the batch has a terminated processor.
    fn all_questions_terminated(&self) -> bool {
        self.questions.iter().all(|q| {
            self.processors
                .get(&q.id)
                .map(|p| p.is_terminated())
                .unwrap_or(false)
        })
    }

    /// The accuracy this worker's votes are weighted with *right now*: the fleet estimate
    /// when sharing, the local gold estimate (Laplace-smoothed) otherwise, the configured
    /// registry when sampling is disabled — falling back to the configured default.
    fn accuracy_for(&self, worker: WorkerId, cache: Option<&AccuracyCache>) -> f64 {
        let estimate = match (cache, &self.config.accuracy_source) {
            (Some(cache), _) => cache.accuracy_of(worker),
            (None, AccuracySource::Registry(r)) => r.accuracy_of(worker),
            (None, AccuracySource::GoldSampling) => self.local_registry.accuracy_of(worker),
        };
        estimate.unwrap_or(self.config.default_worker_accuracy)
    }

    /// The population-mean accuracy assumed for not-yet-seen workers when a processor is
    /// created (smoothed, so one perfect or hopeless early gold score cannot push the
    /// termination bounds to an extreme).
    fn running_mean(&self, cache: Option<&AccuracyCache>) -> f64 {
        self.local_registry
            .mean_accuracy()
            .or_else(|| match &self.config.accuracy_source {
                AccuracySource::Registry(r) => r.mean_accuracy(),
                AccuracySource::GoldSampling => None,
            })
            .or_else(|| cache.and_then(|c| c.shared().mean_accuracy()))
            .unwrap_or(self.config.default_worker_accuracy)
    }

    /// Redeem the collector into a [`ClockedOutcome`] at simulated time `completed_at`,
    /// with the platform's [`CancelReceipt`] when the batch was cancelled mid-flight.
    pub fn finalize(
        mut self,
        completed_at: f64,
        cancel: Option<CancelReceipt>,
        cache: Option<&AccuracyCache>,
    ) -> Result<ClockedOutcome> {
        let (registry, estimated_mean) = self.final_registry(cache);
        let mut answers = std::mem::take(&mut self.votes);
        let mut verdicts = Vec::with_capacity(self.questions.len());
        for question in &self.questions {
            // Publishing rejects a batch that repeats a question id, so each question's
            // answers are taken exactly once.
            let votes = answers.remove(&question.id).unwrap_or_default();
            let (verdict, answers_used) = if self.online() {
                self.online_verdict(question)?
            } else {
                self.offline_verdict(question, &votes, &registry)?
            };
            // Reasons: keywords from the workers (among the consumed prefix) whose vote
            // matches the accepted answer, moved out of their answers.
            let reasons = match verdict.label() {
                Some(accepted) => votes
                    .into_iter()
                    .take(answers_used)
                    .filter(|a| &a.label == accepted)
                    .flat_map(|a| a.keywords)
                    .collect(),
                None => Vec::new(),
            };
            verdicts.push(QuestionVerdict {
                question: question.id,
                verdict,
                answers_used,
                is_gold: question.is_gold,
                reasons,
            });
        }
        let any_real_accepted = verdicts
            .iter()
            .any(|v| !v.is_gold && v.verdict.is_accepted());

        // The engine-side price of a clocked batch is exactly what the platform charged
        // for its polls (accumulated via `record_charge`), never a re-pricing — so the
        // accounting agrees with `platform.total_cost()` even when the engine's own cost
        // model differs from the platform's.
        let cost = self.charged;

        let receipt = cancel.unwrap_or_default();
        let first_verdict_at = self
            .first_verdict_at
            .or_else(|| any_real_accepted.then_some(completed_at));
        Ok(ClockedOutcome {
            outcome: HitOutcome {
                hit: self.hit,
                verdicts,
                workers_assigned: self.workers_assigned,
                estimated_mean_accuracy: estimated_mean,
                registry,
                cost,
            },
            published_at: self.published_at,
            completed_at: completed_at.max(self.published_at),
            first_verdict_at,
            cancelled: receipt.cancelled_anything(),
            answers_delivered: self.answers_delivered,
            answers_cancelled: receipt.answers_cancelled,
            workers_cancelled: receipt.workers_cancelled,
            reclaimed_minutes: receipt.reclaimed_minutes,
        })
    }

    /// The verdict of one question under the online path and the answers it consumed:
    /// the processor's final ranking, up to its termination point.
    fn online_verdict(&self, question: &CrowdQuestion) -> Result<(Verdict, usize)> {
        let Some(processor) = self.processors.get(&question.id) else {
            return Ok((Verdict::NoAnswer, 0));
        };
        let outcome = processor.current()?;
        let answers_used = processor
            .terminated_at()
            .unwrap_or_else(|| processor.answers_received());
        let verdict = match outcome.best {
            Some((label, confidence)) => Verdict::Accepted { label, confidence },
            None => Verdict::NoAnswer,
        };
        Ok((verdict, answers_used))
    }

    /// The verdict of one question under a strategy without an online termination
    /// signal: every delivered vote (in arrival order), weighted with `registry`.
    fn offline_verdict(
        &self,
        question: &CrowdQuestion,
        votes: &[WorkerAnswer],
        registry: &AccuracyRegistry,
    ) -> Result<(Verdict, usize)> {
        if votes.is_empty() {
            return Ok((Verdict::NoAnswer, 0));
        }
        let observation = Observation::from_votes(
            votes
                .iter()
                .map(|a| {
                    let accuracy = registry
                        .accuracy_of(a.worker)
                        .unwrap_or(self.config.default_worker_accuracy);
                    Vote::new(a.worker, a.label.clone(), accuracy)
                })
                .collect(),
        );
        let verdict = match self.config.verification {
            VerificationStrategy::HalfVoting => {
                HalfVoting::new(self.workers_assigned).decide(&observation)?
            }
            VerificationStrategy::MajorityVoting => MajorityVoting::new().decide(&observation)?,
            VerificationStrategy::Probabilistic => {
                let domain_size = self
                    .config
                    .domain_size
                    .unwrap_or_else(|| question.domain.size());
                ProbabilisticVerifier::with_domain_size(domain_size).decide(&observation)?
            }
        };
        Ok((verdict, votes.len()))
    }

    /// The registry and mean estimate verification runs with. The registry holds the
    /// estimates of this batch's answering workers only, the entries offline
    /// verification reads: from the fleet registry when sharing, else from the
    /// configured registry or the local gold estimates. The mean comes from the batch's
    /// gold answers; without them it is the mean of the whole fleet or configured
    /// registry, read in place.
    fn final_registry(&self, cache: Option<&AccuracyCache>) -> (AccuracyRegistry, Option<f64>) {
        let voters: BTreeSet<WorkerId> = self.votes.values().flatten().map(|a| a.worker).collect();
        let default = self.config.default_worker_accuracy;
        let local_mean = self.estimator.stats().ok().map(|s| s.mean);
        match (cache, &self.config.accuracy_source) {
            (Some(cache), _) => {
                let registry = cache.subset(voters).with_default_accuracy(default);
                let shared = cache.shared();
                // An empty fleet registry has no mean: fall back to the configured
                // default, as the mean of a registry holding only that default does.
                let mean = local_mean.or_else(|| {
                    if shared.is_empty() {
                        registry.default_accuracy()
                    } else {
                        shared.mean_accuracy()
                    }
                });
                (registry, mean)
            }
            (None, AccuracySource::Registry(r)) => (
                r.subset(voters).with_default_accuracy(default),
                r.mean_accuracy(),
            ),
            (None, AccuracySource::GoldSampling) => (
                self.local_registry
                    .subset(voters)
                    .with_default_accuracy(default),
                local_mean,
            ),
        }
    }
}

/// Split a poll's answers into per-worker submissions, preserving arrival order, by
/// moving each answer into its submission. A worker submits all their answers at one
/// completion time, so submissions are contiguous runs; the fold tolerates
/// interleavings anyway by appending to an existing run.
fn group_by_worker(answers: Vec<WorkerAnswer>) -> Vec<Vec<WorkerAnswer>> {
    let mut groups: Vec<Vec<WorkerAnswer>> = Vec::new();
    let mut index: BTreeMap<WorkerId, usize> = BTreeMap::new();
    for answer in answers {
        match index.get(&answer.worker).and_then(|&i| groups.get_mut(i)) {
            Some(group) => group.push(answer),
            None => {
                index.insert(answer.worker, groups.len());
                groups.push(vec![answer]);
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WorkerCountPolicy;
    use cdas_core::economics::CostModel;
    use cdas_core::online::TerminationStrategy;
    use cdas_core::types::AnswerDomain;
    use cdas_crowd::arrival::LatencyModel;
    use cdas_crowd::pool::{PoolConfig, WorkerPool};
    use cdas_crowd::SimulatedPlatform;

    fn question(id: u64, gold: bool) -> CrowdQuestion {
        let q = CrowdQuestion::new(
            QuestionId(id),
            AnswerDomain::from_strs(&["Positive", "Neutral", "Negative"]),
            Label::from("Positive"),
        );
        if gold {
            q.as_gold()
        } else {
            q
        }
    }

    fn batch(real: u64, gold: u64) -> Vec<CrowdQuestion> {
        let mut qs: Vec<CrowdQuestion> = (0..gold).map(|i| question(i, true)).collect();
        qs.extend((gold..gold + real).map(|i| question(i, false)));
        qs
    }

    fn platform(accuracy: f64, seed: u64) -> SimulatedPlatform {
        let pool = WorkerPool::generate(&PoolConfig {
            latency: LatencyModel::Exponential { mean: 5.0 },
            ..PoolConfig::clean(60, accuracy, seed)
        });
        SimulatedPlatform::new(pool, CostModel::default(), seed)
    }

    fn engine(termination: Option<TerminationStrategy>) -> CrowdsourcingEngine {
        CrowdsourcingEngine::new(EngineConfig {
            workers: WorkerCountPolicy::Fixed(9),
            verification: VerificationStrategy::Probabilistic,
            termination,
            domain_size: Some(3),
            ..EngineConfig::default()
        })
    }

    #[test]
    fn clocked_collection_without_termination_matches_end_of_time_verdicts() {
        // Same platform seed, same batch: the clocked path must reproduce the offline
        // verdicts exactly when no termination strategy is configured.
        let e = engine(None);
        let mut p = platform(0.8, 5);
        let ticket = e.publish_batch(&mut p, batch(10, 3)).unwrap();
        let end_of_time = e.collect_batch(&mut p, ticket).unwrap();

        let mut p = platform(0.8, 5);
        let mut clock = SimClock::new();
        let ticket = e.publish_batch(&mut p, batch(10, 3)).unwrap();
        let clocked = e.collect_batch_clocked(&mut p, ticket, &mut clock).unwrap();

        // Cost is the platform-ledger delta in both paths; the clocked path accumulates
        // it per poll, so allow float-summation noise before comparing the rest exactly.
        assert!((clocked.outcome.cost - end_of_time.cost).abs() < 1e-12);
        let mut normalized = clocked.outcome.clone();
        normalized.cost = end_of_time.cost;
        assert_eq!(
            normalized, end_of_time,
            "offline verdicts must be identical"
        );
        assert!(!clocked.cancelled);
        assert_eq!(clocked.answers_cancelled, 0);
        assert_eq!(clocked.reclaimed_minutes, 0.0);
        assert!(clocked.completed_at > 0.0, "time passed");
        assert_eq!(
            clock.now(),
            clocked.completed_at,
            "the clock ends at the batch's makespan"
        );
        assert_eq!(clocked.first_verdict_at, Some(clocked.completed_at));
    }

    #[test]
    fn clocked_termination_cancels_mid_flight_and_saves_money_and_minutes() {
        let online = engine(Some(TerminationStrategy::ExpMax));
        let offline = engine(None);

        let mut p_off = platform(0.9, 11);
        let ticket = offline.publish_batch(&mut p_off, batch(8, 4)).unwrap();
        let mut clock_off = SimClock::new();
        let baseline = offline
            .collect_batch_clocked(&mut p_off, ticket, &mut clock_off)
            .unwrap();

        let mut p_on = platform(0.9, 11);
        let ticket = online.publish_batch(&mut p_on, batch(8, 4)).unwrap();
        let mut clock_on = SimClock::new();
        let early = online
            .collect_batch_clocked(&mut p_on, ticket, &mut clock_on)
            .unwrap();

        assert!(early.cancelled, "a 0.9-accuracy crowd terminates early");
        assert!(early.answers_cancelled > 0);
        assert!(early.reclaimed_minutes > 0.0, "minutes were reclaimed");
        assert!(
            early.completed_at < baseline.completed_at,
            "termination finished at {} but the full batch ran to {}",
            early.completed_at,
            baseline.completed_at
        );
        assert!(early.outcome.cost < baseline.outcome.cost, "real savings");
        assert!(
            (early.outcome.cost - p_on.total_cost()).abs() < 1e-9,
            "engine cost equals platform cost under termination"
        );
        assert!(early.first_verdict_at.unwrap() <= early.completed_at);
        // Quality holds: most real questions still answered correctly.
        let correct = early
            .outcome
            .real_verdicts()
            .filter(|v| v.verdict.label().map(|l| l.as_str()) == Some("Positive"))
            .count();
        assert!(correct >= 6, "only {correct}/8 correct after termination");
    }

    #[test]
    fn clocked_cost_tracks_the_platform_ledger_not_the_engine_cost_model() {
        // The engine keeps its default cost model while the platform charges 5x. The
        // outcome must report what the platform ledger charged — the engine never
        // re-prices — so the accounting invariant holds even when the two models diverge.
        let e = engine(Some(TerminationStrategy::ExpMax));
        let pool = WorkerPool::generate(&PoolConfig {
            latency: LatencyModel::Exponential { mean: 5.0 },
            ..PoolConfig::clean(60, 0.9, 13)
        });
        let mut p = SimulatedPlatform::new(pool, CostModel::new(0.05, 0.0).unwrap(), 13);
        let mut clock = SimClock::new();
        let ticket = e.publish_batch(&mut p, batch(6, 2)).unwrap();
        let out = e.collect_batch_clocked(&mut p, ticket, &mut clock).unwrap();
        assert!(out.outcome.cost > 0.0);
        assert!(
            (out.outcome.cost - p.total_cost()).abs() < 1e-12,
            "engine reported {} but the platform charged {}",
            out.outcome.cost,
            p.total_cost()
        );
    }

    #[test]
    fn per_submission_sharing_does_not_inflate_sample_counts() {
        use cdas_core::sharing::SharedAccuracyRegistry;

        // Each worker answers the batch's gold questions exactly once; the shared
        // registry must record their estimate backed by exactly that many samples.
        // (Absorbing the whole local registry per submission used to re-pool every
        // earlier worker's samples on every arrival, inflating their fleet-wide weight.)
        let e = engine(None);
        let mut p = platform(0.8, 47);
        let cache = AccuracyCache::new(SharedAccuracyRegistry::new());
        let mut clock = SimClock::new();
        let gold = 4;
        let ticket = e.publish_batch(&mut p, batch(6, gold)).unwrap();
        e.drive_clocked(&mut p, ticket, &mut clock, Some(&cache))
            .unwrap();
        let snapshot = cache.shared().snapshot();
        assert!(!snapshot.is_empty());
        assert!(
            snapshot.iter().all(|(_, e)| e.samples == gold as usize),
            "sample counts must equal the gold questions each worker answered"
        );
    }

    #[test]
    fn clocked_collection_is_deterministic() {
        let run = || {
            let e = engine(Some(TerminationStrategy::ExpMax));
            let mut p = platform(0.85, 23);
            let mut clock = SimClock::new();
            let ticket = e.publish_batch(&mut p, batch(6, 2)).unwrap();
            e.collect_batch_clocked(&mut p, ticket, &mut clock).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clocked_cached_collection_shares_estimates_mid_flight() {
        use cdas_core::sharing::SharedAccuracyRegistry;

        let e = engine(None);
        let mut p = platform(0.8, 31);
        let cache = AccuracyCache::new(SharedAccuracyRegistry::new());
        let mut clock = SimClock::new();
        let ticket = e.publish_batch(&mut p, batch(6, 3)).unwrap();
        let out = e
            .drive_clocked(&mut p, ticket, &mut clock, Some(&cache))
            .unwrap();
        assert!(
            !cache.shared().is_empty(),
            "gold estimates reached the fleet registry during ingestion"
        );
        assert!(out.outcome.estimated_mean_accuracy.is_some());
        // A second, gold-free batch verifies entirely with estimates learned by the first.
        let ticket = e.publish_batch(&mut p, batch(6, 0)).unwrap();
        let out = e
            .drive_clocked(&mut p, ticket, &mut clock, Some(&cache))
            .unwrap();
        assert!(!out.outcome.registry.is_empty());
        assert!(out.outcome.registry.iter().all(|(_, e)| e.samples > 0));
    }

    #[test]
    fn a_gold_free_cached_batch_keeps_its_voters_and_the_fleet_mean() {
        use cdas_core::sharing::SharedAccuracyRegistry;

        let e = engine(None);
        let pool = WorkerPool::generate(&PoolConfig {
            latency: LatencyModel::Exponential { mean: 5.0 },
            ..PoolConfig::clean(20, 0.8, 3)
        });
        let mut p = SimulatedPlatform::new(pool, CostModel::default(), 3);
        let cache = AccuracyCache::new(SharedAccuracyRegistry::new());
        let mut clock = SimClock::new();

        // With nothing learned yet, a gold-free batch has no mean to fall back on but
        // the configured default.
        let ticket = e.publish_batch(&mut p, batch(4, 0)).unwrap();
        let out = e
            .drive_clocked(&mut p, ticket, &mut clock, Some(&cache))
            .unwrap();
        assert!(cache.shared().is_empty());
        assert!(out.outcome.registry.is_empty());
        assert_eq!(
            out.outcome.estimated_mean_accuracy,
            Some(e.config().default_worker_accuracy)
        );

        let ticket = e.publish_batch(&mut p, batch(6, 3)).unwrap();
        e.drive_clocked(&mut p, ticket, &mut clock, Some(&cache))
            .unwrap();

        let ticket = e.publish_batch(&mut p, batch(6, 0)).unwrap();
        let hit = ticket.hit;
        let mut collector = e.begin_clocked(ticket, clock.now());
        let answers = p.poll(hit, f64::INFINITY);
        collector
            .ingest(answers.clone(), clock.now(), Some(&cache))
            .unwrap();
        let out = collector
            .finalize(clock.now(), None, Some(&cache))
            .unwrap()
            .outcome;

        let voters: BTreeSet<WorkerId> = answers.iter().map(|a| a.worker).collect();
        let snapshot = cache.shared().snapshot();
        let bits = |(w, a): (&WorkerId, &cdas_core::accuracy::WorkerAccuracy)| {
            (*w, a.accuracy.to_bits(), a.log_odds.to_bits(), a.samples)
        };
        let expected: Vec<_> = snapshot
            .iter()
            .filter(|(w, _)| voters.contains(w))
            .map(bits)
            .collect();
        assert!(!expected.is_empty(), "some voters were estimated before");
        assert!(
            expected.len() < snapshot.len(),
            "some estimates are not voters'"
        );
        assert_eq!(out.registry.iter().map(bits).collect::<Vec<_>>(), expected);
        assert_eq!(
            out.estimated_mean_accuracy.map(f64::to_bits),
            snapshot.mean_accuracy().map(f64::to_bits)
        );
    }

    #[test]
    fn an_interleaved_poll_ingests_like_the_grouped_poll() {
        // One poll in which two workers' answers interleave ingests exactly like the
        // same answers grouped by worker, and each verdict's reasons are the keywords,
        // in arrival order, of the consumed voters who chose the accepted label.
        let e = engine(Some(TerminationStrategy::ExpMax));
        let collect = |order: fn(Vec<WorkerAnswer>) -> Vec<WorkerAnswer>| {
            let mut p = platform(0.75, 17);
            let ticket = e.publish_batch(&mut p, batch(6, 2)).unwrap();
            let hit = ticket.hit;
            let mut collector = e.begin_clocked(ticket, 0.0);
            let mut answers = p.poll(hit, f64::INFINITY);
            for a in &mut answers {
                a.keywords = vec![format!("{}-{}", a.worker, a.question), a.worker.to_string()];
            }
            collector.ingest(order(answers.clone()), 1.0, None).unwrap();
            (answers, collector.finalize(1.0, None, None).unwrap())
        };
        let (arrivals, grouped) = collect(|answers| answers);
        let (_, interleaved) = collect(|answers| {
            // Alternate the first two workers' submissions answer by answer.
            let run = |from: usize| {
                let worker = answers[from].worker;
                from + answers[from..]
                    .iter()
                    .take_while(|a| a.worker == worker)
                    .count()
            };
            let (first, second) = (run(0), run(run(0)));
            assert!(
                first > 1 && second - first > 1,
                "two multi-answer submissions"
            );
            let mut mixed = Vec::with_capacity(answers.len());
            for (a, b) in answers[..first].iter().zip(&answers[first..second]) {
                mixed.push(a.clone());
                mixed.push(b.clone());
            }
            mixed.extend_from_slice(&answers[second..]);
            assert_eq!(mixed.len(), answers.len());
            mixed
        });
        assert_eq!(interleaved, grouped);

        let mut cut_short = false;
        let mut with_reasons = 0;
        for v in &grouped.outcome.verdicts {
            let delivered: Vec<&WorkerAnswer> = arrivals
                .iter()
                .filter(|a| a.question == v.question)
                .collect();
            cut_short |= v.answers_used < delivered.len();
            let expected: Vec<String> = match v.verdict.label() {
                Some(accepted) => delivered
                    .iter()
                    .take(v.answers_used)
                    .filter(|a| &a.label == accepted)
                    .flat_map(|a| a.keywords.iter().cloned())
                    .collect(),
                None => Vec::new(),
            };
            assert_eq!(v.reasons, expected, "question {}", v.question);
            with_reasons += usize::from(!v.reasons.is_empty());
        }
        assert!(
            cut_short,
            "termination left some delivered answers unconsumed"
        );
        assert!(with_reasons > 0);
    }

    #[test]
    fn group_by_worker_preserves_order_and_merges_runs() {
        let mk = |w: u64, q: u64| WorkerAnswer {
            hit: HitId(0),
            worker: WorkerId(w),
            question: QuestionId(q),
            label: Label::from("a"),
            keywords: Vec::new(),
            arrived_at: w as f64,
            approval_rate: 1.0,
        };
        let groups = group_by_worker(vec![mk(1, 0), mk(1, 1), mk(2, 0), mk(1, 2), mk(2, 1)]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].len(), 3, "worker 1's answers merge into one run");
        assert_eq!(groups[1].len(), 2);
        assert!(group_by_worker(Vec::new()).is_empty());
    }
}
