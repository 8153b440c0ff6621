//! Integration test: the contract between the crowdsourcing engine and the crowd platform —
//! assignment counts, answer delivery, cancellation, and cost accounting.

use std::collections::BTreeMap;

use cdas::core::online::TerminationStrategy;
use cdas::core::types::{AnswerDomain, HitId, Label, QuestionId};
use cdas::crowd::hit::HitRequest;
use cdas::crowd::platform::WorkerAnswer;
use cdas::crowd::question::CrowdQuestion;
use cdas::engine::engine::AccuracySource;
use cdas::fixtures::demo_questions;
use cdas::prelude::*;

fn questions(count: u64) -> Vec<CrowdQuestion> {
    (0..count)
        .map(|i| {
            CrowdQuestion::new(
                QuestionId(i),
                AnswerDomain::from_strs(&["Positive", "Neutral", "Negative"]),
                Label::from("Positive"),
            )
        })
        .collect()
}

fn platform(accuracy: f64, seed: u64) -> SimulatedPlatform {
    let pool = WorkerPool::generate(&PoolConfig::clean(100, accuracy, seed));
    SimulatedPlatform::new(pool, CostModel::default(), seed)
}

#[test]
fn platform_delivers_exactly_assignments_times_questions() {
    let mut p = platform(0.8, 1);
    let request = HitRequest::new(questions(6), 7, 0.01);
    let (_, answers) = p.publish_and_collect(request);
    assert_eq!(answers.len(), 42);
    // Every question gets exactly 7 answers, one per assigned worker.
    for q in 0..6u64 {
        let votes: Vec<_> = answers
            .iter()
            .filter(|a| a.question == QuestionId(q))
            .collect();
        assert_eq!(votes.len(), 7);
        let mut workers: Vec<u64> = votes.iter().map(|a| a.worker.0).collect();
        workers.sort_unstable();
        workers.dedup();
        assert_eq!(workers.len(), 7, "each worker answers a question once");
    }
}

#[test]
fn engine_cost_always_equals_platform_cost_and_clocked_termination_saves() {
    let offline_engine = CrowdsourcingEngine::new(EngineConfig {
        workers: WorkerCountPolicy::Fixed(15),
        verification: VerificationStrategy::Probabilistic,
        termination: None,
        domain_size: Some(3),
        ..EngineConfig::default()
    });
    let online_engine = CrowdsourcingEngine::new(EngineConfig {
        workers: WorkerCountPolicy::Fixed(15),
        verification: VerificationStrategy::Probabilistic,
        termination: Some(TerminationStrategy::ExpMax),
        domain_size: Some(3),
        ..EngineConfig::default()
    });

    // End-of-time collection polls every answer before verifying, so both modes pay the
    // full price — and, contract: `HitOutcome::cost` is exactly what the platform charged.
    // (The engine used to re-price terminated HITs at the consumed fraction, which made
    // its accounting diverge from `platform.total_cost()`.)
    let mut p_offline = platform(0.85, 3);
    let offline = offline_engine
        .run_hit(&mut p_offline, questions(10))
        .unwrap();
    let mut p_online = platform(0.85, 3);
    let online = online_engine.run_hit(&mut p_online, questions(10)).unwrap();
    let full_price = CostModel::default().hit_cost(15);
    assert!((offline.cost - full_price).abs() < 1e-9);
    assert!((offline.cost - p_offline.total_cost()).abs() < 1e-9);
    assert!((online.cost - full_price).abs() < 1e-9);
    assert!((online.cost - p_online.total_cost()).abs() < 1e-9);
    assert!(online.mean_answers_used() < 15.0, "termination still fired");

    // Real savings need real time: the clocked path polls up to the termination instant
    // and cancels mid-flight, so undelivered assignments are never charged. Workers must
    // finish asynchronously for that to matter (a constant-latency pool delivers every
    // answer in one event).
    let pool = WorkerPool::generate(&PoolConfig {
        latency: LatencyModel::Exponential { mean: 5.0 },
        ..PoolConfig::clean(100, 0.85, 3)
    });
    let mut p_clocked = SimulatedPlatform::new(pool, CostModel::default(), 3);
    let mut clock = cdas::crowd::clock::SimClock::new();
    let ticket = online_engine
        .publish_batch(&mut p_clocked, questions(10))
        .unwrap();
    let clocked = online_engine
        .collect_batch_clocked(&mut p_clocked, ticket, &mut clock)
        .unwrap();
    assert!(clocked.cancelled, "the HIT was cancelled mid-flight");
    assert!(
        clocked.outcome.cost < full_price,
        "early termination must save money when collection is clocked"
    );
    assert!((clocked.outcome.cost - p_clocked.total_cost()).abs() < 1e-9);
    assert!(clocked.reclaimed_minutes > 0.0);
}

#[test]
fn oracle_registry_and_gold_sampling_agree_on_clean_pools() {
    // With a uniform-accuracy pool, sampling-based estimation and the oracle registry lead
    // to the same verdicts on easy questions.
    let pool = WorkerPool::generate(&PoolConfig::clean(100, 0.85, 13));
    let reference = &questions(1)[0];
    let oracle = pool.oracle_registry(reference);

    let gold_engine = CrowdsourcingEngine::new(EngineConfig {
        workers: WorkerCountPolicy::Fixed(9),
        accuracy_source: AccuracySource::GoldSampling,
        domain_size: Some(3),
        ..EngineConfig::default()
    });
    let oracle_engine = CrowdsourcingEngine::new(EngineConfig {
        workers: WorkerCountPolicy::Fixed(9),
        accuracy_source: AccuracySource::Registry(oracle),
        domain_size: Some(3),
        ..EngineConfig::default()
    });

    // Mark a fifth of the questions gold for the sampling path.
    let mut qs = questions(25);
    for (i, q) in qs.iter_mut().enumerate() {
        if i % 5 == 0 {
            *q = q.clone().as_gold();
        }
    }
    let a = gold_engine
        .run_hit(
            &mut SimulatedPlatform::new(pool.clone(), CostModel::default(), 21),
            qs.clone(),
        )
        .unwrap();
    let b = oracle_engine
        .run_hit(
            &mut SimulatedPlatform::new(pool.clone(), CostModel::default(), 21),
            qs,
        )
        .unwrap();
    let labels = |o: &cdas::engine::HitOutcome| {
        o.real_verdicts()
            .map(|v| v.verdict.label().map(|l| l.as_str().to_string()))
            .collect::<Vec<_>>()
    };
    // Same platform seed ⇒ same raw answers; the two accuracy sources must agree on nearly
    // every verdict for a homogeneous pool.
    let same = labels(&a)
        .iter()
        .zip(labels(&b).iter())
        .filter(|(x, y)| x == y)
        .count();
    assert!(same >= 18, "only {same}/20 verdicts agree");
}

#[test]
fn privacy_manager_blocks_workers_and_masks_terms() {
    use cdas::core::types::WorkerId;
    use cdas::engine::privacy::PrivacyManager;
    let privacy = PrivacyManager::permissive()
        .redact_term("Acme Corp")
        .block_worker(WorkerId(2));
    assert!(!privacy.allows_worker(WorkerId(2)));
    assert!(privacy.allows_worker(WorkerId(3)));
    let masked = privacy.sanitize("Acme Corp quarterly report");
    assert!(!masked.contains("Acme Corp"));
}

/// Counts the polls and cancels each HIT receives.
struct Counting {
    inner: SimulatedPlatform,
    polls: BTreeMap<HitId, usize>,
    cancels: BTreeMap<HitId, usize>,
}

impl CrowdPlatform for Counting {
    fn publish(&mut self, request: HitRequest) -> HitId {
        self.inner.publish(request)
    }
    fn publish_to(
        &mut self,
        request: HitRequest,
        workers: &[cdas::core::types::WorkerId],
    ) -> HitId {
        self.inner.publish_to(request, workers)
    }
    fn advance_time(&mut self, now: f64) {
        self.inner.advance_time(now);
    }
    fn poll(&mut self, hit: HitId, now: f64) -> Vec<WorkerAnswer> {
        *self.polls.entry(hit).or_default() += 1;
        self.inner.poll(hit, now)
    }
    fn next_arrival(&self, hit: HitId) -> Option<f64> {
        self.inner.next_arrival(hit)
    }
    fn cancel(&mut self, hit: HitId, now: f64) -> CancelReceipt {
        *self.cancels.entry(hit).or_default() += 1;
        self.inner.cancel(hit, now)
    }
    fn total_cost(&self) -> f64 {
        self.inner.total_cost()
    }
}

/// A crowd whose workers finish at different times, so a platform with look-ahead
/// would deliver each HIT over several events.
fn staggered(pool_size: usize, accuracy: f64, seed: u64) -> (Counting, PoolLedger) {
    let pool = WorkerPool::generate(&PoolConfig {
        latency: LatencyModel::Exponential { mean: 5.0 },
        ..PoolConfig::clean(pool_size, accuracy, seed)
    });
    let ledger = PoolLedger::from_pool(&pool);
    let platform = Counting {
        inner: SimulatedPlatform::new(pool, CostModel::default(), seed),
        polls: BTreeMap::new(),
        cancels: BTreeMap::new(),
    };
    (platform, ledger)
}

#[test]
fn end_of_time_run_polls_each_hit_once_and_never_moves_the_clock() {
    let (mut platform, ledger) = staggered(16, 0.85, 5);
    let mut scheduler = JobScheduler::new(SchedulerConfig::default(), ledger);
    for (i, termination) in [None, Some(TerminationStrategy::ExpMax)]
        .into_iter()
        .enumerate()
    {
        scheduler.submit(
            ScheduledJob::named(
                JobKind::SentimentAnalytics,
                format!("job-{i}"),
                demo_questions(9, 3),
            )
            .with_engine(EngineConfig {
                workers: WorkerCountPolicy::Fixed(7),
                termination,
                domain_size: Some(3),
                ..EngineConfig::default()
            })
            .with_batch_size(4),
        );
    }
    let report = scheduler.run(&mut platform).unwrap();

    assert_eq!(report.fleet.questions, 18);
    assert!(report.dispatches.len() > 2);
    for dispatch in &report.dispatches {
        assert_eq!(
            platform.polls.get(&dispatch.hit),
            Some(&1),
            "HIT {:?} must be polled exactly once",
            dispatch.hit
        );
        assert_eq!(dispatch.at, 0.0);
    }
    assert_eq!(platform.polls.len(), report.dispatches.len());
    assert_eq!(report.makespan, 0.0);
    for job in &report.jobs {
        assert_eq!(job.completed_at, 0.0);
        assert_eq!(job.reclaimed_minutes, 0.0);
    }
    assert!((report.fleet.cost - platform.total_cost()).abs() < 1e-9);
}

#[test]
fn collect_batch_cancels_an_early_terminated_hit_exactly_once() {
    let engine = CrowdsourcingEngine::new(EngineConfig {
        workers: WorkerCountPolicy::Fixed(15),
        verification: VerificationStrategy::Probabilistic,
        termination: Some(TerminationStrategy::ExpMax),
        domain_size: Some(3),
        ..EngineConfig::default()
    });
    let (mut platform, _) = staggered(60, 0.9, 7);
    let ticket = engine.publish_batch(&mut platform, questions(8)).unwrap();
    let hit = ticket.hit;
    let outcome = engine.collect_batch(&mut platform, ticket).unwrap();

    assert!(
        outcome.verdicts.iter().all(|v| v.answers_used < 15),
        "every question terminated before its last answer"
    );
    assert_eq!(platform.polls.get(&hit), Some(&1), "one end-of-time poll");
    assert_eq!(
        platform.cancels.get(&hit),
        Some(&1),
        "the terminated HIT is cancelled exactly once"
    );
    assert!((outcome.cost - platform.total_cost()).abs() < 1e-9);
}
