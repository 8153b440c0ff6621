//! Integration tests for the fleet facade (the "front door"): builder misuse comes back
//! as typed errors, and — the headline contract — a facade run is *exactly* the
//! hand-wired scheduler run it replaces, for every execution mode, asserted via
//! `FleetReport::ignoring_wall_clock()`. A proptest drives randomized builder chains
//! through both paths.

use cdas::core::CdasError;
use cdas::crowd::distribution::AccuracyDistribution;
use cdas::fixtures::demo_questions;
use cdas::prelude::*;
use proptest::prelude::*;

const SEED: u64 = 77;

fn crowd(size: usize, accuracy: f64) -> CrowdSpec {
    CrowdSpec::clean(size, accuracy)
        .seed(SEED)
        .latency(LatencyModel::Exponential { mean: 5.0 })
}

/// The hand-wired twin of `crowd(..)` + a set of `(name, questions, workers, batch)`
/// jobs: exactly the five-struct wiring PR 2–4 callers used.
fn hand_wired(
    size: usize,
    accuracy: f64,
    jobs: &[(String, u64, u64, usize, usize)],
) -> (SimulatedPlatform, JobScheduler) {
    let pool = WorkerPool::generate(&PoolConfig {
        latency: LatencyModel::Exponential { mean: 5.0 },
        ..PoolConfig::clean(size, accuracy, SEED)
    });
    let platform = SimulatedPlatform::new(pool.clone(), CostModel::default(), SEED);
    let mut scheduler = JobScheduler::new(SchedulerConfig::default(), PoolLedger::from_pool(&pool));
    for (name, real, gold, workers, batch) in jobs {
        let mut engine = EngineConfig::for_job(0.9, 3);
        engine.workers = WorkerCountPolicy::Fixed(*workers);
        scheduler.submit(
            ScheduledJob::named(
                JobKind::SentimentAnalytics,
                name.clone(),
                demo_questions(*real, *gold),
            )
            .with_engine(engine)
            .with_batch_size(*batch),
        );
    }
    (platform, scheduler)
}

fn facade(size: usize, accuracy: f64, jobs: &[(String, u64, u64, usize, usize)]) -> Fleet {
    let mut fleet = Fleet::builder()
        .crowd(crowd(size, accuracy))
        .build()
        .unwrap();
    for (name, real, gold, workers, batch) in jobs {
        fleet
            .submit(
                JobSpec::sentiment(name.clone(), demo_questions(*real, *gold))
                    .workers(*workers)
                    .domain_size(3)
                    .batch_size(*batch),
            )
            .unwrap();
    }
    fleet
}

fn demo_jobs() -> Vec<(String, u64, u64, usize, usize)> {
    vec![
        ("alpha".to_string(), 10, 3, 7, 5),
        ("beta".to_string(), 8, 2, 5, 4),
        ("gamma".to_string(), 6, 2, 7, 6),
    ]
}

#[test]
fn facade_clocked_equals_hand_wired_run_clocked() {
    // The acceptance contract: one fleet, built through the front door, must reproduce
    // the direct `JobScheduler::run_clocked` report byte for byte.
    let jobs = demo_jobs();
    let run = facade(20, 0.85, &jobs).run(ExecutionMode::Clocked).unwrap();
    let (mut platform, mut scheduler) = hand_wired(20, 0.85, &jobs);
    let direct = scheduler.run_clocked(&mut platform).unwrap();
    assert_eq!(
        run.report().ignoring_wall_clock(),
        direct.ignoring_wall_clock(),
        "facade Clocked != hand-wired run_clocked"
    );
    assert!((run.platform_cost() - platform.total_cost()).abs() < 1e-12);
}

#[test]
fn facade_end_of_time_equals_hand_wired_run() {
    let jobs = demo_jobs();
    let run = facade(20, 0.85, &jobs)
        .run(ExecutionMode::EndOfTime)
        .unwrap();
    let (mut platform, mut scheduler) = hand_wired(20, 0.85, &jobs);
    let direct = scheduler.run(&mut platform).unwrap();
    assert_eq!(
        run.report().ignoring_wall_clock(),
        direct.ignoring_wall_clock(),
        "facade EndOfTime != hand-wired run"
    );
}

#[test]
fn facade_parallel_equals_hand_wired_run_parallel() {
    let jobs = demo_jobs();
    let run = facade(20, 0.85, &jobs)
        .run(ExecutionMode::Parallel { shards: 2 })
        .unwrap();
    let pool = WorkerPool::generate(&PoolConfig {
        latency: LatencyModel::Exponential { mean: 5.0 },
        ..PoolConfig::clean(20, 0.85, SEED)
    });
    let mut platform = ShardedPlatform::split(&pool, CostModel::default(), SEED, 2);
    let (_, mut scheduler) = hand_wired(20, 0.85, &jobs);
    let direct = scheduler.run_parallel(&mut platform).unwrap();
    assert_eq!(
        run.report().ignoring_wall_clock(),
        direct.ignoring_wall_clock(),
        "facade Parallel != hand-wired run_parallel"
    );
}

#[test]
fn builder_misuse_returns_typed_errors_not_panics() {
    // Empty fleet.
    match Fleet::builder().crowd(CrowdSpec::clean(0, 0.8)).build() {
        Err(CdasError::EmptyFleet) => {}
        other => panic!("empty crowd: expected EmptyFleet, got {other:?}"),
    }
    // shards == 0 and shards > pool size.
    for shards in [0usize, 21] {
        match Fleet::builder()
            .crowd(crowd(20, 0.8))
            .shards(shards)
            .build()
        {
            Err(CdasError::InvalidShardCount { shards: s, workers }) => {
                assert_eq!((s, workers), (shards, 20));
            }
            other => panic!("shards {shards}: expected InvalidShardCount, got {other:?}"),
        }
    }
    let mut fleet = Fleet::builder().crowd(crowd(20, 0.8)).build().unwrap();
    // Job with zero questions.
    match fleet.submit(JobSpec::sentiment("none", Vec::new())) {
        Err(CdasError::EmptyJob { name }) => assert_eq!(name, "none"),
        other => panic!("expected EmptyJob, got {other:?}"),
    }
    // Batch size 0.
    match fleet.submit(JobSpec::sentiment("b", demo_questions(4, 1)).batch_size(0)) {
        Err(CdasError::NonPositive { what: "batch size" }) => {}
        other => panic!("expected NonPositive batch size, got {other:?}"),
    }
    // Zero workers.
    match fleet.submit(JobSpec::sentiment("w", demo_questions(4, 1)).workers(0)) {
        Err(CdasError::NonPositive {
            what: "worker count",
        }) => {}
        other => panic!("expected NonPositive worker count, got {other:?}"),
    }
    // Nothing slipped through.
    assert_eq!(fleet.job_count(), 0);
    // And the builder equivalents of the same misuses fail at build() too.
    match Fleet::builder()
        .crowd(crowd(20, 0.8))
        .job(JobSpec::sentiment("none", Vec::new()))
        .build()
    {
        Err(CdasError::EmptyJob { .. }) => {}
        other => panic!("expected EmptyJob from build(), got {other:?}"),
    }
    // Crowds the simulator cannot sample fail at build(), not inside a sampler mid-run
    // (and a NaN accuracy does not quietly report 0.000).
    let clean = || CrowdSpec::clean(16, 0.8);
    let unsamplable = [
        (
            "crowd.latency",
            clean().latency(LatencyModel::Uniform { lo: 10.0, hi: 1.0 }),
        ),
        (
            "crowd.latency",
            clean().latency(LatencyModel::Uniform {
                lo: f64::NAN,
                hi: 1.0,
            }),
        ),
        (
            "crowd.accuracy",
            clean().accuracy(AccuracyDistribution::Uniform { lo: 0.9, hi: 0.6 }),
        ),
        (
            "crowd.accuracy",
            clean().accuracy(AccuracyDistribution::Beta {
                alpha: 0.0,
                beta: 2.0,
            }),
        ),
        (
            "crowd.accuracy",
            clean().accuracy(AccuracyDistribution::Empirical {
                bins: vec![(0.9, 0.6, 1.0)],
            }),
        ),
        ("crowd.accuracy", CrowdSpec::clean(16, f64::NAN)),
        (
            "crowd.accuracy",
            clean().accuracy(AccuracyDistribution::Empirical {
                bins: vec![(0.5, 0.6, 1.0), (0.7, 0.8, f64::INFINITY)],
            }),
        ),
        (
            "crowd.cost_model",
            clean().cost_model(CostModel {
                worker_fee: f64::NAN,
                platform_fee: 0.0,
            }),
        ),
    ];
    for (expected, spec) in unsamplable {
        match Fleet::builder()
            .crowd(spec.clone())
            .job(JobSpec::sentiment("j", demo_questions(4, 1)).workers(3))
            .build()
        {
            Err(CdasError::InvalidConfig { field, .. }) => assert_eq!(field, expected),
            other => panic!("{spec:?}: expected InvalidConfig, got {other:?}"),
        }
    }
}

#[test]
fn unsamplable_crowds_are_refused_by_the_service_and_by_recovery() {
    let bad = CrowdSpec::clean(16, 0.8).latency(LatencyModel::Uniform { lo: 10.0, hi: 1.0 });
    let root = std::env::temp_dir().join(format!("cdas-facade-bad-crowd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // The service checks its crowd before it creates its directory.
    let service_dir = root.join("service");
    match FleetService::open(&service_dir, ServiceConfig::new(bad.clone())).err() {
        Some(CdasError::InvalidConfig { field, .. }) => assert_eq!(field, "crowd.latency"),
        other => panic!("expected InvalidConfig from FleetService::open, got {other:?}"),
    }
    assert!(!service_dir.exists(), "open touched the directory");

    // A journal written by hand: a RunStarted head with the bad crowd and one job.
    let run_dir = root.join("run");
    let mut config = Fleet::builder()
        .crowd(crowd(16, 0.8))
        .job(JobSpec::sentiment("j", demo_questions(4, 1)).workers(3))
        .build()
        .unwrap()
        .run_config(ExecutionMode::Clocked)
        .unwrap();
    config.crowd = bad;
    let mut journal = Journal::create(&run_dir, JournalConfig::default()).unwrap();
    journal.append(&JournalRecord::RunStarted(config)).unwrap();
    journal.sync().unwrap();
    drop(journal);
    match Fleet::recover(&run_dir).err() {
        Some(CdasError::InvalidConfig { field, .. }) => assert_eq!(field, "crowd.latency"),
        other => panic!("expected InvalidConfig from Fleet::recover, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn streamed_verdicts_match_the_report() {
    let jobs = demo_jobs();
    let fleet = facade(20, 0.85, &jobs);
    let run = fleet.run(ExecutionMode::Clocked).unwrap();
    let report = run.report();
    // One streamed verdict per real question; accepted count consistent with accuracy
    // accounting (accuracy_over_answered * answered == correct <= accepted).
    assert_eq!(run.verdicts().count(), report.fleet.questions);
    let accepted = run.verdicts().filter(|(_, _, v)| v.is_accepted()).count();
    let expected_accepted =
        ((1.0 - report.fleet.no_answer_ratio) * report.fleet.questions as f64).round() as usize;
    assert_eq!(accepted, expected_accepted);
    // Events cover every dispatch in the report's timeline, in time order.
    let dispatched: Vec<_> = run
        .events()
        .iter()
        .filter(|e| matches!(e, FleetEvent::HitDispatched { .. }))
        .collect();
    assert_eq!(dispatched.len(), report.dispatches.len());
    assert!(run.events().windows(2).all(|w| w[0].at() <= w[1].at()));
}

proptest! {
    /// Any valid builder chain produces a fleet whose report matches the equivalent
    /// hand-wired scheduler run — the facade adds configuration surface, never behavior.
    #[test]
    fn any_valid_builder_chain_matches_the_hand_wired_run(
        pool_size in 8usize..20,
        job_count in 1usize..4,
        real in 3u64..8,
        gold in 1u64..3,
        workers in 3usize..8,
        batch in 3usize..8,
        clocked_coin in 0usize..2,
    ) {
        prop_assume!(workers <= pool_size);
        let clocked = clocked_coin == 1;
        let jobs: Vec<(String, u64, u64, usize, usize)> = (0..job_count)
            .map(|i| (format!("job-{i}"), real, gold, workers, batch))
            .collect();
        let mode = if clocked { ExecutionMode::Clocked } else { ExecutionMode::EndOfTime };
        let run = facade(pool_size, 0.85, &jobs).run(mode).unwrap();
        let (mut platform, mut scheduler) = hand_wired(pool_size, 0.85, &jobs);
        let direct = if clocked {
            scheduler.run_clocked(&mut platform).unwrap()
        } else {
            scheduler.run(&mut platform).unwrap()
        };
        prop_assert_eq!(
            run.report().ignoring_wall_clock(),
            direct.ignoring_wall_clock()
        );
    }
}
