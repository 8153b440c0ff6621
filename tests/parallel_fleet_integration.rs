//! Integration tests for the parallel fleet: `JobScheduler::run_parallel` across OS
//! threads over a `ShardedPlatform`, against two ground truths —
//!
//! 1. the **sequential special case**: a 1-shard parallel run must be byte-identical to
//!    `run_clocked` (the acceptance regression of the parallel refactor), and
//! 2. **interleaving independence**: an N-shard parallel run must produce the same
//!    accuracy estimates and per-job metrics as running the same N shard schedules one
//!    after another on a single thread over one registry — each shard thread runs over
//!    its own registry copy and the copies merge back after the join, so thread timing
//!    cannot change what the fleet learned.

use cdas::core::economics::CostModel;
use cdas::core::online::TerminationStrategy;

use cdas::engine::engine::AccuracySource;
use cdas::engine::job_manager::JobKind;
use cdas::fixtures::demo_questions;
use cdas::prelude::*;

const SEED: u64 = 2024;

fn pool(size: usize) -> WorkerPool {
    WorkerPool::generate(&PoolConfig {
        latency: LatencyModel::Exponential { mean: 5.0 },
        ..PoolConfig::clean(size, 0.85, SEED)
    })
}

fn engine(termination: Option<TerminationStrategy>) -> EngineConfig {
    EngineConfig {
        workers: WorkerCountPolicy::Fixed(7),
        verification: VerificationStrategy::Probabilistic,
        termination,
        domain_size: Some(3),
        ..EngineConfig::default()
    }
}

fn submit_fleet(
    scheduler: &mut JobScheduler,
    jobs: usize,
    termination: Option<TerminationStrategy>,
) {
    for i in 0..jobs {
        scheduler.submit(
            ScheduledJob::named(
                JobKind::SentimentAnalytics,
                format!("job-{i}"),
                demo_questions(10, 3),
            )
            .with_engine(engine(termination))
            .with_batch_size(5),
        );
    }
}

#[test]
fn one_shard_parallel_run_equals_run_clocked_with_termination() {
    // The acceptance regression, on the hardest configuration: early termination fires,
    // HITs are cancelled mid-flight, leases hand over between jobs — and the 1-shard
    // parallel run still reproduces the sequential report byte for byte (wall-clock
    // timings aside, the one nondeterministic field).
    let termination = Some(TerminationStrategy::ExpMax);

    let mut platform = SimulatedPlatform::new(pool(12), CostModel::default(), SEED);
    let mut sequential =
        JobScheduler::new(SchedulerConfig::default(), PoolLedger::from_pool(&pool(12)));
    submit_fleet(&mut sequential, 3, termination);
    let clocked = sequential.run_clocked(&mut platform).unwrap();

    let mut sharded = ShardedPlatform::split(&pool(12), CostModel::default(), SEED, 1);
    let mut parallel =
        JobScheduler::new(SchedulerConfig::default(), PoolLedger::from_pool(&pool(12)));
    submit_fleet(&mut parallel, 3, termination);
    let par = parallel.run_parallel(&mut sharded).unwrap();

    assert_eq!(clocked.ignoring_wall_clock(), par.ignoring_wall_clock());
    // The run really exercised the clocked machinery, not a degenerate path.
    assert!(par.reclaimed_minutes > 0.0, "termination reclaimed minutes");
    assert!(par.makespan > 0.0);
    assert_eq!(par.shards.len(), 1);
    // And the engine-side accounting still equals the platform ledger, shard-summed.
    assert!((par.fleet.cost - sharded.total_cost()).abs() < 1e-9);
    assert!((clocked.fleet.cost - platform.total_cost()).abs() < 1e-9);

    // The facade runs the identical fleet through `ExecutionMode`: both of the above are
    // reproduced by one `Fleet` without any of this file's hand-wiring.
    let mut fleet = Fleet::builder()
        .crowd(
            CrowdSpec::clean(12, 0.85)
                .seed(SEED)
                .latency(LatencyModel::Exponential { mean: 5.0 }),
        )
        .build()
        .unwrap();
    for i in 0..3 {
        fleet
            .submit(
                JobSpec::sentiment(format!("job-{i}"), demo_questions(10, 3))
                    .workers(7)
                    .domain_size(3)
                    .termination(TerminationStrategy::ExpMax)
                    .batch_size(5),
            )
            .unwrap();
    }
    let facade_clocked = fleet.run(ExecutionMode::Clocked).unwrap();
    let facade_parallel = fleet.run(ExecutionMode::Parallel { shards: 1 }).unwrap();
    assert_eq!(
        facade_clocked.report().ignoring_wall_clock(),
        clocked.ignoring_wall_clock(),
        "facade Clocked != hand-wired run_clocked"
    );
    assert_eq!(
        facade_parallel.report().ignoring_wall_clock(),
        par.ignoring_wall_clock(),
        "facade 1-shard Parallel != hand-wired run_parallel"
    );
}

/// Run the same sharded fleet, its jobs weighting votes with `source`, either in
/// parallel (`run_parallel`) or as the equivalent sequence of per-shard clocked runs on
/// one thread, returning the job accuracy reports and the final shared-registry
/// estimates.
fn run_fleet(
    shards: usize,
    parallel: bool,
    source: &AccuracySource,
) -> (Vec<JobReport>, Vec<(u64, f64, usize)>) {
    const JOBS: usize = 8;
    let whole = pool(8 * shards);
    let job = |j: usize| {
        ScheduledJob::named(
            JobKind::SentimentAnalytics,
            format!("job-{j}"),
            demo_questions(10, 6),
        )
        .with_engine(EngineConfig {
            accuracy_source: source.clone(),
            ..engine(None)
        })
        .with_batch_size(5)
    };

    if parallel {
        let mut platform = ShardedPlatform::split(&whole, CostModel::default(), SEED, shards);
        let mut scheduler =
            JobScheduler::new(SchedulerConfig::default(), PoolLedger::from_pool(&whole));
        for j in 0..JOBS {
            scheduler.submit(job(j));
        }
        let report = scheduler.run_parallel(&mut platform).unwrap();
        let registry = scheduler
            .shared_registry()
            .snapshot()
            .iter()
            .map(|(w, e)| (w.0, e.accuracy, e.samples))
            .collect();
        (report.jobs, registry)
    } else {
        // The sequential ground truth: the exact shard decomposition run_parallel uses —
        // same platform shards, same per-shard seeds, same job striping, same shared
        // registry — but each shard's event loop runs to completion before the next
        // shard starts. Any difference to the parallel run could only come from thread
        // interleaving; there must be none.
        let shared = SharedAccuracyRegistry::new();
        let mut sharded = ShardedPlatform::split(&whole, CostModel::default(), SEED, shards);
        let mut jobs_by_global: Vec<Option<JobReport>> = (0..JOBS).map(|_| None).collect();
        for (s, shard) in sharded.shards_mut().iter_mut().enumerate() {
            let mut scheduler = JobScheduler::with_shared_registry(
                SchedulerConfig {
                    seed: SchedulerConfig::default().seed + s as u64,
                    ..SchedulerConfig::default()
                },
                PoolLedger::new(shard.roster().to_vec()),
                shared.clone(),
            );
            let globals: Vec<usize> = (0..JOBS).filter(|j| j % shards == s).collect();
            for &j in &globals {
                scheduler.submit(job(j));
            }
            let report = scheduler.run_clocked(shard.platform_mut()).unwrap();
            for (local, job) in report.jobs.into_iter().enumerate() {
                jobs_by_global[globals[local]] = Some(JobReport {
                    job: JobId(globals[local]),
                    ..job
                });
            }
        }
        let registry = shared
            .snapshot()
            .iter()
            .map(|(w, e)| (w.0, e.accuracy, e.samples))
            .collect();
        (
            jobs_by_global.into_iter().map(Option::unwrap).collect(),
            registry,
        )
    }
}

#[test]
fn parallel_threads_learn_exactly_what_a_sequential_pass_learns() {
    // The registry merge at fleet scale: 8 jobs over 4 shards, run as 4 OS threads vs.
    // run as 4 consecutive single-thread passes over one registry. Worker partitions are
    // disjoint, so every estimate is learned by exactly one shard in a deterministic
    // order — merging the shard registries back must make the parallel outcome
    // indistinguishable from the sequential one: same estimates (bit-for-bit), same
    // sample counts, same per-job accuracy/cost metrics.
    let gold = AccuracySource::GoldSampling;
    let (parallel_jobs, parallel_registry) = run_fleet(4, true, &gold);
    let (sequential_jobs, sequential_registry) = run_fleet(4, false, &gold);

    assert_eq!(parallel_registry.len(), sequential_registry.len());
    assert!(!parallel_registry.is_empty(), "gold estimates were shared");
    for (p, s) in parallel_registry.iter().zip(&sequential_registry) {
        assert_eq!(p.0, s.0, "same workers estimated");
        assert_eq!(p.1.to_bits(), s.1.to_bits(), "bit-identical accuracy");
        assert_eq!(p.2, s.2, "same sample counts");
    }

    assert_eq!(parallel_jobs.len(), sequential_jobs.len());
    for (p, s) in parallel_jobs.iter().zip(&sequential_jobs) {
        assert_eq!(p.job, s.job);
        assert_eq!(p.name, s.name);
        assert_eq!(p.report, s.report, "job {} diverged across threads", p.name);
        assert_eq!(p.hits, s.hits);
        assert_eq!(p.distinct_workers, s.distinct_workers);
    }
}

#[test]
fn parallel_threads_keep_gold_estimates_over_an_injected_oracle() {
    // Every shard of a registry-sourced fleet absorbs the whole oracle as injected
    // estimates (`samples == 0`), other shards' workers included, and gold-samples only
    // its own workers. Merging the shards back must keep every gold-sampled estimate, as
    // the sequential pass over one registry does: an injected entry never replaces a
    // sampled one.
    let oracle = AccuracySource::Registry(pool(32).oracle_registry(&demo_questions(1, 0)[0]));
    let (parallel_jobs, parallel_registry) = run_fleet(4, true, &oracle);
    let (sequential_jobs, sequential_registry) = run_fleet(4, false, &oracle);

    assert_eq!(sequential_registry.len(), 32);
    assert!(
        sequential_registry
            .iter()
            .all(|&(_, _, samples)| samples > 0),
        "every worker was gold-sampled"
    );
    let bits = |registry: &[(u64, f64, usize)]| {
        registry
            .iter()
            .map(|&(worker, accuracy, samples)| (worker, accuracy.to_bits(), samples))
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&parallel_registry), bits(&sequential_registry));
    assert_eq!(parallel_jobs, sequential_jobs);
}

#[test]
fn panicking_shard_resurfaces_after_every_other_shard_completed() {
    // The RAII/teardown half of the tentpole, end to end. Shard 0's platform panics on
    // its first poll (a simulated adapter crash); shard 1 is a healthy simulated crowd.
    // `run_parallel` must (a) let shard 1 run to completion — panics resurface only after
    // every thread joined, no shard is abandoned mid-HIT — and (b) resurface the panic to
    // the caller. The panicking thread's lease guards release during its unwind (the
    // guard-level guarantee is pinned by `cdas_crowd::lease` and scheduler tests); here
    // we observe the fleet-level consequences: the parent scheduler's own ledger is
    // untouched and the healthy shard's platform shows a full run's charges.
    use cdas::core::types::HitId;
    use cdas::core::types::WorkerId;
    use cdas::crowd::hit::HitRequest;
    use cdas::crowd::platform::{CancelReceipt, WorkerAnswer};

    struct PanicsOnPoll;
    impl CrowdPlatform for PanicsOnPoll {
        fn publish(&mut self, _request: HitRequest) -> HitId {
            HitId(0)
        }
        fn poll(&mut self, _hit: HitId, _now: f64) -> Vec<WorkerAnswer> {
            panic!("simulated shard crash mid-poll");
        }
        fn cancel(&mut self, _hit: HitId, _now: f64) -> CancelReceipt {
            CancelReceipt::empty()
        }
        fn total_cost(&self) -> f64 {
            0.0
        }
    }

    // An enum shard type so one fleet can mix the crashing platform with a real one.
    enum Mixed {
        Crashing(PanicsOnPoll),
        Real(SimulatedPlatform),
    }
    impl CrowdPlatform for Mixed {
        fn publish(&mut self, request: HitRequest) -> HitId {
            match self {
                Mixed::Crashing(p) => p.publish(request),
                Mixed::Real(p) => p.publish(request),
            }
        }
        fn publish_to(&mut self, request: HitRequest, workers: &[WorkerId]) -> HitId {
            match self {
                Mixed::Crashing(p) => p.publish_to(request, workers),
                Mixed::Real(p) => p.publish_to(request, workers),
            }
        }
        fn advance_time(&mut self, now: f64) {
            match self {
                Mixed::Crashing(p) => p.advance_time(now),
                Mixed::Real(p) => p.advance_time(now),
            }
        }
        fn poll(&mut self, hit: HitId, now: f64) -> Vec<WorkerAnswer> {
            match self {
                Mixed::Crashing(p) => p.poll(hit, now),
                Mixed::Real(p) => p.poll(hit, now),
            }
        }
        fn next_arrival(&self, hit: HitId) -> Option<f64> {
            match self {
                Mixed::Crashing(p) => p.next_arrival(hit),
                Mixed::Real(p) => p.next_arrival(hit),
            }
        }
        fn cancel(&mut self, hit: HitId, now: f64) -> CancelReceipt {
            match self {
                Mixed::Crashing(p) => p.cancel(hit, now),
                Mixed::Real(p) => p.cancel(hit, now),
            }
        }
        fn total_cost(&self) -> f64 {
            match self {
                Mixed::Crashing(p) => p.total_cost(),
                Mixed::Real(p) => p.total_cost(),
            }
        }
    }

    let healthy_pool = pool(8);
    let crashing_roster: Vec<WorkerId> = (100..108).map(WorkerId).collect();
    let healthy_roster: Vec<WorkerId> = healthy_pool.workers().iter().map(|w| w.id).collect();
    let mut platform = ShardedPlatform::from_parts([
        (Mixed::Crashing(PanicsOnPoll), crashing_roster.clone()),
        (
            Mixed::Real(SimulatedPlatform::new(
                healthy_pool,
                CostModel::default(),
                SEED,
            )),
            healthy_roster.clone(),
        ),
    ]);
    let ledger = PoolLedger::new(crashing_roster.into_iter().chain(healthy_roster));
    let observer = ledger.clone();
    let mut scheduler = JobScheduler::new(SchedulerConfig::default(), ledger);
    for name in ["doomed", "fine"] {
        scheduler.submit(
            ScheduledJob::named(JobKind::SentimentAnalytics, name, demo_questions(4, 1))
                .with_engine(EngineConfig {
                    workers: WorkerCountPolicy::Fixed(5),
                    domain_size: Some(3),
                    ..EngineConfig::default()
                }),
        );
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        scheduler.run_parallel(&mut platform)
    }));
    assert!(outcome.is_err(), "the shard panic must resurface");
    // The healthy shard completed its whole job before the panic resurfaced: the panic
    // is raised only after every thread joined.
    assert!(
        platform.shards()[1].platform().total_cost() > 0.0,
        "the healthy shard never ran"
    );
    // Job states were reassembled before the panic was re-raised: the healthy job's
    // outcomes are inspectable (and the doomed job is present, merely without runs) —
    // the submitted fleet is not silently lost to the unwind.
    assert!(
        !scheduler.outcomes(JobId(1)).is_empty(),
        "the healthy job's outcomes survived the panic"
    );
    assert!(scheduler.outcomes(JobId(0)).is_empty());
    // The parent ledger never participated (shards lease from their own tables) and is
    // fully available for a retry.
    assert_eq!(observer.leased(), 0);
    assert_eq!(observer.available(), 16);
}
