//! The engine room wired by hand through the public API, the way `Fleet::run` wires
//! it: the jobs of a `RunConfig` go to a `JobScheduler` over `CrowdSpec::build_ledger`,
//! and the platform comes from `build_platform` or `build_sharded`, reassembled with
//! `ShardedPlatform::from_parts`. A traced run wraps each platform or shard in a
//! [`TimedPlatform`]; an untraced one runs the bare platforms.

use std::sync::Arc;
use std::time::Instant;

use cdas_crowd::platform::{CrowdPlatform, SimulatedPlatform};
use cdas_crowd::sharded::ShardedPlatform;
use cdas_engine::fleet::ExecutionMode;
use cdas_engine::journal::RunConfig;
use cdas_engine::metrics::FleetReport;
use cdas_engine::scheduler::{JobId, JobScheduler, RunObserver};

use crate::trace::{PlatformCounts, Span, TimedPlatform};
use crate::Result;

/// A finished hand-wired run.
pub struct Wired {
    pub report: FleetReport,
    pub platform_cost: f64,
    pub scheduler: JobScheduler,
    /// Seconds spent generating the crowd: the ledger plus the platform or shards.
    pub build_s: f64,
    /// Host seconds of the whole run, crowd generation included.
    pub wall_s: f64,
    /// Spans and counts of every platform, present when the run was traced.
    pub platforms: Option<(Vec<Span>, PlatformCounts)>,
}

/// Run `config` through a hand-wired scheduler, with `observer` attached when given,
/// and with every platform decorated when a trace origin is given.
pub fn run(
    config: &RunConfig,
    observer: Option<Arc<dyn RunObserver>>,
    trace_origin: Option<Instant>,
) -> Result<Wired> {
    let started = Instant::now();
    let ledger = config.crowd.build_ledger();
    let ledger_s = started.elapsed().as_secs_f64();
    let mut scheduler = JobScheduler::new(config.scheduler, ledger);
    for job in &config.jobs {
        scheduler.submit(job.clone());
    }
    if let Some(observer) = observer {
        scheduler.attach_observer(observer);
    }
    let (report, platform_cost, platform_s, platforms) = match trace_origin {
        None => {
            let (report, cost, _, build_s) = drive(config, &mut scheduler, |p| p)?;
            (report, cost, build_s, None)
        }
        Some(origin) => {
            let (report, cost, timed, build_s) =
                drive(config, &mut scheduler, |p| TimedPlatform::new(p, origin))?;
            let mut spans = Vec::new();
            let mut counts = PlatformCounts::default();
            for platform in timed {
                let (s, c) = platform.into_record();
                spans.extend(s);
                counts.useful_polls += c.useful_polls;
                counts.answers += c.answers;
            }
            (report, cost, build_s, Some((spans, counts)))
        }
    };
    Ok(Wired {
        report,
        platform_cost,
        scheduler,
        build_s: ledger_s + platform_s,
        wall_s: started.elapsed().as_secs_f64(),
        platforms,
    })
}

/// Build the platform(s) for `config.mode`, wrap each with `wrap`, run the scheduler on
/// them, and hand the platforms back with the report, the platform-side cost and the
/// seconds spent building the platforms.
fn drive<P: CrowdPlatform>(
    config: &RunConfig,
    scheduler: &mut JobScheduler,
    wrap: impl Fn(SimulatedPlatform) -> P,
) -> Result<(FleetReport, f64, Vec<P>, f64)> {
    match config.mode {
        ExecutionMode::EndOfTime => Err("no workload runs at the end of time".into()),
        ExecutionMode::Clocked => {
            let started = Instant::now();
            let platform = config.crowd.build_platform();
            let build_s = started.elapsed().as_secs_f64();
            let mut platform = wrap(platform);
            let report = scheduler.run_clocked(&mut platform)?;
            let cost = platform.total_cost();
            Ok((report, cost, vec![platform], build_s))
        }
        ExecutionMode::Parallel { shards } => {
            let started = Instant::now();
            let sharded = config.crowd.build_sharded(shards);
            let build_s = started.elapsed().as_secs_f64();
            let mut platform =
                ShardedPlatform::from_parts(sharded.into_shards().into_iter().map(|shard| {
                    let (inner, roster) = shard.into_parts();
                    (wrap(inner), roster)
                }));
            let report = scheduler.run_parallel(&mut platform)?;
            let cost = platform.total_cost();
            let platforms = platform
                .into_shards()
                .into_iter()
                .map(|shard| shard.into_parts().0)
                .collect();
            Ok((report, cost, platforms, build_s))
        }
    }
}

/// Registry entries copied into batch outcomes, and the number of batches.
pub fn registry_copies(scheduler: &JobScheduler, jobs: usize) -> (usize, usize) {
    let mut entries = 0;
    let mut batches = 0;
    for job in 0..jobs {
        for (_, outcome) in scheduler.outcomes(JobId(job)) {
            entries += outcome.registry.len();
            batches += 1;
        }
    }
    (entries, batches)
}
