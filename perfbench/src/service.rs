//! The service workload: one client thread runs a closed loop against a
//! `FleetService` — a wave of submissions, one `run_epoch`, the next wave — then
//! `shutdown`. Every submission appends to the manifest with an fsync, and every epoch
//! writes a group-commit run journal.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use cdas_engine::fleet::{ExecutionMode, Fleet, JobSpec};
use cdas_engine::scheduler::{ScheduledJob, SchedulerConfig};
use cdas_engine::service::manifest::{epoch_dir, manifest_dir};
use cdas_engine::service::{
    AdmissionModel, EpochSummary, FleetService, ServiceConfig, ServiceReport,
};

use crate::common::{
    check_epoch_cost, for_seconds, hits, set_up_in_child, set_up_phase, EndToEnd, Window,
};
use crate::disk::{segment_bytes, JournalFacts};
use crate::inputs::{Inputs, Shape, MAX_TICKS};
use crate::layers::{RoomTotals, Samples};
use crate::report::{Checks, Outcome};
use crate::room;
use crate::trace::Trace;
use crate::Result;

/// Epoch shard cap, so that a run uses at most two threads.
pub const MAX_SHARDS: usize = 2;

/// Many small jobs, submitted in waves with one epoch per wave.
pub const SHAPE: Shape = Shape {
    tsa_jobs: 600,
    it_jobs: 600,
    tweets_per_job: 40,
    images_per_job: 20,
    tsa_workers: 5,
    it_workers: 5,
    crowd: 2000,
};

const NAME: &str = "service-durable";

/// Waves of submissions, each served by one epoch.
pub const WAVES: usize = 24;

/// `FleetService::open` calls per set-up burst: an open takes a fraction of a
/// millisecond, so a burst of this many spans a few milliseconds of fsyncs.
const OPENS_PER_BURST: usize = 100;

fn config(inputs: &Inputs) -> ServiceConfig {
    ServiceConfig::new(inputs.crowd.clone())
        .max_shards(MAX_SHARDS)
        .scheduler(SchedulerConfig {
            seed: inputs.scheduler_seed,
            max_ticks: MAX_TICKS,
            ..SchedulerConfig::default()
        })
}

/// One service lifetime, timed call by call.
struct Lifetime {
    report: ServiceReport,
    /// Host seconds from the first submission to the end of `shutdown`.
    wall_s: f64,
    /// Microseconds of each `FleetService::submit`.
    submits: Vec<f64>,
    rejected: usize,
    /// Each epoch's summary and host seconds of its `run_epoch`.
    epochs: Vec<(EpochSummary, f64)>,
    trace: Trace,
}

/// Jobs per wave.
fn wave_len(jobs: usize) -> usize {
    jobs.div_ceil(WAVES).max(1)
}

fn lifetime(inputs: &Inputs, config: &ServiceConfig, dir: &Path) -> Result<Lifetime> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let waves: Vec<Vec<JobSpec>> = inputs
        .jobs
        .chunks(wave_len(inputs.jobs.len()))
        .map(<[JobSpec]>::to_vec)
        .collect();
    let mut trace = Trace::new();
    let mut service = FleetService::open(dir, config.clone())?;
    let root = trace.begin("service.lifetime", None, 0);
    let started = Instant::now();
    let mut submits = Vec::with_capacity(inputs.jobs.len());
    let mut rejected = 0;
    let mut epochs = Vec::with_capacity(waves.len());
    let mut ticket = 0;
    for wave in waves {
        for job in wave {
            let (admitted, seconds) =
                trace.time("service.submit", Some(root), ticket, || service.submit(job));
            submits.push(seconds * 1e6);
            rejected += usize::from(admitted.is_err());
            ticket += 1;
        }
        let (summary, seconds) =
            trace.time("service.run_epoch", Some(root), epochs.len() as u64, || {
                service.run_epoch()
            });
        let summary = summary?.ok_or("an epoch found no admitted job")?;
        epochs.push((summary, seconds));
    }
    let (report, _) = trace.time("service.shutdown", Some(root), 0, || service.shutdown());
    let report = report?;
    let wall_s = started.elapsed().as_secs_f64();
    trace.end(root);
    Ok(Lifetime {
        report,
        wall_s,
        submits,
        rejected,
        epochs,
        trace,
    })
}

/// One set-up burst of `FleetService::open`, run in a child process.
pub fn burst(seed: u64, work: &Path) -> Result<Window> {
    let config = config(&Inputs::generate(&SHAPE, seed));
    let mut window = Window::default();
    for _ in 0..OPENS_PER_BURST {
        let config = config.clone();
        let started = Instant::now();
        let service = FleetService::open(work, config)?;
        window.setups.push(started.elapsed().as_secs_f64());
        if service.epochs_completed() != 0 {
            return Err("a fresh service already ran epochs".into());
        }
    }
    Ok(window)
}

/// Real (non-gold) questions across the resolved jobs.
fn real_questions(jobs: &[ScheduledJob]) -> usize {
    jobs.iter()
        .map(|j| j.questions.iter().filter(|q| !q.is_gold).count())
        .sum()
}

/// The service must end with every ticket served and every question answered.
fn check_lifetime(
    checks: &mut Checks,
    life: &Lifetime,
    expected: &ServiceReport,
    questions: usize,
) {
    let report = &life.report;
    checks.tally(life.submits.len(), life.rejected, || {
        format!("{} submissions were rejected", life.rejected)
    });
    checks.op(report.unserved.is_empty(), || {
        format!("{} tickets were never served", report.unserved.len())
    });
    let answered: usize = life.epochs.iter().map(|(e, _)| e.questions).sum();
    checks.op(answered == questions, || {
        format!("epochs answered {answered} questions, {questions} were submitted")
    });
    check_epoch_cost(checks, report);
    checks.op(report.ignoring_wall_clock() == *expected, || {
        "a service lifetime differs from the first".to_string()
    });
}

pub fn measure(seed: u64, seconds: f64, work: &Path) -> Result<Outcome> {
    let inputs = Inputs::generate(&SHAPE, seed);
    let config = config(&inputs);
    let resolved = inputs
        .builder()
        .build()?
        .run_config(ExecutionMode::Clocked)?
        .jobs;
    let questions = real_questions(&resolved);
    let mut out = Outcome::default();
    let mut e2e = EndToEnd {
        windows: set_up_phase(NAME, seed)?,
        ..EndToEnd::default()
    };
    let dir = work.join("service");
    let first = lifetime(&inputs, &config, &dir)?;
    let expected = first.report.ignoring_wall_clock();
    check_lifetime(&mut out.checks, &first, &expected, questions);
    for report in &first.report.epochs {
        e2e.add_report(report);
    }
    for_seconds(seconds, || {
        let life = lifetime(&inputs, &config, &dir)?;
        check_lifetime(&mut out.checks, &life, &expected, questions);
        e2e.windows.push(Window {
            rate: questions as f64 / life.wall_s,
            setups: Vec::new(),
            submits: life.submits,
        });
        e2e.windows.push(set_up_in_child(NAME, seed)?);
        Ok(())
    })?;

    e2e.journal_bytes = segment_bytes(&dir)?;
    for epoch in 0..expected.epochs.len() {
        e2e.journal.add(&epoch_dir(&dir, epoch as u64))?;
    }
    let hits: usize = expected.epochs.iter().map(hits).sum();
    out.checks
        .op(e2e.journal.verdict_minutes.len() == hits, || {
            "the run journals do not hold one commit per HIT".to_string()
        });
    e2e.report(&mut out);
    Ok(out)
}

pub fn trace(seed: u64, seconds: f64, work: &Path) -> Result<(Outcome, Trace)> {
    let inputs = Inputs::generate(&SHAPE, seed);
    let config = config(&inputs);
    let resolved = inputs
        .builder()
        .build()?
        .run_config(ExecutionMode::Clocked)?
        .jobs;
    let questions = real_questions(&resolved);
    let mut out = Outcome::default();
    let dir = work.join("service");
    let untraced = lifetime(&inputs, &config, &dir)?;
    let expected = untraced.report.ignoring_wall_clock();
    let mut samples = Samples::default();
    let mut last = None;
    for_seconds(seconds, || {
        let mut life = lifetime(&inputs, &config, &dir)?;
        check_lifetime(&mut out.checks, &life, &expected, questions);
        let mut layers = BTreeMap::new();
        layers.insert("service.submit_s", life.trace.seconds("service.submit"));
        layers.insert("service.epoch_s", life.trace.seconds("service.run_epoch"));
        layers.insert("service.shutdown_s", life.trace.seconds("service.shutdown"));
        layers.insert("service.epochs", life.epochs.len() as f64);

        // The admission model's two forecasts per submission, on the same jobs: against
        // an idle crowd and against the wave admitted so far.
        let model = AdmissionModel::new(&config.crowd);
        let forecasts = life.trace.begin("service.forecasts", None, 0);
        for (w, wave) in resolved.chunks(wave_len(resolved.len())).enumerate() {
            let mut reserved = 0;
            for (i, job) in wave.iter().enumerate() {
                let ticket = (w * wave_len(resolved.len()) + i) as u64;
                let (idle, _) =
                    life.trace
                        .time("service.forecast", Some(forecasts), ticket, || {
                            model.forecast(job, 0)
                        });
                let (mix, _) = life
                    .trace
                    .time("service.forecast", Some(forecasts), ticket, || {
                        model.forecast(job, reserved)
                    });
                idle?;
                reserved += mix?.workers_per_hit;
            }
        }
        life.trace.end(forecasts);
        layers.insert("service.forecast_s", life.trace.seconds("service.forecast"));

        // What the manifest and the run journals hold.
        let mut facts = JournalFacts::default();
        for epoch in 0..life.epochs.len() {
            facts.add(&epoch_dir(&dir, epoch as u64))?;
        }
        facts.add(&manifest_dir(&dir))?;
        let bytes = segment_bytes(&dir)? as f64;
        layers.insert(
            "journal.bytes_per_commit",
            bytes / facts.commits.max(1) as f64,
        );
        layers.insert("journal.commit_records", facts.commits as f64);
        layers.insert("journal.dispatch_records", facts.dispatches as f64);
        layers.insert("journal.charge_records", facts.charges as f64);
        layers.insert("journal.event_records", facts.events as f64);

        // Each epoch's jobs again, outside the service: through the facade without a
        // journal, hand-wired, and hand-wired with every platform decorated.
        let mut totals = RoomTotals::default();
        let (mut journal_s, mut facade_s, mut plain_s, mut traced_s) = (0.0, 0.0, 0.0, 0.0);
        for (e, (summary, epoch_s)) in life.epochs.iter().enumerate() {
            let shards = match summary.mode {
                ExecutionMode::Parallel { shards } => shards,
                _ => 1,
            };
            let fleet = Fleet::builder()
                .crowd(config.crowd.clone())
                .policy(config.scheduler.policy)
                .scheduler_seed(config.scheduler.seed)
                .max_ticks(config.scheduler.max_ticks)
                .arrival_discovery(config.scheduler.discovery)
                .shards(shards)
                .jobs(
                    summary
                        .tickets
                        .iter()
                        .map(|t| inputs.jobs[t.index() as usize].clone()),
                )
                .build()?;
            let started = Instant::now();
            let facade = fleet.run(summary.mode)?;
            let unjournaled_s = started.elapsed().as_secs_f64();
            out.checks.op(
                facade.report().ignoring_wall_clock() == expected.epochs[e].ignoring_wall_clock(),
                || format!("epoch {e} run outside the service differs from the service's"),
            );
            let run_config = fleet.run_config(summary.mode)?;
            let plain = room::run(&run_config, None, None)?;
            let root = life.trace.begin("scheduler.run", None, e as u64);
            let mut traced = room::run(&run_config, None, Some(life.trace.origin()))?;
            life.trace.end(root);
            if let Some((spans, _)) = traced.platforms.as_mut() {
                life.trace.adopt(std::mem::take(spans), root);
            }
            out.checks.op(
                traced.report.ignoring_wall_clock() == facade.report().ignoring_wall_clock(),
                || format!("epoch {e} traced differs from its untraced run"),
            );
            totals.add(&life.trace, root, &traced);
            journal_s += epoch_s - unjournaled_s;
            facade_s += unjournaled_s - plain.wall_s;
            plain_s += plain.wall_s;
            traced_s += life.trace.span(root).seconds();
        }
        totals.emit(&mut layers);
        layers.insert("journal.overhead_s", journal_s);
        layers.insert("fleet.facade_s", facade_s);
        layers.insert("trace.overhead_ratio", traced_s / plain_s);
        samples.push(layers);
        last = Some(life.trace);
        Ok(())
    })?;
    samples.report(&mut out);
    Ok((out, last.unwrap_or_else(Trace::new)))
}
