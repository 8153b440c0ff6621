//! The recovery workload: a journaled clocked fleet crashes at about half its polls, and
//! every timed repeat restores the wreckage byte for byte and calls `Fleet::recover`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use cdas_crowd::failpoint::Failpoint;
use cdas_engine::fleet::{ExecutionMode, Fleet, FleetEvent, FleetFailpoints, FleetRun, JobSpec};
use cdas_engine::journal::recovery::{JournalReplay, RecoveryObserver};
use cdas_engine::journal::{Journal, JournalConfig, RecoveryReport, RunConfig};
use cdas_engine::metrics::FleetReport;
use cdas_engine::scheduler::RunObserver;

use crate::common::{
    self, check_cost, for_seconds, hits, set_up_in_child, set_up_phase, setups_per_burst, EndToEnd,
    Window,
};
use crate::disk::{segment_bytes, JournalFacts, Wreckage};
use crate::inputs::{Inputs, Shape};
use crate::layers::{RoomTotals, Samples};
use crate::report::{Checks, Outcome};
use crate::room::{self, Wired};
use crate::trace::{TimedObserver, Trace};
use crate::Result;

/// A contended-style job mix over a crowd of a few thousand, so commits carry registry
/// entries.
pub const SHAPE: Shape = Shape {
    tsa_jobs: 52,
    it_jobs: 52,
    tweets_per_job: 200,
    images_per_job: 100,
    tsa_workers: 15,
    it_workers: 11,
    crowd: 2000,
};

const MODE: ExecutionMode = ExecutionMode::Clocked;

const NAME: &str = "fleet-recover";

/// A crashed run, kept for recovery.
struct Crashed {
    /// The same fleet, never crashed and never journaled.
    reference: FleetRun,
    wreckage: Wreckage,
    dir: PathBuf,
}

fn crash(inputs: &Inputs, work: &Path) -> Result<Crashed> {
    let fleet = inputs.builder().build()?;
    let reference = fleet.run(MODE)?;
    // Every tick polls at least once, so half the ticks is about half the polls.
    let polls = reference.report().ticks as u64 / 2;
    let dir = work.join("journal");
    let journaled = inputs.builder().journal(&dir).build()?;
    let failpoints = FleetFailpoints::platform(Failpoint::after_polls(polls));
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        journaled.run_with_failpoints(MODE, failpoints)
    }));
    if crashed.is_ok() {
        return Err("the failpoint did not crash the journaled run".into());
    }
    let wreckage = Wreckage::take(&dir)?;
    println!(
        "  crashed at poll {polls} of a {}-tick run, {} journal bytes kept",
        reference.report().ticks,
        wreckage.bytes()
    );
    Ok(Crashed {
        reference,
        wreckage,
        dir,
    })
}

/// The recovered run must be the run that never crashed, every HIT accounted for once.
fn check_recovery(
    checks: &mut Checks,
    report: &FleetReport,
    recovery: &RecoveryReport,
    expected: &FleetReport,
) {
    checks.op(report.ignoring_wall_clock() == *expected, || {
        "the recovered run differs from the never-crashed run".to_string()
    });
    checks.op(
        recovery.recovered_hits + recovery.resumed_hits == hits(expected),
        || {
            format!(
                "{} recovered + {} resumed HITs, the run has {}",
                recovery.recovered_hits,
                recovery.resumed_hits,
                hits(expected)
            )
        },
    );
}

pub fn measure(seed: u64, seconds: f64, work: &Path) -> Result<Outcome> {
    let inputs = Inputs::generate(&SHAPE, seed);
    let mut out = Outcome::default();
    let mut e2e = EndToEnd {
        windows: set_up_phase(NAME, seed)?,
        ..EndToEnd::default()
    };
    let config = inputs.builder().build()?.run_config(MODE)?;

    let crashed = crash(&inputs, work)?;
    let expected = crashed.reference.report().ignoring_wall_clock();
    out.checks.op(
        JournalReplay::assemble(&Journal::read(&crashed.dir)?)?.config == config,
        || "the journal holds another configuration than the fleet's".to_string(),
    );

    e2e.add_report(&expected);
    let questions = expected.fleet.questions as f64;
    for_seconds(seconds, || {
        crashed.wreckage.restore(&crashed.dir)?;
        let started = Instant::now();
        let (run, recovery) = Fleet::recover(&crashed.dir)?;
        e2e.windows.push(Window {
            rate: questions / started.elapsed().as_secs_f64(),
            ..Window::default()
        });
        check_cost(&mut out.checks, &run);
        check_recovery(&mut out.checks, run.report(), &recovery, &expected);
        e2e.windows.push(set_up_in_child(NAME, seed)?);
        Ok(())
    })?;

    e2e.journal = JournalFacts::read(&crashed.dir)?;
    e2e.journal_bytes = segment_bytes(&crashed.dir)?;
    out.checks
        .op(e2e.journal.verdict_minutes.len() == hits(&expected), || {
            "the recovered journal does not hold one commit per HIT".to_string()
        });
    e2e.report(&mut out);
    Ok(out)
}

/// One burst of set-ups, run in a child process, on the configuration the crashed run
/// journals: `Fleet::from_run_config`, and each job's `Fleet::submit` into an empty
/// fleet of the same configuration.
pub fn burst(seed: u64) -> Result<Window> {
    let config = Inputs::generate(&SHAPE, seed)
        .builder()
        .build()?
        .run_config(MODE)?;
    let mut window = Window::default();
    for _ in 0..setups_per_burst(config.jobs.len()) {
        let copy = config.clone();
        let started = Instant::now();
        let fleet = Fleet::from_run_config(copy)?;
        window.setups.push(started.elapsed().as_secs_f64());
        if fleet.job_count() != config.jobs.len() {
            return Err("the rebuilt fleet lost jobs".into());
        }
        let mut empty = Fleet::from_run_config(RunConfig {
            jobs: Vec::new(),
            ..config.clone()
        })?;
        let jobs = config.jobs.iter().cloned().map(JobSpec::from).collect();
        common::submit_each(&mut empty, jobs, &mut window.submits)?;
    }
    Ok(window)
}

/// A recovery wired by hand, the way `Fleet::recover` wires it.
struct ByHand {
    wired: Wired,
    recovery: RecoveryReport,
    /// Journal segments read.
    segments: usize,
    /// The scheduler run's span in the trace.
    root: usize,
}

/// `Journal::open_append`, `JournalReplay::assemble`, the scheduler run with a
/// `RecoveryObserver` attached, and `RecoveryObserver::finish`, each timed into `trace`.
/// With `decorate`, every platform is decorated and the observer wrapped.
fn by_hand(dir: &Path, events: &[FleetEvent], decorate: bool, trace: &mut Trace) -> Result<ByHand> {
    let (opened, _) = trace.time("journal.open_append", None, 0, || {
        Journal::open_append(dir, JournalConfig::default())
    });
    let (journal, contents) = opened?;
    let (replay, _) = trace.time("journal.assemble", None, 0, || {
        JournalReplay::assemble(&contents)
    });
    let replay = replay?;
    let config = replay.config.clone();
    let recovery = Arc::new(RecoveryObserver::new(journal, replay));
    let origin = trace.origin();
    let timed = decorate.then(|| Arc::new(TimedObserver::new(recovery.clone(), origin)));
    let observer: Arc<dyn RunObserver> = match &timed {
        Some(timed) => timed.clone(),
        None => recovery.clone(),
    };
    let root = trace.begin("scheduler.run", None, 0);
    let mut wired = room::run(&config, Some(observer), decorate.then_some(origin))?;
    trace.end(root);
    if let Some((spans, _)) = wired.platforms.as_mut() {
        trace.adopt(std::mem::take(spans), root);
    }
    if let Some(timed) = timed {
        trace.adopt(timed.take_spans(), root);
    }
    let report = &wired.report;
    let (finished, _) = trace.time("recovery.finish", None, 0, || {
        recovery.finish(
            events,
            report.fleet.cost,
            report.fleet.questions,
            report.makespan,
        )
    });
    Ok(ByHand {
        recovery: finished?,
        wired,
        segments: contents.segments,
        root,
    })
}

pub fn trace(seed: u64, seconds: f64, work: &Path) -> Result<(Outcome, Trace)> {
    let crashed = crash(&Inputs::generate(&SHAPE, seed), work)?;
    let expected = crashed.reference.report().ignoring_wall_clock();
    // The event stream `RecoveryObserver::finish` checks comes from the never-crashed
    // run: it is deterministic, and the facade's own stream assembly is private.
    let events = crashed.reference.events().to_vec();
    let dir = crashed.dir.as_path();
    let mut out = Outcome::default();
    let mut samples = Samples::default();
    let mut last = None;
    for_seconds(seconds, || {
        crashed.wreckage.restore(dir)?;
        let started = Instant::now();
        let (facade, facade_recovery) = Fleet::recover(dir)?;
        let facade_s = started.elapsed().as_secs_f64();
        check_recovery(
            &mut out.checks,
            facade.report(),
            &facade_recovery,
            &expected,
        );

        crashed.wreckage.restore(dir)?;
        let started = Instant::now();
        let plain = by_hand(dir, &events, false, &mut Trace::new())?;
        let plain_s = started.elapsed().as_secs_f64();

        crashed.wreckage.restore(dir)?;
        let mut trace = Trace::new();
        let started = Instant::now();
        let traced = by_hand(dir, &events, true, &mut trace)?;
        let traced_s = started.elapsed().as_secs_f64();

        for (what, hand) in [("undecorated", &plain), ("traced", &traced)] {
            check_recovery(
                &mut out.checks,
                &hand.wired.report,
                &hand.recovery,
                &expected,
            );
            out.checks.op(hand.recovery == facade_recovery, || {
                format!("the {what} hand-wired recovery report differs from Fleet::recover's")
            });
            out.checks.op(
                hand.wired.platform_cost.to_bits() == facade.platform_cost().to_bits(),
                || format!("the {what} hand-wired platform cost differs from Fleet::recover's"),
            );
        }

        let facts = JournalFacts::read(dir)?;
        let bytes = segment_bytes(dir)? as f64;
        let mut totals = RoomTotals::default();
        totals.add(&trace, traced.root, &traced.wired);
        let mut layers = BTreeMap::new();
        totals.emit(&mut layers);
        layers.insert(
            "journal.bytes_per_commit",
            bytes / facts.commits.max(1) as f64,
        );
        layers.insert("journal.commit_records", facts.commits as f64);
        layers.insert("journal.dispatch_records", facts.dispatches as f64);
        layers.insert("journal.charge_records", facts.charges as f64);
        layers.insert("journal.event_records", facts.events as f64);
        layers.insert("journal.read_s", trace.seconds("journal.open_append"));
        layers.insert("journal.assemble_s", trace.seconds("journal.assemble"));
        layers.insert("journal.segments", traced.segments as f64);
        layers.insert(
            "recovery.crosscheck_s",
            ["observer.dispatch", "observer.charge", "observer.commit"]
                .iter()
                .map(|name| trace.seconds(name))
                .sum(),
        );
        layers.insert("recovery.finish_s", trace.seconds("recovery.finish"));
        layers.insert(
            "recovery.recovered_hits",
            traced.recovery.recovered_hits as f64,
        );
        layers.insert("recovery.resumed_hits", traced.recovery.resumed_hits as f64);
        layers.insert("fleet.facade_s", facade_s - plain_s);
        layers.insert("trace.overhead_ratio", traced_s / plain_s);
        samples.push(layers);
        last = Some(trace);
        Ok(())
    })?;
    samples.report(&mut out);
    Ok((out, last.unwrap_or_else(Trace::new)))
}
