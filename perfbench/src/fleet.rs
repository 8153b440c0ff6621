//! The two fleet workloads: every job submitted up front to one `Fleet`, run to
//! completion with `Fleet::run` and no journal.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use cdas_engine::fleet::ExecutionMode;

use crate::common::{
    self, check_cost, for_seconds, hits, set_up_in_child, set_up_phase, setups_per_burst, EndToEnd,
    Window,
};
use crate::disk::{segment_bytes, JournalFacts};
use crate::inputs::{Inputs, Shape};
use crate::layers::{RoomTotals, Samples};
use crate::report::Outcome;
use crate::room;
use crate::trace::Trace;
use crate::Result;

/// A fleet workload: an input shape and the mode `Fleet::run` executes it under.
pub struct FleetWorkload {
    pub name: &'static str,
    pub shape: Shape,
    pub mode: ExecutionMode,
}

/// Leases contend: a few hundred workers, several times fewer than the jobs' concurrent
/// demand, one clocked thread.
pub const CONTENDED: FleetWorkload = FleetWorkload {
    name: "fleet-contended",
    shape: Shape {
        tsa_jobs: 26,
        it_jobs: 26,
        tweets_per_job: 400,
        images_per_job: 200,
        tsa_workers: 15,
        it_workers: 11,
        crowd: 200,
    },
    mode: ExecutionMode::Clocked,
};

/// A crowd of 10^5 workers that no lease waits for, run on two shards, so the shared
/// registry grows to tens of thousands of workers.
pub const WIDECROWD: FleetWorkload = FleetWorkload {
    name: "fleet-widecrowd",
    shape: Shape {
        tsa_jobs: 8,
        it_jobs: 8,
        tweets_per_job: 1300,
        images_per_job: 650,
        tsa_workers: 15,
        it_workers: 11,
        crowd: 100_000,
    },
    mode: ExecutionMode::Parallel { shards: 2 },
};

/// The untraced run: end-to-end metrics.
pub fn measure(w: &FleetWorkload, seed: u64, seconds: f64, work: &Path) -> Result<Outcome> {
    let inputs = Inputs::generate(&w.shape, seed);
    let mut out = Outcome::default();
    let mut e2e = EndToEnd {
        windows: set_up_phase(w.name, seed)?,
        ..EndToEnd::default()
    };
    // The first run warms up and is journaled: the journal gives each HIT's verdict
    // time and the bytes a journal of this run takes.
    let dir = work.join("journal");
    let first = inputs.builder().journal(&dir).build()?.run(w.mode)?;
    check_cost(&mut out.checks, &first);
    e2e.journal = JournalFacts::read(&dir)?;
    e2e.journal_bytes = segment_bytes(&dir)?;
    std::fs::remove_dir_all(&dir)?;
    let expected = first.report().ignoring_wall_clock();
    out.checks
        .op(e2e.journal.verdict_minutes.len() == hits(&expected), || {
            "the journal does not hold one commit per HIT".to_string()
        });
    let questions = expected.fleet.questions as f64;
    e2e.add_report(&expected);
    let fleet = inputs.builder().build()?;
    for_seconds(seconds, || {
        let started = Instant::now();
        let run = fleet.run(w.mode)?;
        e2e.windows.push(Window {
            rate: questions / started.elapsed().as_secs_f64(),
            ..Window::default()
        });
        check_cost(&mut out.checks, &run);
        out.checks
            .op(run.report().ignoring_wall_clock() == expected, || {
                "an unjournaled run differs from the journaled one".to_string()
            });
        e2e.windows.push(set_up_in_child(w.name, seed)?);
        Ok(())
    })?;
    e2e.report(&mut out);
    Ok(out)
}

/// One burst of set-ups, run in a child process: `FleetBuilder::build` with every job
/// queued, and each job's `Fleet::submit` into an empty fleet.
pub fn burst(w: &FleetWorkload, seed: u64) -> Result<Window> {
    let inputs = Inputs::generate(&w.shape, seed);
    let mut window = Window::default();
    for _ in 0..setups_per_burst(inputs.jobs.len()) {
        let builder = inputs.builder();
        let started = Instant::now();
        let fleet = builder.build()?;
        window.setups.push(started.elapsed().as_secs_f64());
        if fleet.job_count() != inputs.jobs.len() {
            return Err("a built fleet lost jobs".into());
        }
        let mut empty = inputs.empty_builder().build()?;
        common::submit_each(&mut empty, inputs.jobs.clone(), &mut window.submits)?;
    }
    Ok(window)
}

/// The traced run: per-layer metrics from a hand-wired, decorated engine room,
/// alternated with the facade and an undecorated hand-wired run.
pub fn trace(w: &FleetWorkload, seed: u64, seconds: f64) -> Result<(Outcome, Trace)> {
    let inputs = Inputs::generate(&w.shape, seed);
    let mut out = Outcome::default();
    let fleet = inputs.builder().build()?;
    let config = fleet.run_config(w.mode)?;
    let mut samples = Samples::default();
    let mut last: Option<Trace> = None;
    for_seconds(seconds, || {
        let started = Instant::now();
        let facade = fleet.run(w.mode)?;
        let facade_s = started.elapsed().as_secs_f64();
        let expected = facade.report().ignoring_wall_clock();
        let plain = room::run(&config, None, None)?;
        let mut trace = Trace::new();
        let root = trace.begin("scheduler.run", None, 0);
        let mut traced = room::run(&config, None, Some(trace.origin()))?;
        trace.end(root);
        if let Some((spans, _)) = traced.platforms.as_mut() {
            trace.adopt(std::mem::take(spans), root);
        }
        for (what, wired) in [("undecorated", &plain), ("traced", &traced)] {
            out.checks
                .op(wired.report.ignoring_wall_clock() == expected, || {
                    format!("the {what} hand-wired report differs from Fleet::run")
                });
            out.checks.op(
                wired.platform_cost.to_bits() == facade.platform_cost().to_bits(),
                || format!("the {what} hand-wired platform cost differs from Fleet::run"),
            );
        }
        let mut totals = RoomTotals::default();
        totals.add(&trace, root, &traced);
        let mut layers = BTreeMap::new();
        totals.emit(&mut layers);
        layers.insert("fleet.facade_s", facade_s - plain.wall_s);
        layers.insert(
            "trace.overhead_ratio",
            trace.span(root).seconds() / plain.wall_s,
        );
        samples.push(layers);
        last = Some(trace);
        Ok(())
    })?;
    samples.report(&mut out);
    Ok((out, last.unwrap_or_else(Trace::new)))
}
