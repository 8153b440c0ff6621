//! Pieces every workload shares: the timed loop, repeated set-ups, the cost check, and
//! the end-to-end metrics.

use std::process::Command;
use std::time::{Duration, Instant};

use cdas_engine::fleet::{Fleet, FleetRun, JobSpec};
use cdas_engine::metrics::FleetReport;
use cdas_engine::service::ServiceReport;

use crate::disk::JournalFacts;
use crate::report::{Checks, Outcome};
use crate::stats::{median, percentile, ratio};
use crate::Result;

/// Fewest timed repeats a run makes, however long they take.
pub const MIN_REPEATS: usize = 3;

/// Host seconds of set-up bursts a run makes before its first timed repeat; it makes
/// one more after each repeat.
pub const SETUP_SECONDS: f64 = 2.0;

/// Fewest set-ups in one burst; `setup_s` is a median of them.
pub const MIN_SETUPS_PER_BURST: usize = 10;

/// Fewest job submissions in one burst.
pub const MIN_SUBMITS_PER_BURST: usize = 1000;

/// Set-ups one burst makes for a workload of `jobs` jobs.
pub fn setups_per_burst(jobs: usize) -> usize {
    MIN_SUBMITS_PER_BURST
        .div_ceil(jobs.max(1))
        .max(MIN_SETUPS_PER_BURST)
}

/// One burst of program set-ups, measured in a fresh child process of this benchmark
/// (`--burst 1`). Set-up is what a process does before it serves its first question,
/// and set-ups measured after fleet runs in the same process read a third slower and
/// twice as variable.
pub fn set_up_in_child(workload: &str, seed: u64) -> Result<Window> {
    let seed = seed.to_string();
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload, "--seed", &seed])
        .args(["--seconds", "1", "--trace", "0", "--burst", "1"])
        .output()?;
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        return Err(format!("a set-up burst failed: {stderr}").into());
    }
    let mut window = Window::default();
    for line in String::from_utf8(output.stdout)?.lines() {
        let (samples, values) = match line.split_once(' ') {
            Some(("setups", values)) => (&mut window.setups, values),
            Some(("submits", values)) => (&mut window.submits, values),
            _ => continue,
        };
        for value in values.split_whitespace() {
            samples.push(value.parse()?);
        }
    }
    Ok(window)
}

/// The child's side of [`set_up_in_child`].
pub fn print_burst(window: &Window) {
    for (name, samples) in [("setups", &window.setups), ("submits", &window.submits)] {
        let values: Vec<String> = samples.iter().map(|v| format!("{v:?}")).collect();
        println!("{name} {}", values.join(" "));
    }
}

/// Set-up bursts for [`SETUP_SECONDS`], at least [`MIN_REPEATS`] of them.
pub fn set_up_phase(workload: &str, seed: u64) -> Result<Vec<Window>> {
    let mut windows = Vec::new();
    for_seconds(SETUP_SECONDS, || {
        windows.push(set_up_in_child(workload, seed)?);
        Ok(())
    })?;
    Ok(windows)
}

/// Call `repeat` until `seconds` have passed and at least [`MIN_REPEATS`] calls ran.
pub fn for_seconds(seconds: f64, mut repeat: impl FnMut() -> Result<()>) -> Result<usize> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut repeats = 0;
    while repeats < MIN_REPEATS || Instant::now() < deadline {
        repeat()?;
        repeats += 1;
    }
    Ok(repeats)
}

/// Host microseconds of each `Fleet::submit` of `jobs` into `fleet`.
pub fn submit_each(fleet: &mut Fleet, jobs: Vec<JobSpec>, micros: &mut Vec<f64>) -> Result<()> {
    for job in jobs {
        let started = Instant::now();
        fleet.submit(job)?;
        micros.push(started.elapsed().as_secs_f64() * 1e6);
    }
    Ok(())
}

/// The report's dollars must equal what the platform charged.
pub fn check_cost(checks: &mut Checks, run: &FleetRun) {
    let (engine, platform) = (run.report().fleet.cost, run.platform_cost());
    checks.op(
        (engine - platform).abs() <= 1e-9 * platform.abs().max(1.0),
        || format!("report cost {engine} differs from platform cost {platform}"),
    );
}

/// A service's lifetime dollars must equal its epochs' dollars.
pub fn check_epoch_cost(checks: &mut Checks, report: &ServiceReport) {
    let epochs: f64 = report.epochs.iter().map(|e| e.fleet.cost).sum();
    checks.op(
        (epochs - report.total_cost).abs() <= 1e-9 * epochs.abs().max(1.0),
        || {
            format!(
                "service cost {} differs from its epochs' {epochs}",
                report.total_cost
            )
        },
    );
}

/// HIT batches the report's jobs ran.
pub fn hits(report: &FleetReport) -> usize {
    report.jobs.iter().map(|j| j.hits).sum()
}

/// One window of a run: a timed repeat, a burst of program set-ups, or both; each
/// window's samples share one stretch of host conditions.
#[derive(Debug, Default)]
pub struct Window {
    /// Real questions per host second of a timed repeat, or 0 for a set-up burst.
    pub rate: f64,
    /// Seconds of each program set-up.
    pub setups: Vec<f64>,
    /// Microseconds of each job submission.
    pub submits: Vec<f64>,
}

/// The quarter (at least one) of `windows` with the lowest `key`.
fn fastest_quarter<W>(mut windows: Vec<W>, key: impl Fn(&W) -> f64) -> Vec<W> {
    windows.sort_by(|a, b| key(a).total_cmp(&key(b)));
    windows.truncate(windows.len().div_ceil(4));
    windows
}

/// The end-to-end measurements of one run, before they become metrics.
#[derive(Default)]
pub struct EndToEnd {
    pub windows: Vec<Window>,
    /// Real questions, right verdicts and dollars of one repeat.
    pub questions: f64,
    pub correct: f64,
    pub cost: f64,
    pub journal: JournalFacts,
    pub journal_bytes: u64,
}

impl EndToEnd {
    /// Fold a fleet report's questions, right verdicts and dollars into the totals.
    pub fn add_report(&mut self, report: &FleetReport) {
        self.questions += report.fleet.questions as f64;
        self.correct += report.fleet.accuracy * report.fleet.questions as f64;
        self.cost += report.fleet.cost;
    }

    /// Host-time metrics come from the run's fastest quarter of windows (at least
    /// one), each metric on its own: a shared virtual machine's speed can swing by up to
    /// half within seconds, and the fast windows give the reading that repeats. The
    /// simulated metrics are exact.
    pub fn report(self, out: &mut Outcome) {
        let rates = self
            .windows
            .iter()
            .map(|w| w.rate)
            .filter(|&r| r > 0.0)
            .collect();
        out.set("questions_per_s", median(&fastest_quarter(rates, |r| -r)));
        let samples = |of: fn(&Window) -> &[f64]| -> Vec<&[f64]> {
            self.windows
                .iter()
                .map(of)
                .filter(|s| !s.is_empty())
                .collect()
        };
        let setups = fastest_quarter(samples(|w| &w.setups), |s| median(s)).concat();
        out.set("setup_s", median(&setups));
        let submits = fastest_quarter(samples(|w| &w.submits), |s| percentile(s, 0.5)).concat();
        out.set("submit_p50_us", percentile(&submits, 0.5));
        // Printed, not reported: the tail of a call this short moves with the heap's
        // layout from one process to the next, beyond any bound the result allows.
        println!("  submit_p99_us {:.3} us", percentile(&submits, 0.99));
        out.set("accuracy", ratio(self.correct, self.questions));
        out.set("cost_per_question_usd", ratio(self.cost, self.questions));
        out.set(
            "verdict_p50_min",
            percentile(&self.journal.verdict_minutes, 0.5),
        );
        out.set(
            "verdict_p99_min",
            percentile(&self.journal.verdict_minutes, 0.99),
        );
        out.set(
            "journal_bytes_per_question",
            ratio(self.journal_bytes as f64, self.questions),
        );
        let bursts = |of: fn(&Window) -> &[f64]| samples(of).len();
        println!(
            "  samples: {} timed repeats, {} set-up bursts, {} submit bursts, {} HITs",
            self.windows.iter().filter(|w| w.rate > 0.0).count(),
            bursts(|w| &w.setups),
            bursts(|w| &w.submits),
            self.journal.verdict_minutes.len()
        );
    }
}
