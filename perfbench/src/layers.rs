//! Per-layer metrics of traced runs. [`RoomTotals`] sums what one or more traced
//! engine-room runs recorded; [`Samples`] keeps one value per traced iteration and
//! reports each metric's median.

use std::collections::BTreeMap;

use crate::report::Outcome;
use crate::room::{registry_copies, Wired};
use crate::stats::{median, ratio};
use crate::trace::Trace;

/// Sums over the traced engine-room runs of one iteration.
#[derive(Debug, Default)]
pub struct RoomTotals {
    runs: f64,
    polls: f64,
    useful_polls: f64,
    answers: f64,
    next_arrivals: f64,
    publishes: f64,
    cancels: f64,
    poll_s: f64,
    next_arrival_s: f64,
    publish_s: f64,
    cancel_s: f64,
    build_s: f64,
    self_s: f64,
    ticks: f64,
    questions: f64,
    dispatches: f64,
    lease_wait: f64,
    slowest_shard_s: f64,
    mean_shard_s: f64,
    answers_used: f64,
    answers_cancelled: f64,
    reclaimed_minutes: f64,
    registry: f64,
    entries_copied: f64,
    batches: f64,
    cache_hits: f64,
    cache_reads: f64,
}

impl RoomTotals {
    /// Fold in one traced run whose platform and observer spans are children of the
    /// span `root` of `trace`.
    pub fn add(&mut self, trace: &Trace, root: usize, wired: &Wired) {
        let report = &wired.report;
        let counts = wired
            .platforms
            .as_ref()
            .map(|(_, c)| *c)
            .unwrap_or_default();
        self.runs += 1.0;
        self.polls += trace.count("crowd.poll") as f64;
        self.useful_polls += counts.useful_polls as f64;
        self.answers += counts.answers as f64;
        self.next_arrivals += trace.count("crowd.next_arrival") as f64;
        self.publishes += trace.count("crowd.publish") as f64;
        self.cancels += trace.count("crowd.cancel") as f64;
        self.poll_s += trace.seconds("crowd.poll");
        self.next_arrival_s += trace.seconds("crowd.next_arrival");
        self.publish_s += trace.seconds("crowd.publish");
        self.cancel_s += trace.seconds("crowd.cancel");
        self.build_s += wired.build_s;
        // The scheduler's span is each shard's loop; its children are the platform
        // and observer calls made from inside it.
        let shard_s: Vec<f64> = report.shards.iter().map(|s| s.wall_seconds).collect();
        self.self_s += shard_s.iter().sum::<f64>() - trace.child_seconds(root);
        self.slowest_shard_s += shard_s.iter().copied().fold(0.0, f64::max);
        self.mean_shard_s += ratio(shard_s.iter().sum(), shard_s.len() as f64);
        self.ticks += report.ticks as f64;
        self.questions += report.fleet.questions as f64;
        self.dispatches += report.dispatches.len() as f64;
        self.lease_wait += report.jobs.iter().map(|j| j.ticks_waited).sum::<usize>() as f64;
        self.answers_used += report.fleet.mean_answers_used * report.fleet.questions as f64;
        self.answers_cancelled += report.answers_cancelled as f64;
        self.reclaimed_minutes += report.reclaimed_minutes;
        self.registry += report.registry_size as f64;
        let (entries, batches) = registry_copies(&wired.scheduler, report.jobs.len());
        self.entries_copied += entries as f64;
        self.batches += batches as f64;
        self.cache_hits += report.cache_hits as f64;
        self.cache_reads += (report.cache_hits + report.cache_misses) as f64;
    }

    pub fn emit(&self, layers: &mut BTreeMap<&'static str, f64>) {
        layers.insert("crowd.poll_calls", self.polls);
        layers.insert("crowd.poll_s", self.poll_s);
        layers.insert(
            "crowd.poll_useful_ratio",
            ratio(self.useful_polls, self.polls),
        );
        layers.insert("crowd.answers_delivered", self.answers);
        layers.insert("crowd.next_arrival_calls", self.next_arrivals);
        layers.insert("crowd.next_arrival_s", self.next_arrival_s);
        layers.insert("crowd.publish_calls", self.publishes);
        layers.insert("crowd.publish_s", self.publish_s);
        layers.insert("crowd.cancel_calls", self.cancels);
        layers.insert("crowd.cancel_s", self.cancel_s);
        layers.insert("crowd.build_s", self.build_s);
        layers.insert("scheduler.self_s", self.self_s);
        layers.insert("scheduler.ticks", self.ticks);
        layers.insert(
            "scheduler.ticks_per_question",
            ratio(self.ticks, self.questions),
        );
        layers.insert("scheduler.dispatches", self.dispatches);
        layers.insert("scheduler.lease_wait_ticks", self.lease_wait);
        layers.insert(
            "scheduler.shard_imbalance",
            ratio(self.slowest_shard_s, self.mean_shard_s),
        );
        layers.insert(
            "online.mean_answers_used",
            ratio(self.answers_used, self.questions),
        );
        layers.insert("online.answers_cancelled", self.answers_cancelled);
        layers.insert("online.reclaimed_minutes", self.reclaimed_minutes);
        layers.insert("sharing.registry_size", ratio(self.registry, self.runs));
        layers.insert(
            "sharing.entries_copied_per_batch",
            ratio(self.entries_copied, self.batches),
        );
        layers.insert(
            "sharing.cache_hit_ratio",
            ratio(self.cache_hits, self.cache_reads),
        );
    }
}

/// One map of per-layer values per traced iteration.
#[derive(Debug, Default)]
pub struct Samples(Vec<BTreeMap<&'static str, f64>>);

impl Samples {
    pub fn push(&mut self, layers: BTreeMap<&'static str, f64>) {
        self.0.push(layers);
    }

    /// Set each metric to its median across iterations.
    pub fn report(&self, out: &mut Outcome) {
        let mut names: Vec<&'static str> = self.0.iter().flat_map(|m| m.keys().copied()).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let values: Vec<f64> = self.0.iter().filter_map(|m| m.get(name).copied()).collect();
            out.set(name, median(&values));
        }
    }
}
