//! The metrics a run reports, the output checks it counts, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics and their units, reported by every untraced run. `peak_rss_mb`
/// is measured on this process from outside and added by `run.py`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("questions_per_s", "questions/s"),
    ("setup_s", "s"),
    ("accuracy", "fraction"),
    ("cost_per_question_usd", "USD/question"),
    ("verdict_p50_min", "sim_min"),
    ("verdict_p99_min", "sim_min"),
    ("submit_p50_us", "us"),
    ("journal_bytes_per_question", "bytes/question"),
];

/// Per-layer metrics and their units, reported by every traced run; a layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("crowd.poll_calls", "count"),
    ("crowd.poll_s", "s"),
    ("crowd.poll_useful_ratio", "ratio"),
    ("crowd.answers_delivered", "count"),
    ("crowd.next_arrival_calls", "count"),
    ("crowd.next_arrival_s", "s"),
    ("crowd.publish_calls", "count"),
    ("crowd.publish_s", "s"),
    ("crowd.cancel_calls", "count"),
    ("crowd.cancel_s", "s"),
    ("crowd.build_s", "s"),
    ("scheduler.self_s", "s"),
    ("scheduler.ticks", "count"),
    ("scheduler.ticks_per_question", "ticks/question"),
    ("scheduler.dispatches", "count"),
    ("scheduler.lease_wait_ticks", "count"),
    ("scheduler.shard_imbalance", "ratio"),
    ("online.mean_answers_used", "answers/question"),
    ("online.answers_cancelled", "count"),
    ("online.reclaimed_minutes", "sim_min"),
    ("sharing.registry_size", "workers"),
    ("sharing.entries_copied_per_batch", "entries/batch"),
    ("sharing.cache_hit_ratio", "ratio"),
    ("journal.bytes_per_commit", "bytes/commit"),
    ("journal.commit_records", "count"),
    ("journal.dispatch_records", "count"),
    ("journal.charge_records", "count"),
    ("journal.event_records", "count"),
    ("journal.overhead_s", "s"),
    ("journal.read_s", "s"),
    ("journal.assemble_s", "s"),
    ("journal.segments", "count"),
    ("recovery.crosscheck_s", "s"),
    ("recovery.finish_s", "s"),
    ("recovery.recovered_hits", "count"),
    ("recovery.resumed_hits", "count"),
    ("service.submit_s", "s"),
    ("service.forecast_s", "s"),
    ("service.epoch_s", "s"),
    ("service.shutdown_s", "s"),
    ("service.epochs", "count"),
    ("fleet.facade_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Output checks: every checked operation counts as attempted, every failed check as
/// failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count `attempted` operations of which `failed` failed.
    pub fn tally(&mut self, attempted: usize, failed: usize, what: impl FnOnce() -> String) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
        if failed > 0 {
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Print every metric of the run's kind as a table, then the result line.
    pub fn print(&self, traced: bool) {
        let metrics = if traced { PER_LAYER } else { END_TO_END };
        for name in self.values.keys() {
            assert!(
                metrics.iter().any(|(known, _)| known == name),
                "metric {name} is not declared"
            );
        }
        let mut json = String::new();
        for (name, unit) in metrics {
            let value = match self.values.get(name) {
                Some(value) => *value,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            println!("  {name:<34} {value:>16.6} {unit}");
            if !json.is_empty() {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed
        );
    }
}

/// A JSON number with every digit of the measurement (non-finite values become 0).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}
