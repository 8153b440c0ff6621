//! The parallel fleet: the same clocked scheduler, spread across OS threads.
//!
//! One `Fleet` is run three ways — `Clocked`, `Parallel { shards: 1 }` and
//! `Parallel { shards: 4 }` — over bit-identical crowds derived from its `CrowdSpec`.
//! Under the hood a `ShardedPlatform` splits the simulated crowd into disjoint shards
//! (each owning a slice of the worker pool and of the HIT-id space) and the scheduler
//! pins one shard, and the jobs striped onto it, to one thread. Each thread runs over its
//! own copy of the fleet's `SharedAccuracyRegistry`, seeded when the run starts, so no two
//! threads write one registry; after they join, the fleet registry adopts every estimate
//! any shard learned, ready for the next run. The sequential clocked loop is literally
//! the one-shard special case of the parallel code path, which the 1-shard run
//! demonstrates by reproducing the `Clocked` report byte for byte.
//!
//! Run with: `cargo run --release -p cdas --example parallel_fleet`

use cdas::fixtures::demo_questions;
use cdas::prelude::*;

const SEED: u64 = 2024;
const JOBS: usize = 8;

fn fleet() -> Fleet {
    let mut builder = Fleet::builder()
        .crowd(
            CrowdSpec::clean(32, 0.85)
                .seed(SEED)
                .latency(LatencyModel::Exponential { mean: 5.0 }),
        )
        .shards(4)
        .batch_size(7);
    for i in 0..JOBS {
        builder = builder.job(
            JobSpec::sentiment(format!("job-{i}"), demo_questions(24, 4))
                .workers(7)
                .domain_size(3),
        );
    }
    builder.build().expect("a well-formed fleet")
}

fn print_run(tag: &str, report: &FleetReport) {
    println!("== {tag} ==");
    println!(
        "{:<7} {:>6} {:>7} {:>11} {:>10} {:>9}",
        "shard", "jobs", "ticks", "makespan", "questions", "wall ms"
    );
    for shard in &report.shards {
        println!(
            "{:<7} {:>6} {:>7} {:>10.1}m {:>10} {:>9.1}",
            shard.shard,
            shard.jobs.len(),
            shard.ticks,
            shard.makespan,
            shard.questions,
            shard.wall_seconds * 1e3,
        );
    }
    println!(
        "fleet: accuracy {:.3}, cost ${:.2}, makespan {:.1}m, speedup x{:.2}",
        report.fleet.accuracy,
        report.total_cost(),
        report.makespan,
        report.parallel_speedup(),
    );
    println!();
}

fn main() {
    let fleet = fleet();

    // Sequential baseline: one thread, one event loop over all 8 jobs.
    let baseline = fleet.run(ExecutionMode::Clocked).expect("clocked run");
    print_run("run(Clocked) — sequential", baseline.report());

    // The same fleet on the parallel path with a single shard: byte-identical results
    // (wall-clock timing aside) — the sequential loop IS the one-shard special case.
    let one = fleet
        .run(ExecutionMode::Parallel { shards: 1 })
        .expect("1-shard run");
    print_run("run(Parallel { shards: 1 })", one.report());
    assert_eq!(
        baseline.report().ignoring_wall_clock(),
        one.report().ignoring_wall_clock(),
        "1-shard Parallel must reproduce Clocked exactly"
    );

    // Four shards, four OS threads: each owns 8 workers and 2 jobs. The fleet finishes
    // as fast as its slowest shard instead of the sum of all of them. `run_parallel()`
    // picks up the builder's `.shards(4)` default.
    let four = fleet.run_parallel().expect("4-shard run");
    print_run("run(Parallel { shards: 4 })", four.report());

    assert_eq!(
        four.report().fleet.questions,
        baseline.report().fleet.questions
    );
    assert!(four.report().fleet.accuracy > 0.8);
    println!(
        "4-shard speedup over running its shards serially: x{:.2} ({} threads)",
        four.report().parallel_speedup(),
        four.report().shards.len()
    );
}
