//! The CDAS benchmark. One command generates a named workload from a seed, drives it
//! through the program's public API from one process, checks the outputs, and prints
//! every metric by name with its unit; the last line of standard output is the JSON
//! result.
//!
//! ```text
//! cdas-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with `--trace 1` it runs
//! the workload again through a hand-wired engine room whose layers are timed from
//! outside, and reports the per-layer metrics. With `--burst 1` it measures one burst
//! of program set-ups and prints the samples; an untraced run starts itself that way
//! so that every burst runs in a fresh process. Journals and span files live under
//! `.perfbench/` in the working directory. See `perfbench/README.md`.

mod common;
mod disk;
mod fleet;
mod inputs;
mod layers;
mod recover;
mod report;
mod room;
mod service;
mod stats;
mod trace;

use std::path::PathBuf;

use cdas_crowd::failpoint::FAILPOINT_PANIC;
use cdas_crowd::spec::CrowdSpec;
use cdas_engine::journal::JournalConfig;
use cdas_engine::service::ServiceConfig;

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

const WORKLOADS: [&str; 4] = [
    "fleet-contended",
    "fleet-widecrowd",
    "service-durable",
    "fleet-recover",
];

const USAGE: &str =
    "usage: cdas-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Measure one burst of set-ups and print its samples (see `common::set_up_in_child`).
    burst: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> std::result::Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut burst = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(|| {
                        format!("unknown workload {value:?}; one of {WORKLOADS:?}")
                    })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--burst" => burst = value == "1",
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        burst,
    })
}

/// The flush policy of each journal the workloads write, read from the program's own
/// defaults.
fn journal_note() -> String {
    let service = ServiceConfig::new(CrowdSpec::paper());
    format!(
        "journals: manifest {:?}, run journals {:?}, recovery {:?}",
        JournalConfig::default().sync,
        service.run_journal.sync,
        JournalConfig::default().sync,
    )
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("cdas-perfbench: {problem}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The recovery workload crashes a run on purpose; keep that panic quiet.
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|message| message == FAILPOINT_PANIC);
        if !injected {
            previous(info);
        }
    }));

    let root = PathBuf::from(".perfbench");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    let created = std::fs::create_dir_all(&work);
    if args.burst {
        let burst = created
            .map_err(Into::into)
            .and_then(|()| burst(&args, &work));
        let _ = std::fs::remove_dir_all(&work);
        match burst {
            Ok(window) => common::print_burst(&window),
            Err(e) => {
                eprintln!("cdas-perfbench: {} set-up burst failed: {e}", args.workload);
                std::process::exit(1);
            }
        }
        return;
    }
    let result = created
        .map_err(Into::into)
        .and_then(|()| run(&args, &work, &root));
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(outcome) => {
            println!("{}", journal_note());
            println!(
                "  journal directory: {}",
                std::fs::canonicalize(&root).unwrap_or(root).display()
            );
            outcome.print(args.trace);
        }
        Err(e) => {
            eprintln!("cdas-perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

fn burst(args: &Args, work: &std::path::Path) -> Result<common::Window> {
    match args.workload {
        "fleet-contended" => fleet::burst(&fleet::CONTENDED, args.seed),
        "fleet-widecrowd" => fleet::burst(&fleet::WIDECROWD, args.seed),
        "service-durable" => service::burst(args.seed, work),
        _ => recover::burst(args.seed),
    }
}

fn run(args: &Args, work: &std::path::Path, root: &std::path::Path) -> Result<report::Outcome> {
    println!(
        "{} seed {} for {}s ({})",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    let (seed, seconds) = (args.seed, args.seconds);
    if !args.trace {
        return match args.workload {
            "fleet-contended" => fleet::measure(&fleet::CONTENDED, seed, seconds, work),
            "fleet-widecrowd" => fleet::measure(&fleet::WIDECROWD, seed, seconds, work),
            "service-durable" => service::measure(seed, seconds, work),
            _ => recover::measure(seed, seconds, work),
        };
    }
    let (outcome, trace) = match args.workload {
        "fleet-contended" => fleet::trace(&fleet::CONTENDED, seed, seconds)?,
        "fleet-widecrowd" => fleet::trace(&fleet::WIDECROWD, seed, seconds)?,
        "service-durable" => service::trace(seed, seconds, work)?,
        _ => recover::trace(seed, seconds, work)?,
    };
    let path = root.join(format!("trace-{}.tsv", args.workload));
    trace.write_tsv(&path)?;
    println!("  spans of the last traced iteration: {}", path.display());
    Ok(outcome)
}
