//! Fault-injection harness: kill threads mid-run, then prove recovery.
//!
//! Where `tests/journal_recovery.rs` attacks the journal's *bytes* (write kills,
//! truncation, corruption), this suite attacks the *process*: a [`FailpointPlatform`]
//! panics mid-poll — on the single platform of an `EndOfTime`/`Clocked` run, or on one
//! shard thread of a `Parallel` run (the kill -9 drill) — and `Fleet::recover` must
//! resume the journaled wreckage to a run indistinguishable from one that never
//! crashed, without re-paying any HIT the crashed run already committed.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Once;

use cdas::core::CdasError;
use cdas::crowd::failpoint::FAILPOINT_PANIC;
use cdas::fixtures::demo_questions;
use cdas::prelude::*;
use common::TempDir;
use proptest::prelude::*;

/// Keep the default panic hook from spamming stderr with the injected panics the
/// proptests below throw by the dozen; genuine panics still print.
fn silence_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
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
    });
}

fn temp_dir(name: &str) -> TempDir {
    TempDir::new("fault", name)
}

fn crowd() -> CrowdSpec {
    CrowdSpec::clean(12, 0.85)
        .seed(11)
        .latency(LatencyModel::Exponential { mean: 4.0 })
}

fn builder() -> FleetBuilder<CrowdSpec> {
    Fleet::builder()
        .crowd(crowd())
        .job(
            JobSpec::sentiment("alpha", demo_questions(6, 2))
                .workers(4)
                .domain_size(3)
                .batch_size(3),
        )
        .job(
            JobSpec::sentiment("beta", demo_questions(5, 1))
                .workers(3)
                .domain_size(3)
                .batch_size(5),
        )
}

fn baseline(mode: ExecutionMode) -> FleetRun {
    builder().build().unwrap().run(mode).unwrap()
}

fn journaled(dir: &Path) -> Fleet {
    builder().journal(dir).build().unwrap()
}

fn assert_equals_baseline(run: &FleetRun, expected: &FleetRun, context: &str) {
    assert_eq!(
        run.report().ignoring_wall_clock(),
        expected.report().ignoring_wall_clock(),
        "{context}: report differs from the uninterrupted run"
    );
    assert_eq!(
        run.events(),
        expected.events(),
        "{context}: event stream differs from the uninterrupted run"
    );
}

/// Crash a journaled run via the given failpoints and return whether it actually died.
fn crash(fleet: &Fleet, mode: ExecutionMode, failpoints: FleetFailpoints) -> bool {
    match catch_unwind(AssertUnwindSafe(|| {
        fleet.run_with_failpoints(mode, failpoints)
    })) {
        Ok(result) => {
            result.expect("an un-crashed run must succeed");
            false
        }
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(message, FAILPOINT_PANIC, "only the injected crash may fire");
            true
        }
    }
}

/// The kill -9 regression drill: abort one shard thread of a 2-shard parallel run,
/// recover, and prove the healthy shard's journaled work was **not** re-paid.
#[test]
fn killing_a_shard_thread_recovers_without_double_paying() {
    silence_injected_panics();
    let mode = ExecutionMode::Parallel { shards: 2 };
    let expected = baseline(mode);
    let dir = temp_dir("shard-kill");
    let fleet = journaled(&dir);
    assert!(
        crash(
            &fleet,
            mode,
            FleetFailpoints::on_shard(1, Failpoint::after_polls(3))
        ),
        "shard 1 must die mid-run"
    );

    let (run, report) = Fleet::recover(&dir).unwrap();
    assert_equals_baseline(&run, &expected, "shard-kill recovery");
    assert!(!report.was_complete, "the crashed journal had no trailer");
    assert!(
        report.recovered_hits > 0,
        "the healthy shard's commits were journaled and matched, not re-paid"
    );
    assert!(
        report.resumed_hits > 0,
        "the dead shard's unfinished work was resumed"
    );
    let dispatched = expected
        .events()
        .iter()
        .filter(|e| matches!(e, FleetEvent::HitDispatched { .. }))
        .count();
    assert_eq!(
        report.recovered_hits + report.resumed_hits,
        dispatched,
        "every HIT is paid exactly once across crash and resume"
    );
    assert!(
        (report.total_cost() - expected.report().fleet.cost).abs() < 1e-9,
        "recovered + resumed dollars equal the uninterrupted run's cost"
    );

    // The resumed journal is complete: a second recovery re-pays nothing at all.
    let (_, second) = Fleet::recover(&dir).unwrap();
    assert!(second.was_complete);
    assert_eq!(second.resumed_hits, 0);
}

/// The crash matrix: a platform failpoint in each execution mode, at an early and a
/// late poll. Recovery always reproduces the uninterrupted run.
#[test]
fn crash_matrix_across_all_modes() {
    silence_injected_panics();
    for (m, mode) in [
        ExecutionMode::EndOfTime,
        ExecutionMode::Clocked,
        ExecutionMode::Parallel { shards: 2 },
    ]
    .into_iter()
    .enumerate()
    {
        let expected = baseline(mode);
        // An EndOfTime run polls each HIT exactly once (4 batches here), so its "late"
        // crash comes at poll 3; the clocked modes poll per arrival event and go longer.
        let late = if mode == ExecutionMode::EndOfTime {
            3
        } else {
            9
        };
        for polls in [0, 2, late] {
            let dir = temp_dir(&format!("matrix-{m}-{polls}"));
            let fleet = journaled(&dir);
            assert!(
                crash(
                    &fleet,
                    mode,
                    FleetFailpoints::platform(Failpoint::after_polls(polls))
                ),
                "{mode:?}: a {polls}-poll failpoint must fire before the run completes"
            );
            let (run, report) = Fleet::recover(&dir).unwrap();
            assert_equals_baseline(&run, &expected, &format!("{mode:?} after {polls} polls"));
            assert!(!report.was_complete);
        }
    }
}

/// A journal is required to recover a crash: without one, the wreckage is just a panic.
#[test]
fn recovering_an_unjournaled_crash_has_nothing_to_recover() {
    silence_injected_panics();
    let dir = temp_dir("unjournaled");
    std::fs::create_dir_all(&dir).unwrap();
    let fleet = builder().build().unwrap();
    assert!(crash(
        &fleet,
        ExecutionMode::Clocked,
        FleetFailpoints::platform(Failpoint::after_polls(1)),
    ));
    match Fleet::recover(&dir) {
        Err(CdasError::JournalEmpty) => {}
        other => panic!("expected JournalEmpty, got {other:?}"),
    }
}

proptest! {
    /// Abort a random shard after a random number of polls, across 1- and 2-shard
    /// parallel runs. Whether or not the failpoint fires before the run finishes,
    /// recover-then-resume equals never-crashed.
    #[test]
    fn shard_abort_then_recover_equals_never_crashed(
        polls in 0u64..60,
        shard in 0usize..2,
        shards in 1usize..3,
    ) {
        silence_injected_panics();
        let mode = ExecutionMode::Parallel { shards };
        let expected = baseline(mode);
        let dir = temp_dir(&format!("abort-{polls}-{shard}-{shards}"));
        let fleet = journaled(&dir);
        let died = crash(
            &fleet,
            mode,
            FleetFailpoints::on_shard(shard.min(shards - 1), Failpoint::after_polls(polls)),
        );
        let (run, report) = Fleet::recover(&dir).unwrap();
        assert_equals_baseline(&run, &expected, "shard-abort recovery");
        prop_assert_eq!(report.was_complete, !died, "a run that survived journaled its trailer");
        let dispatched = expected
            .events()
            .iter()
            .filter(|e| matches!(e, FleetEvent::HitDispatched { .. }))
            .count();
        prop_assert_eq!(report.recovered_hits + report.resumed_hits, dispatched);
        prop_assert!((report.total_cost() - expected.report().fleet.cost).abs() < 1e-9);
    }
}
