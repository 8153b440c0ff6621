//! Journal durability and crash-recovery edge cases.
//!
//! The contract under test: a fleet run journaled via [`FleetBuilder::journal`] can be
//! recovered from *any* crash signature the journal layer can exhibit — a torn final
//! frame, a write kill mid-run, a second write kill while resuming, or a journal that
//! already holds the whole run — and `Fleet::recover` resumes it to a report and
//! event stream identical (wall clock aside) to a run that never crashed. Corruption
//! that is *not* a crash signature (a flipped byte away from the tail, an altered commit
//! digest, a segment in an older format) must be rejected loudly, never silently
//! replayed.

mod common;

use std::path::Path;

use cdas::core::codec::BinCodec;
use cdas::core::types::HitId;
use cdas::core::CdasError;
use cdas::fixtures::demo_questions;
use cdas::prelude::*;
use common::TempDir;
use proptest::prelude::*;

fn temp_dir(name: &str) -> TempDir {
    TempDir::new("journal", name)
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

/// The same fleet without a journal — the uninterrupted baseline.
fn baseline(mode: ExecutionMode) -> FleetRun {
    builder().build().unwrap().run(mode).unwrap()
}

fn journaled(dir: &Path, config: JournalConfig) -> Fleet {
    builder()
        .journal(dir)
        .journal_config(config)
        .build()
        .unwrap()
}

const MODES: [ExecutionMode; 3] = [
    ExecutionMode::EndOfTime,
    ExecutionMode::Clocked,
    ExecutionMode::Parallel { shards: 2 },
];

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

/// The segment files of a journal, by name, with their bytes.
fn segment_files(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap())
        .filter(|entry| entry.path().extension().is_some_and(|e| e == "wal"))
        .map(|entry| (entry.file_name(), std::fs::read(entry.path()).unwrap()))
        .collect();
    files.sort();
    files
}

/// Total on-disk size of the journal's segments.
fn journal_bytes(dir: &Path) -> u64 {
    segment_files(dir)
        .iter()
        .map(|(_, bytes)| bytes.len() as u64)
        .sum()
}

#[test]
fn recovering_an_empty_journal_is_journal_empty() {
    // A directory that never existed is an I/O error, not an empty journal…
    let dir = temp_dir("empty");
    match Fleet::recover(&dir) {
        Err(CdasError::JournalIo { .. }) => {}
        other => panic!("expected JournalIo for a missing directory, got {other:?}"),
    }
    // …an existing directory with no segments (or a header-only segment) is empty.
    std::fs::create_dir_all(&dir).unwrap();
    match Fleet::recover(&dir) {
        Err(CdasError::JournalEmpty) => {}
        other => panic!("expected JournalEmpty, got {other:?}"),
    }
    let _ = Journal::create(&dir, JournalConfig::default()).unwrap();
    match Fleet::recover(&dir) {
        Err(CdasError::JournalEmpty) => {}
        other => panic!("expected JournalEmpty for a header-only journal, got {other:?}"),
    }
}

#[test]
fn journaled_runs_match_plain_runs_and_recovery_is_a_noop_resume() {
    for (i, mode) in MODES.iter().enumerate() {
        let expected = baseline(*mode);
        let dir = temp_dir(&format!("noop-{i}"));
        let run = journaled(&dir, JournalConfig::default())
            .run(*mode)
            .unwrap();
        assert_equals_baseline(&run, &expected, "journal-on run");

        // The journal holds the complete run: recovery replays it, re-pays nothing,
        // appends nothing new.
        let (recovered, report) = Fleet::recover(&dir).unwrap();
        assert_equals_baseline(&recovered, &expected, "no-op recovery");
        assert!(report.was_complete, "{mode:?}: journal held RunCompleted");
        assert!(!report.torn_tail);
        assert_eq!(report.resumed_hits, 0, "{mode:?}: nothing left to resume");
        assert!(report.recovered_hits > 0);
        assert!(
            (report.recovered_cost - expected.report().fleet.cost).abs() < 1e-12,
            "{mode:?}: every journaled dollar is accounted as recovered"
        );
    }
}

/// Twelve jobs of mixed shapes over one crowd: enough commits, committed in an order
/// other than `(job, seq)`, that summing their charges in commit order moves the
/// last bits of the total.
fn twelve_jobs(dir: &Path) -> Fleet {
    let mut builder = Fleet::builder()
        .crowd(
            CrowdSpec::clean(36, 0.8)
                .seed(2)
                .latency(LatencyModel::Exponential { mean: 4.0 }),
        )
        .journal(dir);
    for i in 0..12u64 {
        builder = builder.job(
            JobSpec::sentiment(format!("job-{i}"), demo_questions(5 + i % 4, 1 + i % 2))
                .workers(3 + (i % 3) as usize)
                .domain_size(3)
                .batch_size(3)
                .termination(TerminationStrategy::ExpMax),
        );
    }
    builder.build().unwrap()
}

#[test]
fn recovered_cost_equals_the_fleet_cost_bit_for_bit() {
    // Shard threads commit in host-timing order, and a clocked fleet commits in
    // completion order; recovery must still sum the charges the way the report does.
    for (i, mode) in [
        ExecutionMode::Clocked,
        ExecutionMode::Parallel { shards: 3 },
    ]
    .iter()
    .enumerate()
    {
        let dir = temp_dir(&format!("cost-bits-{i}"));
        let run = twelve_jobs(&dir).run(*mode).unwrap();
        let cost = run.report().fleet.cost;
        for attempt in 0..4 {
            let (recovered, report) = Fleet::recover(&dir).unwrap();
            assert!(report.was_complete, "{mode:?}: the journal is intact");
            assert_eq!(report.resumed_hits, 0, "{mode:?}");
            assert_eq!(
                report.recovered_cost.to_bits(),
                recovered.report().fleet.cost.to_bits(),
                "{mode:?} recovery {attempt}: recovered {} but the report says {}",
                report.recovered_cost,
                recovered.report().fleet.cost
            );
            assert_eq!(report.recovered_cost.to_bits(), cost.to_bits(), "{mode:?}");
        }
    }
}

/// A journal's encoded records grouped by job, in journal order within each group;
/// records of no one job (head, events, trailer) share the `None` group.
fn records_per_job(dir: &Path) -> std::collections::BTreeMap<Option<usize>, Vec<Vec<u8>>> {
    let mut groups = std::collections::BTreeMap::<_, Vec<_>>::new();
    for record in Journal::read(dir).unwrap().records {
        let job = match &record {
            JournalRecord::Dispatch(dispatch) => Some(dispatch.job.0),
            JournalRecord::Charge { job, .. } => Some(job.0),
            JournalRecord::Commit(commit) => Some(commit.job.0),
            _ => None,
        };
        groups.entry(job).or_default().push(record.to_bytes());
    }
    groups
}

#[test]
fn a_run_killed_after_its_head_record_recovers_to_the_fresh_runs_journal() {
    // A fresh journaled run is the recovery of a journal holding only its head
    // record, so killing the writer right after that record and recovering must
    // write the journal an uninterrupted run writes.
    for (i, mode) in MODES.iter().enumerate() {
        let fresh = temp_dir(&format!("head-fresh-{i}"));
        let expected = journaled(&fresh, JournalConfig::default())
            .run(*mode)
            .unwrap();
        let head = head_bytes(*mode, &format!("head-probe-{i}"));
        let dir = temp_dir(&format!("head-cut-{i}"));
        journaled(
            &dir,
            JournalConfig {
                fail_writes_after: Some(head),
                ..JournalConfig::default()
            },
        )
        .run(*mode)
        .unwrap();
        assert_eq!(
            journal_bytes(&dir),
            head,
            "{mode:?}: only the head survived"
        );

        let (run, report) = Fleet::recover(&dir).unwrap();
        assert_equals_baseline(&run, &expected, "recovery from the head record");
        let hits = expected
            .events()
            .iter()
            .filter(|e| matches!(e, FleetEvent::HitDispatched { .. }))
            .count();
        assert_eq!(report.recovered_hits, 0, "{mode:?}: nothing was journaled");
        assert_eq!(report.resumed_hits, hits, "{mode:?}: every HIT is resumed");
        if let ExecutionMode::Parallel { .. } = mode {
            // Shard threads interleave their appends; each job's order is fixed.
            assert_eq!(records_per_job(&dir), records_per_job(&fresh), "{mode:?}");
        } else {
            assert!(
                segment_files(&dir) == segment_files(&fresh),
                "{mode:?}: the recovered journal differs from the fresh run's"
            );
        }
    }
}

#[test]
fn a_torn_final_record_is_dropped_and_resumed() {
    let mode = ExecutionMode::Clocked;
    let expected = baseline(mode);
    let dir = temp_dir("torn");
    journaled(&dir, JournalConfig::default()).run(mode).unwrap();

    // Chop into the final frame (the RunCompleted trailer), leaving a torn tail.
    Journal::truncate_tail(&dir, 10).unwrap();
    let contents = Journal::read(&dir).unwrap();
    assert!(contents.torn_tail, "a mid-frame cut reads as a torn tail");

    let (recovered, report) = Fleet::recover(&dir).unwrap();
    assert_equals_baseline(&recovered, &expected, "torn-tail recovery");
    assert!(report.torn_tail);
    assert!(!report.was_complete, "the trailer was in the torn frame");

    // The repaired journal is complete: recovering again is a clean no-op.
    let (_, second) = Fleet::recover(&dir).unwrap();
    assert!(second.was_complete);
    assert!(!second.torn_tail);
}

#[test]
fn corruption_away_from_the_tail_is_rejected() {
    let dir = temp_dir("corrupt");
    journaled(&dir, JournalConfig::default())
        .run(ExecutionMode::Clocked)
        .unwrap();
    // Flip a payload byte of the very first frame (RunStarted): 16-byte segment header,
    // 8-byte frame header, then payload. Nowhere near the tail, so this must be
    // corruption, not a crash signature.
    let len = journal_bytes(&dir);
    Journal::corrupt_tail_byte(&dir, len - 16 - 8 - 2).unwrap();
    match Fleet::recover(&dir) {
        Err(CdasError::JournalCorrupt { segment, .. }) => {
            assert!(
                segment.contains("segment-000000"),
                "damage is in segment 0: {segment}"
            )
        }
        other => panic!("expected JournalCorrupt in segment 0, got {other:?}"),
    }
    match Journal::read(&dir) {
        Err(CdasError::JournalCorrupt { .. }) => {}
        other => panic!("read must reject it too, got {other:?}"),
    }
}

#[test]
fn a_second_crash_during_resume_recovers_to_a_complete_journal() {
    let mode = ExecutionMode::Clocked;
    let expected = baseline(mode);

    // Find where the journal's middle commit ends: the segment header, then each
    // frame's 8-byte header and payload, up to and including that commit's frame.
    let probe = temp_dir("second-crash-probe");
    journaled(&probe, JournalConfig::default())
        .run(mode)
        .unwrap();
    let contents = Journal::read(&probe).unwrap();
    assert_eq!(
        contents.segments, 1,
        "the probe journal fits in one segment"
    );
    let commits = contents
        .records
        .iter()
        .filter(|record| matches!(record, JournalRecord::Commit(_)))
        .count();
    assert!(commits >= 2, "the fleet commits more than one batch");
    let mut cut = 16;
    let mut seen = 0;
    for record in &contents.records {
        cut += 8 + record.to_bytes().len() as u64;
        if matches!(record, JournalRecord::Commit(_)) {
            seen += 1;
            if seen == commits / 2 {
                break;
            }
        }
    }

    // Crash the journal right after that commit (the run itself finishes; the
    // journal's on-disk state is frozen at the write kill, like a power cut)…
    let dir = temp_dir("second-crash");
    journaled(
        &dir,
        JournalConfig {
            fail_writes_after: Some(cut),
            ..JournalConfig::default()
        },
    )
    .run(mode)
    .unwrap();

    // …resume it with the journal crashing *again* partway through the resumed tail…
    let (run, report) = Fleet::recover_with_config(
        &dir,
        JournalConfig {
            fail_writes_after: Some(512),
            ..JournalConfig::default()
        },
    )
    .unwrap();
    assert_equals_baseline(&run, &expected, "resume killed again");
    assert!(!report.was_complete);
    assert!(report.recovered_hits > 0, "journaled commits were matched");

    // …and recover once more from the twice-crashed journal, to a complete journal.
    let (run, report) = Fleet::recover(&dir).unwrap();
    assert_equals_baseline(&run, &expected, "recover after the second crash");
    assert!(
        !report.was_complete,
        "the resume was killed before its trailer"
    );
    let (_, finished) = Fleet::recover(&dir).unwrap();
    assert!(finished.was_complete, "third recovery is a no-op");
    assert_eq!(
        report.recovered_hits + report.resumed_hits,
        finished.recovered_hits,
        "recovered + resumed converges to the full run's commit count"
    );
}

#[test]
fn an_altered_commit_digest_diverges_naming_its_job_and_seq() {
    let dir = temp_dir("altered-digest");
    journaled(&dir, JournalConfig::default())
        .run(ExecutionMode::Clocked)
        .unwrap();
    let original = Journal::read(&dir).unwrap();
    // Rewrite the journal with the last commit's fingerprint flipped by one bit.
    let last_commit = original
        .records
        .iter()
        .rposition(|record| matches!(record, JournalRecord::Commit(_)))
        .expect("the run committed batches");
    let mut journal = Journal::create(&dir, JournalConfig::default()).unwrap();
    let mut altered = None;
    for (i, record) in original.records.iter().enumerate() {
        match record {
            JournalRecord::Commit(digest) if i == last_commit => {
                let mut digest = digest.clone();
                digest.digest ^= 1;
                altered = Some((digest.job.0, digest.seq));
                journal.append(&JournalRecord::Commit(digest)).unwrap();
            }
            _ => journal.append(record).unwrap(),
        }
    }
    journal.sync().unwrap();
    drop(journal);
    let (job, seq) = altered.unwrap();
    match Fleet::recover(&dir) {
        Err(CdasError::JournalDiverged { detail }) => assert!(
            detail.contains(&format!("job {job} seq {seq}")),
            "detail names the altered commit (job {job} seq {seq}): {detail}"
        ),
        other => panic!("expected JournalDiverged, got {other:?}"),
    }
}

#[test]
fn a_segment_in_the_old_format_is_corrupt() {
    let dir = temp_dir("old-format");
    journaled(&dir, JournalConfig::default())
        .run(ExecutionMode::Clocked)
        .unwrap();
    // Stamp an earlier format's magic over the segment header: its records would
    // decode as something else, digest commits differently, or re-execute to other
    // dispatches, so the whole segment must be refused.
    let segment = dir.join("segment-000000.wal");
    let current = std::fs::read(&segment).unwrap();
    assert_eq!(current.get(..8), Some(b"CDASWAL5".as_slice()));
    for old_magic in [*b"CDASWAL1", *b"CDASWAL2", *b"CDASWAL3", *b"CDASWAL4"] {
        let mut bytes = current.clone();
        bytes.splice(..8, old_magic);
        std::fs::write(&segment, bytes).unwrap();
        for result in [
            Journal::read(&dir).map(|_| ()),
            Fleet::recover(&dir).map(|_| ()),
        ] {
            match result {
                Err(CdasError::JournalCorrupt {
                    segment, detail, ..
                }) => {
                    assert!(segment.contains("segment-000000"), "{segment}");
                    assert!(detail.contains("magic"), "{detail}");
                }
                other => panic!("expected JournalCorrupt, got {other:?}"),
            }
        }
    }
}

#[test]
fn group_commit_batches_fsyncs() {
    let dir = temp_dir("groupcommit-batch");
    let config = JournalConfig {
        sync: SyncPolicy::GroupCommit {
            max_batch: 4,
            max_delay_ms: 60_000,
        },
        ..JournalConfig::default()
    };
    let mut journal = Journal::create(&dir, config).unwrap();
    let commit = |i: usize| JournalRecord::RunCompleted {
        cost: i as f64,
        questions: i,
        makespan: 1.0,
    };
    for i in 0..8 {
        journal.append(&commit(i)).unwrap();
    }
    assert_eq!(
        journal.syncs_performed(),
        2,
        "8 commit-class records at max_batch 4 cost exactly 2 fsyncs"
    );
    assert_eq!(journal.pending_commits(), 0, "both groups were closed");
    for i in 8..11 {
        journal.append(&commit(i)).unwrap();
    }
    assert_eq!(journal.syncs_performed(), 2, "a partial group stays open");
    assert_eq!(journal.pending_commits(), 3);
    journal.sync().unwrap();
    assert_eq!(
        journal.syncs_performed(),
        3,
        "explicit sync closes the group"
    );
    assert_eq!(journal.pending_commits(), 0);
    let contents = Journal::read(&dir).unwrap();
    assert_eq!(contents.records.len(), 11, "every record survived");
}

#[test]
fn group_commit_delay_bounds_unsynced_commits() {
    let dir = temp_dir("groupcommit-delay");
    // With a zero delay, any commit joining an already-open group is overdue.
    let config = JournalConfig {
        sync: SyncPolicy::GroupCommit {
            max_batch: usize::MAX,
            max_delay_ms: 0,
        },
        ..JournalConfig::default()
    };
    let mut journal = Journal::create(&dir, config).unwrap();
    let commit = JournalRecord::RunCompleted {
        cost: 0.0,
        questions: 1,
        makespan: 1.0,
    };
    journal.append(&commit).unwrap();
    assert_eq!(
        journal.syncs_performed(),
        0,
        "the first commit opens the group"
    );
    assert_eq!(journal.pending_commits(), 1);
    journal.append(&commit).unwrap();
    assert_eq!(
        journal.syncs_performed(),
        1,
        "the overdue group was flushed"
    );
    assert_eq!(journal.pending_commits(), 0);
}

#[test]
fn group_commit_runs_recover_like_default_sync() {
    let mode = ExecutionMode::Clocked;
    let expected = baseline(mode);
    let dir = temp_dir("groupcommit-run");
    let run = journaled(
        &dir,
        JournalConfig {
            sync: SyncPolicy::GroupCommit {
                max_batch: 8,
                max_delay_ms: 50,
            },
            ..JournalConfig::default()
        },
    )
    .run(mode)
    .unwrap();
    assert_equals_baseline(&run, &expected, "group-commit run");
    let (recovered, report) = Fleet::recover(&dir).unwrap();
    assert_equals_baseline(&recovered, &expected, "group-commit recovery");
    assert!(
        report.was_complete,
        "the run-completion sync made the whole journal durable"
    );
}

#[test]
fn a_foreign_record_in_the_journal_diverges() {
    let dir = temp_dir("diverged");
    journaled(&dir, JournalConfig::default())
        .run(ExecutionMode::Clocked)
        .unwrap();
    // Append a charge for a job this run never had.
    let (mut journal, _) = Journal::open_append(&dir, JournalConfig::default()).unwrap();
    journal
        .append(&JournalRecord::Charge {
            job: JobId(99),
            hit: HitId(0),
            amount: 0.25,
            at: 1.0,
        })
        .unwrap();
    journal.sync().unwrap();
    match Fleet::recover(&dir) {
        Err(CdasError::JournalDiverged { detail }) => {
            assert!(
                detail.contains("99"),
                "detail names the bogus job: {detail}"
            )
        }
        other => panic!("expected JournalDiverged, got {other:?}"),
    }
}

#[test]
fn a_journal_from_a_different_crowd_diverges() {
    // Journal a run, then overwrite the journal with a *different* fleet's journal head
    // but graft the first fleet's tail records onto it: replay must notice the grafted
    // records never happen.
    let dir = temp_dir("foreign");
    journaled(&dir, JournalConfig::default())
        .run(ExecutionMode::Clocked)
        .unwrap();
    let original = Journal::read(&dir).unwrap();
    let other = Fleet::builder()
        .crowd(CrowdSpec::clean(12, 0.85).seed(99))
        .job(
            JobSpec::sentiment("alpha", demo_questions(6, 2))
                .workers(4)
                .domain_size(3)
                .batch_size(3),
        )
        .build()
        .unwrap();
    let mut journal = Journal::create(&dir, JournalConfig::default()).unwrap();
    journal
        .append(&JournalRecord::RunStarted(
            other.run_config(ExecutionMode::Clocked).unwrap(),
        ))
        .unwrap();
    for record in &original.records {
        if matches!(record, JournalRecord::Commit(_)) {
            journal.append(record).unwrap();
        }
    }
    journal.sync().unwrap();
    drop(journal);
    match Fleet::recover(&dir) {
        Err(CdasError::JournalDiverged { .. }) => {}
        other => panic!("expected JournalDiverged, got {other:?}"),
    }
}

proptest! {
    /// The headline durability property: kill the journal's writer at a random byte,
    /// in every execution mode — recover-then-resume always reproduces the
    /// uninterrupted run, re-journals it completely, and a second recovery is a no-op.
    #[test]
    fn recover_after_a_random_write_kill(frac in 0.0f64..1.0, mode_idx in 0usize..3) {
        let mode = MODES[mode_idx];
        let expected = baseline(mode);
        let dir = temp_dir(&format!("kill-{mode_idx}-{}", (frac * 1e6) as u64));

        // Bound the kill below by the head record so a RunStarted always survives
        // (a journal cut inside its head is unrecoverable by design) and above by the
        // full journal size (no kill at all).
        let head = head_bytes(mode, &format!("kill-head-{mode_idx}-{}", (frac * 1e6) as u64));
        let full = {
            let probe = temp_dir(&format!("kill-full-{mode_idx}-{}", (frac * 1e6) as u64));
            journaled(&probe, JournalConfig::default()).run(mode).unwrap();
            journal_bytes(&probe)
        };
        let cut = head + 1 + ((full.saturating_sub(head + 1)) as f64 * frac) as u64;

        journaled(
            &dir,
            JournalConfig { fail_writes_after: Some(cut), ..JournalConfig::default() },
        )
        .run(mode)
        .unwrap();

        let (run, report) = Fleet::recover(&dir).unwrap();
        assert_equals_baseline(&run, &expected, "write-kill recovery");
        prop_assert_eq!(
            report.recovered_hits + report.resumed_hits,
            expected.events().iter().filter(|e| matches!(e, FleetEvent::HitDispatched { .. })).count(),
            "every dispatched HIT is either recovered or resumed"
        );
        prop_assert!((report.total_cost() - expected.report().fleet.cost).abs() < 1e-9);

        let (_, second) = Fleet::recover(&dir).unwrap();
        prop_assert!(second.was_complete, "recovery left a complete journal");
        prop_assert_eq!(second.resumed_hits, 0);
    }

    /// Truncate a random number of bytes off the journal's tail: recovery must either
    /// repair and resume to the uninterrupted run, or (when the cut reaches into the
    /// head record) report the journal as unrecoverable — never anything in between.
    #[test]
    fn recover_after_a_random_tail_truncation(frac in 0.0f64..1.0, mode_idx in 0usize..3) {
        let mode = MODES[mode_idx];
        let expected = baseline(mode);
        let dir = temp_dir(&format!("trunc-{mode_idx}-{}", (frac * 1e6) as u64));
        let head = head_bytes(mode, &format!("trunc-head-{mode_idx}-{}", (frac * 1e6) as u64));
        journaled(&dir, JournalConfig::default()).run(mode).unwrap();
        let full = journal_bytes(&dir);
        let cut = 1 + ((full - 1) as f64 * frac) as u64;
        Journal::truncate_tail(&dir, cut).unwrap();
        match Fleet::recover(&dir) {
            Ok((run, report)) => {
                assert_equals_baseline(&run, &expected, "truncation recovery");
                let (_, second) = Fleet::recover(&dir).unwrap();
                prop_assert!(second.was_complete);
                prop_assert_eq!(report.recovered_hits + report.resumed_hits, second.recovered_hits);
            }
            Err(CdasError::JournalEmpty) => {
                // The cut reached into the head record: nothing to recover.
                prop_assert!(
                    full - cut < head,
                    "only a cut into the head frame may read as empty (kept {} of {full}, head {head})",
                    full - cut
                );
            }
            Err(other) => panic!("unexpected recovery error: {other:?}"),
        }
    }

    /// Flip a random byte near the journal's tail. Whatever the byte hits — a CRC, a
    /// length field, payload — recovery must never silently produce a WRONG run: it
    /// either errors, or resumes to exactly the uninterrupted run (possible when the
    /// flip reads as a torn tail and the damage is dropped).
    #[test]
    fn a_random_tail_flip_never_silently_corrupts(offset in 1u64..64, mode_idx in 0usize..3) {
        let mode = MODES[mode_idx];
        let expected = baseline(mode);
        let dir = temp_dir(&format!("flip-{mode_idx}-{offset}"));
        journaled(&dir, JournalConfig::default()).run(mode).unwrap();
        Journal::corrupt_tail_byte(&dir, offset).unwrap();
        if let Ok((run, _)) = Fleet::recover(&dir) {
            assert_equals_baseline(&run, &expected, "tail-flip recovery");
        }
    }
}

/// Bytes the journal holds once the head (`RunStarted`) record is appended — segment
/// header included. Measured by appending a real head record to a probe journal.
fn head_bytes(mode: ExecutionMode, probe_name: &str) -> u64 {
    let probe = temp_dir(probe_name);
    let fleet = builder().build().unwrap();
    let mut journal = Journal::create(&probe, JournalConfig::default()).unwrap();
    journal
        .append(&JournalRecord::RunStarted(fleet.run_config(mode).unwrap()))
        .unwrap();
    journal.bytes_written()
}
