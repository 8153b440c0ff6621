//! The run-journal writer, and crash recovery as deterministic re-execution
//! cross-checked against the journaled history.
//!
//! A fleet run is a pure function of its [`RunConfig`] (up to wall clock), so the
//! journal does not need to checkpoint live scheduler state: [`crate::fleet::Fleet::recover`]
//! rebuilds the fleet from the journal's head record and *re-executes* the run, while a
//! [`RecoveryObserver`] matches every dispatch, charge, and commit the re-execution
//! produces against the journaled prefix:
//!
//! - a replayed record that matches the journal's next record for that job **consumes**
//!   it — that work was already journaled (and, for commits, already paid for) by the
//!   crashed run, so it is *recovered*, not re-appended and not re-paid. A replayed
//!   commit matches when its [`CommitDigest`] equals the journaled one;
//! - a replayed record with no journaled counterpart is *resumed* work: appended to the
//!   journal exactly as a live run would have;
//! - a replayed record that **contradicts** its journaled counterpart aborts recovery
//!   with [`CdasError::JournalDiverged`] — the journal belongs to a different
//!   configuration or was tampered with.
//!
//! Matching is keyed per job (and per `(job, seq)` for commits) because parallel runs
//! interleave shards nondeterministically while every job's own record order stays
//! deterministic.
//!
//! [`RecoveryObserver`] is the only writer of a run journal after its head record. A
//! fresh journaled run ([`crate::fleet::Fleet::run`]) is the recovery of a journal that
//! holds nothing but its `RunStarted` record: its prefix is empty, so every record the
//! run produces is resumed work, appended as it happens, and
//! [`RecoveryObserver::finish`] appends the event stream and the `RunCompleted` trailer.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

use cdas_core::types::HitId;
use cdas_core::{CdasError, Result};

use crate::fleet::FleetEvent;
use crate::scheduler::{BatchCommit, DispatchRecord, JobId, RunObserver};

use super::record::{CommitDigest, JournalRecord, RunConfig};
use super::{Journal, JournalContents};

/// What recovery found in the journal and what the resumed run added.
///
/// `recovered` figures come from records already journaled by the crashed run — work
/// (and money) that was **not** redone; `resumed` figures come from records the resumed
/// run appended. For an intact journal of a finished run, `resumed` is zero and
/// [`was_complete`](Self::was_complete) is true.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a RecoveryReport says how much journaled work (and money) was reused; dropping it discards that accounting"]
pub struct RecoveryReport {
    /// The journal already held a `RunCompleted` trailer (recovery was a no-op resume).
    pub was_complete: bool,
    /// A torn frame was dropped from the journal's tail (crash signature).
    pub torn_tail: bool,
    /// Batch commits matched against the journal (work already paid by the crashed run).
    pub recovered_hits: usize,
    /// Batch commits the resumed run appended (work paid after recovery).
    pub resumed_hits: usize,
    /// Requester cost of the recovered commits, summed in `(job, seq)` order as the
    /// fleet report sums its cost: for an intact journal it equals
    /// `report.fleet.cost` bit for bit, in every execution mode.
    pub recovered_cost: f64,
    /// Requester cost of the resumed commits, summed in `(job, seq)` order.
    pub resumed_cost: f64,
}

impl RecoveryReport {
    /// Total batch commits across the crashed and resumed portions.
    pub fn total_hits(&self) -> usize {
        self.recovered_hits + self.resumed_hits
    }

    /// Total requester cost across the crashed and resumed portions.
    pub fn total_cost(&self) -> f64 {
        self.recovered_cost + self.resumed_cost
    }
}

/// The journal's records, assembled into the per-job state recovery matches against.
#[derive(Debug)]
pub struct JournalReplay {
    /// The run configuration from the head record (`RunStarted`).
    pub config: RunConfig,
    /// Journaled dispatches, per job, in journal order.
    pub dispatches: Vec<VecDeque<DispatchRecord>>,
    /// Journaled commit digests keyed by `(job, seq)`.
    pub commits: BTreeMap<(usize, usize), CommitDigest>,
    /// Journaled per-poll charges, per job, as `(hit, amount bits, at bits)`.
    pub charges: Vec<VecDeque<(HitId, u64, u64)>>,
    /// Journaled fleet events (only present once a run finished, or partially if the
    /// crash hit the event flush).
    pub events: Vec<FleetEvent>,
    /// The `RunCompleted` trailer, if the run finished: `(cost, questions, makespan)`.
    pub completed: Option<(f64, usize, f64)>,
    /// Whether the journal's tail was torn.
    pub torn_tail: bool,
}

fn diverged(detail: impl Into<String>) -> CdasError {
    CdasError::JournalDiverged {
        detail: detail.into(),
    }
}

impl JournalReplay {
    /// Assemble a journal's records. Fails with [`CdasError::JournalEmpty`] when no head
    /// record is present and [`CdasError::JournalDiverged`] on structural inconsistencies
    /// (a second head record, a record for an unknown job, a duplicate commit).
    pub fn assemble(contents: &JournalContents) -> Result<Self> {
        let mut replay: Option<JournalReplay> = None;
        for record in &contents.records {
            match record {
                JournalRecord::RunStarted(config) => {
                    if replay.is_some() {
                        return Err(diverged("second RunStarted record"));
                    }
                    replay = Some(JournalReplay::empty(config.clone(), contents.torn_tail));
                }
                JournalRecord::Dispatch(dispatch) => {
                    let replay = replay
                        .as_mut()
                        .ok_or_else(|| diverged("Dispatch before a head record"))?;
                    let job = dispatch.job.0;
                    replay
                        .dispatches
                        .get_mut(job)
                        .ok_or_else(|| diverged(format!("dispatch for unknown job {job}")))?
                        .push_back(dispatch.clone());
                }
                JournalRecord::Charge {
                    job,
                    hit,
                    amount,
                    at,
                } => {
                    let replay = replay
                        .as_mut()
                        .ok_or_else(|| diverged("Charge before a head record"))?;
                    replay
                        .charges
                        .get_mut(job.0)
                        .ok_or_else(|| diverged(format!("charge for unknown job {}", job.0)))?
                        .push_back((*hit, amount.to_bits(), at.to_bits()));
                }
                JournalRecord::Commit(commit) => {
                    let replay = replay
                        .as_mut()
                        .ok_or_else(|| diverged("Commit before a head record"))?;
                    if commit.job.0 >= replay.dispatches.len() {
                        return Err(diverged(format!("commit for unknown job {}", commit.job.0)));
                    }
                    let key = (commit.job.0, commit.seq);
                    if replay.commits.insert(key, commit.clone()).is_some() {
                        return Err(diverged(format!(
                            "duplicate commit for job {} seq {}",
                            key.0, key.1
                        )));
                    }
                }
                JournalRecord::Event(event) => {
                    let replay = replay
                        .as_mut()
                        .ok_or_else(|| diverged("Event before a head record"))?;
                    replay.events.push(event.clone());
                }
                JournalRecord::RunCompleted {
                    cost,
                    questions,
                    makespan,
                } => {
                    let replay = replay
                        .as_mut()
                        .ok_or_else(|| diverged("RunCompleted before a head record"))?;
                    replay.completed = Some((*cost, *questions, *makespan));
                }
                JournalRecord::ServiceOpened(_)
                | JournalRecord::ServiceSubmitted(_)
                | JournalRecord::ServiceEpochStarted { .. }
                | JournalRecord::ServiceEpochCompleted { .. }
                | JournalRecord::ServiceClosed { .. } => {
                    return Err(diverged(
                        "service manifest record inside a run journal \
                         (the directories were mixed up)",
                    ));
                }
            }
        }
        replay.ok_or(CdasError::JournalEmpty)
    }

    /// The replay of a journal holding only the head record for `config`.
    pub(crate) fn empty(config: RunConfig, torn_tail: bool) -> Self {
        let jobs = config.jobs.len();
        JournalReplay {
            config,
            dispatches: (0..jobs).map(|_| VecDeque::new()).collect(),
            commits: BTreeMap::new(),
            charges: (0..jobs).map(|_| VecDeque::new()).collect(),
            events: Vec::new(),
            completed: None,
            torn_tail,
        }
    }
}

struct RecoveryState {
    journal: Journal,
    dispatches: Vec<VecDeque<DispatchRecord>>,
    commits: BTreeMap<(usize, usize), CommitDigest>,
    charges: Vec<VecDeque<(HitId, u64, u64)>>,
    journaled_events: Vec<FleetEvent>,
    completed: Option<(f64, usize, f64)>,
    torn_tail: bool,
    divergence: Option<String>,
    failure: Option<CdasError>,
    /// The charge of each recovered commit, by `(job, seq)`.
    recovered: BTreeMap<(usize, usize), f64>,
    /// The charge of each resumed commit, by `(job, seq)`.
    resumed: BTreeMap<(usize, usize), f64>,
}

impl RecoveryState {
    fn append(&mut self, record: &JournalRecord) {
        if self.failure.is_some() {
            return;
        }
        if let Err(e) = self.journal.append(record) {
            self.failure = Some(e);
        }
    }

    fn diverge(&mut self, detail: String) {
        if self.divergence.is_none() {
            self.divergence = Some(detail);
        }
    }
}

/// The [`RunObserver`] that writes every run journal past its head record: matches
/// the run's records against the journaled prefix and appends only the missing
/// suffix. An I/O error mid-run is captured and reported by [`finish`](Self::finish),
/// since observers cannot propagate errors through the scheduler hot path.
pub struct RecoveryObserver {
    state: Mutex<RecoveryState>,
}

impl RecoveryObserver {
    /// Lock the recovery state, recovering from poisoning: every critical
    /// section either matches one record against the journaled prefix or
    /// records a first-divergence/first-failure, so a panic mid-section
    /// cannot tear an invariant — at worst recovery reports a divergence it
    /// would have reported anyway.
    fn locked(&self) -> std::sync::MutexGuard<'_, RecoveryState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Build the observer over a journal positioned at its end and the replay of what
    /// it already holds.
    pub fn new(journal: Journal, replay: JournalReplay) -> Self {
        RecoveryObserver {
            state: Mutex::new(RecoveryState {
                journal,
                dispatches: replay.dispatches,
                commits: replay.commits,
                charges: replay.charges,
                journaled_events: replay.events,
                completed: replay.completed,
                torn_tail: replay.torn_tail,
                divergence: None,
                failure: None,
                recovered: BTreeMap::new(),
                resumed: BTreeMap::new(),
            }),
        }
    }

    /// Finish the run after its execution completed: verify no journaled record was
    /// left unconsumed, reconcile the event stream (append only the missing suffix),
    /// append the `RunCompleted` trailer when the journal lacked one, and sync.
    pub fn finish(
        &self,
        events: &[FleetEvent],
        cost: f64,
        questions: usize,
        makespan: f64,
    ) -> Result<RecoveryReport> {
        let mut state = self.locked();
        if let Some(failure) = state.failure.take() {
            return Err(failure);
        }
        if let Some(detail) = state.divergence.take() {
            return Err(diverged(detail));
        }
        let leftover_dispatches: usize = state.dispatches.iter().map(VecDeque::len).sum();
        let leftover_charges: usize = state.charges.iter().map(VecDeque::len).sum();
        let leftover_commits = state.commits.len();
        if leftover_dispatches + leftover_charges + leftover_commits > 0 {
            return Err(diverged(format!(
                "replay never produced {leftover_dispatches} journaled dispatches, \
                 {leftover_commits} commits, {leftover_charges} charges"
            )));
        }
        if state.journaled_events.len() > events.len() {
            return Err(diverged(format!(
                "journal holds {} events, replay produced only {}",
                state.journaled_events.len(),
                events.len()
            )));
        }
        for (i, event) in events.iter().enumerate() {
            if let Some(journaled) = state.journaled_events.get(i) {
                if journaled != event {
                    return Err(diverged(format!("event {i} does not match the journal")));
                }
            } else {
                let record = JournalRecord::Event(event.clone());
                state.append(&record);
            }
        }
        let was_complete = match state.completed {
            Some((journaled_cost, journaled_questions, journaled_makespan)) => {
                if journaled_cost.to_bits() != cost.to_bits()
                    || journaled_questions != questions
                    || journaled_makespan.to_bits() != makespan.to_bits()
                {
                    return Err(diverged(format!(
                        "RunCompleted mismatch: journal says cost {journaled_cost} / \
                         {journaled_questions} questions / makespan {journaled_makespan}, \
                         replay got {cost} / {questions} / {makespan}"
                    )));
                }
                true
            }
            None => {
                state.append(&JournalRecord::RunCompleted {
                    cost,
                    questions,
                    makespan,
                });
                false
            }
        };
        if let Some(failure) = state.failure.take() {
            return Err(failure);
        }
        state.journal.sync()?;
        // Shard threads commit in host-timing order, so the costs are summed here, in
        // `(job, seq)` order from zero: the order the fleet report sums its cost in.
        let total = |charges: &BTreeMap<(usize, usize), f64>| {
            charges.values().fold(0.0, |sum, charge| sum + charge)
        };
        Ok(RecoveryReport {
            was_complete,
            torn_tail: state.torn_tail,
            recovered_hits: state.recovered.len(),
            resumed_hits: state.resumed.len(),
            recovered_cost: total(&state.recovered),
            resumed_cost: total(&state.resumed),
        })
    }
}

impl RunObserver for RecoveryObserver {
    fn on_dispatch(&self, dispatch: &DispatchRecord) {
        let mut state = self.locked();
        let job = dispatch.job.0;
        match state.dispatches.get_mut(job).and_then(VecDeque::pop_front) {
            Some(journaled) => {
                if journaled != *dispatch {
                    state.diverge(format!(
                        "dispatch for job {job} (hit {}) does not match the journaled one (hit {})",
                        dispatch.hit.0, journaled.hit.0
                    ));
                }
            }
            None => {
                let record = JournalRecord::Dispatch(dispatch.clone());
                state.append(&record);
            }
        }
    }

    fn on_charge(&self, job: JobId, hit: HitId, amount: f64, at: f64) {
        let mut state = self.locked();
        match state.charges.get_mut(job.0).and_then(VecDeque::pop_front) {
            Some((journaled_hit, amount_bits, at_bits)) => {
                if journaled_hit != hit
                    || amount_bits != amount.to_bits()
                    || at_bits != at.to_bits()
                {
                    state.diverge(format!(
                        "charge for job {} (hit {}, amount {amount}) does not match the journal",
                        job.0, hit.0
                    ));
                }
            }
            None => {
                let record = JournalRecord::Charge {
                    job,
                    hit,
                    amount,
                    at,
                };
                state.append(&record);
            }
        }
    }

    fn on_commit(&self, commit: &BatchCommit) {
        let mut state = self.locked();
        let key = (commit.job.0, commit.seq);
        match state.commits.remove(&key) {
            Some(journaled) => {
                if journaled.matches(commit) {
                    state.recovered.insert(key, journaled.charge);
                } else {
                    state.diverge(format!(
                        "commit for job {} seq {} does not match the journaled one",
                        key.0, key.1
                    ));
                }
            }
            None => {
                // Append before touching the resumed charges: the record is
                // what makes the commit durable, and a failed write must not
                // leave state claiming a hit the journal never saw.
                let record = JournalRecord::Commit(CommitDigest::of(commit));
                state.append(&record);
                state.resumed.insert(key, commit.outcome.cost);
            }
        }
    }
}
