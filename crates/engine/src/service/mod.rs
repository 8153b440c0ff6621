//! The resident service layer: a [`FleetService`] that stays up across many jobs.
//!
//! A [`crate::fleet::Fleet`] is batch-shaped: submit, run, read the report, drop.
//! CDAS as the paper pitches it is a *service* — analysts hand jobs to a long-lived
//! system that is already running other people's jobs against the same crowd. This
//! module adds that resident layer without duplicating the engine room underneath:
//!
//! * **Admission control** ([`admission`]): every [`submit`](FleetService::submit) is
//!   forecast by a white-box [`AdmissionModel`] (workers per HIT, batches, dollars,
//!   makespan under the *live mix*) and answered with an [`AdmissionDecision`] —
//!   `Accept` into the next epoch, `Queue` until capacity frees, or `Reject` when no
//!   idle crowd could serve the job, its deadline is unmeetable, or the service
//!   budget would be breached. The decision and its forecast ride back on the
//!   [`JobTicket`]'s event stream.
//! * **Service-level durability** ([`manifest`]): the service journals its
//!   configuration, every admission decision, and every epoch boundary into a
//!   *manifest* journal (same segmented CRC framing as a run journal), while each
//!   epoch's actual run is write-ahead journaled by the fleet exactly as before.
//!   [`FleetService::recover`] rebuilds a killed service from its directory alone:
//!   finished epochs are recovered without re-paying journaled work, a half-run
//!   epoch is resumed through [`crate::fleet::Fleet::recover`], and submissions that
//!   never reached an epoch come back as *journaled-pending* tickets.
//! * **Group commit** ([`crate::journal::SyncPolicy::GroupCommit`]): a resident
//!   process lives long enough to amortize fsyncs, so epoch run journals default to
//!   group commit — batches of commit-class records share one fsync, bounded by a
//!   delay so durability lag never exceeds `max_delay_ms`.
//!
//! Work arrives over time, so execution is **epoch-based**: accepted jobs pool up,
//! [`run_epoch`](FleetService::run_epoch) drains them into one fleet run (shard
//! count auto-picked from the epoch's job mix), and queued jobs are re-evaluated —
//! and promoted — as capacity frees. [`shutdown`](FleetService::shutdown) drains
//! every remaining epoch and seals the manifest.
//!
//! ```
//! use cdas_crowd::spec::CrowdSpec;
//! use cdas_engine::fixtures::demo_questions;
//! use cdas_engine::fleet::JobSpec;
//! use cdas_engine::service::{FleetService, ServiceConfig};
//!
//! let dir = std::env::temp_dir().join("cdas-service-doc");
//! let config = ServiceConfig::new(CrowdSpec::clean(16, 0.85).seed(7));
//! let mut service = FleetService::open(&dir, config).unwrap();
//! let ticket = service
//!     .submit(JobSpec::sentiment("doc", demo_questions(8, 2)).workers(5).domain_size(3))
//!     .unwrap();
//! let report = service.shutdown().unwrap();
//! assert_eq!(report.submitted, 1);
//! assert!(report.events.iter().any(|e| e.concerns(ticket)));
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

pub mod admission;
pub mod manifest;

use std::collections::BTreeMap;
use std::path::PathBuf;

use cdas_core::{CdasError, Result};

use crate::fleet::{validate_crowd, ExecutionMode, Fleet, FleetEvent, FleetFailpoints, JobSpec};
use crate::journal::{Journal, JournalConfig, JournalRecord, RecoveryReport};
use crate::metrics::FleetReport;
use crate::scheduler::JobScheduler;

pub use admission::{AdmissionDecision, AdmissionForecast, AdmissionModel};
pub use manifest::{ManifestReplay, ServiceConfig, ServiceSubmission};

use manifest::{epoch_dir, manifest_dir};

/// A handle to one submitted job, minted by [`FleetService::submit`]. Tickets are
/// dense (`0, 1, 2, …` in submission order) and stable across crash recovery — the
/// manifest journals the submission before the ticket is returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[must_use = "a JobTicket is the only handle to the submitted job's events and outcome; dropping it orphans the submission"]
pub struct JobTicket(pub u64);

impl JobTicket {
    /// The ticket's dense submission index.
    pub fn index(&self) -> u64 {
        self.0
    }
}

/// Why [`FleetService::submit`] did not return a usable ticket.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejected {
    /// Admission control said no. The submission *was* journaled (with its verdict),
    /// so recovery and the event stream still account for it.
    Policy {
        /// The ticket the rejected submission was journaled under.
        ticket: JobTicket,
        /// The human-readable reason the policy gave.
        reason: &'static str,
        /// The live-mix forecast the verdict was based on.
        forecast: AdmissionForecast,
    },
    /// The job never reached the policy: it is malformed (empty question list,
    /// zero batch size, unservable worker policy, NaN deadline) or the manifest
    /// append failed.
    Invalid(CdasError),
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::Policy { ticket, reason, .. } => {
                write!(f, "submission {} rejected: {reason}", ticket.0)
            }
            Rejected::Invalid(e) => write!(f, "submission invalid: {e}"),
        }
    }
}

impl std::error::Error for Rejected {}

/// One entry of the service's event stream, in emission order. Fleet-level events
/// from epoch runs are wrapped as [`ServiceEvent::Job`] with the owning ticket, so a
/// subscriber never has to map epoch-local [`crate::scheduler::JobId`]s itself.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceEvent {
    /// A job was submitted and judged by admission control.
    Submitted {
        /// The minted ticket.
        ticket: JobTicket,
        /// The job's name.
        name: String,
        /// The admission verdict.
        decision: AdmissionDecision,
        /// The live-mix forecast behind the verdict.
        forecast: AdmissionForecast,
    },
    /// A queued ticket was promoted into an epoch after capacity freed.
    Promoted {
        /// The promoted ticket.
        ticket: JobTicket,
        /// The epoch the ticket joins.
        epoch: u64,
    },
    /// An epoch began executing the listed tickets.
    EpochStarted {
        /// The epoch's dense index.
        epoch: u64,
        /// Tickets scheduled into the epoch, in epoch-local [`crate::scheduler::JobId`] order.
        tickets: Vec<JobTicket>,
        /// The execution mode the auto-picker chose.
        mode: ExecutionMode,
    },
    /// A fleet event from an epoch run, attributed to its owning ticket.
    Job {
        /// The owning ticket.
        ticket: JobTicket,
        /// The epoch the event happened in.
        epoch: u64,
        /// The underlying fleet event.
        event: FleetEvent,
    },
    /// An epoch ran to completion.
    EpochCompleted {
        /// The epoch's dense index.
        epoch: u64,
        /// The tickets the epoch served.
        tickets: Vec<JobTicket>,
        /// Dollars the epoch cost.
        cost: f64,
        /// Real questions the epoch resolved.
        questions: usize,
        /// The epoch's simulated-minutes makespan.
        makespan: f64,
    },
}

impl ServiceEvent {
    /// Whether this event concerns the given ticket (its submission, promotion, an
    /// epoch it ran in, or one of its own fleet events).
    pub fn concerns(&self, ticket: JobTicket) -> bool {
        match self {
            ServiceEvent::Submitted { ticket: t, .. }
            | ServiceEvent::Promoted { ticket: t, .. }
            | ServiceEvent::Job { ticket: t, .. } => *t == ticket,
            ServiceEvent::EpochStarted { tickets, .. }
            | ServiceEvent::EpochCompleted { tickets, .. } => tickets.contains(&ticket),
        }
    }
}

/// What one [`FleetService::run_epoch`] call executed.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSummary {
    /// The epoch's dense index.
    pub epoch: u64,
    /// The tickets the epoch served.
    pub tickets: Vec<JobTicket>,
    /// The execution mode the auto-picker chose.
    pub mode: ExecutionMode,
    /// Dollars the epoch cost.
    pub cost: f64,
    /// Real questions the epoch resolved.
    pub questions: usize,
    /// The epoch's simulated-minutes makespan.
    pub makespan: f64,
}

/// The final accounting a [`FleetService::shutdown`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// One [`FleetReport`] per completed epoch, in epoch order.
    pub epochs: Vec<FleetReport>,
    /// The full service event stream, in emission order.
    pub events: Vec<ServiceEvent>,
    /// Total submissions (accepted, queued and rejected alike).
    pub submitted: usize,
    /// Submissions admission control rejected.
    pub rejected: usize,
    /// Tickets that were still queued when the service shut down (their budget or
    /// deadline constraints never cleared).
    pub unserved: Vec<JobTicket>,
    /// Dollars spent across every epoch.
    pub total_cost: f64,
}

impl ServiceReport {
    /// The report with host-wall-clock noise normalized away — compare two service
    /// lifetimes (e.g. crashed-and-recovered vs. never-crashed) through this.
    pub fn ignoring_wall_clock(&self) -> ServiceReport {
        let mut copy = self.clone();
        copy.epochs = copy
            .epochs
            .iter()
            .map(FleetReport::ignoring_wall_clock)
            .collect();
        copy
    }
}

/// What [`FleetService::recover`] found in the service directory.
#[derive(Debug, Clone)]
#[must_use = "a ServiceRecovery says which tickets are still pending and how much journaled work was reused; dropping it discards that accounting"]
pub struct ServiceRecovery {
    /// The manifest held a `ServiceClosed` trailer (the service shut down cleanly).
    pub was_closed: bool,
    /// The manifest's tail was torn (the crash hit a manifest append mid-frame).
    pub torn_tail: bool,
    /// Tickets journaled as admitted or queued but not yet served by any epoch —
    /// the next [`run_epoch`](FleetService::run_epoch) picks them up.
    pub pending: Vec<JobTicket>,
    /// Per journaled epoch: the run-journal [`RecoveryReport`], or `None` when the
    /// crash predates the epoch's run journal and the epoch was re-run from scratch.
    pub epoch_recoveries: Vec<Option<RecoveryReport>>,
}

/// Where a ticket currently stands inside the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TicketStatus {
    /// Accepted; will join the next epoch.
    Admitted,
    /// Waiting for capacity or budget headroom.
    Queued,
    /// Rejected by admission control; terminal.
    Rejected,
    /// Running (or crashed mid-run) in the given epoch.
    Scheduled(u64),
    /// Served by the given epoch; terminal.
    Completed(u64),
}

/// The resident service. See the [module docs](self) for the tour.
pub struct FleetService {
    dir: PathBuf,
    config: ServiceConfig,
    manifest: Journal,
    model: AdmissionModel,
    submissions: Vec<ServiceSubmission>,
    statuses: Vec<TicketStatus>,
    events: Vec<ServiceEvent>,
    cursors: BTreeMap<u64, usize>,
    epoch_reports: Vec<FleetReport>,
    spent: f64,
}

impl FleetService {
    /// Open a **fresh** service in `dir`: creates the manifest journal (wiping any
    /// previous service's manifest segments — one directory holds one service
    /// lifetime) and journals the configuration as the head record. To resume an
    /// existing service directory after a crash, use [`recover`](Self::recover).
    ///
    /// The configuration is checked before the directory is touched: a crowd with no
    /// workers is [`CdasError::EmptyFleet`], and a crowd the simulator cannot sample
    /// or a NaN budget is [`CdasError::InvalidConfig`].
    pub fn open(dir: impl Into<PathBuf>, config: ServiceConfig) -> Result<Self> {
        let dir = dir.into();
        validate_crowd(&config.crowd)?;
        if config.budget.is_some_and(f64::is_nan) {
            return Err(CdasError::InvalidConfig {
                field: "service.budget",
                detail: "NaN would turn the budget check off".to_string(),
            });
        }
        let mut manifest = Journal::create(manifest_dir(&dir), JournalConfig::default())?;
        manifest.append(&JournalRecord::ServiceOpened(config.clone()))?;
        let model = AdmissionModel::new(&config.crowd);
        Ok(FleetService {
            dir,
            config,
            manifest,
            model,
            submissions: Vec::new(),
            statuses: Vec::new(),
            events: Vec::new(),
            cursors: BTreeMap::new(),
            epoch_reports: Vec::new(),
            spent: 0.0,
        })
    }

    /// The configuration the service runs under.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Dollars spent across completed epochs so far.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Completed epochs so far.
    pub fn epochs_completed(&self) -> usize {
        self.epoch_reports.len()
    }

    /// Tickets journaled but not yet served or rejected (admitted or queued), in
    /// ticket order.
    #[must_use]
    pub fn pending(&self) -> Vec<JobTicket> {
        self.statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, TicketStatus::Admitted | TicketStatus::Queued))
            .map(|(t, _)| JobTicket(t as u64))
            .collect()
    }

    /// The full event stream emitted so far, in emission order.
    pub fn events(&self) -> &[ServiceEvent] {
        &self.events
    }

    /// Workers the currently admitted (not yet run) jobs are predicted to hold —
    /// the "live mix" reservation new forecasts are taken against.
    fn reserved_workers(&self) -> usize {
        self.statuses
            .iter()
            .zip(&self.submissions)
            .filter(|(s, _)| **s == TicketStatus::Admitted)
            .map(|(_, sub)| sub.forecast.workers_per_hit)
            .sum()
    }

    /// Dollars the currently admitted jobs are predicted to cost — already spoken
    /// for when checking a new submission against the budget.
    fn committed_cost(&self) -> f64 {
        self.statuses
            .iter()
            .zip(&self.submissions)
            .filter(|(s, _)| **s == TicketStatus::Admitted)
            .map(|(_, sub)| sub.forecast.cost)
            .sum()
    }

    fn budget_remaining(&self) -> Option<f64> {
        self.config
            .budget
            .map(|budget| budget - self.spent - self.committed_cost())
    }

    /// Submit a job. The submission is resolved and forecast *now*, journaled with
    /// its verdict (append-before-mutate: the manifest record lands before any state
    /// changes), and the verdict streams back as [`ServiceEvent::Submitted`]. A
    /// policy rejection still mints (and journals) a ticket — [`Rejected::Policy`]
    /// carries it — so the accounting survives recovery.
    pub fn submit(&mut self, spec: JobSpec) -> std::result::Result<JobTicket, Rejected> {
        let scheduled = spec.resolve_default().map_err(Rejected::Invalid)?;
        let deadline = spec.deadline();
        if deadline.is_some_and(f64::is_nan) {
            return Err(Rejected::Invalid(CdasError::InvalidConfig {
                field: "job.deadline_minutes",
                detail: "NaN would pass every deadline check".to_string(),
            }));
        }
        let idle = self
            .model
            .forecast(&scheduled, 0)
            .map_err(Rejected::Invalid)?;
        let mix = self
            .model
            .forecast(&scheduled, self.reserved_workers())
            .map_err(Rejected::Invalid)?;
        let (decision, reason) = admission::decide(&idle, &mix, deadline, self.budget_remaining());
        let ticket = self.submissions.len() as u64;
        let submission = ServiceSubmission {
            ticket,
            job: scheduled,
            deadline_minutes: deadline,
            decision,
            forecast: mix,
        };
        let record = JournalRecord::ServiceSubmitted(submission);
        self.manifest.append(&record).map_err(Rejected::Invalid)?;
        let JournalRecord::ServiceSubmitted(submission) = record else {
            // cdas-allow(panic_freedom): `record` is built as `ServiceSubmitted` just above
            unreachable!("the record is ServiceSubmitted")
        };
        self.apply_submission(submission);
        match decision {
            AdmissionDecision::Reject => Err(Rejected::Policy {
                ticket: JobTicket(ticket),
                reason,
                forecast: mix,
            }),
            _ => Ok(JobTicket(ticket)),
        }
    }

    /// Fold one (journaled) submission into service state — shared by the live
    /// [`submit`](Self::submit) path and manifest replay, so both produce the same
    /// state and the same [`ServiceEvent::Submitted`].
    fn apply_submission(&mut self, submission: ServiceSubmission) {
        let status = match submission.decision {
            AdmissionDecision::Accept => TicketStatus::Admitted,
            AdmissionDecision::Queue => TicketStatus::Queued,
            AdmissionDecision::Reject => TicketStatus::Rejected,
        };
        self.events.push(ServiceEvent::Submitted {
            ticket: JobTicket(submission.ticket),
            name: submission.job.job.name.clone(),
            decision: submission.decision,
            forecast: submission.forecast,
        });
        self.statuses.push(status);
        self.submissions.push(submission);
    }

    /// Re-evaluate queued tickets against the current mix and promote the ones that
    /// now fit. Runs at the top of every epoch; promotions are deterministic (model
    /// state and reservations are pure functions of the journaled history), so they
    /// are *not* journaled — the epoch's ticket list captures them.
    fn promote_queued(&mut self) -> Result<()> {
        let epoch = self.epoch_reports.len() as u64;
        let queued: Vec<usize> = self
            .statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == TicketStatus::Queued)
            .map(|(t, _)| t)
            .collect();
        for t in queued {
            let Some(submission) = self.submissions.get(t) else {
                continue;
            };
            let job = submission.job.clone();
            let deadline = submission.deadline_minutes;
            let idle = self.model.forecast(&job, 0)?;
            let mix = self.model.forecast(&job, self.reserved_workers())?;
            let (decision, _) = admission::decide(&idle, &mix, deadline, self.budget_remaining());
            if decision == AdmissionDecision::Accept {
                if let Some(status) = self.statuses.get_mut(t) {
                    *status = TicketStatus::Admitted;
                }
                self.events.push(ServiceEvent::Promoted {
                    ticket: JobTicket(t as u64),
                    epoch,
                });
            }
        }
        Ok(())
    }

    /// Auto-pick the epoch's shard count: the widest count `1 ..= max_shards`
    /// (bounded by the job and worker counts) under which every job still fits the
    /// shard the fleet's striping would put it on. One shard always fits — admission
    /// rejected anything an idle crowd cannot hold.
    fn pick_shards(&self, tickets: &[u64]) -> usize {
        let workers = self.config.crowd.worker_count();
        let cap = self
            .config
            .max_shards
            .min(tickets.len())
            .min(workers)
            .max(1);
        (2..=cap)
            .rev()
            .find(|&shards| {
                tickets.iter().enumerate().all(|(i, &t)| {
                    // An unknown ticket fits nowhere, so the fold stays at 1 shard.
                    let needed = self
                        .submissions
                        .get(t as usize)
                        .map_or(usize::MAX, |s| s.forecast.workers_per_hit);
                    needed <= JobScheduler::striped_roster_len(i, shards, workers)
                })
            })
            .unwrap_or(1)
    }

    /// Build the fleet one epoch runs: the service crowd and scheduler config, the
    /// epoch's jobs in ticket order, and a write-ahead run journal in the epoch's
    /// own directory.
    fn build_epoch_fleet(&self, tickets: &[u64], shards: usize, epoch: u64) -> Result<Fleet> {
        let mut builder = Fleet::builder()
            .crowd(self.config.crowd.clone())
            .policy(self.config.scheduler.policy)
            .scheduler_seed(self.config.scheduler.seed)
            .max_ticks(self.config.scheduler.max_ticks)
            .arrival_discovery(self.config.scheduler.discovery)
            .shards(shards)
            .journal(epoch_dir(&self.dir, epoch))
            .journal_config(self.config.run_journal.clone());
        for &t in tickets {
            if let Some(submission) = self.submissions.get(t as usize) {
                builder = builder.job(JobSpec::from(submission.job.clone()));
            }
        }
        builder.build()
    }

    /// Drain every admitted job (promoting newly-fitting queued ones first) into one
    /// epoch and run it. Returns `None` — and runs nothing — when no job is ready.
    ///
    /// The epoch boundary is journaled around the run: `ServiceEpochStarted` lands
    /// *before* the fleet is built (so a crash mid-epoch is recoverable) and
    /// `ServiceEpochCompleted` after it, closing the epoch's accounting.
    pub fn run_epoch(&mut self) -> Result<Option<EpochSummary>> {
        self.run_epoch_with_failpoints(FleetFailpoints::none())
    }

    /// [`run_epoch`](Self::run_epoch) with fault injection on the epoch's platform
    /// ([`FleetFailpoints`]): the service-level arm of the kill -9 drill. An armed
    /// failpoint panics mid-epoch, *after* `ServiceEpochStarted` was journaled —
    /// exactly the wreckage [`recover`](Self::recover) is specified against.
    pub fn run_epoch_with_failpoints(
        &mut self,
        failpoints: FleetFailpoints,
    ) -> Result<Option<EpochSummary>> {
        self.promote_queued()?;
        let tickets: Vec<u64> = self
            .statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == TicketStatus::Admitted)
            .map(|(t, _)| t as u64)
            .collect();
        if tickets.is_empty() {
            return Ok(None);
        }
        let epoch = self.epoch_reports.len() as u64;
        let shards = self.pick_shards(&tickets);
        let mode = if shards == 1 {
            ExecutionMode::Clocked
        } else {
            ExecutionMode::Parallel { shards }
        };
        self.manifest.append(&JournalRecord::ServiceEpochStarted {
            epoch,
            tickets: tickets.clone(),
            mode,
        })?;
        self.begin_epoch(epoch, &tickets, mode);
        let run = self
            .build_epoch_fleet(&tickets, shards, epoch)?
            .run_with_failpoints(mode, failpoints)?;
        let (report, events) = run.into_parts();
        self.finish_epoch(epoch, &tickets, report, events, true)
            .map(Some)
    }

    /// Mark the epoch's tickets scheduled and emit its `EpochStarted` event — shared
    /// by the live path and recovery so the event stream comes out identical.
    fn begin_epoch(&mut self, epoch: u64, tickets: &[u64], mode: ExecutionMode) {
        for &t in tickets {
            if let Some(status) = self.statuses.get_mut(t as usize) {
                *status = TicketStatus::Scheduled(epoch);
            }
        }
        self.events.push(ServiceEvent::EpochStarted {
            epoch,
            tickets: tickets.iter().map(|&t| JobTicket(t)).collect(),
            mode,
        });
    }

    /// Fold a finished epoch run into service state: wrap its fleet events with
    /// their owning tickets, journal the completion (unless the manifest already
    /// holds it, during recovery), calibrate the admission model, and account the
    /// spend. Shared by the live path and recovery.
    fn finish_epoch(
        &mut self,
        epoch: u64,
        tickets: &[u64],
        report: FleetReport,
        run_events: Vec<FleetEvent>,
        append_completion: bool,
    ) -> Result<EpochSummary> {
        for event in run_events {
            let local = event.job().0;
            let ticket = tickets
                .get(local)
                .copied()
                .ok_or_else(|| CdasError::JournalDiverged {
                    detail: format!(
                        "epoch {epoch} produced an event for unknown local job {local}"
                    ),
                })?;
            self.events.push(ServiceEvent::Job {
                ticket: JobTicket(ticket),
                epoch,
                event,
            });
        }
        if append_completion {
            self.manifest
                .append(&JournalRecord::ServiceEpochCompleted {
                    epoch,
                    cost: report.fleet.cost,
                    questions: report.fleet.questions,
                    makespan: report.makespan,
                })?;
        }
        self.events.push(ServiceEvent::EpochCompleted {
            epoch,
            tickets: tickets.iter().map(|&t| JobTicket(t)).collect(),
            cost: report.fleet.cost,
            questions: report.fleet.questions,
            makespan: report.makespan,
        });
        for &t in tickets {
            if let Some(status) = self.statuses.get_mut(t as usize) {
                *status = TicketStatus::Completed(epoch);
            }
        }
        self.model.observe_epoch(&report);
        self.spent += report.fleet.cost;
        let summary = EpochSummary {
            epoch,
            tickets: tickets.iter().map(|&t| JobTicket(t)).collect(),
            mode: match report.shards.len() {
                0 | 1 => ExecutionMode::Clocked,
                shards => ExecutionMode::Parallel { shards },
            },
            cost: report.fleet.cost,
            questions: report.fleet.questions,
            makespan: report.makespan,
        };
        self.epoch_reports.push(report);
        Ok(summary)
    }

    /// Drain the events concerning `ticket` that arrived since the last `poll` for
    /// it. Each ticket has its own cursor, so interleaved polls for different
    /// tickets never steal each other's events.
    pub fn poll(&mut self, ticket: JobTicket) -> Vec<ServiceEvent> {
        let cursor = self.cursors.entry(ticket.0).or_insert(0);
        let mut out = Vec::new();
        while let Some(event) = self.events.get(*cursor) {
            *cursor += 1;
            if event.concerns(ticket) {
                out.push(event.clone());
            }
        }
        out
    }

    /// Every event concerning `ticket` from the beginning of the stream —
    /// cursor-free, so it never interferes with [`poll`](Self::poll).
    pub fn subscribe(&self, ticket: JobTicket) -> impl Iterator<Item = &ServiceEvent> + '_ {
        self.events.iter().filter(move |e| e.concerns(ticket))
    }

    /// Run every remaining epoch (promoting queued work as capacity frees), seal
    /// the manifest with `ServiceClosed`, and return the lifetime's accounting.
    /// Tickets whose constraints never cleared are reported as `unserved`.
    pub fn shutdown(mut self) -> Result<ServiceReport> {
        while self.run_epoch()?.is_some() {}
        self.manifest.append(&JournalRecord::ServiceClosed {
            total_cost: self.spent,
        })?;
        self.manifest.sync()?;
        let rejected = self
            .statuses
            .iter()
            .filter(|s| **s == TicketStatus::Rejected)
            .count();
        let unserved = self.pending();
        Ok(ServiceReport {
            epochs: self.epoch_reports,
            events: self.events,
            submitted: self.submissions.len(),
            rejected,
            unserved,
            total_cost: self.spent,
        })
    }

    /// Rebuild a killed (or cleanly closed) service from its directory alone.
    ///
    /// The manifest is replayed in journal order, so the rebuilt event stream is
    /// identical to the one the live service emitted: journaled submissions are
    /// folded back with their *journaled* verdicts and forecasts (never re-derived),
    /// and each journaled epoch is recovered through
    /// [`Fleet::recover`] — journaled work is reused, not re-paid; a half-run epoch
    /// is resumed to completion; an epoch whose run journal never got its head
    /// record (the crash landed between `ServiceEpochStarted` and the fleet's
    /// `RunStarted`) is re-run from scratch, which is safe because nothing of it was
    /// ever dispatched or paid. A run journal that exists but cannot be read fails
    /// recovery with its error and is left on disk as it was. Submissions that
    /// reached no epoch come back as [`ServiceRecovery::pending`] and the returned
    /// service is live: keep submitting, keep running epochs, then
    /// [`shutdown`](Self::shutdown).
    pub fn recover(dir: impl Into<PathBuf>) -> Result<(Self, ServiceRecovery)> {
        let dir = dir.into();
        let (manifest, contents) =
            Journal::open_append(manifest_dir(&dir), JournalConfig::default())?;
        let replay = ManifestReplay::assemble(&contents)?;
        let mut service = FleetService {
            dir,
            model: AdmissionModel::new(&replay.config.crowd),
            config: replay.config.clone(),
            manifest,
            submissions: Vec::new(),
            statuses: Vec::new(),
            events: Vec::new(),
            cursors: BTreeMap::new(),
            epoch_reports: Vec::new(),
            spent: 0.0,
        };
        let mut epoch_recoveries = Vec::new();
        for record in &contents.records {
            match record {
                JournalRecord::ServiceSubmitted(submission) => {
                    service.apply_submission(submission.clone());
                }
                JournalRecord::ServiceEpochStarted {
                    epoch,
                    tickets,
                    mode,
                } => {
                    // Queued tickets entering this epoch were promoted by the live
                    // service just before it journaled the start — re-emit that.
                    for &t in tickets {
                        if service.statuses.get(t as usize) == Some(&TicketStatus::Queued) {
                            service.events.push(ServiceEvent::Promoted {
                                ticket: JobTicket(t),
                                epoch: *epoch,
                            });
                        }
                    }
                    service.begin_epoch(*epoch, tickets, *mode);
                    let journaled_completion =
                        replay.epochs.get(*epoch as usize).and_then(|e| e.completed);
                    let recovery =
                        service.recover_epoch(*epoch, tickets, *mode, journaled_completion)?;
                    epoch_recoveries.push(recovery);
                }
                // Completions were folded in alongside their epoch; the head and
                // trailer carry no replayable state beyond what `replay` holds.
                _ => {}
            }
        }
        let recovery = ServiceRecovery {
            was_closed: replay.closed.is_some(),
            torn_tail: replay.torn_tail,
            pending: service.pending(),
            epoch_recoveries,
        };
        Ok((service, recovery))
    }

    /// Recover one journaled epoch: resume its run journal if it has one, re-run it
    /// from scratch if the crash predates the journal's head record, and cross-check
    /// the result against the manifest's completion record if one landed.
    ///
    /// Only an epoch whose run journal is empty (no head record) or whose directory
    /// does not exist is re-run: any other error — an unreadable segment above all —
    /// is returned as is, because re-running would wipe a journal of paid work.
    fn recover_epoch(
        &mut self,
        epoch: u64,
        tickets: &[u64],
        mode: ExecutionMode,
        journaled_completion: Option<(f64, usize, f64)>,
    ) -> Result<Option<RecoveryReport>> {
        let dir = epoch_dir(&self.dir, epoch);
        let predates_journal = |e: &CdasError| match e {
            CdasError::JournalEmpty => true,
            CdasError::JournalIo { .. } => matches!(dir.try_exists(), Ok(false)),
            _ => false,
        };
        let (run, run_recovery) =
            match Fleet::recover_with_config(&dir, self.config.run_journal.clone()) {
                Ok((run, recovery)) => (run, Some(recovery)),
                Err(e) if predates_journal(&e) => {
                    let shards = match mode {
                        ExecutionMode::Parallel { shards } => shards,
                        _ => 1,
                    };
                    let fleet = self.build_epoch_fleet(tickets, shards, epoch)?;
                    (fleet.run(mode)?, None)
                }
                Err(e) => return Err(e),
            };
        let (report, events) = run.into_parts();
        if let Some((cost, questions, makespan)) = journaled_completion {
            if cost.to_bits() != report.fleet.cost.to_bits()
                || questions != report.fleet.questions
                || makespan.to_bits() != report.makespan.to_bits()
            {
                return Err(CdasError::JournalDiverged {
                    detail: format!(
                        "epoch {epoch} completion mismatch: manifest says cost {cost} / \
                         {questions} questions / makespan {makespan}, recovery got {} / {} / {}",
                        report.fleet.cost, report.fleet.questions, report.makespan
                    ),
                });
            }
        }
        self.finish_epoch(
            epoch,
            tickets,
            report,
            events,
            journaled_completion.is_none(),
        )?;
        Ok(run_recovery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::demo_questions;
    use cdas_crowd::arrival::LatencyModel;
    use cdas_crowd::spec::CrowdSpec;

    /// Removes a test's directory when the test ends, also when it fails.
    struct RemoveOnDrop(PathBuf);

    impl Drop for RemoveOnDrop {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn temp_dir(name: &str) -> (PathBuf, RemoveOnDrop) {
        let dir =
            std::env::temp_dir().join(format!("cdas-service-unit-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (dir.clone(), RemoveOnDrop(dir))
    }

    fn config() -> ServiceConfig {
        ServiceConfig::new(
            CrowdSpec::clean(16, 0.85)
                .seed(7)
                .latency(LatencyModel::Exponential { mean: 5.0 }),
        )
    }

    fn job(name: &str, workers: usize) -> JobSpec {
        JobSpec::sentiment(name, demo_questions(8, 2))
            .workers(workers)
            .domain_size(3)
            .batch_size(4)
    }

    #[test]
    fn submit_run_shutdown_round_trip() {
        let (dir, _cleanup) = temp_dir("round-trip");
        let mut service = FleetService::open(&dir, config()).unwrap();
        let a = service.submit(job("a", 5)).unwrap();
        let b = service.submit(job("b", 5)).unwrap();
        assert_eq!((a, b), (JobTicket(0), JobTicket(1)));
        let summary = service.run_epoch().unwrap().expect("two admitted jobs");
        assert_eq!(summary.tickets, vec![a, b]);
        assert!(summary.questions > 0);
        assert!(
            service.run_epoch().unwrap().is_none(),
            "nothing left to run"
        );
        let report = service.shutdown().unwrap();
        assert_eq!(report.submitted, 2);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.epochs.len(), 1);
        assert!(report.unserved.is_empty());
        assert!(report.total_cost > 0.0);
    }

    #[test]
    fn an_unservable_job_is_rejected_not_queued() {
        let (dir, _cleanup) = temp_dir("unservable");
        let mut service = FleetService::open(&dir, config()).unwrap();
        match service.submit(job("wide", 40)) {
            Err(Rejected::Policy {
                ticket, forecast, ..
            }) => {
                assert_eq!(ticket, JobTicket(0));
                assert!(forecast.makespan_minutes.is_infinite());
            }
            other => panic!("expected a policy rejection, got {other:?}"),
        }
        let report = service.shutdown().unwrap();
        assert_eq!(report.submitted, 1);
        assert_eq!(report.rejected, 1);
        assert!(report.epochs.is_empty());
    }

    #[test]
    fn saturating_submissions_queue_and_later_promote() {
        let (dir, _cleanup) = temp_dir("queue-promote");
        let mut service = FleetService::open(&dir, config()).unwrap();
        // Three 7-worker jobs against 16 workers: the third sees 14 reserved and
        // has no free workers left under the mix.
        let a = service.submit(job("a", 7)).unwrap();
        let b = service.submit(job("b", 7)).unwrap();
        let c = service.submit(job("c", 7)).unwrap();
        assert!(matches!(
            service.events().last(),
            Some(ServiceEvent::Submitted {
                decision: AdmissionDecision::Queue,
                ..
            })
        ));
        let first = service.run_epoch().unwrap().expect("admitted jobs run");
        assert_eq!(first.tickets, vec![a, b]);
        // Capacity freed: the queued job promotes into the second epoch.
        let second = service.run_epoch().unwrap().expect("queued job promotes");
        assert_eq!(second.tickets, vec![c]);
        assert!(service
            .subscribe(c)
            .any(|e| matches!(e, ServiceEvent::Promoted { .. })));
        let report = service.shutdown().unwrap();
        assert!(report.unserved.is_empty(), "no starvation");
    }

    #[test]
    fn poll_cursors_are_per_ticket_and_drain() {
        let (dir, _cleanup) = temp_dir("poll");
        let mut service = FleetService::open(&dir, config()).unwrap();
        let a = service.submit(job("a", 5)).unwrap();
        let b = service.submit(job("b", 5)).unwrap();
        let first_a = service.poll(a);
        assert_eq!(first_a.len(), 1, "just a's Submitted so far");
        assert!(service.poll(a).is_empty(), "drained");
        service.run_epoch().unwrap().expect("runs");
        let after_a = service.poll(a);
        assert!(!after_a.is_empty());
        assert!(
            after_a.iter().all(|e| e.concerns(a)),
            "a's poll only sees a's events"
        );
        // b's cursor was never advanced: it still sees its Submitted plus the epoch.
        let all_b = service.poll(b);
        assert!(matches!(
            all_b.first(),
            Some(ServiceEvent::Submitted { .. })
        ));
        assert_eq!(
            service.subscribe(b).count(),
            all_b.len(),
            "subscribe sees exactly what a fresh poll drains"
        );
    }

    #[test]
    fn budget_breaches_are_rejected() {
        let (dir, _cleanup) = temp_dir("budget");
        let mut service = FleetService::open(&dir, config().budget(0.0)).unwrap();
        match service.submit(job("a", 5)) {
            Err(Rejected::Policy { reason, .. }) => {
                assert!(reason.contains("budget"), "{reason}");
            }
            other => panic!("expected a budget rejection, got {other:?}"),
        }
    }

    #[test]
    fn nan_deadlines_are_invalid_and_never_journaled() {
        let (dir, _cleanup) = temp_dir("nan-deadline");
        let mut service = FleetService::open(&dir, config()).unwrap();
        match service.submit(job("a", 5).deadline_minutes(f64::NAN)) {
            Err(Rejected::Invalid(CdasError::InvalidConfig { field, .. })) => {
                assert_eq!(field, "job.deadline_minutes");
            }
            other => panic!("expected an invalid deadline, got {other:?}"),
        }
        // No ticket was minted or journaled: the next submission is ticket 0.
        assert!(service.events().is_empty());
        assert_eq!(service.submit(job("b", 5)), Ok(JobTicket(0)));
    }

    #[test]
    fn nan_budgets_are_refused_before_the_directory_is_touched() {
        let (dir, _cleanup) = temp_dir("nan-budget");
        match FleetService::open(&dir, config().budget(f64::NAN)).err() {
            Some(CdasError::InvalidConfig { field, .. }) => assert_eq!(field, "service.budget"),
            other => panic!("expected an invalid budget, got {other:?}"),
        }
        assert!(!dir.exists(), "open touched the directory");
    }

    #[test]
    fn epoch_shard_count_is_auto_picked_and_journaled() {
        let (dir, _cleanup) = temp_dir("shards");
        let mut service = FleetService::open(&dir, config()).unwrap();
        // Two 5-worker jobs: two 8-worker shards fit one each → Parallel { 2 }.
        let _ = service.submit(job("a", 5)).unwrap();
        let _ = service.submit(job("b", 5)).unwrap();
        let summary = service.run_epoch().unwrap().expect("runs");
        assert_eq!(summary.mode, ExecutionMode::Parallel { shards: 2 });
        // A lone 5-worker job cannot be split: one shard → Clocked.
        let _ = service.submit(job("c", 5)).unwrap();
        let summary = service.run_epoch().unwrap().expect("runs");
        assert_eq!(summary.mode, ExecutionMode::Clocked);
    }

    #[test]
    fn recover_after_clean_shutdown_reproduces_the_event_stream() {
        let (dir, _cleanup) = temp_dir("recover-clean");
        let mut service = FleetService::open(&dir, config()).unwrap();
        let a = service.submit(job("a", 5)).unwrap();
        service.run_epoch().unwrap().expect("runs");
        let _ = a;
        let live = service.shutdown().unwrap();
        let (recovered, recovery) = FleetService::recover(&dir).unwrap();
        assert!(recovery.was_closed);
        assert!(!recovery.torn_tail);
        assert!(recovery.pending.is_empty());
        assert_eq!(recovery.epoch_recoveries.len(), 1);
        assert!(
            recovery.epoch_recoveries[0]
                .as_ref()
                .expect("epoch had a journal")
                .was_complete
        );
        assert_eq!(recovered.events(), &live.events[..]);
    }
}
