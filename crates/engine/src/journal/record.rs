//! The journal's record vocabulary and the [`BinCodec`] impls for the engine-side types
//! that appear inside records.
//!
//! A journal is a sequence of [`JournalRecord`]s. The first record of a run is always
//! [`JournalRecord::RunStarted`], which carries everything needed to re-execute the run
//! deterministically: the crowd specification, the scheduler configuration, the
//! resolved jobs, and the execution mode. Everything after it is the durable trace of
//! scheduler progress — dispatches, per-poll charges, and one [`CommitDigest`] per
//! committed batch — followed, on successful completion, by the fleet's event stream
//! and a [`JournalRecord::RunCompleted`] trailer. A commit is journaled as a digest, not
//! as its outcome: recovery recomputes every outcome by re-executing the run and only
//! needs to tell whether the recomputed commit is the one the crashed run paid for.

use cdas_core::codec::{fnv1a64, BinCodec, CodecError, CodecResult};
use cdas_core::economics::CostModel;
use cdas_core::online::TerminationStrategy;
use cdas_core::types::{AnswerDomain, HitId, QuestionId};
use cdas_core::{accuracy::AccuracyRegistry, verification::Verdict};
use cdas_crowd::question::CrowdQuestion;
use cdas_crowd::spec::CrowdSpec;

use crate::engine::{
    AccuracySource, EngineConfig, HitOutcome, QuestionVerdict, VerificationStrategy,
    WorkerCountPolicy,
};
use crate::fleet::{ExecutionMode, FleetEvent};
use crate::job_manager::{AnalyticsJob, JobKind};
use crate::journal::{JournalConfig, SyncPolicy};
use crate::query::Query;
use crate::scheduler::{
    ArrivalDiscovery, BatchCommit, DispatchPolicy, DispatchRecord, JobId, ScheduledJob,
    SchedulerConfig,
};
use crate::service::admission::{AdmissionDecision, AdmissionForecast};
use crate::service::manifest::{ServiceConfig, ServiceSubmission};

/// Everything a run is a deterministic function of (up to wall clock): journaling this
/// once at the head of the journal is what lets [`crate::fleet::Fleet::recover`] rebuild
/// the fleet and re-execute without any live object surviving the crash.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// The crowd the run was started against.
    pub crowd: CrowdSpec,
    /// The scheduler configuration.
    pub scheduler: SchedulerConfig,
    /// The execution mode (`EndOfTime`, `Clocked`, or `Parallel`).
    pub mode: ExecutionMode,
    /// The fully resolved jobs, in submission order.
    pub jobs: Vec<ScheduledJob>,
}

/// The journaled form of a [`BatchCommit`]: enough to prove (or refute) that a replayed
/// commit matches the one the crashed run paid for, at a fraction of the bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitDigest {
    /// The committing job (global id).
    pub job: JobId,
    /// The commit's 0-based sequence number within the job.
    pub seq: usize,
    /// The platform HIT the batch ran as.
    pub hit: HitId,
    /// What the batch charged the requester (the outcome's cost).
    pub charge: f64,
    /// Simulated completion time of the batch (0.0 in end-of-time runs).
    pub completed_at: f64,
    /// FNV-1a fingerprint of the full commit's encoding.
    pub digest: u64,
}

impl CommitDigest {
    /// Digest a full commit: the record a journaled run appends per committed batch.
    pub fn of(commit: &BatchCommit) -> Self {
        CommitDigest {
            job: commit.job,
            seq: commit.seq,
            hit: commit.hit,
            charge: commit.outcome.cost,
            completed_at: commit.completed_at,
            digest: fnv1a64(&commit.to_bytes()),
        }
    }

    /// Whether `commit` is the commit this digest was taken of, compared bit for bit.
    /// Every field of the commit feeds the fingerprint, so a change to any verdict,
    /// reason, timing or registry entry is caught, but for a 2^-64 chance of collision.
    pub fn matches(&self, commit: &BatchCommit) -> bool {
        self.to_bytes() == CommitDigest::of(commit).to_bytes()
    }
}

/// One record of the write-ahead journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// The run's head record: its full configuration.
    RunStarted(RunConfig),
    /// A batch was published (money committed on the platform).
    Dispatch(DispatchRecord),
    /// A clocked poll charged the requester.
    Charge {
        /// The charged job (global id).
        job: JobId,
        /// The polled HIT.
        hit: HitId,
        /// The amount charged by this poll.
        amount: f64,
        /// Simulated time of the poll.
        at: f64,
    },
    /// A batch outcome became part of run state (journaled as its digest).
    Commit(CommitDigest),
    /// One fleet event of a completed run's event stream.
    Event(FleetEvent),
    /// The run finished; the journal is complete.
    RunCompleted {
        /// Total requester cost of the run.
        cost: f64,
        /// Real questions resolved.
        questions: usize,
        /// Simulated makespan in minutes.
        makespan: f64,
    },
    /// Head record of a **service manifest** ([`crate::service::FleetService`]): the
    /// resident service's full configuration. Never appears in a run journal.
    ServiceOpened(ServiceConfig),
    /// A job was submitted to the service and an admission decision taken. Durable
    /// before the ticket is acknowledged, so a crash never forgets an admission.
    ServiceSubmitted(ServiceSubmission),
    /// A batch of admitted tickets was scheduled as epoch `epoch`, whose run journal
    /// lives beside the manifest.
    ServiceEpochStarted {
        /// The epoch's 0-based index.
        epoch: u64,
        /// Tickets scheduled, in epoch-local [`JobId`] order.
        tickets: Vec<u64>,
        /// The mode the epoch fleet runs under.
        mode: ExecutionMode,
    },
    /// Epoch `epoch`'s run completed with these totals.
    ServiceEpochCompleted {
        /// The completed epoch.
        epoch: u64,
        /// Requester cost of the epoch.
        cost: f64,
        /// Real questions the epoch resolved.
        questions: usize,
        /// The epoch's simulated makespan in minutes.
        makespan: f64,
    },
    /// The service shut down cleanly; the manifest is complete.
    ServiceClosed {
        /// Total requester cost across every epoch.
        total_cost: f64,
    },
}

impl JournalRecord {
    /// Whether this record must be durable before the run proceeds (the journal fsyncs
    /// after it under [`crate::journal::SyncPolicy::Commits`]).
    pub fn is_commit_class(&self) -> bool {
        matches!(
            self,
            JournalRecord::RunStarted(_)
                | JournalRecord::Commit(_)
                | JournalRecord::RunCompleted { .. }
                | JournalRecord::ServiceOpened(_)
                | JournalRecord::ServiceSubmitted(_)
                | JournalRecord::ServiceEpochStarted { .. }
                | JournalRecord::ServiceEpochCompleted { .. }
                | JournalRecord::ServiceClosed { .. }
        )
    }
}

impl BinCodec for JobId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(JobId(usize::decode(input)?))
    }
}

impl BinCodec for DispatchPolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            DispatchPolicy::RoundRobin => 0,
            DispatchPolicy::Priority => 1,
        });
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        match u8::decode(input)? {
            0 => Ok(DispatchPolicy::RoundRobin),
            1 => Ok(DispatchPolicy::Priority),
            other => Err(CodecError::new(format!(
                "invalid DispatchPolicy tag {other}"
            ))),
        }
    }
}

impl BinCodec for ArrivalDiscovery {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ArrivalDiscovery::Heap => 0,
            ArrivalDiscovery::Scan => 1,
        });
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        match u8::decode(input)? {
            0 => Ok(ArrivalDiscovery::Heap),
            1 => Ok(ArrivalDiscovery::Scan),
            other => Err(CodecError::new(format!(
                "invalid ArrivalDiscovery tag {other}"
            ))),
        }
    }
}

impl BinCodec for SchedulerConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.policy.encode(out);
        self.seed.encode(out);
        self.max_ticks.encode(out);
        self.discovery.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(SchedulerConfig {
            policy: DispatchPolicy::decode(input)?,
            seed: u64::decode(input)?,
            max_ticks: usize::decode(input)?,
            discovery: ArrivalDiscovery::decode(input)?,
        })
    }
}

impl BinCodec for ExecutionMode {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ExecutionMode::EndOfTime => out.push(0),
            ExecutionMode::Clocked => out.push(1),
            ExecutionMode::Parallel { shards } => {
                out.push(2);
                shards.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        match u8::decode(input)? {
            0 => Ok(ExecutionMode::EndOfTime),
            1 => Ok(ExecutionMode::Clocked),
            2 => Ok(ExecutionMode::Parallel {
                shards: usize::decode(input)?,
            }),
            other => Err(CodecError::new(format!(
                "invalid ExecutionMode tag {other}"
            ))),
        }
    }
}

impl BinCodec for JobKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            JobKind::SentimentAnalytics => 0,
            JobKind::ImageTagging => 1,
        });
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        match u8::decode(input)? {
            0 => Ok(JobKind::SentimentAnalytics),
            1 => Ok(JobKind::ImageTagging),
            other => Err(CodecError::new(format!("invalid JobKind tag {other}"))),
        }
    }
}

impl BinCodec for Query {
    fn encode(&self, out: &mut Vec<u8>) {
        self.keywords.encode(out);
        self.required_accuracy.encode(out);
        self.domain.encode(out);
        self.start.encode(out);
        self.window.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(Query {
            keywords: Vec::<String>::decode(input)?,
            required_accuracy: f64::decode(input)?,
            domain: AnswerDomain::decode(input)?,
            start: f64::decode(input)?,
            window: f64::decode(input)?,
        })
    }
}

impl BinCodec for AnalyticsJob {
    fn encode(&self, out: &mut Vec<u8>) {
        self.kind.encode(out);
        self.query.encode(out);
        self.name.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(AnalyticsJob {
            kind: JobKind::decode(input)?,
            query: Query::decode(input)?,
            name: String::decode(input)?,
        })
    }
}

impl BinCodec for VerificationStrategy {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            VerificationStrategy::HalfVoting => 0,
            VerificationStrategy::MajorityVoting => 1,
            VerificationStrategy::Probabilistic => 2,
        });
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        match u8::decode(input)? {
            0 => Ok(VerificationStrategy::HalfVoting),
            1 => Ok(VerificationStrategy::MajorityVoting),
            2 => Ok(VerificationStrategy::Probabilistic),
            other => Err(CodecError::new(format!(
                "invalid VerificationStrategy tag {other}"
            ))),
        }
    }
}

impl BinCodec for WorkerCountPolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WorkerCountPolicy::Fixed(n) => {
                out.push(0);
                n.encode(out);
            }
            WorkerCountPolicy::Predicted { mean_accuracy } => {
                out.push(1);
                mean_accuracy.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        match u8::decode(input)? {
            0 => Ok(WorkerCountPolicy::Fixed(usize::decode(input)?)),
            1 => Ok(WorkerCountPolicy::Predicted {
                mean_accuracy: f64::decode(input)?,
            }),
            other => Err(CodecError::new(format!(
                "invalid WorkerCountPolicy tag {other}"
            ))),
        }
    }
}

impl BinCodec for AccuracySource {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AccuracySource::GoldSampling => out.push(0),
            AccuracySource::Registry(registry) => {
                out.push(1);
                registry.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        match u8::decode(input)? {
            0 => Ok(AccuracySource::GoldSampling),
            1 => Ok(AccuracySource::Registry(AccuracyRegistry::decode(input)?)),
            other => Err(CodecError::new(format!(
                "invalid AccuracySource tag {other}"
            ))),
        }
    }
}

impl BinCodec for EngineConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.verification.encode(out);
        self.termination.encode(out);
        self.workers.encode(out);
        self.required_accuracy.encode(out);
        self.accuracy_source.encode(out);
        self.default_worker_accuracy.encode(out);
        self.domain_size.encode(out);
        self.reward.encode(out);
        self.cost_model.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(EngineConfig {
            verification: VerificationStrategy::decode(input)?,
            termination: Option::<TerminationStrategy>::decode(input)?,
            workers: WorkerCountPolicy::decode(input)?,
            required_accuracy: f64::decode(input)?,
            accuracy_source: AccuracySource::decode(input)?,
            default_worker_accuracy: f64::decode(input)?,
            domain_size: Option::<usize>::decode(input)?,
            reward: f64::decode(input)?,
            cost_model: CostModel::decode(input)?,
        })
    }
}

impl BinCodec for ScheduledJob {
    fn encode(&self, out: &mut Vec<u8>) {
        self.job.encode(out);
        self.questions.encode(out);
        self.engine.encode(out);
        self.batch_size.encode(out);
        self.priority.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(ScheduledJob {
            job: AnalyticsJob::decode(input)?,
            questions: Vec::<CrowdQuestion>::decode(input)?,
            engine: EngineConfig::decode(input)?,
            batch_size: usize::decode(input)?,
            priority: u8::decode(input)?,
        })
    }
}

impl BinCodec for DispatchRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tick.encode(out);
        self.job.encode(out);
        self.hit.encode(out);
        self.workers.encode(out);
        self.at.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(DispatchRecord {
            tick: usize::decode(input)?,
            job: JobId::decode(input)?,
            hit: HitId::decode(input)?,
            workers: Vec::decode(input)?,
            at: f64::decode(input)?,
        })
    }
}

impl BinCodec for QuestionVerdict {
    fn encode(&self, out: &mut Vec<u8>) {
        self.question.encode(out);
        self.verdict.encode(out);
        self.answers_used.encode(out);
        self.is_gold.encode(out);
        self.reasons.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(QuestionVerdict {
            question: QuestionId::decode(input)?,
            verdict: Verdict::decode(input)?,
            answers_used: usize::decode(input)?,
            is_gold: bool::decode(input)?,
            reasons: Vec::<String>::decode(input)?,
        })
    }
}

impl BinCodec for HitOutcome {
    fn encode(&self, out: &mut Vec<u8>) {
        self.hit.encode(out);
        self.verdicts.encode(out);
        self.workers_assigned.encode(out);
        self.estimated_mean_accuracy.encode(out);
        self.registry.encode(out);
        self.cost.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(HitOutcome {
            hit: HitId::decode(input)?,
            verdicts: Vec::decode(input)?,
            workers_assigned: usize::decode(input)?,
            estimated_mean_accuracy: Option::<f64>::decode(input)?,
            registry: AccuracyRegistry::decode(input)?,
            cost: f64::decode(input)?,
        })
    }
}

impl BinCodec for BatchCommit {
    fn encode(&self, out: &mut Vec<u8>) {
        self.job.encode(out);
        self.seq.encode(out);
        self.hit.encode(out);
        self.range.encode(out);
        self.outcome.encode(out);
        self.completed_at.encode(out);
        self.first_verdict_at.encode(out);
        self.reclaimed_minutes.encode(out);
        self.answers_cancelled.encode(out);
        self.cancelled.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(BatchCommit {
            job: JobId::decode(input)?,
            seq: usize::decode(input)?,
            hit: HitId::decode(input)?,
            range: std::ops::Range::<usize>::decode(input)?,
            outcome: HitOutcome::decode(input)?,
            completed_at: f64::decode(input)?,
            first_verdict_at: Option::<f64>::decode(input)?,
            reclaimed_minutes: f64::decode(input)?,
            answers_cancelled: usize::decode(input)?,
            cancelled: bool::decode(input)?,
        })
    }
}

impl BinCodec for FleetEvent {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            FleetEvent::JobStarted { job, name, at } => {
                out.push(0);
                job.encode(out);
                name.encode(out);
                at.encode(out);
            }
            FleetEvent::HitDispatched {
                job,
                hit,
                workers,
                at,
            } => {
                out.push(1);
                job.encode(out);
                hit.encode(out);
                workers.encode(out);
                at.encode(out);
            }
            FleetEvent::QuestionTerminated {
                job,
                question,
                verdict,
                reasons,
                answers_used,
                early,
                at,
            } => {
                out.push(2);
                job.encode(out);
                question.encode(out);
                verdict.encode(out);
                reasons.encode(out);
                answers_used.encode(out);
                early.encode(out);
                at.encode(out);
            }
            FleetEvent::FirstVerdict { job, at } => {
                out.push(3);
                job.encode(out);
                at.encode(out);
            }
            FleetEvent::LeaseReclaimed { job, minutes, at } => {
                out.push(4);
                job.encode(out);
                minutes.encode(out);
                at.encode(out);
            }
            FleetEvent::JobCompleted {
                job,
                questions,
                accuracy,
                at,
            } => {
                out.push(5);
                job.encode(out);
                questions.encode(out);
                accuracy.encode(out);
                at.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        match u8::decode(input)? {
            0 => Ok(FleetEvent::JobStarted {
                job: JobId::decode(input)?,
                name: String::decode(input)?,
                at: f64::decode(input)?,
            }),
            1 => Ok(FleetEvent::HitDispatched {
                job: JobId::decode(input)?,
                hit: HitId::decode(input)?,
                workers: usize::decode(input)?,
                at: f64::decode(input)?,
            }),
            2 => Ok(FleetEvent::QuestionTerminated {
                job: JobId::decode(input)?,
                question: QuestionId::decode(input)?,
                verdict: Verdict::decode(input)?,
                reasons: Vec::<String>::decode(input)?,
                answers_used: usize::decode(input)?,
                early: bool::decode(input)?,
                at: f64::decode(input)?,
            }),
            3 => Ok(FleetEvent::FirstVerdict {
                job: JobId::decode(input)?,
                at: f64::decode(input)?,
            }),
            4 => Ok(FleetEvent::LeaseReclaimed {
                job: JobId::decode(input)?,
                minutes: f64::decode(input)?,
                at: f64::decode(input)?,
            }),
            5 => Ok(FleetEvent::JobCompleted {
                job: JobId::decode(input)?,
                questions: usize::decode(input)?,
                accuracy: f64::decode(input)?,
                at: f64::decode(input)?,
            }),
            other => Err(CodecError::new(format!("invalid FleetEvent tag {other}"))),
        }
    }
}

impl BinCodec for RunConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.crowd.encode(out);
        self.scheduler.encode(out);
        self.mode.encode(out);
        self.jobs.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(RunConfig {
            crowd: CrowdSpec::decode(input)?,
            scheduler: SchedulerConfig::decode(input)?,
            mode: ExecutionMode::decode(input)?,
            jobs: Vec::decode(input)?,
        })
    }
}

impl BinCodec for CommitDigest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.job.encode(out);
        self.seq.encode(out);
        self.hit.encode(out);
        self.charge.encode(out);
        self.completed_at.encode(out);
        self.digest.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(CommitDigest {
            job: JobId::decode(input)?,
            seq: usize::decode(input)?,
            hit: HitId::decode(input)?,
            charge: f64::decode(input)?,
            completed_at: f64::decode(input)?,
            digest: u64::decode(input)?,
        })
    }
}

impl BinCodec for SyncPolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SyncPolicy::Commits => out.push(1),
            SyncPolicy::GroupCommit {
                max_batch,
                max_delay_ms,
            } => {
                out.push(3);
                max_batch.encode(out);
                max_delay_ms.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        // Tags 0 and 2 belonged to two retired policies (never fsync, fsync every
        // record) that no caller selected; they decode as invalid.
        match u8::decode(input)? {
            1 => Ok(SyncPolicy::Commits),
            3 => Ok(SyncPolicy::GroupCommit {
                max_batch: usize::decode(input)?,
                max_delay_ms: u64::decode(input)?,
            }),
            other => Err(CodecError::new(format!("invalid SyncPolicy tag {other}"))),
        }
    }
}

impl BinCodec for JournalConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.max_segment_bytes.encode(out);
        self.sync.encode(out);
        self.fail_writes_after.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(JournalConfig {
            max_segment_bytes: u64::decode(input)?,
            sync: SyncPolicy::decode(input)?,
            fail_writes_after: Option::<u64>::decode(input)?,
        })
    }
}

impl BinCodec for AdmissionDecision {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            AdmissionDecision::Accept => 0,
            AdmissionDecision::Queue => 1,
            AdmissionDecision::Reject => 2,
        });
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        match u8::decode(input)? {
            0 => Ok(AdmissionDecision::Accept),
            1 => Ok(AdmissionDecision::Queue),
            2 => Ok(AdmissionDecision::Reject),
            other => Err(CodecError::new(format!(
                "invalid AdmissionDecision tag {other}"
            ))),
        }
    }
}

impl BinCodec for AdmissionForecast {
    fn encode(&self, out: &mut Vec<u8>) {
        self.workers_per_hit.encode(out);
        self.batches.encode(out);
        self.worker_minutes.encode(out);
        self.cost.encode(out);
        self.makespan_minutes.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(AdmissionForecast {
            workers_per_hit: usize::decode(input)?,
            batches: usize::decode(input)?,
            worker_minutes: f64::decode(input)?,
            cost: f64::decode(input)?,
            makespan_minutes: f64::decode(input)?,
        })
    }
}

impl BinCodec for ServiceConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.crowd.encode(out);
        self.scheduler.encode(out);
        self.budget.encode(out);
        self.max_shards.encode(out);
        self.run_journal.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(ServiceConfig {
            crowd: CrowdSpec::decode(input)?,
            scheduler: SchedulerConfig::decode(input)?,
            budget: Option::<f64>::decode(input)?,
            max_shards: usize::decode(input)?,
            run_journal: JournalConfig::decode(input)?,
        })
    }
}

impl BinCodec for ServiceSubmission {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ticket.encode(out);
        self.job.encode(out);
        self.deadline_minutes.encode(out);
        self.decision.encode(out);
        self.forecast.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(ServiceSubmission {
            ticket: u64::decode(input)?,
            job: ScheduledJob::decode(input)?,
            deadline_minutes: Option::<f64>::decode(input)?,
            decision: AdmissionDecision::decode(input)?,
            forecast: AdmissionForecast::decode(input)?,
        })
    }
}

impl BinCodec for JournalRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            JournalRecord::RunStarted(config) => {
                out.push(1);
                config.encode(out);
            }
            JournalRecord::Dispatch(dispatch) => {
                out.push(2);
                dispatch.encode(out);
            }
            JournalRecord::Charge {
                job,
                hit,
                amount,
                at,
            } => {
                out.push(3);
                job.encode(out);
                hit.encode(out);
                amount.encode(out);
                at.encode(out);
            }
            JournalRecord::Commit(digest) => {
                out.push(4);
                digest.encode(out);
            }
            JournalRecord::Event(event) => {
                out.push(5);
                event.encode(out);
            }
            JournalRecord::RunCompleted {
                cost,
                questions,
                makespan,
            } => {
                out.push(7);
                cost.encode(out);
                questions.encode(out);
                makespan.encode(out);
            }
            JournalRecord::ServiceOpened(config) => {
                out.push(8);
                config.encode(out);
            }
            JournalRecord::ServiceSubmitted(submission) => {
                out.push(9);
                submission.encode(out);
            }
            JournalRecord::ServiceEpochStarted {
                epoch,
                tickets,
                mode,
            } => {
                out.push(10);
                epoch.encode(out);
                tickets.encode(out);
                mode.encode(out);
            }
            JournalRecord::ServiceEpochCompleted {
                epoch,
                cost,
                questions,
                makespan,
            } => {
                out.push(11);
                epoch.encode(out);
                cost.encode(out);
                questions.encode(out);
                makespan.encode(out);
            }
            JournalRecord::ServiceClosed { total_cost } => {
                out.push(12);
                total_cost.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        match u8::decode(input)? {
            1 => Ok(JournalRecord::RunStarted(RunConfig::decode(input)?)),
            2 => Ok(JournalRecord::Dispatch(DispatchRecord::decode(input)?)),
            3 => Ok(JournalRecord::Charge {
                job: JobId::decode(input)?,
                hit: HitId::decode(input)?,
                amount: f64::decode(input)?,
                at: f64::decode(input)?,
            }),
            4 => Ok(JournalRecord::Commit(CommitDigest::decode(input)?)),
            5 => Ok(JournalRecord::Event(FleetEvent::decode(input)?)),
            7 => Ok(JournalRecord::RunCompleted {
                cost: f64::decode(input)?,
                questions: usize::decode(input)?,
                makespan: f64::decode(input)?,
            }),
            8 => Ok(JournalRecord::ServiceOpened(ServiceConfig::decode(input)?)),
            9 => Ok(JournalRecord::ServiceSubmitted(ServiceSubmission::decode(
                input,
            )?)),
            10 => Ok(JournalRecord::ServiceEpochStarted {
                epoch: u64::decode(input)?,
                tickets: Vec::<u64>::decode(input)?,
                mode: ExecutionMode::decode(input)?,
            }),
            11 => Ok(JournalRecord::ServiceEpochCompleted {
                epoch: u64::decode(input)?,
                cost: f64::decode(input)?,
                questions: usize::decode(input)?,
                makespan: f64::decode(input)?,
            }),
            12 => Ok(JournalRecord::ServiceClosed {
                total_cost: f64::decode(input)?,
            }),
            other => Err(CodecError::new(format!(
                "invalid JournalRecord tag {other}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdas_core::types::{Label, WorkerId};
    use cdas_crowd::arrival::LatencyModel;

    fn round_trip<T: BinCodec + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_bytes();
        assert_eq!(T::from_bytes(&bytes).expect("decodes"), value);
    }

    fn demo_commit() -> BatchCommit {
        BatchCommit {
            job: JobId(2),
            seq: 1,
            hit: HitId(40),
            range: 4..8,
            outcome: HitOutcome {
                hit: HitId(40),
                verdicts: vec![QuestionVerdict {
                    question: QuestionId(5),
                    verdict: Verdict::Accepted {
                        label: Label::new("pos"),
                        confidence: 0.93,
                    },
                    answers_used: 3,
                    is_gold: false,
                    reasons: vec!["keyword".to_string()],
                }],
                workers_assigned: 5,
                estimated_mean_accuracy: Some(0.81),
                registry: {
                    let mut r = AccuracyRegistry::new();
                    r.set(WorkerId(3), 0.8, 2);
                    r
                },
                cost: 0.055,
            },
            completed_at: 12.5,
            first_verdict_at: Some(7.25),
            reclaimed_minutes: 1.5,
            answers_cancelled: 2,
            cancelled: true,
        }
    }

    fn demo_config() -> RunConfig {
        let crowd = CrowdSpec::clean(8, 0.85)
            .seed(7)
            .latency(LatencyModel::Exponential { mean: 5.0 });
        RunConfig {
            crowd,
            scheduler: SchedulerConfig::default(),
            mode: ExecutionMode::Parallel { shards: 2 },
            jobs: vec![ScheduledJob::named(
                JobKind::SentimentAnalytics,
                "demo",
                crate::fixtures::demo_questions(4, 1),
            )],
        }
    }

    #[test]
    fn scheduler_types_round_trip() {
        round_trip(JobId(9));
        round_trip(SchedulerConfig::default());
        round_trip(SchedulerConfig {
            policy: DispatchPolicy::Priority,
            seed: 99,
            max_ticks: 123,
            discovery: ArrivalDiscovery::Scan,
        });
        round_trip(ExecutionMode::EndOfTime);
        round_trip(ExecutionMode::Clocked);
        round_trip(ExecutionMode::Parallel { shards: 4 });
        round_trip(DispatchRecord {
            tick: 3,
            job: JobId(1),
            hit: HitId(17),
            workers: vec![WorkerId(2), WorkerId(5)],
            at: 8.75,
        });
    }

    /// Ids are varints: a dispatch to 15 workers with ids below 128 spends one byte
    /// per id, so a fallback to fixed-width integers shows as 105 extra bytes.
    #[test]
    fn a_dispatch_spends_one_byte_per_small_worker_id() {
        let dispatch = |workers: Vec<WorkerId>| {
            JournalRecord::Dispatch(DispatchRecord {
                tick: 3,
                job: JobId(1),
                hit: HitId(17),
                workers,
                at: 8.75,
            })
            .to_bytes()
        };
        let fifteen = dispatch((0..15).map(|i| WorkerId(8 * i + 7)).collect());
        let none = dispatch(Vec::new());
        assert_eq!(fifteen.len() - none.len(), 15);
        // Tag, tick, job, HIT and worker count take a byte each; the time takes 8.
        assert_eq!(fifteen.len(), 5 + 15 + 8);
    }

    #[test]
    fn engine_config_round_trips_all_variants() {
        round_trip(EngineConfig::default());
        let mut registry = AccuracyRegistry::new();
        registry.set(WorkerId(1), 0.9, 3);
        round_trip(EngineConfig {
            verification: VerificationStrategy::Probabilistic,
            termination: Some(TerminationStrategy::ExpMax),
            workers: WorkerCountPolicy::Predicted { mean_accuracy: 0.8 },
            required_accuracy: 0.9,
            accuracy_source: AccuracySource::Registry(registry),
            default_worker_accuracy: 0.7,
            domain_size: Some(3),
            reward: 0.02,
            cost_model: CostModel::default(),
        });
    }

    #[test]
    fn commits_and_records_round_trip() {
        round_trip(demo_commit());
        round_trip(JournalRecord::Commit(CommitDigest::of(&demo_commit())));
        round_trip(JournalRecord::RunStarted(demo_config()));
        round_trip(JournalRecord::Dispatch(DispatchRecord {
            tick: 2,
            job: JobId(1),
            hit: HitId(9),
            workers: vec![WorkerId(4), WorkerId(7)],
            at: 6.25,
        }));
        round_trip(JournalRecord::Charge {
            job: JobId(0),
            hit: HitId(3),
            amount: 0.011,
            at: 4.5,
        });
        round_trip(JournalRecord::Event(FleetEvent::FirstVerdict {
            job: JobId(1),
            at: 3.25,
        }));
        round_trip(JournalRecord::RunCompleted {
            cost: 1.25,
            questions: 64,
            makespan: 88.5,
        });
    }

    /// The digest is the only check recovery makes on a commit's content, so each
    /// field of the commit, down to one verdict's reasons and one registry entry, must
    /// change it.
    #[test]
    fn digests_reject_a_commit_changed_in_any_one_field() {
        let commit = demo_commit();
        let digest = CommitDigest::of(&commit);
        assert!(digest.matches(&commit));
        assert_eq!(digest.charge, commit.outcome.cost);
        assert_eq!(digest.completed_at, commit.completed_at);
        type Edit = fn(&mut BatchCommit);
        let edits: [(&str, Edit); 18] = [
            ("job", |c| c.job = JobId(3)),
            ("seq", |c| c.seq += 1),
            ("hit", |c| c.hit = HitId(41)),
            ("range", |c| c.range = 4..7),
            ("verdict label", |c| {
                for v in &mut c.outcome.verdicts {
                    v.verdict = Verdict::Accepted {
                        label: Label::new("neg"),
                        confidence: 0.93,
                    };
                }
            }),
            ("verdict confidence", |c| {
                for v in &mut c.outcome.verdicts {
                    v.verdict = Verdict::Accepted {
                        label: Label::new("pos"),
                        confidence: 0.94,
                    };
                }
            }),
            ("verdict reasons", |c| {
                for v in &mut c.outcome.verdicts {
                    v.reasons.push("early".to_string());
                }
            }),
            ("verdict answers_used", |c| {
                for v in &mut c.outcome.verdicts {
                    v.answers_used += 1;
                }
            }),
            ("verdict is_gold", |c| {
                for v in &mut c.outcome.verdicts {
                    v.is_gold = true;
                }
            }),
            ("registry entry", |c| {
                c.outcome.registry.set(WorkerId(3), 0.75, 2)
            }),
            ("estimated_mean_accuracy", |c| {
                c.outcome.estimated_mean_accuracy = Some(0.82)
            }),
            ("cost", |c| c.outcome.cost += 0.01),
            ("completed_at", |c| c.completed_at = 12.75),
            ("first_verdict_at", |c| c.first_verdict_at = None),
            ("reclaimed_minutes", |c| c.reclaimed_minutes = 1.75),
            ("answers_cancelled", |c| c.answers_cancelled += 1),
            ("cancelled", |c| c.cancelled = false),
            ("workers_assigned", |c| c.outcome.workers_assigned += 1),
        ];
        for (field, edit) in edits {
            let mut changed = commit.clone();
            edit(&mut changed);
            assert_ne!(changed, commit, "{field}: the edit must change the commit");
            assert!(
                !digest.matches(&changed),
                "{field}: the digest must reject it"
            );
        }
        // The plain fields are checked too: recovery reads the charge off the record.
        let mut wrong_charge = digest.clone();
        wrong_charge.charge += 0.01;
        assert!(!wrong_charge.matches(&commit));
    }

    #[test]
    fn service_records_round_trip() {
        for policy in [
            SyncPolicy::Commits,
            SyncPolicy::GroupCommit {
                max_batch: 8,
                max_delay_ms: 50,
            },
        ] {
            round_trip(policy);
        }
        for retired in [0u8, 2] {
            assert!(
                SyncPolicy::from_bytes(&[retired]).is_err(),
                "SyncPolicy tag {retired} must not decode"
            );
        }
        round_trip(JournalConfig {
            max_segment_bytes: 4096,
            sync: SyncPolicy::GroupCommit {
                max_batch: 3,
                max_delay_ms: 125,
            },
            fail_writes_after: Some(999),
        });
        for decision in [
            AdmissionDecision::Accept,
            AdmissionDecision::Queue,
            AdmissionDecision::Reject,
        ] {
            round_trip(decision);
        }
        let forecast = AdmissionForecast {
            workers_per_hit: 5,
            batches: 3,
            worker_minutes: 75.0,
            cost: 0.165,
            makespan_minutes: f64::INFINITY,
        };
        round_trip(forecast);
        let config = ServiceConfig::new(
            CrowdSpec::clean(16, 0.85)
                .seed(3)
                .latency(LatencyModel::Exponential { mean: 5.0 }),
        )
        .budget(12.5)
        .max_shards(2);
        round_trip(JournalRecord::ServiceOpened(config));
        round_trip(JournalRecord::ServiceSubmitted(ServiceSubmission {
            ticket: 4,
            job: ScheduledJob::named(
                JobKind::SentimentAnalytics,
                "svc",
                crate::fixtures::demo_questions(4, 1),
            ),
            deadline_minutes: Some(45.0),
            decision: AdmissionDecision::Queue,
            forecast,
        }));
        round_trip(JournalRecord::ServiceEpochStarted {
            epoch: 2,
            tickets: vec![0, 3, 4],
            mode: ExecutionMode::Parallel { shards: 2 },
        });
        round_trip(JournalRecord::ServiceEpochCompleted {
            epoch: 2,
            cost: 1.75,
            questions: 48,
            makespan: 91.25,
        });
        round_trip(JournalRecord::ServiceClosed { total_cost: 3.5 });
    }

    #[test]
    fn service_records_are_commit_class() {
        assert!(JournalRecord::ServiceClosed { total_cost: 0.0 }.is_commit_class());
        assert!(JournalRecord::ServiceEpochStarted {
            epoch: 0,
            tickets: vec![],
            mode: ExecutionMode::Clocked,
        }
        .is_commit_class());
        assert!(!JournalRecord::Event(FleetEvent::FirstVerdict {
            job: JobId(0),
            at: 1.0,
        })
        .is_commit_class());
    }

    #[test]
    fn fleet_events_round_trip() {
        for event in [
            FleetEvent::JobStarted {
                job: JobId(0),
                name: "j".to_string(),
                at: 0.0,
            },
            FleetEvent::HitDispatched {
                job: JobId(0),
                hit: HitId(1),
                workers: 5,
                at: 1.0,
            },
            FleetEvent::QuestionTerminated {
                job: JobId(0),
                question: QuestionId(2),
                verdict: Verdict::NoAnswer,
                reasons: vec![],
                answers_used: 4,
                early: true,
                at: 2.0,
            },
            FleetEvent::FirstVerdict {
                job: JobId(0),
                at: 2.0,
            },
            FleetEvent::LeaseReclaimed {
                job: JobId(0),
                minutes: 3.5,
                at: 4.0,
            },
            FleetEvent::JobCompleted {
                job: JobId(0),
                questions: 8,
                accuracy: 0.875,
                at: 9.0,
            },
        ] {
            round_trip(event);
        }
    }
}
