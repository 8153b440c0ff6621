//! # cdas-engine — the CDAS query engine
//!
//! This crate assembles the quality-sensitive answering model (`cdas-core`), the simulated
//! crowd platform (`cdas-crowd`), the synthetic workloads (`cdas-workloads`) and the
//! machine baselines (`cdas-baselines`) into the system described in §2 of the paper:
//!
//! * the [`query`] module defines the TSA-style query `(S, C, R, t, w)` (Definition 1),
//! * the [`job_manager`] turns an analytics job into a processing plan split between the
//!   [`executor`] (computer part: stream filtering) and the [`engine`] (human part),
//! * the [`template`] module renders HIT descriptions (Figure 3) and the [`privacy`]
//!   manager can mask sensitive content and reject workers,
//! * the [`engine`] module implements the two-phase crowdsourcing engine of Algorithm 1:
//!   predict the worker count, publish the HIT, collect answers asynchronously, estimate
//!   worker accuracy from gold questions, verify answers (voting or probabilistic,
//!   offline or online with early termination) and account for cost,
//! * the [`apps`] module wires two complete applications — Twitter Sentiment Analytics and
//!   Image Tagging — end to end,
//! * the [`clocked`] module is phase 2 under **simulated time** (§4.2 made temporal): a
//!   discrete-event collector feeds answers to the online processors as they arrive,
//!   cancels early-terminated HITs mid-flight so uncollected assignments are never paid,
//!   and reports latency, makespan and reclaimed worker-minutes; over a platform without
//!   arrival look-ahead it is also the engine's end-of-time collection,
//! * the [`scheduler`] module multiplexes **many concurrent jobs** over one shared worker
//!   pool: disjoint worker leases per in-flight HIT (RAII guards that release on drop, so
//!   no error or panic strands workers), a fleet-wide shared accuracy registry, and
//!   round-robin/priority dispatch (the §2.1 job manager at scale) —
//!   time-aware via [`scheduler::JobScheduler::run_clocked`], where cancelled HITs hand
//!   their leases to waiting jobs mid-run, the same loop polling at the end of time via
//!   [`scheduler::JobScheduler::run`], or **parallel across OS threads** via
//!   [`scheduler::JobScheduler::run_parallel`] over a sharded platform
//!   (`cdas_crowd::sharded::ShardedPlatform`), of which `run_clocked` is the one-shard
//!   special case, and
//! * the [`metrics`] module scores any of it against ground truth (real accuracy,
//!   no-answer ratio, workers consumed, dollars spent), per job and fleet-wide,
//! * the [`fleet`] module is the **front door**: a [`fleet::Fleet`] facade whose
//!   typestate builder collapses the pool/platform/ledger/scheduler wiring into one
//!   chain, whose [`fleet::JobSpec`]s layer job overrides over fleet defaults, and whose
//!   single [`fleet::Fleet::run`] entry point dispatches to the scheduler's entry points
//!   by [`fleet::ExecutionMode`] and streams [`fleet::FleetEvent`]s back, and
//! * the [`fixtures`] module holds the deterministic demo questions examples, benches
//!   and doc-tests feed the scheduler (not part of the production pipeline).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod apps;
pub mod clocked;
pub mod engine;
pub mod executor;
pub mod fixtures;
pub mod fleet;
pub mod job_manager;
pub mod journal;
pub mod metrics;
pub mod privacy;
pub mod query;
pub mod scheduler;
pub mod service;
pub mod template;

pub use clocked::{ClockedCollector, ClockedOutcome};
pub use engine::{
    BatchTicket, CrowdsourcingEngine, EngineConfig, HitOutcome, QuestionVerdict,
    VerificationStrategy, WorkerCountPolicy,
};
pub use fleet::{ExecutionMode, Fleet, FleetBuilder, FleetEvent, FleetRun, JobSpec};
pub use journal::{Journal, JournalConfig, RecoveryReport, SyncPolicy};
pub use metrics::{FleetReport, JobReport, ShardReport};
pub use query::Query;
pub use scheduler::{DispatchPolicy, JobId, JobScheduler, ScheduledJob, SchedulerConfig};
pub use service::{
    AdmissionDecision, AdmissionForecast, AdmissionModel, FleetService, JobTicket, Rejected,
    ServiceConfig, ServiceEvent, ServiceRecovery, ServiceReport,
};
