//! Scoring engine output against ground truth: the "real accuracy" of the evaluation
//! figures, plus the auxiliary measures the paper reports (no-answer ratio, answers
//! consumed, cost), and the per-job / fleet-wide rollups emitted by the multi-job
//! scheduler ([`JobReport`], [`FleetReport`]).

use std::collections::BTreeMap;

use cdas_core::types::{Label, QuestionId};
use cdas_crowd::question::CrowdQuestion;
use serde::{Deserialize, Serialize};

use crate::engine::HitOutcome;
use crate::job_manager::JobKind;
use crate::scheduler::{DispatchRecord, JobId};

/// Accuracy-style metrics of one or more HIT outcomes against ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Real accuracy over *all* real questions: unanswered questions count as wrong
    /// (this is the quantity plotted in Figures 7, 8, 13, 16, 18).
    pub accuracy: f64,
    /// Accuracy restricted to the questions that received an accepted answer.
    pub accuracy_over_answered: f64,
    /// Fraction of real questions with no accepted answer (Figures 9 and 10).
    pub no_answer_ratio: f64,
    /// Mean number of answers consumed per real question (Figure 12).
    pub mean_answers_used: f64,
    /// Number of real questions scored.
    pub questions: usize,
    /// Total engine-side cost of the scored HITs, in dollars.
    pub cost: f64,
}

/// Score one HIT outcome against the ground truth carried by its questions.
pub fn score_hit(questions: &[CrowdQuestion], outcome: &HitOutcome) -> AccuracyReport {
    score_hits(std::iter::once((questions, outcome)))
}

/// Score several HIT outcomes together (e.g. every HIT of a query window).
pub fn score_hits<'a>(
    runs: impl IntoIterator<Item = (&'a [CrowdQuestion], &'a HitOutcome)>,
) -> AccuracyReport {
    let mut total = 0usize;
    let mut correct = 0usize;
    let mut answered = 0usize;
    let mut answered_correct = 0usize;
    let mut answers_used = 0usize;
    let mut cost = 0.0f64;
    for (questions, outcome) in runs {
        let truth: BTreeMap<QuestionId, &Label> =
            questions.iter().map(|q| (q.id, &q.ground_truth)).collect();
        cost += outcome.cost;
        for verdict in outcome.real_verdicts() {
            let Some(expected) = truth.get(&verdict.question) else {
                continue;
            };
            total += 1;
            answers_used += verdict.answers_used;
            if let Some(label) = verdict.verdict.label() {
                answered += 1;
                if &label == expected {
                    correct += 1;
                    answered_correct += 1;
                }
            }
        }
    }
    AccuracyReport {
        accuracy: ratio(correct, total),
        accuracy_over_answered: ratio(answered_correct, answered),
        no_answer_ratio: ratio(total - answered, total),
        mean_answers_used: if total == 0 {
            0.0
        } else {
            answers_used as f64 / total as f64
        },
        questions: total,
        cost,
    }
}

/// One job's rollup in a fleet run: its accuracy metrics plus the scheduling facts
/// (contention waits, distinct workers consumed) the single-job path has no notion of.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobReport {
    /// The job's scheduler id.
    pub job: JobId,
    /// Human-readable job name.
    pub name: String,
    /// The job kind (TSA or IT).
    pub kind: JobKind,
    /// The job's dispatch priority.
    pub priority: u8,
    /// Accuracy/cost metrics over all the job's batches.
    pub report: AccuracyReport,
    /// Number of HIT batches the job ran.
    pub hits: usize,
    /// Ticks the job spent waiting because the shared pool had too few free workers.
    pub ticks_waited: usize,
    /// Distinct workers that served this job across all its batches.
    pub distinct_workers: usize,
    /// Simulated time of the job's first final verdict on a real question (0.0 in
    /// end-of-time runs; `None` when nothing was accepted).
    pub time_to_first_verdict: Option<f64>,
    /// Simulated time the job's last batch completed (0.0 in end-of-time runs).
    pub completed_at: f64,
    /// Simulated worker-minutes handed back to the pool by this job's mid-flight
    /// cancellations (0.0 in end-of-time runs — cancelling at the end of time reclaims
    /// nothing).
    pub reclaimed_minutes: f64,
    /// Per-question answers of this job cancelled before delivery (never paid).
    pub answers_cancelled: usize,
}

/// One platform shard's rollup in a parallel fleet run ([`JobScheduler::run_parallel`]):
/// which jobs the shard owned, how much simulated and real time its thread spent, and its
/// share of the fleet's questions, dollars and reclaimed minutes. Sequential runs
/// (`run`/`run_clocked`) report themselves as the single shard 0 of the same shape — they
/// are the one-shard special case of the parallel code path.
///
/// [`JobScheduler::run_parallel`]: crate::scheduler::JobScheduler::run_parallel
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// The shard index (also the platform shard and thread index).
    pub shard: usize,
    /// The jobs assigned to this shard, by global [`JobId`], in submission order.
    pub jobs: Vec<JobId>,
    /// Scheduler ticks (arrival events) this shard processed.
    pub ticks: usize,
    /// Simulated minutes from the shard's start to its last batch completion.
    pub makespan: f64,
    /// Real questions this shard resolved.
    pub questions: usize,
    /// Dollars this shard's platform charged.
    pub cost: f64,
    /// Simulated worker-minutes this shard's cancellations reclaimed.
    pub reclaimed_minutes: f64,
    /// Per-question answers this shard cancelled before delivery.
    pub answers_cancelled: usize,
    /// Real (host wall-clock) seconds the shard's thread spent inside its run loop.
    /// Nondeterministic by nature — compare reports with
    /// [`FleetReport::ignoring_wall_clock`] when asserting run equivalence.
    pub wall_seconds: f64,
}

/// The fleet-wide rollup of one scheduler run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Per-job reports, in submission order.
    pub jobs: Vec<JobReport>,
    /// Metrics over every batch of every job.
    pub fleet: AccuracyReport,
    /// Per-shard rollups: one entry per OS thread in a parallel run, exactly one entry
    /// (shard 0) for the sequential `run`/`run_clocked` paths.
    pub shards: Vec<ShardReport>,
    /// Number of scheduler ticks the fleet took, summed across shards. In a clocked run
    /// every tick advances simulated time to the next answer arrival, so ticks are
    /// *events*, not time — see [`makespan`](Self::makespan).
    pub ticks: usize,
    /// Simulated minutes from the start of the run to the completion of its last batch
    /// (0.0 in end-of-time runs, whose clock never moves).
    pub makespan: f64,
    /// Simulated worker-minutes reclaimed fleet-wide by mid-flight cancellations.
    pub reclaimed_minutes: f64,
    /// Per-question answers cancelled before delivery across the fleet (never paid).
    pub answers_cancelled: usize,
    /// The dispatch timeline (which job published which HIT with which workers, when).
    pub dispatches: Vec<DispatchRecord>,
    /// Workers with an estimate in the shared registry after the run.
    pub registry_size: usize,
    /// Shared-registry reads with no write since the previous read of the same
    /// scheduler (see [`cdas_core::sharing::AccuracyCache`]).
    pub cache_hits: u64,
    /// Shared-registry reads with a write since the previous read of the same scheduler
    /// (each scheduler's first read included).
    pub cache_misses: u64,
}

impl FleetReport {
    /// Fleet throughput: real questions resolved per scheduler tick.
    pub fn questions_per_tick(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.fleet.questions as f64 / self.ticks as f64
        }
    }

    /// Total dollars spent across the fleet.
    pub fn total_cost(&self) -> f64 {
        self.fleet.cost
    }

    /// The largest number of HITs that were in flight during one tick.
    pub fn max_concurrent_hits(&self) -> usize {
        let mut per_tick: BTreeMap<usize, usize> = BTreeMap::new();
        for d in &self.dispatches {
            *per_tick.entry(d.tick).or_default() += 1;
        }
        per_tick.values().copied().max().unwrap_or(0)
    }

    /// Fleet throughput in real questions per simulated minute (0 for end-of-time runs).
    pub fn questions_per_minute(&self) -> f64 {
        if self.makespan <= 0.0 {
            0.0
        } else {
            self.fleet.questions as f64 / self.makespan
        }
    }

    /// Fraction of shared-registry reads that were hits (no write since the previous
    /// read).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// How much the run's *sharding* compressed the work: the sum of per-shard loop times
    /// divided by the slowest single shard. This is the speedup an ideally-parallel host
    /// would realize over running the same shards back to back — a measure of how evenly
    /// the work was partitioned (`1.0` for one shard, approaching the shard count under
    /// perfect balance), **not** the achieved end-to-end ratio: each shard times only its
    /// own loop, so an oversubscribed or single-core host that serializes the threads
    /// still reports the partition-balance number. An end-to-end ratio needs whole runs
    /// timed at each shard count on one host.
    pub fn parallel_speedup(&self) -> f64 {
        let total: f64 = self.shards.iter().map(|s| s.wall_seconds).sum();
        let slowest = self
            .shards
            .iter()
            .map(|s| s.wall_seconds)
            .fold(0.0, f64::max);
        if slowest <= 0.0 {
            1.0
        } else {
            total / slowest
        }
    }

    /// A copy with each shard's host `wall_seconds` zeroed and the cache hit/miss split
    /// folded into `cache_hits`, which keeps the total read count: the split records how
    /// registry writes fell between reads, not what the run computed.
    ///
    /// Equivalence assertions (e.g. "a 1-shard parallel run is byte-identical to
    /// `run_clocked`") compare through this.
    pub fn ignoring_wall_clock(&self) -> FleetReport {
        let mut copy = self.clone();
        for shard in &mut copy.shards {
            shard.wall_seconds = 0.0;
        }
        copy.cache_hits += copy.cache_misses;
        copy.cache_misses = 0;
        copy
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QuestionVerdict;
    use cdas_core::accuracy::AccuracyRegistry;
    use cdas_core::types::{AnswerDomain, HitId};
    use cdas_core::verification::Verdict;

    fn question(id: u64, truth: &str, gold: bool) -> CrowdQuestion {
        let q = CrowdQuestion::new(
            QuestionId(id),
            AnswerDomain::from_strs(&["a", "b", "c"]),
            Label::from(truth),
        );
        if gold {
            q.as_gold()
        } else {
            q
        }
    }

    fn verdict(id: u64, answer: Option<&str>, used: usize, gold: bool) -> QuestionVerdict {
        QuestionVerdict {
            question: QuestionId(id),
            verdict: match answer {
                Some(a) => Verdict::Accepted {
                    label: Label::from(a),
                    confidence: 0.9,
                },
                None => Verdict::NoAnswer,
            },
            answers_used: used,
            is_gold: gold,
            reasons: Vec::new(),
        }
    }

    fn outcome(verdicts: Vec<QuestionVerdict>, cost: f64) -> HitOutcome {
        HitOutcome {
            hit: HitId(0),
            verdicts,
            workers_assigned: 5,
            estimated_mean_accuracy: Some(0.75),
            registry: AccuracyRegistry::new(),
            cost,
        }
    }

    #[test]
    fn scoring_counts_unanswered_as_wrong() {
        let questions = vec![
            question(0, "a", false),
            question(1, "b", false),
            question(2, "c", false),
            question(3, "a", true), // gold: excluded from scoring
        ];
        let o = outcome(
            vec![
                verdict(0, Some("a"), 5, false), // correct
                verdict(1, Some("c"), 5, false), // wrong
                verdict(2, None, 5, false),      // unanswered
                verdict(3, Some("a"), 5, true),  // gold, ignored
            ],
            0.25,
        );
        let report = score_hit(&questions, &o);
        assert_eq!(report.questions, 3);
        assert!((report.accuracy - 1.0 / 3.0).abs() < 1e-12);
        assert!((report.accuracy_over_answered - 0.5).abs() < 1e-12);
        assert!((report.no_answer_ratio - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.mean_answers_used, 5.0);
        assert_eq!(report.cost, 0.25);
    }

    #[test]
    fn scoring_multiple_hits_accumulates() {
        let q1 = vec![question(0, "a", false)];
        let o1 = outcome(vec![verdict(0, Some("a"), 3, false)], 0.1);
        let q2 = vec![question(1, "b", false)];
        let o2 = outcome(vec![verdict(1, Some("a"), 7, false)], 0.2);
        let report = score_hits(vec![(q1.as_slice(), &o1), (q2.as_slice(), &o2)]);
        assert_eq!(report.questions, 2);
        assert!((report.accuracy - 0.5).abs() < 1e-12);
        assert!((report.mean_answers_used - 5.0).abs() < 1e-12);
        assert!((report.cost - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_input_yields_zeroes() {
        let report = score_hits(Vec::<(&[CrowdQuestion], &HitOutcome)>::new());
        assert_eq!(report.questions, 0);
        assert_eq!(report.accuracy, 0.0);
        assert_eq!(report.no_answer_ratio, 0.0);
    }

    fn shard(shard: usize, wall_seconds: f64) -> ShardReport {
        ShardReport {
            shard,
            jobs: vec![JobId(shard)],
            ticks: 10,
            makespan: 5.0,
            questions: 4,
            cost: 0.1,
            reclaimed_minutes: 0.0,
            answers_cancelled: 0,
            wall_seconds,
        }
    }

    fn fleet_with_shards(shards: Vec<ShardReport>) -> FleetReport {
        FleetReport {
            jobs: Vec::new(),
            fleet: score_hits(Vec::<(&[CrowdQuestion], &HitOutcome)>::new()),
            shards,
            ticks: 0,
            makespan: 0.0,
            reclaimed_minutes: 0.0,
            answers_cancelled: 0,
            dispatches: Vec::new(),
            registry_size: 0,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    #[test]
    fn parallel_speedup_is_total_over_slowest() {
        // Four balanced shards → ~4x; one dominant shard → barely above 1.
        let balanced = fleet_with_shards(vec![
            shard(0, 1.0),
            shard(1, 1.0),
            shard(2, 1.0),
            shard(3, 1.0),
        ]);
        assert!((balanced.parallel_speedup() - 4.0).abs() < 1e-12);
        let skewed = fleet_with_shards(vec![shard(0, 4.0), shard(1, 0.1)]);
        assert!((skewed.parallel_speedup() - 4.1 / 4.0).abs() < 1e-12);
        let sequential = fleet_with_shards(vec![shard(0, 2.0)]);
        assert_eq!(sequential.parallel_speedup(), 1.0);
        let empty = fleet_with_shards(Vec::new());
        assert_eq!(empty.parallel_speedup(), 1.0);
    }

    #[test]
    fn ignoring_wall_clock_zeroes_only_the_timings() {
        let report = fleet_with_shards(vec![shard(0, 1.5), shard(1, 2.5)]);
        let normalized = report.ignoring_wall_clock();
        assert!(normalized.shards.iter().all(|s| s.wall_seconds == 0.0));
        assert_eq!(normalized.shards.len(), report.shards.len());
        assert_eq!(normalized.shards[1].ticks, report.shards[1].ticks);
        assert_eq!(normalized.shards[1].jobs, report.shards[1].jobs);
        // Two runs that differ only in wall clock compare equal through it.
        let other = fleet_with_shards(vec![shard(0, 9.0), shard(1, 0.001)]);
        assert_eq!(normalized, other.ignoring_wall_clock());
    }

    #[test]
    fn ignoring_wall_clock_folds_the_racy_cache_split_into_the_total() {
        // The fold keeps only hits + misses. Same total, different split → equal.
        let mut a = fleet_with_shards(vec![shard(0, 1.0)]);
        a.cache_hits = 19;
        a.cache_misses = 7;
        let mut b = fleet_with_shards(vec![shard(0, 2.0)]);
        b.cache_hits = 20;
        b.cache_misses = 6;
        assert_eq!(a.ignoring_wall_clock(), b.ignoring_wall_clock());
        assert_eq!(a.ignoring_wall_clock().cache_hits, 26);
        assert_eq!(a.ignoring_wall_clock().cache_misses, 0);
        // A different total still diverges.
        let mut c = fleet_with_shards(vec![shard(0, 1.0)]);
        c.cache_hits = 20;
        c.cache_misses = 7;
        assert_ne!(a.ignoring_wall_clock(), c.ignoring_wall_clock());
    }
}
