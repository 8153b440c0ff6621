//! The simulated crowdsourcing platform: publish HITs, receive answers asynchronously,
//! cancel HITs early, and get charged per delivered assignment (§3.1's economic model,
//! including the paper's footnote that a cancelled HIT does not pay workers who have not
//! submitted yet).

use std::collections::{BTreeMap, VecDeque};

use cdas_core::economics::CostModel;
use cdas_core::types::{HitId, Label, QuestionId, WorkerId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::arrival::ArrivalSchedule;
use crate::hit::{HitRequest, PublishedHit};
use crate::pool::WorkerPool;

/// One worker's answer to one question of a HIT, delivered at a simulated time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerAnswer {
    /// The HIT the answer belongs to.
    pub hit: HitId,
    /// The answering worker.
    pub worker: WorkerId,
    /// The question answered.
    pub question: QuestionId,
    /// The chosen label.
    pub label: Label,
    /// Reason keywords the worker attached (empty for wrong or lazy answers).
    pub keywords: Vec<String>,
    /// Simulated time (minutes since publication) the answer arrived at.
    pub arrived_at: f64,
    /// The worker's publicly visible approval rate at submission time.
    pub approval_rate: f64,
}

/// What a [`CrowdPlatform::cancel`] call took back: how much work was still outstanding
/// when the HIT was cancelled, and what the cancellation is worth.
///
/// The paper's footnote to §3.1 is the economic contract: workers who already submitted
/// are paid, workers who have not are not. A mid-flight cancellation therefore *refunds*
/// every uncollected assignment (it is never charged) and — because those workers would
/// otherwise have kept working until their completion time — returns their remaining
/// simulated minutes to the crowd, which is what a scheduler can re-lease to another job.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[must_use = "a CancelReceipt carries the refunded answers and reclaimed minutes; dropping it discards that accounting"]
pub struct CancelReceipt {
    /// Per-question answers that will now never be delivered (and never be paid for).
    pub answers_cancelled: usize,
    /// Distinct workers whose submission was cut off before arrival.
    pub workers_cancelled: usize,
    /// Simulated worker-minutes reclaimed: for each cancelled worker, the time between the
    /// cancellation and the moment their submission would have arrived. Zero when the HIT
    /// was cancelled "at the end of time" (nothing left to reclaim — the motivation for
    /// clocked collection).
    pub reclaimed_minutes: f64,
}

impl CancelReceipt {
    /// A receipt for a cancel that found nothing outstanding (unknown HIT, double cancel,
    /// or a HIT whose answers were all already delivered).
    pub fn empty() -> Self {
        CancelReceipt::default()
    }

    /// Whether the cancellation actually cut anything off.
    pub fn cancelled_anything(&self) -> bool {
        self.answers_cancelled > 0
    }
}

/// The interface the crowdsourcing engine programs against. `SimulatedPlatform` is the
/// primary implementation in this repository (a [`crate::sharded::ShardedPlatform`]
/// partitions several of them for parallel fleets); a real AMT adapter would implement
/// the same trait.
///
/// The trait requires `Send`: the parallel scheduler
/// (`cdas_engine::scheduler::JobScheduler::run_parallel`) moves each platform shard into
/// its own OS thread, so any implementation must be transferable across threads. Every
/// reasonable platform already is — the simulated one is plain owned data, and a real
/// adapter holds an HTTP client.
pub trait CrowdPlatform: Send {
    /// Publish a HIT and return its identifier.
    fn publish(&mut self, request: HitRequest) -> HitId;

    /// Publish a HIT restricted to an explicit set of workers (the lease-aware path used
    /// by the multi-job scheduler: the caller checked the workers out of a
    /// [`crate::lease::PoolLedger`] first, so concurrent HITs never share a worker).
    ///
    /// Platforms without assignment control (e.g. a plain AMT adapter) may ignore the
    /// restriction; the default implementation falls back to [`publish`](Self::publish).
    fn publish_to(&mut self, request: HitRequest, workers: &[WorkerId]) -> HitId {
        let _ = workers;
        self.publish(request)
    }

    /// Inform the platform of the current simulated time. HITs published afterwards are
    /// stamped `published_at = now` and their answers arrive at `now + latency`, so a
    /// batch published mid-run can never deliver answers from before its own publication.
    /// Defaults to a no-op for platforms with their own notion of time (a real AMT
    /// adapter); the simulated platform's clock is monotone, ignoring backwards and
    /// non-finite targets.
    fn advance_time(&mut self, now: f64) {
        let _ = now;
    }

    /// All answers of the HIT that have *arrived* by the absolute simulated time `now` and
    /// have not been returned by a previous poll.
    fn poll(&mut self, hit: HitId, now: f64) -> Vec<WorkerAnswer>;

    /// Arrival time of the earliest answer of the HIT that has not been delivered yet, or
    /// `None` when nothing further will arrive (everything delivered, the HIT cancelled,
    /// or the HIT unknown).
    ///
    /// This is the event source of the discrete-event simulation: a clocked collector
    /// advances its [`crate::clock::SimClock`] to this time and polls. Platforms that
    /// cannot look ahead (a real AMT adapter polling a remote queue) may keep the default
    /// `None`; clocked callers then make a single end-of-time poll per HIT and stamp it
    /// with the current instant — which is how the engine's end-of-time collection runs
    /// on every platform.
    fn next_arrival(&self, hit: HitId) -> Option<f64> {
        let _ = hit;
        None
    }

    /// Cancel the outstanding assignments of a HIT at simulated time `now`. Uncollected
    /// assignments are marked unpaid (they are refunded, never charged) and the receipt
    /// reports how many answers and workers were cut off and how many worker-minutes the
    /// cancellation reclaimed relative to `now`.
    ///
    /// **Must be idempotent.** Two engine code paths can legitimately cancel the same
    /// HIT — the clocked collector cancels on termination, and the scheduler's error
    /// cleanup cancels whatever is still in flight — so a second (or later) cancel must
    /// return [`CancelReceipt::empty`] rather than refunding `reclaimed_minutes` or
    /// `answers_cancelled` again. A double-counting cancel would let a fleet report more
    /// reclaimed worker-minutes than its workers ever had.
    fn cancel(&mut self, hit: HitId, now: f64) -> CancelReceipt;

    /// Total amount charged to the requester so far.
    fn total_cost(&self) -> f64;
}

struct HitState {
    hit: PublishedHit,
    /// The answers not delivered yet, sorted by arrival time.
    pending: VecDeque<WorkerAnswer>,
    cancelled: bool,
}

/// A deterministic, in-memory simulation of an AMT-like platform backed by a
/// [`WorkerPool`].
///
/// Publishing a HIT generates every answer its workers will give. The platform holds
/// an answer only until it leaves: [`poll`](CrowdPlatform::poll) moves delivered answers
/// out to the caller, and [`cancel`](CrowdPlatform::cancel) drops the undelivered rest.
pub struct SimulatedPlatform {
    pool: WorkerPool,
    cost_model: CostModel,
    rng: StdRng,
    hits: BTreeMap<HitId, HitState>,
    next_hit: u64,
    /// Distance between consecutive HIT ids (1 for a standalone platform; the shard
    /// count for a platform shard, giving every shard a disjoint id arithmetic class).
    hit_stride: u64,
    charged: f64,
    /// Current simulated time; set via [`CrowdPlatform::advance_time`], stamps
    /// publications.
    now: f64,
}

impl SimulatedPlatform {
    /// Create a platform over the given pool. All randomness (worker assignment, answer
    /// generation, latencies) derives from `seed`.
    pub fn new(pool: WorkerPool, cost_model: CostModel, seed: u64) -> Self {
        SimulatedPlatform {
            pool,
            cost_model,
            rng: StdRng::seed_from_u64(seed),
            hits: BTreeMap::new(),
            next_hit: 0,
            hit_stride: 1,
            charged: 0.0,
            now: 0.0,
        }
    }

    /// Restrict the platform to a disjoint slice of the HIT-id space: ids start at
    /// `offset` and advance by `stride`. Shard `i` of an `n`-way
    /// [`crate::sharded::ShardedPlatform`] uses `(i, n)`, so two shards can never mint
    /// the same [`HitId`] and a fleet's dispatch timeline stays unambiguous when shard
    /// records are merged. `(0, 1)` — the default — is the whole id space.
    ///
    /// Only meaningful on a fresh platform; stride 0 is clamped to 1.
    pub fn with_hit_namespace(mut self, offset: u64, stride: u64) -> Self {
        self.next_hit = offset;
        self.hit_stride = stride.max(1);
        self
    }

    /// The worker pool backing the platform.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The published state of a HIT, if it exists.
    pub fn hit(&self, id: HitId) -> Option<&PublishedHit> {
        self.hits.get(&id).map(|s| &s.hit)
    }

    /// Convenience for experiments: publish a HIT and immediately return *all* of its
    /// answers in arrival order (as if polled at the end of time), charging for all of
    /// them.
    pub fn publish_and_collect(&mut self, request: HitRequest) -> (HitId, Vec<WorkerAnswer>) {
        let id = self.publish(request);
        let answers = self.poll(id, f64::INFINITY);
        (id, answers)
    }

    /// Admit a HIT with an already-chosen worker set: sample per-worker completion times,
    /// pre-generate every answer in arrival order, and register the HIT state.
    fn admit(
        &mut self,
        request: HitRequest,
        assigned: Vec<crate::worker::SimulatedWorker>,
    ) -> HitId {
        let id = HitId(self.next_hit);
        self.next_hit += self.hit_stride;

        // One completion time per worker: a worker submits all their answers when they
        // finish the HIT.
        let times: Vec<f64> = assigned
            .iter()
            .map(|w| w.sample_latency(&mut self.rng))
            .collect();
        let schedule = ArrivalSchedule::from_times(times);

        let mut pending = VecDeque::with_capacity(assigned.len() * request.questions.len());
        for (worker_idx, finished_at) in schedule.iter() {
            // The schedule only yields indexes of the workers it was built
            // from, so a miss is unreachable.
            let Some(worker) = assigned.get(worker_idx) else {
                continue;
            };
            for question in &request.questions {
                let (label, keywords) = worker.answer_with_reasons(question, &mut self.rng);
                pending.push_back(WorkerAnswer {
                    hit: id,
                    worker: worker.id,
                    question: question.id,
                    label,
                    keywords,
                    // Latencies are relative to publication; answers arrive on the
                    // absolute simulated timeline.
                    arrived_at: self.now + finished_at,
                    approval_rate: worker.approval_rate,
                });
            }
        }

        self.hits.insert(
            id,
            HitState {
                hit: PublishedHit {
                    id,
                    request,
                    published_at: self.now,
                },
                pending,
                cancelled: false,
            },
        );
        id
    }
}

impl CrowdPlatform for SimulatedPlatform {
    fn publish(&mut self, request: HitRequest) -> HitId {
        // Assign n random workers from the pool (AMT: "n random workers provide answers").
        let assigned: Vec<_> = self
            .pool
            .assign(request.assignments, &mut self.rng)
            .into_iter()
            .cloned()
            .collect();
        self.admit(request, assigned)
    }

    fn publish_to(&mut self, request: HitRequest, workers: &[WorkerId]) -> HitId {
        // The caller (typically the scheduler's lease ledger) names the exact worker set;
        // ids the pool does not know are skipped rather than invented, and duplicates are
        // collapsed so a repeated id cannot double-assign a worker to the same questions.
        let mut seen = std::collections::BTreeSet::new();
        let assigned: Vec<_> = workers
            .iter()
            .filter(|id| seen.insert(**id))
            .filter_map(|id| self.pool.get(*id))
            .cloned()
            .collect();
        self.admit(request, assigned)
    }

    fn poll(&mut self, hit: HitId, now: f64) -> Vec<WorkerAnswer> {
        let Some(state) = self.hits.get_mut(&hit) else {
            return Vec::new();
        };
        if state.cancelled {
            return Vec::new();
        }
        let mut delivered = Vec::new();
        while let Some(answer) = state.pending.front() {
            if answer.arrived_at > now {
                break;
            }
            delivered.extend(state.pending.pop_front());
        }
        // The requester is charged per delivered per-question answer, pro-rated from the
        // per-assignment price over the batch size.
        let batch = state.hit.request.questions.len().max(1);
        self.charged += self.cost_model.per_assignment() * delivered.len() as f64 / batch as f64;
        delivered
    }

    fn advance_time(&mut self, now: f64) {
        if now.is_finite() && now > self.now {
            self.now = now;
        }
    }

    fn next_arrival(&self, hit: HitId) -> Option<f64> {
        let state = self.hits.get(&hit)?;
        if state.cancelled {
            return None;
        }
        state.pending.front().map(|a| a.arrived_at)
    }

    fn cancel(&mut self, hit: HitId, now: f64) -> CancelReceipt {
        let Some(state) = self.hits.get_mut(&hit) else {
            return CancelReceipt::empty();
        };
        if state.cancelled {
            return CancelReceipt::empty();
        }
        state.cancelled = true;
        // A worker submits all their answers at once, and `poll` only ever delivers whole
        // submissions, so the undelivered tail is a set of complete submissions. Each
        // cancelled worker stops working `now` instead of at their completion time; the
        // difference is the reclaimed simulated time. An end-of-time cancel (`now` not
        // finite, or past every arrival) reclaims nothing. The tail is dropped here: a
        // cancelled HIT delivers nothing more.
        let cancelled = std::mem::take(&mut state.pending);
        let mut workers = BTreeMap::new();
        for answer in &cancelled {
            workers.entry(answer.worker).or_insert(answer.arrived_at);
        }
        let reclaimed_minutes = if now.is_finite() {
            workers.values().map(|t| (t - now).max(0.0)).sum()
        } else {
            0.0
        };
        CancelReceipt {
            answers_cancelled: cancelled.len(),
            workers_cancelled: workers.len(),
            reclaimed_minutes,
        }
    }

    fn total_cost(&self) -> f64 {
        self.charged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use crate::question::CrowdQuestion;
    use cdas_core::types::AnswerDomain;

    fn platform(pool_size: usize, accuracy: f64) -> SimulatedPlatform {
        let pool = WorkerPool::generate(&PoolConfig::clean(pool_size, accuracy, 5));
        SimulatedPlatform::new(pool, CostModel::new(0.01, 0.001).unwrap(), 99)
    }

    /// Like [`platform`], but with exponentially distributed worker latencies so arrival
    /// times actually spread out (clean pools answer at a constant 1.0 minutes).
    fn staggered_platform(pool_size: usize, accuracy: f64) -> SimulatedPlatform {
        let pool = WorkerPool::generate(&PoolConfig {
            latency: crate::arrival::LatencyModel::Exponential { mean: 5.0 },
            ..PoolConfig::clean(pool_size, accuracy, 5)
        });
        SimulatedPlatform::new(pool, CostModel::new(0.01, 0.001).unwrap(), 99)
    }

    fn request(questions: u64, assignments: usize) -> HitRequest {
        let qs: Vec<CrowdQuestion> = (0..questions)
            .map(|i| {
                CrowdQuestion::new(
                    QuestionId(i),
                    AnswerDomain::from_strs(&["pos", "neu", "neg"]),
                    Label::from("pos"),
                )
            })
            .collect();
        HitRequest::new(qs, assignments, 0.01)
    }

    #[test]
    fn publish_and_collect_delivers_all_answers() {
        let mut p = platform(50, 0.8);
        let (id, answers) = p.publish_and_collect(request(4, 5));
        assert_eq!(answers.len(), 20, "5 workers × 4 questions");
        assert!(p.hit(id).is_some());
        // Arrival order is non-decreasing.
        assert!(answers
            .windows(2)
            .all(|w| w[0].arrived_at <= w[1].arrived_at));
        // Workers are distinct per assignment.
        let mut workers: Vec<u64> = answers.iter().map(|a| a.worker.0).collect();
        workers.sort_unstable();
        workers.dedup();
        assert_eq!(workers.len(), 5);
        // The full price was charged: 5 assignments × (0.01 + 0.001).
        assert!((p.total_cost() - 0.055).abs() < 1e-9);
    }

    #[test]
    fn poll_respects_time_and_does_not_redeliver() {
        let mut p = platform(50, 0.8);
        let id = p.publish(request(2, 7));
        let early = p.poll(id, 0.5);
        let later = p.poll(id, f64::INFINITY);
        assert_eq!(early.len() + later.len(), 14);
        // Nothing is delivered twice.
        let mut seen: Vec<(u64, u64)> = early
            .iter()
            .chain(later.iter())
            .map(|a| (a.worker.0, a.question.0))
            .collect();
        let total = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), total);
    }

    #[test]
    fn cancel_stops_delivery_and_charging() {
        let mut p = staggered_platform(50, 0.8);
        let id = p.publish(request(1, 9));
        // Deliver only the earliest answers, then cancel.
        let some = p.poll(id, 1.0);
        let cost_before = p.total_cost();
        let receipt = p.cancel(id, 1.0);
        assert_eq!(some.len() + receipt.answers_cancelled, 9);
        assert_eq!(
            receipt.workers_cancelled, receipt.answers_cancelled,
            "one question per HIT: one cancelled answer per cancelled worker"
        );
        assert!(receipt.cancelled_anything());
        assert!(
            receipt.reclaimed_minutes > 0.0,
            "cancelled workers had simulated time left on the clock"
        );
        assert!(p.poll(id, f64::INFINITY).is_empty());
        assert_eq!(
            p.next_arrival(id),
            None,
            "cancelled HITs have no events left"
        );
        assert_eq!(p.total_cost(), cost_before, "no charge after cancellation");
        // Cancelling twice is a no-op.
        assert_eq!(p.cancel(id, 1.0), CancelReceipt::empty());
    }

    #[test]
    fn double_cancel_never_double_refunds_reclaimed_minutes() {
        // Regression for the two-caller scenario the trait contract names: the clocked
        // collector cancels a terminated HIT at time t₁, and the scheduler's cleanup
        // sweeps the same HIT again at a later t₂. The second cancel must be a pure
        // no-op — an empty receipt — so summing receipts (which the fleet rollups do)
        // counts every reclaimed minute and cancelled answer exactly once.
        let mut p = staggered_platform(50, 0.8);
        let id = p.publish(request(2, 8));
        p.poll(id, 1.0);
        let first = p.cancel(id, 1.0); // collector-finalize path
        assert!(first.cancelled_anything());
        assert!(first.reclaimed_minutes > 0.0);
        let second = p.cancel(id, 3.5); // scheduler-cleanup path, later timestamp
        assert_eq!(second, CancelReceipt::empty());
        let third = p.cancel(id, f64::INFINITY); // end-of-time sweep
        assert_eq!(third, CancelReceipt::empty());
        let total = first.reclaimed_minutes + second.reclaimed_minutes + third.reclaimed_minutes;
        assert_eq!(total, first.reclaimed_minutes, "minutes refunded once");
        let answers = first.answers_cancelled + second.answers_cancelled + third.answers_cancelled;
        assert_eq!(answers, first.answers_cancelled, "answers refunded once");
    }

    #[test]
    fn hit_namespaces_partition_the_id_space() {
        // Two shards of a 2-way split mint interleaved, disjoint id classes.
        let mut even = platform(20, 0.8).with_hit_namespace(0, 2);
        let mut odd = platform(20, 0.8).with_hit_namespace(1, 2);
        let e: Vec<u64> = (0..3).map(|_| even.publish(request(1, 2)).0).collect();
        let o: Vec<u64> = (0..3).map(|_| odd.publish(request(1, 2)).0).collect();
        assert_eq!(e, vec![0, 2, 4]);
        assert_eq!(o, vec![1, 3, 5]);
        // The default namespace is the whole space, and stride 0 clamps to 1.
        let mut whole = platform(20, 0.8).with_hit_namespace(0, 0);
        assert_eq!(whole.publish(request(1, 2)), HitId(0));
        assert_eq!(whole.publish(request(1, 2)), HitId(1));
    }

    #[test]
    fn end_of_time_cancel_reclaims_nothing() {
        let mut p = platform(50, 0.8);
        let id = p.publish(request(2, 5));
        let receipt = p.cancel(id, f64::INFINITY);
        assert_eq!(receipt.answers_cancelled, 10);
        assert_eq!(receipt.workers_cancelled, 5);
        assert_eq!(
            receipt.reclaimed_minutes, 0.0,
            "cancelling at the end of time only replays history"
        );
    }

    #[test]
    fn cancel_reclaims_the_minutes_the_workers_had_left() {
        let mut p = staggered_platform(50, 0.8);
        let id = p.publish(request(1, 6));
        // Read the would-be arrival times through next_arrival by draining one at a time.
        let mut arrivals = Vec::new();
        while let Some(t) = p.next_arrival(id) {
            arrivals.push(t);
            p.poll(id, t);
        }
        assert_eq!(arrivals.len(), 6);

        // Re-run the identical schedule on a fresh platform and cancel halfway.
        let mut p = staggered_platform(50, 0.8);
        let id = p.publish(request(1, 6));
        let cut = arrivals[2];
        p.poll(id, cut);
        let receipt = p.cancel(id, cut);
        assert_eq!(receipt.workers_cancelled, 3);
        let expected: f64 = arrivals[3..].iter().map(|t| t - cut).sum();
        assert!(
            (receipt.reclaimed_minutes - expected).abs() < 1e-9,
            "reclaimed {} expected {expected}",
            receipt.reclaimed_minutes
        );
    }

    #[test]
    fn next_arrival_tracks_the_undelivered_frontier() {
        let mut p = staggered_platform(50, 0.8);
        let id = p.publish(request(2, 4));
        let first = p.next_arrival(id).expect("answers pending");
        assert!(p.poll(id, first / 2.0).is_empty(), "nothing arrives early");
        assert_eq!(
            p.next_arrival(id),
            Some(first),
            "an empty poll does not move the frontier"
        );
        let delivered = p.poll(id, first);
        assert!(!delivered.is_empty());
        if let Some(next) = p.next_arrival(id) {
            assert!(next > first, "the frontier advances past delivered answers");
        }
        p.poll(id, f64::INFINITY);
        assert_eq!(
            p.next_arrival(id),
            None,
            "fully drained HITs have no events"
        );
    }

    #[test]
    fn high_accuracy_pool_answers_mostly_correctly() {
        let mut p = platform(100, 0.9);
        let (_, answers) = p.publish_and_collect(request(20, 9));
        let correct = answers.iter().filter(|a| a.label.as_str() == "pos").count();
        let accuracy = correct as f64 / answers.len() as f64;
        assert!(
            (accuracy - 0.9).abs() < 0.06,
            "measured accuracy {accuracy}"
        );
    }

    #[test]
    fn unknown_hit_is_handled_gracefully() {
        let mut p = platform(10, 0.8);
        assert!(p.poll(HitId(99), 1.0).is_empty());
        assert_eq!(p.cancel(HitId(99), 1.0), CancelReceipt::empty());
        assert_eq!(p.next_arrival(HitId(99)), None);
        assert!(p.hit(HitId(99)).is_none());
        assert_eq!(p.total_cost(), 0.0);
    }

    #[test]
    fn publish_to_uses_exactly_the_named_workers() {
        let mut p = platform(50, 0.8);
        let chosen = [WorkerId(3), WorkerId(17), WorkerId(42)];
        let id = p.publish_to(request(4, 3), &chosen);
        let answers = p.poll(id, f64::INFINITY);
        assert_eq!(answers.len(), 12, "3 workers × 4 questions");
        let mut seen: Vec<u64> = answers.iter().map(|a| a.worker.0).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![3, 17, 42]);
    }

    #[test]
    fn publish_to_skips_unknown_workers_and_collapses_duplicates() {
        let mut p = platform(10, 0.8);
        let id = p.publish_to(request(2, 2), &[WorkerId(1), WorkerId(999)]);
        let answers = p.poll(id, f64::INFINITY);
        assert_eq!(answers.len(), 2, "only the known worker answers");
        assert!(answers.iter().all(|a| a.worker == WorkerId(1)));
        // A repeated id must not double-assign the worker to the same questions.
        let id = p.publish_to(request(3, 2), &[WorkerId(4), WorkerId(4)]);
        let answers = p.poll(id, f64::INFINITY);
        assert_eq!(answers.len(), 3, "duplicate ids collapse to one assignment");
    }

    #[test]
    fn publications_after_advance_time_cannot_arrive_in_the_past() {
        let mut p = staggered_platform(50, 0.8);
        p.advance_time(7.5);
        // Backwards and non-finite targets are ignored: the platform clock is monotone.
        p.advance_time(2.0);
        p.advance_time(f64::NAN);
        p.advance_time(f64::INFINITY);
        let id = p.publish(request(2, 5));
        assert_eq!(p.hit(id).unwrap().published_at, 7.5);
        assert!(p.poll(id, 7.5).is_empty(), "no answer precedes publication");
        let answers = p.poll(id, f64::INFINITY);
        assert_eq!(answers.len(), 10);
        assert!(answers.iter().all(|a| a.arrived_at > 7.5));
    }

    #[test]
    fn platform_is_deterministic_for_a_seed() {
        let collect = || {
            let pool = WorkerPool::generate(&PoolConfig::default());
            let mut p = SimulatedPlatform::new(pool, CostModel::default(), 7);
            let (_, answers) = p.publish_and_collect(request(3, 5));
            answers
                .iter()
                .map(|a| (a.worker.0, a.question.0, a.label.as_str().to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(), collect());
    }
}
