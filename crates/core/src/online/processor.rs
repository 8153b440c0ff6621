//! Algorithm 5: the online processing loop.
//!
//! The processor consumes one answer at a time (as the crowd platform delivers them),
//! refreshes the confidence of every distinct answer, and reports whether the configured
//! early-termination condition is satisfied. The engine uses it to (a) render approximate
//! results while the HIT is still running and (b) cancel the HIT as soon as the answer is
//! good enough, which caps the crowdsourcing cost.
//!
//! **Incremental accumulation.** The per-label summed log-odds that drive both the
//! ranking and the termination bounds are maintained as running state: consuming a vote
//! applies one `+=` delta instead of re-deriving every sum from the full observation
//! (which made each clocked poll O(n²) in the answers received). Because
//! [`summed_confidences`] itself folds votes in arrival order with the same `+=`, the
//! delta path is **bit-identical** to from-scratch recomputation — a property pinned by
//! the prefix-equality proptest below. The only event that invalidates the running sums
//! is a change of the effective answer-domain size `m` (possible in estimated-domain
//! mode when a vote introduces a new distinct label, since `m` reweights *every* vote);
//! the processor detects that and rebuilds the sums from the observation.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::{CdasError, Result};
use crate::online::partial::PartialConfidence;
use crate::online::termination::{TerminationConfig, TerminationStrategy};
use crate::types::{Label, Observation, Vote};
use crate::verification::confidence::{ranked_from_sums, summed_confidences, worker_confidence};

/// Snapshot of the online state after consuming an answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineOutcome {
    /// Current best answer and its confidence (`None` before the first answer).
    pub best: Option<(Label, f64)>,
    /// Confidence ranking over every observed answer, best first.
    pub ranking: Vec<(Label, f64)>,
    /// Number of answers consumed so far (`n′`).
    pub answers_received: usize,
    /// Whether the termination condition fired at (or before) this point.
    pub terminated: bool,
}

/// The online processor for a single question of a HIT (Algorithm 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineProcessor {
    termination: TerminationConfig,
    observation: Observation,
    terminated_at: Option<usize>,
    /// Running per-label summed confidences, valid for domain size `sums_domain`. One
    /// `+=` per consumed vote keeps this bit-identical to
    /// [`summed_confidences`]`(&observation, sums_domain)`.
    sums: BTreeMap<Label, f64>,
    /// The effective domain `m` the running sums were accumulated under. Starts at 0
    /// (below the minimum domain of 2), so the first vote always triggers a rebuild.
    sums_domain: usize,
}

impl OnlineProcessor {
    /// Create a processor for a HIT assigned to `assigned_workers` workers with population
    /// mean accuracy `mean_accuracy`, using the given termination strategy.
    pub fn new(
        assigned_workers: usize,
        mean_accuracy: f64,
        strategy: TerminationStrategy,
    ) -> Result<Self> {
        let partial = PartialConfidence::new(assigned_workers, mean_accuracy)?;
        Ok(OnlineProcessor {
            termination: TerminationConfig::new(strategy, partial),
            observation: Observation::empty(),
            terminated_at: None,
            sums: BTreeMap::new(),
            sums_domain: 0,
        })
    }

    /// Fix the answer-domain size `m` instead of estimating it per observation.
    pub fn with_domain_size(mut self, m: usize) -> Self {
        self.termination.partial = self.termination.partial.with_domain_size(m);
        // Changing `m` reweights every vote; invalidate the running sums so the next
        // consume rebuilds them (0 never equals an effective domain, which is ≥ 2).
        self.sums_domain = 0;
        self
    }

    /// The running per-label summed confidences (the delta-maintained log-odds state).
    ///
    /// Bit-identical to [`summed_confidences`] over [`observation`](Self::observation)
    /// at the current effective domain — the contract the prefix-equality proptests
    /// pin. Empty before the first answer.
    pub fn confidence_sums(&self) -> &BTreeMap<Label, f64> {
        &self.sums
    }

    /// The observation accumulated so far.
    pub fn observation(&self) -> &Observation {
        &self.observation
    }

    /// Number of answers consumed.
    pub fn answers_received(&self) -> usize {
        self.observation.len()
    }

    /// The answer index (1-based) at which the termination condition first fired, if it
    /// has fired.
    pub fn terminated_at(&self) -> Option<usize> {
        self.terminated_at
    }

    /// Whether the termination condition has fired.
    pub fn is_terminated(&self) -> bool {
        self.terminated_at.is_some()
    }

    /// Fold one answer into the running sums and decide termination (one iteration of
    /// the `while not all answers are returned` loop of Algorithm 5). Returns whether
    /// the termination condition has fired, now or at an earlier answer.
    ///
    /// This is the engine's per-answer step: it builds no ranking, and it allocates only
    /// to grow the observation and the sums, or to rebuild the sums when the effective
    /// domain changes.
    ///
    /// Answers arriving after termination are still folded into the confidence estimate
    /// (the platform may deliver them before the cancellation takes effect) but do not
    /// reset the termination point.
    pub fn observe(&mut self, vote: Vote) -> bool {
        let (label, accuracy) = (vote.label.clone(), vote.accuracy());
        self.observation.push(vote);
        let m = self.termination.partial.effective_domain(&self.observation);
        if m == self.sums_domain {
            // Delta path: `summed_confidences` folds votes in arrival order with this
            // same `+=`, so appending one term is bit-identical to recomputing.
            *self.sums.entry(label).or_insert(0.0) += worker_confidence(accuracy, m);
        } else {
            // The effective domain changed (first vote, or estimated-domain mode saw a
            // new distinct label): `m` reweights every vote, so rebuild from scratch.
            self.sums = summed_confidences(&self.observation, m);
            self.sums_domain = m;
        }
        // The observation is non-empty, so the decision cannot fail.
        if self.terminated_at.is_none()
            && matches!(
                self.termination
                    .should_terminate_from_sums(&self.observation, &self.sums),
                Ok(true)
            )
        {
            self.terminated_at = Some(self.observation.len());
        }
        self.is_terminated()
    }

    /// [`observe`](Self::observe) one answer and return the refreshed outcome with the
    /// confidence ranking, for callers that display it.
    pub fn consume(&mut self, vote: Vote) -> Result<OnlineOutcome> {
        self.observe(vote);
        Ok(self.outcome(ranked_from_sums(&self.sums, self.sums_domain)))
    }

    /// Current outcome without consuming a new answer.
    pub fn current(&self) -> Result<OnlineOutcome> {
        if self.observation.is_empty() {
            return Ok(self.outcome(Vec::new()));
        }
        let m = self.termination.partial.effective_domain(&self.observation);
        // After any observe the running sums match the observation; the from-scratch
        // fallback only covers a domain reconfigured since (e.g. `with_domain_size`).
        let ranking = if m == self.sums_domain {
            ranked_from_sums(&self.sums, m)
        } else {
            self.termination.partial.confidences(&self.observation)?
        };
        Ok(self.outcome(ranking))
    }

    /// The outcome at the current answer count with the given ranking.
    fn outcome(&self, ranking: Vec<(Label, f64)>) -> OnlineOutcome {
        OnlineOutcome {
            best: ranking.first().cloned(),
            ranking,
            answers_received: self.observation.len(),
            terminated: self.is_terminated(),
        }
    }

    /// Run the processor over a full answer sequence, stopping at the first termination
    /// point, and return the final outcome together with the number of answers consumed.
    ///
    /// This is the batch counterpart used by the experiment harness; `observe` is the
    /// streaming interface used by the engine.
    pub fn run_until_termination(
        &mut self,
        answers: impl IntoIterator<Item = Vote>,
    ) -> Result<OnlineOutcome> {
        for vote in answers {
            if self.observe(vote) {
                break;
            }
        }
        if self.observation.is_empty() {
            return Err(CdasError::EmptyObservation);
        }
        self.current()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::WorkerId;
    use crate::verification::confidence::answer_confidences;

    fn vote(i: u64, label: &str, accuracy: f64) -> Vote {
        Vote::new(WorkerId(i), Label::from(label), accuracy)
    }

    #[test]
    fn consumes_answers_and_tracks_best() {
        let mut p = OnlineProcessor::new(5, 0.75, TerminationStrategy::MinMax)
            .unwrap()
            .with_domain_size(3);
        assert_eq!(p.current().unwrap().answers_received, 0);
        let o1 = p.consume(vote(1, "pos", 0.8)).unwrap();
        assert_eq!(o1.best.as_ref().unwrap().0.as_str(), "pos");
        assert_eq!(o1.answers_received, 1);
        let o2 = p.consume(vote(2, "neg", 0.9)).unwrap();
        assert_eq!(o2.best.as_ref().unwrap().0.as_str(), "neg");
        assert_eq!(p.answers_received(), 2);
        assert_eq!(p.observation().len(), 2);
    }

    #[test]
    fn online_confidence_converges_to_offline() {
        // After all n answers arrive, the online ranking equals the offline Equation 4.
        let answers = vec![
            vote(1, "pos", 0.54),
            vote(2, "pos", 0.31),
            vote(3, "neu", 0.49),
            vote(4, "neg", 0.73),
            vote(5, "pos", 0.46),
        ];
        let mut p = OnlineProcessor::new(5, 0.5, TerminationStrategy::MinMax)
            .unwrap()
            .with_domain_size(3);
        let mut last = None;
        for a in answers.clone() {
            last = Some(p.consume(a).unwrap());
        }
        let offline = answer_confidences(&Observation::from_votes(answers), 3);
        assert_eq!(last.unwrap().ranking, offline);
    }

    #[test]
    fn termination_point_is_recorded_once() {
        let mut p = OnlineProcessor::new(5, 0.8, TerminationStrategy::ExpMax)
            .unwrap()
            .with_domain_size(3);
        let mut fired_at = None;
        for i in 0..5u64 {
            let o = p.consume(vote(i, "a", 0.9)).unwrap();
            if o.terminated && fired_at.is_none() {
                fired_at = Some(o.answers_received);
            }
        }
        assert!(
            fired_at.is_some(),
            "unanimous votes must eventually terminate"
        );
        assert_eq!(p.terminated_at(), fired_at);
        assert!(p.is_terminated());
        // ExpMax with strong agreement should fire before all 5 answers arrive.
        assert!(fired_at.unwrap() < 5);
    }

    #[test]
    fn run_until_termination_stops_early() {
        let answers: Vec<Vote> = (0..9).map(|i| vote(i, "a", 0.9)).collect();
        let mut p = OnlineProcessor::new(9, 0.75, TerminationStrategy::ExpMax)
            .unwrap()
            .with_domain_size(3);
        let outcome = p.run_until_termination(answers).unwrap();
        assert!(outcome.terminated);
        assert!(outcome.answers_received < 9, "should save workers");
        assert_eq!(outcome.best.unwrap().0.as_str(), "a");
    }

    #[test]
    fn run_until_termination_with_no_answers_is_an_error() {
        let mut p = OnlineProcessor::new(3, 0.75, TerminationStrategy::MinMax).unwrap();
        assert!(p.run_until_termination(Vec::new()).is_err());
    }

    #[test]
    fn conflicting_answers_delay_termination() {
        // Alternating answers keep the race close; MinMax must not fire early.
        let mut p = OnlineProcessor::new(9, 0.7, TerminationStrategy::MinMax)
            .unwrap()
            .with_domain_size(2);
        let labels = ["a", "b", "a", "b", "a", "b"];
        for (i, l) in labels.iter().enumerate() {
            let o = p.consume(vote(i as u64, l, 0.7)).unwrap();
            assert!(
                !o.terminated,
                "MinMax fired on a tied race after {} answers",
                i + 1
            );
        }
    }

    #[test]
    fn nan_accuracy_mid_stream_does_not_panic_the_processor() {
        // Regression for the termination-path NaN panic: a vote whose accuracy is NaN
        // (e.g. an upstream estimator dividing by zero) used to poison its label's summed
        // confidence and panic the ranking sort. The NaN now clamps to the neutral 0.5;
        // the processor must keep consuming and never rank the NaN label best.
        for strategy in TerminationStrategy::ALL {
            let mut p = OnlineProcessor::new(5, 0.75, strategy)
                .unwrap()
                .with_domain_size(3);
            p.consume(vote(0, "pos", 0.8)).unwrap();
            let o = p.consume(vote(1, "bad", f64::NAN)).unwrap();
            assert_eq!(o.best.as_ref().unwrap().0.as_str(), "pos");
            let o = p.consume(vote(2, "pos", 0.7)).unwrap();
            assert_eq!(o.best.unwrap().0.as_str(), "pos");
            assert_eq!(
                o.ranking.last().unwrap().0.as_str(),
                "bad",
                "the NaN-backed label ranks last"
            );
        }
    }

    #[test]
    fn strategies_order_by_aggressiveness_on_a_stream() {
        // On the same answer stream, MinMax terminates no earlier than MinExp and ExpMax.
        let answers: Vec<Vote> = vec![
            vote(0, "a", 0.85),
            vote(1, "a", 0.8),
            vote(2, "b", 0.6),
            vote(3, "a", 0.9),
            vote(4, "a", 0.85),
            vote(5, "a", 0.8),
            vote(6, "a", 0.8),
            vote(7, "a", 0.85),
            vote(8, "a", 0.8),
        ];
        let consumed = |strategy| {
            let mut p = OnlineProcessor::new(9, 0.75, strategy)
                .unwrap()
                .with_domain_size(3);
            p.run_until_termination(answers.clone())
                .unwrap()
                .answers_received
        };
        let minmax = consumed(TerminationStrategy::MinMax);
        let minexp = consumed(TerminationStrategy::MinExp);
        let expmax = consumed(TerminationStrategy::ExpMax);
        assert!(minexp <= minmax);
        assert!(expmax <= minmax);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::online::partial::PartialConfidence;
    use crate::types::{Observation, WorkerId};
    use crate::verification::confidence::answer_confidences;
    use proptest::prelude::*;

    /// A full arrival sequence: every assigned worker's vote, in arrival order, with
    /// accuracies strictly below the population mean the processor assumes. §4.2.2's
    /// stability argument completes `Ω′` with mean-accuracy workers, so it covers every
    /// real completion whose workers are no stronger than the mean.
    fn arrival_sequence() -> impl Strategy<Value = (Vec<Vote>, f64)> {
        let label = prop_oneof![Just("a"), Just("b"), Just("c")];
        (
            prop::collection::vec((label, 0.55f64..0.80), 3..15),
            0.80f64..0.95,
        )
            .prop_map(|(entries, mu)| {
                let votes = entries
                    .into_iter()
                    .enumerate()
                    .map(|(i, (l, a))| Vote::new(WorkerId(i as u64), Label::from(l), a))
                    .collect();
                (votes, mu)
            })
    }

    /// Assert that after every prefix of `votes`, the delta-maintained state of a
    /// processor equals from-scratch recomputation **bitwise**: running sums, ranking,
    /// and the termination decision. A second processor fed through `observe` must
    /// agree with the `consume`-fed one on the termination point and the running sums.
    /// `domain` fixes `m` (the scheduler's usual mode); `None` estimates it per
    /// observation, exercising the rebuild-on-domain-change path every time a new
    /// distinct label arrives.
    fn assert_prefixes_match_from_scratch(
        votes: &[Vote],
        mu: f64,
        strategy: TerminationStrategy,
        domain: Option<usize>,
    ) {
        let n = votes.len();
        let mut partial = PartialConfidence::new(n, mu).unwrap();
        if let Some(m) = domain {
            partial = partial.with_domain_size(m);
        }
        let oracle = TerminationConfig::new(strategy, partial);

        let mut p = OnlineProcessor::new(n, mu, strategy).unwrap();
        if let Some(m) = domain {
            p = p.with_domain_size(m);
        }
        let mut observed = p.clone();
        let mut oracle_terminated_at = None;
        for (i, vote) in votes.iter().enumerate() {
            let outcome = p.consume(vote.clone()).unwrap();
            let terminated = observed.observe(vote.clone());
            prop_assert_eq!(terminated, outcome.terminated);
            prop_assert_eq!(observed.terminated_at(), p.terminated_at());
            let sum_bits = |q: &OnlineProcessor| -> Vec<(Label, u64)> {
                q.confidence_sums()
                    .iter()
                    .map(|(l, s)| (l.clone(), s.to_bits()))
                    .collect()
            };
            prop_assert_eq!(sum_bits(&observed), sum_bits(&p));
            let prefix = Observation::from_votes(votes[..=i].to_vec());
            let m = oracle.partial.effective_domain(&prefix);

            // The running sums are bit-identical to a from-scratch fold of the prefix.
            let scratch = crate::verification::confidence::summed_confidences(&prefix, m);
            prop_assert_eq!(
                p.confidence_sums(),
                &scratch,
                "sums diverged after {} votes (m={})",
                i + 1,
                m
            );
            // And so is everything derived from them: the ranking ...
            prop_assert_eq!(outcome.ranking, answer_confidences(&prefix, m));
            // ... and the termination decision, against the from-scratch oracle.
            if oracle_terminated_at.is_none() && oracle.should_terminate(&prefix).unwrap() {
                oracle_terminated_at = Some(i + 1);
            }
            prop_assert_eq!(p.terminated_at(), oracle_terminated_at);
        }
    }

    /// Arrival sequences over four labels so estimated-domain mode keeps discovering
    /// new distinct answers mid-stream (each discovery reweights every prior vote).
    fn mixed_label_sequence() -> impl Strategy<Value = (Vec<Vote>, f64)> {
        let label = prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")];
        (
            prop::collection::vec((label, 0.55f64..0.95), 1..14),
            0.6f64..0.9,
        )
            .prop_map(|(entries, mu)| {
                let votes = entries
                    .into_iter()
                    .enumerate()
                    .map(|(i, (l, a))| Vote::new(WorkerId(i as u64), Label::from(l), a))
                    .collect();
                (votes, mu)
            })
    }

    proptest! {
        /// Satellite of the event-heap PR: the delta-applied log-odds state equals
        /// from-scratch recomputation after **every prefix** of an arrival sequence,
        /// for every termination strategy, in the scheduler's fixed-domain mode.
        #[test]
        fn incremental_sums_equal_from_scratch_on_every_prefix(
            (votes, mu) in mixed_label_sequence()
        ) {
            for strategy in TerminationStrategy::ALL {
                assert_prefixes_match_from_scratch(&votes, mu, strategy, Some(3));
            }
        }

        /// Same prefix equality with an **estimated** domain: new distinct labels bump
        /// `m` mid-stream, forcing the rebuild path, which must also match bitwise.
        #[test]
        fn incremental_sums_survive_domain_growth(
            (votes, mu) in mixed_label_sequence()
        ) {
            for strategy in TerminationStrategy::ALL {
                assert_prefixes_match_from_scratch(&votes, mu, strategy, None);
            }
        }
    }

    proptest! {
        /// The §4.2.2 stability guarantee, end to end: whenever MinMax fires before the
        /// last answer, the early verdict equals the offline verdict computed from the
        /// *complete* arrival sequence — terminating saved answers without changing the
        /// result the user would eventually have seen.
        #[test]
        fn minmax_early_verdict_equals_offline_verdict((votes, mu) in arrival_sequence()) {
            let n = votes.len();
            let mut p = OnlineProcessor::new(n, mu, TerminationStrategy::MinMax)
                .unwrap()
                .with_domain_size(3);
            let outcome = p.run_until_termination(votes.clone()).unwrap();
            if outcome.terminated && outcome.answers_received < n {
                let offline = answer_confidences(&Observation::from_votes(votes), 3);
                prop_assert_eq!(
                    outcome.best.unwrap().0,
                    offline[0].0.clone(),
                    "MinMax fired at {} of {} but the verdict flipped offline",
                    outcome.answers_received,
                    n
                );
            }
        }
    }
}
