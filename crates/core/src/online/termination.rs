//! Early termination of a HIT (§4.2.2).
//!
//! Let `r₁` and `r₂` be the best and second-best answers under the partial observation
//! `Ω′`, and suppose the `n − n′` outstanding workers all voted for `r₂` with the
//! population-mean accuracy (the adversarial completion `s` of Equations 5–6). Then
//!
//! * `min P(r₁|Ω) = P(r₁|Ω′, s)` — the worst the leader can end up with, and
//! * `max P(r₂|Ω) = P(r₂|Ω′, s)` — the best the runner-up can reach.
//!
//! The three strategies compare different combinations of these extremes with the current
//! confidences:
//!
//! | strategy | condition                         | character                            |
//! |----------|-----------------------------------|--------------------------------------|
//! | MinMax   | `min P(r₁) > max P(r₂)`           | result provably stable, conservative |
//! | MinExp   | `min P(r₁) > P(r₂|Ω′)`            | aggressive, may mis-terminate        |
//! | ExpMax   | `P(r₁|Ω′) > max P(r₂)`            | aggressive, the paper's recommendation |

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::{CdasError, Result};
use crate::math::log_sum_exp_iter;
use crate::online::partial::PartialConfidence;
use crate::types::{Label, Observation};
use crate::verification::confidence::{desc_nan_last, summed_confidences};

/// The three early-termination strategies of §4.2.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TerminationStrategy {
    /// Terminate only when the current leader is guaranteed to stay the leader.
    MinMax,
    /// Terminate when the leader's worst case still beats the runner-up's current value.
    MinExp,
    /// Terminate when the leader's current value beats the runner-up's best case.
    /// This is the strategy the paper recommends (Figure 12/13).
    ExpMax,
}

impl TerminationStrategy {
    /// All strategies, in the order the paper's figures list them.
    pub const ALL: [TerminationStrategy; 3] = [
        TerminationStrategy::MinExp,
        TerminationStrategy::MinMax,
        TerminationStrategy::ExpMax,
    ];

    /// Human-readable name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            TerminationStrategy::MinMax => "MinMax",
            TerminationStrategy::MinExp => "MinExp",
            TerminationStrategy::ExpMax => "ExpMax",
        }
    }
}

/// The extreme-case probabilities computed from a partial observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TerminationBounds {
    /// The current leader `r₁`.
    pub best: Label,
    /// The current runner-up `r₂` (an unobserved answer when only one answer was seen).
    pub second: Option<Label>,
    /// `P(r₁ | Ω′)` — current confidence of the leader.
    pub best_current: f64,
    /// `P(r₂ | Ω′)` — current confidence of the runner-up.
    pub second_current: f64,
    /// `E[min P(r₁ | Ω)]` — leader's confidence if every outstanding worker votes `r₂`.
    pub best_worst_case: f64,
    /// `E[max P(r₂ | Ω)]` — runner-up's confidence in the same completion.
    pub second_best_case: f64,
    /// Number of outstanding answers the bounds account for.
    pub remaining: usize,
}

/// Configuration for evaluating termination conditions on a HIT.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TerminationConfig {
    /// Which strategy to apply.
    pub strategy: TerminationStrategy,
    /// Partial-confidence settings (assigned workers, mean accuracy, domain).
    pub partial: PartialConfidence,
}

impl TerminationConfig {
    /// Build a configuration.
    pub fn new(strategy: TerminationStrategy, partial: PartialConfidence) -> Self {
        TerminationConfig { strategy, partial }
    }

    /// Compute the extreme-case bounds (Equations 5–6) for the current observation.
    ///
    /// Requires at least one received answer. This recomputes the per-label summed
    /// confidences from scratch; incremental consumers that already maintain them (the
    /// [`OnlineProcessor`](crate::online::processor::OnlineProcessor) delta path) use
    /// [`bounds_from_sums`](Self::bounds_from_sums) instead. The two are bit-identical
    /// — this from-scratch form is the oracle the incremental path is property-tested
    /// against.
    pub fn bounds(&self, observation: &Observation) -> Result<TerminationBounds> {
        if observation.is_empty() {
            return Err(CdasError::EmptyObservation);
        }
        let m = self.partial.effective_domain(observation);
        let sums = summed_confidences(observation, m);
        self.bounds_from_sums(observation, &sums)
    }

    /// [`bounds`](Self::bounds) over **precomputed** summed confidences.
    ///
    /// `sums` must be the per-label summed confidences of `observation` under its
    /// current [`PartialConfidence::effective_domain`] — exactly what
    /// [`summed_confidences`] returns, or what an incremental accumulator maintains by
    /// applying one `+=` delta per vote (the two agree bitwise because
    /// [`summed_confidences`] itself folds votes in arrival order). The leader and
    /// runner-up are picked in one pass under the ranking's total order (descending, NaN
    /// last, ties by label), and both log-sum-exps run over iterators, so nothing is
    /// allocated.
    pub fn bounds_from_sums(
        &self,
        observation: &Observation,
        sums: &BTreeMap<Label, f64>,
    ) -> Result<TerminationBounds> {
        if observation.is_empty() {
            return Err(CdasError::EmptyObservation);
        }
        // Non-empty observation (checked above) means at least one label.
        let ((best, best_sum), runner_up) =
            leader_and_runner_up(sums).ok_or(CdasError::EmptyObservation)?;
        // The runner-up is the second observed answer; when every vote agrees, the
        // adversarial completion targets a fresh (never observed) answer with sum 0.
        let (second, second_sum) = match runner_up {
            Some((label, sum)) => (Some(label), sum),
            None => (None, 0.0),
        };
        let k = sums.len();
        let m = self.partial.effective_domain(observation);
        let remaining = self.partial.remaining(observation);
        let unseen_confidence = self.partial.unseen_worker_confidence(observation);

        // Current confidences: the observed sums plus a unit weight for each of the
        // `m − k` never-voted answers (an unobserved runner-up has sum 0, weight 1).
        let m_now = m.max(k).max(2);
        let unvoted = (m_now > k).then(|| ((m_now - k) as f64).ln());
        let denom = log_sum_exp_iter(sums.values().copied().chain(unvoted));
        let best_current = (best_sum - denom).exp();
        let second_current = (second_sum - denom).exp();

        // Adversarial completion: the remaining workers all vote for the runner-up with
        // the population-mean accuracy. A never-observed runner-up becomes observed.
        let boosted = second_sum + remaining as f64 * unseen_confidence;
        let k_done = if second.is_some() { k } else { k + 1 };
        let m_done = m.max(k_done).max(2);
        let completed = sums
            .iter()
            .map(|(label, &sum)| if Some(label) == second { boosted } else { sum })
            .chain(second.is_none().then_some(boosted))
            .chain((m_done > k_done).then(|| ((m_done - k_done) as f64).ln()));
        let denom = log_sum_exp_iter(completed);

        Ok(TerminationBounds {
            best: best.clone(),
            second: second.cloned(),
            best_current,
            second_current,
            best_worst_case: (best_sum - denom).exp(),
            second_best_case: (boosted - denom).exp(),
            remaining,
        })
    }

    /// Whether the configured strategy allows terminating the HIT now.
    ///
    /// With no outstanding answers the HIT is complete and this always returns `true`.
    /// Like [`bounds`](Self::bounds) this is the from-scratch form; incremental
    /// consumers use [`should_terminate_from_sums`](Self::should_terminate_from_sums).
    pub fn should_terminate(&self, observation: &Observation) -> Result<bool> {
        self.decide(self.bounds(observation)?)
    }

    /// [`should_terminate`](Self::should_terminate) over precomputed summed
    /// confidences — see [`bounds_from_sums`](Self::bounds_from_sums) for the contract
    /// on `sums`.
    pub fn should_terminate_from_sums(
        &self,
        observation: &Observation,
        sums: &BTreeMap<Label, f64>,
    ) -> Result<bool> {
        self.decide(self.bounds_from_sums(observation, sums)?)
    }

    /// Apply the configured strategy to already-computed bounds.
    fn decide(&self, bounds: TerminationBounds) -> Result<bool> {
        if bounds.remaining == 0 {
            return Ok(true);
        }
        Ok(match self.strategy {
            TerminationStrategy::MinMax => bounds.best_worst_case > bounds.second_best_case,
            TerminationStrategy::MinExp => bounds.best_worst_case > bounds.second_current,
            TerminationStrategy::ExpMax => bounds.best_current > bounds.second_best_case,
        })
    }
}

/// A ranked entry: a label and its summed confidence.
type Entry<'a> = (&'a Label, f64);

/// The leader and runner-up of `sums`: the first two entries of the descending
/// ranking, found in one pass instead of sorting a copy. The ranking's order is total —
/// descending sums, NaN last (a degenerate accuracy that slipped past clamping must
/// never lead, nor panic the online path mid-HIT), ties by label — so the two picks are
/// exactly the first two entries a sort would yield. `None` for empty sums.
fn leader_and_runner_up(sums: &BTreeMap<Label, f64>) -> Option<(Entry<'_>, Option<Entry<'_>>)> {
    let ahead =
        |a: Entry<'_>, b: Entry<'_>| desc_nan_last(a.1, b.1).then_with(|| a.0.cmp(b.0)).is_lt();
    let mut entries = sums.iter().map(|(label, &sum)| (label, sum));
    let mut best = entries.next()?;
    let mut second = None;
    for entry in entries {
        if ahead(entry, best) {
            second = Some(best);
            best = entry;
        } else if second.map_or(true, |runner_up| ahead(entry, runner_up)) {
            second = Some(entry);
        }
    }
    Some((best, second))
}

/// The pre-one-pass form of [`TerminationConfig::bounds_from_sums`], kept as the
/// oracle the production form is property-tested against: a sorted copy of the sums
/// and log-sum-exp over materialized term vectors.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::verification::confidence::sort_by_confidence_desc;

    /// Sort summed confidences descending (ties by label order, NaN last).
    pub(super) fn rank(sums: &BTreeMap<Label, f64>) -> Vec<(Label, f64)> {
        let mut v: Vec<(Label, f64)> = sums.iter().map(|(l, s)| (l.clone(), *s)).collect();
        sort_by_confidence_desc(&mut v);
        v
    }

    /// Stable `log(Σ exp(x_i))` over a slice, computed as production did before the
    /// iterator form.
    fn log_sum_exp(values: &[f64]) -> f64 {
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if max == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        let sum: f64 = values.iter().map(|&v| (v - max).exp()).sum();
        max + sum.ln()
    }

    /// The bounds of `observation` under `cfg`, from its summed confidences `sums`.
    pub(super) fn bounds_from_sums(
        cfg: &TerminationConfig,
        observation: &Observation,
        sums: &BTreeMap<Label, f64>,
    ) -> Result<TerminationBounds> {
        if observation.is_empty() {
            return Err(CdasError::EmptyObservation);
        }
        let m = cfg.partial.effective_domain(observation);
        let remaining = cfg.partial.remaining(observation);
        let unseen_confidence = cfg.partial.unseen_worker_confidence(observation);
        let ranked = rank(sums);
        let (best, _best_sum) = ranked.first().cloned().ok_or(CdasError::EmptyObservation)?;
        let (second, second_sum) = ranked
            .get(1)
            .cloned()
            .map(|(l, s)| (Some(l), s))
            .unwrap_or((None, 0.0));

        let current = current_probabilities(sums, m, &best, second.as_ref());
        let boosted_second_sum = second_sum + remaining as f64 * unseen_confidence;
        let worst = completed_probabilities(sums, m, second.as_ref(), boosted_second_sum, &best);

        Ok(TerminationBounds {
            best,
            second,
            best_current: current.0,
            second_current: current.1,
            best_worst_case: worst.0,
            second_best_case: worst.1,
            remaining,
        })
    }

    /// `(P(best|Ω′), P(second|Ω′))` under the current observation.
    fn current_probabilities(
        sums: &BTreeMap<Label, f64>,
        m: usize,
        best: &Label,
        second: Option<&Label>,
    ) -> (f64, f64) {
        let k = sums.len();
        let m = m.max(k).max(2);
        let mut terms: Vec<f64> = sums.values().copied().collect();
        if m > k {
            terms.push(((m - k) as f64).ln());
        }
        let denom = log_sum_exp(&terms);
        let p_best = (sum_of(sums, best) - denom).exp();
        let p_second = match second {
            Some(l) => (sum_of(sums, l) - denom).exp(),
            None => (0.0 - denom).exp(),
        };
        (p_best, p_second)
    }

    /// Summed confidence of `label`, `-inf` when absent.
    fn sum_of(sums: &BTreeMap<Label, f64>, label: &Label) -> f64 {
        sums.get(label).copied().unwrap_or(f64::NEG_INFINITY)
    }

    /// `(min P(best|Ω), max P(second|Ω))` under the adversarial completion.
    fn completed_probabilities(
        sums: &BTreeMap<Label, f64>,
        m: usize,
        second: Option<&Label>,
        boosted_second_sum: f64,
        best: &Label,
    ) -> (f64, f64) {
        let k_observed = sums.len();
        let k = if second.is_some() {
            k_observed
        } else {
            k_observed + 1
        };
        let m = m.max(k).max(2);
        let mut terms: Vec<f64> = Vec::with_capacity(k + 1);
        for (label, &s) in sums {
            if Some(label) == second {
                terms.push(boosted_second_sum);
            } else {
                terms.push(s);
            }
        }
        if second.is_none() {
            terms.push(boosted_second_sum);
        }
        if m > k {
            terms.push(((m - k) as f64).ln());
        }
        let denom = log_sum_exp(&terms);
        let p_best = (sum_of(sums, best) - denom).exp();
        let p_second = (boosted_second_sum - denom).exp();
        (p_best, p_second)
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::rank;
    use super::*;
    use crate::types::{Vote, WorkerId};

    fn obs(entries: &[(&str, f64)]) -> Observation {
        Observation::from_votes(
            entries
                .iter()
                .enumerate()
                .map(|(i, (l, a))| Vote::new(WorkerId(i as u64), Label::from(*l), *a))
                .collect(),
        )
    }

    fn config(strategy: TerminationStrategy, n: usize, mu: f64) -> TerminationConfig {
        TerminationConfig::new(
            strategy,
            PartialConfidence::new(n, mu).unwrap().with_domain_size(3),
        )
    }

    #[test]
    fn strategy_names() {
        assert_eq!(TerminationStrategy::MinMax.name(), "MinMax");
        assert_eq!(TerminationStrategy::MinExp.name(), "MinExp");
        assert_eq!(TerminationStrategy::ExpMax.name(), "ExpMax");
        assert_eq!(TerminationStrategy::ALL.len(), 3);
    }

    #[test]
    fn bounds_require_an_answer() {
        let cfg = config(TerminationStrategy::MinMax, 5, 0.75);
        assert!(cfg.bounds(&Observation::empty()).is_err());
    }

    #[test]
    fn bounds_are_consistent() {
        let cfg = config(TerminationStrategy::MinMax, 9, 0.75);
        let observation = obs(&[("pos", 0.8), ("pos", 0.7), ("neg", 0.75)]);
        let b = cfg.bounds(&observation).unwrap();
        assert_eq!(b.best.as_str(), "pos");
        assert_eq!(b.second.as_ref().unwrap().as_str(), "neg");
        assert_eq!(b.remaining, 6);
        // Worst case for the leader is no better than its current confidence.
        assert!(b.best_worst_case <= b.best_current + 1e-12);
        // Best case for the runner-up is no worse than its current confidence.
        assert!(b.second_best_case >= b.second_current - 1e-12);
        // All values are probabilities.
        for v in [
            b.best_current,
            b.second_current,
            b.best_worst_case,
            b.second_best_case,
        ] {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn complete_observation_always_terminates() {
        let cfg = config(TerminationStrategy::MinMax, 3, 0.75);
        let observation = obs(&[("pos", 0.8), ("neg", 0.7), ("pos", 0.75)]);
        assert!(cfg.should_terminate(&observation).unwrap());
        let b = cfg.bounds(&observation).unwrap();
        assert_eq!(b.remaining, 0);
    }

    #[test]
    fn minmax_is_most_conservative() {
        // Whenever MinMax fires, the two aggressive strategies must fire as well.
        let scenarios: Vec<Vec<(&str, f64)>> = vec![
            vec![("a", 0.9)],
            vec![("a", 0.9), ("a", 0.85)],
            vec![("a", 0.9), ("b", 0.6)],
            vec![("a", 0.9), ("a", 0.9), ("b", 0.6)],
            vec![("a", 0.95), ("a", 0.95), ("a", 0.95), ("b", 0.55)],
            vec![("a", 0.7), ("b", 0.7), ("a", 0.7), ("a", 0.75), ("a", 0.8)],
        ];
        for n in [5usize, 9, 15] {
            for s in &scenarios {
                let observation = obs(s);
                if observation.len() > n {
                    continue;
                }
                let minmax = config(TerminationStrategy::MinMax, n, 0.75)
                    .should_terminate(&observation)
                    .unwrap();
                let minexp = config(TerminationStrategy::MinExp, n, 0.75)
                    .should_terminate(&observation)
                    .unwrap();
                let expmax = config(TerminationStrategy::ExpMax, n, 0.75)
                    .should_terminate(&observation)
                    .unwrap();
                if minmax {
                    assert!(minexp, "MinMax fired but MinExp did not (n={n}, {s:?})");
                    assert!(expmax, "MinMax fired but ExpMax did not (n={n}, {s:?})");
                }
            }
        }
    }

    #[test]
    fn single_early_answer_does_not_trigger_minmax() {
        // One answer out of 15: the remaining 14 workers could easily overturn it.
        let cfg = config(TerminationStrategy::MinMax, 15, 0.75);
        let observation = obs(&[("a", 0.9)]);
        assert!(!cfg.should_terminate(&observation).unwrap());
    }

    #[test]
    fn overwhelming_lead_triggers_all_strategies() {
        // 8 high-accuracy identical votes with only 1 outstanding answer.
        let entries: Vec<(&str, f64)> = (0..8).map(|_| ("a", 0.9)).collect();
        let observation = obs(&entries);
        for strategy in TerminationStrategy::ALL {
            let cfg = config(strategy, 9, 0.75);
            assert!(
                cfg.should_terminate(&observation).unwrap(),
                "{} should fire with 8/9 identical votes",
                strategy.name()
            );
        }
    }

    #[test]
    fn nan_accuracy_does_not_panic_the_online_path() {
        // A NaN accuracy used to survive probability clamping (`f64::clamp` propagates
        // NaN), poison its label's summed confidence, and panic `rank`'s partial_cmp
        // mid-HIT. Two layers defend now: clamping maps NaN to the information-free 0.5,
        // and the ranking comparators are total (NaN orders last). Either way the online
        // path must keep answering and never crown a NaN-backed label.
        for strategy in TerminationStrategy::ALL {
            let cfg = config(strategy, 9, 0.75);
            let observation = obs(&[("pos", 0.8), ("bad", f64::NAN), ("pos", 0.7)]);
            let bounds = cfg.bounds(&observation).unwrap();
            assert_eq!(
                bounds.best.as_str(),
                "pos",
                "a NaN-backed label must never lead"
            );
            // The decision completes without panicking; its value is strategy-dependent.
            cfg.should_terminate(&observation).unwrap();
        }
        // All-NaN evidence still ranks deterministically (by label order) and never panics.
        let cfg = config(TerminationStrategy::MinMax, 5, 0.75);
        let observation = obs(&[("a", f64::NAN), ("b", f64::NAN)]);
        let bounds = cfg.bounds(&observation).unwrap();
        assert_eq!(bounds.best.as_str(), "a");
        cfg.should_terminate(&observation).unwrap();
        // Second layer, exercised directly: even a NaN that reaches the sums (bypassing
        // vote clamping entirely) must sort last instead of panicking.
        let mut sums = BTreeMap::new();
        sums.insert(Label::from("nanny"), f64::NAN);
        sums.insert(Label::from("solid"), 1.5);
        let ranked = rank(&sums);
        assert_eq!(ranked[0].0.as_str(), "solid");
        assert!(ranked[1].1.is_nan());
        // The production one-pass pick agrees with the sorted oracle.
        let observation = obs(&[("nanny", 0.6), ("solid", 0.8)]);
        let bounds = cfg.bounds_from_sums(&observation, &sums).unwrap();
        assert_eq!(bounds.best.as_str(), "solid");
        assert_eq!(bounds.second.unwrap().as_str(), "nanny");
    }

    #[test]
    fn minmax_guarantees_stability() {
        // If MinMax fires, no completion of the remaining answers can change the winner:
        // simulate the adversarial completion explicitly and check the winner is unchanged.
        let n = 7usize;
        let observation = obs(&[("a", 0.9), ("a", 0.85), ("a", 0.8), ("b", 0.6)]);
        let cfg = config(TerminationStrategy::MinMax, n, 0.75);
        if cfg.should_terminate(&observation).unwrap() {
            // Adversarial completion: all remaining workers vote "b" with mean accuracy.
            let mut completed = observation.clone();
            for i in 0..(n - observation.len()) {
                completed.push(Vote::new(WorkerId(100 + i as u64), Label::from("b"), 0.75));
            }
            let ranked = crate::verification::confidence::answer_confidences(&completed, 3);
            assert_eq!(
                ranked[0].0.as_str(),
                "a",
                "MinMax terminated but the answer flipped"
            );
        } else {
            panic!("expected MinMax to fire in this scenario");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::types::{Vote, WorkerId};
    use proptest::prelude::*;

    /// Partial observations whose accuracies often repeat (so summed confidences tie)
    /// and are sometimes NaN (which `Vote::new` clamps to the neutral 0.5).
    fn arbitrary_partial() -> impl Strategy<Value = (Observation, usize)> {
        let label = prop_oneof![Just("a"), Just("b"), Just("c")];
        let accuracy = prop_oneof![0.55f64..0.95, Just(0.7), Just(0.9), Just(f64::NAN)];
        (prop::collection::vec((label, accuracy), 1..10), 10usize..20).prop_map(|(entries, n)| {
            let observation = Observation::from_votes(
                entries
                    .into_iter()
                    .enumerate()
                    .map(|(i, (l, a))| Vote::new(WorkerId(i as u64), Label::from(l), a))
                    .collect(),
            );
            (observation, n)
        })
    }

    /// Every field of the bounds, floats as raw bits.
    fn bits(b: &TerminationBounds) -> (Label, Option<Label>, [u64; 4], usize) {
        let probabilities = [
            b.best_current,
            b.second_current,
            b.best_worst_case,
            b.second_best_case,
        ];
        (
            b.best.clone(),
            b.second.clone(),
            probabilities.map(f64::to_bits),
            b.remaining,
        )
    }

    proptest! {
        /// MinMax is the most conservative strategy: it never fires when the others don't.
        #[test]
        fn minmax_implies_others((observation, n) in arbitrary_partial(), mu in 0.6f64..0.9) {
            let partial = PartialConfidence::new(n, mu).unwrap().with_domain_size(3);
            let fire = |s| TerminationConfig::new(s, partial).should_terminate(&observation).unwrap();
            if fire(TerminationStrategy::MinMax) {
                prop_assert!(fire(TerminationStrategy::MinExp));
                prop_assert!(fire(TerminationStrategy::ExpMax));
            }
        }

        /// Bounds always bracket the current confidences.
        #[test]
        fn bounds_bracket_current((observation, n) in arbitrary_partial(), mu in 0.6f64..0.9) {
            let partial = PartialConfidence::new(n, mu).unwrap().with_domain_size(3);
            let cfg = TerminationConfig::new(TerminationStrategy::MinMax, partial);
            let b = cfg.bounds(&observation).unwrap();
            prop_assert!(b.best_worst_case <= b.best_current + 1e-9);
            prop_assert!(b.second_best_case >= b.second_current - 1e-9);
        }

        /// The sums-accepting variants (the incremental hot path) equal the from-scratch
        /// forms bit for bit, and the one-pass `bounds_from_sums` equals the sorted-copy
        /// oracle field by field, for every strategy, fixed and estimated domains, tied
        /// sums, NaN accuracies and NaN sums.
        #[test]
        fn sums_variants_match_from_scratch((observation, n) in arbitrary_partial(), mu in 0.6f64..0.9) {
            for domain in [Some(3), None] {
                let mut partial = PartialConfidence::new(n, mu).unwrap();
                if let Some(m) = domain {
                    partial = partial.with_domain_size(m);
                }
                for strategy in TerminationStrategy::ALL {
                    let cfg = TerminationConfig::new(strategy, partial);
                    let m = cfg.partial.effective_domain(&observation);
                    let sums = summed_confidences(&observation, m);
                    prop_assert_eq!(
                        cfg.bounds_from_sums(&observation, &sums).unwrap(),
                        cfg.bounds(&observation).unwrap()
                    );
                    prop_assert_eq!(
                        cfg.should_terminate_from_sums(&observation, &sums).unwrap(),
                        cfg.should_terminate(&observation).unwrap()
                    );
                    // A NaN sum (clamping bypassed) must rank last in both forms too.
                    let mut poisoned = sums.clone();
                    if let Some(sum) = poisoned.values_mut().next() {
                        *sum = f64::NAN;
                    }
                    for sums in [&sums, &poisoned] {
                        let fast = cfg.bounds_from_sums(&observation, sums).unwrap();
                        let oracle = oracle::bounds_from_sums(&cfg, &observation, sums).unwrap();
                        prop_assert_eq!(bits(&fast), bits(&oracle), "domain {:?}", domain);
                        prop_assert_eq!(
                            cfg.should_terminate_from_sums(&observation, sums).unwrap(),
                            cfg.decide(oracle).unwrap()
                        );
                    }
                }
            }
        }

        /// If MinMax fires, the adversarial completion cannot flip the winner.
        #[test]
        fn minmax_stability((observation, n) in arbitrary_partial(), mu in 0.6f64..0.9) {
            let partial = PartialConfidence::new(n, mu).unwrap().with_domain_size(3);
            let cfg = TerminationConfig::new(TerminationStrategy::MinMax, partial);
            if observation.len() < n && cfg.should_terminate(&observation).unwrap() {
                let bounds = cfg.bounds(&observation).unwrap();
                let mut completed = observation.clone();
                let target = bounds.second.clone().unwrap_or_else(|| Label::from("z"));
                for i in 0..(n - observation.len()) {
                    completed.push(Vote::new(WorkerId(1000 + i as u64), target.clone(), mu));
                }
                let ranked = crate::verification::confidence::answer_confidences(&completed, 3);
                prop_assert_eq!(ranked[0].0.clone(), bounds.best);
            }
        }
    }
}
