//! Worker confidence and answer confidence (Definitions 2 and 3, Equation 4).
//!
//! The Bayesian derivation of §4.1 turns the posterior probability of an answer into a
//! weighted vote where worker `u_j` carries weight `e^{c_j}` with
//! `c_j = ln((m−1) a_j / (1 − a_j))`. Answer confidences are computed with a log-sum-exp
//! so that HITs with dozens of high-confidence workers do not overflow.

use std::collections::BTreeMap;

use crate::math::{clamp_probability, log_sum_exp_iter};
use crate::types::{Label, Observation};

/// Sort `(label, value)` pairs by descending value with a **total** comparator, breaking
/// ties by label order.
///
/// Confidence values are ordinarily finite, but a degenerate accuracy (NaN, or an exact
/// 0/1 that slips past clamping upstream) poisons sums and posteriors into NaN; a
/// `partial_cmp().unwrap()` here used to panic the online path mid-HIT. NaN values order
/// *last*: a label whose evidence is NaN must never be declared the leader.
pub(crate) fn sort_by_confidence_desc(ranked: &mut [(Label, f64)]) {
    ranked.sort_by(|a, b| desc_nan_last(a.1, b.1).then_with(|| a.0.cmp(&b.0)));
}

/// Total descending order for confidence-like values, NaN last.
pub(crate) fn desc_nan_last(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        _ => b.total_cmp(&a),
    }
}

/// The worker confidence `c_j = ln((m−1) a_j / (1 − a_j))` of Definition 2.
///
/// `m` is the effective answer-domain size; `accuracy` is clamped into `(0, 1)` so the
/// result is always finite.
pub fn worker_confidence(accuracy: f64, m: usize) -> f64 {
    let a = clamp_probability(accuracy);
    ((m.max(2) - 1) as f64).ln() + (a / (1.0 - a)).ln()
}

/// Per-answer summed confidences `S_r = Σ_{f(u_j)=r} c_j` for every label observed in `Ω`.
///
/// Labels never voted for are *not* listed; Equation 4 treats them as carrying a summed
/// confidence of zero (an empty product), which [`answer_confidences`] accounts for through
/// the `m − k` term of the denominator.
pub fn summed_confidences(observation: &Observation, m: usize) -> BTreeMap<Label, f64> {
    let mut sums: BTreeMap<Label, f64> = BTreeMap::new();
    for vote in observation.votes() {
        *sums.entry(vote.label.clone()).or_insert(0.0) += worker_confidence(vote.accuracy(), m);
    }
    sums
}

/// Answer confidences `ρ(r) = P(r | Ω)` for every observed label (Equation 4), normalised
/// over the *full* answer domain of size `m`: the `m − k` never-voted answers each
/// contribute `e^0 = 1` to the denominator.
///
/// The returned pairs are sorted by descending confidence (ties broken by label order) and
/// the confidences of the observed labels sum to at most 1 — the remainder is the
/// probability mass of the unobserved answers.
pub fn answer_confidences(observation: &Observation, m: usize) -> Vec<(Label, f64)> {
    let sums = summed_confidences(observation, m);
    ranked_from_sums(&sums, m)
}

/// Same as [`answer_confidences`] but starting from precomputed summed confidences; used by
/// the online processor, which maintains the sums incrementally.
pub fn ranked_from_sums(sums: &BTreeMap<Label, f64>, m: usize) -> Vec<(Label, f64)> {
    if sums.is_empty() {
        return Vec::new();
    }
    let k = sums.len();
    let m = m.max(k).max(2);
    // Denominator in log space: LSE over observed sums plus (m − k) unit terms.
    let unvoted = (m > k).then(|| ((m - k) as f64).ln());
    let log_denominator = log_sum_exp_iter(sums.values().copied().chain(unvoted));
    let mut ranked: Vec<(Label, f64)> = sums
        .iter()
        .map(|(l, &s)| (l.clone(), (s - log_denominator).exp()))
        .collect();
    sort_by_confidence_desc(&mut ranked);
    ranked
}

/// Brute-force evaluation of Equation 3 (products of probabilities, no log-space rewrite).
///
/// Only used by tests to validate [`answer_confidences`]; it underflows for large
/// observations, which is precisely why the production path works with log-odds.
pub fn answer_confidences_bruteforce(observation: &Observation, m: usize) -> Vec<(Label, f64)> {
    let m = m.max(observation.distinct_answers()).max(2);
    let labels: Vec<Label> = observation.tally().keys().cloned().collect();
    let score = |candidate: &Label| -> f64 {
        observation
            .votes()
            .iter()
            .map(|v| {
                let a = clamp_probability(v.accuracy());
                if &v.label == candidate {
                    a
                } else {
                    (1.0 - a) / (m as f64 - 1.0)
                }
            })
            .product()
    };
    let observed: Vec<(Label, f64)> = labels.iter().map(|l| (l.clone(), score(l))).collect();
    // Unobserved answers: every vote is "wrong", i.e. the same product with no match.
    let unobserved_score: f64 = observation
        .votes()
        .iter()
        .map(|v| (1.0 - clamp_probability(v.accuracy())) / (m as f64 - 1.0))
        .product();
    let denominator: f64 = observed.iter().map(|(_, s)| *s).sum::<f64>()
        + (m - labels.len()) as f64 * unobserved_score;
    let mut ranked: Vec<(Label, f64)> = observed
        .into_iter()
        .map(|(l, s)| (l, s / denominator))
        .collect();
    sort_by_confidence_desc(&mut ranked);
    ranked
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn worker_confidence_matches_definition() {
        let c = worker_confidence(0.8, 3);
        assert!((c - (2.0f64.ln() + (0.8f64 / 0.2).ln())).abs() < 1e-12);
        // Higher accuracy ⇒ higher confidence.
        assert!(worker_confidence(0.9, 3) > worker_confidence(0.6, 3));
        // A coin-flip worker in a binary domain has zero confidence.
        assert!(worker_confidence(0.5, 2).abs() < 1e-9);
        // Below-random workers get negative confidence.
        assert!(worker_confidence(0.3, 2) < 0.0);
    }

    #[test]
    fn confidences_match_bruteforce_bayes() {
        let observation = obs(&[
            ("pos", 0.54),
            ("pos", 0.31),
            ("neu", 0.49),
            ("neg", 0.73),
            ("pos", 0.46),
        ]);
        for &m in &[3usize, 5, 10] {
            let fast = answer_confidences(&observation, m);
            let slow = answer_confidences_bruteforce(&observation, m);
            assert_eq!(fast.len(), slow.len());
            for ((l1, p1), (l2, p2)) in fast.iter().zip(slow.iter()) {
                assert_eq!(l1, l2);
                assert!((p1 - p2).abs() < 1e-9, "m={m}: {p1} vs {p2}");
            }
        }
    }

    #[test]
    fn table_4_worked_example() {
        // Table 3/4 of the paper: the verification model must flip the result to "neg"
        // with confidences close to (pos 0.329, neu 0.176, neg 0.495).
        let observation = obs(&[
            ("pos", 0.54),
            ("pos", 0.31),
            ("neu", 0.49),
            ("neg", 0.73),
            ("pos", 0.46),
        ]);
        let ranked = answer_confidences(&observation, 3);
        assert_eq!(ranked[0].0.as_str(), "neg");
        let lookup = |name: &str| {
            ranked
                .iter()
                .find(|(l, _)| l.as_str() == name)
                .map(|(_, p)| *p)
                .unwrap()
        };
        assert!(
            (lookup("neg") - 0.495).abs() < 0.01,
            "neg={}",
            lookup("neg")
        );
        assert!(
            (lookup("pos") - 0.329).abs() < 0.01,
            "pos={}",
            lookup("pos")
        );
        assert!(
            (lookup("neu") - 0.176).abs() < 0.01,
            "neu={}",
            lookup("neu")
        );
    }

    #[test]
    fn equal_accuracy_reduces_to_plain_voting() {
        // With identical accuracies the ranking must coincide with the vote counts.
        let observation = obs(&[("a", 0.7), ("a", 0.7), ("b", 0.7), ("c", 0.7), ("a", 0.7)]);
        let ranked = answer_confidences(&observation, 3);
        assert_eq!(ranked[0].0.as_str(), "a");
        assert!(ranked[0].1 > ranked[1].1);
    }

    #[test]
    fn probabilities_are_normalised_within_domain() {
        let observation = obs(&[("a", 0.9), ("b", 0.6), ("c", 0.55)]);
        for &m in &[3usize, 4, 8] {
            let ranked = answer_confidences(&observation, m);
            let total: f64 = ranked.iter().map(|(_, p)| p).sum();
            if m == 3 {
                assert!((total - 1.0).abs() < 1e-9);
            } else {
                // Some probability mass belongs to never-voted answers.
                assert!(total < 1.0);
                assert!(total > 0.5);
            }
            for (_, p) in &ranked {
                assert!(*p > 0.0 && *p < 1.0);
            }
        }
    }

    #[test]
    fn larger_domain_dilutes_wrong_answers_less() {
        // With a huge m, a single accurate worker's answer should dominate less mass being
        // spread, but the argmax must not change.
        let observation = obs(&[("a", 0.9), ("b", 0.6)]);
        let small = answer_confidences(&observation, 2);
        let large = answer_confidences(&observation, 50);
        assert_eq!(small[0].0.as_str(), "a");
        assert_eq!(large[0].0.as_str(), "a");
    }

    #[test]
    fn many_confident_workers_do_not_overflow() {
        let votes: Vec<Vote> = (0..200)
            .map(|i| Vote::new(WorkerId(i), Label::from("x"), 0.999))
            .collect();
        let observation = Observation::from_votes(votes);
        let ranked = answer_confidences(&observation, 3);
        assert_eq!(ranked[0].0.as_str(), "x");
        assert!(ranked[0].1 > 0.999);
        assert!(ranked[0].1.is_finite());
    }

    #[test]
    fn empty_observation_yields_empty_ranking() {
        assert!(answer_confidences(&Observation::empty(), 3).is_empty());
        assert!(ranked_from_sums(&BTreeMap::new(), 3).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::types::{Vote, WorkerId};
    use proptest::prelude::*;

    fn arbitrary_observation() -> impl Strategy<Value = Observation> {
        let label = prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")];
        prop::collection::vec((label, 0.05f64..0.95), 1..25).prop_map(|entries| {
            Observation::from_votes(
                entries
                    .into_iter()
                    .enumerate()
                    .map(|(i, (l, a))| Vote::new(WorkerId(i as u64), Label::from(l), a))
                    .collect(),
            )
        })
    }

    proptest! {
        /// Log-space computation agrees with the brute-force Bayes formula.
        #[test]
        fn matches_bruteforce(observation in arbitrary_observation(), m in 4usize..12) {
            let fast = answer_confidences(&observation, m);
            let slow = answer_confidences_bruteforce(&observation, m);
            prop_assert_eq!(fast.len(), slow.len());
            for ((l1, p1), (l2, p2)) in fast.iter().zip(slow.iter()) {
                prop_assert_eq!(l1, l2);
                prop_assert!((p1 - p2).abs() < 1e-7);
            }
        }

        /// Confidences are valid probabilities and the observed ones never exceed unit mass.
        #[test]
        fn confidences_are_probabilities(observation in arbitrary_observation(), m in 4usize..12) {
            let ranked = answer_confidences(&observation, m);
            let total: f64 = ranked.iter().map(|(_, p)| p).sum();
            prop_assert!(total <= 1.0 + 1e-9);
            for (_, p) in ranked {
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }

        /// The ranking is sorted by descending confidence.
        #[test]
        fn ranking_is_sorted(observation in arbitrary_observation(), m in 4usize..12) {
            let ranked = answer_confidences(&observation, m);
            for w in ranked.windows(2) {
                prop_assert!(w[0].1 >= w[1].1 - 1e-12);
            }
        }
    }
}
