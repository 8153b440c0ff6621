//! Golden per-job reports of four seeded fleets, pinned exactly.
//!
//! Each fleet runs three ways:
//!
//! * `Clocked` and `Parallel { shards: 2 }` as configured — a mix of termination
//!   strategies, so some batches cancel mid-flight and hand their leases over;
//! * `EndOfTime` with termination off, once per [`VerificationStrategy`].
//!
//! The first three fleets fix `domain_size(3)` over three-label questions. The fourth
//! asks five-label questions and leaves the domain size unset
//! (`estimated_domain_size()`); the collector then sizes each question's domain at its
//! declared `question.domain.size()`, so that fleet pins this fallback, not a
//! per-observation estimate of the domain.
//!
//! Every job pins its accuracy, cost, mean answers used, HIT count and a fingerprint of
//! its verdicts. The figures were recorded once and must not move: a change to the
//! scheduler loop or to the phase-2 collector that alters any line is a behaviour
//! change, not a refactor.

use cdas::core::online::TerminationStrategy::{ExpMax, MinExp, MinMax};
use cdas::core::types::AnswerDomain;
use cdas::crowd::distribution::AccuracyDistribution;
use cdas::crowd::question::CrowdQuestion;
use cdas::fixtures::demo_questions;
use cdas::prelude::*;

/// One seeded fleet: a crowd plus `(real, gold, workers, batch, termination)` per job.
struct Case {
    pool: usize,
    accuracy: AccuracyDistribution,
    seed: u64,
    latency_mean: f64,
    jobs: Vec<(u64, u64, usize, usize, Option<TerminationStrategy>)>,
    /// Five-label questions with the domain size left unset, which the collector
    /// resolves to the declared five labels, instead of three-label questions with
    /// `domain_size(3)`.
    five_labels: bool,
}

/// `real + gold` five-label tagging questions whose ground truth is always `"cat"`,
/// the first `gold` of which are gold questions.
fn five_label_questions(real: u64, gold: u64) -> Vec<CrowdQuestion> {
    (0..gold + real)
        .map(|i| {
            let q = CrowdQuestion::new(
                QuestionId(i),
                AnswerDomain::from_strs(&["cat", "dog", "bird", "fish", "horse"]),
                Label::from("cat"),
            );
            if i < gold {
                q.as_gold()
            } else {
                q
            }
        })
        .collect()
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            pool: 14,
            accuracy: AccuracyDistribution::Constant(0.85),
            seed: 11,
            latency_mean: 5.0,
            jobs: vec![
                (9, 3, 5, 4, Some(ExpMax)),
                (8, 2, 4, 3, None),
                (7, 2, 3, 5, Some(MinMax)),
                (6, 2, 5, 3, Some(MinExp)),
            ],
            five_labels: false,
        },
        Case {
            pool: 24,
            accuracy: AccuracyDistribution::Uniform { lo: 0.55, hi: 0.95 },
            seed: 2024,
            latency_mean: 7.0,
            jobs: vec![
                (12, 3, 7, 5, None),
                (10, 4, 5, 7, Some(ExpMax)),
                (9, 0, 5, 4, Some(MinMax)),
            ],
            five_labels: false,
        },
        Case {
            pool: 18,
            accuracy: AccuracyDistribution::Constant(0.7),
            seed: 99,
            latency_mean: 3.0,
            jobs: vec![
                (10, 2, 7, 6, Some(MinExp)),
                (8, 3, 3, 4, None),
                (11, 2, 5, 5, Some(ExpMax)),
                (5, 1, 7, 3, None),
            ],
            five_labels: false,
        },
        Case {
            pool: 16,
            accuracy: AccuracyDistribution::Uniform { lo: 0.6, hi: 0.95 },
            seed: 7,
            latency_mean: 4.0,
            jobs: vec![
                (8, 2, 5, 4, Some(ExpMax)),
                (7, 2, 4, 3, Some(MinMax)),
                (6, 1, 5, 3, None),
                (9, 2, 3, 5, Some(MinExp)),
            ],
            five_labels: true,
        },
    ]
}

/// The case's fleet. `offline` overrides every job's verification strategy and turns
/// termination off.
fn fleet(case: &Case, offline: Option<VerificationStrategy>) -> Fleet {
    let crowd = CrowdSpec::clean(case.pool, 0.8)
        .accuracy(case.accuracy.clone())
        .seed(case.seed)
        .latency(LatencyModel::Exponential {
            mean: case.latency_mean,
        });
    let mut builder = Fleet::builder().crowd(crowd).scheduler_seed(case.seed + 1);
    for (i, &(real, gold, workers, batch, termination)) in case.jobs.iter().enumerate() {
        let mut job = if case.five_labels {
            JobSpec::tagging(format!("job-{i}"), five_label_questions(real, gold))
                .estimated_domain_size()
        } else {
            JobSpec::sentiment(format!("job-{i}"), demo_questions(real, gold)).domain_size(3)
        };
        job = job.workers(workers).batch_size(batch);
        job = match (offline, termination) {
            (Some(verification), _) => job.verification(verification).no_termination(),
            (None, Some(strategy)) => job.termination(strategy),
            (None, None) => job.no_termination(),
        };
        builder = builder.job(job);
    }
    builder.build().expect("every case is feasible")
}

/// FNV-1a over one job's real verdicts in question order: question, accepted label,
/// confidence bits and answers used.
fn fingerprint(run: &FleetRun, job: JobId) -> u64 {
    let mut verdicts: Vec<(u64, String, u64, usize)> = run
        .events()
        .iter()
        .filter_map(|event| match event {
            FleetEvent::QuestionTerminated {
                job: owner,
                question,
                verdict,
                answers_used,
                ..
            } if *owner == job => Some(match verdict {
                Verdict::Accepted { label, confidence } => (
                    question.0,
                    label.as_str().to_string(),
                    confidence.to_bits(),
                    *answers_used,
                ),
                Verdict::NoAnswer => (question.0, String::new(), 0, *answers_used),
            }),
            _ => None,
        })
        .collect();
    verdicts.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (question, label, confidence, used) in &verdicts {
        feed(&question.to_le_bytes());
        feed(label.as_bytes());
        feed(&[0xff]);
        feed(&confidence.to_le_bytes());
        feed(&(*used as u64).to_le_bytes());
    }
    hash
}

/// One line per job: `case/mode/job acc=… cost=… answers=… hits=… verdicts=…`.
fn lines(case_index: usize, mode: &str, run: &FleetRun) -> Vec<String> {
    run.report()
        .jobs
        .iter()
        .map(|job| {
            format!(
                "{case_index}/{mode}/{} acc={:?} cost={:?} answers={:?} hits={} verdicts={:016x}",
                job.job.0,
                job.report.accuracy,
                job.report.cost,
                job.report.mean_answers_used,
                job.hits,
                fingerprint(run, job.job),
            )
        })
        .collect()
}

fn actual_table() -> Vec<String> {
    let mut table = Vec::new();
    for (i, case) in cases().iter().enumerate() {
        let configured = fleet(case, None);
        let clocked = configured.run(ExecutionMode::Clocked).unwrap();
        table.extend(lines(i, "clocked", &clocked));
        let parallel = configured
            .run(ExecutionMode::Parallel { shards: 2 })
            .unwrap();
        table.extend(lines(i, "parallel2", &parallel));
        for verification in VerificationStrategy::ALL {
            let run = fleet(case, Some(verification))
                .run(ExecutionMode::EndOfTime)
                .unwrap();
            table.extend(lines(i, &format!("eot-{}", verification.name()), &run));
        }
    }
    table
}

const GOLDEN: &str = "\
0/clocked/0 acc=1.0 cost=0.09900000000000003 answers=2.2222222222222223 hits=3 verdicts=22d7bdcfb7466ea1\n\
0/clocked/1 acc=1.0 cost=0.17600000000000013 answers=4.0 hits=4 verdicts=a839156ffcd626c3\n\
0/clocked/2 acc=1.0 cost=0.055 answers=2.142857142857143 hits=2 verdicts=dafa9958ea772184\n\
0/clocked/3 acc=0.8333333333333334 cost=0.11000000000000006 answers=2.6666666666666665 hits=3 verdicts=6b6ffac4fee3de3e\n\
0/parallel2/0 acc=0.8888888888888888 cost=0.12099999999999997 answers=2.5555555555555554 hits=3 verdicts=66a6a74befd1311d\n\
0/parallel2/1 acc=1.0 cost=0.17600000000000002 answers=4.0 hits=4 verdicts=b47ff901da5f2417\n\
0/parallel2/2 acc=0.8571428571428571 cost=0.05500000000000005 answers=2.142857142857143 hits=2 verdicts=ce2df1e310a522fd\n\
0/parallel2/3 acc=1.0 cost=0.06600000000000006 answers=2.0 hits=3 verdicts=9cef237ad9422e69\n\
0/eot-Majority-Voting/0 acc=1.0 cost=0.16500000000000004 answers=5.0 hits=3 verdicts=5c2f6ffed451d9ec\n\
0/eot-Majority-Voting/1 acc=1.0 cost=0.17600000000000005 answers=4.0 hits=4 verdicts=e71a310ef71eacdd\n\
0/eot-Majority-Voting/2 acc=1.0 cost=0.066 answers=3.0 hits=2 verdicts=b537dea3e6f5a0e1\n\
0/eot-Majority-Voting/3 acc=0.8333333333333334 cost=0.16499999999999998 answers=5.0 hits=3 verdicts=232d871b3d0f0313\n\
0/eot-Half-Voting/0 acc=1.0 cost=0.16500000000000004 answers=5.0 hits=3 verdicts=5c2f6ffed451d9ec\n\
0/eot-Half-Voting/1 acc=1.0 cost=0.17600000000000005 answers=4.0 hits=4 verdicts=e71a310ef71eacdd\n\
0/eot-Half-Voting/2 acc=1.0 cost=0.066 answers=3.0 hits=2 verdicts=b537dea3e6f5a0e1\n\
0/eot-Half-Voting/3 acc=0.8333333333333334 cost=0.16499999999999998 answers=5.0 hits=3 verdicts=232d871b3d0f0313\n\
0/eot-Verification/0 acc=0.8888888888888888 cost=0.16500000000000004 answers=5.0 hits=3 verdicts=61d680cfd66c9e86\n\
0/eot-Verification/1 acc=1.0 cost=0.17600000000000005 answers=4.0 hits=4 verdicts=6500be53a653ec4c\n\
0/eot-Verification/2 acc=1.0 cost=0.066 answers=3.0 hits=2 verdicts=3c70e0e20621645a\n\
0/eot-Verification/3 acc=1.0 cost=0.16499999999999998 answers=5.0 hits=3 verdicts=38b712de2ccb9e41\n\
1/clocked/0 acc=1.0 cost=0.23100000000000012 answers=7.0 hits=3 verdicts=6b779a1d3b9c6e9e\n\
1/clocked/1 acc=0.9 cost=0.09900000000000003 answers=2.7 hits=2 verdicts=da6115022ecc7fed\n\
1/clocked/2 acc=1.0 cost=0.1320000000000001 answers=3.888888888888889 hits=3 verdicts=13839ad0bb1cfcc6\n\
1/parallel2/0 acc=1.0 cost=0.23100000000000015 answers=7.0 hits=3 verdicts=2905f7b01e8fd266\n\
1/parallel2/1 acc=0.5 cost=0.022 answers=1.0 hits=2 verdicts=a591409195a84dc6\n\
1/parallel2/2 acc=1.0 cost=0.132 answers=3.5555555555555554 hits=3 verdicts=2d17498fcbbd8cb5\n\
1/eot-Majority-Voting/0 acc=1.0 cost=0.23099999999999996 answers=7.0 hits=3 verdicts=a5d34b78bca0bc90\n\
1/eot-Majority-Voting/1 acc=0.8 cost=0.10999999999999999 answers=5.0 hits=2 verdicts=ac2e1d2bbfef2cb1\n\
1/eot-Majority-Voting/2 acc=0.8888888888888888 cost=0.16499999999999995 answers=5.0 hits=3 verdicts=24c4bb05bef6caf8\n\
1/eot-Half-Voting/0 acc=1.0 cost=0.23099999999999996 answers=7.0 hits=3 verdicts=a5d34b78bca0bc90\n\
1/eot-Half-Voting/1 acc=0.8 cost=0.10999999999999999 answers=5.0 hits=2 verdicts=ac2e1d2bbfef2cb1\n\
1/eot-Half-Voting/2 acc=0.8888888888888888 cost=0.16499999999999995 answers=5.0 hits=3 verdicts=24c4bb05bef6caf8\n\
1/eot-Verification/0 acc=1.0 cost=0.23099999999999996 answers=7.0 hits=3 verdicts=6b7afb8b296fa34c\n\
1/eot-Verification/1 acc=0.8 cost=0.10999999999999999 answers=5.0 hits=2 verdicts=9d93fb2a113e1dc8\n\
1/eot-Verification/2 acc=0.8888888888888888 cost=0.16499999999999995 answers=5.0 hits=3 verdicts=dc99039e0e13b503\n\
2/clocked/0 acc=0.8 cost=0.11000000000000007 answers=4.2 hits=2 verdicts=390ef456439e8ec2\n\
2/clocked/1 acc=1.0 cost=0.09900000000000005 answers=3.0 hits=3 verdicts=592a3925369d08d4\n\
2/clocked/2 acc=0.7272727272727273 cost=0.14300000000000002 answers=3.0 hits=3 verdicts=92ce297d2b5b8879\n\
2/clocked/3 acc=1.0 cost=0.15400000000000008 answers=7.0 hits=2 verdicts=144c83eeb30c6c35\n\
2/parallel2/0 acc=0.9 cost=0.09899999999999999 answers=3.6 hits=2 verdicts=0291835da624da48\n\
2/parallel2/1 acc=0.625 cost=0.099 answers=3.0 hits=3 verdicts=6b937f6c7f7f61c4\n\
2/parallel2/2 acc=0.7272727272727273 cost=0.13200000000000006 answers=3.1818181818181817 hits=3 verdicts=d7cd2d165aaf1b57\n\
2/parallel2/3 acc=0.8 cost=0.15400000000000005 answers=7.0 hits=2 verdicts=e81d6a399f1a1b17\n\
2/eot-Majority-Voting/0 acc=0.9 cost=0.15399999999999997 answers=7.0 hits=2 verdicts=21613d3a7610f2e7\n\
2/eot-Majority-Voting/1 acc=0.875 cost=0.09899999999999998 answers=3.0 hits=3 verdicts=7264550fea39c82c\n\
2/eot-Majority-Voting/2 acc=0.6363636363636364 cost=0.16499999999999998 answers=5.0 hits=3 verdicts=5bf045a0b92d69d2\n\
2/eot-Majority-Voting/3 acc=1.0 cost=0.15400000000000003 answers=7.0 hits=2 verdicts=3a896619ebdf90ca\n\
2/eot-Half-Voting/0 acc=0.9 cost=0.15399999999999997 answers=7.0 hits=2 verdicts=21613d3a7610f2e7\n\
2/eot-Half-Voting/1 acc=0.875 cost=0.09899999999999998 answers=3.0 hits=3 verdicts=7264550fea39c82c\n\
2/eot-Half-Voting/2 acc=0.6363636363636364 cost=0.16499999999999998 answers=5.0 hits=3 verdicts=5bf045a0b92d69d2\n\
2/eot-Half-Voting/3 acc=1.0 cost=0.15400000000000003 answers=7.0 hits=2 verdicts=3a896619ebdf90ca\n\
2/eot-Verification/0 acc=0.9 cost=0.15399999999999997 answers=7.0 hits=2 verdicts=06e67523d9b86acc\n\
2/eot-Verification/1 acc=0.75 cost=0.09899999999999998 answers=3.0 hits=3 verdicts=792f69d70e16bda7\n\
2/eot-Verification/2 acc=0.7272727272727273 cost=0.16499999999999998 answers=5.0 hits=3 verdicts=98cac26fb0463b79\n\
2/eot-Verification/3 acc=1.0 cost=0.15400000000000003 answers=7.0 hits=2 verdicts=ea61f79e10d8a466\n\
3/clocked/0 acc=0.75 cost=0.12100000000000005 answers=3.125 hits=3 verdicts=07025ae649d447ba\n\
3/clocked/1 acc=1.0 cost=0.11000000000000006 answers=2.7142857142857144 hits=3 verdicts=9d4d32ac75f9218c\n\
3/clocked/2 acc=1.0 cost=0.16500000000000012 answers=5.0 hits=3 verdicts=0e3fec21c186b147\n\
3/clocked/3 acc=0.7777777777777778 cost=0.05500000000000001 answers=1.6666666666666667 hits=3 verdicts=48581dcbcede690e\n\
3/parallel2/0 acc=1.0 cost=0.12099999999999997 answers=3.25 hits=3 verdicts=94902898ad733de3\n\
3/parallel2/1 acc=0.8571428571428571 cost=0.13200000000000003 answers=3.5714285714285716 hits=3 verdicts=c6bee16ea60109f6\n\
3/parallel2/2 acc=1.0 cost=0.16500000000000012 answers=5.0 hits=3 verdicts=935612004b976c8c\n\
3/parallel2/3 acc=0.8888888888888888 cost=0.05499999999999998 answers=1.6666666666666667 hits=3 verdicts=6f9337e0dbcd2ab8\n\
3/eot-Majority-Voting/0 acc=0.75 cost=0.16499999999999992 answers=5.0 hits=3 verdicts=f11f113919c42ff7\n\
3/eot-Majority-Voting/1 acc=0.8571428571428571 cost=0.13200000000000006 answers=4.0 hits=3 verdicts=f45fc1c5752a8c03\n\
3/eot-Majority-Voting/2 acc=1.0 cost=0.16499999999999998 answers=5.0 hits=3 verdicts=7f255f0d824e067a\n\
3/eot-Majority-Voting/3 acc=0.8888888888888888 cost=0.09899999999999998 answers=3.0 hits=3 verdicts=b52334aeb40933df\n\
3/eot-Half-Voting/0 acc=0.75 cost=0.16499999999999992 answers=5.0 hits=3 verdicts=46b42fbce8486271\n\
3/eot-Half-Voting/1 acc=1.0 cost=0.13200000000000006 answers=4.0 hits=3 verdicts=af1bbf6455f602f0\n\
3/eot-Half-Voting/2 acc=1.0 cost=0.16499999999999998 answers=5.0 hits=3 verdicts=7f255f0d824e067a\n\
3/eot-Half-Voting/3 acc=0.8888888888888888 cost=0.09899999999999998 answers=3.0 hits=3 verdicts=b52334aeb40933df\n\
3/eot-Verification/0 acc=0.625 cost=0.16499999999999992 answers=5.0 hits=3 verdicts=10d341d20ad3c7b0\n\
3/eot-Verification/1 acc=1.0 cost=0.13200000000000006 answers=4.0 hits=3 verdicts=c6a1b39fe7a554b4\n\
3/eot-Verification/2 acc=1.0 cost=0.16499999999999998 answers=5.0 hits=3 verdicts=3533bfc8784ff9a5\n\
3/eot-Verification/3 acc=0.8888888888888888 cost=0.09899999999999998 answers=3.0 hits=3 verdicts=12fee9a164b69489
";

#[test]
fn golden_reports_are_unchanged() {
    let actual = actual_table();
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let moved: Vec<String> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a.as_str() != **e)
        .map(|(a, e)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    assert!(
        moved.is_empty() && actual.len() == expected.len(),
        "{} golden lines moved ({} produced, {} pinned):\n{}\nfull table:\n{}",
        moved.len(),
        actual.len(),
        expected.len(),
        moved.join("\n"),
        actual.join("\n")
    );
}
