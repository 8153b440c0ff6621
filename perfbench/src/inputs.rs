//! Seeded workload inputs. Jobs and crowd are generated here, outside the program, from
//! the benchmark's `--seed`; the program only ever receives the generated inputs. The
//! seed fills in a fixed shape (job counts, sizes, worker demands), so two seeds give
//! different instances of the same amount of work.

use cdas_core::online::TerminationStrategy;
use cdas_crowd::spec::CrowdSpec;
use cdas_engine::apps::{ImageTaggingApp, ItConfig, TsaApp, TsaConfig};
use cdas_engine::fleet::{FleetBuilder, JobSpec};
use cdas_engine::Fleet;
use cdas_workloads::it::{ImageGenerator, ImageGeneratorConfig, SyntheticImage, FIGURE17_SUBJECTS};
use cdas_workloads::tsa::movies::FIGURE5_MOVIES;
use cdas_workloads::tsa::{Tweet, TweetGenerator, TweetGeneratorConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Scheduler stall valve for every benchmark fleet: far above any workload's tick
/// count, so only a genuine stall trips it.
pub const MAX_TICKS: usize = 100_000_000;

/// The fixed shape of one workload's inputs; the seed only fills it in.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Twitter-sentiment jobs (3 labels, questions from `TsaApp::build_questions`).
    pub tsa_jobs: usize,
    /// Image-tagging jobs (per-image tag domains, from `ImageTaggingApp::build_questions`).
    pub it_jobs: usize,
    /// Tweets per TSA job (gold included).
    pub tweets_per_job: usize,
    /// Images per IT job (gold included).
    pub images_per_job: usize,
    /// Workers leased per TSA HIT.
    pub tsa_workers: usize,
    /// Workers leased per IT HIT.
    pub it_workers: usize,
    /// Workers in the paper-shaped crowd.
    pub crowd: usize,
}

/// One workload instance: the crowd, the scheduler's lease seed and the jobs.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub crowd: CrowdSpec,
    pub scheduler_seed: u64,
    pub jobs: Vec<JobSpec>,
}

impl Inputs {
    /// Generate the instance of `shape` for `seed`.
    pub fn generate(shape: &Shape, seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let crowd = CrowdSpec::paper().size(shape.crowd).seed(rng.random());
        let scheduler_seed = rng.random();
        let tsa = TsaApp::new(TsaConfig::default());
        let it = ImageTaggingApp::new(ItConfig::default());
        let mut tweets = TweetGenerator::new(TweetGeneratorConfig {
            seed: rng.random(),
            ..TweetGeneratorConfig::default()
        });
        let mut images = ImageGenerator::new(ImageGeneratorConfig {
            seed: rng.random(),
            ..ImageGeneratorConfig::default()
        });
        let mut kinds: Vec<bool> = std::iter::repeat_n(true, shape.tsa_jobs)
            .chain(std::iter::repeat_n(false, shape.it_jobs))
            .collect();
        kinds.shuffle(&mut rng);
        let jobs = kinds
            .into_iter()
            .enumerate()
            .map(|(i, is_tsa)| {
                if is_tsa {
                    let movie = FIGURE5_MOVIES[rng.random_range(0..FIGURE5_MOVIES.len())];
                    let batch = tweets.generate(movie, shape.tweets_per_job);
                    let refs: Vec<&Tweet> = batch.iter().collect();
                    JobSpec::sentiment(format!("tsa-{i}-{movie}"), tsa.build_questions(&refs))
                        .workers(shape.tsa_workers)
                        .batch_size(tsa.config().batch_size)
                        .domain_size(3)
                        .termination(TerminationStrategy::ExpMax)
                } else {
                    let subject = FIGURE17_SUBJECTS[rng.random_range(0..FIGURE17_SUBJECTS.len())];
                    let batch = images.generate(subject, shape.images_per_job);
                    let refs: Vec<&SyntheticImage> = batch.iter().collect();
                    JobSpec::tagging(format!("it-{i}-{subject}"), it.build_questions(&refs))
                        .workers(shape.it_workers)
                        .batch_size(it.config().batch_size)
                        .estimated_domain_size()
                        .termination(TerminationStrategy::ExpMax)
                }
            })
            .collect();
        Inputs {
            crowd,
            scheduler_seed,
            jobs,
        }
    }

    /// A fleet builder over this instance with every job queued.
    pub fn builder(&self) -> FleetBuilder<CrowdSpec> {
        self.empty_builder().jobs(self.jobs.iter().cloned())
    }

    /// The same builder without jobs (jobs then go in one `Fleet::submit` at a time).
    pub fn empty_builder(&self) -> FleetBuilder<CrowdSpec> {
        Fleet::builder()
            .crowd(self.crowd.clone())
            .scheduler_seed(self.scheduler_seed)
            .max_ticks(MAX_TICKS)
    }
}
