//! Tracing from outside the program. A [`TimedPlatform`] decorator times and counts
//! every call the scheduler makes into a crowd platform, and a [`TimedObserver`] times
//! every callback into the run's observer. Spans stay in memory and are written out
//! when the run ends.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cdas_core::types::{HitId, WorkerId};
use cdas_crowd::hit::HitRequest;
use cdas_crowd::platform::{CancelReceipt, CrowdPlatform, WorkerAnswer};
use cdas_engine::scheduler::{BatchCommit, DispatchRecord, JobId, RunObserver};

/// One timed call: a name, its interval in nanoseconds since the trace origin, the
/// span that caused it, and the HIT id or ticket it concerns.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

fn since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// The spans of one traced run, all timed against one origin.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Open a span named `name` now; [`end`](Self::end) closes it.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let start_ns = since(self.origin);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, index: usize) {
        let end_ns = since(self.origin);
        if let Some(span) = self.spans.get_mut(index) {
            span.end_ns = end_ns;
        }
    }

    /// Run `call` as a span named `name` and return its result with the span's seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        call: impl FnOnce() -> T,
    ) -> (T, f64) {
        let index = self.begin(name, parent, id);
        let value = call();
        self.end(index);
        (value, self.spans[index].seconds())
    }

    /// Add spans recorded elsewhere (a decorator, an observer) as children of `parent`.
    pub fn adopt(&mut self, children: Vec<Span>, parent: usize) {
        self.spans.extend(children.into_iter().map(|span| Span {
            parent: Some(parent),
            ..span
        }));
    }

    pub fn span(&self, index: usize) -> &Span {
        &self.spans[index]
    }

    /// Total seconds of every span named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Total seconds of the spans whose parent is `parent`.
    pub fn child_seconds(&self, parent: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::seconds)
            .sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Write the spans as tab-separated lines: name, start, end, parent, id.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tid")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        out.flush()
    }
}

/// Calls counted by a [`TimedPlatform`] beyond what its spans show.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlatformCounts {
    /// Polls that returned at least one answer.
    pub useful_polls: u64,
    /// Answers the polls delivered.
    pub answers: u64,
}

#[derive(Debug, Default)]
struct PlatformRecord {
    spans: Vec<Span>,
    counts: PlatformCounts,
}

/// A [`CrowdPlatform`] decorator that times and counts every call into the platform it
/// wraps and otherwise passes each call through unchanged.
#[derive(Debug)]
pub struct TimedPlatform<P> {
    inner: P,
    origin: Instant,
    // `next_arrival` takes `&self`, so the record needs interior mutability.
    record: RefCell<PlatformRecord>,
}

impl<P> TimedPlatform<P> {
    pub fn new(inner: P, origin: Instant) -> Self {
        TimedPlatform {
            inner,
            origin,
            record: RefCell::new(PlatformRecord::default()),
        }
    }

    fn push(&self, name: &'static str, start_ns: u64, hit: HitId) {
        let end_ns = since(self.origin);
        self.record.borrow_mut().spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            id: hit.0,
        });
    }

    /// The recorded spans and counts.
    pub fn into_record(self) -> (Vec<Span>, PlatformCounts) {
        let record = self.record.into_inner();
        (record.spans, record.counts)
    }
}

impl<P: CrowdPlatform> CrowdPlatform for TimedPlatform<P> {
    fn publish(&mut self, request: HitRequest) -> HitId {
        let start = since(self.origin);
        let hit = self.inner.publish(request);
        self.push("crowd.publish", start, hit);
        hit
    }

    fn publish_to(&mut self, request: HitRequest, workers: &[WorkerId]) -> HitId {
        let start = since(self.origin);
        let hit = self.inner.publish_to(request, workers);
        self.push("crowd.publish", start, hit);
        hit
    }

    fn advance_time(&mut self, now: f64) {
        self.inner.advance_time(now);
    }

    fn poll(&mut self, hit: HitId, now: f64) -> Vec<WorkerAnswer> {
        let start = since(self.origin);
        let answers = self.inner.poll(hit, now);
        self.push("crowd.poll", start, hit);
        let counts = &mut self.record.get_mut().counts;
        counts.useful_polls += u64::from(!answers.is_empty());
        counts.answers += answers.len() as u64;
        answers
    }

    fn next_arrival(&self, hit: HitId) -> Option<f64> {
        let start = since(self.origin);
        let next = self.inner.next_arrival(hit);
        self.push("crowd.next_arrival", start, hit);
        next
    }

    fn cancel(&mut self, hit: HitId, now: f64) -> CancelReceipt {
        let start = since(self.origin);
        let receipt = self.inner.cancel(hit, now);
        self.push("crowd.cancel", start, hit);
        receipt
    }

    fn total_cost(&self) -> f64 {
        self.inner.total_cost()
    }
}

/// A [`RunObserver`] wrapper that times every callback into the observer it wraps.
pub struct TimedObserver {
    inner: Arc<dyn RunObserver>,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl TimedObserver {
    pub fn new(inner: Arc<dyn RunObserver>, origin: Instant) -> Self {
        TimedObserver {
            inner,
            origin,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn push(&self, name: &'static str, start_ns: u64, hit: HitId) {
        let end_ns = since(self.origin);
        self.spans
            .lock()
            .expect("no thread panics while holding the span buffer")
            .push(Span {
                name,
                start_ns,
                end_ns,
                parent: None,
                id: hit.0,
            });
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no thread panics while holding the span buffer"),
        )
    }
}

impl RunObserver for TimedObserver {
    fn on_dispatch(&self, dispatch: &DispatchRecord) {
        let start = since(self.origin);
        self.inner.on_dispatch(dispatch);
        self.push("observer.dispatch", start, dispatch.hit);
    }

    fn on_charge(&self, job: JobId, hit: HitId, amount: f64, at: f64) {
        let start = since(self.origin);
        self.inner.on_charge(job, hit, amount, at);
        self.push("observer.charge", start, hit);
    }

    fn on_commit(&self, commit: &BatchCommit) {
        let start = since(self.origin);
        self.inner.on_commit(commit);
        self.push("observer.commit", start, commit.hit);
    }
}
