//! The pipeline runtime: one configured object that runs suite
//! preparation, training and evaluation with a scoped worker pool, an
//! optional on-disk artifact cache, and stage telemetry.
//!
//! [`Pipeline`] is the Result-based front door to the crate; the free
//! functions in [`crate::data`] remain as thin cache-less wrappers.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use glaive_bench_suite::{suite, Benchmark};
use glaive_faultsim::{
    Campaign, CampaignError, CampaignProgress, CheckpointSink, GroundTruth, InterruptReason,
    RunControl,
};

use crate::cache::{truth_key, ArtifactCache};
use crate::config::{PipelineConfig, QuorumPolicy};
use crate::data::{assemble_bench_data, BenchData};
use crate::error::Error;
use crate::experiments::Evaluation;
use crate::telemetry::{NullObserver, Observer, Stage};

/// Forwards campaign injection counts to the pipeline observer and mirrors
/// the caller's external cancellation flag into the suite-wide abort flag,
/// so a cancel request reaches running campaigns at batch granularity.
struct CampaignAdapter<'a> {
    observer: &'a dyn Observer,
    subject: &'a str,
    external_cancel: Option<&'a AtomicBool>,
    abort: Option<&'a AtomicBool>,
}

impl CampaignProgress for CampaignAdapter<'_> {
    fn injections(&self, done: usize, total: usize) {
        if let (Some(external), Some(abort)) = (self.external_cancel, self.abort) {
            if external.load(Ordering::Relaxed) {
                abort.store(true, Ordering::Relaxed);
            }
        }
        self.observer
            .progress(Stage::Campaign, self.subject, done as u64, total as u64);
    }
}

/// Renders a caught panic payload as a message (panics carry `&str` or
/// `String` payloads in practice).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// The fate of one benchmark under supervised suite preparation.
#[derive(Debug, Clone)]
pub struct BenchOutcome {
    /// Benchmark name.
    pub benchmark: String,
    /// Preparation attempts made (a panicked stage is retried up to
    /// [`PipelineConfig::stage_retries`] times; 0 = never started).
    pub attempts: usize,
    /// Wall-clock spent on this benchmark across attempts.
    pub elapsed: Duration,
    /// `None` on success; the terminal error otherwise.
    pub error: Option<Error>,
}

/// The result of supervised suite preparation: successfully prepared
/// benchmarks plus a per-benchmark success/failure/timing record, so
/// partial failures degrade gracefully instead of tearing the run down.
#[derive(Debug)]
pub struct SuiteReport {
    prepared: Vec<BenchData>,
    outcomes: Vec<BenchOutcome>,
    elapsed: Duration,
}

impl SuiteReport {
    /// Successfully prepared benchmarks, in request order.
    pub fn prepared(&self) -> &[BenchData] {
        &self.prepared
    }

    /// Extracts the prepared benchmarks, leaving the outcome records in
    /// place (for feeding an [`Evaluation`] while keeping the report).
    pub fn take_prepared(&mut self) -> Vec<BenchData> {
        std::mem::take(&mut self.prepared)
    }

    /// Per-benchmark outcomes, in request order (one per requested
    /// benchmark, successes included).
    pub fn outcomes(&self) -> &[BenchOutcome] {
        &self.outcomes
    }

    /// Wall-clock of the whole preparation.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// The outcomes that failed.
    pub fn failures(&self) -> Vec<&BenchOutcome> {
        self.outcomes.iter().filter(|o| o.error.is_some()).collect()
    }

    /// Whether every requested benchmark prepared successfully.
    pub fn is_complete(&self) -> bool {
        self.outcomes.iter().all(|o| o.error.is_none())
    }

    /// A multi-line, human-readable account of the failures (`None` when
    /// the suite is complete). Rendered by the CLI after degraded runs.
    pub fn failure_summary(&self) -> Option<String> {
        use std::fmt::Write as _;
        let failures = self.failures();
        if failures.is_empty() {
            return None;
        }
        let mut out = format!(
            "{}/{} benchmarks failed preparation:\n",
            failures.len(),
            self.outcomes.len()
        );
        for o in failures {
            let error = o.error.as_ref().expect("failures have errors");
            writeln!(
                out,
                "  {}: {error} ({} attempt{}, {:.2}s)",
                o.benchmark,
                o.attempts,
                if o.attempts == 1 { "" } else { "s" },
                o.elapsed.as_secs_f64()
            )
            .expect("write to string");
        }
        Some(out)
    }

    /// Checks the degradation policy: [`QuorumPolicy::FailFast`] rejects
    /// any failure (returning the first benchmark's error, preferring a
    /// genuine failure over a cancellation ripple), and
    /// [`QuorumPolicy::MinBenchmarks`] rejects only when too few
    /// benchmarks survived.
    ///
    /// # Errors
    ///
    /// The first failure under `FailFast`; [`Error::QuorumNotMet`] under an
    /// unsatisfied `MinBenchmarks`.
    pub fn check_quorum(&self, policy: QuorumPolicy) -> Result<(), Error> {
        match policy {
            QuorumPolicy::FailFast => match self.first_error() {
                Some(e) => Err(e.clone()),
                None => Ok(()),
            },
            QuorumPolicy::MinBenchmarks(required) => {
                let prepared = self.prepared.len();
                if prepared >= required {
                    Ok(())
                } else {
                    Err(Error::QuorumNotMet {
                        prepared,
                        required,
                        failed: self.failures().len(),
                    })
                }
            }
        }
    }

    /// The most causal error: the first non-[`Error::Interrupted`] failure
    /// in request order (under fail-fast, one genuine failure cancels the
    /// rest, so interruptions are symptoms), falling back to the first
    /// interruption when nothing genuinely failed.
    pub fn first_error(&self) -> Option<&Error> {
        let errors = || self.outcomes.iter().filter_map(|o| o.error.as_ref());
        errors()
            .find(|e| !matches!(e, Error::Interrupted { .. }))
            .or_else(|| errors().next())
    }

    /// Collapses the report into a strict all-or-nothing result (the form
    /// [`Pipeline::run`] uses).
    ///
    /// # Errors
    ///
    /// The report's [`first_error`](SuiteReport::first_error), if any.
    pub fn into_result(self) -> Result<Vec<BenchData>, Error> {
        match self.first_error() {
            Some(e) => Err(e.clone()),
            None => Ok(self.prepared),
        }
    }
}

/// A configured pipeline runtime.
///
/// Construct via [`Pipeline::builder`]. Failures come back as values
/// instead of panics: invalid configurations from the builder, and
/// per-benchmark errors, un-splittable suites and cache-write failures
/// from [`Pipeline::prepare`]'s report, [`Pipeline::evaluation`] and
/// [`Pipeline::run`].
#[derive(Clone)]
pub struct Pipeline {
    config: PipelineConfig,
    cache: Option<ArtifactCache>,
    observer: Arc<dyn Observer>,
    workers: usize,
    cancel: Option<Arc<AtomicBool>>,
}

/// Builder for [`Pipeline`].
pub struct PipelineBuilder {
    pipeline: Pipeline,
}

impl PipelineBuilder {
    /// Attaches an on-disk artifact cache: FI ground truth and trained
    /// GLAIVE models are reused across runs when their content keys match.
    pub fn cache(mut self, cache: ArtifactCache) -> Self {
        self.pipeline.cache = Some(cache);
        self
    }

    /// Attaches the artifact cache at its conventional location
    /// ([`ArtifactCache::at_default_location`]).
    pub fn default_cache(self) -> Self {
        self.cache(ArtifactCache::at_default_location())
    }

    /// Attaches a telemetry observer (timing recorder, stderr progress, or
    /// a [`Fanout`](crate::telemetry::Fanout) of several).
    pub fn observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.pipeline.observer = observer;
        self
    }

    /// Suite-preparation worker threads (0 = available parallelism). Each
    /// worker prepares one benchmark at a time; campaign threads inside a
    /// worker are scaled down so the pool does not oversubscribe the
    /// machine.
    pub fn workers(mut self, n: usize) -> Self {
        self.pipeline.workers = n;
        self
    }

    /// Attaches a cooperative cancellation flag: raising it (e.g. from a
    /// Ctrl-C handler) stops suite preparation at the next batch boundary,
    /// checkpointing interrupted campaigns.
    pub fn cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.pipeline.cancel = Some(flag);
        self
    }

    /// Validates the configuration and yields the runtime.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if the pipeline configuration violates an
    /// invariant (see [`PipelineConfig::validate`]).
    pub fn build(self) -> Result<Pipeline, Error> {
        self.pipeline.config.validate()?;
        Ok(self.pipeline)
    }
}

impl Pipeline {
    /// A builder seeded with `config`, no cache, and silent telemetry.
    pub fn builder(config: PipelineConfig) -> PipelineBuilder {
        PipelineBuilder {
            pipeline: Pipeline {
                config,
                cache: None,
                observer: Arc::new(NullObserver),
                workers: 0,
                cancel: None,
            },
        }
    }

    /// The validated configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Prepares `benches` in parallel, preserving order: FI campaign (or
    /// artifact-cache hit) plus graph build per benchmark.
    ///
    /// Preparation is supervised: panicking stages are isolated to their
    /// benchmark (and retried per [`PipelineConfig::stage_retries`]),
    /// deadlines and cancellation stop outstanding work cooperatively,
    /// interrupted campaigns checkpoint into the cache for a later
    /// resume, and the report records every benchmark's fate so callers
    /// can degrade gracefully via [`SuiteReport::check_quorum`] or demand
    /// all of it via [`SuiteReport::into_result`].
    ///
    /// A benchmark's error is [`Error::StageFailed`] after exhausted
    /// retries, [`Error::Interrupted`] on cancellation or deadline,
    /// [`Error::Truth`] for a degenerate benchmark, or [`Error::Cache`] if
    /// a freshly computed ground truth cannot be written back. Cache
    /// *reads* never fail — a missing or corrupt artifact is recomputed.
    pub fn prepare(&self, benches: Vec<Benchmark>) -> SuiteReport {
        prepare_supervised(
            benches,
            &self.config,
            self.cache.as_ref(),
            self.observer.as_ref(),
            self.workers,
            self.cancel.as_deref(),
        )
    }

    /// Trains the round-robin model sets for `suite` (reusing cached
    /// GLAIVE models where possible) and yields the evaluation.
    ///
    /// # Errors
    ///
    /// [`Error::EmptySuite`], [`Error::NoTrainingPartners`], or
    /// [`Error::Cache`] on a model write-back failure.
    pub fn evaluation(&self, suite: Vec<BenchData>) -> Result<Evaluation, Error> {
        Evaluation::with_runtime(
            suite,
            &self.config,
            self.cache.as_ref(),
            self.observer.as_ref(),
            self.workers,
        )
    }

    /// The whole pipeline: parallel preparation of the full 12-benchmark
    /// Table-II suite, then training and evaluation.
    ///
    /// # Errors
    ///
    /// The first preparation failure ([`SuiteReport::into_result`]) or
    /// any [`Pipeline::evaluation`] error.
    pub fn run(&self, seed: u64) -> Result<Evaluation, Error> {
        let suite = self.prepare(suite(seed)).into_result()?;
        self.evaluation(suite)
    }
}

/// What stopped the suite, if anything: the external cancel flag and the
/// suite-wide abort ripple read as cancellation, then the suite deadline.
fn suite_interruption(
    external_cancel: Option<&AtomicBool>,
    abort: &AtomicBool,
    suite_deadline: Option<Instant>,
) -> Option<InterruptReason> {
    if external_cancel.is_some_and(|c| c.load(Ordering::Relaxed)) || abort.load(Ordering::Relaxed) {
        return Some(InterruptReason::Cancelled);
    }
    if suite_deadline.is_some_and(|d| Instant::now() >= d) {
        return Some(InterruptReason::DeadlineExceeded);
    }
    None
}

/// Supervised preparation of one benchmark: each attempt runs under
/// `catch_unwind` so a panic anywhere in the campaign or graph build is
/// isolated to this benchmark, and panicked attempts are retried up to
/// [`PipelineConfig::stage_retries`] times. Returns the terminal result
/// and the number of attempts made.
#[allow(clippy::too_many_arguments)]
fn prepare_one_supervised(
    bench: Benchmark,
    config: &PipelineConfig,
    cache: Option<&ArtifactCache>,
    observer: &dyn Observer,
    campaign_threads: usize,
    external_cancel: Option<&AtomicBool>,
    abort: &AtomicBool,
    suite_deadline: Option<Instant>,
) -> (Result<BenchData, Error>, usize) {
    let name = bench.name;
    let mut attempts = 0;
    loop {
        attempts += 1;
        let current_stage = Cell::new(Stage::Campaign);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            prepare_one_attempt(
                bench.clone(),
                config,
                cache,
                observer,
                campaign_threads,
                external_cancel,
                abort,
                suite_deadline,
                &current_stage,
            )
        }));
        match outcome {
            Ok(result) => return (result, attempts),
            Err(payload) => {
                let message = panic_message(payload);
                observer.stage_failed(current_stage.get(), name, attempts, &message);
                if attempts <= config.stage_retries {
                    continue;
                }
                return (
                    Err(Error::StageFailed {
                        stage: current_stage.get(),
                        subject: name.to_string(),
                        message,
                    }),
                    attempts,
                );
            }
        }
    }
}

/// One supervised preparation attempt: campaign-or-cache (with checkpoint
/// resume, cancellation and deadlines) plus graph build. `current_stage`
/// tracks where execution is so a caught panic can be attributed.
#[allow(clippy::too_many_arguments)]
fn prepare_one_attempt(
    bench: Benchmark,
    config: &PipelineConfig,
    cache: Option<&ArtifactCache>,
    observer: &dyn Observer,
    campaign_threads: usize,
    external_cancel: Option<&AtomicBool>,
    abort: &AtomicBool,
    suite_deadline: Option<Instant>,
    current_stage: &Cell<Stage>,
) -> Result<BenchData, Error> {
    let name = bench.name;
    current_stage.set(Stage::Campaign);
    let truth = match load_cached_truth(&bench, config, cache, observer) {
        Some(truth) => truth,
        None => {
            observer.stage_started(Stage::Campaign, name);
            let t0 = Instant::now();
            let mut campaign_config = config.campaign();
            campaign_config.threads = campaign_threads;
            let adapter = CampaignAdapter {
                observer,
                subject: name,
                external_cancel,
                abort: Some(abort),
            };
            let key = truth_key(&bench, &config.campaign());
            let sink = cache.map(|c| c.checkpoint_sink(key));
            let campaign_deadline = config.campaign_deadline.map(|d| Instant::now() + d);
            let deadline = match (suite_deadline, campaign_deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let ctrl = RunControl {
                progress: &adapter,
                cancel: Some(abort),
                deadline,
                checkpoint: sink.as_ref().map(|s| s as &dyn CheckpointSink),
                checkpoint_interval: config.checkpoint_interval,
            };
            let truth = Campaign::try_new(bench.program(), &bench.init_mem, campaign_config)
                .and_then(|campaign| campaign.run_supervised(&ctrl))
                .map_err(|e| campaign_error(name, e))?;
            // A degenerate campaign (no observations at all) cannot back
            // any vulnerability statistic — fail this benchmark's
            // preparation rather than panicking at aggregation time.
            truth.try_program_vulnerability()?;
            observer.stage_finished(
                Stage::Campaign,
                name,
                t0.elapsed(),
                truth.total_injections() as u64,
            );
            if let Some(cache) = cache {
                cache.store_truth(key, &truth)?;
                // The completed truth supersedes any partial snapshot.
                cache.checkpoint_sink(key).clear();
            }
            truth
        }
    };

    current_stage.set(Stage::GraphBuild);
    observer.stage_started(Stage::GraphBuild, name);
    let t0 = Instant::now();
    let data = assemble_bench_data(bench, config.effective_graph_stride(), truth);
    observer.stage_finished(
        Stage::GraphBuild,
        name,
        t0.elapsed(),
        data.cdfg.node_count() as u64,
    );
    Ok(data)
}

/// A cached ground truth for `bench`, if present, intact, and shaped like
/// the benchmark's program (a key collision or stale artifact fails the
/// shape check and is recomputed).
fn load_cached_truth(
    bench: &Benchmark,
    config: &PipelineConfig,
    cache: Option<&ArtifactCache>,
    observer: &dyn Observer,
) -> Option<GroundTruth> {
    let cache = cache?;
    let key = truth_key(bench, &config.campaign());
    let truth = cache
        .load_truth(key)
        .filter(|t| t.golden().exec_counts.len() == bench.program().len());
    observer.cache_lookup("fi", bench.name, truth.is_some());
    truth
}

/// Maps a campaign failure into the pipeline error vocabulary, keyed by
/// the benchmark it hit: an interruption stays resumable, anything else
/// fails the campaign stage.
fn campaign_error(subject: &str, e: CampaignError) -> Error {
    match e {
        CampaignError::Interrupted {
            reason,
            completed,
            total,
            ..
        } => Error::Interrupted {
            subject: subject.to_string(),
            reason,
            completed,
            total,
        },
        other => Error::StageFailed {
            stage: Stage::Campaign,
            subject: subject.to_string(),
            message: other.to_string(),
        },
    }
}

/// The number of workers a pool should actually use.
pub(crate) fn resolve_workers(requested: usize, jobs: usize) -> usize {
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n = if requested == 0 { avail } else { requested };
    n.clamp(1, jobs.max(1))
}

/// Supervised parallel driver behind [`Pipeline::prepare`] and the
/// cache-less [`crate::data::prepare_suite`]:
/// a scoped worker pool pulls benchmarks off an atomic queue, each worker
/// running its campaign with a share of the machine's cores so concurrent
/// campaigns don't oversubscribe it. A benchmark failure is isolated to
/// its queue slot; under [`QuorumPolicy::FailFast`] it also raises the
/// suite-wide abort flag so outstanding work stops cooperatively.
pub(crate) fn prepare_supervised(
    benches: Vec<Benchmark>,
    config: &PipelineConfig,
    cache: Option<&ArtifactCache>,
    observer: &dyn Observer,
    workers: usize,
    external_cancel: Option<&AtomicBool>,
) -> SuiteReport {
    let t_suite = Instant::now();
    let jobs = benches.len();
    if jobs == 0 {
        return SuiteReport {
            prepared: Vec::new(),
            outcomes: Vec::new(),
            elapsed: t_suite.elapsed(),
        };
    }
    let workers = resolve_workers(workers, jobs);
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let campaign_budget = if config.threads == 0 {
        avail
    } else {
        config.threads
    };
    let campaign_threads = (campaign_budget / workers).max(1);
    let suite_deadline = config.suite_deadline.map(|d| t_suite + d);
    let abort = AtomicBool::new(false);

    let names: Vec<&str> = benches.iter().map(|b| b.name).collect();
    let benches: Vec<Mutex<Option<Benchmark>>> =
        benches.into_iter().map(|b| Mutex::new(Some(b))).collect();
    let next = AtomicUsize::new(0);
    type Slot = (Result<BenchData, Error>, usize, Duration);
    let results: Vec<Mutex<Option<Slot>>> = (0..jobs).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    return;
                }
                let bench = benches[i]
                    .lock()
                    .expect("bench slot")
                    .take()
                    .expect("each job taken once");
                let t0 = Instant::now();
                // Jobs still queued when the suite is interrupted are
                // marked, not run.
                let (out, attempts) =
                    match suite_interruption(external_cancel, &abort, suite_deadline) {
                        Some(reason) => (
                            Err(Error::Interrupted {
                                subject: names[i].to_string(),
                                reason,
                                completed: 0,
                                total: 0,
                            }),
                            0,
                        ),
                        None => prepare_one_supervised(
                            bench,
                            config,
                            cache,
                            observer,
                            campaign_threads,
                            external_cancel,
                            &abort,
                            suite_deadline,
                        ),
                    };
                // A genuine failure (not a cancellation ripple) under
                // fail-fast stops the rest of the suite.
                if config.quorum == QuorumPolicy::FailFast
                    && matches!(out, Err(ref e) if !matches!(e, Error::Interrupted { .. }))
                {
                    abort.store(true, Ordering::Relaxed);
                }
                *results[i].lock().expect("result slot") = Some((out, attempts, t0.elapsed()));
            });
        }
    });

    let mut prepared = Vec::with_capacity(jobs);
    let mut outcomes = Vec::with_capacity(jobs);
    for (slot, name) in results.into_iter().zip(names) {
        let (result, attempts, elapsed) = slot
            .into_inner()
            .expect("slot lock")
            .expect("worker filled slot");
        let error = match result {
            Ok(data) => {
                prepared.push(data);
                None
            }
            Err(e) => Some(e),
        };
        outcomes.push(BenchOutcome {
            benchmark: name.to_string(),
            attempts,
            elapsed,
            error,
        });
    }
    SuiteReport {
        prepared,
        outcomes,
        elapsed: t_suite.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::test_support::PanicOnStart;
    use crate::telemetry::{Fanout, TimingRecorder};
    use glaive_bench_suite::control::{dijkstra, sobel};

    fn temp_cache(tag: &str) -> ArtifactCache {
        let dir =
            std::env::temp_dir().join(format!("glaive-pipeline-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactCache::new(dir)
    }

    /// Builds `builder` and prepares dijkstra alone through
    /// [`Pipeline::prepare`].
    fn prepare_dijkstra(builder: PipelineBuilder) -> Result<BenchData, Error> {
        let pipeline = builder.build().expect("valid");
        let mut prepared = pipeline.prepare(vec![dijkstra::build(1)]).into_result()?;
        Ok(prepared.remove(0))
    }

    #[test]
    fn resolve_workers_clamps_to_jobs() {
        assert_eq!(resolve_workers(8, 3), 3);
        assert_eq!(resolve_workers(2, 12), 2);
        assert!(resolve_workers(0, 12) >= 1);
        assert_eq!(resolve_workers(0, 0), 1);
    }

    #[test]
    fn build_rejects_invalid_config() {
        let mut config = PipelineConfig::quick_test();
        config.bit_stride = 0;
        assert!(matches!(
            Pipeline::builder(config).build(),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn parallel_preparation_matches_serial() {
        let config = PipelineConfig::quick_test();
        let serial = crate::data::prepare_benchmark(dijkstra::build(1), &config);
        let pipeline = Pipeline::builder(config).workers(2).build().expect("valid");
        let parallel = pipeline
            .prepare(vec![dijkstra::build(1), sobel::build(1)])
            .into_result()
            .expect("no cache writes");
        assert_eq!(parallel.len(), 2);
        assert_eq!(parallel[0].bench.name, "dijkstra");
        assert_eq!(parallel[1].bench.name, "sobel");
        // Campaign results are deterministic, so parallel == serial.
        assert_eq!(parallel[0].labels, serial.labels);
        assert_eq!(parallel[0].truth.records(), serial.truth.records());
    }

    #[test]
    fn second_run_hits_the_truth_cache() {
        let config = PipelineConfig::quick_test();
        let cache = temp_cache("truth-hit");

        let rec1 = Arc::new(TimingRecorder::new());
        let first = prepare_dijkstra(
            Pipeline::builder(config)
                .cache(cache.clone())
                .observer(rec1.clone()),
        )
        .expect("prepare");
        assert_eq!(rec1.cache_counts(), (0, 1));

        let rec2 = Arc::new(TimingRecorder::new());
        let second = prepare_dijkstra(
            Pipeline::builder(config)
                .cache(cache)
                .observer(rec2.clone()),
        )
        .expect("prepare");
        assert_eq!(rec2.cache_counts(), (1, 0));
        // No campaign stage ran on the hit path.
        assert!(rec2.timings().iter().all(|t| t.stage != Stage::Campaign));

        assert_eq!(first.truth.records(), second.truth.records());
        assert_eq!(first.labels, second.labels);
        assert_eq!(first.fi_tuples, second.fi_tuples);
    }

    #[test]
    fn changing_campaign_parameters_invalidates_the_cache() {
        let config = PipelineConfig::quick_test();
        let cache = temp_cache("invalidate");
        prepare_dijkstra(Pipeline::builder(config).cache(cache.clone())).expect("prepare");

        for altered in [
            {
                let mut c = config;
                c.bit_stride = 8;
                c
            },
            {
                let mut c = config;
                c.instances_per_site = 2;
                c
            },
        ] {
            let rec = Arc::new(TimingRecorder::new());
            prepare_dijkstra(
                Pipeline::builder(altered)
                    .cache(cache.clone())
                    .observer(rec.clone()),
            )
            .expect("prepare");
            assert_eq!(rec.cache_counts(), (0, 1), "altered config must miss");
        }
    }

    #[test]
    fn panicking_stage_is_isolated_to_its_benchmark() {
        let mut config = PipelineConfig::quick_test();
        config.quorum = QuorumPolicy::MinBenchmarks(1);
        let observer = Arc::new(PanicOnStart {
            stage: Stage::Campaign,
            subject: Some("dijkstra"),
            remaining: AtomicUsize::new(usize::MAX),
        });
        let pipeline = Pipeline::builder(config)
            .observer(observer)
            .workers(2)
            .build()
            .expect("valid");
        let report = pipeline.prepare(vec![dijkstra::build(1), sobel::build(1)]);

        assert!(!report.is_complete());
        assert_eq!(report.prepared().len(), 1);
        assert_eq!(report.prepared()[0].bench.name, "sobel");
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].benchmark, "dijkstra");
        assert!(matches!(
            failures[0].error,
            Some(Error::StageFailed {
                stage: Stage::Campaign,
                ..
            })
        ));
        let summary = report.failure_summary().expect("failures present");
        assert!(summary.contains("dijkstra"), "{summary}");
        assert!(summary.contains("synthetic campaign failure"), "{summary}");

        assert!(report.check_quorum(QuorumPolicy::MinBenchmarks(1)).is_ok());
        assert!(matches!(
            report.check_quorum(QuorumPolicy::MinBenchmarks(2)),
            Err(Error::QuorumNotMet {
                prepared: 1,
                required: 2,
                failed: 1
            })
        ));
        assert!(report.check_quorum(QuorumPolicy::FailFast).is_err());
    }

    #[test]
    fn panicked_stage_is_retried_and_attempts_are_recorded() {
        let mut config = PipelineConfig::quick_test();
        config.stage_retries = 1;
        let panicker = Arc::new(PanicOnStart {
            stage: Stage::Campaign,
            subject: Some("dijkstra"),
            remaining: AtomicUsize::new(1), // fail the first attempt only
        });
        let recorder = Arc::new(TimingRecorder::new());
        let pipeline = Pipeline::builder(config)
            .observer(Arc::new(Fanout(vec![panicker, recorder.clone()])))
            .build()
            .expect("valid");
        let report = pipeline.prepare(vec![dijkstra::build(1)]);

        assert!(report.is_complete(), "{:?}", report.failure_summary());
        assert_eq!(report.outcomes()[0].attempts, 2);
        let failures = recorder.failures();
        assert_eq!(failures.len(), 1, "one failed attempt went to telemetry");
        assert_eq!(failures[0], (Stage::Campaign, "dijkstra".to_string()));
    }

    #[test]
    fn expired_suite_deadline_interrupts_queued_benchmarks() {
        let mut config = PipelineConfig::quick_test();
        config.suite_deadline = Some(Duration::ZERO);
        let pipeline = Pipeline::builder(config).build().expect("valid");
        let report = pipeline.prepare(vec![dijkstra::build(1), sobel::build(1)]);
        assert_eq!(report.prepared().len(), 0);
        for outcome in report.outcomes() {
            assert!(
                matches!(
                    outcome.error,
                    Some(Error::Interrupted {
                        reason: InterruptReason::DeadlineExceeded,
                        ..
                    })
                ),
                "{}: {:?}",
                outcome.benchmark,
                outcome.error
            );
        }
        assert!(matches!(
            report.check_quorum(QuorumPolicy::MinBenchmarks(1)),
            Err(Error::QuorumNotMet { .. })
        ));
    }

    /// Raises the pipeline's external cancel flag once campaign progress
    /// starts flowing — simulates a Ctrl-C arriving mid-campaign.
    struct CancelOnProgress {
        flag: Arc<AtomicBool>,
    }

    impl Observer for CancelOnProgress {
        fn progress(&self, stage: Stage, _subject: &str, done: u64, _total: u64) {
            if stage == Stage::Campaign && done > 0 {
                self.flag.store(true, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn cancelled_campaign_checkpoints_into_cache_and_resumes_identically() {
        let config = PipelineConfig::quick_test();
        let cache = temp_cache("ckpt-resume");
        let reference = crate::data::prepare_benchmark(dijkstra::build(1), &config);
        let key = truth_key(&dijkstra::build(1), &config.campaign());

        let cancel = Arc::new(AtomicBool::new(false));
        let err = prepare_dijkstra(
            Pipeline::builder(config)
                .cache(cache.clone())
                .observer(Arc::new(CancelOnProgress {
                    flag: cancel.clone(),
                }))
                .cancel_flag(cancel),
        )
        .expect_err("cancelled mid-campaign");
        assert!(
            matches!(
                err,
                Error::Interrupted {
                    reason: InterruptReason::Cancelled,
                    ..
                }
            ),
            "{err}"
        );
        assert!(
            cache.checkpoint_sink(key).load().is_some(),
            "interruption leaves a checkpoint behind"
        );

        // A fresh pipeline over the same cache resumes from the checkpoint,
        // completes, and reproduces the uninterrupted truth byte-for-byte.
        let resumed = prepare_dijkstra(Pipeline::builder(config).cache(cache.clone()))
            .expect("resume completes");
        assert_eq!(resumed.truth.to_bytes(), reference.truth.to_bytes());
        assert_eq!(resumed.labels, reference.labels);
        assert!(
            cache.checkpoint_sink(key).load().is_none(),
            "completed truth supersedes the checkpoint"
        );
        assert!(
            cache.load_truth(key).is_some(),
            "finished truth landed in the cache"
        );
    }

    /// The `train_threads` knob must never perturb persisted artifacts:
    /// a 4-threaded pipeline interrupted mid-campaign leaves a GLVCKPT1
    /// checkpoint a 1-threaded pipeline resumes to byte-identical truth,
    /// and models trained at 4 threads serialise to the same GLVFIT01
    /// bytes as at 1 thread.
    #[test]
    fn train_threads_do_not_perturb_models_or_checkpoint_resume() {
        let mut serial_cfg = PipelineConfig::quick_test();
        serial_cfg.train_threads = 1;
        let mut threaded_cfg = serial_cfg;
        threaded_cfg.train_threads = 4;

        // Reference: uninterrupted serial preparation + serial training.
        let prepared = [
            crate::data::prepare_benchmark(dijkstra::build(1), &serial_cfg),
            crate::data::prepare_benchmark(sobel::build(1), &serial_cfg),
        ];
        let refs: Vec<&BenchData> = prepared.iter().collect();
        let serial_model = crate::models::train_models(&refs, &serial_cfg)
            .glaive_model()
            .to_bytes();

        // Train 4-threaded on a pipeline cancelled mid-campaign: the
        // interruption leaves a checkpoint behind...
        let cache = temp_cache("train-threads");
        let key = truth_key(&dijkstra::build(1), &threaded_cfg.campaign());
        let cancel = Arc::new(AtomicBool::new(false));
        let err = prepare_dijkstra(
            Pipeline::builder(threaded_cfg)
                .cache(cache.clone())
                .observer(Arc::new(CancelOnProgress {
                    flag: cancel.clone(),
                }))
                .cancel_flag(cancel),
        )
        .expect_err("cancelled mid-campaign");
        assert!(matches!(err, Error::Interrupted { .. }), "{err}");
        let checkpoint = cache
            .checkpoint_sink(key)
            .load()
            .expect("interruption leaves a checkpoint behind");

        // ...that a 1-threaded pipeline resumes to the same truth bytes.
        let resumed = prepare_dijkstra(Pipeline::builder(serial_cfg).cache(cache.clone()))
            .expect("resume completes");
        assert_eq!(resumed.truth.to_bytes(), prepared[0].truth.to_bytes());
        assert!(!checkpoint.is_empty(), "checkpoint bytes were persisted");

        // And 4-threaded training on the resumed data reproduces the
        // serial model bytes exactly.
        let threaded_prepared = [resumed, prepared[1].clone()];
        let threaded_refs: Vec<&BenchData> = threaded_prepared.iter().collect();
        let threaded_model = crate::models::train_models(&threaded_refs, &threaded_cfg)
            .glaive_model()
            .to_bytes();
        assert_eq!(
            threaded_model, serial_model,
            "4-thread training diverged from serial"
        );
    }

    #[test]
    fn corrupt_cache_artifacts_fall_back_to_recompute() {
        let config = PipelineConfig::quick_test();
        let cache = temp_cache("corrupt");
        let pristine =
            prepare_dijkstra(Pipeline::builder(config).cache(cache.clone())).expect("prepare");

        let entry = std::fs::read_dir(cache.dir())
            .expect("cache dir")
            .map(|e| e.expect("entry").path())
            .find(|p| {
                p.file_name()
                    .map(|n| n.to_string_lossy().starts_with("fi-"))
                    .unwrap_or(false)
            })
            .expect("one fi artifact");

        // Truncation and byte corruption must both read as misses.
        let bytes = std::fs::read(&entry).expect("read artifact");
        for mutation in [bytes[..bytes.len() / 2].to_vec(), {
            let mut b = bytes.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0xff;
            b
        }] {
            std::fs::write(&entry, &mutation).expect("write mutation");
            let rec = Arc::new(TimingRecorder::new());
            let again = prepare_dijkstra(
                Pipeline::builder(config)
                    .cache(cache.clone())
                    .observer(rec.clone()),
            )
            .expect("prepare");
            assert_eq!(rec.cache_counts(), (0, 1), "corrupt artifact must miss");
            assert_eq!(again.truth.records(), pristine.truth.records());
        }
    }
}
