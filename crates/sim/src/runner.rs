//! Parallel experiment runner: typed run descriptors, a std::thread job
//! pool, a bounded byte-weighted run cache, and per-point fault
//! isolation.
//!
//! Every simulation point is an independent, deterministic, single-threaded
//! job, so a figure's point set can fan out across host cores. This module
//! provides the pieces:
//!
//! - [`RunRequest`] — the typed experiment-point descriptor (workload,
//!   scale, config; the mode lives in the config). It is simultaneously
//!   the runner's job type, the run-cache key (via
//!   [`RunRequest::stable_key`]), and the CLI/figures entry point.
//! - [`RunResult`] — the metrics plus wall-time and
//!   simulated-instructions-per-second observability counters.
//! - [`Runner`] — a job pool of `jobs` worker threads fed through an mpsc
//!   work queue. Results always come back in submission order, and
//!   completed points are memoized, so a Baseline point shared by several
//!   figures simulates once per process. The memo is a
//!   [`crate::service::BoundedResultCache`]: byte-weighted, LRU-evicting,
//!   and capped ([`Runner::set_cache_bytes`]) so a long-lived process
//!   cannot grow without limit. Admission control
//!   ([`Runner::set_queue_limit`]) and the [`crate::service::SimService`]
//!   submission layer build on the same runner.
//!
//! Failures are contained per point: each worker runs its simulation
//! under `catch_unwind`, so a panicking or livelocking point becomes a
//! typed [`RunError`] in that point's slot of the batch while every other
//! point completes normally. Attaching a checkpoint file
//! ([`Runner::attach_checkpoint`]) persists each completed point as it
//! finishes, so an interrupted or partially-failed sweep resumes with
//! only the missing points re-simulated.
//!
//! The pool is plain `std::thread::scope` + `std::sync::mpsc` — the
//! workspace builds with no external dependencies (DESIGN.md §5), and a
//! work queue of whole simulations needs nothing fancier.
//!
//! # Example
//!
//! ```no_run
//! use slicc_sim::{RunRequest, Runner, SchedulerMode, SimConfig};
//! use slicc_trace::{TraceScale, Workload};
//!
//! let runner = Runner::with_default_parallelism();
//! let reqs: Vec<RunRequest> = [SchedulerMode::Baseline, SchedulerMode::Slicc]
//!     .iter()
//!     .map(|&m| {
//!         RunRequest::new(Workload::TpcC1, TraceScale::small(), SimConfig::paper_baseline())
//!             .with_mode(m)
//!     })
//!     .collect();
//! let results = runner.run_all(&reqs);
//! let base = results[0].as_ref().expect("baseline point completed");
//! let slicc = results[1].as_ref().expect("SLICC point completed");
//! let speedup = base.metrics.cycles as f64 / slicc.metrics.cycles as f64;
//! println!("SLICC speedup: {speedup:.2}x over {:.0} sim-insn/s", slicc.sim_ips);
//! ```

use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointLoad};
use crate::config::{DeadlineConfig, InjectedFault, SchedulerMode, SimConfig};
use crate::engine::RunControl;
use crate::error::{PointSummary, RunError, SimError};
use crate::metrics::RunMetrics;
use crate::service::{BoundedResultCache, PressureSnapshot, DEFAULT_CACHE_BYTES};
use crate::session::{RunOutcome, RunSession};
use slicc_common::{lock_unpoisoned, ArtifactIo, CancelToken, StableHash, StableHasher};
use slicc_obs::{ObsConfig, Observation, ProgressEvent, Reporter, WarningsOnlyReporter};
use slicc_trace::{TraceScale, Workload, WorkloadSpec};
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Workload specs the runner memoizes per worker thread: room for every
/// job's current trace plus a few recently used ones, so a figure sweep
/// (a handful of traces) never rebuilds while a service fed a stream of
/// fresh seeds holds a fixed number.
const SPEC_MEMO_PER_JOB: usize = 4;

/// A typed experiment point: which workload to run, at what scale, on what
/// machine. Equal requests describe byte-identical simulations, which is
/// what makes the request usable as the run-cache key.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRequest {
    /// The benchmark workload.
    pub workload: Workload,
    /// Trace scale (task count, segment size, trace seed).
    pub scale: TraceScale,
    /// Task-count override applied on top of `scale`, if any.
    pub tasks: Option<u32>,
    /// Trace-seed override applied on top of `scale`, if any.
    pub seed: Option<u64>,
    /// The machine and execution mode.
    pub config: SimConfig,
    /// What to observe while simulating (events, interval series).
    /// Deliberately excluded from [`RunRequest::stable_key`]: observation
    /// never changes simulated results, so an observed run and its
    /// unobserved twin share a cache slot (the cached copy may then carry
    /// `obs: None` — callers wanting artifacts should run fresh).
    pub obs: ObsConfig,
    /// Wall-clock budget for this point. Also excluded from
    /// [`RunRequest::stable_key`], for the same shape of reason: a
    /// deadline never changes the metrics of a run it does not abort, and
    /// an aborted run is an error, which is never cached or checkpointed
    /// — so a resumed sweep may change its deadline and still reuse every
    /// completed point.
    pub deadline: DeadlineConfig,
}

impl RunRequest {
    /// Describes `workload` at `scale` on the machine `config`.
    pub fn new(workload: Workload, scale: TraceScale, config: SimConfig) -> Self {
        RunRequest {
            workload,
            scale,
            tasks: None,
            seed: None,
            config,
            obs: ObsConfig::disabled(),
            deadline: DeadlineConfig::disabled(),
        }
    }

    /// Returns a copy observing per `obs` (see [`ObsConfig`]).
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Returns a copy bounded by `deadline` (see [`DeadlineConfig`]).
    pub fn with_deadline(mut self, deadline: DeadlineConfig) -> Self {
        self.deadline = deadline;
        self
    }

    /// Returns a copy running under `mode`.
    pub fn with_mode(mut self, mode: SchedulerMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Returns a copy with the task count overridden.
    pub fn with_tasks(mut self, tasks: u32) -> Self {
        self.tasks = Some(tasks);
        self
    }

    /// Returns a copy with the trace seed overridden.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// The execution mode (stored in the config).
    pub fn mode(&self) -> SchedulerMode {
        self.config.mode
    }

    /// The trace scale with the `tasks`/`seed` overrides applied.
    pub fn effective_scale(&self) -> TraceScale {
        let mut scale = self.scale;
        if let Some(tasks) = self.tasks {
            scale.tasks = tasks;
        }
        if let Some(seed) = self.seed {
            scale.seed = seed;
        }
        scale
    }

    /// Generates the workload specification this request describes.
    pub fn spec(&self) -> WorkloadSpec {
        self.workload.spec(self.effective_scale())
    }

    /// The spec-memo key: a stable hash of exactly the inputs that shape
    /// the materialized trace — workload and effective scale. Narrower
    /// than [`RunRequest::stable_key`] on purpose: requests differing
    /// only in machine config (e.g. the five scheduler modes of one
    /// figure column) share one [`WorkloadSpec`].
    pub fn spec_key(&self) -> u64 {
        let mut h = StableHasher::new();
        self.workload.stable_hash(&mut h);
        self.effective_scale().stable_hash(&mut h);
        h.finish()
    }

    /// The run-cache key: a stable hash of everything that can influence
    /// the outcome — including the watchdog fuel budget and any injected
    /// fault, so an aborted point never aliases its healthy twin in the
    /// cache or a checkpoint file. Identical on every host and in every
    /// process.
    pub fn stable_key(&self) -> u64 {
        let mut h = StableHasher::new();
        self.workload.stable_hash(&mut h);
        self.effective_scale().stable_hash(&mut h);
        self.config.stable_hash(&mut h);
        h.finish()
    }

    /// Runs this point now, on the calling thread, bypassing any cache.
    ///
    /// # Panics
    ///
    /// Panics on any [`SimError`]; [`RunRequest::try_execute`] reports
    /// those as typed errors instead.
    pub fn execute(&self) -> RunResult {
        self.try_execute().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs this point now, on the calling thread, bypassing any cache,
    /// reporting simulation failures as typed errors.
    pub fn try_execute(&self) -> Result<RunResult, SimError> {
        self.try_execute_with_spec(&self.spec())
    }

    /// [`RunRequest::try_execute`] against an already-materialized spec,
    /// so callers holding a memoized [`WorkloadSpec`] (the [`Runner`])
    /// skip trace generation. `spec` must equal [`RunRequest::spec`] for
    /// this request or the result describes a different experiment.
    /// Honours the request's own [`DeadlineConfig`]; external
    /// cancellation needs [`RunRequest::try_execute_controlled`].
    pub fn try_execute_with_spec(&self, spec: &WorkloadSpec) -> Result<RunResult, SimError> {
        match self.deadline.budget() {
            // Nothing can interrupt this point, so run the quiescent
            // session: its loop body polls no control state at all.
            None => {
                let started = Instant::now();
                let outcome = RunSession::new(spec, &self.config)?.observe(self.obs).run()?;
                Ok(RunResult::of(outcome, started))
            }
            Some(budget) => {
                let ctrl = RunControl {
                    cancel: CancelToken::new(),
                    deadline: Some(Instant::now() + budget),
                };
                self.try_execute_controlled(spec, &ctrl)
            }
        }
    }

    /// [`RunRequest::try_execute_with_spec`] under explicit external
    /// [`RunControl`] (the [`Runner`]'s cancellation token plus the
    /// resolved deadline). The control's deadline wins over the request's
    /// own: the caller has already resolved which applies.
    pub fn try_execute_controlled(
        &self,
        spec: &WorkloadSpec,
        ctrl: &RunControl,
    ) -> Result<RunResult, SimError> {
        let started = Instant::now();
        let outcome =
            RunSession::new(spec, &self.config)?.observe(self.obs).control(ctrl.clone()).run()?;
        Ok(RunResult::of(outcome, started))
    }
}

/// The outcome of one simulation point.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The simulation's metrics.
    pub metrics: RunMetrics,
    /// Wall-clock time the simulation took (zero-cost when served from the
    /// run cache; this is the original simulation's time).
    pub wall: Duration,
    /// Simulated instructions per wall-clock second — the runner's
    /// throughput observability counter.
    pub sim_ips: f64,
    /// Whether this result was served from the run cache (or deduplicated
    /// within a batch) rather than freshly simulated.
    pub from_cache: bool,
    /// Observation artifacts (event trace, interval series), when the
    /// request asked for any ([`RunRequest::obs`]). `None` for unobserved
    /// runs and for results decoded from a checkpoint file (the format
    /// persists metrics, not traces).
    pub obs: Option<Observation>,
    /// How many attempts this result took (1 = first try; >1 means the
    /// [`RetryPolicy`] re-ran a transient failure). Transient metadata
    /// like [`RunResult::from_cache`]: not persisted by the checkpoint
    /// codec — decoded results report 1.
    pub attempts: u32,
}

impl RunResult {
    /// Wraps a freshly-run session outcome with the runner-level
    /// bookkeeping: wall time since `started`, derived sim-ips, and the
    /// fresh-run defaults for cache/attempt metadata.
    fn of(outcome: RunOutcome, started: Instant) -> RunResult {
        let wall = started.elapsed();
        let sim_ips = if wall.as_secs_f64() > 0.0 {
            outcome.metrics.instructions as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        RunResult {
            metrics: outcome.metrics,
            wall,
            sim_ips,
            from_cache: false,
            obs: outcome.obs,
            attempts: 1,
        }
    }
}

/// How the [`Runner`] re-attempts failed points.
///
/// Failures split into *transient* (worth re-attempting with more
/// resources) and *permanent* (deterministic; retrying reproduces them):
///
/// | [`RunError`]         | class     | retry strategy                      |
/// |----------------------|-----------|-------------------------------------|
/// | `Livelock`           | transient | escalate watchdog fuel by
///                                      [`RetryPolicy::fuel_escalation`]^n,
///                                      capped at `max_fuel_factor`       |
/// | checkpoint I/O error | transient | deterministic bounded backoff
///                                      ([`RetryPolicy::io_backoff_ms`],
///                                      doubling per attempt)             |
/// | `Panicked`           | permanent | —                                   |
/// | `Stalled`            | permanent | —                                   |
/// | `Config`             | permanent | —                                   |
/// | `Lost`               | permanent | —                                   |
/// | `Cancelled`          | permanent | the caller asked it to stop         |
/// | `DeadlineExceeded`   | permanent | the budget is already spent         |
/// | `Overloaded`         | permanent | nothing ran; the *caller* should back
///                                      off per the error's retry-after hint
///                                      and resubmit                        |
///
/// A fuel-escalated retry runs a *modified* config, but its result is
/// cached and checkpointed under the original request's key — safe
/// because the watchdog never alters the metrics of a run it does not
/// abort; it only decides how long to wait before giving up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per point (1 = no retries; clamped to at least 1).
    pub max_attempts: u32,
    /// Watchdog fuel multiplier applied per livelock retry (attempt n
    /// runs with `fuel_escalation^(n-1)` times the budget).
    pub fuel_escalation: u64,
    /// Upper bound on the cumulative fuel multiplier.
    pub max_fuel_factor: u64,
    /// Base backoff before re-attempting a failed checkpoint write, in
    /// milliseconds; doubles per attempt. Deterministic: no jitter.
    pub io_backoff_ms: u64,
}

impl RetryPolicy {
    /// No retries (the runner default): every failure surfaces on the
    /// first attempt, preserving the exact semantics of un-retried runs.
    pub const fn none() -> Self {
        RetryPolicy { max_attempts: 1, fuel_escalation: 1, max_fuel_factor: 1, io_backoff_ms: 0 }
    }

    /// The recommended campaign policy: three attempts, 8× fuel per
    /// livelock retry (64× cap), 25 ms base I/O backoff.
    pub const fn standard() -> Self {
        RetryPolicy { max_attempts: 3, fuel_escalation: 8, max_fuel_factor: 64, io_backoff_ms: 25 }
    }

    /// Whether `error` is worth re-attempting under this policy (see the
    /// classification table on [`RetryPolicy`]).
    pub fn is_transient(&self, error: &RunError) -> bool {
        matches!(error, RunError::Livelock { .. })
    }

    /// The fuel multiplier for attempt `attempt` (1-based; attempt 1 is
    /// the un-escalated run).
    pub fn fuel_factor(&self, attempt: u32) -> u64 {
        self.fuel_escalation
            .max(1)
            .saturating_pow(attempt.saturating_sub(1))
            .clamp(1, self.max_fuel_factor.max(1))
    }

    /// The deterministic backoff before I/O retry `attempt` (1-based).
    pub fn io_backoff(&self, attempt: u32) -> Duration {
        let doubled = self.io_backoff_ms.saturating_mul(1u64 << attempt.saturating_sub(1).min(16));
        Duration::from_millis(doubled)
    }

    /// `req` with its watchdog fuel budget escalated for `attempt`.
    fn escalated(&self, req: &RunRequest, attempt: u32) -> RunRequest {
        let factor = self.fuel_factor(attempt);
        let mut req = req.clone();
        let w = &mut req.config.watchdog;
        if let Some(steps) = w.max_heap_steps {
            w.max_heap_steps = Some(steps.saturating_mul(factor));
        }
        if let Some(cycles) = w.max_cycles {
            w.max_cycles = Some(cycles.saturating_mul(factor));
        }
        req
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Aggregate observability counters for a [`Runner`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunnerStats {
    /// Requests served from a result that was already memoized when the
    /// request arrived (including points seeded from a checkpoint file).
    /// Duplicates that piggy-back on an in-flight simulation are counted
    /// separately as [`RunnerStats::coalesced_hits`].
    pub cache_hits: u64,
    /// Requests served by attaching to a simulation that was already in
    /// flight: intra-batch duplicates, and concurrent
    /// [`crate::service::SimService`] submissions coalesced onto one
    /// flight. Together with [`RunnerStats::cache_hits`] these are the
    /// requests that cost nothing; the split tells memoization apart
    /// from stampede suppression.
    pub coalesced_hits: u64,
    /// Requests that required a fresh simulation attempt (successful or
    /// not).
    pub cache_misses: u64,
    /// Entries evicted from the bounded run cache to stay inside its
    /// byte budget (inserts too heavy to ever fit count once each).
    pub cache_evictions: u64,
    /// Bytes currently resident in the bounded run cache.
    pub cache_bytes: u64,
    /// Submissions rejected by admission control with
    /// [`RunError::Overloaded`] (process total, never reset).
    pub shed_points: u64,
    /// Fresh simulation attempts that failed with a [`RunError`]. Failed
    /// points are never cached, so they are re-attempted by every batch
    /// that names them.
    pub failed_points: u64,
    /// Extra simulation attempts spent by the [`RetryPolicy`] on
    /// transient failures (a point that succeeds on attempt 3 adds 2).
    pub retried_attempts: u64,
    /// Distinct [`WorkloadSpec`]s materialized. With the spec memo, a
    /// five-mode figure column costs one build, not five.
    pub spec_builds: u64,
    /// Total instructions simulated by fresh runs.
    pub simulated_instructions: u64,
    /// Total CPU time spent inside fresh simulations (sums across worker
    /// threads, so it can exceed wall-clock time).
    pub busy_nanos: u64,
    /// OS threads ever spawned by the process-global worker pool
    /// ([`slicc_common::pool`]) that backs `parallel_map` pre-decode and
    /// the engine's intra-point shard lanes. Threads are parked and
    /// reused, so a steady workload converges to a constant here no
    /// matter how many points it runs.
    pub pool_spinups: u64,
}

impl RunnerStats {
    /// Mean simulated instructions per busy second across all fresh runs.
    pub fn sim_ips(&self) -> f64 {
        let secs = self.busy_nanos as f64 / 1e9;
        if secs > 0.0 {
            self.simulated_instructions as f64 / secs
        } else {
            0.0
        }
    }
}

/// A memoizing job pool for simulation points.
///
/// `jobs` worker threads pull [`RunRequest`]s off an mpsc work queue;
/// completed points land in a run cache keyed by [`RunRequest::stable_key`]
/// so repeated points (across figures, or duplicated within one batch)
/// simulate exactly once. Results are returned in submission order
/// regardless of completion order, so output is deterministic for any
/// `jobs` value.
///
/// Faults are isolated per point: a panic or watchdog abort in one
/// simulation yields a [`RunError`] for that point only. All shared state
/// is accessed with poison recovery, so a panicked worker never wedges
/// [`Runner::cached_points`] or [`Runner::stats`].
pub struct Runner {
    jobs: usize,
    /// The memoized run cache: byte-weighted, LRU-evicting, bounded by
    /// [`Runner::set_cache_bytes`].
    cache: Mutex<BoundedResultCache>,
    /// Materialized traces keyed by [`RunRequest::spec_key`], least
    /// recently used first: every mode variant of a (workload, scale)
    /// point shares one spec build. Bounded to [`SPEC_MEMO_PER_JOB`] ×
    /// `jobs` entries — specs sit outside the run cache's byte budget, so
    /// a long-lived service fed fresh seeds must not keep them all.
    specs: Mutex<Vec<(u64, Arc<WorkloadSpec>)>>,
    checkpoint: Mutex<Option<Checkpoint>>,
    /// Telemetry sink for progress events. Defaults to
    /// [`WarningsOnlyReporter`] so embedding code keeps a quiet stderr
    /// while degradation warnings still surface; the binaries swap in the
    /// user's `--progress` choice via [`Runner::set_reporter`].
    reporter: Mutex<Arc<dyn Reporter>>,
    /// Cooperative cancellation shared with every in-flight engine. The
    /// binaries hand it to [`slicc_common::install_sigint_cancel`] so the
    /// first Ctrl-C drains the pool gracefully.
    cancel: CancelToken,
    retry: Mutex<RetryPolicy>,
    /// Deadline applied to requests that do not carry their own
    /// [`RunRequest::deadline`]; the per-request value wins.
    default_deadline: Mutex<Option<Duration>>,
    /// Admission bound on concurrently executing fresh points; `None`
    /// (the default) admits everything. See [`Runner::set_queue_limit`].
    queue_limit: Mutex<Option<usize>>,
    /// Fresh points currently holding an admission slot.
    inflight: AtomicUsize,
    hits: AtomicU64,
    coalesced: AtomicU64,
    misses: AtomicU64,
    failures: AtomicU64,
    retries: AtomicU64,
    shed: AtomicU64,
    spec_builds: AtomicU64,
    simulated_instructions: AtomicU64,
    busy_nanos: AtomicU64,
    /// Aggregate of every completed profiled point's lane profile
    /// (requests that set [`slicc_obs::ObsConfig::metrics`]). Purely
    /// derived telemetry — see [`Runner::lane_profile`].
    lane_profile: Mutex<slicc_obs::LaneProfile>,
}

/// One batch's deduplicated fresh points, keyed by stable key, in
/// submission order.
type KeyedPoints<'a> = Vec<(u64, &'a RunRequest)>;

impl Runner {
    /// A runner with `jobs` worker threads (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Runner {
            jobs: jobs.max(1),
            cache: Mutex::new(BoundedResultCache::new(DEFAULT_CACHE_BYTES)),
            specs: Mutex::new(Vec::new()),
            checkpoint: Mutex::new(None),
            reporter: Mutex::new(Arc::new(WarningsOnlyReporter::stderr())),
            cancel: CancelToken::new(),
            retry: Mutex::new(RetryPolicy::none()),
            default_deadline: Mutex::new(None),
            queue_limit: Mutex::new(None),
            inflight: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            spec_builds: AtomicU64::new(0),
            simulated_instructions: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            lane_profile: Mutex::new(slicc_obs::LaneProfile::default()),
        }
    }

    /// A runner sized to the host ([`Runner::default_parallelism`]).
    pub fn with_default_parallelism() -> Self {
        Runner::new(Runner::default_parallelism())
    }

    /// The host's available parallelism; 1 if it cannot be determined.
    pub fn default_parallelism() -> usize {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }

    /// The worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Replaces the progress reporter (see [`slicc_obs::ProgressKind`]).
    pub fn set_reporter(&self, reporter: Arc<dyn Reporter>) {
        *lock_unpoisoned(&self.reporter) = reporter;
    }

    /// The current progress reporter.
    pub fn reporter(&self) -> Arc<dyn Reporter> {
        Arc::clone(&lock_unpoisoned(&self.reporter))
    }

    /// The runner's cancellation token. Cancelling it makes every
    /// in-flight simulation abort with [`RunError::Cancelled`] at its
    /// next engine step, and every not-yet-started point fail fast
    /// without simulating. Completed points keep their results (and
    /// their checkpoint records).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Replaces the retry policy (default: [`RetryPolicy::none`]).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *lock_unpoisoned(&self.retry) = policy;
    }

    /// The current retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        *lock_unpoisoned(&self.retry)
    }

    /// Sets the wall-clock deadline applied to every request that does
    /// not carry its own [`RunRequest::deadline`]. `None` disables it.
    /// The budget is per point, measured from the attempt's start.
    pub fn set_default_deadline(&self, budget: Option<Duration>) {
        *lock_unpoisoned(&self.default_deadline) = budget;
    }

    /// The default per-point deadline budget, if any.
    pub fn default_deadline(&self) -> Option<Duration> {
        *lock_unpoisoned(&self.default_deadline)
    }

    /// Rebudgets the run cache to `max_bytes` (the `--cache-bytes` flag),
    /// evicting least-recently-used entries if the resident set no longer
    /// fits. Governance only: changes what stays memoized, never what any
    /// simulation computes — the budget is not part of
    /// [`RunRequest::stable_key`].
    pub fn set_cache_bytes(&self, max_bytes: u64) {
        lock_unpoisoned(&self.cache).set_max_bytes(max_bytes);
    }

    /// The run cache's byte budget (default
    /// [`crate::service::DEFAULT_CACHE_BYTES`]).
    pub fn cache_budget(&self) -> u64 {
        lock_unpoisoned(&self.cache).max_bytes()
    }

    /// Bounds how many fresh points may execute concurrently through this
    /// runner (the `--queue-limit` flag). With a limit of `n`, a batch
    /// admits at most `n` fresh simulations at a time; the overflow is
    /// *shed* — failed fast with [`RunError::Overloaded`] and a
    /// retry-after hint — rather than queued without bound. Cache hits
    /// and coalesced duplicates are always served: only fresh work
    /// consumes slots. `None` (the default) admits everything.
    ///
    /// The batch [`Runner`] sheds because it has no one to queue for; the
    /// [`crate::service::SimService`] front door adds a bounded wait
    /// queue on top for interactive submitters.
    pub fn set_queue_limit(&self, limit: Option<usize>) {
        *lock_unpoisoned(&self.queue_limit) = limit;
    }

    /// The admission bound, if any.
    pub fn queue_limit(&self) -> Option<usize> {
        *lock_unpoisoned(&self.queue_limit)
    }

    /// How long a shed client should wait before resubmitting: the mean
    /// busy time of completed fresh points (clamped to 10 ms..10 s), or
    /// 50 ms before any point has completed. A hint, not a reservation —
    /// the service makes no admission promise to returning clients.
    pub fn retry_after_hint(&self) -> Duration {
        let busy = self.busy_nanos.load(Ordering::Relaxed);
        let completed =
            self.misses.load(Ordering::Relaxed).saturating_sub(self.failures.load(Ordering::Relaxed));
        if busy == 0 || completed == 0 {
            return Duration::from_millis(50);
        }
        Duration::from_nanos(busy / completed)
            .clamp(Duration::from_millis(10), Duration::from_secs(10))
    }

    /// The runner's current pressure: in-flight count, cache residency,
    /// and shed totals. `queue_depth` is always 0 at the bare runner (it
    /// sheds instead of queueing); [`crate::service::SimService::pressure`]
    /// fills in its real wait-queue depth.
    pub fn pressure(&self) -> PressureSnapshot {
        let (cache_bytes, cache_budget, cache_entries) = {
            let cache = lock_unpoisoned(&self.cache);
            (cache.bytes(), cache.max_bytes(), cache.len())
        };
        PressureSnapshot {
            queue_depth: 0,
            inflight: self.inflight.load(Ordering::Relaxed),
            cache_bytes,
            cache_budget,
            cache_entries,
            shed: self.shed.load(Ordering::Relaxed),
        }
    }

    /// The memoized result for `key`, if resident: promoted to
    /// most-recently-used, counted as a cache hit, and returned with
    /// [`RunResult::from_cache`] set. The [`crate::service::SimService`]
    /// fast path.
    pub fn cached_result(&self, key: u64) -> Option<RunResult> {
        let mut result = lock_unpoisoned(&self.cache).get(key)?.clone();
        self.hits.fetch_add(1, Ordering::Relaxed);
        result.from_cache = true;
        Some(result)
    }

    /// Counts a duplicate submission coalesced onto an in-flight
    /// simulation (the [`crate::service::SimService`] single-flight path).
    pub(crate) fn note_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a submission shed by a layer above the runner.
    pub(crate) fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Attaches a checkpoint file: previously completed points are seeded
    /// into the run cache (they will be served as cache hits), and every
    /// point completed from now on is appended to the file as it
    /// finishes. A corrupt tail in an existing file is discarded — see
    /// [`Checkpoint::open`]. Attach before the first `run_all` call:
    /// points that are already memoized are not retroactively written.
    pub fn attach_checkpoint(&self, path: impl AsRef<Path>) -> Result<CheckpointLoad, CheckpointError> {
        self.attach_checkpoint_with_io(path, Arc::new(slicc_common::StdIo))
    }

    /// [`Runner::attach_checkpoint`] with an explicit [`ArtifactIo`]
    /// backend — the fault-injection seam the chaos tests drive with
    /// [`slicc_common::FaultyIo`].
    pub fn attach_checkpoint_with_io(
        &self,
        path: impl AsRef<Path>,
        io: Arc<dyn ArtifactIo>,
    ) -> Result<CheckpointLoad, CheckpointError> {
        let (ckpt, entries, load) = Checkpoint::open_with_io(path.as_ref(), io)?;
        {
            let mut cache = lock_unpoisoned(&self.cache);
            for (key, result) in entries {
                cache.insert_if_absent(key, result);
            }
        }
        *lock_unpoisoned(&self.checkpoint) = Some(ckpt);
        Ok(load)
    }

    /// Runs one point, serving it from the run cache when possible.
    pub fn run(&self, req: &RunRequest) -> Result<RunResult, RunError> {
        self.run_all(std::slice::from_ref(req)).pop().expect("one request yields one result")
    }

    /// Runs a batch, fanning uncached points across the worker pool.
    ///
    /// Returns one result per request, in submission order. Duplicate
    /// points — within the batch or across earlier calls — simulate once;
    /// their repeats are marked [`RunResult::from_cache`].
    ///
    /// Failures are per point: a panicking, livelocking, or misconfigured
    /// point yields a [`RunError`] in its slot while the rest of the
    /// batch completes. Failed points are not cached (and not
    /// checkpointed), so a later batch — e.g. a resumed sweep — attempts
    /// them again.
    pub fn run_all(&self, reqs: &[RunRequest]) -> Vec<Result<RunResult, RunError>> {
        let keys: Vec<u64> = reqs.iter().map(RunRequest::stable_key).collect();

        // One pass under the cache lock: pin every resident result (a
        // clone, so this batch's own inserts can never evict a result we
        // still owe the caller), and collect the distinct missing points
        // in first-occurrence order (stable across runs, so scheduling is
        // reproducible).
        let mut pinned: HashMap<u64, RunResult> = HashMap::new();
        let mut fresh: Vec<(u64, &RunRequest)> = Vec::new();
        {
            let mut cache = lock_unpoisoned(&self.cache);
            for (&key, req) in keys.iter().zip(reqs) {
                if pinned.contains_key(&key) || fresh.iter().any(|&(k, _)| k == key) {
                    continue;
                }
                match cache.get(key) {
                    Some(result) => {
                        pinned.insert(key, result.clone());
                    }
                    None => fresh.push((key, req)),
                }
            }
        }

        // Admission control: each fresh point needs an execution slot;
        // with a queue limit set, the overflow is shed with a typed
        // rejection instead of piling up. Cache hits cost nothing and are
        // never shed.
        let (admitted, shed) = self.admit(fresh);

        let reporter = self.reporter();
        reporter.report(ProgressEvent::BatchStarted { points: reqs.len(), fresh: admitted.len() });
        let computed = self.simulate_batch(&admitted);
        self.inflight.fetch_sub(admitted.len(), Ordering::Relaxed);

        let mut failed: HashMap<u64, RunError> = HashMap::new();
        let limit = self.queue_limit().unwrap_or(usize::MAX);
        for (key, req) in &shed {
            self.shed.fetch_add(1, Ordering::Relaxed);
            failed.insert(
                *key,
                RunError::Overloaded {
                    point: PointSummary::of(req),
                    retry_after: self.retry_after_hint(),
                    inflight: limit,
                    limit,
                },
            );
        }

        // Bank successes into the cache *and* a batch-local map: the
        // cache may evict them immediately under a tiny byte budget, but
        // this batch's callers still get their results.
        let mut banked: HashMap<u64, RunResult> = HashMap::new();
        {
            let mut cache = lock_unpoisoned(&self.cache);
            for ((key, _), outcome) in admitted.iter().zip(computed) {
                self.misses.fetch_add(1, Ordering::Relaxed);
                match outcome {
                    Ok(result) => {
                        self.simulated_instructions.fetch_add(result.metrics.instructions, Ordering::Relaxed);
                        self.busy_nanos.fetch_add(result.wall.as_nanos() as u64, Ordering::Relaxed);
                        cache.insert(*key, result.clone());
                        banked.insert(*key, result);
                    }
                    Err(error) => {
                        self.failures.fetch_add(1, Ordering::Relaxed);
                        failed.insert(*key, error);
                    }
                }
            }
        }

        // Assemble results in submission order. The first occurrence of a
        // freshly simulated point reports from_cache = false; repeats of
        // it are coalesced hits, and occurrences of pinned (pre-resident)
        // results are cache hits — the split tells memoization apart from
        // intra-batch stampede suppression. Failed and shed points are
        // reported (cloned for duplicates) and counted neither as hits
        // nor as extra misses.
        let mut first_use: Vec<u64> = Vec::new();
        let mut cached_served = 0usize;
        let results: Vec<Result<RunResult, RunError>> = keys
            .iter()
            .zip(reqs)
            .map(|(key, req)| {
                if let Some(error) = failed.get(key) {
                    return Err(error.clone());
                }
                let fresh_now = banked.contains_key(key) && !first_use.contains(key);
                let mut result = banked
                    .get(key)
                    .or_else(|| pinned.get(key))
                    .expect("every key was simulated, pinned, or failed")
                    .clone();
                if fresh_now {
                    first_use.push(*key);
                } else {
                    if pinned.contains_key(key) {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                    }
                    cached_served += 1;
                    reporter.report(ProgressEvent::PointCached { label: point_label(req) });
                }
                result.from_cache = !fresh_now;
                Ok(result)
            })
            .collect();
        reporter.report(ProgressEvent::BatchFinished {
            fresh: admitted.len(),
            cached: cached_served,
            failed: failed.len(),
        });
        reporter.report(self.pressure().event());
        results
    }

    /// Splits `fresh` into the points that won an execution slot and the
    /// overflow to shed. Slots are reserved with a bounded CAS loop so
    /// concurrent batches through one runner share the same admission
    /// budget; without a queue limit every point is admitted (and still
    /// counted in-flight for [`Runner::pressure`]).
    fn admit<'a>(&self, fresh: KeyedPoints<'a>) -> (KeyedPoints<'a>, KeyedPoints<'a>) {
        let limit = self.queue_limit();
        let mut admitted = Vec::with_capacity(fresh.len());
        let mut shed = Vec::new();
        for (key, req) in fresh {
            let slot = match limit {
                None => {
                    self.inflight.fetch_add(1, Ordering::Relaxed);
                    true
                }
                Some(limit) => self.try_reserve_slot(limit),
            };
            if slot {
                admitted.push((key, req));
            } else {
                shed.push((key, req));
            }
        }
        (admitted, shed)
    }

    /// Reserves one in-flight slot below `limit`, lock-free.
    fn try_reserve_slot(&self, limit: usize) -> bool {
        let mut current = self.inflight.load(Ordering::Relaxed);
        loop {
            if current >= limit {
                return false;
            }
            match self.inflight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
    }

    /// Convenience over [`Runner::run_all`] when only the metrics matter
    /// and failure should be fatal (the figure pipeline: a figure with a
    /// missing point is not a figure).
    ///
    /// # Panics
    ///
    /// Panics with the [`RunError`] report of the first failed point.
    pub fn run_metrics(&self, reqs: &[RunRequest]) -> Vec<RunMetrics> {
        self.run_all(reqs)
            .into_iter()
            .map(|r| match r {
                Ok(result) => result.metrics,
                Err(e) => panic!("simulation point failed: {e}"),
            })
            .collect()
    }

    /// Aggregate cache and throughput counters.
    pub fn stats(&self) -> RunnerStats {
        let (cache_evictions, cache_bytes) = {
            let cache = lock_unpoisoned(&self.cache);
            (cache.evictions(), cache.bytes())
        };
        RunnerStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            coalesced_hits: self.coalesced.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            cache_evictions,
            cache_bytes,
            shed_points: self.shed.load(Ordering::Relaxed),
            failed_points: self.failures.load(Ordering::Relaxed),
            retried_attempts: self.retries.load(Ordering::Relaxed),
            spec_builds: self.spec_builds.load(Ordering::Relaxed),
            simulated_instructions: self.simulated_instructions.load(Ordering::Relaxed),
            busy_nanos: self.busy_nanos.load(Ordering::Relaxed),
            pool_spinups: slicc_common::pool::spinups(),
        }
    }

    /// The aggregate split-step lane profile across every profiled point
    /// this runner completed fresh (requests that enabled
    /// [`slicc_obs::ObsConfig::metrics`]); `None` until one lands.
    /// Cache/checkpoint hits contribute nothing — they did no engine
    /// work here.
    pub fn lane_profile(&self) -> Option<slicc_obs::LaneProfile> {
        let profile = lock_unpoisoned(&self.lane_profile);
        (profile.steps > 0).then(|| profile.clone())
    }

    /// Points currently memoized (including any seeded from a
    /// checkpoint).
    pub fn cached_points(&self) -> usize {
        lock_unpoisoned(&self.cache).len()
    }

    /// The memoized spec for `req`, materializing it on first use and
    /// evicting the least recently used spec beyond the memo's bound
    /// (points still running on it keep their own `Arc`). The lock is
    /// held across the build so concurrent workers asking for the same
    /// (workload, scale) wait for one build instead of racing their own;
    /// a build is milliseconds against simulations of seconds.
    fn spec_for(&self, req: &RunRequest) -> Arc<WorkloadSpec> {
        let key = req.spec_key();
        let mut specs = lock_unpoisoned(&self.specs);
        let spec = match specs.iter().position(|(k, _)| *k == key) {
            Some(i) => specs.remove(i).1,
            None => {
                self.spec_builds.fetch_add(1, Ordering::Relaxed);
                Arc::new(req.spec())
            }
        };
        specs.push((key, Arc::clone(&spec)));
        if specs.len() > SPEC_MEMO_PER_JOB * self.jobs {
            specs.remove(0);
        }
        spec
    }

    /// Specs currently memoized (at most [`SPEC_MEMO_PER_JOB`] × `jobs`).
    #[cfg(test)]
    fn resident_specs(&self) -> usize {
        lock_unpoisoned(&self.specs).len()
    }

    /// Executes one point with panic containment: a panic anywhere in the
    /// simulation (or an engine-level [`SimError`]) becomes a [`RunError`]
    /// carrying the point's identity, instead of unwinding into the pool.
    ///
    /// Transient failures are re-attempted per the [`RetryPolicy`]; the
    /// returned result's [`RunResult::attempts`] records how many tries
    /// it took. A cancelled runner fails the point fast, before any
    /// simulation work.
    /// Runs `req` now, on the calling thread, bypassing the run cache and
    /// admission control entirely: nothing is looked up, banked, shed, or
    /// counted toward hit/miss stats. The spec memo, retry policy, default
    /// deadline, and cancellation token still apply, so the result is
    /// digest-identical to what a cached [`Runner::run`] of the same
    /// request would compute — which is exactly what the governance
    /// invariance tests use it for (a reference run untouched by cache
    /// policy).
    pub fn execute_uncached(&self, req: &RunRequest) -> Result<RunResult, RunError> {
        self.execute_point(req)
    }

    fn execute_point(&self, req: &RunRequest) -> Result<RunResult, RunError> {
        if self.cancel.is_cancelled() {
            // heap_steps = 0 reads as "cancelled before it started".
            return Err(RunError::Cancelled { point: PointSummary::of(req), snapshot: Box::default() });
        }
        let spec = self.spec_for(req);
        let policy = self.retry_policy();
        let mut attempt = 1u32;
        loop {
            match self.execute_attempt(req, &spec, attempt, &policy) {
                Ok(mut result) => {
                    result.attempts = attempt;
                    if let Some(profile) = result.obs.as_ref().and_then(|o| o.lane_profile.as_ref())
                    {
                        lock_unpoisoned(&self.lane_profile).merge(profile);
                    }
                    return Ok(result);
                }
                Err(error) => {
                    let retry = attempt < policy.max_attempts.max(1)
                        && policy.is_transient(&error)
                        && !self.cancel.is_cancelled();
                    if !retry {
                        return Err(error);
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    attempt += 1;
                    self.reporter().report(ProgressEvent::PointRetried {
                        label: point_label(req),
                        attempt,
                        error: error.to_string(),
                    });
                }
            }
        }
    }

    /// One containment-wrapped simulation attempt. Attempts after the
    /// first run a fuel-escalated copy of the request
    /// ([`RetryPolicy::fuel_factor`]); the point's identity — and with it
    /// the cache and checkpoint key — stays the original's, which is
    /// sound because the watchdog budget never changes the metrics of a
    /// run it does not abort.
    fn execute_attempt(
        &self,
        req: &RunRequest,
        spec: &WorkloadSpec,
        attempt: u32,
        policy: &RetryPolicy,
    ) -> Result<RunResult, RunError> {
        let point = PointSummary::of(req);
        let escalated;
        let run_req = if attempt > 1 {
            escalated = policy.escalated(req, attempt);
            &escalated
        } else {
            req
        };
        let budget = run_req.deadline.budget().or_else(|| self.default_deadline());
        let ctrl = RunControl {
            cancel: self.cancel.clone(),
            deadline: budget.map(|b| Instant::now() + b),
        };
        // Runner-layer fault injection: AllocPressure holds a touched
        // ballast allocation across the attempt (the engine never sees
        // it), stressing the host the way an obs-heavy neighbour would.
        let _ballast = match run_req.config.fault_injection {
            Some(InjectedFault::AllocPressure { mib }) => {
                let mut ballast = vec![0u8; (mib as usize) << 20];
                for page in ballast.chunks_mut(4096) {
                    page[0] = 1;
                }
                Some(ballast)
            }
            _ => None,
        };
        let outcome = match panic::catch_unwind(AssertUnwindSafe(|| {
            run_req.try_execute_controlled(spec, &ctrl)
        })) {
            Ok(Ok(result)) => Ok(result),
            Ok(Err(sim_error)) => Err(RunError::from_sim(point, sim_error)),
            // `as_ref` matters: `&payload` would coerce the Box itself into
            // the `dyn Any`, and the downcasts below would never match.
            Err(payload) => {
                Err(RunError::Panicked { point, payload: panic_message(payload.as_ref()) })
            }
        };
        // SlowConsumer holds the finished result (and with it the worker
        // slot) before releasing it — the deterministic way the chaos
        // drills keep an admission slot occupied. The metrics are already
        // computed, so they stay byte-identical to the healthy run.
        if let Some(InjectedFault::SlowConsumer { delay_ms }) = run_req.config.fault_injection {
            if outcome.is_ok() {
                std::thread::sleep(Duration::from_millis(delay_ms));
            }
        }
        outcome
    }

    /// Appends a completed point to the attached checkpoint, if any.
    /// Write failures are transient per the [`RetryPolicy`]: each failed
    /// append is retried after a deterministic bounded backoff (the log
    /// rewinds on failure, so a retry extends a clean file). Only after
    /// the final attempt fails is checkpointing disabled for the rest of
    /// the process (with one warning) rather than failing the batch: the
    /// results in memory are still good.
    fn checkpoint_store(&self, key: u64, result: &RunResult) {
        let policy = self.retry_policy();
        let mut guard = lock_unpoisoned(&self.checkpoint);
        let Some(ckpt) = guard.as_mut() else { return };
        for attempt in 1..=policy.max_attempts.max(1) {
            let Err(e) = ckpt.append(key, result) else { return };
            if attempt < policy.max_attempts.max(1) {
                let backoff = policy.io_backoff(attempt);
                self.reporter().report(ProgressEvent::Warning {
                    message: format!(
                        "checkpoint write to {} failed ({e}); retrying in {} ms \
                         (attempt {attempt} of {})",
                        ckpt.path().display(),
                        backoff.as_millis(),
                        policy.max_attempts,
                    ),
                });
                std::thread::sleep(backoff);
            } else {
                self.reporter().report(ProgressEvent::Warning {
                    message: format!(
                        "checkpoint write to {} failed ({e}); checkpointing disabled",
                        ckpt.path().display()
                    ),
                });
                *guard = None;
                return;
            }
        }
    }

    /// Simulates the given distinct points, returning outcomes in the
    /// same order. Runs inline for one worker, otherwise fans out over an
    /// mpsc work queue shared by `min(jobs, points)` threads. Each
    /// completed point is checkpointed as it finishes, not at batch end,
    /// so an interrupted sweep keeps its completed prefix.
    fn simulate_batch(&self, fresh: &[(u64, &RunRequest)]) -> Vec<Result<RunResult, RunError>> {
        let workers = self.jobs.min(fresh.len());
        let reporter = self.reporter();
        let total = fresh.len();
        if workers <= 1 {
            return fresh
                .iter()
                .enumerate()
                .map(|(i, &(key, req))| {
                    report_point_start(&*reporter, i + 1, total, req);
                    let outcome = self.execute_point(req);
                    report_point_end(&*reporter, i + 1, total, req, &outcome);
                    if let Ok(result) = &outcome {
                        self.checkpoint_store(key, result);
                    }
                    outcome
                })
                .collect();
        }

        let (job_tx, job_rx) = mpsc::channel::<(usize, &RunRequest)>();
        let job_rx = Mutex::new(job_rx);
        let (result_tx, result_rx) = mpsc::channel::<(usize, Result<RunResult, RunError>)>();
        for (idx, &(_, req)) in fresh.iter().enumerate() {
            job_tx.send((idx, req)).expect("receiver outlives submission");
        }
        drop(job_tx);

        let mut results: Vec<Option<Result<RunResult, RunError>>> = vec![None; fresh.len()];
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let job_rx = &job_rx;
                let result_tx = result_tx.clone();
                let reporter = &reporter;
                scope.spawn(move || loop {
                    // Hold the queue lock only for the dequeue, not the
                    // simulation. Poison recovery: another worker dying
                    // while holding the lock must not cascade.
                    let job = lock_unpoisoned(job_rx).recv();
                    match job {
                        Ok((idx, req)) => {
                            report_point_start(&**reporter, idx + 1, total, req);
                            let outcome = self.execute_point(req);
                            report_point_end(&**reporter, idx + 1, total, req, &outcome);
                            if result_tx.send((idx, outcome)).is_err() {
                                return;
                            }
                        }
                        Err(_) => return,
                    }
                });
            }
            drop(result_tx);
            // Reassemble in submission order as workers finish,
            // checkpointing each success immediately.
            for (idx, outcome) in result_rx {
                if let Ok(result) = &outcome {
                    self.checkpoint_store(fresh[idx].0, result);
                }
                results[idx] = Some(outcome);
            }
        });
        results
            .into_iter()
            .enumerate()
            .map(|(idx, outcome)| {
                // A missing slot means a worker died without even a panic
                // report — contained, but diagnosable.
                outcome.unwrap_or_else(|| Err(RunError::Lost { point: PointSummary::of(fresh[idx].1) }))
            })
            .collect()
    }
}

/// Human label for progress lines: enough to recognize the point without
/// the full reproduction key.
fn point_label(req: &RunRequest) -> String {
    let scale = req.effective_scale();
    format!(
        "{} [{}] tasks={} seed={}",
        req.workload.name(),
        req.mode().name(),
        scale.tasks,
        scale.seed
    )
}

fn report_point_start(reporter: &dyn Reporter, index: usize, total: usize, req: &RunRequest) {
    reporter.report(ProgressEvent::PointStarted { index, total, label: point_label(req) });
}

fn report_point_end(
    reporter: &dyn Reporter,
    index: usize,
    total: usize,
    req: &RunRequest,
    outcome: &Result<RunResult, RunError>,
) {
    let label = point_label(req);
    let event = match outcome {
        Ok(result) => ProgressEvent::PointFinished {
            index,
            total,
            label,
            wall_ns: result.wall.as_nanos() as u64,
            sim_ips: result.sim_ips,
        },
        Err(error) if error.is_cancellation() => {
            ProgressEvent::PointCancelled { index, total, label }
        }
        Err(error) => {
            ProgressEvent::PointFailed { index, total, label, error: error.to_string() }
        }
    };
    reporter.report(event);
}

/// Renders a caught panic payload for [`RunError::Panicked`]. Panics
/// almost always carry `&str` or `String`; anything else is reported by
/// type only.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

impl Default for Runner {
    fn default() -> Self {
        Runner::with_default_parallelism()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InjectedFault, SimConfigBuilder};

    fn tiny_request() -> RunRequest {
        RunRequest::new(Workload::TpcC1, TraceScale::tiny(), SimConfig::tiny_test())
    }

    fn expect_ok(r: Result<RunResult, RunError>) -> RunResult {
        r.expect("point must complete")
    }

    #[test]
    fn stable_key_is_reproducible_and_field_sensitive() {
        let base = tiny_request();
        assert_eq!(base.stable_key(), tiny_request().stable_key());
        assert_ne!(base.stable_key(), base.clone().with_mode(SchedulerMode::Slicc).stable_key());
        assert_ne!(base.stable_key(), base.clone().with_seed(99).stable_key());
        assert_ne!(base.stable_key(), base.clone().with_tasks(3).stable_key());
        let other_workload = RunRequest::new(Workload::TpcE, TraceScale::tiny(), SimConfig::tiny_test());
        assert_ne!(base.stable_key(), other_workload.stable_key());
        let mut other_cfg = tiny_request();
        other_cfg.config.seed ^= 1;
        assert_ne!(base.stable_key(), other_cfg.stable_key());
    }

    #[test]
    fn overrides_change_the_spec_not_just_the_key() {
        let req = tiny_request().with_tasks(2).with_seed(7);
        let scale = req.effective_scale();
        assert_eq!(scale.tasks, 2);
        assert_eq!(scale.seed, 7);
        assert_eq!(req.spec().num_tasks, 2);
    }

    #[test]
    fn cache_hits_identical_request() {
        let runner = Runner::new(1);
        let req = tiny_request();
        let first = expect_ok(runner.run(&req));
        let second = expect_ok(runner.run(&req));
        assert!(!first.from_cache);
        assert!(second.from_cache);
        assert_eq!(format!("{:?}", first.metrics), format!("{:?}", second.metrics));
        let stats = runner.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1, "a cross-call repeat is a true memoized hit");
        assert_eq!(stats.coalesced_hits, 0);
        assert_eq!(stats.failed_points, 0);
        assert_eq!(runner.cached_points(), 1);
        assert!(stats.cache_bytes > 0, "the resident result must be charged");
        assert!(stats.cache_bytes <= runner.cache_budget());
    }

    #[test]
    fn cache_misses_when_any_field_differs() {
        let runner = Runner::new(1);
        let base = tiny_request();
        expect_ok(runner.run(&base));
        expect_ok(runner.run(&base.clone().with_mode(SchedulerMode::Slicc)));
        expect_ok(runner.run(&base.clone().with_seed(123)));
        let mut policy_seed = base.clone();
        policy_seed.config.seed ^= 1;
        expect_ok(runner.run(&policy_seed));
        let stats = runner.stats();
        assert_eq!(stats.cache_misses, 4, "each distinct request must simulate");
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn batch_deduplicates_repeated_points() {
        let runner = Runner::new(2);
        let base = tiny_request();
        let slicc = base.clone().with_mode(SchedulerMode::Slicc);
        let results: Vec<RunResult> = runner
            .run_all(&[base.clone(), slicc.clone(), base.clone(), slicc])
            .into_iter()
            .map(expect_ok)
            .collect();
        assert_eq!(results.len(), 4);
        let stats = runner.stats();
        assert_eq!(stats.cache_misses, 2, "two distinct points in the batch");
        assert_eq!(stats.coalesced_hits, 2, "intra-batch duplicates coalesce onto the fresh run");
        assert_eq!(stats.cache_hits, 0, "nothing was memoized before this batch");
        assert!(!results[0].from_cache);
        assert!(!results[1].from_cache);
        assert!(results[2].from_cache);
        assert!(results[3].from_cache);
        assert_eq!(format!("{:?}", results[0].metrics), format!("{:?}", results[2].metrics));
        assert_eq!(format!("{:?}", results[1].metrics), format!("{:?}", results[3].metrics));
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let runner = Runner::new(4);
        let reqs: Vec<RunRequest> = [
            SchedulerMode::Baseline,
            SchedulerMode::Slicc,
            SchedulerMode::SliccSw,
            SchedulerMode::Steps,
        ]
        .iter()
        .map(|&m| tiny_request().with_mode(m))
        .collect();
        let results = runner.run_all(&reqs);
        for (req, result) in reqs.iter().zip(&results) {
            let result = result.as_ref().expect("point must complete");
            assert_eq!(result.metrics.mode, req.mode().name(), "result out of submission order");
        }
    }

    #[test]
    fn observability_counters_accumulate() {
        let runner = Runner::new(1);
        let result = expect_ok(runner.run(&tiny_request()));
        let stats = runner.stats();
        assert_eq!(stats.simulated_instructions, result.metrics.instructions);
        assert!(stats.busy_nanos > 0);
        assert!(stats.sim_ips() > 0.0);
    }

    #[test]
    fn spec_memo_shares_one_build_across_modes() {
        let runner = Runner::new(2);
        let reqs: Vec<RunRequest> =
            SchedulerMode::WITH_STEPS.iter().map(|&m| tiny_request().with_mode(m)).collect();
        for r in runner.run_all(&reqs) {
            expect_ok(r);
        }
        let stats = runner.stats();
        assert_eq!(stats.cache_misses, reqs.len() as u64, "every mode simulates");
        assert_eq!(stats.spec_builds, 1, "all modes share one materialized trace");
    }

    #[test]
    fn spec_memo_stays_bounded_under_fresh_seeds_from_a_service() {
        use crate::service::{ServiceConfig, SimService};
        let runner = Arc::new(Runner::new(2));
        let service = SimService::new(
            Arc::clone(&runner),
            ServiceConfig { max_inflight: 2, queue_limit: 8 },
        );
        let bound = SPEC_MEMO_PER_JOB * runner.jobs();
        let seeds = 3 * bound as u64;
        for seed in 0..seeds {
            service.submit(&tiny_request().with_seed(seed)).expect("fresh seed completes");
            assert!(
                runner.resident_specs() <= bound,
                "{} specs resident after seed {seed}, bound {bound}",
                runner.resident_specs()
            );
        }
        assert_eq!(runner.stats().spec_builds, seeds, "every fresh seed is a new trace");
        // The most recent trace is still memoized; the oldest was evicted.
        let recent = tiny_request().with_seed(seeds - 1).with_mode(SchedulerMode::Slicc);
        service.submit(&recent).expect("recent seed, new mode");
        assert_eq!(runner.stats().spec_builds, seeds, "a resident spec is reused");
        service.submit(&tiny_request().with_seed(0).with_mode(SchedulerMode::Slicc)).expect("oldest seed");
        assert_eq!(runner.stats().spec_builds, seeds + 1, "an evicted spec is rebuilt");
    }

    #[test]
    fn spec_memo_does_not_alias_distinct_traces() {
        let runner = Runner::new(1);
        let base = tiny_request();
        expect_ok(runner.run(&base));
        expect_ok(runner.run(&base.clone().with_seed(99)));
        expect_ok(runner.run(&base.clone().with_tasks(2)));
        // Same trace on a different machine: no new build.
        let mut other_cfg = tiny_request();
        other_cfg.config.seed ^= 1;
        expect_ok(runner.run(&other_cfg));
        assert_eq!(
            runner.stats().spec_builds,
            3,
            "seed/task overrides are distinct traces, a config change is not"
        );
    }

    #[test]
    fn spec_key_ignores_config_but_not_trace_inputs() {
        let base = tiny_request();
        let slicc = base.clone().with_mode(SchedulerMode::Slicc);
        assert_eq!(base.spec_key(), slicc.spec_key(), "mode must not split the spec memo");
        assert_ne!(base.stable_key(), slicc.stable_key(), "...but it does split the run cache");
        assert_ne!(base.spec_key(), base.clone().with_seed(9).spec_key());
        assert_ne!(base.spec_key(), base.clone().with_tasks(3).spec_key());
        let other_workload = RunRequest::new(Workload::TpcE, TraceScale::tiny(), SimConfig::tiny_test());
        assert_ne!(base.spec_key(), other_workload.spec_key());
    }

    #[test]
    fn memoized_spec_reproduces_direct_execution() {
        let runner = Runner::new(1);
        let req = tiny_request().with_mode(SchedulerMode::Slicc);
        let pooled = expect_ok(runner.run(&req));
        let direct = req.try_execute().expect("direct run completes");
        assert_eq!(format!("{:?}", pooled.metrics), format!("{:?}", direct.metrics));
    }

    fn panicking_request() -> RunRequest {
        let config = SimConfigBuilder::tiny_test()
            .inject_fault(InjectedFault::Panic)
            .build()
            .expect("fault injection is a valid config");
        RunRequest::new(Workload::TpcC1, TraceScale::tiny(), config)
    }

    #[test]
    fn a_panicking_point_is_contained_and_identified() {
        let runner = Runner::new(2);
        let bad = panicking_request();
        let err = runner.run(&bad).expect_err("injected panic must surface");
        match &err {
            RunError::Panicked { point, payload } => {
                assert_eq!(point.key, bad.stable_key());
                assert!(payload.contains("injected fault"), "got payload: {payload}");
            }
            other => panic!("expected Panicked, got {other}"),
        }
        assert_eq!(runner.stats().failed_points, 1);
        // The runner is still fully usable after the panic.
        assert_eq!(runner.cached_points(), 0);
        expect_ok(runner.run(&tiny_request()));
    }

    #[test]
    fn failed_points_are_not_cached_and_retry() {
        let runner = Runner::new(1);
        let bad = panicking_request();
        assert!(runner.run(&bad).is_err());
        assert!(runner.run(&bad).is_err(), "failures are re-attempted, not cached");
        let stats = runner.stats();
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.failed_points, 2);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn duplicate_failed_points_in_one_batch_share_the_error() {
        let runner = Runner::new(2);
        let bad = panicking_request();
        let results = runner.run_all(&[bad.clone(), tiny_request(), bad.clone()]);
        assert!(results[0].is_err());
        assert!(results[1].is_ok());
        assert!(results[2].is_err());
        assert_eq!(runner.stats().cache_misses, 2, "the duplicate failure simulates once");
        assert_eq!(runner.stats().failed_points, 1);
    }

    /// A request whose 1-step fuel budget livelocks on the first attempt
    /// but completes once the retry policy escalates it.
    fn starved_request() -> RunRequest {
        let config = SimConfigBuilder::tiny_test()
            .watchdog_steps(1)
            .build()
            .expect("tiny config with a 1-step fuel budget is valid");
        RunRequest::new(Workload::TpcC1, TraceScale::tiny(), config)
    }

    #[test]
    fn retry_policy_classifies_and_escalates() {
        let p = RetryPolicy::standard();
        let livelock = RunError::Livelock {
            point: PointSummary::of(&tiny_request()),
            snapshot: Box::default(),
        };
        let cancelled = RunError::Cancelled {
            point: PointSummary::of(&tiny_request()),
            snapshot: Box::default(),
        };
        assert!(p.is_transient(&livelock));
        assert!(!p.is_transient(&cancelled), "a cancelled point must stay cancelled");
        assert_eq!(p.fuel_factor(1), 1, "the first attempt runs unescalated");
        assert_eq!(p.fuel_factor(2), 8);
        assert_eq!(p.fuel_factor(3), 64);
        assert_eq!(p.fuel_factor(4), 64, "escalation clamps at max_fuel_factor");
        assert_eq!(p.io_backoff(1), Duration::from_millis(25));
        assert_eq!(p.io_backoff(2), Duration::from_millis(50));
        assert_eq!(RetryPolicy::none().fuel_factor(9), 1);
        assert_eq!(RetryPolicy::default(), RetryPolicy::none());
    }

    #[test]
    fn without_retries_a_starved_point_fails_on_the_first_attempt() {
        let runner = Runner::new(1);
        let err = runner.run(&starved_request()).expect_err("1 step of fuel must livelock");
        assert!(matches!(err, RunError::Livelock { .. }), "got {err}");
        assert_eq!(runner.stats().retried_attempts, 0);
    }

    #[test]
    fn livelock_retries_escalate_fuel_and_cache_under_the_original_key() {
        let runner = Runner::new(1);
        runner.set_retry_policy(RetryPolicy {
            max_attempts: 8,
            fuel_escalation: 1024,
            max_fuel_factor: u64::MAX,
            io_backoff_ms: 0,
        });
        let req = starved_request();
        let result = expect_ok(runner.run(&req));
        assert!(result.attempts > 1, "the 1-step budget cannot succeed first try");
        assert_eq!(runner.stats().retried_attempts, u64::from(result.attempts) - 1);
        assert_eq!(runner.stats().failed_points, 0, "a retried success is not a failure");
        // The escalated run answers for the *original* request: cached
        // under its key, with the metrics an unstarved run produces.
        let again = expect_ok(runner.run(&req));
        assert!(again.from_cache);
        let unstarved = expect_ok(Runner::new(1).run(&tiny_request()));
        assert_eq!(result.metrics.digest(), unstarved.metrics.digest());
    }

    #[test]
    fn permanent_failures_are_not_retried() {
        let runner = Runner::new(1);
        runner.set_retry_policy(RetryPolicy::standard());
        assert!(runner.run(&panicking_request()).is_err());
        assert_eq!(runner.stats().retried_attempts, 0, "a panic is deterministic");
    }

    #[test]
    fn a_cancelled_runner_fails_points_fast_and_keeps_finished_work() {
        let runner = Runner::new(1);
        let done = expect_ok(runner.run(&tiny_request()));
        runner.cancel_token().cancel();
        let err = runner
            .run(&tiny_request().with_seed(99))
            .expect_err("a cancelled runner must not start new work");
        match &err {
            RunError::Cancelled { snapshot, .. } => {
                assert_eq!(snapshot.heap_steps, 0, "the point never started simulating");
            }
            other => panic!("expected Cancelled, got {other}"),
        }
        assert!(err.is_cancellation());
        // Completed work survives cancellation.
        let again = expect_ok(runner.run(&tiny_request()));
        assert!(again.from_cache);
        assert_eq!(again.metrics.digest(), done.metrics.digest());
    }

    #[test]
    fn an_expired_deadline_fails_one_point_while_its_siblings_complete() {
        let runner = Runner::new(2);
        let doomed = tiny_request().with_deadline(DeadlineConfig::from_ms(0));
        let healthy = tiny_request().with_mode(SchedulerMode::Slicc);
        let results = runner.run_all(&[doomed.clone(), healthy]);
        match &results[0] {
            Err(RunError::DeadlineExceeded { point, snapshot }) => {
                assert_eq!(point.key, doomed.stable_key());
                assert!(snapshot.heap_steps > 0, "the snapshot must show where it stopped");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        expect_ok(results[1].clone());
    }

    #[test]
    fn the_default_deadline_applies_only_to_requests_without_their_own() {
        let runner = Runner::new(1);
        runner.set_default_deadline(Some(Duration::ZERO));
        assert!(matches!(
            runner.run(&tiny_request()),
            Err(RunError::DeadlineExceeded { .. })
        ));
        // A generous per-request deadline overrides the impossible default.
        let roomy = tiny_request().with_deadline(DeadlineConfig::from_ms(60_000));
        expect_ok(runner.run(&roomy));
        runner.set_default_deadline(None);
        assert_eq!(runner.default_deadline(), None);
    }

    #[test]
    fn a_tiny_cache_budget_evicts_but_never_changes_results() {
        let runner = Runner::new(1);
        let first = tiny_request();
        let reference = expect_ok(runner.run(&first));
        // Rebudget below one entry's weight: the resident result is
        // evicted and nothing can become resident.
        runner.set_cache_bytes(8);
        let stats = runner.stats();
        assert_eq!(stats.cache_bytes, 0);
        assert!(stats.cache_evictions >= 1);
        assert_eq!(runner.cached_points(), 0);
        // The evicted point re-simulates — a miss, not a hit — and its
        // metrics are byte-identical: eviction is a cost, never a change.
        let again = expect_ok(runner.run(&first));
        assert!(!again.from_cache);
        assert_eq!(again.metrics.digest(), reference.metrics.digest());
        assert_eq!(runner.stats().cache_misses, 2);
        assert!(runner.stats().cache_bytes <= runner.cache_budget());
    }

    #[test]
    fn a_zero_queue_limit_sheds_fresh_points_but_serves_hits() {
        let runner = Runner::new(1);
        let req = tiny_request();
        expect_ok(runner.run(&req));
        runner.set_queue_limit(Some(0));
        // The memoized point is still served: hits are never shed.
        assert!(expect_ok(runner.run(&req)).from_cache);
        // A fresh point cannot win a slot and is shed with a hint.
        let err = runner.run(&req.clone().with_seed(5)).expect_err("no slots means shed");
        assert!(err.is_overload(), "got {err}");
        match &err {
            RunError::Overloaded { retry_after, .. } => assert!(*retry_after > Duration::ZERO),
            other => panic!("expected Overloaded, got {other}"),
        }
        let stats = runner.stats();
        assert_eq!(stats.shed_points, 1);
        assert_eq!(stats.failed_points, 0, "a shed point never simulated, so it never failed");
        // Lifting the limit recovers the same point.
        runner.set_queue_limit(None);
        expect_ok(runner.run(&req.clone().with_seed(5)));
        assert_eq!(runner.queue_limit(), None);
    }

    #[test]
    fn execute_uncached_bypasses_cache_and_stats() {
        let runner = Runner::new(1);
        let req = tiny_request();
        let cached = expect_ok(runner.run(&req));
        let direct = runner.execute_uncached(&req).expect("uncached run completes");
        assert!(!direct.from_cache);
        assert_eq!(direct.metrics.digest(), cached.metrics.digest());
        let stats = runner.stats();
        assert_eq!(stats.cache_misses, 1, "the uncached run is not a miss");
        assert_eq!(stats.cache_hits, 0, "...and not a hit");
    }

    #[test]
    fn pressure_reports_cache_residency_and_idle_slots() {
        let runner = Runner::new(2);
        expect_ok(runner.run(&tiny_request()));
        let p = runner.pressure();
        assert_eq!(p.queue_depth, 0);
        assert_eq!(p.inflight, 0, "no batch is running");
        assert_eq!(p.cache_entries, 1);
        assert!(p.cache_bytes > 0 && p.cache_bytes <= p.cache_budget);
        assert_eq!(p.shed, 0);
    }

    #[test]
    fn governance_knobs_are_excluded_from_the_stable_key() {
        // A cache budget or admission limit changes when work is refused
        // or recomputed, never what any simulation computes — so equal
        // requests stay equal across differently-governed runners.
        let runner_a = Runner::new(1);
        let runner_b = Runner::new(1);
        runner_b.set_cache_bytes(8);
        runner_b.set_queue_limit(Some(64));
        let a = expect_ok(runner_a.run(&tiny_request()));
        let b = expect_ok(runner_b.run(&tiny_request()));
        assert_eq!(a.metrics.digest(), b.metrics.digest());
    }

    #[test]
    fn deadline_is_excluded_from_the_stable_key() {
        let base = tiny_request();
        let dated = tiny_request().with_deadline(DeadlineConfig::from_ms(5));
        assert_eq!(
            base.stable_key(),
            dated.stable_key(),
            "a deadline changes when a run may be abandoned, never its metrics"
        );
    }
}
