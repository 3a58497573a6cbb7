//! Resilient characterization campaigns.
//!
//! A multi-module characterization run (the paper tests 248 modules
//! over months, §4.3) must survive individual benches misbehaving: a
//! flaky host link, a temperature rig that refuses to settle, a module
//! that dies mid-campaign. The [`CampaignRunner`] replaces
//! first-error-abort semantics with per-module outcomes: every module
//! either **succeeds** (first try), **recovers** (succeeds after
//! bounded retries with deterministic exponential backoff), or is
//! **quarantined** (attempt budget exhausted, or a non-transient error
//! such as an unresponsive module). Healthy modules are never affected
//! by a sick neighbor, and each retry rebuilds the bench from scratch,
//! so a recovered module's results are bit-for-bit identical to a
//! fault-free run.
//!
//! The runner is the in-process transport of the
//! [`JobTable`](crate::fleet::JobTable): each module is one job, and
//! every attempt is a lease granted from one shared table and answered
//! with a commit or a failure report. The table alone decides retry,
//! backoff, quarantine and timeout, and reads and writes the
//! checkpoint, so a campaign and a fleet resume from the same file
//! format; resuming skips finished modules and reproduces the same
//! final report.
//!
//! The runner itself is a worker pool on a [`WorkerBudget`]: scoped
//! threads take modules in order from one cursor, and each module holds
//! one slot of the budget while it runs, so campaigns that share a
//! budget never run more modules at once than it has slots. An
//! optional watchdog times out modules past their wall-clock deadline,
//! and cancellation (the caller's token on SIGINT, or fail-fast)
//! resolves queued modules without running them. A module's terminal
//! outcome is decided only under the table's lock, by whichever of
//! worker, watchdog or cancellation gets there first; the runner adds
//! the `campaign.*` telemetry, progress and fail-fast.

use crate::error::CharError;
use crate::fleet::{fnv1a64, splitmix64, CommitOutcome, FailOutcome, FleetPolicy, JobTable};
use crate::progress::ProgressTracker;
use crate::Characterizer;
use rh_softmc::CancelToken;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use rh_obs::names;

pub use crate::fleet::verify_checkpoint;

/// How often the watchdog scans running modules for overruns.
const WATCHDOG_INTERVAL: Duration = Duration::from_millis(5);

/// Worker-pool width and per-module deadline of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutorConfig {
    /// Slots of the campaign's own [`WorkerBudget`] (clamped to ≥ 1),
    /// used when the runner is given no shared budget. Defaults to the
    /// host's available parallelism.
    pub max_workers: usize,
    /// Wall-clock budget per module; `None` disables the watchdog.
    pub module_deadline: Option<Duration>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            max_workers: std::thread::available_parallelism().map_or(4, usize::from),
            module_deadline: None,
        }
    }
}

impl ExecutorConfig {
    /// A config with `max_workers` workers and no deadline.
    pub fn with_workers(max_workers: usize) -> Self {
        Self { max_workers, ..Self::default() }
    }

    /// Sets the per-module deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.module_deadline = Some(deadline);
        self
    }
}

/// Recovers from a poisoned lock: a panicking module is caught before
/// it can leave the table half-updated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A budget of worker slots: each unit of simulation work holds one
/// while it runs, so work drawing on one budget never runs wider than
/// its slot count. `repro` gives every target and campaign of a run the
/// same budget. A thread holds no slot while it waits for one, or for
/// anything else, so blocking never starves the budget. Clones share
/// the slots.
///
/// Free slots go to waiters in rank order, and in arrival order within
/// a rank. A handle's rank is 0 unless set with
/// [`ranked`](Self::ranked).
#[derive(Debug, Clone)]
pub struct WorkerBudget {
    slots: Arc<BudgetSlots>,
    rank: usize,
}

#[derive(Debug)]
struct BudgetSlots {
    width: usize,
    state: Mutex<BudgetState>,
    freed: Condvar,
}

#[derive(Debug)]
struct BudgetState {
    free: usize,
    /// `(rank, ticket)` of every waiting thread; the first is served next.
    waiting: BTreeSet<(usize, u64)>,
    tickets: u64,
}

impl WorkerBudget {
    /// A budget of `width` slots, clamped to ≥ 1.
    pub fn new(width: usize) -> Self {
        let width = width.max(1);
        let state = BudgetState { free: width, waiting: BTreeSet::new(), tickets: 0 };
        let slots = BudgetSlots { width, state: Mutex::new(state), freed: Condvar::new() };
        Self { slots: Arc::new(slots), rank: 0 }
    }

    /// A handle on the same slots whose waits are served after those of
    /// every lower rank: `repro` ranks a target's work by the target's
    /// place in the request, so earlier targets finish first.
    #[must_use]
    pub fn ranked(&self, rank: usize) -> Self {
        Self { slots: Arc::clone(&self.slots), rank }
    }

    /// The number of slots.
    pub fn width(&self) -> usize {
        self.slots.width
    }

    /// Blocks until a slot is free and this thread is the first waiter,
    /// and holds the slot until the returned guard drops. Each grant
    /// sets `executor.queue_depth` to the threads still waiting, under
    /// the budget's lock, so a finished run leaves it at 0 whatever its
    /// width.
    pub fn acquire(&self) -> WorkerSlot<'_> {
        let slots = &*self.slots;
        let mut state = lock(&slots.state);
        let me = (self.rank, state.tickets);
        state.tickets += 1;
        state.waiting.insert(me);
        while state.free == 0 || state.waiting.first() != Some(&me) {
            state = slots.freed.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.waiting.remove(&me);
        state.free -= 1;
        rh_obs::gauge!(names::EXECUTOR_QUEUE_DEPTH, state.waiting.len() as f64);
        if state.free > 0 && !state.waiting.is_empty() {
            slots.freed.notify_all();
        }
        WorkerSlot(self)
    }
}

/// A held slot of a [`WorkerBudget`]; dropping it frees the slot.
#[derive(Debug)]
pub struct WorkerSlot<'a>(&'a WorkerBudget);

impl Drop for WorkerSlot<'_> {
    fn drop(&mut self) {
        let slots = &*self.0.slots;
        lock(&slots.state).free += 1;
        slots.freed.notify_all();
    }
}

/// What the pool shares under one lock: the job table, which decides
/// every outcome, and which modules are running undecided.
struct Board {
    table: JobTable,
    /// `Some(start)` from when a worker takes module `idx` until
    /// someone decides it: the worker when it returns, or the watchdog
    /// when it times the module out. Whoever takes it records the
    /// decision.
    started: Vec<Option<Instant>>,
    /// Modules decided so far; the watchdog stops when all are.
    decided: usize,
}

/// Bounded-retry policy with deterministic exponential backoff.
///
/// The backoff before retry *n* (1-based) is
/// `min(base · 2^(n−1), max)` scaled by a jitter factor in
/// `[1 − jitter_frac, 1 + jitter_frac]` drawn from a stream seeded by
/// `(seed, module id, n)` — the same campaign always produces the same
/// schedule, regardless of thread interleaving.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Attempt budget per module (≥ 1; the first attempt counts).
    pub max_attempts: u32,
    /// Backoff before the first retry, milliseconds.
    pub base_backoff_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub max_backoff_ms: u64,
    /// Fractional jitter applied to each backoff (0.25 = ±25 %).
    pub jitter_frac: f64,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff_ms: 100,
            max_backoff_ms: 5_000,
            jitter_frac: 0.25,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The scheduled backoff (ms) before retry `retry` (1-based) of the
    /// module identified by `module_id`.
    pub fn backoff_ms(&self, module_id: &str, retry: u32) -> u64 {
        let shift = (retry - 1).min(20);
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << shift)
            .min(self.max_backoff_ms);
        let jitter_frac = self.jitter_frac.clamp(0.0, 1.0);
        let z = splitmix64(
            self.seed ^ fnv1a64(module_id.as_bytes()) ^ u64::from(retry).rotate_left(40),
        );
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 + jitter_frac * (2.0 * unit - 1.0);
        (exp as f64 * factor).round() as u64
    }
}

/// How one module's characterization ended.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModuleStatus {
    /// Succeeded on the first attempt.
    Succeeded,
    /// Succeeded after retries.
    Recovered {
        /// Total attempts, including the successful one.
        attempts: u32,
    },
    /// Every attempt failed (or the error was not worth retrying).
    Quarantined {
        /// Attempts consumed before giving up.
        attempts: u32,
        /// The final error, rendered.
        error: String,
    },
    /// The watchdog killed the module at its wall-clock deadline; the
    /// module is quarantined and the outcome is checkpointed (a resumed
    /// campaign does *not* re-run it — the rig needs inspection first).
    TimedOut {
        /// Wall time the module had been running, milliseconds.
        elapsed_ms: u64,
        /// The configured deadline, milliseconds.
        deadline_ms: u64,
    },
    /// The campaign was cancelled (operator interrupt or fail-fast)
    /// before this module finished. Never checkpointed: a resumed
    /// campaign re-runs exactly these modules.
    Cancelled {
        /// Attempts started before the cancellation (0 if the module
        /// never left the queue).
        attempts: u32,
    },
}

impl ModuleStatus {
    /// Whether the module produced a result.
    pub fn is_success(&self) -> bool {
        matches!(self, ModuleStatus::Succeeded | ModuleStatus::Recovered { .. })
    }
}

/// The per-module record in a [`CampaignReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModuleOutcome {
    /// Stable module identifier (e.g. `"A-00000000000004d2"`).
    pub id: String,
    /// Terminal status.
    pub status: ModuleStatus,
    /// One rendered error per failed attempt, in attempt order.
    pub errors: Vec<String>,
    /// Scheduled backoff (ms) before each retry, in retry order. The
    /// schedule is deterministic in `(policy seed, module id)`.
    pub backoffs_ms: Vec<u64>,
}

/// Structured summary of a whole campaign — everything except the
/// (caller-typed) successful results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Per-module outcomes, in campaign input order.
    pub outcomes: Vec<ModuleOutcome>,
    /// Modules that succeeded first try.
    pub succeeded: usize,
    /// Modules that succeeded after retries.
    pub recovered: usize,
    /// Modules that were quarantined by errors or attempt exhaustion.
    pub quarantined: usize,
    /// Modules the watchdog killed at their deadline.
    pub timed_out: usize,
    /// Modules still unfinished when the campaign was cancelled.
    pub cancelled: usize,
}

impl CampaignReport {
    fn from_outcomes(outcomes: Vec<ModuleOutcome>) -> Self {
        let count = |pred: fn(&ModuleStatus) -> bool| {
            outcomes.iter().filter(|o| pred(&o.status)).count()
        };
        let succeeded = count(|s| matches!(s, ModuleStatus::Succeeded));
        let recovered = count(|s| matches!(s, ModuleStatus::Recovered { .. }));
        let quarantined = count(|s| matches!(s, ModuleStatus::Quarantined { .. }));
        let timed_out = count(|s| matches!(s, ModuleStatus::TimedOut { .. }));
        let cancelled = count(|s| matches!(s, ModuleStatus::Cancelled { .. }));
        Self { outcomes, succeeded, recovered, quarantined, timed_out, cancelled }
    }

    /// `true` when every module succeeded: nothing quarantined, timed
    /// out, or cancelled.
    pub fn is_clean(&self) -> bool {
        self.quarantined == 0 && self.timed_out == 0 && self.cancelled == 0
    }

    /// `true` when some module failed for keeps (quarantined or timed
    /// out). Cancelled modules are not failures — they are simply
    /// unfinished — but `repro` still exits nonzero for them via
    /// [`is_clean`](Self::is_clean).
    pub fn has_failures(&self) -> bool {
        self.quarantined > 0 || self.timed_out > 0
    }

    /// The non-success outcomes (quarantined, timed out, or
    /// cancelled), for reporting.
    pub fn quarantined_modules(&self) -> impl Iterator<Item = &ModuleOutcome> {
        self.outcomes.iter().filter(|o| !o.status.is_success())
    }

    /// One-line human summary.
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "{} module(s): {} succeeded, {} recovered after retry, {} quarantined",
            self.outcomes.len(),
            self.succeeded,
            self.recovered,
            self.quarantined
        );
        if self.timed_out > 0 {
            line.push_str(&format!(", {} timed out", self.timed_out));
        }
        if self.cancelled > 0 {
            line.push_str(&format!(", {} cancelled", self.cancelled));
        }
        line
    }
}

/// A campaign's results plus its resilience report.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutput<T> {
    /// `(module id, result)` for every non-quarantined module, in
    /// campaign input order.
    pub results: Vec<(String, T)>,
    /// Per-module outcomes and counts.
    pub report: CampaignReport,
}

/// One unit of campaign work: a stable identifier plus a builder that
/// produces a *fresh* [`Characterizer`] for every attempt, so retries
/// start from clean bench state and a recovered module's results match
/// a fault-free run exactly. The builder receives the 1-based attempt
/// number — fault-armed builders should re-derive their fault stream
/// from it so a transient fault does not replay identically on retry —
/// plus the task's [`CancelToken`], which it should install on the
/// bench ([`TestBench::set_cancel_token`](rh_softmc::TestBench::set_cancel_token))
/// *before* constructing the characterizer, so even setup work
/// (temperature settle, mapping reverse engineering) is cancellable.
pub struct ModuleTask<'a> {
    /// Stable identifier, also the checkpoint key.
    pub id: String,
    /// Builds the bench + characterizer for one attempt.
    #[allow(clippy::type_complexity)]
    pub build:
        Box<dyn Fn(u32, &CancelToken) -> Result<Characterizer, CharError> + Send + Sync + 'a>,
}

impl<'a> ModuleTask<'a> {
    /// Convenience constructor.
    pub fn new<F>(id: impl Into<String>, build: F) -> Self
    where
        F: Fn(u32, &CancelToken) -> Result<Characterizer, CharError> + Send + Sync + 'a,
    {
        Self { id: id.into(), build: Box::new(build) }
    }
}

/// A stable module id from the identity that defines a bench.
pub fn module_id(mfr: rh_dram::Manufacturer, module_seed: u64) -> String {
    format!("{mfr:?}-{module_seed:016x}")
}

/// Runs module tasks on the supervised worker pool with bounded retry,
/// quarantine, deadlines, cooperative cancellation, and optional
/// checkpoint/resume. See the [module docs](self).
#[derive(Debug, Default)]
pub struct CampaignRunner {
    policy: RetryPolicy,
    checkpoint: Option<PathBuf>,
    executor: ExecutorConfig,
    cancel: CancelToken,
    fail_fast: bool,
    progress: Option<Arc<ProgressTracker>>,
    budget: Option<WorkerBudget>,
}

impl CampaignRunner {
    /// A runner with the default [`RetryPolicy`] and no checkpointing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Persists a checkpoint to `path` after each module completes and
    /// resumes from it if it already exists.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Replaces the worker-pool / deadline configuration.
    pub fn with_executor(mut self, executor: ExecutorConfig) -> Self {
        self.executor = executor;
        self
    }

    /// Wires an external cancellation token (e.g. `repro`'s signal
    /// handler) into the campaign. Internal cancellations (fail-fast,
    /// watchdog) never trip the caller's token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Cancels all remaining work as soon as any module is quarantined
    /// or timed out.
    pub fn with_fail_fast(mut self, fail_fast: bool) -> Self {
        self.fail_fast = fail_fast;
        self
    }

    /// Shares a live [`ProgressTracker`] with this campaign: [`run`]
    /// admits the task count, marks modules running while a worker
    /// holds them, and records each terminal status exactly once, under
    /// the job table's lock where the status is decided. The same
    /// tracker may be reused across sequential campaigns (totals
    /// accumulate).
    ///
    /// [`run`]: CampaignRunner::run
    pub fn with_progress(mut self, progress: Arc<ProgressTracker>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Runs the campaign's modules on `budget`'s slots, shared with
    /// whatever else draws on it, instead of on a budget of its own
    /// with [`ExecutorConfig::max_workers`] slots.
    pub fn with_budget(mut self, budget: WorkerBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The active retry policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Runs `f` once per module (retrying per policy) on the worker
    /// pool and collects every outcome. A quarantined, timed-out or
    /// cancelled module consumes its slot in the report but not in
    /// `results`.
    ///
    /// A module holds a budget slot from before its first characterizer
    /// is built until its worker returns. Its deadline clock starts
    /// once the slot is held, so waiting for one never times it out.
    ///
    /// # Errors
    ///
    /// Only checkpoint I/O or decode problems abort a campaign
    /// ([`CharError::Checkpoint`]); module failures never do.
    pub fn run<T, F>(
        &self,
        tasks: Vec<ModuleTask<'_>>,
        f: F,
    ) -> Result<CampaignOutput<T>, CharError>
    where
        T: Send + Serialize + Deserialize,
        F: Fn(&mut Characterizer) -> Result<T, CharError> + Sync,
    {
        let policy = FleetPolicy { retry: self.policy.clone(), ..FleetPolicy::default() };
        let mut table = JobTable::new(policy);
        for task in &tasks {
            table.add_job(task.id.clone(), Value::Null);
        }
        if let Some(path) = &self.checkpoint {
            table.with_checkpoint(path)?;
        }
        let n = tasks.len();
        let board = Mutex::new(Board { table, started: vec![None; n], decided: 0 });

        if let Some(progress) = &self.progress {
            progress.add_modules(n);
        }

        // Internal campaign token: a child of the caller's, so
        // fail-fast and watchdog cancellations never poison the token
        // the operator handed in. Each module runs under its own child,
        // which the watchdog cancels at the deadline.
        let campaign_token = self.cancel.child();
        let tokens: Vec<CancelToken> = (0..n).map(|_| campaign_token.child()).collect();

        // Records module `idx` as decided, with the status the table
        // states for it: progress, then fail-fast.
        let decide = |board: &mut Board, idx: usize| {
            board.decided += 1;
            let status = board.table.status(&tasks[idx].id);
            if let Some(progress) = &self.progress {
                progress.record_status(&status);
            }
            if self.fail_fast && !status.is_success() {
                campaign_token.cancel();
            }
        };

        // Every module is known before the pool starts: a worker takes
        // the next one by bumping the cursor, then waits for a slot, and
        // its queue wait is slot time minus pool start. The cursor
        // publishes no other data (the board has its lock), so it is
        // `Relaxed`.
        let budget =
            self.budget.clone().unwrap_or_else(|| WorkerBudget::new(self.executor.max_workers));
        let next = AtomicUsize::new(0);
        let pool_start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..budget.width().min(n).max(1) {
                s.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    let _slot = budget.acquire();
                    if rh_obs::enabled() {
                        let wait_ns =
                            u64::try_from(pool_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        rh_obs::histogram!(names::EXECUTOR_QUEUE_WAIT_NS, wait_ns);
                    }
                    let task = &tasks[idx];
                    if campaign_token.is_cancelled() {
                        // Cancelled while still queued: never runs.
                        rh_obs::counter!(names::CAMPAIGN_CANCELLED, 1);
                        rh_obs::event!(
                            names::CAMPAIGN_CANCELLED,
                            module = task.id.as_str(),
                            ran = false,
                        );
                        decide(&mut lock(&board), idx);
                        continue;
                    }
                    // The table states an unfinished job as `Cancelled`;
                    // a module the checkpoint already finished is skipped.
                    let unfinished = {
                        let mut board = lock(&board);
                        board.started[idx] = Some(Instant::now());
                        matches!(board.table.status(&task.id), ModuleStatus::Cancelled { .. })
                    };
                    {
                        let _running = self.progress.as_ref().map(ProgressTracker::running_guard);
                        if unfinished {
                            self.run_one(task, &f, &tokens[idx], &board);
                        } else {
                            rh_obs::event!(names::CAMPAIGN_RESUME_SKIP, module = task.id.as_str());
                        }
                    }
                    // Unless the watchdog already timed the module out,
                    // this worker decides it.
                    let mut board = lock(&board);
                    if board.started[idx].take().is_some() {
                        decide(&mut board, idx);
                    }
                });
            }

            if let Some(deadline) = &self.executor.module_deadline {
                s.spawn(|| {
                    let deadline = *deadline;
                    let mut span = rh_obs::span(names::EXECUTOR_WATCHDOG);
                    let deadline_ms = deadline.as_millis() as u64;
                    let mut ticks = 0u64;
                    let mut timeouts = 0u64;
                    while lock(&board).decided < n {
                        std::thread::sleep(WATCHDOG_INTERVAL);
                        ticks += 1;
                        let mut board = lock(&board);
                        for idx in 0..n {
                            let Some(t0) = board.started[idx] else { continue };
                            let elapsed = t0.elapsed();
                            let elapsed_ms = elapsed.as_millis() as u64;
                            let id = tasks[idx].id.as_str();
                            if elapsed <= deadline
                                || !board.table.time_out(id, elapsed_ms, deadline_ms)
                            {
                                continue;
                            }
                            // Decided here: the worker's late commit
                            // turns stale, and it unwinds at its next
                            // cancel check.
                            board.started[idx] = None;
                            tokens[idx].cancel();
                            timeouts += 1;
                            rh_obs::counter!(names::CAMPAIGN_TIMEOUT, 1);
                            rh_obs::event!(
                                names::CAMPAIGN_TIMEOUT,
                                module = id,
                                elapsed_ms = elapsed_ms,
                                deadline_ms = deadline_ms,
                            );
                            decide(&mut board, idx);
                        }
                    }
                    span.set("ticks", ticks);
                    span.set("timeouts", timeouts);
                    span.set("deadline_ms", deadline_ms);
                });
            }
        });

        let mut outcomes = Vec::with_capacity(tasks.len());
        let mut results = Vec::new();
        let table = board.into_inner().unwrap_or_else(PoisonError::into_inner).table;
        for (outcome, value) in table.outcomes() {
            if let Some(v) = value {
                let t = T::from_owned_json_value(v).map_err(|e| CharError::Checkpoint {
                    detail: format!("result for {} does not decode: {e}", outcome.id),
                })?;
                results.push((outcome.id.clone(), t));
            }
            outcomes.push(outcome);
        }
        Ok(CampaignOutput { results, report: CampaignReport::from_outcomes(outcomes) })
    }

    /// One module over the in-process transport: every attempt is a
    /// lease granted from `table`, answered with a commit or a failure
    /// whose [`FailOutcome`] decides retry or quarantine. Stops early
    /// when the token is cancelled or the watchdog has already decided
    /// the module (its lease turned stale).
    fn run_one<T, F>(
        &self,
        task: &ModuleTask<'_>,
        f: &F,
        token: &CancelToken,
        board: &Mutex<Board>,
    ) where
        T: Serialize,
        F: Fn(&mut Characterizer) -> Result<T, CharError>,
    {
        let mut span = rh_obs::span(names::CAMPAIGN_MODULE);
        let _module_timer = rh_obs::timer!(names::CAMPAIGN_MODULE_NS);
        span.set("module", task.id.as_str());
        let mut attempt = 0;
        let status = loop {
            if token.is_cancelled() {
                rh_obs::counter!(names::CAMPAIGN_CANCELLED, 1);
                rh_obs::event!(
                    names::CAMPAIGN_CANCELLED,
                    module = task.id.as_str(),
                    ran = true,
                );
                break "cancelled";
            }
            let Ok(grant) = lock(board).table.grant(&task.id, "local", 0) else { break "timed_out" };
            attempt = grant.generation;
            let attempt_result = {
                let mut attempt_span = rh_obs::span(names::CAMPAIGN_ATTEMPT);
                attempt_span.set("module", task.id.as_str());
                attempt_span.set("attempt", attempt);
                (task.build)(attempt, token).and_then(|mut ch| {
                    catch_unwind(AssertUnwindSafe(|| f(&mut ch)))
                        .unwrap_or_else(|p| Err(CharError::from_panic(p)))
                })
            };
            let err = match attempt_result {
                Ok(t) => {
                    if lock(board).table.commit(grant.lease_id, t.to_json_value())
                        != CommitOutcome::Committed
                    {
                        break "timed_out";
                    }
                    if attempt == 1 {
                        rh_obs::counter!(names::CAMPAIGN_SUCCEEDED, 1);
                    } else {
                        rh_obs::counter!(names::CAMPAIGN_RECOVERED, 1);
                        rh_obs::event!(
                            names::CAMPAIGN_RECOVERED,
                            module = task.id.as_str(),
                            attempts = attempt,
                        );
                    }
                    break "success";
                }
                Err(e) if e.is_cancelled() => {
                    rh_obs::counter!(names::CAMPAIGN_CANCELLED, 1);
                    rh_obs::event!(
                        names::CAMPAIGN_CANCELLED,
                        module = task.id.as_str(),
                        ran = true,
                        op = e.to_string(),
                    );
                    break "cancelled";
                }
                Err(e) => e,
            };
            let error = err.to_string();
            let outcome = lock(board).table.fail(grant.lease_id, &error, err.is_transient(), 0);
            match outcome {
                FailOutcome::Retrying { backoff_ms } => {
                    rh_obs::counter!(names::CAMPAIGN_RETRIES, 1);
                    rh_obs::event!(
                        names::CAMPAIGN_RETRY_EVENT,
                        module = task.id.as_str(),
                        attempt = attempt,
                        backoff_ms = backoff_ms,
                        error = error,
                    );
                }
                FailOutcome::Quarantined => {
                    rh_obs::counter!(names::CAMPAIGN_QUARANTINED, 1);
                    rh_obs::event!(
                        names::CAMPAIGN_QUARANTINE_EVENT,
                        module = task.id.as_str(),
                        attempts = attempt,
                        transient = err.is_transient(),
                        error = error,
                    );
                    break "quarantined";
                }
                FailOutcome::Stale => break "timed_out",
            }
        };
        span.set("attempts", attempt);
        span.set("status", status);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use rh_dram::Manufacturer;
    use rh_softmc::TestBench;
    use std::sync::atomic::{AtomicBool, AtomicU32};

    fn smoke_task(seed: u64) -> ModuleTask<'static> {
        ModuleTask::new(module_id(Manufacturer::D, seed), move |_attempt, cancel| {
            let mut bench = TestBench::new(Manufacturer::D, seed);
            bench.set_cancel_token(cancel.clone());
            Characterizer::new(bench, Scale::Smoke)
        })
    }

    fn transient() -> CharError {
        CharError::Infra(rh_softmc::SoftMcError::HostLink { op: "test".into() })
    }

    /// A module that runs `body` and then fails for keeps, so the pool
    /// can be exercised without building a bench.
    fn probe_task<'a>(i: u64, body: impl Fn() + Send + Sync + 'a) -> ModuleTask<'a> {
        ModuleTask::new(format!("probe-{i:03}"), move |_attempt, _token| {
            body();
            Err(CharError::Infra(rh_softmc::SoftMcError::Unresponsive { after_ops: 0 }))
        })
    }

    #[test]
    fn live_modules_never_exceed_max_workers() {
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let probes = |first: u64| -> Vec<ModuleTask<'_>> {
            (first..first + 100)
                .map(|i| {
                    probe_task(i, || {
                        peak.fetch_max(live.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(1));
                        live.fetch_sub(1, Ordering::SeqCst);
                    })
                })
                .collect()
        };
        let out: CampaignOutput<u64> = CampaignRunner::new()
            .with_executor(ExecutorConfig::with_workers(4))
            .run(probes(0), |_| panic!("a probe module never builds"))
            .unwrap();
        assert_eq!(out.report.quarantined, 100);
        let solo = peak.swap(0, Ordering::SeqCst);
        assert!((1..=4).contains(&solo), "{solo} modules live at once with max_workers=4");

        // Two campaigns at once on one budget of 3: each would run 3
        // modules at a time on a pool of its own.
        let budget = WorkerBudget::new(3);
        std::thread::scope(|s| {
            let runs: Vec<_> = [0, 100]
                .map(|first| {
                    let (budget, probes) = (budget.clone(), &probes);
                    s.spawn(move || {
                        CampaignRunner::new()
                            .with_budget(budget)
                            .run::<u64, _>(probes(first), |_| panic!("a probe module never builds"))
                            .unwrap()
                    })
                })
                .into_iter()
                .collect();
            for run in runs {
                assert_eq!(run.join().unwrap().report.quarantined, 100);
            }
        });
        let shared = peak.load(Ordering::SeqCst);
        assert!((1..=3).contains(&shared), "{shared} modules live at once on a budget of 3");
    }

    #[test]
    fn waiting_for_a_slot_does_not_count_against_the_deadline() {
        // The only slot is held for 6 deadlines before the campaign may
        // start its module, which then fails at once for keeps.
        let budget = WorkerBudget::new(1);
        let held = budget.acquire();
        std::thread::scope(|s| {
            let run = s.spawn(|| {
                CampaignRunner::new()
                    .with_budget(budget.clone())
                    .with_executor(
                        ExecutorConfig::with_workers(1).with_deadline(Duration::from_millis(50)),
                    )
                    .run::<u64, _>(vec![probe_task(0, || {})], |_| panic!("never builds"))
                    .unwrap()
            });
            std::thread::sleep(Duration::from_millis(300));
            drop(held);
            let out = run.join().unwrap();
            let status = &out.report.outcomes[0].status;
            assert!(matches!(status, ModuleStatus::Quarantined { attempts: 1, .. }), "{status:?}");
        });
    }

    #[test]
    fn zero_workers_still_completes() {
        // max_workers is clamped to ≥ 1.
        let out: CampaignOutput<u64> = CampaignRunner::new()
            .with_executor(ExecutorConfig::with_workers(0))
            .run((100..103).map(smoke_task).collect(), |ch| Ok(ch.bench().module_seed()))
            .unwrap();
        assert!(out.report.is_clean());
        assert_eq!(out.results.iter().map(|(_, s)| *s).collect::<Vec<_>>(), [100, 101, 102]);
    }

    #[test]
    fn a_slow_module_does_not_serialize_the_rest() {
        // Module 0 waits for the eleven others; on a serialized pool it
        // would wait out its whole budget.
        let finished = AtomicUsize::new(0);
        let waited_out = AtomicBool::new(false);
        let tasks = (0..12)
            .map(|i| {
                let (finished, waited_out) = (&finished, &waited_out);
                probe_task(i, move || {
                    if i > 0 {
                        finished.fetch_add(1, Ordering::SeqCst);
                        return;
                    }
                    let start = Instant::now();
                    while finished.load(Ordering::SeqCst) < 11 {
                        if start.elapsed() > Duration::from_secs(10) {
                            waited_out.store(true, Ordering::SeqCst);
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                })
            })
            .collect();
        let out: CampaignOutput<u64> = CampaignRunner::new()
            .with_executor(ExecutorConfig::with_workers(2))
            .run(tasks, |_| panic!("a probe module never builds"))
            .unwrap();
        assert_eq!(out.report.quarantined, 12);
        assert!(!waited_out.load(Ordering::SeqCst), "the other worker never ran around the slow module");
    }

    #[test]
    fn cancelling_the_root_resolves_queued_modules_without_running_them() {
        let root = CancelToken::new();
        let ran = AtomicUsize::new(0);
        let out: CampaignOutput<u64> = CampaignRunner::new()
            .with_executor(ExecutorConfig::with_workers(1))
            .with_cancel(root.clone())
            .run((110..120).map(smoke_task).collect(), |ch| {
                ran.fetch_add(1, Ordering::SeqCst);
                // The first module trips the campaign-wide cancel.
                root.cancel();
                Ok(ch.bench().module_seed())
            })
            .unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(out.results, vec![(module_id(Manufacturer::D, 110), 110)]);
        assert_eq!(out.report.cancelled, 9);
        assert!(out.report.outcomes[1..]
            .iter()
            .all(|o| o.status == ModuleStatus::Cancelled { attempts: 0 }));
    }

    /// A smoke module whose bench gets its task token only after setup,
    /// so the deadline can interrupt `f` but never the build.
    fn late_token_task(seed: u64) -> ModuleTask<'static> {
        ModuleTask::new(module_id(Manufacturer::D, seed), move |_attempt, token| {
            let mut ch = Characterizer::new(TestBench::new(Manufacturer::D, seed), Scale::Smoke)?;
            ch.bench_mut().set_cancel_token(token.clone());
            Ok(ch)
        })
    }

    #[test]
    fn run_joins_a_timed_out_module_and_drops_its_late_result() {
        let progress = Arc::new(ProgressTracker::new());
        let unwound = Mutex::new(None);
        let out: CampaignOutput<u64> = CampaignRunner::new()
            .with_executor(ExecutorConfig::with_workers(2).with_deadline(Duration::from_secs(2)))
            .with_progress(Arc::clone(&progress))
            .run((130..133).map(late_token_task).collect(), |ch| {
                let seed = ch.bench().module_seed();
                if seed == 130 {
                    // Wedge until the watchdog cancels the task token,
                    // then unwind slowly and return a late `Ok`.
                    while ch.bench().check_cancelled("wedge").is_ok() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    std::thread::sleep(Duration::from_millis(200));
                    *lock(&unwound) = Some(Instant::now());
                }
                Ok(seed)
            })
            .unwrap();
        let returned = Instant::now();
        let unwound = lock(&unwound).expect("the watchdog never cancelled the wedged module");
        assert!(unwound <= returned, "run returned before the timed-out module unwound");
        assert!(matches!(
            out.report.outcomes[0].status,
            ModuleStatus::TimedOut { deadline_ms: 2_000, .. }
        ));
        assert_eq!(out.results.iter().map(|(_, s)| *s).collect::<Vec<_>>(), [131, 132]);
        let snap = progress.snapshot();
        assert_eq!((snap.succeeded, snap.timed_out, snap.running), (2, 1, 0));
    }

    #[test]
    fn progress_sees_each_module_once_when_worker_and_watchdog_race() {
        // Module i runs for one bench build plus 2·i ms against a
        // deadline of one build plus 3 ms, so the watchdog's timeout and
        // the worker's commit or failure land close together.
        let t0 = Instant::now();
        Characterizer::new(TestBench::new(Manufacturer::D, 140), Scale::Smoke).unwrap();
        let deadline = t0.elapsed() + Duration::from_millis(3);
        for round in 0..20u64 {
            let progress = Arc::new(ProgressTracker::new());
            let tasks = (140..148).map(smoke_task).collect();
            let out: CampaignOutput<u64> = CampaignRunner::new()
                .with_executor(ExecutorConfig::with_workers(3).with_deadline(deadline))
                .with_progress(Arc::clone(&progress))
                .run(tasks, |ch| {
                    let seed = ch.bench().module_seed();
                    std::thread::sleep(Duration::from_millis(2 * (seed - 140)));
                    if (seed + round) % 3 == 0 {
                        return Err(CharError::Infra(rh_softmc::SoftMcError::Unresponsive {
                            after_ops: 1,
                        }));
                    }
                    Ok(seed)
                })
                .unwrap();
            let snap = progress.snapshot();
            let r = &out.report;
            assert_eq!((snap.total, snap.completed(), snap.running), (8, 8, 0), "round {round}");
            assert_eq!(
                (snap.succeeded, snap.recovered, snap.quarantined, snap.timed_out, snap.cancelled),
                (r.succeeded, r.recovered, r.quarantined, r.timed_out, r.cancelled),
                "round {round}"
            );
        }
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let policy = RetryPolicy { seed: 42, ..RetryPolicy::default() };
        let again = RetryPolicy { seed: 42, ..RetryPolicy::default() };
        for retry in 1..=8 {
            let b = policy.backoff_ms("A-0001", retry);
            assert_eq!(b, again.backoff_ms("A-0001", retry), "same seed, same schedule");
            let nominal = (100u64 << (retry - 1).min(20)).min(5_000) as f64;
            assert!((b as f64) >= nominal * 0.74 && (b as f64) <= nominal * 1.26);
        }
        let other_seed = RetryPolicy { seed: 43, ..RetryPolicy::default() };
        let schedule = |p: &RetryPolicy| (1..=8).map(|r| p.backoff_ms("A-0001", r)).collect::<Vec<_>>();
        assert_ne!(schedule(&policy), schedule(&other_seed));
        assert_ne!(
            (1..=8).map(|r| policy.backoff_ms("A-0001", r)).collect::<Vec<_>>(),
            (1..=8).map(|r| policy.backoff_ms("B-0001", r)).collect::<Vec<_>>(),
            "modules get independent jitter"
        );
    }

    #[test]
    fn backoff_schedule_values_are_pinned() {
        let mut got = Vec::new();
        for seed in [0, 42] {
            let policy = RetryPolicy { seed, ..RetryPolicy::default() };
            for module in ["A-0001", "B-0001"] {
                got.push((1..=3).map(|r| policy.backoff_ms(module, r)).collect::<Vec<_>>());
            }
        }
        // Seed 0: A-0001, B-0001; seed 42: A-0001, B-0001.
        let want = [[85, 231, 401], [117, 240, 357], [107, 153, 303], [98, 214, 479]];
        assert_eq!(got, want.map(Vec::from).to_vec());
    }

    #[test]
    fn transient_failures_recover_with_recorded_backoffs() {
        let failures = AtomicU32::new(0);
        let out: CampaignOutput<u64> = CampaignRunner::new()
            .with_policy(RetryPolicy { max_attempts: 4, ..RetryPolicy::default() })
            .run(vec![smoke_task(7)], |ch| {
                if failures.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err(transient())
                } else {
                    Ok(ch.bench().module_seed())
                }
            })
            .unwrap();
        assert_eq!(out.results, vec![(module_id(Manufacturer::D, 7), 7)]);
        let o = &out.report.outcomes[0];
        assert_eq!(o.status, ModuleStatus::Recovered { attempts: 3 });
        assert_eq!(o.errors.len(), 2);
        assert_eq!(o.backoffs_ms.len(), 2);
        assert_eq!(out.report.recovered, 1);
    }

    #[test]
    fn attempt_budget_exhaustion_quarantines() {
        let out: CampaignOutput<u64> = CampaignRunner::new()
            .with_policy(RetryPolicy { max_attempts: 3, ..RetryPolicy::default() })
            .run(vec![smoke_task(8)], |_| Err::<u64, _>(transient()))
            .unwrap();
        assert!(out.results.is_empty());
        match &out.report.outcomes[0].status {
            ModuleStatus::Quarantined { attempts, error } => {
                assert_eq!(*attempts, 3);
                assert!(error.contains("host link"));
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(out.report.outcomes[0].errors.len(), 3);
        assert!(!out.report.is_clean());
    }

    #[test]
    fn non_transient_errors_quarantine_immediately() {
        let calls = AtomicU32::new(0);
        let out: CampaignOutput<u64> = CampaignRunner::new()
            .with_policy(RetryPolicy { max_attempts: 5, ..RetryPolicy::default() })
            .run(vec![smoke_task(9)], |_| {
                calls.fetch_add(1, Ordering::SeqCst);
                Err::<u64, _>(CharError::Infra(rh_softmc::SoftMcError::Unresponsive {
                    after_ops: 1,
                }))
            })
            .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1, "no retry for a dead module");
        match &out.report.outcomes[0].status {
            ModuleStatus::Quarantined { attempts, .. } => assert_eq!(*attempts, 1),
            other => panic!("expected quarantine, got {other:?}"),
        }
    }

    #[test]
    fn sick_module_does_not_disturb_healthy_ones() {
        let tasks = vec![smoke_task(20), smoke_task(21), smoke_task(22)];
        let out: CampaignOutput<u64> = CampaignRunner::new()
            .run(tasks, |ch| {
                let seed = ch.bench().module_seed();
                if seed == 21 {
                    panic!("module 21 exploded");
                }
                Ok(seed)
            })
            .unwrap();
        let ids: Vec<&str> = out.results.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(
            ids,
            [module_id(Manufacturer::D, 20), module_id(Manufacturer::D, 22)]
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>()
        );
        assert_eq!(out.report.quarantined, 1);
        let q: Vec<_> = out.report.quarantined_modules().collect();
        assert!(q[0].errors[0].contains("module 21 exploded"));
    }

    #[test]
    fn checkpoint_round_trips_and_resume_reproduces_report() {
        let dir = std::env::temp_dir().join("rh-campaign-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("cp-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let run = |poison: bool| -> CampaignOutput<u64> {
            CampaignRunner::new()
                .with_checkpoint(&path)
                .with_policy(RetryPolicy { max_attempts: 2, ..RetryPolicy::default() })
                .run(vec![smoke_task(30), smoke_task(31)], |ch| {
                    let seed = ch.bench().module_seed();
                    if poison && seed == 31 {
                        return Err(transient());
                    }
                    if !poison && seed == 31 {
                        panic!("resume should never re-run a finished module");
                    }
                    Ok(seed)
                })
                .unwrap()
        };

        let first = run(true);
        assert_eq!(first.report.succeeded, 1);
        assert_eq!(first.report.quarantined, 1);

        // Second run resumes: module 30's result comes from the file and
        // module 31's quarantine record is reused (the closure would
        // panic if either actually re-ran).
        let resumed = run(false);
        assert_eq!(resumed.report, first.report);
        assert_eq!(resumed.results, first.results);

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checkpoint_is_reported_not_ignored() {
        let dir = std::env::temp_dir().join("rh-campaign-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("bad-{}.json", std::process::id()));
        std::fs::write(&path, b"{ not json").unwrap();
        let err = CampaignRunner::new()
            .with_checkpoint(&path)
            .run::<u64, _>(vec![smoke_task(40)], |ch| Ok(ch.bench().module_seed()))
            .unwrap_err();
        assert!(matches!(err, CharError::Checkpoint { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_checkpoint_is_reported_not_ignored() {
        let dir = std::env::temp_dir().join("rh-campaign-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trunc-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);

        // Produce a valid checkpoint, then simulate a torn write by
        // cutting the file in half.
        let _out: CampaignOutput<u64> = CampaignRunner::new()
            .with_checkpoint(&path)
            .run(vec![smoke_task(45)], |ch| Ok(ch.bench().module_seed()))
            .unwrap();
        let full = std::fs::read(&path).unwrap();
        assert!(verify_checkpoint(&path).unwrap() == 1);
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();

        let err = CampaignRunner::new()
            .with_checkpoint(&path)
            .run::<u64, _>(vec![smoke_task(45)], |ch| Ok(ch.bench().module_seed()))
            .unwrap_err();
        assert!(matches!(err, CharError::Checkpoint { .. }), "{err}");
        assert!(verify_checkpoint(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn future_checkpoint_version_is_rejected_with_clear_error() {
        let dir = std::env::temp_dir().join("rh-campaign-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("future-{}.json", std::process::id()));
        std::fs::write(&path, b"{\"version\": 99, \"entries\": []}").unwrap();
        let err = CampaignRunner::new()
            .with_checkpoint(&path)
            .run::<u64, _>(vec![smoke_task(46)], |ch| Ok(ch.bench().module_seed()))
            .unwrap_err();
        match &err {
            CharError::Checkpoint { detail } => {
                assert!(detail.contains("version 99"), "{detail}");
                assert!(detail.contains("--resume"), "{detail}");
            }
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_tmp_from_crashed_save_is_cleaned_up() {
        let dir = std::env::temp_dir().join("rh-campaign-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("stale-{}.json", std::process::id()));
        let tmp = path.with_extension("tmp");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&tmp, b"{ torn mid-write").unwrap();

        let out: CampaignOutput<u64> = CampaignRunner::new()
            .with_checkpoint(&path)
            .run(vec![smoke_task(47)], |ch| Ok(ch.bench().module_seed()))
            .unwrap();
        assert_eq!(out.report.succeeded, 1);
        assert!(!tmp.exists(), "stale tmp file must be removed at campaign start");
        assert_eq!(verify_checkpoint(&path).unwrap(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hung_module_times_out_and_campaign_completes() {
        use std::time::{Duration, Instant};
        let hang_seed = 50u64;
        let tasks: Vec<ModuleTask<'static>> = (50..53u64)
            .map(|seed| {
                ModuleTask::new(module_id(Manufacturer::D, seed), move |_attempt, cancel| {
                    let mut bench = TestBench::new(Manufacturer::D, seed);
                    bench.set_cancel_token(cancel.clone());
                    if seed == hang_seed {
                        bench.install_faults(&rh_softmc::FaultPlan::hung_module(1, 2));
                    }
                    Characterizer::new(bench, Scale::Smoke)
                })
            })
            .collect();
        // The deadline must be generous enough for a *healthy* smoke
        // characterization but far below the "forever" a wedge costs.
        let start = Instant::now();
        let out: CampaignOutput<u64> = CampaignRunner::new()
            .with_executor(
                ExecutorConfig::with_workers(2).with_deadline(Duration::from_secs(8)),
            )
            .run(tasks, |ch| Ok(ch.bench().module_seed()))
            .unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "campaign must complete despite the wedged module"
        );
        assert_eq!(out.report.timed_out, 1);
        assert_eq!(out.report.succeeded, 2);
        assert!(!out.report.is_clean());
        assert!(out.report.has_failures());
        let timed_out = out
            .report
            .outcomes
            .iter()
            .find(|o| o.id == module_id(Manufacturer::D, hang_seed))
            .unwrap();
        match &timed_out.status {
            ModuleStatus::TimedOut { elapsed_ms, deadline_ms } => {
                assert_eq!(*deadline_ms, 8_000);
                assert!(*elapsed_ms >= 8_000);
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert!(out.report.summary_line().contains("1 timed out"));
    }

    #[test]
    fn timed_out_module_is_checkpointed_but_cancelled_is_not() {
        use std::time::Duration;
        let dir = std::env::temp_dir().join("rh-campaign-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("resume-mix-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);

        // Serial pool with fail-fast: module 60 hangs (→ TimedOut via
        // watchdog), and the timeout trips fail-fast, so module 61
        // (still queued) resolves as Cancelled without running.
        let tasks: Vec<ModuleTask<'static>> = (60..62u64)
            .map(|seed| {
                ModuleTask::new(module_id(Manufacturer::D, seed), move |_attempt, token| {
                    let mut bench = TestBench::new(Manufacturer::D, seed);
                    bench.set_cancel_token(token.clone());
                    if seed == 60 {
                        bench.install_faults(&rh_softmc::FaultPlan::hung_module(1, 2));
                    }
                    Characterizer::new(bench, Scale::Smoke)
                })
            })
            .collect();
        let out: CampaignOutput<u64> = CampaignRunner::new()
            .with_executor(
                ExecutorConfig::with_workers(1).with_deadline(Duration::from_millis(150)),
            )
            .with_fail_fast(true)
            .with_checkpoint(&path)
            .run(tasks, |ch| Ok(ch.bench().module_seed()))
            .unwrap();
        assert_eq!(out.report.timed_out, 1);
        assert_eq!(out.report.cancelled, 1);

        // Only the timed-out module was persisted; the cancelled one
        // must re-run on resume.
        assert_eq!(verify_checkpoint(&path).unwrap(), 1);
        let resumed: CampaignOutput<u64> = CampaignRunner::new()
            .with_checkpoint(&path)
            .run(
                (60..62u64).map(smoke_task).collect(),
                |ch| Ok(ch.bench().module_seed()),
            )
            .unwrap();
        assert_eq!(resumed.report.timed_out, 1, "timed-out outcome reused from checkpoint");
        assert_eq!(resumed.report.succeeded, 1, "cancelled module re-ran and succeeded");
        assert_eq!(resumed.report.cancelled, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fail_fast_cancels_remaining_modules_on_first_quarantine() {
        // Serial pool, first module dies with a non-transient error;
        // fail-fast must resolve the remaining queued modules as
        // Cancelled without running them.
        let tasks: Vec<ModuleTask<'static>> = (70..74u64).map(smoke_task).collect();
        let out: CampaignOutput<u64> = CampaignRunner::new()
            .with_executor(ExecutorConfig::with_workers(1))
            .with_fail_fast(true)
            .run(tasks, |ch| {
                let seed = ch.bench().module_seed();
                if seed == 70 {
                    return Err(CharError::Infra(rh_softmc::SoftMcError::Unresponsive {
                        after_ops: 1,
                    }));
                }
                Ok(seed)
            })
            .unwrap();
        assert_eq!(out.report.quarantined, 1);
        assert_eq!(out.report.cancelled, 3, "{:?}", out.report);
        assert!(out.results.is_empty());
    }

    #[test]
    fn campaign_checkpoint_resumes_a_job_table_to_identical_outcomes() {
        use std::time::Duration;
        let dir = std::env::temp_dir().join("rh-campaign-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("to-table-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);

        // Seeds 80..83: succeeded, recovered after one transient
        // failure, quarantined by a dead module, and wedged until the
        // watchdog times it out.
        let mut tasks: Vec<ModuleTask<'static>> = (80..83u64).map(smoke_task).collect();
        tasks.push(ModuleTask::new(module_id(Manufacturer::D, 83), |_attempt, token| {
            while !token.is_cancelled() {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(CharError::Cancelled { op: "wedged build".into() })
        }));
        let flaked = AtomicU32::new(0);
        let out: CampaignOutput<u64> = CampaignRunner::new()
            .with_executor(ExecutorConfig::with_workers(4).with_deadline(Duration::from_secs(8)))
            .with_checkpoint(&path)
            .run(tasks, |ch| match ch.bench().module_seed() {
                81 if flaked.fetch_add(1, Ordering::SeqCst) == 0 => Err(transient()),
                82 => Err(CharError::Infra(rh_softmc::SoftMcError::Unresponsive { after_ops: 1 })),
                seed => Ok(seed),
            })
            .unwrap();
        let statuses: Vec<_> = out.report.outcomes.iter().map(|o| o.status.clone()).collect();
        assert_eq!(statuses[..2], [ModuleStatus::Succeeded, ModuleStatus::Recovered { attempts: 2 }]);
        assert!(matches!(statuses[2], ModuleStatus::Quarantined { attempts: 1, .. }));
        assert!(matches!(statuses[3], ModuleStatus::TimedOut { deadline_ms: 8_000, .. }));

        let mut table = JobTable::new(FleetPolicy::default());
        for o in &out.report.outcomes {
            table.add_job(o.id.clone(), Value::Null);
        }
        table.with_checkpoint(&path).unwrap();
        assert!(table.is_done());
        let (outcomes, values): (Vec<_>, Vec<_>) = table.outcomes().into_iter().unzip();
        assert_eq!(outcomes, out.report.outcomes);
        let results: Vec<(String, u64)> = outcomes
            .iter()
            .zip(values)
            .filter_map(|(o, v)| Some((o.id.clone(), u64::from_json_value(&v?).unwrap())))
            .collect();
        assert_eq!(results, out.results);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn job_table_checkpoint_resumes_campaign_without_rerunning() {
        let dir = std::env::temp_dir().join("rh-campaign-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("from-table-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let ids: Vec<String> = (90..93u64).map(|seed| module_id(Manufacturer::D, seed)).collect();
        let mut table = JobTable::new(FleetPolicy::default());
        for id in &ids {
            table.add_job(id.clone(), Value::Null);
        }
        table.with_checkpoint(&path).unwrap();
        let g = table.grant(&ids[0], "w1", 0).unwrap();
        assert_eq!(table.commit(g.lease_id, 90u64.to_json_value()), CommitOutcome::Committed);
        let g = table.grant(&ids[1], "w1", 0).unwrap();
        assert!(matches!(table.fail(g.lease_id, "flake", true, 0), FailOutcome::Retrying { .. }));
        let g = table.grant(&ids[1], "w2", 0).unwrap();
        assert_eq!(table.commit(g.lease_id, 91u64.to_json_value()), CommitOutcome::Committed);
        let g = table.grant(&ids[2], "w1", 0).unwrap();
        assert_eq!(table.fail(g.lease_id, "module unresponsive", false, 0), FailOutcome::Quarantined);

        let tasks = ids
            .iter()
            .map(|id| ModuleTask::new(id.clone(), |_, _| panic!("resume must not rebuild a module")))
            .collect();
        let out: CampaignOutput<u64> = CampaignRunner::new()
            .with_checkpoint(&path)
            .run(tasks, |_| panic!("resume must not re-run a module"))
            .unwrap();
        assert_eq!(out.results, vec![(ids[0].clone(), 90), (ids[1].clone(), 91)]);
        let want: Vec<_> = table.outcomes().into_iter().map(|(o, _)| o).collect();
        assert_eq!(out.report.outcomes, want);
        assert_eq!(out.report.outcomes[1].status, ModuleStatus::Recovered { attempts: 2 });
        assert_eq!(out.report.outcomes[1].backoffs_ms.len(), 1);
        assert_eq!(out.report.quarantined, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn report_serializes_round_trip() {
        let report = CampaignReport::from_outcomes(vec![ModuleOutcome {
            id: "D-0000000000000001".into(),
            status: ModuleStatus::Recovered { attempts: 2 },
            errors: vec!["host link dropped command batch during run".into()],
            backoffs_ms: vec![104],
        }]);
        let v = serde_json::to_value(&report).unwrap();
        let back = CampaignReport::from_json_value(&v).unwrap();
        assert_eq!(report, back);
        assert!(report.summary_line().contains("1 recovered"));
    }
}
