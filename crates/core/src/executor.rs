//! The supervised execution layer: a bounded work-stealing worker pool
//! with per-task wall-clock deadlines and cooperative cancellation.
//!
//! The paper's campaigns sweep hundreds of modules; spawning one OS
//! thread per module oversubscribes the host, and a single wedged bench
//! (a hung host link, a dead temperature rig) blocks a scoped join
//! forever. [`supervise`] fixes both:
//!
//! * **Bounded concurrency** — `max_workers` OS threads share the task
//!   queue. Each worker owns a deque and steals from its siblings when
//!   its own runs dry, so uneven module runtimes still saturate the
//!   pool.
//! * **Deadlines** — an optional watchdog thread wakes every
//!   [`ExecutorConfig::watchdog_interval`], and when a task has been
//!   running past [`ExecutorConfig::module_deadline`] it *decides* the
//!   task's outcome itself (via the caller's `on_timeout`) and cancels
//!   the task's [`CancelToken`]. The pool does not wait for the wedged
//!   worker: the campaign completes, and the worker unwinds at its next
//!   command boundary and rejoins the pool.
//! * **Cancellation** — every task gets a child of the caller's token.
//!   Cancelling the root (SIGINT, `--fail-fast`) makes queued tasks
//!   resolve through `on_cancelled` without running, while in-flight
//!   tasks unwind cooperatively.
//!
//! Exactly one of {worker, watchdog, cancellation} decides each task —
//! a per-slot atomic state machine arbitrates, so a worker finishing
//! just as the watchdog fires cannot produce two outcomes.

use rh_softmc::CancelToken;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use rh_obs::names;

/// Concurrency and deadline policy for a supervised run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutorConfig {
    /// Worker threads in the pool (clamped to ≥ 1 and to the number of
    /// tasks). Defaults to the host's available parallelism.
    pub max_workers: usize,
    /// Wall-clock budget per task; `None` disables the watchdog.
    pub module_deadline: Option<Duration>,
    /// How often the watchdog scans running tasks for overruns.
    pub watchdog_interval: Duration,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            max_workers: default_parallelism(),
            module_deadline: None,
            watchdog_interval: Duration::from_millis(5),
        }
    }
}

impl ExecutorConfig {
    /// A config with `max_workers` workers and no deadline.
    pub fn with_workers(max_workers: usize) -> Self {
        Self { max_workers, ..Self::default() }
    }

    /// Sets the per-task deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.module_deadline = Some(deadline);
        self
    }
}

/// The host's available parallelism, falling back to 4 when the OS
/// refuses to say.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(4, usize::from)
}

/// Who decided a slot's outcome.
mod state {
    pub const PENDING: u8 = 0;
    pub const RUNNING: u8 = 1;
    pub const DONE: u8 = 2;
}

struct Slot<R> {
    state: AtomicU8,
    /// Set when a worker picks the task up; read by the watchdog.
    started: Mutex<Option<Instant>>,
    token: CancelToken,
    result: Mutex<Option<R>>,
}

/// Recovers from a poisoned lock: the protected state here is plain
/// data (no invariants broken mid-update matters for supervision).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `work(idx, task_token)` for every `idx in 0..n` on a bounded
/// work-stealing pool, enforcing `cfg`'s deadline with a watchdog.
///
/// Each slot's outcome is produced by exactly one of:
/// * `work` — the normal path (the worker that ran it decides);
/// * `on_timeout(idx, elapsed)` — the watchdog decides at the deadline
///   and cancels the task token; the still-running worker's eventual
///   return value is discarded;
/// * `on_cancelled(idx)` — the task was still queued when `cancel`
///   fired, so it resolves without running.
///
/// `commit(idx, &result)` runs exactly once per slot, on the deciding
/// thread, right after the decision — the hook campaigns use to
/// persist checkpoints and trip fail-fast cancellation.
///
/// Returns all `n` results in task order. The call returns as soon as
/// every slot is decided, which may be *before* a wedged worker has
/// unwound; workers are detached from the rendezvous, never joined.
pub fn supervise<R, W, T, C, K>(
    cfg: &ExecutorConfig,
    cancel: &CancelToken,
    n: usize,
    work: W,
    on_timeout: T,
    on_cancelled: C,
    commit: K,
) -> Vec<R>
where
    R: Send,
    W: Fn(usize, &CancelToken) -> R + Sync,
    T: Fn(usize, Duration) -> R + Sync,
    C: Fn(usize) -> R + Sync,
    K: Fn(usize, &R) + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = cfg.max_workers.clamp(1, n);
    let slots: Vec<Slot<R>> = (0..n)
        .map(|_| Slot {
            state: AtomicU8::new(state::PENDING),
            started: Mutex::new(None),
            token: cancel.child(),
            result: Mutex::new(None),
        })
        .collect();
    // Deal tasks round-robin across per-worker deques; a worker pops
    // its own front (LIFO-ish locality does not matter here) and
    // steals from siblings' backs when empty.
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for idx in 0..n {
        lock(&queues[idx % workers]).push_back(idx);
    }
    let queued = AtomicUsize::new(n);
    let decided = Mutex::new(0usize);
    let all_done = Condvar::new();
    // Every task is enqueued before the pool starts, so queue wait is
    // simply pop time minus pool start.
    let pool_start = Instant::now();

    // Decides slot `idx` with `r` if nobody has yet; the winner commits
    // and bumps the rendezvous count.
    let decide = |idx: usize, r: R, from: u8| -> bool {
        let won = slots[idx]
            .state
            .compare_exchange(from, state::DONE, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if won {
            commit(idx, &r);
            *lock(&slots[idx].result) = Some(r);
            let mut done = lock(&decided);
            *done += 1;
            if *done == n {
                all_done.notify_all();
            }
        }
        won
    };

    std::thread::scope(|s| {
        for w in 0..workers {
            let slots = &slots;
            let queues = &queues;
            let queued = &queued;
            let work = &work;
            let on_cancelled = &on_cancelled;
            let decide = &decide;
            s.spawn(move || while let Some(idx) = pop_task(queues, w) {
                if rh_obs::enabled() {
                    let wait_ns =
                        u64::try_from(pool_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    rh_obs::histogram!(names::EXECUTOR_QUEUE_WAIT_NS, wait_ns);
                }
                rh_obs::gauge(
                    names::EXECUTOR_QUEUE_DEPTH,
                    queued.fetch_sub(1, Ordering::Relaxed).saturating_sub(1) as f64,
                );
                if cancel.is_cancelled() {
                    decide(idx, on_cancelled(idx), state::PENDING);
                    continue;
                }
                *lock(&slots[idx].started) = Some(Instant::now());
                if slots[idx]
                    .state
                    .compare_exchange(
                        state::PENDING,
                        state::RUNNING,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_err()
                {
                    continue;
                }
                let r = work(idx, &slots[idx].token);
                // Losing the race means the watchdog already timed this
                // slot out; the late result is dropped.
                decide(idx, r, state::RUNNING);
            });
        }

        if let Some(deadline) = cfg.module_deadline {
            let slots = &slots;
            let decided = &decided;
            let on_timeout = &on_timeout;
            let decide = &decide;
            let interval = cfg.watchdog_interval.max(Duration::from_millis(1));
            s.spawn(move || {
                let mut span = rh_obs::span(names::EXECUTOR_WATCHDOG);
                let mut ticks = 0u64;
                let mut timeouts = 0u64;
                while *lock(decided) < n {
                    std::thread::park_timeout(interval);
                    ticks += 1;
                    for (idx, slot) in slots.iter().enumerate() {
                        if slot.state.load(Ordering::Acquire) != state::RUNNING {
                            continue;
                        }
                        let Some(t0) = *lock(&slot.started) else { continue };
                        let elapsed = t0.elapsed();
                        if elapsed <= deadline {
                            continue;
                        }
                        if decide(idx, on_timeout(idx, elapsed), state::RUNNING) {
                            timeouts += 1;
                            // Unwind the wedged worker at its next
                            // command boundary; it then rejoins the
                            // pool for the remaining tasks.
                            slot.token.cancel();
                        }
                    }
                }
                span.set("ticks", ticks);
                span.set("timeouts", timeouts);
                span.set("deadline_ms", deadline.as_millis() as u64);
            });
        }

        // Rendezvous on decisions, not on thread joins: a wedged worker
        // must not block campaign completion. (The scope itself still
        // joins its threads on exit; workers unwind promptly because a
        // timed-out task's token is cancelled.)
        let mut done = lock(&decided);
        while *done < n {
            done = all_done
                .wait_timeout(done, Duration::from_millis(50))
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    });

    let results: Vec<R> = slots.into_iter().filter_map(|s| lock(&s.result).take()).collect();
    assert_eq!(results.len(), n, "executor invariant: every slot decided exactly once");
    results
}

/// Pops the next task for worker `w`: own queue first, then steal from
/// the back of the busiest-looking sibling.
fn pop_task(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(idx) = lock(&queues[w]).pop_front() {
        return Some(idx);
    }
    let k = queues.len();
    for off in 1..k {
        if let Some(idx) = lock(&queues[(w + off) % k]).pop_back() {
            return Some(idx);
        }
    }
    None
}

/// Bounded-concurrency map over owned items with no deadline and no
/// external cancellation: the simple pool [`parallel_modules`]
/// (crate::experiments::parallel_modules) runs on. Results come back in
/// input order.
pub fn run_bounded<I, R, F>(cfg: &ExecutorConfig, items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    let cells: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let cancel = CancelToken::new();
    let cfg = ExecutorConfig { module_deadline: None, ..cfg.clone() };
    let out: Vec<Option<R>> = supervise(
        &cfg,
        &cancel,
        cells.len(),
        |idx, _token| lock(&cells[idx]).take().map(|item| f(idx, item)),
        // No deadline and an inert token: these arms cannot run.
        |_, _| None,
        |_| None,
        |_, _| {},
    );
    let results: Vec<R> = out.into_iter().flatten().collect();
    assert_eq!(results.len(), cells.len(), "bounded pool ran every item exactly once");
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Tracks the high-water mark of concurrently live tasks.
    struct LiveCounter {
        live: AtomicUsize,
        peak: AtomicUsize,
    }

    impl LiveCounter {
        fn new() -> Self {
            Self { live: AtomicUsize::new(0), peak: AtomicUsize::new(0) }
        }
        fn enter(&self) {
            let now = self.live.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
        }
        fn exit(&self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
        fn peak(&self) -> usize {
            self.peak.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn run_bounded_returns_results_in_input_order() {
        let cfg = ExecutorConfig::with_workers(3);
        let out = run_bounded(&cfg, (0..20u64).collect(), |_, x| x * 2);
        assert_eq!(out, (0..20u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn hundred_tasks_never_exceed_max_workers_live() {
        let counter = LiveCounter::new();
        let cfg = ExecutorConfig::with_workers(4);
        let out = run_bounded(&cfg, (0..100u64).collect(), |_, x| {
            counter.enter();
            std::thread::sleep(Duration::from_millis(1));
            counter.exit();
            x
        });
        assert_eq!(out.len(), 100);
        assert!(counter.peak() >= 1);
        assert!(
            counter.peak() <= 4,
            "pool leaked concurrency: {} tasks live at once with max_workers=4",
            counter.peak()
        );
    }

    #[test]
    fn zero_and_one_worker_configs_still_complete() {
        // max_workers is clamped to ≥ 1.
        let out = run_bounded(&ExecutorConfig::with_workers(0), vec![1, 2, 3], |_, x| x);
        assert_eq!(out, vec![1, 2, 3]);
        let out = run_bounded(&ExecutorConfig::with_workers(1), (0..10).collect(), |i, _| i);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn watchdog_times_out_a_wedged_task_without_blocking_the_rest() {
        let cfg = ExecutorConfig::with_workers(2)
            .with_deadline(Duration::from_millis(30));
        let cancel = CancelToken::new();
        let start = Instant::now();
        let out = supervise(
            &cfg,
            &cancel,
            5,
            |idx, token| {
                if idx == 2 {
                    // Cooperative wedge: blocks until the watchdog
                    // cancels this task's token.
                    while !token.is_cancelled() {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    return "unwound";
                }
                "ok"
            },
            |_, _| "timed-out",
            |_| "cancelled",
            |_, _| {},
        );
        assert_eq!(out, vec!["ok", "ok", "timed-out", "ok", "ok"]);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "campaign must complete within the deadline budget, not block on the wedge"
        );
    }

    #[test]
    fn cancelling_the_root_resolves_queued_tasks_without_running_them() {
        let cfg = ExecutorConfig::with_workers(1);
        let cancel = CancelToken::new();
        let ran = AtomicUsize::new(0);
        let out = supervise(
            &cfg,
            &cancel,
            10,
            |idx, _| {
                ran.fetch_add(1, Ordering::SeqCst);
                if idx == 0 {
                    // First task trips the campaign-wide cancel.
                    cancel.cancel();
                }
                "ran"
            },
            |_, _| "timed-out",
            |_| "cancelled",
            |_, _| {},
        );
        assert_eq!(out[0], "ran");
        assert!(out[1..].iter().all(|&r| r == "cancelled"), "{out:?}");
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn commit_runs_exactly_once_per_slot() {
        let committed = Mutex::new(Vec::new());
        let cfg = ExecutorConfig::with_workers(3);
        let cancel = CancelToken::new();
        supervise(
            &cfg,
            &cancel,
            8,
            |idx, _| idx,
            |_, _| usize::MAX,
            |_| usize::MAX,
            |idx, r| {
                lock(&committed).push((idx, *r));
            },
        );
        let mut seen = lock(&committed).clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).map(|i| (i, i)).collect::<Vec<_>>());
    }

    #[test]
    fn work_stealing_drains_an_unbalanced_queue() {
        // One slow task dealt to worker 0 must not serialize the rest:
        // worker 1 steals everything else while 0 is busy.
        let cfg = ExecutorConfig::with_workers(2);
        let start = Instant::now();
        let out = run_bounded(&cfg, (0..12u64).collect(), |idx, x| {
            if idx == 0 {
                std::thread::sleep(Duration::from_millis(40));
            }
            x
        });
        assert_eq!(out.len(), 12);
        assert!(
            start.elapsed() < Duration::from_millis(400),
            "siblings should steal around the slow task"
        );
    }
}
