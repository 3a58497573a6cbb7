//! The supervised execution layer: a bounded worker pool with per-task
//! wall-clock deadlines and cooperative cancellation.
//!
//! The paper's campaigns sweep hundreds of modules; spawning one OS
//! thread per module oversubscribes the host, and a single wedged bench
//! (a hung host link, a dead temperature rig) would otherwise run
//! forever. [`supervise`] fixes both:
//!
//! * **Bounded concurrency** — `max_workers` OS threads take tasks in
//!   order from one shared cursor (every task is known before the pool
//!   starts), so uneven module runtimes still saturate the pool.
//! * **Deadlines** — an optional watchdog thread wakes every
//!   [`ExecutorConfig::watchdog_interval`], and when a task has been
//!   running past [`ExecutorConfig::module_deadline`] it *decides* the
//!   task's outcome itself (via the caller's `on_timeout`) and cancels
//!   the task's [`CancelToken`]. The other workers go on with the
//!   remaining tasks; the wedged worker unwinds at its next cancel
//!   check, and its late result is dropped. `supervise` returns once
//!   every worker has finished, the unwound one included.
//! * **Cancellation** — every task gets a child of the caller's token.
//!   Cancelling the root (SIGINT, `--fail-fast`) makes queued tasks
//!   resolve through `on_cancelled` without running, while in-flight
//!   tasks unwind cooperatively.
//!
//! Exactly one of {worker, watchdog, cancellation} decides each task —
//! a per-slot atomic state machine arbitrates, so a worker finishing
//! just as the watchdog fires cannot produce two outcomes.

use rh_softmc::CancelToken;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
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
/// worker pool, enforcing `cfg`'s deadline with a watchdog.
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
/// Returns all `n` results in task order, once every worker thread has
/// finished. A timed-out task is decided at its deadline, but its
/// worker is still joined: the call waits for it to unwind at its next
/// cancel check (the task token is cancelled at the timeout), then
/// drops its late result.
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
    // Every task is known before the pool starts: a worker takes the
    // next one by bumping the cursor, and its queue wait is simply take
    // time minus pool start. Both counters publish no other data (slot
    // state has its own ordering, and results are read after the scope
    // joins), so both are `Relaxed`; `decided` only ends the
    // watchdog's loop.
    let next = AtomicUsize::new(0);
    let decided = AtomicUsize::new(0);
    let pool_start = Instant::now();

    // Decides slot `idx` with `r` if nobody has yet; the winner commits
    // and bumps the decision count.
    let decide = |idx: usize, r: R, from: u8| -> bool {
        let won = slots[idx]
            .state
            .compare_exchange(from, state::DONE, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if won {
            commit(idx, &r);
            *lock(&slots[idx].result) = Some(r);
            decided.fetch_add(1, Ordering::Relaxed);
        }
        won
    };

    std::thread::scope(|s| {
        for _ in 0..workers {
            let slots = &slots;
            let next = &next;
            let work = &work;
            let on_cancelled = &on_cancelled;
            let decide = &decide;
            s.spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                if rh_obs::enabled() {
                    let wait_ns =
                        u64::try_from(pool_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    rh_obs::histogram!(names::EXECUTOR_QUEUE_WAIT_NS, wait_ns);
                }
                rh_obs::gauge(names::EXECUTOR_QUEUE_DEPTH, (n - idx - 1) as f64);
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
                while decided.load(Ordering::Relaxed) < n {
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
                            // cancel check; it then takes the next
                            // task, if any is left.
                            slot.token.cancel();
                        }
                    }
                }
                span.set("ticks", ticks);
                span.set("timeouts", timeouts);
                span.set("deadline_ms", deadline.as_millis() as u64);
            });
        }
    });

    let results: Vec<R> = slots.into_iter().filter_map(|s| lock(&s.result).take()).collect();
    assert_eq!(results.len(), n, "executor invariant: every slot decided exactly once");
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

    /// `work(idx)` for every `idx in 0..n` under `supervise` with no
    /// deadline and an inert cancel token, so only `work` decides.
    fn run_all<R: Send>(
        cfg: &ExecutorConfig,
        n: usize,
        work: impl Fn(usize) -> R + Sync,
    ) -> Vec<R> {
        supervise(
            cfg,
            &CancelToken::new(),
            n,
            |idx, _| work(idx),
            |idx, _| panic!("task {idx} timed out without a deadline"),
            |idx| panic!("task {idx} cancelled by an inert token"),
            |_, _| {},
        )
    }

    #[test]
    fn supervise_returns_results_in_task_order() {
        let out = run_all(&ExecutorConfig::with_workers(3), 20, |i| i * 2);
        assert_eq!(out, (0..20).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn hundred_tasks_never_exceed_max_workers_live() {
        let counter = LiveCounter::new();
        let cfg = ExecutorConfig::with_workers(4);
        let out = run_all(&cfg, 100, |i| {
            counter.enter();
            std::thread::sleep(Duration::from_millis(1));
            counter.exit();
            i
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
        let out = run_all(&ExecutorConfig::with_workers(0), 3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
        let out = run_all(&ExecutorConfig::with_workers(1), 10, |i| i);
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
    fn supervise_joins_a_timed_out_task_and_drops_its_late_result() {
        let cfg = ExecutorConfig::with_workers(2).with_deadline(Duration::from_millis(20));
        let timed_out = Mutex::new(None);
        let unwound = Mutex::new(None);
        let committed = Mutex::new(Vec::new());
        let out = supervise(
            &cfg,
            &CancelToken::new(),
            3,
            |idx, token| {
                if idx == 0 {
                    while !token.is_cancelled() {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    // A slow unwind: still running long after the token
                    // fired.
                    std::thread::sleep(Duration::from_millis(200));
                    *lock(&unwound) = Some(Instant::now());
                    return "late";
                }
                "ok"
            },
            |_, _| {
                *lock(&timed_out) = Some(Instant::now());
                "timed-out"
            },
            |_| "cancelled",
            |idx, r| lock(&committed).push((idx, *r)),
        );
        let returned = Instant::now();
        let timed_out = lock(&timed_out).expect("the watchdog must time task 0 out");
        let unwound = lock(&unwound).expect("supervise returned before task 0 unwound");
        assert!(unwound <= returned);
        assert!(returned - timed_out >= Duration::from_millis(200), "did not wait for the unwind");
        assert_eq!(out, vec!["timed-out", "ok", "ok"]);
        let mut committed = lock(&committed).clone();
        committed.sort_unstable();
        assert_eq!(committed, vec![(0, "timed-out"), (1, "ok"), (2, "ok")]);
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
    fn a_slow_task_does_not_serialize_the_rest() {
        // While one worker is busy with the slow first task, the other
        // takes everything else.
        let cfg = ExecutorConfig::with_workers(2);
        let start = Instant::now();
        let out = run_all(&cfg, 12, |idx| {
            if idx == 0 {
                std::thread::sleep(Duration::from_millis(40));
            }
            idx
        });
        assert_eq!(out.len(), 12);
        assert!(
            start.elapsed() < Duration::from_millis(400),
            "the other worker should run around the slow task"
        );
    }
}
