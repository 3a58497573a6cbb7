//! Live campaign progress: per-module slot accounting, a
//! throughput-based ETA, and periodic heartbeat publication.
//!
//! A [`ProgressTracker`] is shared (as an `Arc`) between a
//! [`CampaignRunner`](crate::campaign::CampaignRunner) — which admits
//! the module total, marks modules running via RAII guards, and
//! records each terminal status where the job table decides it — and
//! whatever wants to watch the campaign: the telemetry server's
//! `/progress` endpoint, `repro top`, or a test. Every state change
//! also publishes the `campaign.progress.*` gauges and, rate-limited,
//! a `campaign.heartbeat` event, so the in-flight state is visible in
//! `/metrics`, the trace, and the rollup series without any extra
//! plumbing.
//!
//! The ETA is deliberately simple — remaining modules divided by the
//! observed completion throughput — and is [`None`] until the first
//! module completes, so there is never a NaN, an infinity, or a
//! made-up number on the wire.

use crate::campaign::ModuleStatus;
use rh_obs::names;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Minimum spacing between `campaign.heartbeat` events.
const HEARTBEAT_INTERVAL: Duration = Duration::from_secs(1);

/// Throughput-based remaining-time estimate, as a pure function so it
/// can be tested without clocks: with `completed` of `total` modules
/// done after `elapsed_ms`, assumes the observed rate holds.
///
/// Returns `None` before the first completion (no rate to extrapolate
/// from — never a NaN or infinity), and `Some(0)` once everything is
/// done.
#[must_use]
pub fn eta_ms(completed: usize, total: usize, elapsed_ms: u64) -> Option<u64> {
    if completed == 0 {
        return if total == 0 { Some(0) } else { None };
    }
    if completed >= total {
        return Some(0);
    }
    let remaining = (total - completed) as u128;
    let per_module = u128::from(elapsed_ms);
    Some(u64::try_from(remaining * per_module / completed as u128).unwrap_or(u64::MAX))
}

#[derive(Debug, Default)]
struct Inner {
    total: usize,
    running: usize,
    succeeded: usize,
    recovered: usize,
    quarantined: usize,
    timed_out: usize,
    cancelled: usize,
    last_heartbeat: Option<Instant>,
}

impl Inner {
    fn completed(&self) -> usize {
        self.succeeded + self.recovered + self.quarantined + self.timed_out + self.cancelled
    }
}

/// Point-in-time view of a campaign's progress. `pending` is derived
/// (`total - completed - running`, floored at 0: a timed-out module's
/// worker may still be unwinding while its terminal status is already
/// counted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Modules admitted to the campaign.
    pub total: usize,
    /// Modules not yet started.
    pub pending: usize,
    /// Modules currently inside a worker.
    pub running: usize,
    /// Modules that succeeded first try.
    pub succeeded: usize,
    /// Modules that recovered after retries.
    pub recovered: usize,
    /// Modules quarantined after exhausting attempts.
    pub quarantined: usize,
    /// Modules timed out by the watchdog.
    pub timed_out: usize,
    /// Modules cancelled (queued or in flight).
    pub cancelled: usize,
    /// Wall time since the tracker was created, ms.
    pub elapsed_ms: u64,
    /// Estimated remaining wall time, ms; `None` until the first
    /// module completes.
    pub eta_ms: Option<u64>,
}

impl ProgressSnapshot {
    /// Modules with a terminal status (any outcome).
    #[must_use]
    pub fn completed(&self) -> usize {
        self.succeeded + self.recovered + self.quarantined + self.timed_out + self.cancelled
    }

    /// Whether every admitted module has a terminal status.
    #[must_use]
    pub fn done(&self) -> bool {
        self.completed() >= self.total
    }

    /// Renders the snapshot as the `/progress` JSON object (trailing
    /// newline included).
    #[must_use]
    pub fn to_json(&self) -> String {
        let eta = self.eta_ms.map_or_else(|| "null".to_string(), |e| e.to_string());
        format!(
            "{{\"total\":{},\"pending\":{},\"running\":{},\"succeeded\":{},\"recovered\":{},\
             \"quarantined\":{},\"timed_out\":{},\"cancelled\":{},\"completed\":{},\
             \"elapsed_ms\":{},\"eta_ms\":{eta},\"done\":{}}}\n",
            self.total,
            self.pending,
            self.running,
            self.succeeded,
            self.recovered,
            self.quarantined,
            self.timed_out,
            self.cancelled,
            self.completed(),
            self.elapsed_ms,
            self.done(),
        )
    }
}

/// Shared live-progress state for one or more campaigns. See the
/// [module docs](self).
#[derive(Debug)]
pub struct ProgressTracker {
    t0: Instant,
    inner: Mutex<Inner>,
    /// Per-worker event-stream cursors (`worker -> (last_seq,
    /// acked_seq)`), published by the fleet coordinator's journal
    /// ingestion. Kept beside `Inner` so [`ProgressSnapshot`] stays
    /// `Copy`; `/progress` splices them in via [`Self::progress_json`].
    streams: Mutex<BTreeMap<String, (u64, u64)>>,
}

impl Default for ProgressTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgressTracker {
    /// An empty tracker; the clock for `elapsed_ms`/ETA starts now.
    /// Heartbeat events are rate-limited to one per second.
    #[must_use]
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            inner: Mutex::new(Inner::default()),
            streams: Mutex::new(BTreeMap::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Admits `n` more modules. A tracker may serve several sequential
    /// campaigns (e.g. a multi-target `repro` run): totals accumulate.
    pub fn add_modules(&self, n: usize) {
        let mut inner = self.lock();
        inner.total = inner.total.saturating_add(n);
        self.publish(&mut inner);
    }

    /// Marks one module running until the returned guard drops. The
    /// guard is how worker unwinding (success, panic, or a discarded
    /// post-timeout result) always puts the slot back.
    pub fn running_guard(self: &Arc<Self>) -> RunningGuard {
        {
            let mut inner = self.lock();
            inner.running = inner.running.saturating_add(1);
            self.publish(&mut inner);
        }
        RunningGuard { tracker: Arc::clone(self) }
    }

    /// Records one module's terminal status. Call exactly once per
    /// module (the campaign runner records under the job table's lock,
    /// where the module's outcome is decided).
    pub fn record_status(&self, status: &ModuleStatus) {
        let mut inner = self.lock();
        match status {
            ModuleStatus::Succeeded => inner.succeeded += 1,
            ModuleStatus::Recovered { .. } => inner.recovered += 1,
            ModuleStatus::Quarantined { .. } => inner.quarantined += 1,
            ModuleStatus::TimedOut { .. } => inner.timed_out += 1,
            ModuleStatus::Cancelled { .. } => inner.cancelled += 1,
        }
        self.publish(&mut inner);
    }

    /// The current progress, with ETA derived from elapsed wall time.
    #[must_use]
    pub fn snapshot(&self) -> ProgressSnapshot {
        let elapsed_ms = self.elapsed_ms();
        let inner = self.lock();
        let completed = inner.completed();
        ProgressSnapshot {
            total: inner.total,
            pending: inner.total.saturating_sub(completed).saturating_sub(inner.running),
            running: inner.running,
            succeeded: inner.succeeded,
            recovered: inner.recovered,
            quarantined: inner.quarantined,
            timed_out: inner.timed_out,
            cancelled: inner.cancelled,
            elapsed_ms,
            eta_ms: eta_ms(completed, inner.total, elapsed_ms),
        }
    }

    fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Publishes one worker's event-stream cursor: the highest seq it
    /// has emitted and the highest seq the journal has durably
    /// ingested. The difference is that worker's journal lag.
    pub fn set_stream_cursor(&self, worker: &str, last_seq: u64, acked_seq: u64) {
        let mut streams = match self.streams.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        streams.insert(worker.to_string(), (last_seq, acked_seq));
    }

    /// Current `(worker, last_seq, acked_seq)` cursors, sorted by
    /// worker address. Empty for non-fleet campaigns.
    #[must_use]
    pub fn stream_cursors(&self) -> Vec<(String, u64, u64)> {
        let streams = match self.streams.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        streams.iter().map(|(w, &(l, a))| (w.clone(), l, a)).collect()
    }

    /// The `/progress` JSON body: [`ProgressSnapshot::to_json`] plus,
    /// when the coordinator has published any event-stream cursors, a
    /// `"streams"` array with per-worker journal lag. Non-fleet runs
    /// produce exactly the snapshot JSON, byte for byte.
    #[must_use]
    pub fn progress_json(&self) -> String {
        let base = self.snapshot().to_json();
        let cursors = self.stream_cursors();
        if cursors.is_empty() {
            return base;
        }
        let mut streams = String::from(",\"streams\":[");
        for (i, (worker, last_seq, acked_seq)) in cursors.iter().enumerate() {
            if i > 0 {
                streams.push(',');
            }
            let escaped: String = worker
                .chars()
                .flat_map(|c| match c {
                    '"' | '\\' => vec!['\\', c],
                    c => vec![c],
                })
                .collect();
            streams.push_str(&format!(
                "{{\"worker\":\"{escaped}\",\"last_seq\":{last_seq},\"acked_seq\":{acked_seq},\
                 \"lag\":{}}}",
                last_seq.saturating_sub(*acked_seq),
            ));
        }
        streams.push(']');
        // Splice before the closing `}` of the snapshot object.
        match base.rfind('}') {
            Some(pos) => {
                let mut out = base;
                out.insert_str(pos, &streams);
                out
            }
            None => base,
        }
    }

    /// Publishes the gauges unconditionally and a heartbeat event when
    /// one is due. Callers hold the lock, so the heartbeat timestamp
    /// update is race-free.
    fn publish(&self, inner: &mut Inner) {
        if !rh_obs::enabled() {
            return;
        }
        let completed = inner.completed();
        rh_obs::gauge(names::CAMPAIGN_PROGRESS_TOTAL, inner.total as f64);
        rh_obs::gauge(names::CAMPAIGN_PROGRESS_DONE, completed as f64);
        rh_obs::gauge(names::CAMPAIGN_PROGRESS_RUNNING, inner.running as f64);
        let elapsed_ms = self.elapsed_ms();
        let eta = eta_ms(completed, inner.total, elapsed_ms);
        if let Some(eta) = eta {
            rh_obs::gauge(names::CAMPAIGN_ETA_MS, eta as f64);
        }
        let due = inner
            .last_heartbeat
            .is_none_or(|last| last.elapsed() >= HEARTBEAT_INTERVAL);
        if due {
            inner.last_heartbeat = Some(Instant::now());
            rh_obs::event!(
                names::CAMPAIGN_HEARTBEAT,
                done = completed,
                total = inner.total,
                running = inner.running,
                elapsed_ms = elapsed_ms,
                eta_ms = eta.map_or(-1i64, |e| i64::try_from(e).unwrap_or(i64::MAX)),
            );
        }
    }
}

/// RAII handle from [`ProgressTracker::running_guard`]; decrements the
/// running count on drop.
#[derive(Debug)]
pub struct RunningGuard {
    tracker: Arc<ProgressTracker>,
}

impl Drop for RunningGuard {
    fn drop(&mut self) {
        let mut inner = self.tracker.lock();
        inner.running = inner.running.saturating_sub(1);
        self.tracker.publish(&mut inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eta_is_none_at_zero_completed_and_never_nan() {
        assert_eq!(eta_ms(0, 10, 5_000), None);
        assert_eq!(eta_ms(0, 0, 5_000), Some(0));
        assert_eq!(eta_ms(10, 10, 5_000), Some(0));
        assert_eq!(eta_ms(12, 10, 5_000), Some(0), "overshoot clamps to done");
    }

    #[test]
    fn eta_decreases_monotonically_under_steady_throughput() {
        // One module per 700 ms, 40 modules: after k completions the
        // estimate must never increase.
        let total = 40;
        let per_module_ms = 700u64;
        let mut last = u64::MAX;
        for k in 1..=total {
            let eta = eta_ms(k, total, k as u64 * per_module_ms)
                .unwrap_or_else(|| panic!("eta None at {k} completed"));
            assert!(eta <= last, "eta rose from {last} to {eta} at {k}/{total}");
            assert_eq!(eta, (total - k) as u64 * per_module_ms);
            last = eta;
        }
        assert_eq!(last, 0);
    }

    #[test]
    fn eta_does_not_overflow_on_extreme_inputs() {
        assert_eq!(eta_ms(1, usize::MAX, u64::MAX), Some(u64::MAX));
    }

    #[test]
    fn terminal_statuses_are_accounted_exactly_once() {
        let tracker = Arc::new(ProgressTracker::new());
        tracker.add_modules(5);
        {
            let _g = tracker.running_guard();
            assert_eq!(tracker.snapshot().running, 1);
            assert_eq!(tracker.snapshot().pending, 4);
        }
        assert_eq!(tracker.snapshot().running, 0);
        tracker.record_status(&ModuleStatus::Succeeded);
        tracker.record_status(&ModuleStatus::Recovered { attempts: 2 });
        tracker.record_status(&ModuleStatus::Quarantined {
            attempts: 3,
            error: "host link".into(),
        });
        tracker.record_status(&ModuleStatus::TimedOut { elapsed_ms: 9000, deadline_ms: 8000 });
        tracker.record_status(&ModuleStatus::Cancelled { attempts: 0 });
        let snap = tracker.snapshot();
        assert_eq!(
            (snap.succeeded, snap.recovered, snap.quarantined, snap.timed_out, snap.cancelled),
            (1, 1, 1, 1, 1)
        );
        assert_eq!(snap.completed(), 5);
        assert_eq!(snap.pending, 0);
        assert!(snap.done());
        assert_eq!(snap.eta_ms, Some(0));
    }

    #[test]
    fn pending_floors_at_zero_while_a_timed_out_worker_unwinds() {
        let tracker = Arc::new(ProgressTracker::new());
        tracker.add_modules(1);
        let guard = tracker.running_guard();
        // Watchdog decision lands while the worker is still running.
        tracker.record_status(&ModuleStatus::TimedOut { elapsed_ms: 2, deadline_ms: 1 });
        let snap = tracker.snapshot();
        assert_eq!(snap.pending, 0);
        assert_eq!(snap.running, 1);
        assert!(snap.done());
        drop(guard);
        assert_eq!(tracker.snapshot().running, 0);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let tracker = Arc::new(ProgressTracker::new());
        tracker.add_modules(3);
        tracker.record_status(&ModuleStatus::Succeeded);
        let json = tracker.snapshot().to_json();
        assert!(json.starts_with("{\"total\":3,"));
        assert!(json.contains("\"succeeded\":1"));
        assert!(json.contains("\"completed\":1"));
        assert!(json.contains("\"done\":false"));
        assert!(json.ends_with("}\n"));
        // Before any completion the ETA serializes as null, not NaN.
        let fresh = Arc::new(ProgressTracker::new());
        fresh.add_modules(2);
        assert!(fresh.snapshot().to_json().contains("\"eta_ms\":null"));
    }

    #[test]
    fn progress_json_splices_stream_cursors_only_when_present() {
        let tracker = Arc::new(ProgressTracker::new());
        tracker.add_modules(1);
        let plain = tracker.progress_json();
        assert_eq!(plain, tracker.snapshot().to_json(), "non-fleet runs are unchanged");
        tracker.set_stream_cursor("127.0.0.1:9002", 12, 9);
        tracker.set_stream_cursor("127.0.0.1:9001", 4, 4);
        let json = tracker.progress_json();
        assert!(json.ends_with("}\n"), "{json}");
        let streams_at = json.find(",\"streams\":[").unwrap_or_else(|| panic!("{json}"));
        let w1 = json.find("{\"worker\":\"127.0.0.1:9001\",\"last_seq\":4,\"acked_seq\":4,\"lag\":0}");
        let w2 = json.find("{\"worker\":\"127.0.0.1:9002\",\"last_seq\":12,\"acked_seq\":9,\"lag\":3}");
        assert!(w1.is_some() && w2.is_some(), "{json}");
        assert!(streams_at < w1.unwrap() && w1 < w2, "sorted by worker: {json}");
        // Re-publishing a cursor replaces, not appends.
        tracker.set_stream_cursor("127.0.0.1:9001", 8, 8);
        assert_eq!(tracker.stream_cursors().len(), 2);
    }

    #[test]
    fn totals_accumulate_across_campaigns() {
        let tracker = Arc::new(ProgressTracker::new());
        tracker.add_modules(2);
        tracker.record_status(&ModuleStatus::Succeeded);
        tracker.record_status(&ModuleStatus::Succeeded);
        assert!(tracker.snapshot().done());
        tracker.add_modules(3);
        let snap = tracker.snapshot();
        assert_eq!(snap.total, 5);
        assert!(!snap.done());
        assert_eq!(snap.pending, 3);
    }
}
