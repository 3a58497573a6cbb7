#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Lightweight observability for the RowHammer reproduction stack.
//!
//! The real SoftMC rigs behind the MICRO '21 sensitivities paper are
//! trusted because their runs are *inspectable*: command counts,
//! per-phase timings, and fault logs exist for every campaign. This
//! crate provides the simulated equivalent. Instrumentation points
//! throughout `rh-softmc`, `rh-dram`, `rh-core`, and `rh-defense`
//! record:
//!
//! - **counters** — monotonic tallies (`softmc.cmd.act`, `dram.flip`),
//! - **gauges** — last-write-wins measurements (`dram.rows_stored`),
//! - **histograms** — log-bucketed latencies (`dram.row.write.ns`),
//! - **events** — timestamped records with fields
//!   (`campaign.quarantine { module, attempts, error }`),
//! - **spans** — scoped timers emitted on drop (`core.hc_first`).
//!
//! Counters, gauges and histograms are lock-free per-call-site
//! statics ([`counter!`], [`gauge!`], [`histogram!`], [`timer!`])
//! registered in [`hist`] on first touch. Events and spans go to the
//! one process-global [`Recorder`], which keeps the trace.
//!
//! # Overhead contract
//!
//! With no recorder installed every call is one relaxed atomic load
//! and a branch; `span()` does not even read the clock. Instrumentation
//! is therefore safe to leave in hot paths (the temperature-sweep bench
//! must regress < 5 % with observability disabled). With a recorder
//! installed, a counter add is one relaxed RMW on the calling thread's
//! shard and a gauge set one relaxed store; only events and spans
//! take the [`Recorder`]'s mutex, once per record.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! let rec = Arc::new(rh_obs::Recorder::new());
//! rh_obs::install(rec.clone());
//! rh_obs::counter!("softmc.cmd.act", 2);
//! rh_obs::gauge!("dram.rows_stored", 5.0);
//! {
//!     let mut s = rh_obs::span("core.hc_first");
//!     s.set("row", 1024u64);
//! } // span recorded on drop
//! rh_obs::event("campaign.retry", &[("attempt", 2u64.into())]);
//! rh_obs::uninstall();
//!
//! assert_eq!(rec.counter_value("softmc.cmd.act"), 2);
//! assert_eq!(rec.gauge_value("dram.rows_stored"), Some(5.0));
//! let jsonl = rec.to_jsonl();
//! assert!(jsonl.lines().count() >= 2);
//! ```

pub mod analyze;
pub mod client;
pub mod export;
pub mod faultnet;
pub mod hist;
pub mod names;
mod recorder;
pub mod serve;
pub mod stream;
pub mod trace;

pub use client::{http_get, http_post, ClientResponse};
pub use faultnet::{NetFault, NetFaultInjector, NetFaultPlan};
pub use stream::{EventBatch, EventDedup, EventKind, EventRing, JobEvent};
pub use hist::{Counter, Gauge, HistSnapshot, Histogram, TimerGuard};
pub use recorder::{Recorder, SpanStat, TraceRecord};
pub use trace::{
    current_context, format_traceparent, parse_traceparent, set_remote_parent, SpanIds,
    TraceContext,
};
pub use serve::{
    serve, serve_with, HttpRequest, HttpResponse, ServeConfig, TelemetryServer, TelemetrySource,
};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// A dynamically typed field value attached to events and spans.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl FieldValue {
    /// Renders the value as a JSON fragment onto `out`.
    pub(crate) fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            FieldValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            FieldValue::Str(s) => recorder::push_json_string(out, s),
            FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(i64::from(v))
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// Fast-path switch: avoids taking the recorder lock when disabled.
static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: RwLock<Option<Arc<Recorder>>> = RwLock::new(None);

fn with_recorder(f: impl FnOnce(&Recorder)) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let guard = match RECORDER.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(recorder) = guard.as_ref() {
        f(recorder);
    }
}

/// Installs `recorder` as the process-global destination of span and
/// event records and enables instrumentation. Replaces any previous
/// recorder and zeroes every registered histogram, counter and gauge
/// ([`hist::reset_all`]) so the new session starts fresh.
pub fn install(recorder: Arc<Recorder>) {
    hist::reset_all();
    let mut guard = match RECORDER.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    *guard = Some(recorder);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disables instrumentation and removes the global recorder,
/// returning it. Registered counters, gauges and histograms keep
/// their values until the next [`install`].
pub fn uninstall() -> Option<Arc<Recorder>> {
    ENABLED.store(false, Ordering::SeqCst);
    let mut guard = match RECORDER.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    guard.take()
}

/// Whether a recorder is currently installed. Instrumentation points
/// may use this to skip building expensive field values.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

static NEXT_THREAD_ORDINAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ORDINAL: u64 = NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed);
}

/// A small dense per-thread ordinal (0, 1, 2, …) assigned on first
/// use; histogram and counter shards index by it so short-lived worker
/// pools map onto distinct shards. Falls back to 0 during thread
/// teardown.
pub fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.try_with(|o| *o).unwrap_or(0)
}

/// Records event `name` with `fields`. No-op when disabled.
pub fn event(name: &'static str, fields: &[(&'static str, FieldValue)]) {
    with_recorder(|r| r.event(name, fields));
}

/// Starts a scoped timer; the span is emitted when the guard drops.
/// When disabled at creation the guard is inert (no clock read, no
/// trace IDs minted — one relaxed atomic load total) and stays inert
/// even if a recorder is installed before it drops. When enabled, the
/// span joins the thread's current distributed trace (minting a fresh
/// trace when there is none) and becomes the current context until
/// the guard drops; see [`trace`].
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            name,
            start: None,
            fields: Vec::new(),
            ids: SpanIds::none(),
            prev: (0, 0),
        };
    }
    let (ids, prev) = trace::enter_span();
    SpanGuard { name, start: Some(Instant::now()), fields: Vec::new(), ids, prev }
}

/// Guard returned by [`span`]; emits a span record on drop.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    fields: Vec<(&'static str, FieldValue)>,
    ids: SpanIds,
    prev: (u128, u64),
}

impl SpanGuard {
    /// Attaches a field to the span (no-op on an inert guard).
    pub fn set(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.start.is_some() {
            self.fields.push((key, value.into()));
        }
    }

    /// The span's distributed-trace identity ([`SpanIds::none`] on an
    /// inert guard).
    #[must_use]
    pub fn ids(&self) -> SpanIds {
        self.ids
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            trace::exit_span(self.prev);
            let elapsed = start.elapsed();
            let fields = std::mem::take(&mut self.fields);
            with_recorder(|r| r.span_end(self.name, elapsed, self.ids, fields));
        }
    }
}

/// Opens a span with optional inline fields:
/// `span!("core.hc_first", row = victim.0, cap = 512u64)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {{
        let mut __rh_obs_span = $crate::span($name);
        $(__rh_obs_span.set(stringify!($key), $value);)+
        __rh_obs_span
    }};
}

/// Records event `$name`, building the field list — conversions,
/// `to_string()` calls in field expressions, everything — only when a
/// recorder is installed:
/// `event!(names::CAMPAIGN_RETRY_EVENT, module = id.as_str(), attempt = n)`.
/// The disabled path is a single relaxed atomic load with zero
/// formatting or allocation, so it is safe in hot paths where the
/// bare [`event`] function would eagerly evaluate its arguments.
#[macro_export]
macro_rules! event {
    ($name:expr $(,)?) => {
        if $crate::enabled() {
            $crate::event($name, &[]);
        }
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::event($name, &[$((stringify!($key), $crate::FieldValue::from($value))),+]);
        }
    };
}

/// Records `value` into a per-call-site static [`hist::Histogram`]:
/// `histogram!(rh_obs::names::DRAM_HAMMER_NS, elapsed_ns)`. The name
/// must be a constant expression. Disabled cost: one relaxed load.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {{
        static __RH_OBS_HIST: $crate::hist::Histogram = $crate::hist::Histogram::new($name);
        __RH_OBS_HIST.record($value);
    }};
}

/// Adds `delta` to a per-call-site static [`hist::Counter`]:
/// `counter!(rh_obs::names::DRAM_ROW_WRITE, 1)`. The name must be a
/// constant expression. Disabled cost: one relaxed load; enabled, one
/// relaxed RMW on the calling thread's shard.
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {{
        static __RH_OBS_COUNTER: $crate::hist::Counter = $crate::hist::Counter::new($name);
        __RH_OBS_COUNTER.add($delta);
    }};
}

/// Sets a per-call-site static [`hist::Gauge`] to `value` (an `f64`),
/// last write wins: `gauge!(rh_obs::names::DRAM_ROWS_STORED, n as f64)`.
/// The name must be a constant expression set from this one site (see
/// [`hist::Gauge`]). Disabled cost: one relaxed load; enabled, one
/// relaxed store.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {{
        static __RH_OBS_GAUGE: $crate::hist::Gauge = $crate::hist::Gauge::new($name);
        __RH_OBS_GAUGE.set($value);
    }};
}

/// Starts a scoped timer recording elapsed nanoseconds into a
/// per-call-site static [`hist::Histogram`] when the guard drops:
/// `let _t = timer!(rh_obs::names::CAMPAIGN_MODULE_NS);`. Inert (no
/// clock read) when observability is disabled at creation.
#[macro_export]
macro_rules! timer {
    ($name:expr) => {{
        static __RH_OBS_HIST: $crate::hist::Histogram = $crate::hist::Histogram::new($name);
        __RH_OBS_HIST.timer()
    }};
}

/// The recorder slot and the registry are process-global; unit tests
/// that install a recorder (which resets the registry) or read the
/// registry must serialize on this lock.
#[cfg(test)]
pub(crate) mod testlock {
    use std::sync::{Mutex, MutexGuard};

    static TEST_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn locked() -> MutexGuard<'static, ()> {
        match TEST_LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testlock::locked;
    use std::time::Duration;

    #[test]
    fn disabled_is_inert() {
        let _l = locked();
        uninstall();
        assert!(!enabled());
        counter!("x", 1);
        gauge!("y", 2.0);
        event("z", &[("a", 1u64.into())]);
        let mut s = span("w");
        s.set("k", "v");
        drop(s);
        assert!(!hist::counters_all().contains_key("x"), "a disabled counter! touched");
        assert!(!hist::gauges_all().contains_key("y"), "a disabled gauge! touched");
    }

    #[test]
    fn counters_events_spans_reach_the_recorder() {
        let _l = locked();
        let rec = Arc::new(Recorder::new());
        install(rec.clone());
        counter!("softmc.cmd", 3);
        counter!("softmc.cmd", 2);
        gauge!("temp_c", 85.0);
        event("campaign.retry", &[("attempt", 1u64.into()), ("module", "B-0".into())]);
        {
            let _s = span!("core.hc_first", row = 1024u32);
        }
        uninstall();
        assert_eq!(rec.counter_value("softmc.cmd"), 5);
        assert_eq!(rec.gauge_value("temp_c"), Some(85.0));
        assert_eq!(rec.events_named("campaign.retry"), 1);
        let spans = rec.span_stats();
        assert_eq!(spans.get("core.hc_first").map(|s| s.count), Some(1));
    }

    #[test]
    fn span_guard_created_disabled_stays_inert() {
        let _l = locked();
        uninstall();
        let s = span("late");
        let rec = Arc::new(Recorder::new());
        install(rec.clone());
        drop(s);
        uninstall();
        assert!(rec.span_stats().is_empty());
    }

    #[test]
    fn uninstall_returns_the_recorder() {
        let _l = locked();
        let rec = Arc::new(Recorder::new());
        install(rec.clone());
        counter!("a", 1);
        let got = uninstall().expect("recorder was installed");
        assert!(Arc::ptr_eq(&got, &rec));
        assert!(uninstall().is_none());
    }

    #[test]
    fn histogram_macro_respects_enabled() {
        let _l = locked();
        uninstall();
        // Disabled: record is dropped before touching the shards.
        histogram!("test.lib.hist_macro", 9999);
        let rec = Arc::new(Recorder::new());
        install(rec);
        histogram!("test.lib.hist_macro", 7);
        histogram!("test.lib.hist_macro", 130);
        uninstall();
        let snaps = hist::snapshot_all();
        let s = snaps
            .iter()
            .find(|s| s.name == "test.lib.hist_macro")
            .unwrap_or_else(|| panic!("histogram not registered"));
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 137);
        assert_eq!(s.max, 130);
    }

    #[test]
    fn timer_macro_records_nanoseconds() {
        let _l = locked();
        let rec = Arc::new(Recorder::new());
        install(rec);
        {
            let _t = timer!("test.lib.timer_macro");
            std::thread::sleep(Duration::from_millis(2));
        }
        uninstall();
        let snaps = hist::snapshot_all();
        let s = snaps
            .iter()
            .find(|s| s.name == "test.lib.timer_macro")
            .unwrap_or_else(|| panic!("timer histogram not registered"));
        assert_eq!(s.count, 1);
        assert!(s.max >= 2_000_000, "timer recorded {} ns, expected >= 2 ms", s.max);
    }

    #[test]
    fn timer_created_disabled_stays_inert() {
        let _l = locked();
        uninstall();
        let t = timer!("test.lib.timer_inert");
        let rec = Arc::new(Recorder::new());
        install(rec);
        drop(t);
        uninstall();
        assert!(!hist::snapshot_all().iter().any(|s| s.name == "test.lib.timer_inert"));
    }

    #[test]
    fn event_macro_builds_fields_only_when_enabled() {
        let _l = locked();
        uninstall();
        // Disabled: the field expressions must not even be evaluated.
        let mut evaluated = false;
        event!("test.lib.event_macro", probe = {
            evaluated = true;
            1u64
        });
        assert!(!evaluated, "disabled event! evaluated its fields");
        let rec = Arc::new(Recorder::new());
        install(rec.clone());
        event!("test.lib.event_macro", module = "B-3", attempt = 2u64);
        event!("test.lib.event_bare");
        uninstall();
        assert_eq!(rec.events_named("test.lib.event_macro"), 1);
        assert_eq!(rec.events_named("test.lib.event_bare"), 1);
        let records = rec.records();
        let rec_fields = &records
            .iter()
            .find(|r| r.name == "test.lib.event_macro")
            .unwrap_or_else(|| panic!("event missing"))
            .fields;
        assert_eq!(rec_fields[0], ("module", FieldValue::Str("B-3".into())));
        assert_eq!(rec_fields[1], ("attempt", FieldValue::U64(2)));
    }

    #[test]
    fn thread_ordinals_are_distinct() {
        let a = thread_ordinal();
        let b = std::thread::spawn(thread_ordinal)
            .join()
            .unwrap_or_else(|_| panic!("ordinal thread panicked"));
        assert_ne!(a, b);
        assert_eq!(a, thread_ordinal());
    }

    #[test]
    fn field_value_conversions() {
        assert_eq!(FieldValue::from(3u32), FieldValue::U64(3));
        assert_eq!(FieldValue::from(3usize), FieldValue::U64(3));
        assert_eq!(FieldValue::from(-3i32), FieldValue::I64(-3));
        assert_eq!(FieldValue::from(true), FieldValue::Bool(true));
        assert_eq!(FieldValue::from("s"), FieldValue::Str("s".into()));
    }
}
