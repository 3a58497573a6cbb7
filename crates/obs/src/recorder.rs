//! The [`Recorder`]: the one destination of span and event records,
//! with JSONL trace export, an optional streaming trace file, and an
//! end-of-run metrics snapshot.
//!
//! Only spans and events take the recorder's mutex. Counters, gauges
//! and histograms are lock-free statics in [`crate::hist`]; the
//! recorder's readers ([`Recorder::counters`], [`Recorder::gauges`],
//! [`Recorder::metrics_json`]) read that registry, which
//! [`crate::install`] resets, so they describe the session since the
//! last install, whichever recorder is asked.
//!
//! JSON is rendered by hand (this crate keeps third-party code out of
//! the recording hot path); the output is plain RFC 8259 JSON, one
//! object per line for traces, which the analyzer in
//! [`crate::analyze`] reads back with the vendored `serde_json`.
//!
//! # Streaming vs. in-memory traces
//!
//! [`Recorder::new`] keeps up to [`MAX_RECORDS`] trace records in
//! memory and counts overflow as dropped. For soak-length runs use
//! [`Recorder::with_trace_file`]: every record is rendered once and
//! appended to a `BufWriter` as it arrives, so the trace on disk is
//! unbounded while memory stays bounded; the buffer is flushed on
//! every snapshot ([`Recorder::metrics_json`] and the `save_*`
//! methods) and on drop, so a trace survives a panicking campaign up
//! to the last flush. Failed writes are counted, never ignored:
//! anything the trace lost shows up as the `obs.dropped_records`
//! counter in the metrics snapshot.

use crate::{hist, FieldValue, SpanIds};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Cap on stored trace records; beyond it events are counted but
/// dropped (in-memory mode) so a runaway campaign cannot exhaust
/// memory. In streaming mode the file keeps everything and only the
/// in-memory query copy is bounded.
const MAX_RECORDS: usize = 1 << 20;

/// One timestamped trace record (event or completed span).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Microseconds since the recorder was created.
    pub ts_us: u64,
    /// `"event"` or `"span"`.
    pub kind: &'static str,
    /// Record name (e.g. `campaign.quarantine`).
    pub name: &'static str,
    /// Span duration; `None` for events.
    pub elapsed_us: Option<u64>,
    /// Emitting thread's [`crate::thread_ordinal`].
    pub tid: u64,
    /// Distributed trace identity (spans only, and only when the span
    /// ran inside a live trace). Rendered as zero-padded lowercase hex
    /// strings in the JSONL output.
    pub trace: Option<SpanIds>,
    /// Attached fields, in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// Aggregate timing for one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// Completed spans.
    pub count: u64,
    /// Total wall time, microseconds.
    pub total_us: u64,
    /// Longest single span, microseconds.
    pub max_us: u64,
}

#[derive(Default)]
struct Inner {
    spans: BTreeMap<&'static str, SpanStat>,
    records: Vec<TraceRecord>,
    writer: Option<BufWriter<File>>,
    dropped: u64,
}

/// Span aggregates and a bounded trace of events and spans, plus the
/// readers of the registered counters and gauges. Thread-safe; share
/// it as an `Arc` between [`crate::install`] and the exporter.
pub struct Recorder {
    t0: Instant,
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").finish_non_exhaustive()
    }
}

impl Recorder {
    /// Creates an empty recorder; timestamps are relative to now.
    pub fn new() -> Self {
        Self { t0: Instant::now(), inner: Mutex::new(Inner::default()) }
    }

    /// Creates a recorder that streams every trace record to `path`
    /// through a `BufWriter` as it arrives (see the module docs for
    /// the streaming contract).
    ///
    /// # Errors
    ///
    /// I/O errors from creating the trace file.
    pub fn with_trace_file(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        let rec = Self::new();
        rec.lock().writer = Some(BufWriter::new(file));
        Ok(rec)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn push_record(&self, inner: &mut Inner, record: TraceRecord) {
        if let Some(writer) = inner.writer.as_mut() {
            let mut line = String::new();
            render_record(&mut line, &record);
            if writer.write_all(line.as_bytes()).is_err() {
                inner.dropped += 1;
            }
            // Keep a bounded in-memory copy for programmatic queries;
            // overflow here is not a drop — the file has the record.
            if inner.records.len() < MAX_RECORDS {
                inner.records.push(record);
            }
        } else if inner.records.len() >= MAX_RECORDS {
            inner.dropped += 1;
        } else {
            inner.records.push(record);
        }
    }

    /// Current value of counter `name` (0 if not touched since the
    /// last [`crate::install`]).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters().get(name).copied().unwrap_or(0)
    }

    /// All counters touched since the last [`crate::install`], sorted
    /// by name, plus `obs.dropped_records` (the recorder's own drop
    /// tally) when any trace records were lost.
    pub fn counters(&self) -> BTreeMap<&'static str, u64> {
        let mut out = hist::counters_all();
        let dropped = self.dropped_records();
        if dropped > 0 {
            out.insert(crate::names::OBS_DROPPED_RECORDS, dropped);
        }
        out
    }

    /// Last value of gauge `name`, if set since the last
    /// [`crate::install`].
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges().get(name).copied()
    }

    /// All gauges set since the last [`crate::install`], sorted by
    /// name.
    pub fn gauges(&self) -> BTreeMap<&'static str, f64> {
        hist::gauges_all()
    }

    /// Microseconds since the recorder was created — the same clock
    /// that stamps trace records.
    pub fn elapsed_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    /// Aggregate span timings, keyed by span name.
    pub fn span_stats(&self) -> BTreeMap<String, SpanStat> {
        self.lock().spans.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    /// Number of recorded events/spans named `name`.
    pub fn events_named(&self, name: &str) -> usize {
        self.lock().records.iter().filter(|r| r.name == name).count()
    }

    /// Copy of the bounded trace.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.lock().records.clone()
    }

    /// Trace records lost to the memory cap or to write errors.
    pub fn dropped_records(&self) -> u64 {
        self.lock().dropped
    }

    /// Renders the trace as JSONL: one JSON object per line, in
    /// arrival order. Events look like
    /// `{"ts_us":12,"kind":"event","name":"campaign.retry","tid":0,"fields":{"attempt":2}}`
    /// and spans carry an additional `"elapsed_us"`.
    pub fn to_jsonl(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for r in &inner.records {
            render_record(&mut out, r);
        }
        out
    }

    /// Renders the end-of-run metrics snapshot as a single pretty
    /// JSON object with `counters`, `gauges`, `spans`, `histograms`
    /// (from [`crate::hist::snapshot_all`]), and trace bookkeeping
    /// totals. Flushes the streaming trace writer first, so taking a
    /// snapshot also makes the on-disk trace current.
    pub fn metrics_json(&self) -> String {
        flush_inner(&mut self.lock());
        let (counters, gauges) = (self.counters(), self.gauges());
        let inner = self.lock();
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in counters.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            push_json_string(&mut out, k);
            let _ = write!(out, ": {v}");
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, v)) in gauges.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            push_json_string(&mut out, k);
            if v.is_finite() {
                let _ = write!(out, ": {v}");
            } else {
                out.push_str(": null");
            }
        }
        out.push_str("\n  },\n  \"spans\": {");
        for (i, (k, s)) in inner.spans.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            push_json_string(&mut out, k);
            let _ = write!(
                out,
                ": {{\"count\": {}, \"total_us\": {}, \"max_us\": {}}}",
                s.count, s.total_us, s.max_us
            );
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, h) in hist::snapshot_all().iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            push_json_string(&mut out, h.name);
            let _ = write!(
                out,
                ": {{\"count\": {}, \"sum\": {}, \"mean\": {:.1}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
                h.count,
                h.sum,
                h.mean(),
                h.p50().unwrap_or(0),
                h.p90().unwrap_or(0),
                h.p99().unwrap_or(0),
                h.max
            );
        }
        let _ = write!(
            out,
            "\n  }},\n  \"events_recorded\": {},\n  \"events_dropped\": {}\n}}\n",
            inner.records.len(),
            inner.dropped
        );
        out
    }

    /// Writes the JSONL trace to `path`. When the recorder is already
    /// streaming to a trace file this flushes the stream instead (the
    /// file is the authoritative, unbounded trace; rewriting it from
    /// the bounded in-memory copy could truncate it).
    ///
    /// # Errors
    ///
    /// I/O errors from creating or writing the file.
    pub fn save_jsonl(&self, path: &Path) -> io::Result<()> {
        {
            let mut inner = self.lock();
            if inner.writer.is_some() {
                flush_inner(&mut inner);
                return Ok(());
            }
        }
        std::fs::write(path, self.to_jsonl())
    }

    /// Extracts the bounded JSONL trace segment for one remote job:
    /// every record emitted by thread `tid` that either belongs to
    /// `trace_id` or is an untraced event (job-side events carry no
    /// span identity but still matter for replay diagnosis). Rendering
    /// stops once the segment would exceed `max_bytes`; the second
    /// return value counts the records shed to the budget — callers
    /// surface it through the [`crate::names::OBS_TRACE_SHED`]
    /// counter.
    pub fn trace_segment(&self, trace_id: u128, tid: u64, max_bytes: usize) -> (String, u64) {
        let inner = self.lock();
        let mut out = String::new();
        let mut shed = 0u64;
        for r in &inner.records {
            if r.tid != tid {
                continue;
            }
            let in_trace = r.trace.is_some_and(|ids| ids.trace_id == trace_id);
            let untraced_event = r.kind == "event" && r.trace.is_none();
            if !in_trace && !untraced_event {
                continue;
            }
            let before = out.len();
            render_record(&mut out, r);
            if out.len() > max_bytes {
                out.truncate(before);
                shed += 1;
            }
        }
        (out, shed)
    }

    /// Writes the metrics snapshot to `path` (flushing the streaming
    /// trace writer as a side effect).
    ///
    /// # Errors
    ///
    /// I/O errors from creating or writing the file.
    pub fn save_metrics(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.metrics_json())
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        let inner = match self.inner.get_mut() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(writer) = inner.writer.as_mut() {
            let _ = writer.flush();
        }
    }
}

fn flush_inner(inner: &mut Inner) {
    if let Some(writer) = inner.writer.as_mut() {
        if writer.flush().is_err() {
            inner.dropped += 1;
        }
    }
}

impl Recorder {
    /// Records event `name` with `fields` (what [`crate::event`]
    /// forwards to when this recorder is installed).
    pub fn event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        let record = TraceRecord {
            ts_us: self.elapsed_us(),
            kind: "event",
            name,
            elapsed_us: None,
            tid: crate::thread_ordinal(),
            trace: None,
            fields: fields.to_vec(),
        };
        let mut inner = self.lock();
        self.push_record(&mut inner, record);
    }

    /// Records a completed span of `elapsed` wall time and adds it to
    /// the span aggregates; `ids` is its distributed-trace identity
    /// ([`SpanIds::none`] for an untraced span). The fields move into
    /// the record.
    pub fn span_end(
        &self,
        name: &'static str,
        elapsed: Duration,
        ids: SpanIds,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        let elapsed_us = elapsed.as_micros() as u64;
        let record = TraceRecord {
            ts_us: self.elapsed_us(),
            kind: "span",
            name,
            elapsed_us: Some(elapsed_us),
            tid: crate::thread_ordinal(),
            trace: ids.is_traced().then_some(ids),
            fields,
        };
        let mut inner = self.lock();
        let stat = inner.spans.entry(name).or_default();
        stat.count += 1;
        stat.total_us = stat.total_us.saturating_add(elapsed_us);
        stat.max_us = stat.max_us.max(elapsed_us);
        self.push_record(&mut inner, record);
    }
}

/// Renders one trace record as a JSON line (with trailing newline).
fn render_record(out: &mut String, r: &TraceRecord) {
    let _ = write!(out, "{{\"ts_us\":{},\"kind\":\"{}\",\"name\":", r.ts_us, r.kind);
    push_json_string(out, r.name);
    if let Some(e) = r.elapsed_us {
        let _ = write!(out, ",\"elapsed_us\":{e}");
    }
    let _ = write!(out, ",\"tid\":{}", r.tid);
    if let Some(ids) = r.trace {
        let _ = write!(
            out,
            ",\"trace_id\":\"{:032x}\",\"span_id\":\"{:016x}\",\"parent_id\":\"{:016x}\"",
            ids.trace_id, ids.span_id, ids.parent_id
        );
    }
    out.push_str(",\"fields\":{");
    for (i, (k, v)) in r.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(out, k);
        out.push(':');
        v.write_json(out);
    }
    out.push_str("}}\n");
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testlock::locked;
    use std::sync::Arc;

    #[test]
    fn jsonl_lines_are_well_formed() {
        let rec = Recorder::new();
        rec.event("a.b", &[("x", FieldValue::U64(1)), ("s", FieldValue::Str("q\"uote".into()))]);
        rec.span_end(
            "c.d",
            Duration::from_micros(42),
            SpanIds::none(),
            vec![("ok", FieldValue::Bool(true))],
        );
        let jsonl = rec.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"event\""));
        assert!(lines[0].contains("\"s\":\"q\\\"uote\""));
        assert!(lines[0].contains("\"tid\":"));
        assert!(lines[1].contains("\"elapsed_us\":42"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn metrics_snapshot_includes_all_kinds() {
        let _l = locked();
        let rec = Arc::new(Recorder::new());
        crate::install(rec.clone());
        crate::counter!("n.c", 7);
        crate::gauge!("n.g", 1.5);
        crate::uninstall();
        rec.span_end("n.s", Duration::from_micros(10), SpanIds::none(), Vec::new());
        rec.span_end("n.s", Duration::from_micros(30), SpanIds::none(), Vec::new());
        let m = rec.metrics_json();
        assert!(m.contains("\"n.c\": 7"));
        assert!(m.contains("\"n.g\": 1.5"));
        assert!(m.contains("\"count\": 2"));
        assert!(m.contains("\"max_us\": 30"));
        assert!(m.contains("\"histograms\""));
        assert!(m.contains("\"events_recorded\": 2"));
    }

    #[test]
    fn streaming_recorder_writes_and_flushes() {
        let dir = std::env::temp_dir().join(format!("rh-obs-stream-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("trace.jsonl");
        {
            let rec = Recorder::with_trace_file(&path).unwrap_or_else(|e| panic!("{e}"));
            rec.event("s.one", &[]);
            rec.span_end("s.two", Duration::from_micros(5), SpanIds::none(), Vec::new());
            // metrics_json must flush, making the file current even
            // before the recorder drops.
            let _ = rec.metrics_json();
            let on_disk =
                std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(on_disk.lines().count(), 2);
            assert_eq!(rec.dropped_records(), 0);
            // save_jsonl on a streaming recorder must not truncate
            // the file it is streaming to.
            rec.save_jsonl(&path).unwrap_or_else(|e| panic!("{e}"));
            let still =
                std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(still.lines().count(), 2);
        }
        let final_trace = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{e}"));
        assert!(final_trace.contains("s.one") && final_trace.contains("s.two"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_records_surface_as_a_counter() {
        let rec = Recorder::new();
        {
            let mut inner = rec.lock();
            inner.dropped = 3;
        }
        assert_eq!(rec.counter_value(crate::names::OBS_DROPPED_RECORDS), 3);
        assert_eq!(rec.counters().get(crate::names::OBS_DROPPED_RECORDS), Some(&3));
        assert!(rec.metrics_json().contains("\"obs.dropped_records\": 3"));
    }

    #[test]
    fn span_trace_ids_render_as_padded_hex() {
        let rec = Recorder::new();
        let ids = SpanIds { trace_id: 0xabc, span_id: 0x17, parent_id: 0 };
        rec.span_end("t.s", Duration::from_micros(3), ids, Vec::new());
        rec.span_end("t.p", Duration::from_micros(4), SpanIds::none(), Vec::new());
        let jsonl = rec.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[0].contains("\"trace_id\":\"00000000000000000000000000000abc\""));
        assert!(lines[0].contains("\"span_id\":\"0000000000000017\""));
        assert!(lines[0].contains("\"parent_id\":\"0000000000000000\""));
        // An untraced span renders without any trace keys.
        assert!(!lines[1].contains("trace_id"));
    }

    #[test]
    fn trace_segment_filters_by_trace_and_thread_and_sheds_over_budget() {
        let rec = Recorder::new();
        let tid = crate::thread_ordinal();
        let mine = SpanIds { trace_id: 5, span_id: 1, parent_id: 0 };
        let other = SpanIds { trace_id: 9, span_id: 2, parent_id: 0 };
        rec.span_end("seg.mine", Duration::from_micros(1), mine, Vec::new());
        rec.span_end("seg.other", Duration::from_micros(1), other, Vec::new());
        rec.event("seg.event", &[]);
        rec.span_end("seg.untraced", Duration::from_micros(1), SpanIds::none(), Vec::new());
        let (segment, shed) = rec.trace_segment(5, tid, 64 * 1024);
        assert_eq!(shed, 0);
        assert!(segment.contains("seg.mine"));
        assert!(segment.contains("seg.event"), "untraced events ride along");
        assert!(!segment.contains("seg.other"), "foreign traces excluded");
        assert!(!segment.contains("seg.untraced"), "untraced spans excluded");
        // A different thread id matches nothing.
        let (empty, _) = rec.trace_segment(5, tid + 1000, 64 * 1024);
        assert!(empty.is_empty());
        // A one-byte budget sheds everything and counts it.
        let (tiny, shed) = rec.trace_segment(5, tid, 1);
        assert!(tiny.is_empty());
        assert_eq!(shed, 2);
    }

    #[test]
    fn escaping_control_characters() {
        let mut s = String::new();
        push_json_string(&mut s, "a\u{1}b\tc");
        assert_eq!(s, "\"a\\u0001b\\tc\"");
    }
}
