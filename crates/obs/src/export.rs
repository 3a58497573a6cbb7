//! Prometheus text-exposition rendering of a [`Recorder`]'s state,
//! plus a periodic rollup publisher for crash-survivable time series.
//!
//! # Exposition mapping
//!
//! The rh-obs primitives map onto Prometheus metric families like so:
//!
//! | rh-obs                    | Prometheus                                     |
//! |---------------------------|------------------------------------------------|
//! | counter `a.b.c`           | counter `a_b_c`                                |
//! | gauge `a.b`               | gauge `a_b` (non-finite values are skipped)    |
//! | span stats `a.b`          | `a_b_span_count`, `a_b_span_total_us` counters |
//! |                           | and an `a_b_span_max_us` gauge                 |
//! | histogram `a.b.ns`        | histogram `a_b_ns`: cumulative `le`-labeled    |
//! |                           | `_bucket` series plus `_sum` and `_count`      |
//!
//! Metric names are sanitized to the Prometheus charset (`.` and any
//! other illegal byte become `_`); the original dotted name from
//! [`crate::names`] is preserved in the `# HELP` line. Histogram `le`
//! bounds are the inclusive upper edges of the log2 buckets in
//! [`crate::hist`] (`0, 1, 3, 7, …, 2^63-1`) followed by `+Inf`, so
//! the cumulative counts are monotone and the `+Inf` bucket equals
//! `_count` by construction.
//!
//! # Rollups
//!
//! [`RollupPublisher`] appends one compact JSON object per interval —
//! `{"ts_us":…,"counters":{…},"gauges":{…}}` — to a JSONL file and
//! flushes after every line, so a campaign killed mid-run still
//! leaves a usable time series up to the last tick. A final line is
//! written on [`RollupPublisher::stop`] so the series always ends at
//! the shutdown state.

use crate::hist::{self, HistSnapshot};
use crate::recorder::{push_json_string, Recorder};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maps an rh-obs dotted metric name onto the Prometheus name charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: every `.` (and any other illegal byte)
/// becomes `_`, and a leading digit gets a `_` prefix.
#[must_use]
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if ok {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the Prometheus text format: backslash,
/// double quote, and newline become `\\`, `\"`, and `\n`.
#[must_use]
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Appends one sample line `name{k="v",…} value` with escaped label
/// values. `name` must already be sanitized; `value` is any
/// Prometheus-parseable number rendering.
fn push_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: &str) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

fn push_family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Renders one log2 histogram snapshot as a Prometheus histogram
/// family: cumulative `_bucket` samples with inclusive `le` upper
/// bounds, then `+Inf`, `_sum`, and `_count`. Buckets above the
/// highest occupied one are elided (the `+Inf` sample covers them).
pub fn render_histogram(out: &mut String, h: &HistSnapshot) {
    let name = sanitize_metric_name(h.name);
    render_histogram_parts(
        out,
        &name,
        &format!("Log2-bucketed histogram `{}`.", h.name),
        &h.buckets,
        h.sum,
        h.count,
    );
}

/// Shared renderer behind [`render_histogram`] and the federation
/// pass: non-cumulative per-bucket counts in, conformant cumulative
/// exposition out. The last bucket's upper edge is `u64::MAX`;
/// `+Inf` stands in for it.
fn render_histogram_parts(
    out: &mut String,
    name: &str,
    help: &str,
    buckets: &[u64],
    sum: u64,
    count: u64,
) {
    push_family(out, name, "histogram", help);
    let top = buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
    let mut cumulative = 0u64;
    for (i, &c) in buckets.iter().enumerate().take(top + 1) {
        if i + 1 == buckets.len() {
            break;
        }
        cumulative += c;
        push_sample(
            out,
            &format!("{name}_bucket"),
            &[("le", &hist::bucket_hi(i).to_string())],
            &cumulative.to_string(),
        );
    }
    push_sample(out, &format!("{name}_bucket"), &[("le", "+Inf")], &count.to_string());
    push_sample(out, &format!("{name}_sum"), &[], &sum.to_string());
    push_sample(out, &format!("{name}_count"), &[], &count.to_string());
}

/// Renders the full `/metrics` payload: every counter, finite gauge,
/// span aggregate, and histogram currently held by `rec` and the
/// process-global histogram registry, in Prometheus text exposition
/// format (version 0.0.4).
#[must_use]
pub fn render_prometheus(rec: &Recorder) -> String {
    let mut out = String::new();
    for (name, v) in rec.counters() {
        let m = sanitize_metric_name(&name);
        push_family(&mut out, &m, "counter", &format!("Monotonic counter `{name}`."));
        push_sample(&mut out, &m, &[], &v.to_string());
    }
    for (name, v) in rec.gauges() {
        if !v.is_finite() {
            continue;
        }
        let m = sanitize_metric_name(&name);
        push_family(&mut out, &m, "gauge", &format!("Gauge `{name}` (last written value)."));
        push_sample(&mut out, &m, &[], &format!("{v}"));
    }
    for (name, s) in rec.span_stats() {
        let base = format!("{}_span", sanitize_metric_name(&name));
        let count = format!("{base}_count");
        push_family(&mut out, &count, "counter", &format!("Completed `{name}` spans."));
        push_sample(&mut out, &count, &[], &s.count.to_string());
        let total = format!("{base}_total_us");
        push_family(&mut out, &total, "counter", &format!("Total `{name}` span time, us."));
        push_sample(&mut out, &total, &[], &s.total_us.to_string());
        let max = format!("{base}_max_us");
        push_family(&mut out, &max, "gauge", &format!("Longest `{name}` span, us."));
        push_sample(&mut out, &max, &[], &s.max_us.to_string());
    }
    for h in hist::snapshot_all() {
        render_histogram(&mut out, &h);
    }
    out
}

// ---------------------------------------------------------------------------
// Metrics federation: one fleet exposition from many worker scrapes
// ---------------------------------------------------------------------------

/// One parsed sample from a scraped exposition (value kept as the
/// original text so federation never reformats a number it merely
/// forwards).
#[derive(Debug)]
struct FedSample {
    name: String,
    labels: Vec<(String, String)>,
    value: String,
}

/// Parses one label-set body (between `{` and `}`), unescaping `\\`,
/// `\"`, and `\n`. `None` on malformed input — the line is skipped.
fn parse_fed_labels(body: &str) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    if body.is_empty() {
        return Some(out);
    }
    let mut chars = body.chars();
    loop {
        let mut key = String::new();
        loop {
            match chars.next() {
                Some('=') => break,
                Some(c) => key.push(c),
                None => return None,
            }
        }
        if key.is_empty() || chars.next() != Some('"') {
            return None;
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    _ => return None,
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return None,
            }
        }
        out.push((key, value));
        match chars.next() {
            Some(',') => {}
            None => return Some(out),
            Some(_) => return None,
        }
    }
}

/// Leniently parses a text exposition into `(family, kind, samples)`
/// triples, in declaration order. Samples that precede any `# TYPE`,
/// belong to a different family than the current one, or fail to
/// parse are skipped — a half-written scrape from a faulty link must
/// degrade, not wedge the merge.
fn parse_exposition_families(text: &str) -> Vec<(String, String, Vec<FedSample>)> {
    let mut fams: Vec<(String, String, Vec<FedSample>)> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            if let Some((name, kind)) = rest.split_once(' ') {
                fams.push((name.to_string(), kind.trim().to_string(), Vec::new()));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some((head, value)) = line.rsplit_once(' ') else { continue };
        let (name, labels) = match head.find('{') {
            Some(i) => {
                let Some(body) = head[i + 1..].strip_suffix('}') else { continue };
                let Some(labels) = parse_fed_labels(body) else { continue };
                (&head[..i], labels)
            }
            None => (head, Vec::new()),
        };
        let Some((fam, kind, samples)) = fams.last_mut() else { continue };
        let belongs = if kind == "histogram" {
            name == format!("{fam}_bucket")
                || name == format!("{fam}_sum")
                || name == format!("{fam}_count")
        } else {
            name == *fam
        };
        if belongs {
            samples.push(FedSample {
                name: name.to_string(),
                labels,
                value: value.to_string(),
            });
        }
    }
    fams
}

fn parse_prom_u64(v: &str) -> Option<u64> {
    v.parse::<u64>().ok().or_else(|| {
        v.parse::<f64>()
            .ok()
            .filter(|f| f.is_finite() && *f >= 0.0)
            .map(|f| f as u64)
    })
}

/// Merges the coordinator's own exposition with scraped worker
/// expositions into one fleet payload:
///
/// - **Counters and gauges** keep one sample per source: the
///   coordinator's stays unlabeled (so existing line-anchored greps
///   and `repro top`'s exact-match reader keep working) and each
///   worker's gains a `worker="addr"` label. One `# TYPE` per family.
/// - **Histograms** are merged element-wise: every source's
///   cumulative `le` buckets are de-cumulated, the deltas summed into
///   the aligned log2 buckets from [`crate::hist`] (foreign edges
///   land in the containing log2 bucket), and the merged family
///   re-renders cumulative — monotone with `+Inf == _count` by
///   construction. Bucket samples carry only the `le` label, so the
///   fleet histogram is one series family, not per-worker shards.
///
/// A family whose kind disagrees across sources keeps the
/// first-declared kind and drops the conflicting samples; duplicate
/// `(labels)` rows within one family are dropped after the first.
#[must_use]
pub fn federate(own: &str, workers: &[(String, String)]) -> String {
    #[derive(Debug)]
    struct MergedHist {
        buckets: Vec<u64>,
        sum: u64,
        count: u64,
    }
    let mut order: Vec<String> = Vec::new();
    let mut kinds: std::collections::BTreeMap<String, String> = std::collections::BTreeMap::new();
    /// One scalar sample: source worker, labels, value.
    type Sample = (Option<String>, Vec<(String, String)>, String);
    let mut scalars: std::collections::BTreeMap<String, Vec<Sample>> =
        std::collections::BTreeMap::new();
    let mut hists: std::collections::BTreeMap<String, MergedHist> =
        std::collections::BTreeMap::new();

    let mut sources: Vec<(Option<&str>, &str)> = vec![(None, own)];
    let mut sorted: Vec<&(String, String)> = workers.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    sources.extend(sorted.iter().map(|(addr, text)| (Some(addr.as_str()), text.as_str())));

    for (source, text) in sources {
        for (fam, kind, samples) in parse_exposition_families(text) {
            let declared = kinds.entry(fam.clone()).or_insert_with(|| {
                order.push(fam.clone());
                kind.clone()
            });
            if *declared != kind {
                continue;
            }
            if kind == "histogram" {
                let h = hists.entry(fam.clone()).or_insert_with(|| MergedHist {
                    buckets: vec![0; hist::NUM_BUCKETS],
                    sum: 0,
                    count: 0,
                });
                let mut prev = 0u64;
                for s in &samples {
                    if s.name.len() == fam.len() + 7 && s.name.ends_with("_bucket") {
                        let Some((_, le)) = s.labels.iter().find(|(k, _)| k == "le") else {
                            continue;
                        };
                        let idx = if le == "+Inf" {
                            hist::NUM_BUCKETS - 1
                        } else {
                            match parse_prom_u64(le) {
                                Some(edge) => hist::bucket_of(edge),
                                None => continue,
                            }
                        };
                        let Some(cum) = parse_prom_u64(&s.value) else { continue };
                        let delta = cum.saturating_sub(prev);
                        prev = cum;
                        h.buckets[idx] = h.buckets[idx].saturating_add(delta);
                    } else if s.name.ends_with("_sum") {
                        h.sum = h.sum.saturating_add(parse_prom_u64(&s.value).unwrap_or(0));
                    } else if s.name.ends_with("_count") {
                        h.count = h.count.saturating_add(parse_prom_u64(&s.value).unwrap_or(0));
                    }
                }
            } else {
                let rows = scalars.entry(fam.clone()).or_default();
                for s in samples {
                    rows.push((source.map(str::to_string), s.labels, s.value));
                }
            }
        }
    }

    let mut out = String::new();
    for fam in &order {
        let Some(kind) = kinds.get(fam) else { continue };
        if kind == "histogram" {
            let Some(h) = hists.get(fam) else { continue };
            // Guard the +Inf == _count invariant even against a
            // source whose own bookkeeping disagrees.
            let total: u64 = h.buckets.iter().sum();
            render_histogram_parts(
                &mut out,
                fam,
                &format!("Fleet-federated log2 histogram `{fam}`."),
                &h.buckets,
                h.sum,
                h.count.max(total),
            );
            continue;
        }
        let Some(rows) = scalars.get(fam) else { continue };
        if rows.is_empty() {
            continue;
        }
        push_family(&mut out, fam, kind, &format!("Fleet-federated {kind} `{fam}`."));
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        for (source, labels, value) in rows {
            let mut with_worker: Vec<(&str, &str)> =
                labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            if let Some(addr) = source.as_deref() {
                with_worker.push(("worker", addr));
            }
            if !seen.insert(format!("{with_worker:?}")) {
                continue;
            }
            push_sample(&mut out, fam, &with_worker, value);
        }
    }
    out
}

/// Shared slot the fleet coordinator publishes scraped worker
/// expositions into and the telemetry server's `/metrics` handler
/// renders from. With no sources published, [`render`](Self::render)
/// passes the coordinator's own exposition through byte-identically,
/// so a non-fleet campaign pays nothing.
#[derive(Debug, Default)]
pub struct FederationHub {
    sources: std::sync::Mutex<std::collections::BTreeMap<String, String>>,
}

impl FederationHub {
    /// An empty hub.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(
        &self,
    ) -> std::sync::MutexGuard<'_, std::collections::BTreeMap<String, String>> {
        match self.sources.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Stores (or refreshes) one worker's scraped exposition.
    pub fn publish(&self, worker: &str, exposition: String) {
        self.lock().insert(worker.to_string(), exposition);
    }

    /// Drops a worker's exposition (evicted or shut down).
    pub fn remove(&self, worker: &str) {
        self.lock().remove(worker);
    }

    /// Whether any worker exposition is currently published.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Workers currently published, sorted by address.
    #[must_use]
    pub fn workers(&self) -> Vec<String> {
        self.lock().keys().cloned().collect()
    }

    /// The federated exposition for the current sources — or `own`
    /// unchanged when none are published.
    #[must_use]
    pub fn render(&self, own: &str) -> String {
        let sources: Vec<(String, String)> =
            self.lock().iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        if sources.is_empty() {
            own.to_string()
        } else {
            federate(own, &sources)
        }
    }
}

/// Renders one rollup line: a compact JSON object with the recorder's
/// relative timestamp and its current counters and finite gauges,
/// newline-terminated.
#[must_use]
pub fn render_rollup_line(rec: &Recorder) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"ts_us\":{},\"counters\":{{", rec.elapsed_us());
    for (i, (k, v)) in rec.counters().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, k);
        let _ = write!(out, ":{v}");
    }
    out.push_str("},\"gauges\":{");
    let mut first = true;
    for (k, v) in rec.gauges() {
        if !v.is_finite() {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        push_json_string(&mut out, &k);
        let _ = write!(out, ":{v}");
    }
    out.push_str("}}\n");
    out
}

/// Background thread appending one [`render_rollup_line`] snapshot of
/// a shared [`Recorder`] to a JSONL file every `interval`, flushing
/// after each line. Stop it with [`RollupPublisher::stop`] (which
/// writes one final line) or by dropping it.
pub struct RollupPublisher {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<u64>>,
}

impl std::fmt::Debug for RollupPublisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RollupPublisher").finish_non_exhaustive()
    }
}

impl RollupPublisher {
    /// Starts publishing snapshots of `rec` to `path` every
    /// `interval` (floored at 10 ms). The file is created eagerly so
    /// configuration errors surface here, not in the thread.
    ///
    /// # Errors
    ///
    /// I/O errors from creating the rollup file.
    pub fn start(rec: Arc<Recorder>, path: &Path, interval: Duration) -> io::Result<Self> {
        let file = File::create(path)?;
        let interval = interval.max(Duration::from_millis(10));
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::Builder::new().name("rh-obs-rollup".into()).spawn(move || {
            let mut writer = BufWriter::new(file);
            let mut lines = 0u64;
            'publish: loop {
                let deadline = Instant::now() + interval;
                loop {
                    if stop_flag.load(Ordering::Relaxed) {
                        break 'publish;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    std::thread::sleep((deadline - now).min(Duration::from_millis(25)));
                }
                lines += u64::from(write_rollup(&mut writer, &rec));
            }
            // One final line so the series ends at the shutdown state.
            lines += u64::from(write_rollup(&mut writer, &rec));
            lines
        })?;
        Ok(Self { stop, handle: Some(handle) })
    }

    /// Signals the publisher thread, waits for it to write its final
    /// line, and returns the total number of lines written.
    pub fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.take().and_then(|h| h.join().ok()).unwrap_or(0)
    }
}

impl Drop for RollupPublisher {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Writes one rollup line and flushes; returns whether both succeeded.
fn write_rollup(writer: &mut BufWriter<File>, rec: &Recorder) -> bool {
    let line = render_rollup_line(rec);
    writer.write_all(line.as_bytes()).is_ok() && writer.flush().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FieldValue;
    use crate::Sink as _;

    #[test]
    fn sanitizes_names_to_the_prometheus_charset() {
        assert_eq!(sanitize_metric_name("campaign.module.ns"), "campaign_module_ns");
        assert_eq!(sanitize_metric_name("already_fine:ok"), "already_fine:ok");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("sp ace-dash"), "sp_ace_dash");
        assert_eq!(sanitize_metric_name(""), "_");
    }

    #[test]
    fn escapes_label_values() {
        assert_eq!(escape_label_value(r#"a\b"c"#), r#"a\\b\"c"#);
        assert_eq!(escape_label_value("line\nbreak"), "line\\nbreak");
        assert_eq!(escape_label_value("plain"), "plain");
    }

    #[test]
    fn renders_counters_gauges_and_spans() {
        let rec = Recorder::new();
        rec.counter("dram.flip", 42);
        rec.gauge("executor.queue_depth", 3.0);
        rec.gauge("bad.gauge", f64::NAN);
        rec.span_end("campaign.module", Duration::from_micros(120), &[]);
        let text = render_prometheus(&rec);
        assert!(text.contains("# TYPE dram_flip counter\ndram_flip 42\n"));
        assert!(text.contains("# TYPE executor_queue_depth gauge\nexecutor_queue_depth 3\n"));
        assert!(!text.contains("bad_gauge"), "non-finite gauges must be skipped");
        assert!(text.contains("campaign_module_span_count 1\n"));
        assert!(text.contains("campaign_module_span_total_us 120\n"));
        assert!(text.contains("campaign_module_span_max_us 120\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_inf_matches_count() {
        let mut h = HistSnapshot::empty("softmc.issue.ns");
        // values 0, 1, 2, 2, and one huge outlier in the top bucket.
        h.buckets[0] = 1;
        h.buckets[1] = 1;
        h.buckets[2] = 2;
        h.buckets[64] = 1;
        h.count = 5;
        h.sum = 5 + (1 << 63);
        h.max = 1 << 63;
        let mut out = String::new();
        render_histogram(&mut out, &h);
        assert!(out.contains("# TYPE softmc_issue_ns histogram"));
        assert!(out.contains("softmc_issue_ns_bucket{le=\"0\"} 1\n"));
        assert!(out.contains("softmc_issue_ns_bucket{le=\"1\"} 2\n"));
        assert!(out.contains("softmc_issue_ns_bucket{le=\"3\"} 4\n"));
        assert!(out.contains("softmc_issue_ns_bucket{le=\"+Inf\"} 5\n"));
        assert!(out.contains("softmc_issue_ns_count 5\n"));
        // The u64::MAX upper edge is elided: +Inf stands in for it.
        assert!(!out.contains(&u64::MAX.to_string()));
    }

    #[test]
    fn federate_labels_worker_scalars_and_keeps_own_unlabeled() {
        let own = "# HELP a A.\n# TYPE a counter\na 3\n";
        let workers = vec![
            ("127.0.0.1:9002".to_string(), "# TYPE a counter\na 5\n# TYPE b gauge\nb 1\n".to_string()),
            ("127.0.0.1:9001".to_string(), "# TYPE a counter\na 4\n".to_string()),
        ];
        let text = federate(own, &workers);
        let a_pos = text.find("# TYPE a counter").unwrap_or_else(|| panic!("{text}"));
        assert!(text.contains("\na 3\n"), "own sample must stay unlabeled: {text}");
        let w1 = text.find("a{worker=\"127.0.0.1:9001\"} 4").unwrap_or_else(|| panic!("{text}"));
        let w2 = text.find("a{worker=\"127.0.0.1:9002\"} 5").unwrap_or_else(|| panic!("{text}"));
        assert!(a_pos < w1 && w1 < w2, "workers must sort by address: {text}");
        assert!(text.contains("b{worker=\"127.0.0.1:9002\"} 1"));
        assert_eq!(text.matches("# TYPE a counter").count(), 1, "one TYPE per family");
    }

    #[test]
    fn federate_merges_histograms_element_wise_and_stays_cumulative() {
        let mut own = String::new();
        let mut h = HistSnapshot::empty("softmc.issue.ns");
        h.buckets[0] = 1;
        h.buckets[2] = 2;
        h.count = 3;
        h.sum = 5;
        render_histogram(&mut own, &h);
        let mut worker = String::new();
        let mut hw = HistSnapshot::empty("softmc.issue.ns");
        hw.buckets[1] = 1;
        hw.buckets[2] = 1;
        hw.buckets[64] = 1;
        hw.count = 3;
        hw.sum = 100;
        render_histogram(&mut worker, &hw);
        let text = federate(&own, &[("w".to_string(), worker)]);
        assert!(text.contains("softmc_issue_ns_bucket{le=\"0\"} 1\n"), "{text}");
        assert!(text.contains("softmc_issue_ns_bucket{le=\"1\"} 2\n"), "{text}");
        assert!(text.contains("softmc_issue_ns_bucket{le=\"3\"} 5\n"), "{text}");
        assert!(text.contains("softmc_issue_ns_bucket{le=\"+Inf\"} 6\n"), "{text}");
        assert!(text.contains("softmc_issue_ns_count 6\n"), "{text}");
        assert!(text.contains("softmc_issue_ns_sum 105\n"), "{text}");
        assert!(
            !text.contains("worker=\"w\""),
            "histogram buckets must stay le-only: {text}"
        );
    }

    #[test]
    fn federate_skips_kind_conflicts_and_tolerates_garbage() {
        let own = "# TYPE a counter\na 1\n";
        let worker = "not a sample line at all\n# TYPE a gauge\na 9\n# TYPE c counter\nc{q=\"x\\\"y\"} 2\ntruncated_without_value\n";
        let text = federate(own, &[("w".to_string(), worker.to_string())]);
        assert!(text.contains("\na 1\n"));
        assert!(!text.contains("a{worker"), "conflicting kind must be dropped: {text}");
        assert!(text.contains("c{q=\"x\\\"y\",worker=\"w\"} 2"), "{text}");
    }

    #[test]
    fn federation_hub_passes_own_through_when_empty() {
        let hub = FederationHub::new();
        let own = "# HELP a A.\n# TYPE a counter\na 3\n";
        assert!(hub.is_empty());
        assert_eq!(hub.render(own), own, "empty hub must be byte-identical passthrough");
        hub.publish("w", "# TYPE a counter\na 2\n".to_string());
        assert!(!hub.is_empty());
        assert_eq!(hub.workers(), vec!["w".to_string()]);
        assert!(hub.render(own).contains("a{worker=\"w\"} 2"));
        hub.remove("w");
        assert_eq!(hub.render(own), own);
    }

    #[test]
    fn rollup_line_is_one_json_object() {
        let rec = Recorder::new();
        rec.counter("campaign.succeeded", 7);
        rec.gauge("campaign.eta_ms", 1500.0);
        rec.event("noise", &[("k", FieldValue::U64(1))]);
        let line = render_rollup_line(&rec);
        assert!(line.ends_with('\n'));
        assert_eq!(line.lines().count(), 1);
        assert!(line.contains("\"counters\":{\"campaign.succeeded\":7}"));
        assert!(line.contains("\"campaign.eta_ms\":1500"));
        assert!(line.starts_with("{\"ts_us\":"));
    }

    #[test]
    fn rollup_publisher_appends_and_survives_stop() {
        let dir = std::env::temp_dir().join(format!("rh-obs-rollup-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("rollup.jsonl");
        let rec = Arc::new(Recorder::new());
        rec.counter("campaign.succeeded", 1);
        let publisher = RollupPublisher::start(rec.clone(), &path, Duration::from_millis(20))
            .unwrap_or_else(|e| panic!("{e}"));
        std::thread::sleep(Duration::from_millis(90));
        rec.counter("campaign.succeeded", 1);
        let lines = publisher.stop();
        assert!(lines >= 2, "expected periodic + final lines, got {lines}");
        let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(on_disk.lines().count() as u64, lines);
        // The final line reflects the last counter bump.
        let last = on_disk.lines().last().unwrap_or_default();
        assert!(last.contains("\"campaign.succeeded\":2"), "stale final line: {last}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
