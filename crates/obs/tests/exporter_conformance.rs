//! Conformance tests for the Prometheus text exposition (version
//! 0.0.4) produced by `rh_obs::export`: a strict mini-parser plus a
//! validator enforce the format rules on both golden fixtures and
//! property-generated recorder contents — metric-name charset, one
//! `# HELP`/`# TYPE` per family, no duplicate `(name, labels)` series,
//! escaped label values, and histogram invariants (monotone cumulative
//! buckets, strictly increasing `le` edges ending in `+Inf`, and
//! `+Inf` bucket == `_count`).

use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use proptest::prelude::*;
use rh_obs::export::{
    escape_label_value, render_histogram, render_prometheus, sanitize_metric_name,
};
use rh_obs::hist::bucket_of;
use rh_obs::{Counter, Gauge, HistSnapshot, Recorder, SpanIds};

/// Counters and gauges are process-global statics and `install`
/// resets them: tests that record serialize on this lock.
static REGISTRY: Mutex<()> = Mutex::new(());

fn registry_lock() -> MutexGuard<'static, ()> {
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

/// Installs a fresh recorder, which resets every counter and gauge.
fn session() -> Arc<Recorder> {
    let rec = Arc::new(Recorder::new());
    rh_obs::install(rec.clone());
    rec
}

// ---------------------------------------------------------------------------
// Mini exposition parser + validator
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

#[derive(Debug)]
struct Family {
    name: String,
    kind: String,
    samples: Vec<Sample>,
}

fn is_valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parses one label set body (the text between `{` and `}`),
/// unescaping `\\`, `\"`, and `\n` exactly as Prometheus defines them.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut chars = body.chars();
    loop {
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if key.is_empty() {
            return Err("empty label key".into());
        }
        if chars.next() != Some('"') {
            return Err(format!("label `{key}` value must be double-quoted"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape sequence {other:?}")),
                },
                Some('"') => break,
                Some('\n') | None => return Err("unterminated label value".into()),
                Some(c) => value.push(c),
            }
        }
        out.push((key, value));
        match chars.next() {
            Some(',') => continue,
            None => break,
            Some(c) => return Err(format!("unexpected `{c}` after label value")),
        }
    }
    Ok(out)
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_and_labels, value) =
        line.rsplit_once(' ').ok_or_else(|| "sample line without a value".to_string())?;
    let (name, labels) = match name_and_labels.find('{') {
        Some(idx) => {
            let body = name_and_labels[idx + 1..]
                .strip_suffix('}')
                .ok_or_else(|| "unterminated label set".to_string())?;
            (&name_and_labels[..idx], parse_labels(body)?)
        }
        None => (name_and_labels, Vec::new()),
    };
    let value = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v.parse::<f64>().map_err(|e| format!("unparseable value `{v}`: {e}"))?,
    };
    Ok(Sample { name: name.to_string(), labels, value })
}

/// Parses a full exposition payload into families, rejecting any line
/// that violates the text-format grammar: samples must follow their
/// family's `# TYPE`, every family is announced at most once, and
/// `# HELP` must carry text.
fn parse_exposition(text: &str) -> Result<Vec<Family>, String> {
    let mut families: Vec<Family> = Vec::new();
    let mut helped: HashSet<String> = HashSet::new();
    for (idx, line) in text.lines().enumerate() {
        let n = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) =
                rest.split_once(' ').ok_or_else(|| format!("line {n}: HELP without text"))?;
            if help.trim().is_empty() {
                return Err(format!("line {n}: empty HELP text for `{name}`"));
            }
            if !helped.insert(name.to_string()) {
                return Err(format!("line {n}: duplicate HELP for `{name}`"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) =
                rest.split_once(' ').ok_or_else(|| format!("line {n}: TYPE without a kind"))?;
            if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                return Err(format!("line {n}: unknown metric kind `{kind}`"));
            }
            if families.iter().any(|f| f.name == name) {
                return Err(format!("line {n}: duplicate TYPE for `{name}`"));
            }
            families.push(Family { name: name.to_string(), kind: kind.to_string(), samples: Vec::new() });
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {n}: unrecognized comment form"));
        }
        let sample = parse_sample(line).map_err(|e| format!("line {n}: {e}"))?;
        let fam = families
            .last_mut()
            .ok_or_else(|| format!("line {n}: sample before any # TYPE line"))?;
        let belongs = match fam.kind.as_str() {
            "histogram" => {
                sample.name == format!("{}_bucket", fam.name)
                    || sample.name == format!("{}_sum", fam.name)
                    || sample.name == format!("{}_count", fam.name)
            }
            _ => sample.name == fam.name,
        };
        if !belongs {
            return Err(format!(
                "line {n}: sample `{}` does not belong to the current family `{}`",
                sample.name, fam.name
            ));
        }
        fam.samples.push(sample);
    }
    Ok(families)
}

fn validate_histogram(fam: &Family) -> Result<(), String> {
    let buckets: Vec<&Sample> =
        fam.samples.iter().filter(|s| s.name.ends_with("_bucket")).collect();
    let sums: Vec<&Sample> = fam.samples.iter().filter(|s| s.name.ends_with("_sum")).collect();
    let counts: Vec<&Sample> =
        fam.samples.iter().filter(|s| s.name.ends_with("_count")).collect();
    if buckets.is_empty() {
        return Err(format!("histogram `{}` has no buckets", fam.name));
    }
    let mut prev_le = f64::NEG_INFINITY;
    let mut prev_cum = -1.0f64;
    for b in &buckets {
        let [(key, le_text)] = b.labels.as_slice() else {
            return Err(format!("histogram `{}` bucket must have exactly the le label", fam.name));
        };
        if key != "le" {
            return Err(format!("histogram `{}` bucket labeled `{key}`, not le", fam.name));
        }
        let le = match le_text.as_str() {
            "+Inf" => f64::INFINITY,
            v => v.parse::<f64>().map_err(|e| format!("bad le `{v}`: {e}"))?,
        };
        if le <= prev_le {
            return Err(format!("histogram `{}` le edges not strictly increasing", fam.name));
        }
        if b.value < prev_cum {
            return Err(format!("histogram `{}` bucket counts not cumulative", fam.name));
        }
        prev_le = le;
        prev_cum = b.value;
    }
    if prev_le != f64::INFINITY {
        return Err(format!("histogram `{}` must end with an le=\"+Inf\" bucket", fam.name));
    }
    let [count] = counts.as_slice() else {
        return Err(format!("histogram `{}` needs exactly one _count sample", fam.name));
    };
    if count.value != prev_cum {
        return Err(format!(
            "histogram `{}`: +Inf bucket {} != _count {}",
            fam.name, prev_cum, count.value
        ));
    }
    if sums.len() != 1 {
        return Err(format!("histogram `{}` needs exactly one _sum sample", fam.name));
    }
    Ok(())
}

/// Format rules that span the whole payload: valid names, nonempty
/// families, globally unique `(name, labels)` series, nonnegative
/// counters, well-formed histograms.
fn validate(families: &[Family]) -> Result<(), String> {
    let mut seen: HashSet<String> = HashSet::new();
    for fam in families {
        if !is_valid_metric_name(&fam.name) {
            return Err(format!("invalid family name `{}`", fam.name));
        }
        if fam.samples.is_empty() {
            return Err(format!("family `{}` announced but has no samples", fam.name));
        }
        for s in &fam.samples {
            if !is_valid_metric_name(&s.name) {
                return Err(format!("invalid sample name `{}`", s.name));
            }
            for (k, _) in &s.labels {
                if !is_valid_label_name(k) {
                    return Err(format!("invalid label name `{k}` on `{}`", s.name));
                }
            }
            let key = format!("{}|{:?}", s.name, s.labels);
            if !seen.insert(key) {
                return Err(format!("duplicate series `{}` {:?}", s.name, s.labels));
            }
            if s.value.is_nan() {
                return Err(format!("NaN sample on `{}`", s.name));
            }
        }
        match fam.kind.as_str() {
            "counter" => {
                for s in &fam.samples {
                    if s.value < 0.0 {
                        return Err(format!("negative counter `{}`", s.name));
                    }
                }
            }
            "histogram" => validate_histogram(fam)?,
            _ => {}
        }
    }
    Ok(())
}

fn parse_and_validate(text: &str) -> Result<Vec<Family>, String> {
    let families = parse_exposition(text)?;
    validate(&families)?;
    Ok(families)
}

// ---------------------------------------------------------------------------
// Golden fixtures: exact expected text for known recorder contents
// ---------------------------------------------------------------------------

/// The full recorder-sourced portion of `/metrics` for a small, fixed
/// set of counters/gauges/spans, byte for byte. Counters and gauges
/// render in BTreeMap (name) order; non-finite gauges are skipped;
/// each span yields `_span_count`/`_span_total_us` counters plus a
/// `_span_max_us` gauge. Histograms come from the process-global
/// registry and render after this prefix, so the assertion is on the
/// payload prefix.
#[test]
fn golden_recorder_exposition() {
    let _l = registry_lock();
    let rec = session();
    rh_obs::counter!("dram.flip", 7);
    rh_obs::counter!("softmc.cmd", 3);
    rh_obs::counter!("dram.flip", 4);
    rh_obs::gauge!("executor.queue_depth", 4.0);
    rh_obs::gauge!("bad.gauge", f64::NAN);
    rh_obs::uninstall();
    rec.span_end("campaign.module", Duration::from_micros(150), SpanIds::none(), Vec::new());
    rec.span_end("campaign.module", Duration::from_micros(90), SpanIds::none(), Vec::new());

    let expected = "\
# HELP dram_flip Monotonic counter `dram.flip`.
# TYPE dram_flip counter
dram_flip 11
# HELP softmc_cmd Monotonic counter `softmc.cmd`.
# TYPE softmc_cmd counter
softmc_cmd 3
# HELP executor_queue_depth Gauge `executor.queue_depth` (last written value).
# TYPE executor_queue_depth gauge
executor_queue_depth 4
# HELP campaign_module_span_count Completed `campaign.module` spans.
# TYPE campaign_module_span_count counter
campaign_module_span_count 2
# HELP campaign_module_span_total_us Total `campaign.module` span time, us.
# TYPE campaign_module_span_total_us counter
campaign_module_span_total_us 240
# HELP campaign_module_span_max_us Longest `campaign.module` span, us.
# TYPE campaign_module_span_max_us gauge
campaign_module_span_max_us 150
";
    let text = render_prometheus(&rec);
    assert!(
        text.starts_with(expected),
        "exposition prefix mismatch:\n--- got ---\n{text}\n--- want prefix ---\n{expected}"
    );
    parse_and_validate(&text).expect("golden payload must be conformant");
}

/// Exact histogram rendering: buckets are cumulative with inclusive
/// log2 upper edges (0, 1, 3, 7, …), empty interior buckets still
/// render, trailing empty buckets are elided, and `+Inf`/`_sum`/
/// `_count` close the family.
#[test]
fn golden_histogram_exposition() {
    let mut h = HistSnapshot::empty("softmc.issue.ns");
    h.buckets[0] = 2;
    h.buckets[1] = 1;
    h.buckets[3] = 4;
    h.count = 7;
    h.sum = 17;
    h.max = 5;
    let mut out = String::new();
    render_histogram(&mut out, &h);
    let expected = "\
# HELP softmc_issue_ns Log2-bucketed histogram `softmc.issue.ns`.
# TYPE softmc_issue_ns histogram
softmc_issue_ns_bucket{le=\"0\"} 2
softmc_issue_ns_bucket{le=\"1\"} 3
softmc_issue_ns_bucket{le=\"3\"} 3
softmc_issue_ns_bucket{le=\"7\"} 7
softmc_issue_ns_bucket{le=\"+Inf\"} 7
softmc_issue_ns_sum 17
softmc_issue_ns_count 7
";
    assert_eq!(out, expected);
    parse_and_validate(&out).expect("golden histogram must be conformant");
}

/// The validator itself must reject malformed payloads — otherwise the
/// property tests below prove nothing.
#[test]
fn validator_rejects_malformed_payloads() {
    let cases: &[(&str, &str)] = &[
        ("x 1\n", "sample before any # TYPE"),
        ("# TYPE x counter\n", "no samples"),
        ("# TYPE x counter\nx 1\n# TYPE x counter\nx 2\n", "duplicate TYPE"),
        ("# TYPE x counter\nx 1\nx 1\n", "duplicate series"),
        ("# TYPE x counter\nx -3\n", "negative counter"),
        ("# TYPE 9x counter\n9x 1\n", "invalid"),
        ("# TYPE x counter\ny 1\n", "does not belong"),
        ("# TYPE x histogram\nx_sum 1\nx_count 1\n", "no buckets"),
        (
            "# TYPE x histogram\nx_bucket{le=\"1\"} 5\nx_bucket{le=\"2\"} 3\n\
             x_bucket{le=\"+Inf\"} 5\nx_sum 9\nx_count 5\n",
            "not cumulative",
        ),
        (
            "# TYPE x histogram\nx_bucket{le=\"1\"} 2\nx_bucket{le=\"+Inf\"} 5\n\
             x_sum 9\nx_count 4\n",
            "+Inf bucket",
        ),
        (
            "# TYPE x histogram\nx_bucket{le=\"2\"} 1\nx_bucket{le=\"1\"} 2\n\
             x_bucket{le=\"+Inf\"} 2\nx_sum 3\nx_count 2\n",
            "strictly increasing",
        ),
        ("# TYPE x histogram\nx_bucket{le=\"1\"} 2\nx_sum 3\nx_count 2\n", "+Inf"),
    ];
    for (payload, needle) in cases {
        let err = parse_and_validate(payload).expect_err(payload);
        assert!(err.contains(needle), "payload {payload:?}: error `{err}` missing `{needle}`");
    }
}

/// Escaped label values round-trip through the parser, including the
/// three escapable characters.
#[test]
fn label_escaping_round_trips_golden() {
    let raw = "path\\to\"dir\"\nline2";
    let line = format!("x{{file=\"{}\"}} 1", escape_label_value(raw));
    let sample = parse_sample(&line).expect("escaped label must parse");
    assert_eq!(sample.labels, vec![("file".to_string(), raw.to_string())]);
}

// ---------------------------------------------------------------------------
// Property tests: arbitrary recorder contents stay conformant
// ---------------------------------------------------------------------------

// Disjoint per-kind name pools (mirroring the convention in
// `rh_obs::names`): a counter and a gauge sharing one sanitized name
// would legitimately violate the one-TYPE-per-family rule, and the
// exporter relies on the names registry keeping kinds disjoint.
const COUNTER_NAMES: [&str; 4] = ["dram.flip", "softmc.cmd", "9 weird counter!", "rate::flips"];
const GAUGE_NAMES: [&str; 3] = ["executor.queue_depth", "campaign.eta_ms", "temp.°celsius"];
const SPAN_NAMES: [&str; 2] = ["campaign.module", "softmc.batch"];
static COUNTERS: [Counter; 4] = [
    Counter::new(COUNTER_NAMES[0]),
    Counter::new(COUNTER_NAMES[1]),
    Counter::new(COUNTER_NAMES[2]),
    Counter::new(COUNTER_NAMES[3]),
];
static GAUGES: [Gauge; 3] =
    [Gauge::new(GAUGE_NAMES[0]), Gauge::new(GAUGE_NAMES[1]), Gauge::new(GAUGE_NAMES[2])];

#[derive(Debug, Clone)]
enum Op {
    Counter(usize, u64),
    Gauge(usize, f64),
    Span(usize, u64),
}

struct Ops;

impl Strategy for Ops {
    type Value = Vec<Op>;
    fn sample(&self, rng: &mut TestRng) -> Vec<Op> {
        let n = 1 + rng.below(40) as usize;
        (0..n)
            .map(|_| match rng.below(3) {
                0 => Op::Counter(rng.below(COUNTER_NAMES.len() as u64) as usize, rng.below(1 << 40)),
                1 => {
                    let v = match rng.below(4) {
                        // Non-finite gauges must be skipped, so feed
                        // them in deliberately.
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        _ => (rng.unit_f64() - 0.5) * 1e9,
                    };
                    Op::Gauge(rng.below(GAUGE_NAMES.len() as u64) as usize, v)
                }
                _ => Op::Span(rng.below(SPAN_NAMES.len() as u64) as usize, rng.below(1 << 30)),
            })
            .collect()
    }
}

/// A histogram snapshot with magnitude-diverse contents, the same way
/// `Histogram::record` fills one (without the global registry).
struct Snapshots;

impl Strategy for Snapshots {
    type Value = HistSnapshot;
    fn sample(&self, rng: &mut TestRng) -> HistSnapshot {
        let mut s = HistSnapshot::empty("prop.conformance.ns");
        let n = rng.below(120);
        for _ in 0..n {
            let width = rng.below(64);
            let v = if width == 0 {
                0
            } else {
                let half = 1u64 << (width - 1);
                half + rng.below(half)
            };
            s.buckets[bucket_of(v)] += 1;
            s.count += 1;
            s.sum = s.sum.saturating_add(v);
            s.max = s.max.max(v);
        }
        s
    }
}

struct LabelText;

impl Strategy for LabelText {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        const POOL: [char; 10] = ['a', 'Z', '0', ' ', '\\', '"', '\n', '=', ',', '}'];
        let n = rng.below(24) as usize;
        (0..n).map(|_| POOL[rng.below(POOL.len() as u64) as usize]).collect()
    }
}

struct RawName;

impl Strategy for RawName {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        const POOL: [char; 12] = ['a', 'B', '_', ':', '0', '9', '.', '-', ' ', '!', '°', 'µ'];
        let n = rng.below(16) as usize;
        (0..n).map(|_| POOL[rng.below(POOL.len() as u64) as usize]).collect()
    }
}

proptest! {
    // Whatever sequence of recorder writes happens, the rendered
    // payload obeys every format rule the validator knows about, and
    // cumulative counter semantics survive the round trip.
    #[test]
    fn recorder_payloads_are_always_conformant(ops in Ops) {
        let _l = registry_lock();
        let rec = session();
        let mut expected_counts = std::collections::BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Counter(i, d) => {
                    COUNTERS[i].add(d);
                    *expected_counts.entry(COUNTER_NAMES[i]).or_insert(0u64) += d;
                }
                Op::Gauge(i, v) => GAUGES[i].set(v),
                Op::Span(i, us) => {
                    rec.span_end(SPAN_NAMES[i], Duration::from_micros(us), SpanIds::none(), Vec::new());
                }
            }
        }
        rh_obs::uninstall();
        let text = render_prometheus(&rec);
        let families = parse_and_validate(&text);
        prop_assert!(families.is_ok(), "{:?}:\n{text}", families.as_ref().err());
        let families = families.unwrap_or_default();
        // Counter totals survive rendering + parsing exactly.
        for (name, total) in &expected_counts {
            let m = sanitize_metric_name(name);
            let fam = families.iter().find(|f| f.name == m);
            prop_assert!(fam.is_some(), "counter family `{m}` missing");
            if let Some(fam) = fam {
                prop_assert_eq!(fam.kind.as_str(), "counter");
                prop_assert_eq!(fam.samples[0].value, *total as f64);
            }
        }
    }

    // Any reachable histogram snapshot renders to a conformant
    // histogram family whose +Inf bucket, _count, and _sum match the
    // snapshot exactly.
    #[test]
    fn histogram_exposition_is_always_conformant(snap in Snapshots) {
        let mut out = String::new();
        render_histogram(&mut out, &snap);
        let families = parse_and_validate(&out);
        prop_assert!(families.is_ok(), "{:?}:\n{out}", families.as_ref().err());
        let families = families.unwrap_or_default();
        prop_assert_eq!(families.len(), 1);
        let fam = &families[0];
        let count = fam.samples.iter().find(|s| s.name.ends_with("_count"));
        prop_assert_eq!(count.map(|s| s.value), Some(snap.count as f64));
        let sum = fam.samples.iter().find(|s| s.name.ends_with("_sum"));
        prop_assert_eq!(sum.map(|s| s.value), Some(snap.sum as f64));
        // Non-cumulative bucket totals must reproduce `count`: the
        // +Inf sample covers everything above the last rendered edge.
        let finite: Vec<f64> = fam
            .samples
            .iter()
            .filter(|s| s.name.ends_with("_bucket") && s.labels[0].1 != "+Inf")
            .map(|s| s.value)
            .collect();
        if let Some(&last) = finite.last() {
            prop_assert!(last <= snap.count as f64);
        }
    }

    // Label escaping is lossless for arbitrary text, even text
    // containing the label-set metacharacters themselves.
    #[test]
    fn label_values_round_trip(raw in LabelText) {
        let line = format!("x{{v=\"{}\"}} 1", escape_label_value(&raw));
        let parsed = parse_sample(&line);
        prop_assert!(parsed.is_ok(), "{line:?}: {:?}", parsed.as_ref().err());
        if let Ok(sample) = parsed {
            prop_assert_eq!(sample.labels[0].1.as_str(), raw.as_str());
        }
        // The escaped text itself never contains a raw newline or an
        // unescaped quote, so it cannot break out of the sample line.
        prop_assert!(!escape_label_value(&raw).contains('\n'));
    }

    // Sanitized names always land in the legal Prometheus charset.
    #[test]
    fn sanitized_names_are_always_legal(raw in RawName) {
        prop_assert!(is_valid_metric_name(&sanitize_metric_name(&raw)));
    }
}
