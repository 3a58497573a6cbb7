//! Prometheus text-exposition rendering of the registered counters,
//! gauges and histograms ([`crate::hist`]) and a [`Recorder`]'s span
//! aggregates.
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

use crate::hist::{self, HistSnapshot};
use crate::recorder::Recorder;
use std::fmt::Write as _;

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
    push_family(out, &name, "histogram", &format!("Log2-bucketed histogram `{}`.", h.name));
    let top = h.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
    let mut cumulative = 0u64;
    for (i, &c) in h.buckets.iter().enumerate().take(top + 1) {
        if i + 1 == h.buckets.len() {
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
    push_sample(out, &format!("{name}_bucket"), &[("le", "+Inf")], &h.count.to_string());
    push_sample(out, &format!("{name}_sum"), &[], &h.sum.to_string());
    push_sample(out, &format!("{name}_count"), &[], &h.count.to_string());
}

/// Renders the full `/metrics` payload: every registered counter,
/// finite gauge and histogram, and every span aggregate held by `rec`,
/// in Prometheus text exposition format (version 0.0.4).
#[must_use]
pub fn render_prometheus(rec: &Recorder) -> String {
    let mut out = String::new();
    for (name, v) in rec.counters() {
        let m = sanitize_metric_name(name);
        push_family(&mut out, &m, "counter", &format!("Monotonic counter `{name}`."));
        push_sample(&mut out, &m, &[], &v.to_string());
    }
    for (name, v) in rec.gauges() {
        if !v.is_finite() {
            continue;
        }
        let m = sanitize_metric_name(name);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testlock::locked;
    use crate::SpanIds;
    use std::sync::Arc;
    use std::time::Duration;

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
        let _l = locked();
        let rec = Arc::new(Recorder::new());
        crate::install(rec.clone());
        crate::counter!("dram.flip", 42);
        crate::gauge!("executor.queue_depth", 3.0);
        crate::uninstall();
        rec.span_end("campaign.module", Duration::from_micros(120), SpanIds::none(), Vec::new());
        let text = render_prometheus(&rec);
        assert!(text.contains("# TYPE dram_flip counter\ndram_flip 42\n"));
        assert!(text.contains("# TYPE executor_queue_depth gauge\nexecutor_queue_depth 3\n"));
        assert!(text.contains("campaign_module_span_count 1\n"));
        assert!(text.contains("campaign_module_span_total_us 120\n"));
        assert!(text.contains("campaign_module_span_max_us 120\n"));
    }

    #[test]
    fn non_finite_gauges_are_null_in_json_and_skipped_in_prometheus() {
        let _l = locked();
        let rec = Arc::new(Recorder::new());
        crate::install(rec.clone());
        crate::gauge!("test.export.nan", f64::NAN);
        crate::gauge!("test.export.inf", f64::INFINITY);
        crate::gauge!("test.export.fine", -0.5);
        crate::uninstall();
        let json = rec.metrics_json();
        assert!(json.contains("\"test.export.nan\": null"));
        assert!(json.contains("\"test.export.inf\": null"));
        assert!(json.contains("\"test.export.fine\": -0.5"));
        let text = render_prometheus(&rec);
        assert!(!text.contains("test_export_nan"), "non-finite gauges must be skipped");
        assert!(!text.contains("test_export_inf"), "non-finite gauges must be skipped");
        assert!(text.contains("test_export_fine -0.5\n"));
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
}
