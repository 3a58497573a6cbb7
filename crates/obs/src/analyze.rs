//! Offline trace analysis: span-tree reconstruction and reporting
//! over the JSONL traces the [`crate::Recorder`] exports.
//!
//! The recorder emits spans **at drop**, so a trace is ordered by span
//! *end* time and carries no parent pointers. Reconstruction exploits
//! the nesting discipline of scoped guards: within one thread, a span
//! that starts no earlier and ends no later than a later-emitted span
//! is its descendant. Records are replayed in file order keeping a
//! per-thread stack of completed subtrees; each new span adopts the
//! trailing subtrees its interval covers. Traces written before the
//! recorder stamped thread ids (`tid`) collapse onto thread 0, which
//! is exact for single-threaded phases and merely conservative for
//! parallel ones.
//!
//! Timestamps are truncated to microseconds, so a child's computed
//! start can precede its parent's by 1 µs; containment checks carry a
//! ±1 µs tolerance. Spans the tolerance cannot attach become roots
//! rather than being dropped.
//!
//! The analyzer is pure string-in/report-out (the vendored
//! `serde_json` parses each record; `rh-stats` supplies the
//! duration-distribution rendering), so it works on a trace from any
//! source that follows the schema in DESIGN.md §7.

use rh_stats::Histogram1d;
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Span-tree reconstruction
// ---------------------------------------------------------------------------

/// One reconstructed span with its adopted descendants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Emitting thread (0 for pre-`tid` traces).
    pub tid: u64,
    /// Computed start: end timestamp minus elapsed, microseconds.
    pub start_us: u64,
    /// End timestamp, microseconds since recorder creation.
    pub end_us: u64,
    /// Child spans, in start order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Wall time of this span.
    #[must_use]
    pub fn elapsed_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Wall time not covered by children (clock truncation can make
    /// children sum past the parent; self time saturates at 0).
    #[must_use]
    pub fn self_us(&self) -> u64 {
        let child_total: u64 = self.children.iter().map(SpanNode::elapsed_us).sum();
        self.elapsed_us().saturating_sub(child_total)
    }
}

/// Aggregate over every span (or every root) sharing a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameAgg {
    /// Span name.
    pub name: String,
    /// Occurrences.
    pub count: u64,
    /// Summed wall time, microseconds.
    pub total_us: u64,
    /// Summed self time, microseconds.
    pub self_us: u64,
    /// Longest single occurrence, microseconds.
    pub max_us: u64,
}

/// Everything extracted from one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Reconstructed span forest, in start order.
    pub roots: Vec<SpanNode>,
    /// Total spans in the trace.
    pub span_count: u64,
    /// Total events in the trace.
    pub event_count: u64,
    /// Event occurrences by name.
    pub event_counts: BTreeMap<String, u64>,
    /// Trace extent: latest end minus earliest start, microseconds.
    pub wall_us: u64,
    /// Lines that failed to parse and were skipped.
    pub skipped_lines: u64,
}

/// Parses a JSONL trace and reconstructs its span forest. Malformed
/// lines are skipped (and counted), so a trace truncated by a crash
/// still analyzes.
///
/// # Errors
///
/// When the input contains no parseable trace records at all.
pub fn analyze_trace(jsonl: &str) -> Result<Analysis, String> {
    let mut stacks: BTreeMap<u64, Vec<SpanNode>> = BTreeMap::new();
    let mut analysis = Analysis {
        roots: Vec::new(),
        span_count: 0,
        event_count: 0,
        event_counts: BTreeMap::new(),
        wall_us: 0,
        skipped_lines: 0,
    };
    let mut first_start = u64::MAX;
    let mut last_end = 0u64;
    let mut parsed_any = false;

    for line in jsonl.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(rec) = serde_json::from_str::<Value>(line) else {
            analysis.skipped_lines += 1;
            continue;
        };
        let (Some(ts_us), Some(kind), Some(name)) =
            (rec.field("ts_us").as_u64(), rec.field("kind").as_str(), rec.field("name").as_str())
        else {
            analysis.skipped_lines += 1;
            continue;
        };
        parsed_any = true;
        let tid = rec.field("tid").as_u64().unwrap_or(0);
        match kind {
            "span" => {
                let elapsed = rec.field("elapsed_us").as_u64().unwrap_or(0);
                let start = ts_us.saturating_sub(elapsed);
                first_start = first_start.min(start);
                last_end = last_end.max(ts_us);
                analysis.span_count += 1;
                let stack = stacks.entry(tid).or_default();
                let mut children = Vec::new();
                while stack.last().is_some_and(|prev| {
                    prev.start_us + 1 >= start && prev.end_us <= ts_us + 1
                }) {
                    if let Some(prev) = stack.pop() {
                        children.push(prev);
                    }
                }
                children.reverse();
                stack.push(SpanNode { name: name.to_string(), tid, start_us: start, end_us: ts_us, children });
            }
            _ => {
                first_start = first_start.min(ts_us);
                last_end = last_end.max(ts_us);
                analysis.event_count += 1;
                *analysis.event_counts.entry(name.to_string()).or_insert(0) += 1;
            }
        }
    }
    if !parsed_any {
        return Err("no parseable trace records".to_string());
    }
    analysis.roots = stacks.into_values().flatten().collect();
    analysis.roots.sort_by_key(|r| (r.start_us, r.tid));
    analysis.wall_us = last_end.saturating_sub(if first_start == u64::MAX { 0 } else { first_start });
    Ok(analysis)
}

impl Analysis {
    /// Per-name aggregates over every span in the forest, sorted by
    /// self time descending (the "hot spans" ranking).
    #[must_use]
    pub fn aggregates(&self) -> Vec<NameAgg> {
        let mut by_name: BTreeMap<&str, NameAgg> = BTreeMap::new();
        fn walk<'a>(node: &'a SpanNode, by_name: &mut BTreeMap<&'a str, NameAgg>) {
            let agg = by_name.entry(&node.name).or_insert_with(|| NameAgg {
                name: node.name.clone(),
                count: 0,
                total_us: 0,
                self_us: 0,
                max_us: 0,
            });
            agg.count += 1;
            agg.total_us += node.elapsed_us();
            agg.self_us += node.self_us();
            agg.max_us = agg.max_us.max(node.elapsed_us());
            for c in &node.children {
                walk(c, by_name);
            }
        }
        for r in &self.roots {
            walk(r, &mut by_name);
        }
        let mut aggs: Vec<NameAgg> = by_name.into_values().collect();
        aggs.sort_by(|a, b| b.self_us.cmp(&a.self_us).then_with(|| a.name.cmp(&b.name)));
        aggs
    }

    /// Per-name aggregates over the roots only — the campaign's
    /// top-level phases — sorted by total time descending.
    #[must_use]
    pub fn phases(&self) -> Vec<NameAgg> {
        let mut by_name: BTreeMap<&str, NameAgg> = BTreeMap::new();
        for r in &self.roots {
            let agg = by_name.entry(&r.name).or_insert_with(|| NameAgg {
                name: r.name.clone(),
                count: 0,
                total_us: 0,
                self_us: 0,
                max_us: 0,
            });
            agg.count += 1;
            agg.total_us += r.elapsed_us();
            agg.self_us += r.self_us();
            agg.max_us = agg.max_us.max(r.elapsed_us());
        }
        let mut aggs: Vec<NameAgg> = by_name.into_values().collect();
        aggs.sort_by(|a, b| b.total_us.cmp(&a.total_us).then_with(|| a.name.cmp(&b.name)));
        aggs
    }

    /// Folded-stack output (`parent;child;grandchild self_us`), the
    /// input format of Brendan Gregg's `flamegraph.pl` and of most
    /// flamegraph viewers. Identical paths are merged.
    #[must_use]
    pub fn folded_stacks(&self) -> String {
        let mut merged: BTreeMap<String, u64> = BTreeMap::new();
        fn walk(node: &SpanNode, prefix: &str, merged: &mut BTreeMap<String, u64>) {
            let path = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix};{}", node.name)
            };
            *merged.entry(path.clone()).or_insert(0) += node.self_us();
            for c in &node.children {
                walk(c, &path, merged);
            }
        }
        for r in &self.roots {
            walk(r, "", &mut merged);
        }
        let mut out = String::new();
        for (path, us) in &merged {
            let _ = writeln!(out, "{path} {us}");
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Strict parsing + multi-process fleet stitching
// ---------------------------------------------------------------------------

/// Validates every line of a JSONL trace *before* analysis: any
/// malformed or truncated record (e.g. a file cut mid-record by a
/// crash) fails with its 1-based line number instead of being
/// silently skipped and shrinking the tree.
///
/// # Errors
///
/// `"line N: <cause>"` on the first bad line, or the underlying
/// [`analyze_trace`] error on an empty trace.
pub fn analyze_trace_strict(jsonl: &str) -> Result<Analysis, String> {
    validate_jsonl(jsonl)?;
    analyze_trace(jsonl)
}

fn validate_jsonl(jsonl: &str) -> Result<(), String> {
    for (idx, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: Value =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        let complete = rec.field("ts_us").as_u64().is_some()
            && rec.field("kind").as_str().is_some()
            && rec.field("name").as_str().is_some();
        if !complete {
            return Err(format!("line {}: record missing ts_us/kind/name", idx + 1));
        }
    }
    Ok(())
}

/// Metadata of one process segment in a stitched fleet trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Source file name (`coordinator.jsonl` / `segment-<lease>.jsonl`).
    pub file: String,
    /// Lease the segment belongs to (0 for the coordinator).
    pub lease: u64,
    /// Worker address, or `"coordinator"`.
    pub worker: String,
    /// Clock-skew correction applied to this segment's timestamps,
    /// microseconds of coordinator-clock minus worker-clock (None when
    /// the poll bracket was unavailable; the segment is then stitched
    /// unshifted).
    pub offset_us: Option<i64>,
    /// Records shed worker-side to fit the ship-back budget.
    pub shed: u64,
    /// Whether the lease had already expired when the segment shipped
    /// (a zombie's late result, kept for forensics).
    pub orphan: bool,
    /// Traced spans this segment contributed.
    pub spans: u64,
}

/// A span tree stitched across processes by explicit
/// `span_id -> parent_id` links, with per-segment clock-skew
/// normalization.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStitch {
    /// True roots (`parent_id == 0`); a healthy run has exactly one,
    /// the coordinator's `fleet.run` span.
    pub roots: Vec<SpanNode>,
    /// Subtrees whose parent span never arrived (killed worker, shed
    /// record): flagged here, never dropped.
    pub orphans: Vec<SpanNode>,
    /// Traced spans across all segments.
    pub span_count: u64,
    /// Events across all segments.
    pub event_count: u64,
    /// Event occurrences by name.
    pub event_counts: BTreeMap<String, u64>,
    /// `worker.job` spans from non-orphan segments — exactly one per
    /// committed job (zombie segments are excluded so duplicates from
    /// expired leases don't inflate the count).
    pub job_spans: u64,
    /// `fleet.dispatch.rpc` spans whose lease shipped no segment: the
    /// worker died or the job was re-dispatched before completing.
    pub orphan_dispatches: u64,
    /// Segments flagged orphan in their meta record.
    pub orphan_segments: u64,
    /// Per-segment metadata, in file order (coordinator first).
    pub segments: Vec<SegmentInfo>,
    /// Stitched trace extent on the coordinator clock, microseconds.
    pub wall_us: u64,
}

struct RawSpan {
    name: String,
    tid: u64,
    start_us: u64,
    end_us: u64,
    parent: u64,
    lease: Option<u64>,
}

fn parse_hex_id(rec: &Value, key: &str) -> Option<u64> {
    u64::from_str_radix(rec.field(key).as_str()?, 16).ok()
}

/// Stitches a fleet trace from `(file_name, jsonl)` pairs — one
/// `coordinator.jsonl` plus any number of `segment-<lease>.jsonl`
/// ship-backs. Strict: any malformed record fails with
/// `"<file>: line N: <cause>"`.
///
/// # Errors
///
/// On empty input, unreadable records, or a coordinator file with no
/// traced spans.
pub fn stitch_fleet(files: &[(String, String)]) -> Result<FleetStitch, String> {
    if files.is_empty() {
        return Err("fleet trace: no coordinator.jsonl or segment-*.jsonl inputs".to_string());
    }
    let mut spans: BTreeMap<u64, RawSpan> = BTreeMap::new();
    let mut segments: Vec<SegmentInfo> = Vec::new();
    let mut segment_leases: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    let mut event_count = 0u64;
    let mut event_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut orphan_segments = 0u64;
    let mut job_spans = 0u64;

    for (fname, content) in files {
        validate_jsonl(content).map_err(|e| format!("{fname}: {e}"))?;
        let is_segment = fname.starts_with("segment-");
        let mut info = SegmentInfo {
            file: fname.clone(),
            lease: 0,
            worker: "coordinator".to_string(),
            offset_us: if is_segment { None } else { Some(0) },
            shed: 0,
            orphan: false,
            spans: 0,
        };
        let mut offset = 0i64;
        let mut file_job_spans = 0u64;
        for line in content.lines().filter(|l| !l.trim().is_empty()) {
            // Validated above; a failure here would be a logic error.
            let rec = serde_json::from_str::<Value>(line).map_err(|e| format!("{fname}: {e}"))?;
            let kind = rec.field("kind").as_str().unwrap_or("");
            let name = rec.field("name").as_str().unwrap_or("");
            match kind {
                "meta" if name == crate::names::FLEET_TRACE_SEGMENT => {
                    let fields = rec.field("fields");
                    info.lease = fields.field("lease").as_u64().unwrap_or(0);
                    if let Some(w) = fields.field("worker").as_str() {
                        info.worker = w.to_string();
                    }
                    info.offset_us = fields.field("offset_us").as_i64();
                    info.shed = fields.field("shed").as_u64().unwrap_or(0);
                    info.orphan = fields.field("orphan").as_bool().unwrap_or(false);
                    offset = info.offset_us.unwrap_or(0);
                }
                "span" => {
                    // Only spans carrying explicit trace identity join
                    // the stitched tree; untraced spans from the same
                    // process belong to other work.
                    let Some(span_id) = parse_hex_id(&rec, "span_id") else { continue };
                    let parent = parse_hex_id(&rec, "parent_id").unwrap_or(0);
                    let ts = rec.field("ts_us").as_u64().unwrap_or(0);
                    let elapsed = rec.field("elapsed_us").as_u64().unwrap_or(0);
                    let end_us =
                        u64::try_from((i64::try_from(ts).unwrap_or(i64::MAX)).saturating_add(offset))
                            .unwrap_or(0);
                    let tid = rec.field("tid").as_u64().unwrap_or(0);
                    let lease = rec.field("fields").field("lease").as_u64();
                    spans.insert(
                        span_id,
                        RawSpan {
                            name: name.to_string(),
                            tid,
                            start_us: end_us.saturating_sub(elapsed),
                            end_us,
                            parent,
                            lease,
                        },
                    );
                    info.spans += 1;
                    if name == crate::names::WORKER_JOB_SPAN {
                        file_job_spans += 1;
                    }
                }
                _ => {
                    event_count += 1;
                    *event_counts.entry(name.to_string()).or_insert(0) += 1;
                }
            }
        }
        if is_segment {
            segment_leases.insert(info.lease);
            if info.orphan {
                orphan_segments += 1;
            }
        }
        if !info.orphan {
            job_spans += file_job_spans;
        }
        segments.push(info);
    }

    // Adjacency by explicit parent link, then recursive assembly.
    let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut root_ids: Vec<u64> = Vec::new();
    let mut orphan_ids: Vec<u64> = Vec::new();
    for (&id, raw) in &spans {
        if raw.parent == 0 {
            root_ids.push(id);
        } else if spans.contains_key(&raw.parent) {
            children.entry(raw.parent).or_default().push(id);
        } else {
            orphan_ids.push(id);
        }
    }
    fn build(
        id: u64,
        spans: &BTreeMap<u64, RawSpan>,
        children: &BTreeMap<u64, Vec<u64>>,
        visited: &mut std::collections::BTreeSet<u64>,
    ) -> Option<SpanNode> {
        if !visited.insert(id) {
            return None; // cycle in corrupt input: keep the first visit
        }
        let raw = spans.get(&id)?;
        let mut kids: Vec<SpanNode> = children
            .get(&id)
            .into_iter()
            .flatten()
            .filter_map(|&c| build(c, spans, children, visited))
            .collect();
        kids.sort_by_key(|k| (k.start_us, k.tid));
        Some(SpanNode {
            name: raw.name.clone(),
            tid: raw.tid,
            start_us: raw.start_us,
            end_us: raw.end_us,
            children: kids,
        })
    }
    let mut visited = std::collections::BTreeSet::new();
    let mut roots: Vec<SpanNode> =
        root_ids.iter().filter_map(|&id| build(id, &spans, &children, &mut visited)).collect();
    roots.sort_by_key(|r| (r.start_us, r.tid));
    let mut orphans: Vec<SpanNode> =
        orphan_ids.iter().filter_map(|&id| build(id, &spans, &children, &mut visited)).collect();
    orphans.sort_by_key(|r| (r.start_us, r.tid));

    let orphan_dispatches = spans
        .values()
        .filter(|s| {
            s.name == crate::names::FLEET_DISPATCH_RPC
                && s.lease.is_some_and(|l| !segment_leases.contains(&l))
        })
        .count() as u64;
    let first_start = spans.values().map(|s| s.start_us).min().unwrap_or(0);
    let last_end = spans.values().map(|s| s.end_us).max().unwrap_or(0);

    Ok(FleetStitch {
        roots,
        orphans,
        span_count: spans.len() as u64,
        event_count,
        event_counts,
        job_spans,
        orphan_dispatches,
        orphan_segments,
        segments,
        wall_us: last_end.saturating_sub(first_start),
    })
}

/// Reads `coordinator.jsonl` + every `segment-*.jsonl` from a fleet
/// trace directory (as written by `repro fleet --trace-dir`) and
/// stitches them.
///
/// # Errors
///
/// On an unreadable directory/file or any malformed record
/// (`"<file>: line N: <cause>"`).
pub fn analyze_fleet_dir(dir: &std::path::Path) -> Result<FleetStitch, String> {
    let mut files: Vec<(String, String)> = Vec::new();
    let coord = dir.join("coordinator.jsonl");
    if coord.is_file() {
        let content = std::fs::read_to_string(&coord)
            .map_err(|e| format!("{}: {e}", coord.display()))?;
        files.push(("coordinator.jsonl".to_string(), content));
    }
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|n| n.starts_with("segment-") && n.ends_with(".jsonl"))
        .collect();
    names.sort();
    for name in names {
        let path = dir.join(&name);
        let content =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        files.push((name, content));
    }
    stitch_fleet(&files)
}

impl FleetStitch {
    /// Folds the stitch into a plain [`Analysis`] (orphan subtrees
    /// become extra roots) so the standard report, flamegraph, and
    /// histogram renderers apply unchanged.
    #[must_use]
    pub fn to_analysis(&self) -> Analysis {
        let mut roots = self.roots.clone();
        roots.extend(self.orphans.iter().cloned());
        roots.sort_by_key(|r| (r.start_us, r.tid));
        Analysis {
            roots,
            span_count: self.span_count,
            event_count: self.event_count,
            event_counts: self.event_counts.clone(),
            wall_us: self.wall_us,
            skipped_lines: 0,
        }
    }
}

fn render_tree(node: &SpanNode, depth: usize, orphan: bool, out: &mut String) {
    let _ = writeln!(
        out,
        "  {:indent$}{} {}{}",
        "",
        node.name,
        fmt_us(node.elapsed_us()),
        if orphan { " [orphan]" } else { "" },
        indent = depth * 2
    );
    for child in &node.children {
        render_tree(child, depth + 1, false, out);
    }
}

/// Renders the stitched-fleet summary: root/orphan accounting, the
/// cross-process span tree, and per-segment skew/shed lines.
#[must_use]
pub fn render_fleet_report(stitch: &FleetStitch) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet trace: {} root(s), {} spans, {} events across {} process segment(s), wall {}",
        stitch.roots.len(),
        stitch.span_count,
        stitch.event_count,
        stitch.segments.len(),
        fmt_us(stitch.wall_us),
    );
    let _ = writeln!(
        out,
        "  jobs: {} worker.job span(s); orphan spans: {}; orphan dispatches: {}; orphan segments: {}",
        stitch.job_spans,
        stitch.orphans.len(),
        stitch.orphan_dispatches,
        stitch.orphan_segments,
    );
    let _ = writeln!(out, "\nsegments:");
    for seg in &stitch.segments {
        let offset = seg
            .offset_us
            .map_or_else(|| "unknown".to_string(), |o| format!("{o:+}us"));
        let _ = writeln!(
            out,
            "  {:<28} worker={} lease={} spans={} skew={} shed={}{}",
            seg.file,
            seg.worker,
            seg.lease,
            seg.spans,
            offset,
            seg.shed,
            if seg.orphan { " [orphan]" } else { "" },
        );
    }
    let _ = writeln!(out, "\nspan tree (skew-normalized to the coordinator clock):");
    for root in &stitch.roots {
        render_tree(root, 0, false, &mut out);
    }
    for orphan in &stitch.orphans {
        render_tree(orphan, 0, true, &mut out);
    }
    out
}

// ---------------------------------------------------------------------------
// Metrics sidecar + report rendering
// ---------------------------------------------------------------------------

/// Extracts the `counters` map from a metrics snapshot JSON (the file
/// `--metrics-out` writes).
///
/// # Errors
///
/// On malformed JSON or a missing/ill-typed `counters` member.
pub fn parse_metrics_counters(json: &str) -> Result<BTreeMap<String, u64>, String> {
    let doc = serde_json::from_str::<Value>(json).map_err(|e| e.to_string())?;
    let Value::Object(members) = doc.field("counters") else {
        return Err("metrics file has no 'counters' object".to_string());
    };
    let mut out = BTreeMap::new();
    for (k, v) in members {
        if let Some(n) = v.as_u64() {
            out.insert(k.clone(), n);
        }
    }
    Ok(out)
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

/// Renders the human-readable analysis report: phase breakdown, top-k
/// hot spans (self vs total time), span-duration distribution, event
/// counts, and — when a metrics snapshot is supplied — counter rates
/// (hammers/sec, commands/sec, flips/sec, …) over the trace extent.
#[must_use]
pub fn render_report(
    analysis: &Analysis,
    counters: Option<&BTreeMap<String, u64>>,
    top: usize,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} spans, {} events, {} roots, wall {}{}",
        analysis.span_count,
        analysis.event_count,
        analysis.roots.len(),
        fmt_us(analysis.wall_us),
        if analysis.skipped_lines > 0 {
            format!(" ({} malformed lines skipped)", analysis.skipped_lines)
        } else {
            String::new()
        }
    );

    // A lossy trace silently skews every number below it — say so
    // before anything else, not in the counter fine print.
    if let Some(&dropped) =
        counters.and_then(|c| c.get(crate::names::OBS_DROPPED_RECORDS))
    {
        if dropped > 0 {
            let _ = writeln!(
                out,
                "\nWARNING: {dropped} trace record(s) were DROPPED by the recorder \
                 (memory cap or trace-file write error);\n\
                 \x20        span/event counts and rates below undercount the run"
            );
        }
    }

    let phases = analysis.phases();
    if !phases.is_empty() {
        let _ = writeln!(out, "\nphases (top-level spans):");
        let _ = writeln!(out, "  {:<28} {:>8} {:>12} {:>12} {:>7}", "name", "count", "total", "max", "%wall");
        for p in &phases {
            let pct = if analysis.wall_us > 0 {
                100.0 * p.total_us as f64 / analysis.wall_us as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>12} {:>12} {:>6.1}%",
                p.name,
                p.count,
                fmt_us(p.total_us),
                fmt_us(p.max_us),
                pct
            );
        }
    }

    let aggs = analysis.aggregates();
    if !aggs.is_empty() {
        let _ = writeln!(out, "\nhot spans (by self time, top {top}):");
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>12} {:>12} {:>12}",
            "name", "count", "self", "total", "max"
        );
        for a in aggs.iter().take(top) {
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>12} {:>12} {:>12}",
                a.name,
                a.count,
                fmt_us(a.self_us),
                fmt_us(a.total_us),
                fmt_us(a.max_us)
            );
        }
    }

    // Span-duration distribution on a log10 axis; rh-stats owns the
    // binning so the analyzer and the figure pipeline share one
    // histogram implementation.
    let mut durations: Vec<f64> = Vec::new();
    fn collect(node: &SpanNode, out: &mut Vec<f64>) {
        out.push((node.elapsed_us() as f64 + 1.0).log10());
        for c in &node.children {
            collect(c, out);
        }
    }
    for r in &analysis.roots {
        collect(r, &mut durations);
    }
    if !durations.is_empty() {
        let bins = 10usize.min(durations.len().max(1));
        let h = Histogram1d::of(&durations, bins);
        let peak = h.counts().iter().copied().max().unwrap_or(1).max(1);
        let _ = writeln!(out, "\nspan durations (log10 bins):");
        let width = (h.hi() - h.lo()) / h.counts().len() as f64;
        for (i, &c) in h.counts().iter().enumerate() {
            let lo_us = 10f64.powf(h.lo() + width * i as f64) - 1.0;
            let hi_us = 10f64.powf(h.lo() + width * (i + 1) as f64) - 1.0;
            let bar = "#".repeat(((c as f64 / peak as f64) * 40.0).round() as usize);
            let _ = writeln!(
                out,
                "  [{:>10} .. {:>10}) {:>8} {}",
                fmt_us(lo_us.max(0.0) as u64),
                fmt_us(hi_us.max(0.0) as u64),
                c,
                bar
            );
        }
    }

    if !analysis.event_counts.is_empty() {
        let _ = writeln!(out, "\nevents:");
        let mut events: Vec<(&String, &u64)> = analysis.event_counts.iter().collect();
        events.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        for (name, count) in events.iter().take(top) {
            let _ = writeln!(out, "  {name:<40} {count:>10}");
        }
    }

    if let Some(counters) = counters {
        let secs = analysis.wall_us as f64 / 1e6;
        let _ = writeln!(out, "\ncounter rates over {:.2}s:", secs);
        for (name, total) in counters {
            let rate = if secs > 0.0 { *total as f64 / secs } else { 0.0 };
            let _ = writeln!(out, "  {name:<40} {total:>12} {rate:>14.0}/s");
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Fleet journal analysis
// ---------------------------------------------------------------------------

/// Row filters for [`analyze_journal`]. `None` matches everything;
/// `kind` narrows only the counting tables, never the latency pairing
/// (filtering out `started` must not silently empty the percentiles).
#[derive(Debug, Clone, Default)]
pub struct JournalFilter {
    /// Keep only events attributed to this worker address.
    pub worker: Option<String>,
    /// Keep only events for this module id.
    pub module: Option<String>,
    /// Keep only this kind in the per-kind/worker/module tables.
    pub kind: Option<crate::stream::EventKind>,
}

/// Latency percentiles (µs) between one event pair, nearest-rank over
/// the sorted samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Number of `(from, to)` pairs found.
    pub samples: usize,
    /// Median.
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Worst case.
    pub max_us: u64,
}

/// What [`analyze_journal`] extracts from a fleet journal.
#[derive(Debug, Clone)]
pub struct JournalAnalysis {
    /// Events that matched the filter.
    pub total: u64,
    /// Malformed journal lines (crash-truncated tail, corruption).
    pub skipped: u64,
    /// Matched events per kind wire name, in lifecycle order.
    pub by_kind: Vec<(&'static str, u64)>,
    /// Matched events per source worker.
    pub by_worker: BTreeMap<String, u64>,
    /// Matched events per module.
    pub by_module: BTreeMap<String, u64>,
    /// Distinct lease ids seen (excluding the worker-global lease 0).
    pub leases: u64,
    /// Lease ids carrying more than one terminal event — always zero
    /// when the coordinator's `(lease_id, seq)` dedup held.
    pub multi_terminal_leases: u64,
    /// The `from -> to` pair the latency stats cover.
    pub pair: (crate::stream::EventKind, crate::stream::EventKind),
    /// Latency between the pair, per `(worker, lease)`.
    pub latency: LatencyStats,
}

fn nearest_rank(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * pct / 100]
}

/// Analyzes a fleet `journal.jsonl`: per-kind/worker/module counts
/// under `filter`, an exactly-once sanity check (no lease may carry
/// two terminal events), and latency percentiles from the first
/// `from`-kind to the first subsequent `to`-kind event of each
/// `(worker, lease)` — per worker because `ts_us` is each worker's
/// own monotonic clock and is not comparable across machines.
#[must_use]
pub fn analyze_journal(
    text: &str,
    filter: &JournalFilter,
    from: crate::stream::EventKind,
    to: crate::stream::EventKind,
) -> JournalAnalysis {
    use crate::stream::EventKind;
    let parsed = crate::stream::parse_events(text);
    let mut out = JournalAnalysis {
        total: 0,
        skipped: parsed.skipped,
        by_kind: Vec::new(),
        by_worker: BTreeMap::new(),
        by_module: BTreeMap::new(),
        leases: 0,
        multi_terminal_leases: 0,
        pair: (from, to),
        latency: LatencyStats::default(),
    };
    let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut terminals: BTreeMap<u64, u64> = BTreeMap::new();
    let mut pairs: BTreeMap<(String, u64), (Option<u64>, Option<u64>)> = BTreeMap::new();
    let mut leases: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for ev in &parsed.events {
        if filter.worker.as_deref().is_some_and(|w| w != ev.worker) {
            continue;
        }
        if filter.module.as_deref().is_some_and(|m| m != ev.module) {
            continue;
        }
        if ev.lease_id != 0 {
            leases.insert(ev.lease_id);
            if ev.kind.is_terminal() {
                *terminals.entry(ev.lease_id).or_insert(0) += 1;
            }
            let slot = pairs.entry((ev.worker.clone(), ev.lease_id)).or_insert((None, None));
            if ev.kind == from && slot.0.is_none() {
                slot.0 = Some(ev.ts_us);
            }
            if ev.kind == to && slot.1.is_none() {
                slot.1 = Some(ev.ts_us);
            }
        }
        if filter.kind.is_some_and(|k| k != ev.kind) {
            continue;
        }
        out.total += 1;
        *by_kind.entry(ev.kind.as_str()).or_insert(0) += 1;
        *out.by_worker.entry(ev.worker.clone()).or_insert(0) += 1;
        *out.by_module.entry(ev.module.clone()).or_insert(0) += 1;
    }
    out.by_kind = EventKind::ALL
        .into_iter()
        .filter_map(|k| by_kind.get(k.as_str()).map(|&n| (k.as_str(), n)))
        .collect();
    out.leases = leases.len() as u64;
    out.multi_terminal_leases = terminals.values().filter(|&&n| n > 1).count() as u64;
    let mut samples: Vec<u64> = pairs
        .values()
        .filter_map(|&(f, t)| match (f, t) {
            (Some(f), Some(t)) if t >= f => Some(t - f),
            _ => None,
        })
        .collect();
    samples.sort_unstable();
    out.latency = LatencyStats {
        samples: samples.len(),
        p50_us: nearest_rank(&samples, 50),
        p90_us: nearest_rank(&samples, 90),
        p99_us: nearest_rank(&samples, 99),
        max_us: samples.last().copied().unwrap_or(0),
    };
    out
}

/// Renders the journal analysis as the `repro analyze journal` report.
#[must_use]
pub fn render_journal_report(a: &JournalAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "journal: {} event(s), {} lease(s), {} worker(s){}",
        a.total,
        a.leases,
        a.by_worker.len(),
        if a.skipped > 0 {
            format!(" ({} malformed line(s) skipped)", a.skipped)
        } else {
            String::new()
        }
    );
    if a.multi_terminal_leases > 0 {
        let _ = writeln!(
            out,
            "\nWARNING: {} lease(s) carry more than one terminal event \
             (exactly-once violated)",
            a.multi_terminal_leases
        );
    }
    if !a.by_kind.is_empty() {
        let _ = writeln!(out, "\nevents by kind:");
        for (kind, n) in &a.by_kind {
            let _ = writeln!(out, "  {kind:<12} {n:>8}");
        }
    }
    if !a.by_worker.is_empty() {
        let _ = writeln!(out, "\nevents by worker:");
        for (worker, n) in &a.by_worker {
            let _ = writeln!(out, "  {worker:<24} {n:>8}");
        }
    }
    if !a.by_module.is_empty() {
        let _ = writeln!(out, "\nevents by module:");
        for (module, n) in &a.by_module {
            let _ = writeln!(out, "  {module:<28} {n:>8}");
        }
    }
    let _ = writeln!(
        out,
        "\nlatency {} -> {} (per worker+lease): {} sample(s)",
        a.pair.0.as_str(),
        a.pair.1.as_str(),
        a.latency.samples
    );
    if a.latency.samples > 0 {
        let _ = writeln!(
            out,
            "  p50 {}  p90 {}  p99 {}  max {}",
            fmt_us(a.latency.p50_us),
            fmt_us(a.latency.p90_us),
            fmt_us(a.latency.p99_us),
            fmt_us(a.latency.max_us),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconstructs_nesting_from_end_ordered_records() {
        // child: [60, 100); parent: [10, 110) — child emitted first.
        let trace = concat!(
            r#"{"ts_us":100,"kind":"span","name":"child","elapsed_us":40,"fields":{}}"#,
            "\n",
            r#"{"ts_us":110,"kind":"span","name":"parent","elapsed_us":100,"fields":{}}"#,
            "\n",
        );
        let a = analyze_trace(trace).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(a.roots.len(), 1);
        assert_eq!(a.roots[0].name, "parent");
        assert_eq!(a.roots[0].children.len(), 1);
        assert_eq!(a.roots[0].children[0].name, "child");
        assert_eq!(a.roots[0].self_us(), 60);
        assert_eq!(a.roots[0].children[0].self_us(), 40);
        assert_eq!(a.span_count, 2);
        assert_eq!(a.wall_us, 100);
    }

    #[test]
    fn sibling_spans_stay_siblings() {
        // Two siblings [0,40) and [50,90) under parent [0,100).
        let trace = concat!(
            r#"{"ts_us":40,"kind":"span","name":"s1","elapsed_us":40,"fields":{}}"#,
            "\n",
            r#"{"ts_us":90,"kind":"span","name":"s2","elapsed_us":40,"fields":{}}"#,
            "\n",
            r#"{"ts_us":100,"kind":"span","name":"parent","elapsed_us":100,"fields":{}}"#,
            "\n",
        );
        let a = analyze_trace(trace).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(a.roots.len(), 1);
        let kids: Vec<&str> = a.roots[0].children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(kids, vec!["s1", "s2"]);
        assert_eq!(a.roots[0].self_us(), 20);
    }

    #[test]
    fn threads_partition_the_forest_and_missing_tid_defaults_to_zero() {
        // Identical intervals on two threads must NOT nest; the first
        // record has no tid field at all (a pre-tid trace).
        let trace = concat!(
            r#"{"ts_us":50,"kind":"span","name":"a","elapsed_us":50,"fields":{}}"#,
            "\n",
            r#"{"ts_us":60,"kind":"span","name":"b","elapsed_us":60,"tid":7,"fields":{}}"#,
            "\n",
        );
        let a = analyze_trace(trace).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(a.roots.len(), 2);
        assert_eq!(a.roots.iter().map(|r| r.tid).collect::<Vec<_>>(), vec![0, 7]);
    }

    #[test]
    fn events_are_counted_and_malformed_lines_skipped() {
        let trace = concat!(
            r#"{"ts_us":5,"kind":"event","name":"campaign.retry","fields":{}}"#,
            "\n",
            "this is not json\n",
            r#"{"ts_us":9,"kind":"event","name":"campaign.retry","fields":{}}"#,
            "\n",
            r#"{"ts_us":20,"kind":"span","name":"root","elapsed_us":18,"fields":{}}"#,
            "\n",
        );
        let a = analyze_trace(trace).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(a.event_count, 2);
        assert_eq!(a.event_counts.get("campaign.retry"), Some(&2));
        assert_eq!(a.skipped_lines, 1);
        assert_eq!(a.span_count, 1);
    }

    #[test]
    fn empty_trace_is_an_error() {
        assert!(analyze_trace("").is_err());
        assert!(analyze_trace("not json\n").is_err());
    }

    #[test]
    fn folded_stacks_merge_identical_paths() {
        let trace = concat!(
            r#"{"ts_us":30,"kind":"span","name":"leaf","elapsed_us":10,"fields":{}}"#,
            "\n",
            r#"{"ts_us":50,"kind":"span","name":"leaf","elapsed_us":10,"fields":{}}"#,
            "\n",
            r#"{"ts_us":60,"kind":"span","name":"root","elapsed_us":60,"fields":{}}"#,
            "\n",
        );
        let a = analyze_trace(trace).unwrap_or_else(|e| panic!("{e}"));
        let folded = a.folded_stacks();
        assert!(folded.contains("root;leaf 20"), "folded output:\n{folded}");
        assert!(folded.contains("root 40"), "folded output:\n{folded}");
    }

    #[test]
    fn aggregates_rank_by_self_time() {
        let trace = concat!(
            r#"{"ts_us":90,"kind":"span","name":"inner","elapsed_us":80,"fields":{}}"#,
            "\n",
            r#"{"ts_us":100,"kind":"span","name":"outer","elapsed_us":100,"fields":{}}"#,
            "\n",
        );
        let a = analyze_trace(trace).unwrap_or_else(|e| panic!("{e}"));
        let aggs = a.aggregates();
        assert_eq!(aggs[0].name, "inner");
        assert_eq!(aggs[0].self_us, 80);
        assert_eq!(aggs[1].name, "outer");
        assert_eq!(aggs[1].self_us, 20);
        assert_eq!(aggs[1].total_us, 100);
    }

    #[test]
    fn report_renders_all_sections() {
        let trace = concat!(
            r#"{"ts_us":90,"kind":"span","name":"inner","elapsed_us":80,"fields":{}}"#,
            "\n",
            r#"{"ts_us":100,"kind":"span","name":"outer","elapsed_us":100,"fields":{}}"#,
            "\n",
            r#"{"ts_us":101,"kind":"event","name":"campaign.retry","fields":{}}"#,
            "\n",
        );
        let a = analyze_trace(trace).unwrap_or_else(|e| panic!("{e}"));
        let mut counters = BTreeMap::new();
        counters.insert("softmc.cmd".to_string(), 123_456u64);
        let report = render_report(&a, Some(&counters), 10);
        for needle in
            ["phases (top-level spans):", "hot spans", "span durations", "events:", "counter rates", "softmc.cmd"]
        {
            assert!(report.contains(needle), "missing '{needle}' in report:\n{report}");
        }
    }

    #[test]
    fn report_surfaces_dropped_records_prominently() {
        let trace = concat!(
            r#"{"ts_us":100,"kind":"span","name":"outer","elapsed_us":100,"fields":{}}"#,
            "\n",
        );
        let a = analyze_trace(trace).unwrap_or_else(|e| panic!("{e}"));
        let mut counters = BTreeMap::new();
        counters.insert(crate::names::OBS_DROPPED_RECORDS.to_string(), 7u64);
        let report = render_report(&a, Some(&counters), 10);
        assert!(report.contains("WARNING: 7 trace record(s) were DROPPED"), "{report}");
        let warn_at = report.find("WARNING").unwrap_or(usize::MAX);
        let rates_at = report.find("counter rates").unwrap_or(0);
        assert!(warn_at < rates_at, "warning must precede the fine print:\n{report}");
        // No warning when nothing was dropped (or no metrics given).
        counters.insert(crate::names::OBS_DROPPED_RECORDS.to_string(), 0);
        assert!(!render_report(&a, Some(&counters), 10).contains("WARNING"));
        assert!(!render_report(&a, None, 10).contains("WARNING"));
    }

    #[test]
    fn strict_analysis_fails_on_a_mid_record_cut_with_a_line_number() {
        // A crash cut the file mid-record: lenient analysis silently
        // drops the tail; strict analysis must refuse with the line.
        let full = concat!(
            r#"{"ts_us":100,"kind":"span","name":"child","elapsed_us":40,"fields":{}}"#,
            "\n",
            r#"{"ts_us":110,"kind":"span","name":"parent","elapsed_us":100,"fields":{}}"#,
            "\n",
        );
        let cut = &full[..full.len() - 30]; // mid-record on line 2
        let lenient = analyze_trace(cut).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(lenient.skipped_lines, 1, "lenient mode silently truncates");
        let err = analyze_trace_strict(cut).expect_err("strict must refuse");
        assert!(err.starts_with("line 2:"), "error must carry the line number: {err}");
        // An intact trace passes strict analysis unchanged.
        let strict = analyze_trace_strict(full).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(strict.span_count, 2);
        // A structurally-valid record missing the schema fields is
        // also an error, not a skip.
        let bad = "{\"ts_us\":5,\"kind\":\"span\"}\n";
        let err = analyze_trace_strict(bad).expect_err("incomplete record");
        assert!(err.contains("line 1"), "{err}");
        // Malformed JSON on a later line names that line.
        for garbage in ["{", "{\"a\":}", "[1,]", "{} x", "\"unterminated"] {
            let trace = format!("{full}{garbage}\n");
            let err = analyze_trace_strict(&trace).expect_err(garbage);
            assert!(err.starts_with("line 3: "), "{garbage}: {err}");
        }
    }

    fn fleet_fixture() -> Vec<(String, String)> {
        // Coordinator: fleet.run (span 0x1, root) containing one
        // dispatch rpc per lease (0x2 -> lease 7 committed, 0x3 ->
        // lease 8 lost). Worker segment for lease 7: worker.job 0xa
        // parented on 0x2, inner kernel span 0xb, plus an orphan span
        // 0xc whose parent 0xdead never shipped. Worker clock runs
        // 1000us behind (offset +1000).
        let coordinator = concat!(
            r#"{"ts_us":50,"kind":"span","name":"fleet.dispatch.rpc","elapsed_us":10,"tid":1,"trace_id":"00000000000000000000000000000abc","span_id":"0000000000000002","parent_id":"0000000000000001","fields":{"lease":7}}"#,
            "\n",
            r#"{"ts_us":70,"kind":"span","name":"fleet.dispatch.rpc","elapsed_us":10,"tid":1,"trace_id":"00000000000000000000000000000abc","span_id":"0000000000000003","parent_id":"0000000000000001","fields":{"lease":8}}"#,
            "\n",
            r#"{"ts_us":500,"kind":"span","name":"fleet.run","elapsed_us":490,"tid":1,"trace_id":"00000000000000000000000000000abc","span_id":"0000000000000001","parent_id":"0000000000000000","fields":{}}"#,
            "\n",
        );
        let segment7 = concat!(
            r#"{"ts_us":0,"kind":"meta","name":"fleet.trace.segment","tid":0,"fields":{"lease":7,"worker":"127.0.0.1:9","offset_us":1000,"shed":0,"orphan":false}}"#,
            "\n",
            r#"{"ts_us":-900,"kind":"event","name":"fleet.worker.job_start","tid":4,"fields":{}}"#,
            "\n",
            r#"{"ts_us":-800,"kind":"span","name":"fm.kernel","elapsed_us":50,"tid":4,"trace_id":"00000000000000000000000000000abc","span_id":"000000000000000b","parent_id":"000000000000000a","fields":{}}"#,
            "\n",
            r#"{"ts_us":-750,"kind":"span","name":"worker.job","elapsed_us":200,"tid":4,"trace_id":"00000000000000000000000000000abc","span_id":"000000000000000a","parent_id":"0000000000000002","fields":{"lease":7}}"#,
            "\n",
            r#"{"ts_us":-740,"kind":"span","name":"stray","elapsed_us":5,"tid":4,"trace_id":"00000000000000000000000000000abc","span_id":"000000000000000c","parent_id":"000000000000dead","fields":{}}"#,
            "\n",
        );
        // ts_us is unsigned in the schema; rewrite the negative demo
        // values (worker clocks start at 0 in reality).
        let segment7 = segment7.replace("-900", "100").replace("-800", "200").replace("-750", "250").replace("-740", "260");
        vec![
            ("coordinator.jsonl".to_string(), coordinator.to_string()),
            ("segment-7.jsonl".to_string(), segment7),
        ]
    }

    #[test]
    fn fleet_stitch_links_processes_normalizes_skew_and_flags_orphans() {
        let stitch = stitch_fleet(&fleet_fixture()).unwrap_or_else(|e| panic!("{e}"));
        // Exactly one true root: the coordinator's fleet.run.
        assert_eq!(stitch.roots.len(), 1);
        assert_eq!(stitch.roots[0].name, "fleet.run");
        // fleet.run -> dispatch(lease 7) -> worker.job -> fm.kernel.
        let dispatches = &stitch.roots[0].children;
        assert_eq!(dispatches.len(), 2);
        let job = dispatches
            .iter()
            .flat_map(|d| &d.children)
            .find(|c| c.name == "worker.job")
            .unwrap_or_else(|| panic!("worker.job must stitch under its dispatch"));
        assert_eq!(job.children.len(), 1);
        assert_eq!(job.children[0].name, "fm.kernel");
        // Skew: worker ts 250 + offset 1000 = 1250 on coordinator clock.
        assert_eq!(job.end_us, 1250);
        assert_eq!(stitch.job_spans, 1);
        // The stray span's parent never shipped: flagged, not dropped.
        assert_eq!(stitch.orphans.len(), 1);
        assert_eq!(stitch.orphans[0].name, "stray");
        // Lease 8 dispatched but shipped no segment (killed worker).
        assert_eq!(stitch.orphan_dispatches, 1);
        assert_eq!(stitch.orphan_segments, 0);
        assert_eq!(stitch.span_count, 6);
        assert_eq!(stitch.event_count, 1);
        let report = render_fleet_report(&stitch);
        for needle in
            ["fleet trace: 1 root(s)", "segment-7.jsonl", "skew=+1000us", "[orphan]", "worker.job"]
        {
            assert!(report.contains(needle), "missing '{needle}' in:\n{report}");
        }
        // The stitch folds into a standard Analysis for flamegraphs.
        let analysis = stitch.to_analysis();
        assert_eq!(analysis.span_count, 6);
        assert_eq!(analysis.roots.len(), 2, "fleet.run + flagged orphan");
        assert!(analysis.folded_stacks().contains("fleet.run;fleet.dispatch.rpc;worker.job;fm.kernel"));
    }

    #[test]
    fn fleet_stitch_is_strict_about_corrupt_segments() {
        let mut files = fleet_fixture();
        let cut = files[1].1.len() - 20;
        files[1].1.truncate(cut);
        let err = stitch_fleet(&files).expect_err("corrupt segment must refuse");
        assert!(err.starts_with("segment-7.jsonl: line"), "{err}");
        assert!(stitch_fleet(&[]).is_err());
    }

    #[test]
    fn parse_metrics_counters_reads_the_snapshot_schema() {
        let json = r#"{
  "counters": {
    "dram.flip": 42,
    "softmc.cmd": 1000
  },
  "gauges": {},
  "spans": {},
  "events_recorded": 0,
  "events_dropped": 0
}"#;
        let c = parse_metrics_counters(json).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(c.get("dram.flip"), Some(&42));
        assert_eq!(c.get("softmc.cmd"), Some(&1000));
        assert!(parse_metrics_counters("{}").is_err());
    }

    #[test]
    fn integers_above_i64_max_parse_exactly() {
        let line = r#"{"seq":3,"lease_id":18446744073709551614,"kind":"committed","ts_us":9}"#;
        let parsed = crate::stream::parse_events(line);
        assert_eq!(parsed.skipped, 0);
        assert_eq!(parsed.events[0].lease_id, 18_446_744_073_709_551_614);
        let c = parse_metrics_counters(r#"{"counters":{"big":9223372036854775809}}"#)
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(c.get("big"), Some(&9_223_372_036_854_775_809));
    }

    fn journal_fixture() -> String {
        use crate::stream::{journal_line, EventKind, JobEvent};
        let ev = |seq, lease_id, kind, module: &str, ts_us| JobEvent {
            seq,
            lease_id,
            kind,
            module: module.to_string(),
            ts_us,
            value: 0,
            detail: String::new(),
            worker: String::new(),
        };
        let mut text = String::new();
        // Worker 1: lease 7 runs A0, 100us start-to-commit.
        for e in [
            ev(1, 7, EventKind::Accepted, "A0", 10),
            ev(2, 7, EventKind::Started, "A0", 20),
            ev(3, 7, EventKind::Committed, "A0", 120),
        ] {
            text.push_str(&journal_line("127.0.0.1:7001", &e));
        }
        // Worker 2: lease 8 runs B1, 300us start-to-commit; lease 9
        // sheds (terminal on this worker, never started).
        for e in [
            ev(1, 8, EventKind::Started, "B1", 50),
            ev(2, 8, EventKind::Committed, "B1", 350),
            ev(3, 9, EventKind::Shed, "C2", 400),
        ] {
            text.push_str(&journal_line("127.0.0.1:7002", &e));
        }
        text.push_str("cut-mid-record{\"seq\":\n");
        text
    }

    #[test]
    fn journal_analysis_counts_and_latency_percentiles() {
        let a = analyze_journal(
            &journal_fixture(),
            &JournalFilter::default(),
            crate::stream::EventKind::Started,
            crate::stream::EventKind::Committed,
        );
        assert_eq!(a.total, 6);
        assert_eq!(a.skipped, 1);
        assert_eq!(a.leases, 3);
        assert_eq!(a.multi_terminal_leases, 0);
        assert_eq!(a.by_worker.get("127.0.0.1:7001"), Some(&3));
        assert_eq!(a.by_kind, vec![("accepted", 1), ("started", 2), ("committed", 2), ("shed", 1)]);
        assert_eq!(a.latency.samples, 2);
        assert_eq!(a.latency.p50_us, 100, "sorted samples [100, 300]");
        assert_eq!(a.latency.max_us, 300);
        let report = render_journal_report(&a);
        assert!(report.contains("6 event(s), 3 lease(s), 2 worker(s)"), "{report}");
        assert!(report.contains("(1 malformed line(s) skipped)"), "{report}");
        assert!(report.contains("latency started -> committed"), "{report}");
        assert!(report.contains("max 300us"), "{report}");
        assert!(!report.contains("WARNING"), "{report}");
    }

    #[test]
    fn journal_filters_narrow_tables_but_not_latency() {
        let text = journal_fixture();
        let by_worker = analyze_journal(
            &text,
            &JournalFilter {
                worker: Some("127.0.0.1:7002".to_string()),
                ..JournalFilter::default()
            },
            crate::stream::EventKind::Started,
            crate::stream::EventKind::Committed,
        );
        assert_eq!(by_worker.total, 3);
        assert_eq!(by_worker.latency.samples, 1, "worker filter scopes the pairing");
        assert_eq!(by_worker.latency.max_us, 300);

        let by_kind = analyze_journal(
            &text,
            &JournalFilter {
                kind: Some(crate::stream::EventKind::Committed),
                ..JournalFilter::default()
            },
            crate::stream::EventKind::Started,
            crate::stream::EventKind::Committed,
        );
        assert_eq!(by_kind.total, 2, "kind filter narrows the tables");
        assert_eq!(by_kind.latency.samples, 2, "kind filter must not break pairing");
    }

    #[test]
    fn journal_analysis_flags_double_terminals() {
        use crate::stream::{journal_line, EventKind, JobEvent};
        let ev = |seq, kind| JobEvent {
            seq,
            lease_id: 5,
            kind,
            module: "A0".to_string(),
            ts_us: seq,
            value: 0,
            detail: String::new(),
            worker: String::new(),
        };
        let mut text = String::new();
        text.push_str(&journal_line("w1", &ev(1, EventKind::Committed)));
        text.push_str(&journal_line("w1", &ev(2, EventKind::Committed)));
        let a = analyze_journal(
            &text,
            &JournalFilter::default(),
            EventKind::Started,
            EventKind::Committed,
        );
        assert_eq!(a.multi_terminal_leases, 1);
        assert!(render_journal_report(&a).contains("WARNING"), "exactly-once violation surfaces");
    }
}
