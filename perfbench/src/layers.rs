//! The per-layer metrics of the traced run: their names, units, the
//! layer each measures, and the end-to-end metric and workload each
//! should move. Values come from the benchmark's own timers around the
//! public calls it makes and from an [`rh_obs::Recorder`] reading the
//! counters and histograms the program already records.

use crate::Workload;
use rh_obs::names;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerMetric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The layer measured.
    pub layer: &'static str,
    /// The end-to-end metric and workload the metric should move.
    pub moves: &'static str,
}

// What each metric should move, shared by several rows.
const BRINGUP_SPLIT: &str = "characterize_default setup_s, artifacts_smoke wall_s";
const BRINGUP: &str = "characterize_default setup_s";
const HC_FIRST: &str = "characterize_default cpu_s, artifacts_default cpu_s";
const CHAR_CPU: &str = "characterize_default cpu_s";
const DRAM: &str = "cpu_s on characterize_default and artifacts_default";
const FAULTMODEL: &str =
    "cpu_s on characterize_default and artifacts_default, peak_rss_mb everywhere";
const CAMPAIGN: &str = "artifacts_smoke wall_s, artifacts_default wall_s";
const FLEET_WALL: &str = "fleet_loopback wall_s";
const FLEET_BOTH: &str = "fleet_loopback wall_s, cpu_s";
const FLEET_CPU: &str = "fleet_loopback cpu_s";
const JOURNAL: &str = "rh_bench::{fleet,worker}, rh_obs::stream";

/// `(name, unit, layer, should move)` of every metric but the runners.
#[rustfmt::skip]
const FIXED: [(&str, &str, &str, &str); 35] = [
    ("core.mapping_re_s",               "s",             "rh_core::mapping_re", BRINGUP_SPLIT),
    ("core.wcdp_s",                     "s",             "rh_core::wcdp",       BRINGUP_SPLIT),
    ("core.bringup.calls",              "count",         "rh_core::metrics",    BRINGUP),
    ("core.bringup_s",                  "s",             "rh_core::metrics",    BRINGUP),
    ("core.hc_first.calls",             "count",         "rh_core::metrics",    HC_FIRST),
    ("core.hc_first_s",                 "s",             "rh_core::metrics",    HC_FIRST),
    ("core.hc_first.probes_per_search", "probes/search", "rh_core::metrics",    HC_FIRST),
    ("core.hc_first.found_ratio",       "ratio",         "rh_core::metrics",    HC_FIRST),
    ("core.measure_ber.calls",          "count",         "rh_core::metrics",    CHAR_CPU),
    ("core.measure_ber_s",              "s",             "rh_core::metrics",    "characterize_default cpu_s; must not rise when probes get cheaper"),
    ("core.write_neighborhood_us",      "us",            "rh_core::metrics",    CHAR_CPU),
    ("softmc.hammer_double_sided_us",   "us",            "rh_softmc",           CHAR_CPU),
    ("dram.read_row_direct_us",         "us",            "rh_dram",             CHAR_CPU),
    ("dram.row_read.calls",             "count",         "rh_dram",             DRAM),
    ("dram.row_write.calls",            "count",         "rh_dram",             DRAM),
    ("dram.row_read_s",                 "s",             "rh_dram",             DRAM),
    ("dram.row_write_s",                "s",             "rh_dram",             DRAM),
    ("dram.hammer_s",                   "s",             "rh_dram",             DRAM),
    ("faultmodel.row_derive.calls",     "count",         "rh_faultmodel",       FAULTMODEL),
    ("faultmodel.surface_build.calls",  "count",         "rh_faultmodel",       FAULTMODEL),
    ("faultmodel.early_out.calls",      "count",         "rh_faultmodel",       FAULTMODEL),
    ("faultmodel.cells_hit_ratio",      "ratio",         "rh_faultmodel",       FAULTMODEL),
    ("executor.queue_wait_s",           "s",             "rh_core::executor",   CAMPAIGN),
    ("campaign.attempt.calls",          "count",         "rh_core::campaign",   CAMPAIGN),
    ("campaign.attempt_s",              "s",             "rh_core::campaign",   CAMPAIGN),
    ("campaign.retries",                "count",         "rh_core::campaign",   CAMPAIGN),
    ("fleet.job_p50_ms",                "ms",            JOURNAL,               FLEET_WALL),
    ("fleet.job_max_ms",                "ms",            JOURNAL,               FLEET_WALL),
    ("fleet.queue_p50_ms",              "ms",            JOURNAL,               FLEET_WALL),
    ("worker.execute_s",                "s",             "rh_bench::worker",    FLEET_BOTH),
    ("fleet.overhead_per_job_ms",       "ms",            "rh_bench::worker",    FLEET_BOTH),
    ("fleet.commit_ratio",              "ratio",         "rh_core::fleet",      FLEET_CPU),
    ("obs.http.requests",               "count",         "rh_obs::serve",       FLEET_CPU),
    ("worker.events.polls",             "count",         "rh_obs::serve",       FLEET_CPU),
    ("obs.trace_overhead_pct",          "%",             "rh_obs",              "none: end-to-end runs are untraced"),
];

/// Every per-layer metric, in `BENCHMARK.json` order: one
/// `runners.<target>_s` per `repro all` target, then the rest.
#[must_use]
pub fn table() -> Vec<LayerMetric> {
    let runners = crate::artifacts::all_targets()
        .into_iter()
        .map(|t| LayerMetric {
            name: format!("runners.{t}_s"),
            unit: "s",
            layer: "rh_bench::runners",
            moves: "artifacts_default wall_s, cpu_s",
        });
    let fixed = FIXED.iter().map(|&(name, unit, layer, moves)| LayerMetric {
        name: name.to_string(),
        unit,
        layer,
        moves,
    });
    runners.chain(fixed).collect()
}

/// Installs a fresh process-global recorder (which also zeroes every
/// histogram) and returns it.
#[must_use]
pub fn install_recorder() -> Arc<rh_obs::Recorder> {
    let recorder = Arc::new(rh_obs::Recorder::new());
    rh_obs::install(recorder.clone());
    recorder
}

/// Global cell-cache hits over hits plus derivations.
#[must_use]
pub fn hit_ratio(hits: f64, derives: f64) -> f64 {
    if hits + derives > 0.0 {
        hits / (hits + derives)
    } else {
        0.0
    }
}

/// Reads the program's own counters, spans and histograms.
pub fn from_recorder(rec: &rh_obs::Recorder, out: &mut BTreeMap<String, f64>) {
    let hists: BTreeMap<&str, rh_obs::HistSnapshot> = rh_obs::hist::snapshot_all()
        .into_iter()
        .map(|h| (h.name, h))
        .collect();
    let hist_s = |n: &str| hists.get(n).map_or(0.0, |h| h.sum as f64 / 1e9);
    let count = |n: &str| rec.counter_value(n) as f64;
    let spans = rec.span_stats();
    let span = |n: &str| spans.get(n).copied().unwrap_or_default();
    let searches = span(names::CORE_HC_FIRST).count as f64;
    let probes = hists
        .get(names::CORE_HC_FIRST_PROBE_NS)
        .map_or(0, |h| h.count) as f64;
    let values = [
        ("core.hc_first.calls", searches),
        (
            "core.hc_first_s",
            span(names::CORE_HC_FIRST).total_us as f64 / 1e6,
        ),
        (
            "core.hc_first.probes_per_search",
            if searches > 0.0 {
                probes / searches
            } else {
                0.0
            },
        ),
        ("dram.row_read.calls", count(names::DRAM_ROW_READ)),
        ("dram.row_write.calls", count(names::DRAM_ROW_WRITE)),
        ("dram.row_read_s", hist_s(names::DRAM_ROW_READ_NS)),
        ("dram.row_write_s", hist_s(names::DRAM_ROW_WRITE_NS)),
        ("dram.hammer_s", hist_s(names::DRAM_HAMMER_NS)),
        (
            "faultmodel.row_derive.calls",
            count(names::FAULTMODEL_ROW_DERIVE),
        ),
        (
            "faultmodel.surface_build.calls",
            count(names::FAULTMODEL_SURFACE_BUILD),
        ),
        (
            "faultmodel.early_out.calls",
            count(names::FAULTMODEL_EVAL_EARLY_OUT),
        ),
        (
            "faultmodel.cells_hit_ratio",
            hit_ratio(
                count(names::FAULTMODEL_CELLS_GLOBAL_HIT),
                count(names::FAULTMODEL_ROW_DERIVE),
            ),
        ),
        (
            "executor.queue_wait_s",
            hist_s(names::EXECUTOR_QUEUE_WAIT_NS),
        ),
        (
            "campaign.attempt.calls",
            span(names::CAMPAIGN_ATTEMPT).count as f64,
        ),
        (
            "campaign.attempt_s",
            span(names::CAMPAIGN_ATTEMPT).total_us as f64 / 1e6,
        ),
        ("campaign.retries", count(names::CAMPAIGN_RETRIES)),
    ];
    for (name, value) in values {
        out.insert(name.to_string(), value);
    }
}

/// The per-layer table of one traced run. Metrics the workload does
/// not exercise print as `-` here and as 0 in the result line.
#[must_use]
pub fn render(workload: Workload, values: &BTreeMap<String, f64>) -> String {
    let mut s = format!(
        "per-layer metrics, traced {} run\n{:<34} {:>14} {:<14} {:<42} should move\n",
        workload.name(),
        "metric",
        "value",
        "unit",
        "layer"
    );
    for m in table() {
        let value = values
            .get(&m.name)
            .map_or_else(|| "-".to_string(), |v| format!("{v:.6}"));
        let _ = writeln!(
            s,
            "{:<34} {:>14} {:<14} {:<42} {}",
            m.name, value, m.unit, m.layer, m.moves
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let t = table();
        assert_eq!(t.len(), 70);
        let mut seen = std::collections::BTreeSet::new();
        for m in &t {
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
            assert!(m.name.len() <= 64);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
        }
    }
}
