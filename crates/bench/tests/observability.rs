//! End-to-end observability: a smoke reproduction run with the
//! [`rh_obs::Recorder`] installed must produce a parseable JSONL
//! trace, a parseable metrics snapshot, and non-zero counters from
//! every instrumented layer (softmc, dram, campaign).
//!
//! The recorder is process-global, so everything lives in one test
//! function — concurrent tests in the same binary would race on it.

use rh_bench::{run_target, RunConfig};
use rh_core::Scale;
use rh_softmc::FaultPlan;
use serde::Value;
use std::sync::Arc;

#[test]
fn smoke_run_emits_trace_and_metrics() {
    let rec = Arc::new(rh_obs::Recorder::new());
    rh_obs::install(rec.clone());

    let cfg = RunConfig { scale: Scale::Smoke, modules_per_mfr: 1, ..RunConfig::default() };
    // fig6 walks the instruction-level program path (per-command
    // counters); fig4 is a campaign-managed hammer-count sweep.
    run_target("fig6", &cfg).expect("fig6");
    run_target("fig4", &cfg).expect("fig4");

    // An always-failing host link: every module fails its first
    // attempt with a transient HostLink error (one retry event), fails
    // again, and quarantines at the 2-attempt budget.
    let mut plan = FaultPlan::none(7);
    plan.host_link_fail_prob = 1.0;
    let mut faulty = RunConfig { faults: Some(plan), ..cfg.clone() };
    faulty.retry.max_attempts = 2;
    run_target("fig4", &faulty).expect("fig4 under faults still reports");

    // A wedged module on every bench plus a watchdog deadline: the
    // supervisor times every module out (the hang itself is unblocked
    // by the slot-token cancellation).
    let hung = RunConfig {
        faults: Some(FaultPlan::hung_module(7, 3)),
        deadline_ms: Some(8_000),
        max_workers: Some(4),
        ..cfg.clone()
    };
    run_target("fig4", &hung).expect("fig4 under hangs still reports");

    // An operator token cancelled before the run starts: every module
    // resolves as cancelled without running.
    let cancelled_cfg = cfg.clone();
    cancelled_cfg.cancel.cancel();
    run_target("fig4", &cancelled_cfg).expect("cancelled fig4 still reports");

    rh_obs::uninstall();

    // Counters from every instrumented layer.
    for name in [
        "softmc.cmd",
        "softmc.cmd.act",
        "softmc.cmd.pre",
        "softmc.hammer.bulk",
        "softmc.fault.injected",
        "dram.hammer.episodes",
        "dram.flip",
        "dram.row.write",
        "dram.row.read",
        "campaign.succeeded",
        "campaign.retries",
        "campaign.quarantined",
        "campaign.timeout",
        "campaign.cancelled",
        "softmc.fault.hang",
    ] {
        assert!(rec.counter_value(name) > 0, "counter {name} never incremented");
    }

    // Campaign lifecycle events and the span aggregates.
    assert!(rec.events_named("campaign.retry") > 0);
    assert!(rec.events_named("campaign.quarantine") > 0);
    assert!(rec.events_named("softmc.fault") > 0);
    assert!(rec.events_named("campaign.timeout") > 0);
    assert!(rec.events_named("campaign.cancelled") > 0);
    let spans = rec.span_stats();
    assert!(spans.get("campaign.module").map_or(0, |s| s.count) > 0);
    assert!(spans.get("bench.target").map_or(0, |s| s.count) >= 5);
    assert!(spans.get("executor.watchdog").map_or(0, |s| s.count) > 0, "watchdog span recorded");
    // The executor published its queue-depth gauge at least once.
    assert!(rec.gauge_value("executor.queue_depth").is_some(), "queue-depth gauge set");

    // Every JSONL trace line parses as a JSON object with the
    // envelope keys, and spans carry their duration.
    let jsonl = rec.to_jsonl();
    assert!(jsonl.lines().count() > 0, "empty trace");
    for line in jsonl.lines() {
        let v: Value = serde_json::from_str(line).expect("JSONL line parses");
        let kind = v.field("kind").as_str().expect("kind present");
        assert!(kind == "event" || kind == "span", "unexpected kind {kind}");
        assert!(v.field("name").as_str().is_some());
        assert!(v.field("ts_us").as_u64().is_some());
        if kind == "span" {
            assert!(v.field("elapsed_us").as_u64().is_some());
        }
    }
    // A quarantine event round-trips its fields through JSON.
    let quarantine = jsonl
        .lines()
        .map(|l| serde_json::from_str::<Value>(l).expect("line parses"))
        .find(|v| v.field("name").as_str() == Some("campaign.quarantine"))
        .expect("quarantine event in trace");
    assert_eq!(quarantine.field("fields").field("attempts").as_u64(), Some(2));
    assert!(quarantine
        .field("fields")
        .field("error")
        .as_str()
        .is_some_and(|e| e.contains("host link")));

    // A timeout event round-trips its deadline bookkeeping.
    let timeout = jsonl
        .lines()
        .map(|l| serde_json::from_str::<Value>(l).expect("line parses"))
        .find(|v| v.field("name").as_str() == Some("campaign.timeout"))
        .expect("timeout event in trace");
    assert_eq!(timeout.field("fields").field("deadline_ms").as_u64(), Some(8_000));
    assert!(timeout.field("fields").field("module").as_str().is_some());

    // The metrics snapshot parses and reflects the same counters.
    let metrics: Value = serde_json::from_str(&rec.metrics_json()).expect("metrics parse");
    assert!(metrics.field("counters").field("dram.flip").as_u64().is_some_and(|v| v > 0));
    assert!(metrics
        .field("gauges")
        .field("executor.queue_depth")
        .as_f64()
        .is_some());
    assert!(metrics
        .field("spans")
        .field("executor.watchdog")
        .field("count")
        .as_u64()
        .is_some_and(|v| v > 0));
    assert!(metrics
        .field("spans")
        .field("campaign.module")
        .field("count")
        .as_u64()
        .is_some_and(|v| v > 0));
    assert!(metrics.field("events_recorded").as_u64().is_some_and(|v| v > 0));
}
