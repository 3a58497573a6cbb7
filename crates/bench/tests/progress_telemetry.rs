//! Campaign progress through the `--metrics-out` artifact: a
//! reproduction campaign run under [`rh_bench::ObsSetup::new`] with a
//! metrics path must leave a snapshot whose `campaign.progress.*`
//! gauges agree with the campaign's own tally, next to the counters
//! of the instrumented layers.
//!
//! The observability recorder is process-global, so everything lives in
//! one test function — concurrent tests in this binary would race on
//! the installed recorder.

use rh_bench::{run_target, ObsSetup, RunConfig};
use rh_core::Scale;
use rh_obs::names;

#[test]
fn metrics_snapshot_carries_the_campaign_tally() {
    let metrics_path = std::env::temp_dir()
        .join(format!("rh-progress-telemetry-{}-metrics.json", std::process::id()));
    let _ = std::fs::remove_file(&metrics_path);

    let mut cfg = RunConfig { scale: Scale::Smoke, modules_per_mfr: 2, ..RunConfig::default() };
    let obs = ObsSetup::new(None, Some(metrics_path.clone()));
    assert!(obs.active(), "--metrics-out alone must install the recorder");
    let tracker = obs.progress().expect("an active setup always carries a tracker");
    cfg.progress = Some(tracker.clone());

    let out = run_target("fig4", &cfg).expect("fig4 run");
    let report = out.report.expect("fig4 is campaign-backed");
    assert!(report.is_clean(), "fault-free smoke campaign: {}", report.summary_line());

    // The in-process tracker agrees with the campaign's own tally.
    let snap = tracker.snapshot();
    assert!(snap.total > 0);
    assert_eq!(snap.total, report.outcomes.len(), "every module admitted once");
    assert_eq!(snap.completed(), snap.total, "every admitted module resolved");
    assert!(snap.done());

    obs.finish().expect("finish saves the metrics snapshot");

    let text = std::fs::read_to_string(&metrics_path).expect("metrics snapshot written");
    let v: serde::Value = serde_json::from_str(&text).expect("metrics snapshot is JSON");
    let gauge = |name: &str| v.field("gauges").field(name).as_f64();
    assert_eq!(
        gauge(names::CAMPAIGN_PROGRESS_TOTAL),
        Some(snap.total as f64),
        "campaign.progress.total gauge:\n{text}"
    );
    assert_eq!(gauge(names::CAMPAIGN_PROGRESS_DONE), Some(snap.completed() as f64));
    let bulk = v.field("counters").field(names::SOFTMC_HAMMER_BULK).as_u64().unwrap_or(0);
    assert!(bulk > 0, "instrumented layers must publish counters:\n{text}");

    let _ = std::fs::remove_file(&metrics_path);
}
