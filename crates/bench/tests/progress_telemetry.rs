//! End-to-end live telemetry: a reproduction campaign run with
//! [`rh_bench::ObsSetup::with_telemetry`] must expose `/metrics`,
//! `/progress`, and `/healthz` over HTTP while the campaign runs, the
//! progress tracker must agree with the campaign's final tally, the
//! rollup publisher must leave a parseable time-series file behind,
//! and `finish()` must tear the server down (no lingering listener).
//!
//! The observability sink is process-global, so everything lives in
//! one test function — concurrent tests in this binary would race on
//! the installed recorder.

use rh_bench::{run_target, top, ObsSetup, RunConfig, TelemetryOptions};
use rh_core::Scale;
use std::time::{Duration, Instant};

const GET_TIMEOUT: Duration = Duration::from_secs(2);

#[test]
fn live_endpoints_track_a_campaign_and_shut_down() {
    let tag = format!("rh-progress-telemetry-{}", std::process::id());
    let metrics_path = std::env::temp_dir().join(format!("{tag}-metrics.json"));
    let rollup_path = {
        let mut os = metrics_path.clone().into_os_string();
        os.push(".rollup.jsonl");
        std::path::PathBuf::from(os)
    };
    let _ = std::fs::remove_file(&metrics_path);
    let _ = std::fs::remove_file(&rollup_path);

    let mut cfg = RunConfig { scale: Scale::Smoke, modules_per_mfr: 2, ..RunConfig::default() };
    let telemetry = TelemetryOptions {
        serve_addr: Some("127.0.0.1:0".to_string()),
        rollup_interval: Some(Duration::from_millis(20)),
    };
    let obs = ObsSetup::with_telemetry(None, Some(metrics_path.clone()), &telemetry, &cfg.cancel);
    assert!(obs.active(), "a live server must install the recorder even without --trace-out");
    let addr = obs.serve_addr().expect("telemetry server must bind 127.0.0.1:0").to_string();
    let addr = addr.as_str();
    let tracker = obs.progress().expect("telemetry setup always carries a tracker");
    cfg.progress = Some(tracker.clone());

    // The endpoints are live before any campaign starts: an empty
    // tracker reports zero work and the exporter renders fine.
    let r = rh_obs::http_get(addr, "/healthz", GET_TIMEOUT).expect("healthz pre-run");
    assert_eq!(r.status, 200);
    let r = rh_obs::http_get(addr, "/progress", GET_TIMEOUT).expect("progress pre-run");
    assert_eq!(r.status, 200);
    let p = top::parse_progress(&r.body).expect("progress is JSON");
    assert_eq!(p.field("total").as_u64(), Some(0));

    // Run a campaign-managed target on another thread and watch it
    // through the HTTP endpoints, exactly like an operator would.
    let campaign_cfg = cfg.clone();
    let campaign = std::thread::spawn(move || run_target("fig4", &campaign_cfg));

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut saw_total = 0u64;
    while Instant::now() < deadline {
        let r = rh_obs::http_get(addr, "/progress", GET_TIMEOUT).expect("progress mid-run");
        assert_eq!(r.status, 200);
        let p = top::parse_progress(&r.body).expect("progress stays JSON mid-run");
        saw_total = p.field("total").as_u64().unwrap_or(0);
        if saw_total > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(saw_total > 0, "never observed registered campaign work over /progress");
    // /metrics and /healthz answer while the campaign is in flight.
    let r = rh_obs::http_get(addr, "/metrics", GET_TIMEOUT).expect("metrics mid-run");
    assert_eq!(r.status, 200);
    assert!(r.body.contains("# TYPE"), "exposition must carry TYPE lines:\n{}", r.body);
    let r = rh_obs::http_get(addr, "/healthz", GET_TIMEOUT).expect("healthz mid-run");
    assert_eq!(r.status, 200);

    campaign.join().expect("campaign thread").expect("fig4 run");

    // Final progress agrees with the campaign: everything registered
    // also resolved, and the tracker flags the run as done.
    let body = rh_obs::http_get(addr, "/progress", GET_TIMEOUT).expect("progress post-run").body;
    let p = top::parse_progress(&body).expect("final progress is JSON");
    let total = p.field("total").as_u64().expect("total");
    let completed = p.field("completed").as_u64().expect("completed");
    assert!(total > 0);
    assert_eq!(completed, total, "all registered modules must resolve: {body}");
    assert_eq!(p.field("done").as_bool(), Some(true), "tracker must report done: {body}");
    let snap = tracker.snapshot();
    assert_eq!(snap.completed() as u64, completed, "HTTP view and in-process snapshot must agree");

    // The exporter publishes the progress gauges and instrumented
    // counters the `top` monitor keys on.
    let text = rh_obs::http_get(addr, "/metrics", GET_TIMEOUT).expect("metrics post-run").body;
    assert_eq!(
        top::metric_value(&text, "campaign_progress_total"),
        Some(total as f64),
        "campaign_progress_total gauge:\n{text}"
    );
    assert_eq!(top::metric_value(&text, "campaign_progress_done"), Some(completed as f64));
    assert!(
        top::metric_value(&text, "softmc_hammer_bulk").unwrap_or(0.0) > 0.0,
        "instrumented layers must publish counters:\n{text}"
    );

    // The one-shot monitor renders a frame against the live server —
    // the same path `repro top ADDR --once` takes.
    top::top_main([addr.to_string(), "--once".to_string()].into_iter())
        .expect("repro top --once against the live server");

    // Teardown: finish() stops the rollup publisher (final flush),
    // saves the metrics snapshot, and shuts the server down.
    obs.finish().expect("finish saves outputs");

    let deadline = Instant::now() + Duration::from_secs(5);
    let mut refused = false;
    while Instant::now() < deadline {
        if rh_obs::http_get(addr, "/healthz", GET_TIMEOUT).is_err() {
            refused = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(refused, "telemetry server must stop listening after finish()");

    // The rollup series survived on disk: newline-delimited JSON
    // objects with monotone timestamps and the flip counter present.
    let rollup = std::fs::read_to_string(&rollup_path).expect("rollup file");
    let mut last_ts = 0u64;
    let mut lines = 0usize;
    for line in rollup.lines() {
        let v: serde::Value = serde_json::from_str(line).expect("rollup line is JSON");
        let ts = v.field("ts_us").as_u64().expect("ts_us");
        assert!(ts >= last_ts, "rollup timestamps must be monotone");
        last_ts = ts;
        lines += 1;
    }
    assert!(lines >= 1, "rollup publisher must have flushed at least one snapshot");
    assert!(metrics_path.exists(), "finish() saves the final metrics snapshot");

    let _ = std::fs::remove_file(&metrics_path);
    let _ = std::fs::remove_file(&rollup_path);
}
