//! Chaos-soak of the supervised campaign executor, plus the in-process
//! equivalent of a SIGINT during `repro`: an interrupted campaign must
//! leave a loadable checkpoint and a parseable JSONL trace, and a
//! `--resume` rerun must complete exactly the unfinished modules.

use rh_bench::soak::{run_soak_tracked, SoakFault, SoakScenario};
use rh_bench::{run_target, ObsSetup, RunConfig};
use rh_core::{verify_checkpoint, ProgressTracker, Scale};
use rh_softmc::CancelToken;
use serde::Value;
use std::path::PathBuf;
use std::sync::Arc;

/// A hand-picked seed set covering every fault flavor plus mid-run
/// cancellation and fail-fast (see `SoakScenario::derive`); the CI
/// chaos-soak job sweeps a larger contiguous range on top.
const SOAK_SEEDS: [u64; 8] = [0, 4, 6, 10, 16, 20, 22, 24];

#[test]
fn chaos_soak_upholds_supervisor_invariants() {
    // The seed set must actually exercise the interesting machinery —
    // guard against derivation changes silently weakening the soak.
    let scenarios: Vec<SoakScenario> = SOAK_SEEDS.iter().map(|&s| SoakScenario::derive(s)).collect();
    for fault in [SoakFault::Hang, SoakFault::Dead, SoakFault::Panic] {
        assert!(
            scenarios.iter().any(|sc| sc.fault == fault),
            "seed set exercises {fault:?}"
        );
    }
    assert!(scenarios.iter().any(|sc| sc.cancel_after_ms.is_some()), "mid-run cancellation");
    assert!(scenarios.iter().any(|sc| sc.fail_fast), "fail-fast");

    let dir = std::env::temp_dir().join(format!("rh-chaos-soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("soak dir");
    // One shared progress tracker across every scenario — the same
    // aggregate `repro --soak --metrics-out` records as its
    // `campaign.progress.*` gauges.
    let tracker = Arc::new(ProgressTracker::new());
    let report = run_soak_tracked(SOAK_SEEDS, &dir, |_| {}, Some(&tracker));
    assert!(
        report.all_passed(),
        "soak invariant violations:\n{}",
        report.failures.join("\n")
    );
    assert_eq!(report.passed.len(), SOAK_SEEDS.len());
    // The soak saw the supervisor actually intervene somewhere.
    assert!(report.passed.iter().any(|s| s.timed_out > 0), "a hang was timed out");
    assert!(report.passed.iter().any(|s| s.cancelled > 0), "a cancellation landed");
    assert!(report.passed.iter().any(|s| s.quarantined > 0), "a permanent fault quarantined");

    // The tracker's accounting agrees with the campaign reports. Each
    // passing scenario runs its campaign twice (first run + resume
    // pass), admitting `modules` tasks each time; every admitted module
    // must have reached exactly one terminal status.
    let snap = tracker.snapshot();
    let modules: usize = report.passed.iter().map(|s| s.scenario.modules).sum();
    assert_eq!(snap.total, 2 * modules, "tracker admissions: {snap:?}");
    assert_eq!(snap.completed(), snap.total, "every admitted module resolved: {snap:?}");
    assert!(snap.done(), "tracker must report done after the soak");
    assert_eq!(snap.running, 0, "no running guard leaked: {snap:?}");
    // Cancellations only happen in first runs (the resume pass uses a
    // fresh token and no fail-fast), so the tallies match exactly;
    // quarantines/timeouts replay from the checkpoint on resume, so the
    // tracker sees at least the first-run counts.
    let cancelled: usize = report.passed.iter().map(|s| s.cancelled).sum();
    let quarantined: usize = report.passed.iter().map(|s| s.quarantined).sum();
    let timed_out: usize = report.passed.iter().map(|s| s.timed_out).sum();
    assert_eq!(snap.cancelled, cancelled, "cancelled tally: {snap:?}");
    assert!(snap.quarantined >= quarantined, "quarantine tally: {snap:?}");
    assert!(snap.timed_out >= timed_out, "timeout tally: {snap:?}");
    // The final ETA of a finished run is zero remaining work.
    assert!(snap.done() && snap.pending == 0, "{snap:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_run_leaves_resumable_state_and_parseable_trace() {
    let tag = format!("rh-interrupt-{}", std::process::id());
    let prefix = std::env::temp_dir().join(&tag);
    let ckpt = PathBuf::from(format!("{}-fig11.json", prefix.display()));
    let trace = std::env::temp_dir().join(format!("{tag}.jsonl"));
    let metrics = std::env::temp_dir().join(format!("{tag}-metrics.json"));
    let _ = std::fs::remove_file(&ckpt);

    // The recorder `repro --trace-out` would install.
    let obs = ObsSetup::new(Some(trace.clone()), Some(metrics.clone()));
    assert!(obs.active());

    // One worker, eight modules: cancel the operator token as soon as
    // the first module has been checkpointed — the in-process
    // equivalent of Ctrl-C partway through a campaign.
    let token = CancelToken::new();
    let cfg = RunConfig {
        scale: Scale::Smoke,
        modules_per_mfr: 2,
        checkpoint: Some(prefix.clone()),
        max_workers: Some(1),
        cancel: token.clone(),
        ..RunConfig::default()
    };
    let watcher = {
        let ckpt = ckpt.clone();
        std::thread::spawn(move || loop {
            if verify_checkpoint(&ckpt).map_or(0, |n| n) >= 1 {
                token.cancel();
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        })
    };
    let out = run_target("fig11", &cfg).expect("interrupted campaign still returns");
    watcher.join().expect("watcher thread");
    let report = out.report.expect("fig11 is campaign-backed");
    assert!(report.cancelled >= 1, "cancellation landed mid-run: {}", report.summary_line());
    assert!(report.succeeded >= 1, "some module finished first: {}", report.summary_line());
    assert_eq!(report.outcomes.len(), 8);
    assert!(out.text.contains("cancelled"), "report footer mentions cancellation");

    // The checkpoint is loadable and holds exactly the finished work.
    let persisted = verify_checkpoint(&ckpt).expect("checkpoint loadable after interrupt");
    assert_eq!(persisted, 8 - report.cancelled);

    // The flushed trace parses line by line and recorded the
    // cancellation; the metrics snapshot parses too.
    obs.finish().expect("trace/metrics flushed");
    let jsonl = std::fs::read_to_string(&trace).expect("trace file written");
    let mut cancelled_events = 0;
    for line in jsonl.lines() {
        let v: Value = serde_json::from_str(line).expect("JSONL line parses");
        if v.field("name").as_str() == Some("campaign.cancelled") {
            cancelled_events += 1;
        }
    }
    assert!(cancelled_events >= report.cancelled, "every cancelled module left a trace event");
    let snapshot: Value = serde_json::from_str(
        &std::fs::read_to_string(&metrics).expect("metrics file written"),
    )
    .expect("metrics snapshot parses");
    assert!(snapshot
        .field("counters")
        .field("campaign.cancelled")
        .as_u64()
        .is_some_and(|v| v >= report.cancelled as u64));

    // Resume with a fresh token: only the unfinished modules re-run,
    // and the campaign completes cleanly.
    let resumed_cfg = RunConfig { cancel: CancelToken::new(), ..cfg };
    let resumed = run_target("fig11", &resumed_cfg).expect("resume");
    let resumed_report = resumed.report.expect("fig11 is campaign-backed");
    assert!(resumed_report.is_clean(), "resume completes: {}", resumed_report.summary_line());
    assert_eq!(resumed_report.succeeded + resumed_report.recovered, 8);
    assert_eq!(verify_checkpoint(&ckpt).expect("checkpoint after resume"), 8);

    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&metrics);
}
