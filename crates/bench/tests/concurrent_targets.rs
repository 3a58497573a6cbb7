//! Concurrent target dispatch: targets that share an experiment run its
//! campaign once, and a failing target stops the output after the
//! targets requested before it.
//!
//! The recorder is process-global, so the one test that installs it is
//! the only test in this binary that runs simulation work in-process;
//! the other drives the `repro` binary.

use rh_bench::{run_targets, RunConfig};
use rh_core::{ProgressTracker, Scale};
use std::process::Command;
use std::sync::Arc;

#[test]
fn a_sharing_group_runs_its_experiment_once() {
    let rec = Arc::new(rh_obs::Recorder::new());
    rh_obs::install(rec.clone());
    let tracker = Arc::new(ProgressTracker::new());
    let cfg = RunConfig {
        scale: Scale::Smoke,
        max_workers: Some(2),
        progress: Some(Arc::clone(&tracker)),
        ..RunConfig::default()
    };
    // A target named again runs once and is emitted each time.
    let mut wanted = vec!["fig7", "fig8", "fig9", "fig10"];
    wanted.extend(["fig8"; 1_000]);
    let mut emitted = Vec::new();
    run_targets(&wanted, &cfg, |t, ran| {
        let out = ran.unwrap_or_else(|e| panic!("{t}: {e}"));
        emitted.push((t.to_string(), out.text.clone()));
        true
    });
    rh_obs::uninstall();
    let order: Vec<&str> = emitted.iter().map(|(t, _)| t.as_str()).collect();
    assert_eq!(order, wanted);
    assert!(emitted[4..].iter().all(|e| *e == emitted[1]));
    let progress = tracker.snapshot();
    assert_eq!((progress.total, progress.completed()), (4, 4), "one set of admissions");
    let spans = rec.span_stats();
    assert_eq!(spans["bench.target"].count, 4, "one run per distinct target");
    assert_eq!(spans["campaign.module"].count, 4, "row_active_analysis ran once");
}

#[test]
fn a_failing_target_stops_the_output_after_its_predecessors() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "smoke", "--json", "fig4", "no-such-target", "fig7"])
        .output()
        .expect("run repro");
    assert!(!out.status.success(), "an unknown target fails the run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "only fig4 is printed:\n{stdout}");
    assert!(lines[0].starts_with(r#"{"target":"fig4","#), "{}", lines[0]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown repro target 'no-such-target'"), "{stderr}");
}
