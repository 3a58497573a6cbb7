//! Injected faults are reported as failed operations — never as a
//! crash or a silent pass — and the printed metric names are the ones
//! `BENCHMARK.json` declares.

use serde::Value;
use std::path::PathBuf;
use std::process::Command;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench has a parent")
        .to_path_buf()
}

/// Runs the benchmark from the checkout root; it must exit 0 and end
/// its output with the result line.
fn result(args: &[&str]) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_rh-perfbench"))
        .args(args)
        .current_dir(root())
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    serde_json::from_str(stdout.lines().last().expect("a result line")).expect("result is JSON")
}

fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    match spec.field(section) {
        Value::Array(items) => items
            .iter()
            .map(|m| m.field("name").as_str().expect("name").to_string())
            .collect(),
        other => panic!("{section} is not a list: {other:?}"),
    }
}

fn metric_names(result: &Value) -> Vec<String> {
    match result.field("metrics") {
        Value::Object(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

fn counts(result: &Value) -> (bool, u64, u64) {
    (
        result.field("correct").as_bool().expect("correct"),
        result.field("attempted").as_u64().expect("attempted"),
        result.field("failed").as_u64().expect("failed"),
    )
}

const SMOKE: [&str; 8] = [
    "--workload",
    "artifacts_smoke",
    "--seed",
    "3",
    "--seconds",
    "1",
    "--trace",
    "0",
];

#[test]
fn injected_digest_mismatch_is_one_failed_operation() {
    let r = result(&[&SMOKE[..], &["--inject", "digest-mismatch"]].concat());
    assert_eq!(counts(&r), (false, 35, 1));
    assert_eq!(metric_names(&r), declared("end_to_end"));
}

#[test]
fn failing_target_is_a_failed_operation() {
    let r = result(&[&SMOKE[..], &["--inject", "failing-target"]].concat());
    assert_eq!(counts(&r), (false, 36, 1));
}

#[test]
fn worker_killed_mid_run_is_reported_not_crashed() {
    let r = result(&[
        "--workload",
        "fleet_loopback",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--inject",
        "kill-worker",
    ]);
    let (correct, attempted, failed) = counts(&r);
    assert!(!correct);
    assert_eq!(attempted, 16);
    assert!(failed >= 1, "{r}");
    assert_eq!(metric_names(&r), declared("end_to_end"));
}

#[test]
fn per_layer_names_match_benchmark_json() {
    let names: Vec<String> = rh_perfbench::layers::table()
        .into_iter()
        .map(|m| m.name)
        .collect();
    assert_eq!(names, declared("per_layer"));
    let e2e: Vec<String> = rh_perfbench::END_TO_END
        .iter()
        .map(|(n, _)| n.to_string())
        .collect();
    assert_eq!(e2e, declared("end_to_end"));
}
