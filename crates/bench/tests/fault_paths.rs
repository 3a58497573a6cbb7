//! Pins the fault paths of a campaign-backed target: `fig4` at smoke
//! scale under a fault scenario that recovers after retries and under
//! one that quarantines a module. The digests cover the rendered text
//! (with its resilience footer) and the JSON data (with the per-module
//! outcomes, error strings and backoff schedules), so any drift in the
//! retry logic, its backoff jitter or its checkpoint bookkeeping shows
//! up here even though the fault-free goldens stay green.

use rh_bench::{run_target, RunConfig};
use rh_core::{fnv1a64, Scale};
use rh_softmc::FaultPlan;

/// `(text digest, data digest)` of `fig4` under the named scenario,
/// plus the campaign footer line.
fn fig4_digests(scenario: &str, fault_seed: u64) -> (u64, u64, String) {
    let cfg = RunConfig {
        scale: Scale::Smoke,
        modules_per_mfr: 1,
        faults: FaultPlan::preset(scenario, fault_seed),
        ..RunConfig::default()
    };
    let out = run_target("fig4", &cfg).expect("fig4 reports under faults");
    let data = serde_json::to_string(&out.data).expect("data serializes");
    let report = out.report.expect("fig4 is campaign-backed");
    (
        fnv1a64(out.text.as_bytes()),
        fnv1a64(data.as_bytes()),
        report.summary_line(),
    )
}

#[test]
fn flaky_host_recovery_is_pinned() {
    let (text, data, summary) = fig4_digests("flaky-host", 7);
    assert!(
        summary.contains("0 quarantined") && !summary.contains(" 0 recovered"),
        "{summary}"
    );
    assert_eq!(
        (text, data),
        (0x0b0c_c647_9ff7_ad5c, 0xb884_455e_5f21_d183),
        "{text:#018x} {data:#018x}"
    );
}

#[test]
fn thermal_quarantine_is_pinned() {
    let (text, data, summary) = fig4_digests("thermal", 3);
    assert!(summary.contains("1 quarantined"), "{summary}");
    assert_eq!(
        (text, data),
        (0xb8ba_befe_ab82_330e, 0xafce_30e7_ba79_8a0e),
        "{text:#018x} {data:#018x}"
    );
}
