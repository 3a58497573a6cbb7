//! Telemetry stays per transport: the job table behind both campaign
//! transports emits no transport signals of its own, so an in-process
//! campaign records only `campaign.*` and a fleet run records the
//! `fleet.*` dispatch and commit counts it always did.
//!
//! The recorder is process-global, so everything lives in one test
//! function — concurrent tests in the same binary would race on it.

use rh_bench::{run_fleet_local, FleetConfig};
use rh_core::{CampaignOutput, CampaignRunner, CharError, Characterizer, ModuleTask, Scale};
use rh_dram::Manufacturer;
use rh_softmc::{SoftMcError, TestBench};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

#[test]
fn campaign_and_fleet_transports_keep_their_own_signals() {
    let rec = Arc::new(rh_obs::Recorder::new());
    rh_obs::install(rec.clone());

    // Four modules; the second fails its first attempt with a transient
    // host-link error and recovers on the retry.
    let tasks = Manufacturer::ALL
        .into_iter()
        .map(|mfr| {
            ModuleTask::new(format!("{mfr:?}"), move |_attempt, cancel| {
                let mut bench = TestBench::new(mfr, 1);
                bench.set_cancel_token(cancel.clone());
                Characterizer::new(bench, Scale::Smoke)
            })
        })
        .collect();
    let flaked = AtomicU32::new(0);
    let out: CampaignOutput<String> = CampaignRunner::new()
        .run(tasks, |ch| {
            let mfr = ch.bench().manufacturer();
            if mfr == Manufacturer::B && flaked.fetch_add(1, Ordering::SeqCst) == 0 {
                return Err(CharError::Infra(SoftMcError::HostLink {
                    op: "test".into(),
                }));
            }
            Ok(format!("{mfr:?}"))
        })
        .expect("campaign runs");
    assert_eq!((out.report.succeeded, out.report.recovered), (3, 1));

    let attempts = rec
        .span_stats()
        .get("campaign.attempt")
        .map_or(0, |s| s.count);
    assert_eq!(attempts, 5, "four first attempts plus one retry");
    assert_eq!(rec.counter_value("campaign.retries"), 1);
    assert_eq!(rec.counter_value("campaign.recovered"), 1);
    for counter in ["fleet.dispatch", "fleet.redispatch", "fleet.commit"] {
        assert_eq!(
            rec.counter_value(counter),
            0,
            "{counter} fired on the campaign path"
        );
    }
    assert_eq!(
        rec.events_named("fleet.grant"),
        0,
        "fleet.grant fired on the campaign path"
    );

    let report = run_fleet_local(&FleetConfig {
        seed: 3,
        ..FleetConfig::default()
    })
    .expect("local fleet runs");
    rh_obs::uninstall();
    let jobs = report.outcomes.len() as u64;
    assert_eq!(jobs, 4);
    assert_eq!(rec.counter_value("fleet.dispatch"), jobs);
    assert_eq!(rec.counter_value("fleet.commit"), jobs);
    assert_eq!(rec.events_named("fleet.grant"), jobs as usize);
    assert_eq!(
        rec.counter_value("campaign.retries"),
        1,
        "the fleet path adds no campaign signals"
    );
}
