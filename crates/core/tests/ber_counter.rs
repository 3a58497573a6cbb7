//! `core.ber_measurements` counts BER tests, not HCfirst probes.
//!
//! Counters are process-global statics, so this check lives in its own
//! test binary: no concurrently running test can add to the counter
//! between the two reads.

use rh_core::{Characterizer, Scale};
use rh_dram::{Manufacturer, RowAddr};
use rh_obs::names;
use rh_softmc::TestBench;
use std::sync::Arc;

#[test]
fn ber_counter_counts_ber_tests_not_hc_first_probes() {
    let mut ch = Characterizer::new(TestBench::new(Manufacturer::B, 42), Scale::Smoke).unwrap();
    ch.set_temperature(75.0).unwrap();
    let p = ch.wcdp();
    let rec = Arc::new(rh_obs::Recorder::new());
    rh_obs::install(rec.clone());
    ch.hc_first(RowAddr(444), p, None, None).unwrap();
    let after_search = rec.counter_value(names::CORE_BER_MEASUREMENTS);
    ch.measure_ber_default(RowAddr(444)).unwrap();
    let after_ber = rec.counter_value(names::CORE_BER_MEASUREMENTS);
    rh_obs::uninstall();
    assert_eq!(after_search, 0, "HCfirst probes must not count as BER tests");
    assert_eq!(after_ber, 1, "one BER test counts once");
}
