//! Telemetry of the bulk replay: [`DefenseSim::run_many_sided`] times
//! one `dram.hammer.ns` sample per replayed batch rather than one per
//! activation, and its counter totals equal the per-activation
//! reference's.
//!
//! The metrics recorder is process-global, so this binary holds one
//! test.

use rh_defense::traits::NoDefense;
use rh_defense::{sim::DefenseSim, BlockHammer, Defense, Para, TargetRowRefresh};
use rh_dram::{Manufacturer, RowAddr};
use rh_softmc::TestBench;
use std::collections::BTreeMap;
use std::sync::Arc;

const COUNTERS: [&str; 6] = [
    "dram.hammer.episodes",
    "dram.flip",
    "defense.refresh",
    "defense.victim_refresh",
    "defense.throttle",
    "defense.throttle_ps",
];

/// Counter totals and the `dram.hammer.ns` sample count of one pass
/// over the roster.
fn record(bulk: bool) -> (BTreeMap<&'static str, u64>, u64) {
    let rec = Arc::new(rh_obs::Recorder::new());
    rh_obs::install(rec.clone());
    // (defense, pairs, hammers): the undefended double-sided run flips.
    let roster: Vec<(Box<dyn Defense>, u8, u64)> = vec![
        (Box::new(NoDefense), 1, 150_000),
        (Box::new(Para::new(0.002, 7)), 4, 20_000),
        (Box::new(BlockHammer::new(4_000, 64_000_000_000, 5)), 2, 20_000),
        (Box::new(TargetRowRefresh::new(4, 2)), 4, 20_000),
    ];
    for (mut d, pairs, hammers) in roster {
        let mut bench = TestBench::new(Manufacturer::B, 99);
        bench.set_temperature(75.0).unwrap();
        let mut sim = DefenseSim::new(bench);
        if bulk {
            sim.run_many_sided(d.as_mut(), RowAddr(5000), pairs, hammers, None).unwrap();
        } else {
            sim.run_many_sided_reference(d.as_mut(), RowAddr(5000), pairs, hammers, None).unwrap();
        }
    }
    rh_obs::uninstall();
    let hammer_samples = rh_obs::hist::snapshot_all()
        .iter()
        .find(|h| h.name == "dram.hammer.ns")
        .map_or(0, |h| h.count);
    (COUNTERS.iter().map(|&c| (c, rec.counter_value(c))).collect(), hammer_samples)
}

#[test]
fn bulk_replay_keeps_counter_totals_and_times_batches() {
    let (bulk, bulk_samples) = record(true);
    let (reference, reference_samples) = record(false);
    assert_eq!(bulk, reference);
    for (name, total) in &bulk {
        assert!(*total > 0, "{name} never counted: the roster does not exercise it");
    }
    let episodes = bulk["dram.hammer.episodes"];
    assert_eq!(reference_samples, episodes, "the reference times every activation");
    assert!(
        bulk_samples * 20 < episodes,
        "{bulk_samples} dram.hammer.ns samples for {episodes} episodes: not batched"
    );
}
