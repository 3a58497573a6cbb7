//! The fault model's process-global derivation cache, seen through its
//! counters: a row's cell table is built once per (module, row),
//! whichever model instance asks and at whatever temperature, a warm
//! lookup records nothing, and a sensing decided by the row floor or
//! the retention gate derives nothing.
//!
//! The metrics recorder is process-global, so this binary holds one
//! test.

use rh_dram::{BankId, BitFlip, DisturbanceModel, Manufacturer, RowAddr, RowView};
use rh_faultmodel::{row_floor, RowHammerModel};
use rh_obs::names;
use std::sync::Arc;

/// A seed no other test uses, so every row starts uncached.
const SEED: u64 = 0x5EED_CA5E;
const BANK: BankId = BankId(0);

/// Hammers both neighbours of `victim` with `count` episodes each and
/// senses it at temperature `t`.
fn sense(m: &mut RowHammerModel, victim: u32, count: u64, t: f64) -> Vec<BitFlip> {
    m.set_temperature(t);
    m.on_hammer(BANK, RowAddr(victim - 1), count, 34_500, 16_500);
    m.on_hammer(BANK, RowAddr(victim + 1), count, 34_500, 16_500);
    m.flips_on_activate(BANK, RowAddr(victim), &RowView::bytes(&vec![0u8; 8192]), 0)
}

#[test]
fn tables_are_shared_and_gated_sensings_derive_nothing() {
    let rec = Arc::new(rh_obs::Recorder::new());
    rh_obs::install(rec.clone());
    let count = |name: &str| rec.counters().get(name).copied().unwrap_or(0);
    let builds = || count(names::FAULTMODEL_SURFACE_BUILD);
    let derives = || count(names::FAULTMODEL_ROW_DERIVE);
    let hits = || count(names::FAULTMODEL_CELLS_GLOBAL_HIT);

    let mut a = RowHammerModel::new(Manufacturer::D, SEED);
    let first = sense(&mut a, 500, 1_000_000, 75.0);
    assert_eq!((builds(), derives()), (1, 1), "first sensing derives and builds one table");
    let _ = sense(&mut a, 500, 1_000_000, 75.0);
    assert_eq!((builds(), derives()), (1, 1), "same row and temperature reuse the table");
    let warm = sense(&mut a, 500, 0, 80.0);
    let _ = sense(&mut a, 500, 0, 63.7);
    assert_eq!((builds(), derives()), (1, 1), "a new temperature builds and derives nothing");

    // The same identity is the same physical module: nothing to build.
    let mut b = RowHammerModel::new(Manufacturer::D, SEED);
    assert_eq!(sense(&mut b, 500, 1_000_000, 75.0), first);
    assert_eq!(sense(&mut b, 500, 1_000_000, 80.0), warm);
    assert_eq!((builds(), derives()), (1, 1), "a second model builds nothing");
    assert_eq!(hits(), 0, "a warm lookup while sensing recorded a cache hit");

    // A dose of at least one unit below the row floor, and an idle of
    // one refresh window after a restore: neither touches the caches.
    let before = (builds(), derives(), hits());
    let floor = row_floor(a.profile(), SEED, BANK, RowAddr(900), 512);
    assert!(floor > 200.0, "floor {floor}");
    assert!(sense(&mut a, 900, 100, 75.0).is_empty());
    a.on_restore(BANK, RowAddr(700), 0);
    let data = vec![0u8; 8192];
    let idle = a.flips_on_activate(BANK, RowAddr(700), &RowView::bytes(&data), 64_000_000_000);
    assert!(idle.is_empty());
    let after = (builds(), derives(), hits());
    assert_eq!(after, before, "gated sensings reached the shared caches");
    assert!(count(names::FAULTMODEL_EVAL_GATED) >= 1);

    // The oracle accessor counts the lookups the cache serves.
    let _ = a.row_cells(BANK, RowAddr(500));
    assert_eq!((builds(), derives(), hits()), (1, 1, 1));
    rh_obs::uninstall();
}
