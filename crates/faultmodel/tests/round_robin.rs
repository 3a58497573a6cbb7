//! `DramModule::hammer_round_robin_direct` on the calibrated model
//! against one `hammer_direct(.., 1, ..)` per episode, in the cases
//! where `RowHammerModel`'s quiet proof fails and episodes fall back to
//! the exact path: an aggressor preloaded with a flipping dose, and a
//! retention leak forced by a long idle at 90 °C. Both must match flip
//! for flip and emit the same `dram.flip` and `dram.hammer.episodes`
//! totals.
//!
//! The metrics recorder is process-global, so this binary holds one
//! test.

use rh_dram::{AggressionStats, BankId, DramModule, Manufacturer, ModuleConfig, RowAddr};
use rh_faultmodel::RowHammerModel;
use std::sync::Arc;

const BANK: BankId = BankId(0);
const T_ON: u64 = 34_500;
const T_OFF: u64 = 16_500;

/// One scenario: physical aggressors, run position and length, and a
/// set-up applied to the module after the window is written.
struct Case {
    name: &'static str,
    temperature: f64,
    aggressors: Vec<u32>,
    start: usize,
    n: u64,
    setup: fn(&mut DramModule),
}

/// What a scenario leaves behind.
#[derive(Debug, PartialEq)]
struct After {
    /// Stored bytes of every window row right after the hammer.
    stored: Vec<Vec<u8>>,
    /// Every window row read back (sensed) afterwards, in order: pins
    /// the disturbance, restore clocks and trial nonce left behind.
    read: Vec<Vec<u8>>,
    now: u64,
    stats: AggressionStats,
    flips: u64,
    episodes: u64,
}

fn logical(m: &DramModule, phys: u32) -> RowAddr {
    m.config().mapping.physical_to_logical(RowAddr(phys))
}

fn run(case: &Case, bulk: bool) -> After {
    let cfg = ModuleConfig::ddr4(Manufacturer::B);
    let last = cfg.geometry.rows_per_bank - 1;
    let mut m = DramModule::with_model(cfg, Box::new(RowHammerModel::new(Manufacturer::B, 99)));
    m.set_temperature(case.temperature);
    let mut window: Vec<u32> = case
        .aggressors
        .iter()
        .flat_map(|&a| (a.saturating_sub(3)..=(a + 3).min(last)).collect::<Vec<_>>())
        .collect();
    window.sort_unstable();
    window.dedup();
    for &row in &window {
        let at = logical(&m, row);
        m.write_row_direct(BANK, at, &vec![0x55; m.row_bytes()]).unwrap();
    }
    (case.setup)(&mut m);
    let rows: Vec<RowAddr> = case.aggressors.iter().map(|&a| logical(&m, a)).collect();

    let rec = Arc::new(rh_obs::Recorder::new());
    rh_obs::install(rec.clone());
    if bulk {
        m.hammer_round_robin_direct(BANK, &rows, case.start, case.n, T_ON, T_OFF).unwrap();
    } else {
        for j in 0..case.n as usize {
            m.hammer_direct(BANK, rows[(case.start + j) % rows.len()], 1, T_ON, T_OFF).unwrap();
        }
    }
    rh_obs::uninstall();

    let stored =
        window.iter().map(|&r| m.peek_row(BANK, logical(&m, r)).unwrap().to_vec()).collect();
    let (now, stats) = (m.now(), m.bank(BANK).stats().clone());
    let read = window.iter().map(|&r| m.read_row_direct(BANK, logical(&m, r)).unwrap()).collect();
    After {
        stored,
        read,
        now,
        stats,
        flips: rec.counter_value("dram.flip"),
        episodes: rec.counter_value("dram.hammer.episodes"),
    }
}

#[test]
fn round_robin_falls_back_exactly_where_the_quiet_proof_fails() {
    let cases = [
        Case {
            // 400 K hammers on row 1001 leave rows 1000 and 1002 with
            // 200 K units: both flip on their first sensing.
            name: "preloaded dose",
            temperature: 75.0,
            aggressors: vec![1000, 1002, 998, 1004],
            start: 1,
            n: 1_001,
            setup: |m| {
                let row = m.config().mapping.physical_to_logical(RowAddr(1001));
                m.hammer_direct(BANK, row, 400_000, T_ON, T_OFF).unwrap();
            },
        },
        Case {
            // An hour unrefreshed at 90 °C: every retention-weak cell
            // of every aggressor leaks on its first sensing.
            name: "retention leak",
            temperature: 90.0,
            aggressors: vec![2001, 2003, 1999, 2005, 1997, 2007],
            start: 4,
            n: 997,
            setup: |m| {
                let far = m.config().mapping.physical_to_logical(RowAddr(9000));
                let hour = 3_600_000_000_000_000 / (T_ON + T_OFF);
                m.hammer_direct(BANK, far, hour, T_ON, T_OFF).unwrap();
            },
        },
        Case {
            // Both bank edges (victims clamp) and a repeated row: row 1
            // takes a full unit per cycle from row 0's two episodes, so
            // each of its episodes falls back.
            name: "bank edges",
            temperature: 75.0,
            aggressors: vec![0, 1, 32_767, 32_766, 0],
            start: 3,
            n: 503,
            setup: |_| {},
        },
    ];
    for case in &cases {
        let bulk = run(case, true);
        let single = run(case, false);
        assert_eq!(bulk, single, "{}", case.name);
        assert_eq!(bulk.episodes, case.n, "{}", case.name);
        if case.name != "bank edges" {
            assert!(bulk.flips > 0, "{}: the fallback never flipped", case.name);
        }
    }
}
