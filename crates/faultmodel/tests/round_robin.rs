//! `DramModule::hammer_round_robin_direct` on the calibrated model
//! against one `hammer_direct(.., 1, ..)` per episode: in the cases
//! where `RowHammerModel`'s quiet proof fails and episodes fall back to
//! the exact path (an aggressor preloaded with a flipping dose, and a
//! retention leak forced by a long idle at 90 °C), and on random runs
//! interleaved with temperature changes, refreshes, reads, long idles
//! and heavy hammers. Both must match flip for flip and emit the same
//! `dram.flip` and `dram.hammer.episodes` totals.
//!
//! The metrics recorder is process-global, so each test holds
//! [`RECORDER`] while it runs.

use proptest::prelude::*;
use rh_dram::{flip_positions, BankId, DramModule, Manufacturer, ModuleConfig, RowAddr};
use rh_faultmodel::RowHammerModel;
use std::sync::{Arc, Mutex, MutexGuard};

const BANK: BankId = BankId(0);
const T_ON: u64 = 34_500;
const T_OFF: u64 = 16_500;

/// Serializes the tests: each installs the process-global recorder.
static RECORDER: Mutex<()> = Mutex::new(());

fn recorder_lock() -> MutexGuard<'static, ()> {
    RECORDER.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

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
    flips: u64,
    episodes: u64,
}

fn logical(m: &DramModule, phys: u32) -> RowAddr {
    m.config().mapping.physical_to_logical(RowAddr(phys))
}

/// A module of `mfr` (seed 99) at `temperature` with every physical
/// row within ±3 of an aggressor written with `fill`; returns the
/// module and those rows, ascending.
fn module(
    mfr: Manufacturer,
    temperature: f64,
    aggressors: &[u32],
    fill: u8,
) -> (DramModule, Vec<u32>) {
    let cfg = ModuleConfig::ddr4(mfr);
    let last = cfg.geometry.rows_per_bank - 1;
    let mut m = DramModule::with_model(cfg, Box::new(RowHammerModel::new(mfr, 99)));
    m.set_temperature(temperature);
    let mut window: Vec<u32> = aggressors
        .iter()
        .flat_map(|&a| (a.saturating_sub(3)..=(a + 3).min(last)).collect::<Vec<_>>())
        .collect();
    window.sort_unstable();
    window.dedup();
    for &row in &window {
        let at = logical(&m, row);
        m.write_row_direct(BANK, at, &vec![fill; m.row_bytes()]).unwrap();
    }
    (m, window)
}

fn run(case: &Case, bulk: bool) -> After {
    let (mut m, window) = module(Manufacturer::B, case.temperature, &case.aggressors, 0x55);
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
        window.iter().map(|&r| m.peek_row(BANK, logical(&m, r)).unwrap()).collect();
    let now = m.now();
    let read = window.iter().map(|&r| m.read_row_direct(BANK, logical(&m, r)).unwrap()).collect();
    After {
        stored,
        read,
        now,
        flips: rec.counter_value("dram.flip"),
        episodes: rec.counter_value("dram.hammer.episodes"),
    }
}

#[test]
fn round_robin_falls_back_exactly_where_the_quiet_proof_fails() {
    let _lock = recorder_lock();
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

/// One step of a random scenario, `(kind, a, b)`: `kind` picks what
/// runs, `a` and `b` parametrize it.
type Step = (u8, u32, u32);

const TEMPERATURES: [f64; 4] = [45.0, 60.0, 75.0, 90.0];

/// A row as the `(byte, bit)` positions where it differs from the
/// fill every window row was written with: lossless, since flips only
/// ever XOR bits of that fill, and short to print.
type Diff = Vec<(u32, u8)>;

/// What a random scenario leaves behind.
#[derive(Debug, PartialEq)]
struct Replay {
    /// Every read, in order: the scenario's own, then every window row
    /// read back at the end (pins the disturbance, restore clocks and
    /// trial nonce left behind).
    reads: Vec<Diff>,
    /// Stored bytes of every window row before the final read-back.
    stored: Vec<Diff>,
    now: u64,
    flips: u64,
    episodes: u64,
}

/// Runs `steps` on a fresh module, each round-robin hammer in bulk or
/// as one `hammer_direct(.., 1, ..)` per episode.
fn replay(
    mfr: Manufacturer,
    aggressors: &[u32],
    fill: u8,
    steps: &[Step],
    bulk: bool,
) -> Replay {
    let (mut m, window) = module(mfr, 75.0, aggressors, fill);
    let written = vec![fill; m.row_bytes()];
    let diff = |row: &[u8]| flip_positions(row, &written);
    let last = m.geometry().rows_per_bank - 1;
    let rows: Vec<RowAddr> = aggressors.iter().map(|&a| logical(&m, a)).collect();
    // Far enough from every window row that its hammers only pass time.
    let far = logical(&m, (aggressors[0] + last / 2) % last);
    let rec = Arc::new(rh_obs::Recorder::new());
    rh_obs::install(rec.clone());
    let mut reads = Vec::new();
    for &(kind, a, b) in steps {
        let row = window[b as usize % window.len()];
        match kind {
            0..=2 => {
                let (start, n) = (b as usize, u64::from(a % 400));
                if bulk {
                    m.hammer_round_robin_direct(BANK, &rows, start, n, T_ON, T_OFF).unwrap();
                } else {
                    for j in 0..n as usize {
                        let row = rows[(start + j) % rows.len()];
                        m.hammer_direct(BANK, row, 1, T_ON, T_OFF).unwrap();
                    }
                }
            }
            3 => m.set_temperature(TEMPERATURES[a as usize % TEMPERATURES.len()]),
            4 => m.refresh_row_physical(BANK, RowAddr(row)).unwrap(),
            5 => reads.push(diff(&m.read_row_direct(BANK, logical(&m, row)).unwrap())),
            // Up to ~10 s unrefreshed: retention cells start to leak.
            6 => m.hammer_direct(BANK, far, u64::from(a % 1000) * 200_000, T_ON, T_OFF).unwrap(),
            // Up to 1 M hammers: enough to flip the row's neighbours.
            _ => {
                let count = u64::from(a % 1000) * 1000;
                m.hammer_direct(BANK, logical(&m, row), count, T_ON, T_OFF).unwrap();
            }
        }
    }
    rh_obs::uninstall();
    let stored = window.iter().map(|&r| diff(&m.peek_row(BANK, logical(&m, r)).unwrap())).collect();
    let now = m.now();
    reads.extend(window.iter().map(|&r| diff(&m.read_row_direct(BANK, logical(&m, r)).unwrap())));
    Replay {
        reads,
        stored,
        now,
        flips: rec.counter_value("dram.flip"),
        episodes: rec.counter_value("dram.hammer.episodes"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 32 } else { 128 }))]

    // Random round-robin runs, near a bank edge or not, with repeated
    // aggressors, between temperature changes (which the bulk path's
    // kept window must not carry stale), refreshes, reads, long idles
    // and heavy hammers: the bulk path must leave everything as the
    // per-episode one does.
    #[test]
    fn random_runs_match_per_episode_replay(
        mfr in prop::sample::select(Manufacturer::ALL.to_vec()),
        place in 0u8..3,
        offsets in prop::collection::vec(0u32..12, 1..=6),
        fill in prop::sample::select(vec![0x00u8, 0xFF, 0x55]),
        steps in prop::collection::vec((0u8..8, 0u32..100_000, 0u32..64), 1..20),
    ) {
        let _lock = recorder_lock();
        // The bottom edge, mid-bank, or the top edge.
        let last = ModuleConfig::ddr4(mfr).geometry.rows_per_bank - 1;
        let base = [0, 4_000, last - 11][usize::from(place)];
        let aggressors: Vec<u32> = offsets.iter().map(|&o| base + o).collect();
        let bulk = replay(mfr, &aggressors, fill, &steps, true);
        let single = replay(mfr, &aggressors, fill, &steps, false);
        prop_assert_eq!(bulk, single);
    }
}
