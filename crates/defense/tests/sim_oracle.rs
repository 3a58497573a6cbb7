//! The bulk replay of [`DefenseSim::run_many_sided`] against its
//! per-activation reference, over the `defense-matrix` roster × pairs
//! {1, 2, 4, 8, 12} × a 20 K and a 150 K hammer budget (at 12 pairs the
//! latter stops at the 64 ms window). Outcome, module clock and every
//! row of the victim's ±(2·pairs + 2) neighborhood read back afterwards
//! must all be equal.
//!
//! The full matrix needs `--release` (about 20 s); debug builds run the
//! 20 K budget at 1, 2 and 12 pairs.

use rh_defense::traits::NoDefense;
use rh_defense::{
    sim::DefenseSim, BlockHammer, Defense, DefenseOutcome, Graphene, Para, TargetRowRefresh, Twice,
};
use rh_dram::{BankId, Manufacturer, RowAddr};
use rh_softmc::TestBench;

const VICTIM: RowAddr = RowAddr(5000);

/// Everything a run leaves behind.
#[derive(Debug, PartialEq)]
struct After {
    outcome: DefenseOutcome,
    now: u64,
    /// Victim ±(2·pairs + 2), sensed after the run: pins the disturbance,
    /// restore clocks and trial nonce left in the fault model.
    neighborhood: Vec<Vec<u8>>,
}

fn run(defense: &mut dyn Defense, pairs: u8, hammers: u64, bulk: bool) -> After {
    let mut bench = TestBench::new(Manufacturer::B, 99);
    bench.set_temperature(75.0).unwrap();
    let mapping = bench.module().config().mapping;
    let reach = 2 * i64::from(pairs) + 2;
    let rows: Vec<RowAddr> =
        (-reach..=reach).map(|d| mapping.physical_to_logical(VICTIM.offset(d))).collect();
    // The simulator writes ±2·pairs; the two rows beyond each side
    // need storing too to be read back.
    for &row in &rows {
        let m = bench.module_mut();
        m.write_row_direct(BankId(0), row, &vec![0xAA; m.row_bytes()]).unwrap();
    }
    let mut sim = DefenseSim::new(bench);
    let outcome = if bulk {
        sim.run_many_sided(defense, VICTIM, pairs, hammers, None)
    } else {
        sim.run_many_sided_reference(defense, VICTIM, pairs, hammers, None)
    }
    .unwrap();
    let m = sim.bench_mut().module_mut();
    let now = m.now();
    let neighborhood = rows.iter().map(|&r| m.read_row_direct(BankId(0), r).unwrap()).collect();
    After { outcome, now, neighborhood }
}

fn matrix(make: fn() -> Box<dyn Defense>) {
    let (pairs, budgets): (&[u8], &[u64]) = if cfg!(debug_assertions) {
        (&[1, 2, 12], &[20_000])
    } else {
        (&[1, 2, 4, 8, 12], &[20_000, 150_000])
    };
    for &hammers in budgets {
        for &p in pairs {
            let bulk = run(make().as_mut(), p, hammers, true);
            let reference = run(make().as_mut(), p, hammers, false);
            let case = format!("{} × {p} pair(s) × {hammers} hammers", bulk.outcome.defense);
            assert_eq!(bulk, reference, "{case}");
            if hammers == 150_000 && p == 12 {
                assert!(
                    bulk.outcome.achieved_hammers < hammers,
                    "{case}: the window never ran out"
                );
            }
        }
    }
}

#[test]
fn undefended() {
    matrix(|| Box::new(NoDefense));
}

#[test]
fn para_rng_stream() {
    matrix(|| Box::new(Para::new(0.002, 7)));
}

#[test]
fn graphene() {
    matrix(|| Box::new(Graphene::new(8_000, 1_300_000)));
}

#[test]
fn blockhammer_throttling() {
    matrix(|| Box::new(BlockHammer::new(4_000, 64_000_000_000, 5)));
}

#[test]
fn trr_sampler() {
    matrix(|| Box::new(TargetRowRefresh::new(4, 2)));
}

#[test]
fn twice() {
    matrix(|| Box::new(Twice::new(8_000, 64_000_000_000)));
}
