//! The columnar-kernel contract, on the workload the kernel was built
//! for: double-sided hammering of six victims on one Mfr. B DDR4
//! module, the inner loop of the temperature and tAggOn sweeps.
//!
//! Two guards, in this order of strength:
//! - the counters of one instrumented rep must show the kernel ran:
//!   the rep derived no row and built no cell table (the process-global
//!   cache served every table the warmup rep had built), and
//!   sub-threshold activations took the columnar early-out, some on a
//!   cached table and some on the row's dose floor before any
//!   derivation. Falling back to the scalar reference path zeroes the
//!   early-outs. These checks run in every build;
//! - in an optimized build, the whole rep (setup included) must sustain
//!   at least [`MIN_HAMMERS_PER_SEC`]. Setup dominates the rep, so this
//!   is mostly a bound on `Characterizer::new`.
//!
//! ```text
//! cargo test --release -p rh-core --test kernel_contract -- --nocapture
//! ```

use rh_core::{Characterizer, Scale, TestPlan};
use rh_dram::{ddr4_modules_of, Manufacturer, RowAddr};
use rh_obs::names;
use rh_softmc::TestBench;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hammers per victim (each is one double-sided `measure_ber`).
const HAMMERS: u64 = 50_000;
/// Victims per rep, evenly spaced over the smoke-scale test plan.
const VICTIMS: usize = 6;
/// Aggressor activations per rep: two per hammer per victim.
const UNITS_PER_REP: u64 = 2 * HAMMERS * VICTIMS as u64;
const TIMED_REPS: usize = 9;
const MIN_HAMMERS_PER_SEC: f64 = 100e6;

/// Wall time of one rep, split into setup and hammer loop.
struct Rep {
    setup: Duration,
    hammer: Duration,
}

/// One rep: bring up the module, then measure BER on every victim.
fn rep() -> Rep {
    let start = Instant::now();
    let module = &ddr4_modules_of(Manufacturer::B)[0];
    let bench = TestBench::with_config(module.module_config(), Manufacturer::B, module.seed());
    let mut c = Characterizer::new(bench, Scale::Smoke).expect("characterizer bring-up");
    let rows = c.bench_mut().module().geometry().rows_per_bank;
    let plan = TestPlan::for_bank(rows, Scale::Smoke);
    let step = (plan.victims.len() / VICTIMS).max(1);
    let victims: Vec<RowAddr> =
        plan.victims.iter().step_by(step).take(VICTIMS).map(|&v| RowAddr(v)).collect();
    assert_eq!(victims.len(), VICTIMS, "smoke plan has too few victims");
    let pattern = c.wcdp();
    let setup = start.elapsed();

    let loop_start = Instant::now();
    for &v in &victims {
        c.measure_ber(v, pattern, HAMMERS, None, None).expect("measure_ber");
    }
    Rep { setup, hammer: loop_start.elapsed() }
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

#[test]
fn columnar_kernel_runs_and_keeps_its_rate() {
    // Warmup, which also fills the process-global derivation cache
    // that the instrumented rep below must hit.
    rep();

    if cfg!(debug_assertions) {
        println!("hammer rate not checked: timing contract needs --release");
    } else {
        let reps: Vec<Rep> = (0..TIMED_REPS).map(|_| rep()).collect();
        let total = median(reps.iter().map(|r| r.setup + r.hammer).collect());
        let setup = median(reps.iter().map(|r| r.setup).collect());
        let hammer = median(reps.iter().map(|r| r.hammer).collect());
        let rate = UNITS_PER_REP as f64 / total.as_secs_f64();
        println!(
            "hammer_double: {:.1} M hammers/s; median rep {:.2} ms = setup {:.2} ms + loop {:.2} ms",
            rate / 1e6,
            total.as_secs_f64() * 1e3,
            setup.as_secs_f64() * 1e3,
            hammer.as_secs_f64() * 1e3,
        );
        assert!(
            rate >= MIN_HAMMERS_PER_SEC,
            "hammer_double at {rate:.0} hammers/s (bound {MIN_HAMMERS_PER_SEC:.0}); \
             the columnar kernel speedup has regressed"
        );
    }

    let rec = Arc::new(rh_obs::Recorder::new());
    rh_obs::install(rec.clone());
    rep();
    rh_obs::uninstall();
    let counters = rec.counters();
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    let derived = count(names::FAULTMODEL_ROW_DERIVE);
    let built = count(names::FAULTMODEL_SURFACE_BUILD);
    let early_outs = count(names::FAULTMODEL_EVAL_EARLY_OUT);
    let gated = count(names::FAULTMODEL_EVAL_GATED);
    println!(
        "columnar kernel: {derived} derivations and {built} table builds after warmup, \
         {early_outs} early-outs ({gated} by the row floor)"
    );
    assert_eq!(
        (derived, built),
        (0, 0),
        "the process-global caches did not serve the warmed rows: {:?}",
        counters.keys()
    );
    assert!(early_outs > gated, "no sensing early-outed on a table; kernel path inactive?");
    assert!(gated > 0, "no sensing was decided by the row floor before derivation");
}
