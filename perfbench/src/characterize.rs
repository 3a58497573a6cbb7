//! `characterize_default`: the paper's two metrics driven through
//! `rh_core`'s public API on one thread, with no executor.
//!
//! Set-up brings up every module (`Characterizer::new`: mapping
//! reverse engineering plus the worst-case data pattern search) with
//! the process caches cold; the measured phase then runs
//! `hc_first_default` and `measure_ber_default` on every victim of the
//! default `TestPlan` of every module.

use crate::golden::{self, Digests};
use crate::{child_rep, layers, sys, Env, Inject, Rep, BENCH_SEED};
use rh_core::metrics::BER_HAMMERS;
use rh_core::{mapping_re, wcdp, BerMeasurement, Characterizer, Scale, TestPlan};
use rh_dram::{ddr4_modules_of, BankId, Manufacturer, RowAddr};
use rh_softmc::TestBench;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Modules per manufacturer and per instance seed; every manufacturer
/// has at least this many DDR4 modules in the paper's inventory.
pub const MODULES_PER_MFR: usize = 4;

/// Instance seeds: each gives every module type a distinct simulated
/// instance (as `repro --seed` does), so set-up sums over a second of
/// cold bring-up.
pub const INSTANCE_SEEDS: [u64; 2] = [BENCH_SEED, BENCH_SEED + 1];

/// One module of the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Module {
    /// Manufacturer.
    pub mfr: Manufacturer,
    /// Index into the manufacturer's DDR4 modules.
    pub index: usize,
    /// Instance seed, mixed into the module identity.
    pub seed: u64,
}

impl Module {
    /// The paper's label plus the instance seed, e.g. `A0s1`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}s{}",
            ddr4_modules_of(self.mfr)[self.index].label,
            self.seed
        )
    }

    /// A fresh bench, built the way `repro`'s campaign targets build
    /// theirs at `--seed` equal to the instance seed.
    #[must_use]
    pub fn bench(&self) -> TestBench {
        let module = &ddr4_modules_of(self.mfr)[self.index];
        TestBench::with_config(
            module.module_config(),
            self.mfr,
            module.seed() ^ self.seed.rotate_left(17),
        )
    }
}

/// The module set: 4 manufacturers x 4 modules x 2 instance seeds.
#[must_use]
pub fn modules() -> Vec<Module> {
    INSTANCE_SEEDS
        .into_iter()
        .flat_map(|seed| {
            Manufacturer::ALL.into_iter().flat_map(move |mfr| {
                (0..MODULES_PER_MFR).map(move |index| Module { mfr, index, seed })
            })
        })
        .collect()
}

/// The workload's repetition as seen by the parent. Untraced: one
/// child. Traced: one traced child, plus one child that times the
/// bring-up split on identical benches, because a second bring-up of a
/// module in the same process would hit warm caches.
#[must_use]
pub fn parent_rep(env: &Env, seed: u64, inject: Option<Inject>, traced: bool) -> Rep {
    let n = modules().len() as u64;
    let mut extra = Vec::new();
    if let Some(i) = inject {
        extra.extend(["--inject", i.name()]);
    }
    if !traced {
        return child_rep(env, "characterize_default", seed, &extra, n);
    }
    extra.push("--traced");
    let mut rep = child_rep(env, "characterize_default", seed, &extra, n);
    let split = child_rep(env, "characterize_split", seed, &[], n);
    rep.attempted += split.attempted;
    rep.failures
        .extend(split.failures.iter().map(|f| format!("split: {f}")));
    rep.layers.extend(split.layers);
    rep
}

/// Wall-clock accumulator of one timed call site.
#[derive(Default)]
struct Timer {
    calls: u64,
    total: Duration,
}

impl Timer {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.total += t.elapsed();
        self.calls += 1;
        out
    }

    fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e6 / self.calls as f64
        }
    }
}

/// Timers of the traced BER decomposition.
#[derive(Default)]
struct BerTimers {
    test: Timer,
    write: Timer,
    hammer: Timer,
    read: Timer,
}

/// `measure_ber_default` performed as its three public calls, each
/// under its own timer: write the neighborhood, hammer both physical
/// neighbors, read back the victim and the rows at distance ±2.
fn ber_by_parts(
    ch: &mut Characterizer,
    v: u32,
    t: &mut BerTimers,
) -> Result<BerMeasurement, String> {
    let start = Instant::now();
    let pattern = ch.wcdp();
    let bank = ch.bank();
    let mapping = ch.mapping();
    let victim = RowAddr(v);
    t.write
        .time(|| ch.write_neighborhood(victim, pattern))
        .map_err(|e| e.to_string())?;
    let left = mapping.physical_to_logical(RowAddr(v - 1));
    let right = mapping.physical_to_logical(RowAddr(v + 1));
    t.hammer
        .time(|| {
            ch.bench_mut()
                .hammer_double_sided(bank, left, right, BER_HAMMERS, None, None)
        })
        .map_err(|e| e.to_string())?;
    let mut flips = [0u64; 3];
    for (slot, d) in flips.iter_mut().zip([0i64, -2, 2]) {
        let phys = RowAddr(
            u32::try_from(i64::from(v) + d).map_err(|_| format!("row {v}{d:+} out of range"))?,
        );
        let logical = mapping.physical_to_logical(phys);
        let read = t
            .read
            .time(|| ch.bench_mut().module_mut().read_row_direct(bank, logical))
            .map_err(|e| e.to_string())?;
        let expect = pattern.row_fill(phys, d, read.len());
        *slot = read
            .iter()
            .zip(&expect)
            .map(|(a, b)| u64::from((a ^ b).count_ones()))
            .sum();
    }
    t.test.calls += 1;
    t.test.total += start.elapsed();
    Ok(BerMeasurement {
        victim: flips[0],
        left2: flips[1],
        right2: flips[2],
    })
}

/// HCfirst and BER on every victim of one module's default test plan,
/// as the text its digest is taken over.
fn measure_module(
    ch: &mut Characterizer,
    hc: &mut Timer,
    found: &mut u64,
    mut ber: Option<&mut BerTimers>,
) -> Result<String, String> {
    let rows = ch.bench().module().geometry().rows_per_bank;
    let plan = TestPlan::for_bank(rows, Scale::Default);
    let mut text = String::new();
    for &v in &plan.victims {
        let first = hc
            .time(|| ch.hc_first_default(RowAddr(v)))
            .map_err(|e| e.to_string())?;
        *found += u64::from(first.is_some());
        let m = match ber.as_deref_mut() {
            Some(timers) => ber_by_parts(ch, v, timers)?,
            None => ch
                .measure_ber_default(RowAddr(v))
                .map_err(|e| e.to_string())?,
        };
        let _ = writeln!(text, "{v}:{first:?}:{}:{}:{}", m.victim, m.left2, m.right2);
    }
    Ok(text)
}

/// One repetition, in this (fresh) process, checked against `golden`.
#[must_use]
pub fn child(seed: u64, traced: bool, golden: &Digests) -> Rep {
    let (mut rep, items, got) = measure(seed, traced);
    rep.failures = golden::check(golden, &items, &got);
    rep
}

/// One repetition: the measured [`Rep`] (without failures), the
/// modules attempted and the `(module, digest)` of each one measured.
#[must_use]
pub fn measure(seed: u64, traced: bool) -> (Rep, Vec<String>, Vec<(String, String)>) {
    let order = crate::shuffled(&modules(), seed);
    let items: Vec<String> = order.iter().map(Module::label).collect();
    let recorder = traced.then(layers::install_recorder);

    let mut bringup = Timer::default();
    let chars: Vec<Option<Characterizer>> = order
        .iter()
        .zip(&items)
        .map(
            |(m, name)| match bringup.time(|| Characterizer::new(m.bench(), Scale::Default)) {
                Ok(ch) => Some(ch),
                Err(e) => {
                    eprintln!("perfbench: {name}: bring-up failed: {e}");
                    None
                }
            },
        )
        .collect();

    let cpu0 = sys::self_usage().cpu_s;
    let started = Instant::now();
    let mut hc = Timer::default();
    let mut found = 0u64;
    let mut ber = BerTimers::default();
    let mut got = Vec::new();
    for (ch, name) in chars.into_iter().zip(&items) {
        let Some(mut ch) = ch else { continue };
        match measure_module(&mut ch, &mut hc, &mut found, traced.then_some(&mut ber)) {
            Ok(text) => got.push((name.clone(), golden::digest(text.as_bytes()))),
            Err(e) => eprintln!("perfbench: {name}: {e}"),
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let usage = sys::self_usage();

    let mut rep = Rep {
        setup_s: bringup.total.as_secs_f64(),
        wall_s,
        cpu_s: usage.cpu_s - cpu0,
        peak_rss_mb: usage.peak_rss_kb as f64 / 1024.0,
        attempted: items.len() as u64,
        ..Rep::default()
    };
    if let Some(recorder) = recorder {
        rh_obs::uninstall();
        layers::from_recorder(&recorder, &mut rep.layers);
        let ratio = if hc.calls == 0 {
            0.0
        } else {
            found as f64 / hc.calls as f64
        };
        for (name, value) in [
            ("core.bringup.calls", bringup.calls as f64),
            ("core.bringup_s", bringup.total.as_secs_f64()),
            ("core.hc_first_s", hc.total.as_secs_f64()),
            ("core.hc_first.found_ratio", ratio),
            ("core.measure_ber.calls", ber.test.calls as f64),
            ("core.measure_ber_s", ber.test.total.as_secs_f64()),
            ("core.write_neighborhood_us", ber.write.mean_us()),
            ("softmc.hammer_double_sided_us", ber.hammer.mean_us()),
            ("dram.read_row_direct_us", ber.read.mean_us()),
        ] {
            rep.layers.insert(name.to_string(), value);
        }
    }
    (rep, items, got)
}

/// The bring-up split, in a fresh process: mapping reverse engineering
/// and the worst-case data pattern search timed separately on benches
/// identical to the workload's, with cold caches.
#[must_use]
pub fn split_child(seed: u64) -> Rep {
    let order = crate::shuffled(&modules(), seed);
    let mut mapping = Timer::default();
    let mut pattern = Timer::default();
    let mut rep = Rep {
        attempted: order.len() as u64,
        ..Rep::default()
    };
    for m in order {
        let mut b = m.bench();
        let bank = BankId(0);
        let done = b
            .set_temperature(75.0)
            .map_err(|e| e.to_string())
            .and_then(|_| {
                mapping
                    .time(|| mapping_re::reverse_engineer(&mut b, bank, Scale::Default))
                    .map_err(|e| e.to_string())
            })
            .and_then(|map| {
                pattern
                    .time(|| wcdp::find_wcdp(&mut b, &map, bank, Scale::Default))
                    .map_err(|e| e.to_string())
            });
        if let Err(e) = done {
            rep.failures.push(format!("{}: {e}", m.label()));
        }
    }
    rep.layers
        .insert("core.mapping_re_s".to_string(), mapping.total.as_secs_f64());
    rep.layers
        .insert("core.wcdp_s".to_string(), pattern.total.as_secs_f64());
    rep
}
