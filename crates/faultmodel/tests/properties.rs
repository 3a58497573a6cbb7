//! Property-based tests over the fault model's invariants.

use proptest::prelude::*;
use rh_dram::{BankId, DisturbanceModel, Manufacturer, Picos, RowAddr, RowView};
use rh_faultmodel::cell::derive_row_cells;
use rh_faultmodel::retention::{derive_retention_cells, temperature_factor, weakest_ref};
use rh_faultmodel::{
    g_off, g_on, row_floor, trial_noise_bounds, EvalMode, MfrProfile, RowHammerModel,
};

fn any_mfr() -> impl Strategy<Value = Manufacturer> {
    prop::sample::select(Manufacturer::ALL.to_vec())
}

/// Cases of the row-floor soundness property: `PROPTEST_CASES` when
/// set (CI runs it with thousands), else a quick default.
fn floor_cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(96)
}

/// The calibrated profile of `mfr`, or one of the ablations the floor
/// must stay sound under: no per-cell threshold spread, a negative
/// (threshold-lowering) temperature curvature, or no cells at all.
fn ablated(mfr: Manufacturer, ablation: u8) -> MfrProfile {
    let mut p = MfrProfile::for_manufacturer(mfr);
    match ablation {
        1 => p.sigma_cell = 0.0,
        2 => p.kappa = -0.5,
        3 => p.cells_per_row = 0,
        _ => {}
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(floor_cases()))]

    // No cell's gated threshold falls below its row's floor, at any
    // temperature (the cell's own inflection, where its threshold is
    // lowest, included) and under any trial noise, so a dose below the
    // floor can never flip the row.
    #[test]
    fn row_floor_is_below_every_threshold(
        mfr in any_mfr(),
        ablation in 0u8..6,
        seed in any::<u64>(),
        bank in 0u32..16,
        row in 0u32..65_536,
        t in -50.0f64..150.0,
        nonce in any::<u64>(),
    ) {
        let p = ablated(mfr, ablation);
        let floor = row_floor(&p, seed, BankId(bank), RowAddr(row), 512);
        if p.kappa < 0.0 {
            // Curvature can push thresholds below any bound (even below
            // zero), so the floor must gate no dose at all.
            prop_assert_eq!(floor, 0.0);
            return Ok(());
        }
        prop_assert!(floor > 0.0 && floor.is_finite(), "floor {floor}");
        let (noise_lo, _) = trial_noise_bounds(&p);
        let cells = derive_row_cells(&p, seed, BankId(bank), RowAddr(row), 8192, 512);
        prop_assert_eq!(cells.len(), p.cells_per_row as usize);
        for c in &cells {
            for temp in [t, c.window.inflection] {
                let Some(h) = c.threshold_at(temp) else { continue };
                // The kernel's early-out gate, which the floor must
                // never exceed for early-out counts to stay exact...
                prop_assert!(h * noise_lo >= floor, "gate {} < floor {floor}", h * noise_lo);
                // ...and the flip test itself.
                let gated = h * c.trial_noise(&p, seed, nonce);
                prop_assert!(gated >= floor, "threshold {gated} < floor {floor} at {temp} C");
            }
        }
    }
}

/// `n` bytes of seeded noise: a random fill.
fn random_fill(seed: u64, n: usize) -> Vec<u8> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            ((z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB) >> 56) as u8
        })
        .collect()
}

proptest! {
    // The columnar kernel reads each row's temperature-free cell table,
    // cut at the dose by its sort key; the scalar reference walks a
    // fresh derivation. Every sensing must come out the same, at random
    // temperatures and at one cell's own window edges and inflection,
    // for doses from none to past the largest threshold. The cut must
    // be sound on its own: with κ >= 0 no key exceeds its cell's
    // threshold, and no cell past the cut can be reached.
    #[test]
    fn columnar_matches_scalar_reference(
        mfr in any_mfr(),
        ablation in 0u8..6,
        seed in any::<u64>(),
        bank in 0u32..16,
        row in 1u32..65_536,
        t in -50.0f64..150.0,
        pick in any::<u64>(),
        fractions in prop::collection::vec(0.0f64..1.0, 4..=4),
        fill in any::<u64>(),
    ) {
        let p = ablated(mfr, ablation);
        let (bank, row) = (BankId(bank), RowAddr(row));
        let mut columnar = RowHammerModel::with_profile(p, seed);
        let mut scalar =
            RowHammerModel::with_profile(p, seed).with_eval_mode(EvalMode::ScalarReference);
        let table = columnar.row_cells(bank, row);
        let cells: Vec<_> = table.cells().collect();
        prop_assert_eq!(cells.len(), p.cells_per_row as usize);
        let mut temps = vec![t];
        if !cells.is_empty() {
            let w = cells[(pick % cells.len() as u64) as usize].window;
            temps.extend([w.lo, w.hi, w.inflection]);
        }
        let (noise_lo, noise_hi) = trial_noise_bounds(&p);
        let data = random_fill(fill, 8192);
        let data = RowView::bytes(&data);
        for &temp in &temps {
            let top = cells
                .iter()
                .filter_map(|c| c.threshold_at(temp))
                .chain(cells.iter().map(|c| c.threshold))
                .fold(1.0, f64::max);
            for c in &cells {
                if let Some(h) = c.threshold_at(temp) {
                    if p.kappa >= 0.0 {
                        prop_assert!(c.threshold <= h, "key {} > {h} at {temp} C", c.threshold);
                    }
                }
            }
            for &f in &fractions {
                let dose = f * 1.25 * top * noise_hi;
                for c in cells.iter().skip(table.cut(dose)) {
                    let reach = c.threshold_at(temp).is_some_and(|h| h * noise_lo <= dose);
                    prop_assert!(!reach, "cell past the cut reachable by {dose} at {temp} C");
                }
                // Dose of one unit per two episodes at base timing.
                let count = (2.0 * dose).ceil() as u64;
                let sense = |m: &mut RowHammerModel| {
                    m.set_temperature(temp);
                    m.on_restore(bank, row, 0);
                    m.on_hammer(bank, RowAddr(row.0 - 1), count, 34_500, 16_500);
                    m.flips_on_activate(bank, row, &data, 0)
                };
                let (fast, slow) = (sense(&mut columnar), sense(&mut scalar));
                prop_assert_eq!(fast, slow, "{mfr} ablation {ablation} at {temp} C, dose {dose}");
            }
        }
    }
}

proptest! {
    // The retention gate a sensing checks before it derives a row's
    // retention cells: the weakest reference time times the
    // temperature factor is exactly the shortest `retention_at`, so no
    // idle up to it leaks a cell and the next representable idle
    // above it leaks one, in the derived cells and through the model.
    #[test]
    fn retention_gate_is_exact(
        mfr in any_mfr(),
        seed in any::<u64>(),
        bank in 0u32..16,
        row in 0u32..65_536,
        t in -50.0f64..150.0,
    ) {
        let p = MfrProfile::for_manufacturer(mfr);
        let (bank, row) = (BankId(bank), RowAddr(row));
        let cells = derive_retention_cells(&p, seed, bank, row, 8192);
        let gate = weakest_ref(&cells) * temperature_factor(t);
        let shortest = cells.iter().map(|c| c.retention_at(t)).fold(f64::INFINITY, f64::min);
        prop_assert_eq!(gate.to_bits(), shortest.to_bits(), "gate {} vs {}", gate, shortest);
        // The longest idle not above the gate, and the first above it.
        let at = gate.floor() as Picos;
        let above = gate.next_up().ceil() as Picos;
        prop_assert!(at as f64 <= gate && above as f64 > gate);
        prop_assert!(cells.iter().all(|c| !c.leaked(at, t)), "leak at idle {at}");
        let weakest = cells.iter().find(|c| c.leaked(above, t));
        prop_assert!(weakest.is_some(), "no leak at idle {above}");
        // The model senses through the gate: nothing at `at`, and the
        // leaking cell at `above` when the row holds its charged value.
        let charged = if weakest.is_some_and(|c| c.anti_cell) { 0x00 } else { 0xFF };
        let data = vec![charged; 8192];
        let mut m = RowHammerModel::new(mfr, seed);
        m.set_temperature(t);
        m.on_restore(bank, row, 0);
        prop_assert!(m.flips_on_activate(bank, row, &RowView::bytes(&data), at).is_empty());
        let flips = m.flips_on_activate(bank, row, &RowView::bytes(&data), above);
        let c = weakest.copied().unwrap_or(cells[0]);
        prop_assert!(flips.iter().any(|f| (f.byte, f.bit) == (c.byte, c.bit)), "{flips:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn g_on_monotone_nondecreasing(mfr in any_mfr(), a in 34_500u64..200_000, d in 0u64..100_000) {
        let p = MfrProfile::for_manufacturer(mfr);
        prop_assert!(g_on(&p, a + d) >= g_on(&p, a));
    }

    #[test]
    fn g_off_monotone_nonincreasing(mfr in any_mfr(), a in 16_500u64..60_000, d in 0u64..40_000) {
        let p = MfrProfile::for_manufacturer(mfr);
        prop_assert!(g_off(&p, a + d) <= g_off(&p, a));
    }

    #[test]
    fn accumulation_is_additive(mfr in any_mfr(), n1 in 1u64..200_000, n2 in 1u64..200_000) {
        let mut split = RowHammerModel::new(mfr, 5);
        split.on_hammer(BankId(0), RowAddr(100), n1, 34_500, 16_500);
        split.on_hammer(BankId(0), RowAddr(100), n2, 34_500, 16_500);
        let mut joint = RowHammerModel::new(mfr, 5);
        joint.on_hammer(BankId(0), RowAddr(100), n1 + n2, 34_500, 16_500);
        let a = split.accumulated(BankId(0), RowAddr(101));
        let b = joint.accumulated(BankId(0), RowAddr(101));
        prop_assert!((a - b).abs() < 1e-6 * b.max(1.0), "split {a} vs joint {b}");
    }

    #[test]
    fn flips_monotone_in_dose(mfr in any_mfr(), seed in 0u64..64, hc in 10_000u64..250_000) {
        let flips_at = |count: u64| {
            let mut m = RowHammerModel::new(mfr, seed);
            m.set_temperature(75.0);
            m.on_hammer(BankId(0), RowAddr(999), count, 34_500, 16_500);
            m.on_hammer(BankId(0), RowAddr(1001), count, 34_500, 16_500);
            let data = vec![0u8; 8192];
            m.flips_on_activate(BankId(0), RowAddr(1000), &RowView::bytes(&data), 0).len()
        };
        // Trial noise is salted by the restore nonce, which both runs
        // share here (fresh models), so monotonicity is exact.
        prop_assert!(flips_at(2 * hc) >= flips_at(hc));
    }

    #[test]
    fn restore_fully_clears_row(mfr in any_mfr(), count in 1u64..1_000_000) {
        let mut m = RowHammerModel::new(mfr, 9);
        m.on_hammer(BankId(0), RowAddr(10), count, 34_500, 16_500);
        m.on_restore(BankId(0), RowAddr(11), 0);
        prop_assert_eq!(m.accumulated(BankId(0), RowAddr(11)), 0.0);
        // The other victim is untouched.
        prop_assert!(m.accumulated(BankId(0), RowAddr(9)) > 0.0);
    }

    #[test]
    fn no_flips_without_hammering(mfr in any_mfr(), row in 2u32..10_000, fill in any::<u8>()) {
        let mut m = RowHammerModel::new(mfr, 3);
        m.set_temperature(75.0);
        let data = vec![fill; 8192];
        let flips = m.flips_on_activate(BankId(0), RowAddr(row), &RowView::bytes(&data), 0);
        prop_assert!(flips.is_empty());
    }

    #[test]
    fn flip_positions_are_in_bounds(mfr in any_mfr(), seed in 0u64..32) {
        let mut m = RowHammerModel::new(mfr, seed);
        m.set_temperature(75.0);
        m.on_hammer(BankId(0), RowAddr(499), 512_000, 154_500, 16_500);
        m.on_hammer(BankId(0), RowAddr(501), 512_000, 154_500, 16_500);
        let data = vec![0u8; 8192];
        for f in m.flips_on_activate(BankId(0), RowAddr(500), &RowView::bytes(&data), 0) {
            prop_assert!((f.byte as usize) < 8192);
            prop_assert!(f.bit < 8);
        }
    }
}
