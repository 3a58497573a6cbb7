//! Empirical calibration checks: hammer the model the way the paper's
//! experiments do and verify the headline response factors are in the
//! right ballpark. Tight matching is asserted by the full experiment
//! suite in `rh-core`; these tests guard the substrate constants.

use rh_dram::{BankId, Manufacturer, Picos, RowAddr, RowView};
use rh_faultmodel::{MfrProfile, RowHammerModel};
use rh_dram::DisturbanceModel;

const ROW_BYTES: usize = 8192;

/// Double-sided-hammers `victim` and returns the flip count at the
/// given hammer count and timings on an all-zeros + all-ones sweep
/// (approximating a worst-case pattern).
fn flips(
    model: &mut RowHammerModel,
    bank: BankId,
    victim: RowAddr,
    hammers: u64,
    t_on: Picos,
    t_off: Picos,
) -> usize {
    model.reset_disturbance();
    model.on_hammer(bank, RowAddr(victim.0 - 1), hammers, t_on, t_off);
    model.on_hammer(bank, RowAddr(victim.0 + 1), hammers, t_on, t_off);
    let data = vec![0x00u8; ROW_BYTES];
    let zeros = model.flips_on_activate(bank, victim, &RowView::bytes(&data), 0).len();
    model.reset_disturbance();
    model.on_hammer(bank, RowAddr(victim.0 - 1), hammers, t_on, t_off);
    model.on_hammer(bank, RowAddr(victim.0 + 1), hammers, t_on, t_off);
    let data = vec![0xFFu8; ROW_BYTES];
    let ones = model.flips_on_activate(bank, victim, &RowView::bytes(&data), 0).len();
    zeros.max(ones)
}

/// Binary-search HCfirst (paper §4.2) of a victim row, 512-hammer
/// accuracy, 512 K cap.
fn hc_first(model: &mut RowHammerModel, bank: BankId, victim: RowAddr) -> Option<u64> {
    let mut lo = 0u64;
    let mut hi = 512 * 1024;
    if flips(model, bank, victim, hi, 34_500, 16_500) == 0 {
        return None;
    }
    while hi - lo > 512 {
        let mid = (lo + hi) / 2;
        if flips(model, bank, victim, mid, 34_500, 16_500) > 0 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

fn mean_flips(mfr: Manufacturer, t_on: Picos, t_off: Picos, hammers: u64) -> f64 {
    let mut m = RowHammerModel::new(mfr, 1001);
    m.set_temperature(50.0);
    let rows = 60;
    let total: usize = (0..rows)
        .map(|i| flips(&mut m, BankId(0), RowAddr(1000 + 3 * i), hammers, t_on, t_off))
        .sum();
    total as f64 / rows as f64
}

#[test]
fn baseline_ber_is_usable() {
    // 150K hammers must produce a workable number of flips per victim
    // row (the paper: "high enough to provide a large number of bit
    // flips in all DRAM modules").
    for mfr in Manufacturer::ALL {
        let b = mean_flips(mfr, 34_500, 16_500, 150_000);
        assert!(b >= 1.0, "{mfr}: baseline BER too low ({b})");
        assert!(b <= 2000.0, "{mfr}: baseline BER absurdly high ({b})");
    }
}

#[test]
fn t_agg_on_ber_ratio_matches_fig7() {
    // Paper: BER × 10.2 / 3.1 / 4.4 / 9.6 for A–D at tAggOn=154.5ns.
    let targets = [10.2, 3.1, 4.4, 9.6];
    for (mfr, target) in Manufacturer::ALL.into_iter().zip(targets) {
        let base = mean_flips(mfr, 34_500, 16_500, 150_000);
        let long = mean_flips(mfr, 154_500, 16_500, 150_000);
        let ratio = long / base.max(0.01);
        assert!(
            ratio > target * 0.4 && ratio < target * 2.5,
            "{mfr}: BER ratio {ratio:.1} vs paper {target}"
        );
    }
}

#[test]
fn t_agg_off_ber_ratio_matches_fig9() {
    // Paper: BER ÷ 6.3 / 2.9 / 4.9 / 5.0 for A–D at tAggOff=40.5ns.
    let targets = [6.3, 2.9, 4.9, 5.0];
    for (mfr, target) in Manufacturer::ALL.into_iter().zip(targets) {
        let base = mean_flips(mfr, 34_500, 16_500, 150_000);
        let long = mean_flips(mfr, 34_500, 40_500, 150_000);
        let ratio = base / long.max(0.01);
        assert!(
            ratio > target * 0.3 && ratio < target * 4.0,
            "{mfr}: BER reduction {ratio:.1} vs paper {target}"
        );
    }
}

#[test]
fn hc_first_range_is_plausible() {
    // Fig. 11: per-row HCfirst roughly 30K–300K across manufacturers.
    for mfr in Manufacturer::ALL {
        let mut m = RowHammerModel::new(mfr, 77);
        m.set_temperature(75.0);
        let values: Vec<f64> = (0..40)
            .filter_map(|i| hc_first(&mut m, BankId(0), RowAddr(2000 + 3 * i)))
            .map(|h| h as f64)
            .collect();
        assert!(values.len() >= 20, "{mfr}: too few vulnerable rows");
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!(
            (20_000.0..400_000.0).contains(&mean),
            "{mfr}: mean HCfirst {mean}"
        );
    }
}

#[test]
fn hc_first_reduction_at_long_t_on() {
    // Paper: HCfirst −40.0/−28.3/−32.7/−37.3 % at tAggOn=154.5 ns.
    // The g_on factor is exact by construction; verify it end-to-end on
    // measured HCfirst.
    let targets = [0.400, 0.283, 0.327, 0.373];
    for (mfr, target) in Manufacturer::ALL.into_iter().zip(targets) {
        let profile = MfrProfile::for_manufacturer(mfr);
        let g = rh_faultmodel::g_on(&profile, 154_500);
        let measured = 1.0 - 1.0 / g;
        assert!((measured - target).abs() < 0.001, "{mfr}");
    }
}
