//! Scalar-vs-columnar equivalence suite: the columnar kernel
//! ([`rh_faultmodel::kernel`]) must produce **bit-identical** flip sets
//! to the retained scalar reference path for every swept configuration.
//!
//! The kernel's shortcuts (the sort-key cut of the row's cell table,
//! noise bracketing) are only sound if `definite-pass`/`definite-fail`
//! decisions agree with the exact per-cell evaluation; these tests
//! sweep manufacturers × temperatures × seeds × data patterns with dose
//! ladders that deliberately straddle the noise band, so any divergence
//! in the bracketing logic shows up as a differing flip vector.

use rh_dram::{
    BankId, BitFlip, DataPattern, DisturbanceModel, Manufacturer, PatternKind, RowAddr, RowFill,
    RowView,
};
use rh_faultmodel::disturb::units_distance1;
use rh_faultmodel::{row_floor, EvalMode, MfrProfile, RowHammerModel};

const ROW_BYTES: usize = 8192;

/// Runs one identical stimulus program against a fresh model in `mode`,
/// every victim holding `data`, and returns every activation's flip
/// vector, in program order.
///
/// The program covers the interesting regimes: a dose ladder from
/// ineffective to saturating (straddling the per-cell noise band in
/// between), distance-2-only coupling, repeated activations with
/// advancing trial nonces, and a retention-leak + hammer overlap.
fn run_program(
    mfr: Manufacturer,
    seed: u64,
    temperature: f64,
    data: &RowView<'_>,
    mode: EvalMode,
) -> Vec<Vec<BitFlip>> {
    let mut m = RowHammerModel::new(mfr, seed).with_eval_mode(mode);
    m.set_temperature(temperature);
    let bank = BankId(0);
    let mut out = Vec::new();

    // Dose ladder: each rung hammers both neighbors of its own victim
    // row. The counts span ~3 orders of magnitude so some rung lands
    // inside every cell's noise band at any in-window temperature.
    let ladder = [2_000u64, 20_000, 60_000, 110_000, 150_000, 250_000, 400_000, 1_200_000, 5_000_000];
    for (i, &count) in ladder.iter().enumerate() {
        let v = 200 + 8 * i as u32;
        m.on_restore(bank, RowAddr(v), 0);
        m.on_hammer(bank, RowAddr(v - 1), count, 34_500, 16_500);
        m.on_hammer(bank, RowAddr(v + 1), count, 34_500, 16_500);
        out.push(m.flips_on_activate(bank, RowAddr(v), data, 0));
    }

    // Distance-2-only coupling: weak dose via rows ±2.
    let v = 600u32;
    m.on_hammer(bank, RowAddr(v - 2), 3_000_000, 34_500, 16_500);
    m.on_hammer(bank, RowAddr(v + 2), 3_000_000, 34_500, 16_500);
    out.push(m.flips_on_activate(bank, RowAddr(v), data, 0));

    // Repeated activations of one victim: the trial nonce advances on
    // each restore, so the band cells re-draw their noise.
    let v = 700u32;
    for _ in 0..3 {
        m.on_restore(bank, RowAddr(v), 0);
        m.on_hammer(bank, RowAddr(v - 1), 180_000, 54_500, 16_500);
        m.on_hammer(bank, RowAddr(v + 1), 180_000, 54_500, 16_500);
        out.push(m.flips_on_activate(bank, RowAddr(v), data, 0));
    }

    // Retention leak + hammer overlap: the row idles an hour before the
    // read, so retention-weak cells leak on top of the hammer flips
    // (and must be deduped identically by both paths).
    let v = 1000u32;
    m.on_restore(bank, RowAddr(v), 0);
    m.on_hammer(bank, RowAddr(v - 1), 800_000, 54_500, 16_500);
    m.on_hammer(bank, RowAddr(v + 1), 800_000, 54_500, 16_500);
    out.push(m.flips_on_activate(bank, RowAddr(v), data, 3_600_000_000_000_000));

    out
}

/// The full sweep matrix of the issue: manufacturers A–D ×
/// temperatures {-200, 50, 75, 90} °C × seeds × fills {0x00, 0xFF,
/// 0x55}. Every activation's flip vector must match bit-for-bit.
#[test]
fn columnar_matches_scalar_across_full_matrix() {
    let mut activations = 0usize;
    let mut flipped = 0usize;
    for mfr in Manufacturer::ALL {
        for temperature in [-200.0, 50.0, 75.0, 90.0] {
            for seed in [1u64, 7] {
                for fill in [0x00u8, 0xFF, 0x55] {
                    let data = vec![fill; ROW_BYTES];
                    let data = RowView::bytes(&data);
                    let columnar = run_program(mfr, seed, temperature, &data, EvalMode::Columnar);
                    let scalar =
                        run_program(mfr, seed, temperature, &data, EvalMode::ScalarReference);
                    assert_eq!(
                        columnar, scalar,
                        "flip sets diverge: {mfr} t={temperature} seed={seed} fill={fill:#04x}"
                    );
                    activations += columnar.len();
                    flipped += columnar.iter().filter(|f| !f.is_empty()).count();
                }
            }
        }
    }
    // The matrix must actually exercise flips, or equivalence is vacuous.
    assert!(activations >= 96 * 14, "unexpected program shape");
    assert!(flipped > 100, "matrix produced almost no flips ({flipped})");
}

/// A row the module stores as a pattern fill is sensed through its
/// lanes, with no bytes built: every pattern, random included, must
/// flip exactly what its bytes flip, on both evaluation paths.
#[test]
fn fill_backed_rows_flip_like_their_bytes() {
    let mut flipped = 0usize;
    for mfr in Manufacturer::ALL {
        for kind in PatternKind::ALL {
            for distance in [0i64, -1] {
                let fill = RowFill::new(DataPattern::new(kind, 5), RowAddr(300), distance);
                let bytes = fill.bytes(ROW_BYTES);
                for mode in [EvalMode::Columnar, EvalMode::ScalarReference] {
                    let from_bytes = RowView::bytes(&bytes);
                    let from_bytes = run_program(mfr, 7, 75.0, &from_bytes, mode);
                    let from_fill = RowView::fill(fill, ROW_BYTES);
                    let from_fill = run_program(mfr, 7, 75.0, &from_fill, mode);
                    assert_eq!(from_fill, from_bytes, "{mfr} {kind:?} d={distance} {mode:?}");
                    flipped += from_fill.iter().filter(|f| !f.is_empty()).count();
                }
            }
        }
    }
    assert!(flipped > 100, "the programs produced almost no flips ({flipped})");
}

/// A fine-grained dose ramp at the BER knee: consecutive counts differ
/// by ~8 %, so successive doses walk through the noise band of many
/// cells — the regime where an unsound bracket would misclassify a
/// band cell as definite pass/fail.
#[test]
fn fine_dose_ramp_straddles_noise_band_identically() {
    for mfr in Manufacturer::ALL {
        for fill in [0x00u8, 0xFF] {
            let run = |mode: EvalMode| -> Vec<Vec<BitFlip>> {
                let mut m = RowHammerModel::new(mfr, 33).with_eval_mode(mode);
                m.set_temperature(75.0);
                let bank = BankId(1);
                let data = vec![fill; ROW_BYTES];
                let mut count = 40_000u64;
                let mut out = Vec::new();
                for i in 0..24u32 {
                    let v = 300 + 6 * i;
                    m.on_restore(bank, RowAddr(v), 0);
                    m.on_hammer(bank, RowAddr(v - 1), count, 34_500, 16_500);
                    m.on_hammer(bank, RowAddr(v + 1), count, 34_500, 16_500);
                    out.push(m.flips_on_activate(bank, RowAddr(v), &RowView::bytes(&data), 0));
                    count += count / 12;
                }
                out
            };
            assert_eq!(run(EvalMode::Columnar), run(EvalMode::ScalarReference), "{mfr} {fill:#04x}");
        }
    }
}

/// The Fig. 4 shape: one victim's flip set swept across temperature in
/// 5 °C steps, both paths in lockstep. Exercises one cell table read at
/// every sweep point and the window edges where cells enter/leave the
/// in-window population.
#[test]
fn temperature_sweep_is_bit_identical() {
    for mfr in [Manufacturer::A, Manufacturer::C] {
        let run = |mode: EvalMode| -> Vec<Vec<BitFlip>> {
            let mut m = RowHammerModel::new(mfr, 5).with_eval_mode(mode);
            let bank = BankId(0);
            let data = vec![0u8; ROW_BYTES];
            let mut out = Vec::new();
            let mut t = 40.0;
            while t <= 90.0 {
                m.set_temperature(t);
                let v = 500u32;
                m.on_restore(bank, RowAddr(v), 0);
                m.on_hammer(bank, RowAddr(v - 1), 200_000, 34_500, 16_500);
                m.on_hammer(bank, RowAddr(v + 1), 200_000, 34_500, 16_500);
                out.push(m.flips_on_activate(bank, RowAddr(v), &RowView::bytes(&data), 0));
                t += 5.0;
            }
            out
        };
        assert_eq!(run(EvalMode::Columnar), run(EvalMode::ScalarReference), "{mfr}");
    }
}

/// Rungs whose doses sit a hair below and above each victim's
/// [`row_floor`], where the columnar path switches between skipping the
/// row outright and deriving it: both sides must match the scalar path.
/// The second profile has no per-cell spread, curvature or trial noise:
/// every cell's threshold is the row's floor within rounding, so the
/// rung above the floor flips every in-window susceptible cell and a
/// gate even 1e-6 too high would show as a divergence.
#[test]
fn rungs_at_the_row_floor_are_bit_identical() {
    let mut checked = [0usize; 2];
    let mut flipped = 0usize;
    for mfr in Manufacturer::ALL {
        let calibrated = MfrProfile::for_manufacturer(mfr);
        let tight = MfrProfile { sigma_cell: 0.0, kappa: 0.0, rep_noise_sigma: 0.0, ..calibrated };
        for profile in [calibrated, tight] {
            for seed in [1u64, 7] {
                for temperature in [50.0, 75.0, 90.0] {
                    for fill in [0x00u8, 0xFF] {
                        let run = |mode: EvalMode| -> Vec<Vec<BitFlip>> {
                            let mut m = RowHammerModel::with_profile(profile, seed).with_eval_mode(mode);
                            m.set_temperature(temperature);
                            let bank = BankId(2);
                            let data = vec![fill; ROW_BYTES];
                            let mut out = Vec::new();
                            for i in 0..6u32 {
                                let v = 200 + 8 * i;
                                let floor = row_floor(&profile, seed, bank, RowAddr(v), 512);
                                let above = i % 2 == 1;
                                let target = floor * if above { 1.0 + 1e-6 } else { 1.0 - 1e-6 };
                                let (count, t_on) = hammers_for_dose(&profile, target);
                                m.on_restore(bank, RowAddr(v), 0);
                                m.on_hammer(bank, RowAddr(v - 1), count, t_on, 16_500);
                                let dose = m.accumulated(bank, RowAddr(v));
                                assert_eq!(dose >= floor, above, "dose {dose} vs floor {floor}");
                                let data = RowView::bytes(&data);
                                out.push(m.flips_on_activate(bank, RowAddr(v), &data, 0));
                            }
                            out
                        };
                        let columnar = run(EvalMode::Columnar);
                        assert_eq!(
                            columnar,
                            run(EvalMode::ScalarReference),
                            "{mfr} seed={seed} t={temperature} fill={fill:#04x} sigma_cell={}",
                            profile.sigma_cell
                        );
                        checked[usize::from(profile.sigma_cell == 0.0)] += columnar.len();
                        flipped += columnar.iter().filter(|f| !f.is_empty()).count();
                    }
                }
            }
        }
    }
    assert_eq!(checked, [4 * 2 * 3 * 2 * 6; 2], "unexpected rung count");
    // Every above-floor rung of the noiseless profile flips something.
    assert!(flipped >= 4 * 2 * 3 * 2 * 3, "only {flipped} rungs flipped");
}

/// A single-sided hammer `(count, t_on)` at baseline `t_off` whose
/// distance-1 dose is within 2e-7 (relative) of `target`: the count
/// sets the coarse dose and the on-time, through `g_on`, the fine one.
fn hammers_for_dose(profile: &MfrProfile, target: f64) -> (u64, u64) {
    for t_on in 34_500u64..60_000 {
        let per_hammer = units_distance1(profile, 1, t_on, 16_500);
        let count = (target / per_hammer).round() as u64;
        if (units_distance1(profile, count, t_on, 16_500) / target - 1.0).abs() < 2e-7 {
            return (count, t_on);
        }
    }
    panic!("no hammer count and on-time reach dose {target}");
}
