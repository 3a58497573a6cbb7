//! Per-cell vulnerability profiles: threshold, bounded temperature
//! window with inflection point, and flip direction.

use crate::profile::MfrProfile;
use crate::rng;
use crate::variation;
use rh_dram::{BankId, RowAddr};
use serde::{Deserialize, Serialize};

/// Domain-separation tags for the per-cell derivations.
mod tag {
    pub const PLACE: u64 = 0x10;
    pub const THRESH: u64 = 0x11;
    pub const ORIENT: u64 = 0x12;
    pub const WINDOW: u64 = 0x13;
    pub const INFL: u64 = 0x14;
    pub const NOISE: u64 = 0x15;
}

/// The bounded temperature range within which a cell can experience
/// RowHammer bit flips (Obsv. 1: ranges are continuous and
/// cell-specific; Obsv. 3: they can be as narrow as 5 °C).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TempWindow {
    /// Lowest vulnerable temperature (°C); may lie below the tested
    /// range (the paper tests 50–90 °C).
    pub lo: f64,
    /// Highest vulnerable temperature (°C).
    pub hi: f64,
    /// Temperature of maximum vulnerability (the inflection point of
    /// Yang et al.'s charge-trap model, §5.3).
    pub inflection: f64,
}

impl TempWindow {
    /// Whether the cell can flip at all at temperature `t`. Both bounds
    /// are always compared, so a scan over many windows need not branch.
    pub fn contains(&self, t: f64) -> bool {
        (t >= self.lo) & (t <= self.hi)
    }

    /// Normalized squared distance of `t` from the inflection point
    /// (0 at the inflection, ~1 at the window edge).
    ///
    /// The normalization scale is capped at 30 °C so that cells with
    /// very wide (or unbounded) windows still exhibit a meaningful
    /// vulnerability peak around their inflection point — this is what
    /// drives the manufacturer-level BER-vs-temperature trends of
    /// Fig. 4.
    pub fn normalized_dist2(&self, t: f64) -> f64 {
        let half = ((self.hi - self.lo) / 2.0).clamp(2.5, 30.0);
        let d = (t - self.inflection) / half;
        d * d
    }

    /// The threshold at `t` of a cell in this window with base
    /// `threshold` and curvature `kappa`: `threshold · (1 + κ·d²)`,
    /// whether or not `t` is in the window.
    pub(crate) fn scale(&self, threshold: f64, kappa: f64, t: f64) -> f64 {
        threshold * (1.0 + kappa * self.normalized_dist2(t))
    }
}

/// One vulnerable DRAM cell within a row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellVulnerability {
    /// Byte offset within the row (module-level).
    pub byte: u32,
    /// Bit within the byte.
    pub bit: u8,
    /// Base flip threshold in hammer units at the inflection
    /// temperature, all spatial factors applied.
    pub threshold: f64,
    /// Vulnerable temperature window.
    pub window: TempWindow,
    /// Threshold-vs-temperature curvature.
    pub kappa: f64,
    /// `true` if the cell is an anti-cell (flips 0→1); `false` for
    /// true-cells (flip 1→0).
    pub anti_cell: bool,
}

impl CellVulnerability {
    /// Effective threshold (hammer units) at temperature `t`, or `None`
    /// outside the vulnerable window.
    pub fn threshold_at(&self, t: f64) -> Option<f64> {
        if !self.window.contains(t) {
            return None;
        }
        Some(self.window.scale(self.threshold, self.kappa, t))
    }

    /// Whether the stored bit value `bit` can flip in this cell
    /// (true-cells lose a 1, anti-cells gain a 1).
    pub fn susceptible(&self, stored_bit_is_one: bool) -> bool {
        stored_bit_is_one != self.anti_cell
    }

    /// Per-trial multiplicative threshold noise for trial `nonce`.
    pub fn trial_noise(&self, profile: &MfrProfile, module_seed: u64, nonce: u64) -> f64 {
        trial_noise_at(profile, module_seed, self.byte, self.bit, nonce)
    }
}

/// Per-trial multiplicative threshold noise of the cell at `(byte,
/// bit)` for trial `nonce` — the free-function form the columnar
/// kernel uses, so both evaluation paths derive *exactly* the same
/// sample from the same coordinates.
pub fn trial_noise_at(
    profile: &MfrProfile,
    module_seed: u64,
    byte: u32,
    bit: u8,
    nonce: u64,
) -> f64 {
    rng::lognormal(
        module_seed,
        &[tag::NOISE, byte as u64, bit as u64, nonce],
        0.0,
        profile.rep_noise_sigma,
    )
}

/// Proven bound on the standard-normal magnitude [`rng::normal`] can
/// produce: its Box–Muller transform clamps `u1` at `1e-12`, so
/// `|N| <= sqrt(-2 ln 1e-12) ≈ 7.434`. The columnar kernel multiplies
/// this by the profile's noise sigma to bracket [`trial_noise_at`]
/// without sampling it: a cell whose dose clears (or misses) its
/// threshold by more than the bracket needs no exact noise draw, and
/// the bracket being *sound* (never tighter than the true range) is
/// what keeps the shortcut bit-identical to the scalar path.
pub const NOISE_Z_BOUND: f64 = 7.44;

/// The multiplicative range `[lo, hi]` that [`trial_noise_at`] can ever
/// return under `profile`.
pub fn trial_noise_bounds(profile: &MfrProfile) -> (f64, f64) {
    let spread = (profile.rep_noise_sigma.abs() * NOISE_Z_BOUND).exp();
    (1.0 / spread, spread)
}

/// The module × subarray × row threshold factor every cell of the row
/// shares.
fn row_spatial(
    profile: &MfrProfile,
    module_seed: u64,
    bank: BankId,
    row: RowAddr,
    subarray_rows: u32,
) -> f64 {
    variation::module_factor(profile, module_seed)
        * variation::subarray_factor(profile, module_seed, bank, row.0 / subarray_rows)
        * variation::row_factor(profile, module_seed, bank, row)
}

/// A sound lower bound on the dose that can flip any cell of the row,
/// at any temperature and under any trial noise: for every cell `c` of
/// [`derive_row_cells`] and every `t` and `nonce`,
/// `c.threshold_at(t) * c.trial_noise(.., nonce) >= row_floor(..)`.
///
/// Costs one hash extension per cell plus the three spatial factors,
/// a small fraction of the derivation (and cell table) it lets a
/// sub-threshold sensing skip. The bound holds
/// because each cell's threshold normal comes from Box–Muller, whose
/// magnitude is at most `sqrt(-2 ln u1)` for the cell's first uniform
/// `u1`; because `1 + κ·d² >= 1` when `κ >= 0` (for `κ < 0`, or NaN,
/// the floor is 0 and gates nothing); and because no noise sample falls
/// below [`trial_noise_bounds`]'s `lo`. The `1 - 1e-9` factor absorbs
/// the few ulps by which the derivation's evaluation order can land
/// below the bound's. See `DESIGN.md` §12, "Row floor".
pub fn row_floor(
    profile: &MfrProfile,
    module_seed: u64,
    bank: BankId,
    row: RowAddr,
    subarray_rows: u32,
) -> f64 {
    if profile.kappa.is_nan() || profile.kappa < 0.0 {
        return 0.0;
    }
    let thresh = rng::hash(module_seed, &[tag::THRESH, bank.0 as u64, row.0 as u64]);
    let u1_min = (0..profile.cells_per_row as u64)
        .map(|i| rng::unit(rng::extend(thresh, i)))
        .fold(1.0, f64::min);
    let r = (-2.0 * u1_min.max(1e-12).ln()).sqrt();
    let (noise_lo, _) = trial_noise_bounds(profile);
    row_spatial(profile, module_seed, bank, row, subarray_rows)
        * (profile.hc_median.ln() - profile.sigma_cell.abs() * r).exp()
        * noise_lo
        * (1.0 - 1e-9)
}

/// Derives the vulnerable-cell population of one physical row.
///
/// The derivation is a pure function of `(module_seed, bank, row)`:
/// `profile.cells_per_row` cells are placed by rejection-sampling
/// columns against [`variation::column_weight`], then given thresholds
/// combining module/subarray/row/cell log-normal factors and a bounded
/// temperature window per the manufacturer's Fig.-3 statistics.
pub fn derive_row_cells(
    profile: &MfrProfile,
    module_seed: u64,
    bank: BankId,
    row: RowAddr,
    row_bytes: usize,
    subarray_rows: u32,
) -> Vec<CellVulnerability> {
    derive_row_cells_with(
        profile,
        module_seed,
        bank,
        row,
        row_bytes,
        subarray_rows,
        |chip, column| variation::column_weight(profile, module_seed, chip, column),
    )
}

/// [`derive_row_cells`] with the column weights supplied by the
/// caller: `column_weight(chip, column)` must equal
/// [`variation::column_weight`] for `(profile, module_seed)`. The
/// weights depend only on the module, not the row, so a model deriving
/// many rows passes a memo of them (about 40 % of a derivation
/// otherwise goes to recomputing them).
pub fn derive_row_cells_with(
    profile: &MfrProfile,
    module_seed: u64,
    bank: BankId,
    row: RowAddr,
    row_bytes: usize,
    subarray_rows: u32,
    mut column_weight: impl FnMut(u8, u32) -> f64,
) -> Vec<CellVulnerability> {
    let columns = (row_bytes / 8) as u32;
    let chips = 8u8;
    let spatial = row_spatial(profile, module_seed, bank, row, subarray_rows);
    let ln_med = profile.hc_median.ln();

    // Every draw hashes `[tag.., bank, row, cell]`: hash each row prefix
    // once, and extend it by the cell index per draw.
    let (b, r) = (bank.0 as u64, row.0 as u64);
    let place = rng::hash(module_seed, &[tag::PLACE, b, r]);
    let place_bit = rng::hash(module_seed, &[tag::PLACE, 0xB17, b, r]);
    let thresh = rng::hash(module_seed, &[tag::THRESH, b, r]);
    let window_kind = rng::hash(module_seed, &[tag::WINDOW, b, r]);
    let window_pos = rng::hash(module_seed, &[tag::WINDOW, 1, b, r]);
    let window_width = rng::hash(module_seed, &[tag::WINDOW, 2, b, r]);
    let infl = rng::hash(module_seed, &[tag::INFL, b, r]);
    let jitter = rng::hash(module_seed, &[tag::INFL, 1, b, r]);
    let orient = rng::hash(module_seed, &[tag::ORIENT, b, r]);

    let mut cells = Vec::with_capacity(profile.cells_per_row as usize);
    for i in 0..profile.cells_per_row as u64 {
        // --- placement: rejection-sample a chip-column by weight ---
        let (chip, column) = {
            let place_i = rng::extend(place, i);
            let mut pick = (0u8, 0u32);
            for attempt in 0..16u64 {
                let h = rng::extend(place_i, attempt);
                let chip = (h % chips as u64) as u8;
                let column = ((h >> 8) % columns as u64) as u32;
                let w = column_weight(chip, column);
                if rng::unit(rng::mix(h ^ 0x5bd1)) < w {
                    pick = (chip, column);
                    break;
                }
                pick = (chip, column);
                // On the final attempt, land only on a non-immune column.
                if attempt == 15 && w == 0.0 {
                    pick = (chip, (column + 1) % columns);
                }
            }
            pick
        };
        // Guard: never place cells on immune columns.
        let (chip, column) = {
            let mut c = column;
            let mut k = chip;
            let mut guard = 0;
            while column_weight(k, c) == 0.0 && guard < 64 {
                c = (c + 1) % columns;
                if c == 0 {
                    k = (k + 1) % chips;
                }
                guard += 1;
            }
            (k, c)
        };
        let byte = column * 8 + chip as u32;
        let bit = (rng::extend(place_bit, i) % 8) as u8;

        // --- threshold ---
        let threshold = spatial
            * (ln_med + profile.sigma_cell * rng::normal_of(rng::extend(thresh, i))).exp();

        // --- temperature window (Fig. 3 statistics) ---
        let u_kind = rng::unit(rng::extend(window_kind, i));
        let (lo, hi) = if u_kind < profile.p_full_range {
            (-273.0, 300.0)
        } else {
            let u_pos = rng::unit(rng::extend(window_pos, i));
            let u_width = rng::unit(rng::extend(window_width, i));
            let width = 3.0 - profile.width_mean * (1.0 - u_width).max(1e-12).ln(); // 3 + Exp(mean)
            if u_kind < profile.p_full_range + (1.0 - profile.p_full_range) * profile.p_rising {
                // Rising type: window opens inside the tested range.
                let lo = 47.0 + 45.0 * u_pos;
                (lo, lo + width)
            } else {
                // Falling type: window closes inside the tested range.
                let hi = 48.0 + 45.0 * u_pos;
                (hi - width, hi)
            }
        };
        // Inflection placement: density shaped by the manufacturer's
        // bias (positive = vulnerability peaks at hotter temperatures,
        // so BER rises with temperature — Fig. 4 A/C/D; negative = the
        // opposite — Fig. 4 B).
        let infl_u = rng::unit(rng::extend(infl, i));
        let infl_jitter = rng::normal_of(rng::extend(jitter, i));
        let shape = 1.0 + 2.5 * profile.infl_bias.abs();
        let mut pos = infl_u.powf(1.0 / shape);
        if profile.infl_bias < 0.0 {
            pos = 1.0 - pos;
        }
        pos = (pos + 0.08 * infl_jitter).clamp(0.0, 1.0);
        let inflection = if lo < -200.0 {
            // Full-range cells: place the inflection around the tested
            // window so temperature trends still apply.
            42.0 + 58.0 * pos
        } else {
            lo + (hi - lo) * pos
        };

        let anti_cell = rng::unit(rng::extend(orient, i)) < profile.anti_cell_fraction;

        cells.push(CellVulnerability {
            byte,
            bit,
            threshold,
            window: TempWindow { lo, hi, inflection },
            kappa: profile.kappa,
            anti_cell,
        });
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_dram::Manufacturer;

    fn cells(mfr: Manufacturer, row: u32) -> Vec<CellVulnerability> {
        let p = MfrProfile::for_manufacturer(mfr);
        derive_row_cells(&p, 42, BankId(0), RowAddr(row), 8192, 512)
    }

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(cells(Manufacturer::A, 100), cells(Manufacturer::A, 100));
    }

    #[test]
    fn rows_differ() {
        assert_ne!(cells(Manufacturer::A, 100), cells(Manufacturer::A, 101));
    }

    #[test]
    fn cell_count_matches_profile() {
        let p = MfrProfile::for_manufacturer(Manufacturer::B);
        assert_eq!(cells(Manufacturer::B, 5).len(), p.cells_per_row as usize);
    }

    #[test]
    fn cells_fit_in_row() {
        for c in cells(Manufacturer::C, 9) {
            assert!((c.byte as usize) < 8192);
            assert!(c.bit < 8);
        }
    }

    #[test]
    fn no_cells_on_immune_columns() {
        let p = MfrProfile::for_manufacturer(Manufacturer::C);
        for c in cells(Manufacturer::C, 77) {
            let chip = (c.byte % 8) as u8;
            let col = c.byte / 8;
            assert!(
                variation::column_weight(&p, 42, chip, col) > 0.0,
                "cell on immune column {col} chip {chip}"
            );
        }
    }

    #[test]
    fn windows_are_well_formed() {
        for c in cells(Manufacturer::D, 3) {
            assert!(c.window.lo < c.window.hi);
            assert!(c.window.contains(c.window.inflection));
        }
    }

    #[test]
    fn threshold_minimal_at_inflection() {
        for c in cells(Manufacturer::A, 8).into_iter().take(32) {
            let at_infl = c.threshold_at(c.window.inflection);
            if let Some(h0) = at_infl {
                for t in [c.window.inflection - 3.0, c.window.inflection + 3.0] {
                    if let Some(h) = c.threshold_at(t) {
                        assert!(h >= h0, "threshold dips away from inflection");
                    }
                }
            }
        }
    }

    #[test]
    fn outside_window_is_invulnerable() {
        for c in cells(Manufacturer::B, 4) {
            if c.window.lo > -200.0 {
                assert_eq!(c.threshold_at(c.window.lo - 1.0), None);
                assert_eq!(c.threshold_at(c.window.hi + 1.0), None);
            }
        }
    }

    #[test]
    fn full_range_fraction_near_profile() {
        let p = MfrProfile::for_manufacturer(Manufacturer::D);
        let mut full = 0usize;
        let mut total = 0usize;
        for row in 0..50u32 {
            for c in cells(Manufacturer::D, row) {
                total += 1;
                if c.window.lo < -200.0 {
                    full += 1;
                }
            }
        }
        let frac = full as f64 / total as f64;
        assert!((frac - p.p_full_range).abs() < 0.03, "full-range fraction {frac}");
    }

    #[test]
    fn anti_cell_fraction_near_profile() {
        let p = MfrProfile::for_manufacturer(Manufacturer::C);
        let mut anti = 0usize;
        let mut total = 0usize;
        for row in 0..50u32 {
            for c in cells(Manufacturer::C, row) {
                total += 1;
                if c.anti_cell {
                    anti += 1;
                }
            }
        }
        let frac = anti as f64 / total as f64;
        assert!((frac - p.anti_cell_fraction).abs() < 0.03, "anti fraction {frac}");
    }

    #[test]
    fn susceptibility_follows_orientation() {
        let c = CellVulnerability {
            byte: 0,
            bit: 0,
            threshold: 1.0,
            window: TempWindow { lo: 0.0, hi: 100.0, inflection: 50.0 },
            kappa: 1.0,
            anti_cell: true,
        };
        assert!(c.susceptible(false)); // anti-cell flips a stored 0
        assert!(!c.susceptible(true));
    }

    #[test]
    fn trial_noise_stays_within_proven_bounds() {
        // The columnar kernel's definite-pass/definite-fail shortcut is
        // only sound if no sample ever escapes the bracket.
        let p = MfrProfile::for_manufacturer(Manufacturer::B);
        let (lo, hi) = trial_noise_bounds(&p);
        assert!(lo < 1.0 && hi > 1.0);
        for row in 0..4u32 {
            for c in cells(Manufacturer::B, row) {
                for nonce in 0..64u64 {
                    let n = c.trial_noise(&p, 42, nonce);
                    assert!(n >= lo && n <= hi, "noise {n} outside [{lo}, {hi}]");
                }
            }
        }
    }

    #[test]
    fn trial_noise_free_function_matches_method() {
        let p = MfrProfile::for_manufacturer(Manufacturer::D);
        let c = cells(Manufacturer::D, 2)[0];
        assert_eq!(c.trial_noise(&p, 9, 3), trial_noise_at(&p, 9, c.byte, c.bit, 3));
    }

    #[test]
    fn derivation_bits_are_pinned() {
        // Every field's bits of a fixed set of derivations, folded into
        // one digest that was computed before the per-row hash prefixes
        // were hoisted. Any change to the derived populations — a draw
        // reordered, a prefix mis-hoisted, a float reassociated — moves
        // it; comparing the memoized path with the direct one cannot,
        // since both run the same derivation.
        let mut digest = 0u64;
        let mut fold = |x: u64| digest = rng::mix(digest ^ x);
        for mfr in Manufacturer::ALL {
            let p = MfrProfile::for_manufacturer(mfr);
            for seed in [42u64, 0x5EED_0003] {
                for (bank, row, row_bytes) in
                    [(0u32, 0u32, 8192usize), (0, 511, 8192), (1, 512, 8192), (3, 40_961, 2048)]
                {
                    let cells = derive_row_cells(&p, seed, BankId(bank), RowAddr(row), row_bytes, 512);
                    fold(cells.len() as u64);
                    for c in cells {
                        fold(c.byte as u64);
                        fold(c.bit as u64);
                        fold(c.threshold.to_bits());
                        fold(c.window.lo.to_bits());
                        fold(c.window.hi.to_bits());
                        fold(c.window.inflection.to_bits());
                        fold(c.kappa.to_bits());
                        fold(c.anti_cell as u64);
                    }
                }
            }
        }
        assert_eq!(digest, 0x628F_D65B_4C70_54A5, "derived cell populations changed");
    }

    #[test]
    fn trial_noise_is_near_one_and_varies() {
        let p = MfrProfile::for_manufacturer(Manufacturer::A);
        let c = cells(Manufacturer::A, 1)[0];
        let n1 = c.trial_noise(&p, 42, 0);
        let n2 = c.trial_noise(&p, 42, 1);
        assert_ne!(n1, n2);
        assert!((n1 - 1.0).abs() < 0.2);
    }
}
