//! Columnar evaluation kernel for the RowHammer fault model.
//!
//! The scalar path in [`crate::model`] walks every derived cell of a
//! row on every activation, recomputing its temperature-dependent
//! threshold and drawing a per-trial noise sample. The kernel touches
//! only the cells a dose can reach and draws noise only where the draw
//! decides:
//!
//! 1. **Cell table** ([`CellTable`]): the row's cells sorted by base
//!    threshold, built once per row and shared process-wide by
//!    [`crate::model`]. It holds no temperature: every temperature is
//!    evaluated from it.
//! 2. **Sort-key cut**: with `κ >= 0` a cell's threshold at any
//!    temperature is at least its base threshold, so the cells a dose
//!    can reach are a prefix of the table.
//! 3. **Noise bracketing**: the per-trial noise sample is bounded by
//!    [`crate::cell::trial_noise_bounds`], so a cell outside the
//!    `dose / noise` band is decided by one comparison, and only a cell
//!    inside it draws the exact sample the scalar path draws. The two
//!    paths stay bit-identical (the `equivalence` suite and the
//!    `columnar_matches_scalar_reference` property hold them together).

use crate::cell::{trial_noise_at, trial_noise_bounds, CellVulnerability, TempWindow};
use crate::profile::MfrProfile;
use rh_dram::{BitFlip, RowView};

/// One row's vulnerable cells, sorted ascending by base threshold: the
/// only per-row state the fault model caches. 40 bytes per cell.
#[derive(Debug)]
pub struct CellTable {
    /// Base thresholds (hammer units), ascending: the sort key.
    key: Vec<f64>,
    /// The rest of each cell, parallel to `key`.
    cells: Vec<Cell>,
    /// The module's profile and seed, which the noise draws take.
    profile: MfrProfile,
    module_seed: u64,
    /// Whether `key * noise_lo` bounds every cell's gate from below at
    /// every temperature (`κ >= 0` and no NaN key); otherwise every
    /// cell is a candidate.
    bounded: bool,
    /// Noise bracket of the profile, cached.
    noise_lo: f64,
    noise_hi: f64,
}

/// A cell without its threshold.
#[derive(Debug, Clone, Copy)]
struct Cell {
    window: TempWindow,
    /// 64-bit data lane (word index) holding the cell.
    word: u32,
    /// Bit of the cell within its lane.
    pos: u8,
    anti: bool,
}

impl Cell {
    /// The cell's `(byte, bit)` coordinates.
    fn flip(&self) -> BitFlip {
        let pos = u32::from(self.pos);
        BitFlip { byte: self.word * 8 + pos / 8, bit: (pos % 8) as u8 }
    }
}

impl CellTable {
    /// Sorts `cells`, a row's derivation for the module of `profile`
    /// and `module_seed`, into a table. Cells with equal thresholds
    /// keep their derivation order.
    pub(crate) fn new(
        profile: &MfrProfile,
        module_seed: u64,
        cells: Vec<CellVulnerability>,
    ) -> Self {
        // `f64::total_cmp`'s order as integers, the index breaking ties.
        let mut order: Vec<(i64, u32)> = (0..)
            .zip(&cells)
            .map(|(i, c)| {
                let bits = c.threshold.to_bits() as i64;
                (bits ^ (((bits >> 63) as u64) >> 1) as i64, i)
            })
            .collect();
        order.sort_unstable();
        let n = cells.len();
        let (mut key, mut table) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for c in order.iter().map(|&(_, i)| &cells[i as usize]) {
            let pos = ((c.byte % 8) * 8 + u32::from(c.bit)) as u8;
            key.push(c.threshold);
            table.push(Cell { window: c.window, word: c.byte / 8, pos, anti: c.anti_cell });
        }
        let (noise_lo, noise_hi) = trial_noise_bounds(profile);
        Self {
            bounded: profile.kappa >= 0.0 && key.iter().all(|k: &f64| !k.is_nan()),
            key,
            cells: table,
            profile: *profile,
            module_seed,
            noise_lo,
            noise_hi,
        }
    }

    /// The cells in table order, as derived.
    pub fn cells(&self) -> impl Iterator<Item = CellVulnerability> + '_ {
        self.key.iter().zip(&self.cells).map(|(&threshold, c)| {
            let BitFlip { byte, bit } = c.flip();
            let (window, kappa, anti_cell) = (c.window, self.profile.kappa, c.anti);
            CellVulnerability { byte, bit, threshold, window, kappa, anti_cell }
        })
    }

    /// How many leading cells `dose` can reach: past this index no cell
    /// flips at any temperature or trial noise. With `κ >= 0` every
    /// threshold is at least its key (`1 + κ·d² >= 1`, and rounding a
    /// product is monotone), and every noise draw at least `noise_lo`.
    pub fn cut(&self, dose: f64) -> usize {
        if self.bounded {
            self.key.partition_point(|&k| k * self.noise_lo <= dose)
        } else {
            self.key.len()
        }
    }

    /// Evaluates one activation at `temperature`: appends the flips
    /// `dose` causes in a row holding `data` to `out`, and returns
    /// whether the dose reached any cell (`false` is the early-out).
    /// `nonce` salts the noise draw inside the band.
    ///
    /// The cut is scanned in chunks of 64 cells. A branch-free pass
    /// marks the cells that are in window and susceptible; only those
    /// compute their threshold. About half of a cut is out of window at
    /// any one temperature, so a branch per cell would mispredict often.
    pub(crate) fn evaluate(
        &self,
        nonce: u64,
        temperature: f64,
        dose: f64,
        data: &RowView<'_>,
        out: &mut Vec<BitFlip>,
    ) -> bool {
        let cut = self.cut(dose);
        for base in (0..cut).step_by(64) {
            let chunk = &self.cells[base..cut.min(base + 64)];
            let mut marked = 0u64;
            for (j, c) in chunk.iter().enumerate() {
                let susceptible = ((data.word(c.word) >> c.pos) & 1 != 0) != c.anti;
                marked |= u64::from(susceptible & c.window.contains(temperature)) << j;
            }
            while marked != 0 {
                let j = marked.trailing_zeros() as usize;
                marked &= marked - 1;
                let c = chunk[j];
                let h = c.window.scale(self.key[base + j], self.profile.kappa, temperature);
                let passes = h * self.noise_hi <= dose
                    || (h * self.noise_lo <= dose && {
                        let BitFlip { byte, bit } = c.flip();
                        let (p, seed) = (&self.profile, self.module_seed);
                        dose >= h * trial_noise_at(p, seed, byte, bit, nonce)
                    });
                if passes {
                    out.push(c.flip());
                }
            }
        }
        cut > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::derive_row_cells;
    use rh_dram::{BankId, Manufacturer, RowAddr};

    fn table(profile: &MfrProfile, row: u32) -> (Vec<CellVulnerability>, CellTable) {
        let cells = derive_row_cells(profile, 42, BankId(0), RowAddr(row), 8192, 512);
        (cells.clone(), CellTable::new(profile, 42, cells))
    }

    #[test]
    fn table_is_its_derivation_sorted_by_threshold() {
        for mfr in Manufacturer::ALL {
            let p = MfrProfile::for_manufacturer(mfr);
            let (mut cells, t) = table(&p, 10);
            assert_eq!(t.key.len(), p.cells_per_row as usize);
            for pair in t.key.windows(2) {
                assert!(pair[0] <= pair[1], "keys out of order: {pair:?}");
            }
            cells.sort_by(|a, b| a.threshold.total_cmp(&b.threshold));
            assert_eq!(t.cells().collect::<Vec<_>>(), cells, "{mfr}");
        }
        // Without per-cell spread every key of a row ties: the table
        // keeps the derivation order.
        let p = MfrProfile { sigma_cell: 0.0, ..MfrProfile::for_manufacturer(Manufacturer::C) };
        let (cells, t) = table(&p, 11);
        assert!(t.key.iter().all(|&k| k == t.key[0]));
        assert_eq!(t.cells().collect::<Vec<_>>(), cells);
    }

    #[test]
    fn key_never_exceeds_a_threshold_in_window() {
        let p = MfrProfile::for_manufacturer(Manufacturer::B);
        let (_, t) = table(&p, 7);
        assert!(t.bounded);
        for (k, c) in t.key.iter().zip(t.cells()) {
            for temp in [c.window.lo, c.window.inflection, c.window.hi, 50.0, 90.0] {
                if let Some(h) = c.threshold_at(temp) {
                    assert!(*k <= h, "key {k} above threshold {h} at {temp} C");
                }
            }
        }
    }

    #[test]
    fn early_out_is_an_empty_cut() {
        let p = MfrProfile::for_manufacturer(Manufacturer::A);
        let (_, t) = table(&p, 5);
        let gate = t.key[0] * t.noise_lo;
        assert_eq!((t.cut(0.0), t.cut(gate.next_down()), t.cut(gate)), (0, 0, 1));
        assert_eq!(t.cut(f64::INFINITY), t.key.len());
        let data = vec![0u8; 8192];
        let data = RowView::bytes(&data);
        let mut out = Vec::new();
        assert!(!t.evaluate(0, 75.0, gate.next_down(), &data, &mut out));
        assert!(out.is_empty());
        assert!(t.evaluate(0, 75.0, gate, &data, &mut out));
    }

    #[test]
    fn no_cell_past_the_cut_can_flip() {
        let p = MfrProfile::for_manufacturer(Manufacturer::C);
        let (_, t) = table(&p, 3);
        let dose = t.key[t.key.len() / 2] * t.noise_lo;
        let cut = t.cut(dose);
        assert!(cut > 0 && cut < t.key.len());
        for c in t.cells().skip(cut) {
            for temp in [c.window.lo, c.window.inflection, c.window.hi, 75.0] {
                if let Some(h) = c.threshold_at(temp) {
                    assert!(h * t.noise_lo > dose, "cell past the cut reachable at {temp} C");
                }
            }
        }
    }

    #[test]
    fn negative_curvature_scans_every_cell() {
        let mut p = MfrProfile::for_manufacturer(Manufacturer::D);
        p.kappa = -0.5;
        let (_, t) = table(&p, 9);
        assert!(!t.bounded);
        assert_eq!(t.cut(0.0), t.key.len());
        p.cells_per_row = 0;
        assert_eq!(table(&p, 9).1.cut(f64::INFINITY), 0);
    }

    #[test]
    fn saturating_dose_flips_every_susceptible_cell_in_window() {
        let p = MfrProfile::for_manufacturer(Manufacturer::A);
        let (_, t) = table(&p, 5);
        let dose = t.key[t.key.len() - 1] * t.noise_hi * 1e3;
        for fill in [0x00u8, 0xFF] {
            let data = vec![fill; 8192];
            let mut out = Vec::new();
            t.evaluate(0, 75.0, dose, &RowView::bytes(&data), &mut out);
            let got: std::collections::BTreeSet<_> = out.iter().map(|f| (f.byte, f.bit)).collect();
            // All-zero data flips every in-window anti-cell; all-ones
            // every in-window true-cell.
            let want: std::collections::BTreeSet<_> = t
                .cells()
                .filter(|c| c.window.contains(75.0) && c.anti_cell == (fill == 0))
                .map(|c| (c.byte, c.bit))
                .collect();
            assert!(!want.is_empty());
            assert_eq!(got, want, "fill {fill:#04x}");
        }
    }

    #[test]
    fn out_of_window_temperature_flips_nothing() {
        // At a physically absurd temperature only full-range cells
        // remain in window; with none, no dose flips anything.
        let p = MfrProfile::for_manufacturer(Manufacturer::C);
        let cells: Vec<CellVulnerability> =
            derive_row_cells(&p, 42, BankId(0), RowAddr(4), 8192, 512)
                .into_iter()
                .filter(|c| c.window.lo > -250.0)
                .collect();
        let t = CellTable::new(&p, 42, cells);
        let mut out = Vec::new();
        assert!(t.evaluate(0, 500.0, 1e15, &RowView::bytes(&vec![0x55u8; 8192]), &mut out));
        assert!(out.is_empty());
    }
}
