//! Columnar (struct-of-arrays) evaluation kernel for the RowHammer
//! fault model.
//!
//! The scalar path in [`crate::model`] walks every derived cell of a
//! row on every activation, recomputing its temperature-dependent
//! threshold and drawing a per-trial noise sample — hundreds of
//! transcendental evaluations per row read. This module restructures
//! that work so an activation costs a handful of comparisons in the
//! common case:
//!
//! 1. **Temperature surface** ([`TempSurface`]): for one temperature,
//!    the row's in-window cells in struct-of-arrays form (byte/bit
//!    coordinates, word and mask, orientation), sorted by effective
//!    threshold, plus per-lane aggregate orientation masks aligned to
//!    the row's 64-bit data lanes.
//! 2. **Memoization** (in [`crate::model`]): a surface is built once
//!    per `(module, row, temperature)` and shared process-wide, so
//!    repeated sensings and sweep points hit a cache.
//! 3. **Noise bracketing**: the per-trial noise sample is bounded by
//!    [`crate::cell::trial_noise_bounds`]; cells whose threshold falls
//!    outside the `dose / noise` bracket are decided by one comparison
//!    and only the narrow band in between draws an exact sample — the
//!    same sample the scalar path draws, keeping the two paths
//!    bit-identical (asserted by the `equivalence` test suite).
//!
//! An activation whose dose is below every bracketed threshold returns
//! after two comparisons; one whose dose clears every threshold is
//! evaluated lane-wise: `flips = (anti & !data) | (true_cells & data)`
//! per 64-bit word.

use crate::cell::{trial_noise_at, trial_noise_bounds, CellVulnerability};
use crate::profile::MfrProfile;
use rh_dram::{BitFlip, RowView};

/// The response surface of one row at one temperature: every in-window
/// cell with its effective threshold, sorted ascending so a dose maps
/// to a contiguous prefix of passing cells.
#[derive(Debug)]
pub struct TempSurface {
    /// Effective thresholds (hammer units), ascending.
    h: Vec<f64>,
    /// Byte offset within the row, parallel to `h`.
    byte: Vec<u32>,
    /// Bit within the byte, parallel to `h`.
    bit: Vec<u8>,
    /// 64-bit data lane (word index) holding the cell, parallel to `h`.
    word: Vec<u32>,
    /// Single-bit mask of the cell within its lane, parallel to `h`.
    mask: Vec<u64>,
    /// Anti-cell flags, parallel to `h`.
    anti: Vec<bool>,
    /// Per-lane aggregate masks `(word, anti_mask, true_mask)` over all
    /// in-window cells, for the everything-passes bulk path.
    lane_masks: Vec<(u32, u64, u64)>,
    /// `h[0] * noise_lo`: below this dose nothing can flip.
    min_gate: f64,
    /// `h[last] * noise_hi`: at or above this dose everything passes.
    max_gate: f64,
    /// Noise bracket of the profile, cached.
    noise_lo: f64,
    noise_hi: f64,
}

impl TempSurface {
    /// Derives the surface of `cells` at `temperature`. Effective
    /// thresholds come from [`CellVulnerability::threshold_at`] — the
    /// same computation the scalar path performs per activation — so
    /// the two paths agree bit-for-bit.
    pub fn build(profile: &MfrProfile, cells: &[CellVulnerability], temperature: f64) -> Self {
        let mut order: Vec<(f64, &CellVulnerability)> = cells
            .iter()
            .filter_map(|c| c.threshold_at(temperature).map(|h| (h, c)))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));

        let n = order.len();
        let mut h = Vec::with_capacity(n);
        let mut byte = Vec::with_capacity(n);
        let mut bit = Vec::with_capacity(n);
        let mut word = Vec::with_capacity(n);
        let mut mask = Vec::with_capacity(n);
        let mut anti = Vec::with_capacity(n);
        let mut lanes: Vec<(u32, u64, u64)> = Vec::with_capacity(n);
        for (eff, c) in order {
            let w = c.byte / 8;
            let m = 1u64 << ((c.byte % 8) * 8 + c.bit as u32);
            h.push(eff);
            byte.push(c.byte);
            bit.push(c.bit);
            word.push(w);
            mask.push(m);
            anti.push(c.anti_cell);
            lanes.push(if c.anti_cell { (w, m, 0) } else { (w, 0, m) });
        }
        // Fold the per-cell masks into one entry per word: sort by word,
        // then OR each run of equal words together.
        lanes.sort_unstable_by_key(|&(w, _, _)| w);
        lanes.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 |= next.1;
                kept.2 |= next.2;
            }
            same
        });
        // Surfaces stay memoized: hold one entry per word, not per cell.
        lanes.shrink_to_fit();
        let (noise_lo, noise_hi) = trial_noise_bounds(profile);
        let min_gate = h.first().map_or(f64::INFINITY, |&h0| h0 * noise_lo);
        let max_gate = h.last().map_or(0.0, |&hn| hn * noise_hi);
        Self {
            h,
            byte,
            bit,
            word,
            mask,
            anti,
            lane_masks: lanes,
            min_gate,
            max_gate,
            noise_lo,
            noise_hi,
        }
    }

    /// Number of in-window cells.
    pub fn len(&self) -> usize {
        self.h.len()
    }

    /// Whether no cell is vulnerable at this temperature.
    pub fn is_empty(&self) -> bool {
        self.h.is_empty()
    }

    /// Whether `dose` is below every bracketed threshold (the O(1)
    /// early-out that decides most activations).
    pub fn below_all(&self, dose: f64) -> bool {
        dose < self.min_gate
    }

    /// Evaluates one activation: appends the flips `dose` causes in a
    /// row holding `data` to `out`. `module_seed` and `nonce` feed the
    /// per-trial noise draw for cells inside the noise band.
    pub fn evaluate(
        &self,
        profile: &MfrProfile,
        module_seed: u64,
        nonce: u64,
        dose: f64,
        data: &RowView<'_>,
        out: &mut Vec<BitFlip>,
    ) {
        if self.below_all(dose) {
            return;
        }
        if dose >= self.max_gate {
            // Everything passes the threshold: decide purely lane-wise.
            for &(w, anti_mask, true_mask) in &self.lane_masks {
                let lane = data.word(w);
                let mut flips = (anti_mask & !lane) | (true_mask & lane);
                while flips != 0 {
                    let pos = flips.trailing_zeros();
                    flips &= flips - 1;
                    out.push(BitFlip { byte: w * 8 + pos / 8, bit: (pos % 8) as u8 });
                }
            }
            return;
        }
        // `h` ascending makes `h * bound <= dose` a prefix predicate.
        let pass = self.h.partition_point(|&h| h * self.noise_hi <= dose);
        let band = self.h.partition_point(|&h| h * self.noise_lo <= dose);
        for i in 0..pass {
            let stored_one = data.word(self.word[i]) & self.mask[i] != 0;
            if stored_one != self.anti[i] {
                out.push(BitFlip { byte: self.byte[i], bit: self.bit[i] });
            }
        }
        for i in pass..band {
            let stored_one = data.word(self.word[i]) & self.mask[i] != 0;
            if stored_one == self.anti[i] {
                continue;
            }
            let noise = trial_noise_at(profile, module_seed, self.byte[i], self.bit[i], nonce);
            if dose >= self.h[i] * noise {
                out.push(BitFlip { byte: self.byte[i], bit: self.bit[i] });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::derive_row_cells;
    use rh_dram::{BankId, Manufacturer, RowAddr};

    fn surface(mfr: Manufacturer, row: u32, t: f64) -> (MfrProfile, TempSurface) {
        let p = MfrProfile::for_manufacturer(mfr);
        let cells = derive_row_cells(&p, 42, BankId(0), RowAddr(row), 8192, 512);
        let s = TempSurface::build(&p, &cells, t);
        (p, s)
    }

    #[test]
    fn surface_thresholds_are_sorted_and_positive() {
        let (_, s) = surface(Manufacturer::A, 10, 75.0);
        assert!(!s.is_empty());
        for pair in s.h.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
        assert!(s.h[0] > 0.0);
    }

    #[test]
    fn masks_match_byte_bit_coordinates() {
        let (_, s) = surface(Manufacturer::C, 3, 60.0);
        for i in 0..s.len() {
            assert_eq!(s.word[i], s.byte[i] / 8);
            let pos = (s.byte[i] % 8) * 8 + s.bit[i] as u32;
            assert_eq!(s.mask[i], 1u64 << pos);
        }
    }

    #[test]
    fn lane_masks_cover_every_cell_exactly() {
        let (_, s) = surface(Manufacturer::B, 7, 75.0);
        assert!(!s.is_empty());
        // Reference fold of the surface's cells: word -> (anti, true).
        let mut reference = std::collections::HashMap::<u32, (u64, u64)>::new();
        for i in 0..s.len() {
            let lane = reference.entry(s.word[i]).or_default();
            if s.anti[i] {
                lane.0 |= s.mask[i];
            } else {
                lane.1 |= s.mask[i];
            }
        }
        // One entry per word, in ascending order: a duplicated (unmerged)
        // or out-of-order word fails here.
        for pair in s.lane_masks.windows(2) {
            assert!(pair[0].0 < pair[1].0, "lane words not strictly ascending: {pair:?}");
        }
        let lanes: std::collections::HashMap<u32, (u64, u64)> =
            s.lane_masks.iter().map(|&(w, a, t)| (w, (a, t))).collect();
        // Every in-window cell's bit is set in the mask of its orientation.
        for i in 0..s.len() {
            let &(a, t) = lanes.get(&s.word[i]).expect("cell's word has no lane");
            let m = if s.anti[i] { a } else { t };
            assert_ne!(m & s.mask[i], 0, "cell {i} missing from its lane");
        }
        // No bit is set without a cell of that orientation.
        for &(w, a, t) in &s.lane_masks {
            let (ra, rt) = reference.get(&w).copied().unwrap_or_default();
            assert_eq!(a & !ra, 0, "anti bits without a cell in word {w}");
            assert_eq!(t & !rt, 0, "true bits without a cell in word {w}");
        }
    }

    #[test]
    fn zero_dose_early_outs() {
        let (p, s) = surface(Manufacturer::A, 5, 75.0);
        assert!(s.below_all(0.0));
        let data = vec![0u8; 8192];
        let mut out = Vec::new();
        s.evaluate(&p, 42, 0, 0.0, &RowView::bytes(&data), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn saturating_dose_takes_lane_path_and_flips_all_susceptible() {
        let (p, s) = surface(Manufacturer::A, 5, 75.0);
        let dose = s.max_gate * 2.0;
        let zeros = vec![0u8; 8192];
        let ones = vec![0xFFu8; 8192];
        let mut flips0 = Vec::new();
        let mut flips1 = Vec::new();
        s.evaluate(&p, 42, 0, dose, &RowView::bytes(&zeros), &mut flips0);
        s.evaluate(&p, 42, 0, dose, &RowView::bytes(&ones), &mut flips1);
        // All-zero data flips every anti-cell position; all-ones every
        // true-cell position (dedup via lane masks).
        let anti_positions: std::collections::BTreeSet<_> = (0..s.len())
            .filter(|&i| s.anti[i])
            .map(|i| (s.byte[i], s.bit[i]))
            .collect();
        let got0: std::collections::BTreeSet<_> =
            flips0.iter().map(|f| (f.byte, f.bit)).collect();
        assert_eq!(got0, anti_positions);
        let true_positions: std::collections::BTreeSet<_> = (0..s.len())
            .filter(|&i| !s.anti[i])
            .map(|i| (s.byte[i], s.bit[i]))
            .collect();
        let got1: std::collections::BTreeSet<_> =
            flips1.iter().map(|f| (f.byte, f.bit)).collect();
        // A position hosting both an anti- and a true-cell flips in
        // both fills; subtract the overlap before comparing.
        assert_eq!(got1, true_positions);
    }

    #[test]
    fn out_of_window_temperature_yields_empty_surface() {
        // At a physically absurd temperature only full-range cells
        // remain; with none, the surface must be inert.
        let p = MfrProfile::for_manufacturer(Manufacturer::C);
        let cells: Vec<CellVulnerability> =
            derive_row_cells(&p, 42, BankId(0), RowAddr(4), 8192, 512)
                .into_iter()
                .filter(|c| c.window.lo > -250.0)
                .collect();
        let s = TempSurface::build(&p, &cells, 500.0);
        assert!(s.is_empty());
        assert!(s.below_all(f64::INFINITY) || s.max_gate == 0.0);
    }
}
