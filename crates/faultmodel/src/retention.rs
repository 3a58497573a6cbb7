//! Data-retention error modeling.
//!
//! The paper's methodology (§4.2) keeps every RowHammer test short
//! enough that retention errors cannot contaminate the results. This
//! module provides the mechanism being avoided: every row has a few
//! retention-weak cells whose charge leaks away if the row is neither
//! refreshed nor rewritten, with the classic exponential temperature
//! acceleration (retention time roughly halves every 10 °C).
//!
//! Within a 64 ms refresh window at 90 °C the model produces no
//! retention flips (matching the paper's controlled methodology); let a
//! row sit for seconds and they appear.

use crate::profile::MfrProfile;
use crate::rng;
use rh_dram::{BankId, Picos, RowAddr};
use serde::{Deserialize, Serialize};

/// Domain-separation tags.
mod tag {
    pub const PLACE: u64 = 0x30;
    pub const TIME: u64 = 0x31;
    pub const ORIENT: u64 = 0x32;
}

/// Reference temperature of the base retention times (°C).
pub const T_REF_C: f64 = 45.0;

/// Temperature doubling interval: retention halves every this many °C.
pub const HALVING_C: f64 = 10.0;

/// Median base retention time of a row's *weakest* cell at 45 °C, in
/// picoseconds (≈30 s; JEDEC margins put the weakest cells of real chips
/// in the seconds range at 45 °C).
pub const MEDIAN_WEAKEST_PS: f64 = 30.0e12;

/// Retention-weak cells modeled per row.
pub const CELLS_PER_ROW: usize = 3;

/// One retention-weak cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetentionCell {
    /// Byte offset within the row.
    pub byte: u32,
    /// Bit within the byte.
    pub bit: u8,
    /// Retention time at the 45 °C reference (ps).
    pub retention_ref: f64,
    /// `true` if the cell leaks a stored 0 into a 1 (anti-cell).
    pub anti_cell: bool,
}

impl RetentionCell {
    /// Retention time at chip temperature `t` (°C): halves every
    /// [`HALVING_C`] above the reference.
    pub fn retention_at(&self, t: f64) -> f64 {
        self.retention_ref * temperature_factor(t)
    }

    /// Whether the cell has leaked after sitting unrefreshed for
    /// `elapsed` at temperature `t`.
    pub fn leaked(&self, elapsed: Picos, t: f64) -> bool {
        (elapsed as f64) > self.retention_at(t)
    }
}

/// The factor [`RetentionCell::retention_at`] scales a reference
/// retention time by at chip temperature `t` (°C).
pub fn temperature_factor(t: f64) -> f64 {
    2f64.powf((T_REF_C - t) / HALVING_C)
}

/// The shortest reference retention time among `cells`; infinite if
/// there are none. Times `temperature_factor(t)` it is bit for bit the
/// shortest `retention_at(t)`: rounding a product by a positive
/// factor preserves order, so the weakest cell stays the weakest.
pub fn weakest_ref(cells: &[RetentionCell]) -> f64 {
    cells.iter().map(|c| c.retention_ref).fold(f64::INFINITY, f64::min)
}

/// Derives the retention-weak cells of one physical row (pure function
/// of the module seed and coordinates, like the RowHammer profiles).
pub fn derive_retention_cells(
    profile: &MfrProfile,
    module_seed: u64,
    bank: BankId,
    row: RowAddr,
    row_bytes: usize,
) -> Vec<RetentionCell> {
    let bits = (row_bytes * 8) as u64;
    (0..CELLS_PER_ROW)
        .map(|i| {
            let key = [bank.0 as u64, row.0 as u64, i as u64];
            let pos = rng::hash(module_seed, &[tag::PLACE, key[0], key[1], key[2]]) % bits;
            let retention_ref = rng::lognormal(
                module_seed,
                &[tag::TIME, key[0], key[1], key[2]],
                MEDIAN_WEAKEST_PS.ln(),
                0.5,
            );
            let anti_cell = rng::uniform(module_seed, &[tag::ORIENT, key[0], key[1], key[2]])
                < profile.anti_cell_fraction;
            RetentionCell {
                byte: (pos / 8) as u32,
                bit: (pos % 8) as u8,
                retention_ref,
                anti_cell,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_dram::Manufacturer;

    fn cells(row: u32) -> Vec<RetentionCell> {
        let p = MfrProfile::for_manufacturer(Manufacturer::A);
        derive_retention_cells(&p, 42, BankId(0), RowAddr(row), 8192)
    }

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(cells(7), cells(7));
        assert_ne!(cells(7), cells(8));
    }

    #[test]
    fn retention_halves_every_10c() {
        let c = cells(1)[0];
        let r45 = c.retention_at(45.0);
        let r55 = c.retention_at(55.0);
        assert!((r45 / r55 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn no_leak_within_refresh_window_at_90c() {
        // The methodology's guarantee: a 64 ms test at 90 °C stays
        // clear of retention errors on (statistically) every row.
        let p = MfrProfile::for_manufacturer(Manufacturer::A);
        let mut leaks = 0;
        for row in 0..2000u32 {
            for c in derive_retention_cells(&p, 1, BankId(0), RowAddr(row), 8192) {
                if c.leaked(64_000_000_000, 90.0) {
                    leaks += 1;
                }
            }
        }
        assert_eq!(leaks, 0, "{leaks} retention leaks within one refresh window");
    }

    #[test]
    fn seconds_of_idle_leak_at_high_temperature() {
        let p = MfrProfile::for_manufacturer(Manufacturer::A);
        let mut leaks = 0;
        for row in 0..200u32 {
            for c in derive_retention_cells(&p, 1, BankId(0), RowAddr(row), 8192) {
                if c.leaked(10_000_000_000_000, 90.0) {
                    // 10 s unrefreshed at 90 °C.
                    leaks += 1;
                }
            }
        }
        assert!(leaks > 0, "10 s at 90 °C should leak somewhere");
    }

    #[test]
    fn hotter_leaks_earlier() {
        let c = cells(3)[0];
        let elapsed = (c.retention_at(70.0) * 1.5) as Picos;
        assert!(c.leaked(elapsed, 70.0));
        assert!(!c.leaked(elapsed, 45.0));
    }
}
