//! §8.1 Improvement 2: a temperature-dependent attack trigger.
//!
//! Obsv. 3 shows some cells flip only within a narrow temperature
//! range. Placing victim data over such a cell turns RowHammer into a
//! thermometer: hammer, read, and the flip (or its absence) reveals
//! whether the chip is inside the trigger band — e.g. to fire a payload
//! only when a device heats up in the field.

use rh_core::{CharError, Characterizer};
use rh_dram::RowAddr;
use serde::{Deserialize, Serialize};

/// A calibrated temperature trigger.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TemperatureTrigger {
    /// Victim row holding the trigger cell.
    pub row: u32,
    /// Byte offset of the trigger cell.
    pub byte: u32,
    /// Bit of the trigger cell.
    pub bit: u8,
    /// Lowest grid temperature where the cell flips (°C).
    pub t_lo: f64,
    /// Highest grid temperature where the cell flips (°C).
    pub t_hi: f64,
    /// Hammers per aggressor used to arm the trigger.
    pub hammers: u64,
}

/// Results of building and exercising a trigger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TriggerStudy {
    /// The calibrated trigger, if a suitable narrow-range cell exists
    /// in the profiled sample.
    pub trigger: Option<TemperatureTrigger>,
    /// Cells profiled while searching.
    pub cells_profiled: usize,
    /// Share of profiled cells with a range narrower than `max_width`.
    pub narrow_fraction: f64,
}

/// Probes whether the trigger fires (the cell flips) at the current
/// chip temperature.
///
/// # Errors
///
/// Device/infrastructure errors.
pub fn probe(ch: &mut Characterizer, trigger: &TemperatureTrigger) -> Result<bool, CharError> {
    let pattern = ch.wcdp();
    let flips = ch.flipped_cells(RowAddr(trigger.row), pattern, trigger.hammers)?;
    Ok(flips.iter().any(|&(b, i)| b == trigger.byte && i == trigger.bit))
}

/// Searches `candidates` for a cell whose observed vulnerable range is
/// at most `max_width` °C wide and calibrates a trigger on it.
///
/// # Errors
///
/// Device/infrastructure errors.
pub fn build_trigger(
    ch: &mut Characterizer,
    candidates: &[u32],
    max_width: f64,
) -> Result<TriggerStudy, CharError> {
    let grid = ch.scale().temperatures();
    let pattern = ch.wcdp();
    let hammers = rh_core::metrics::BER_HAMMERS;
    // (row, byte, bit) -> temps where it flips. Ordered, so a tie
    // between equally narrow cells goes to the smallest (row, byte, bit).
    let mut observed: std::collections::BTreeMap<(u32, u32, u8), Vec<f64>> =
        std::collections::BTreeMap::new();
    for &t in &grid {
        ch.set_temperature(t)?;
        for &row in candidates {
            for (byte, bit) in ch.flipped_cells(RowAddr(row), pattern, hammers)? {
                observed.entry((row, byte, bit)).or_default().push(t);
            }
        }
    }
    let mut narrow = 0usize;
    let mut best: Option<TemperatureTrigger> = None;
    for (&(row, byte, bit), temps) in &observed {
        let lo = temps.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = temps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if hi - lo <= max_width {
            narrow += 1;
            let width = hi - lo;
            let better = match &best {
                None => true,
                Some(b) => width < b.t_hi - b.t_lo,
            };
            if better {
                best = Some(TemperatureTrigger { row, byte, bit, t_lo: lo, t_hi: hi, hammers });
            }
        }
    }
    Ok(TriggerStudy {
        trigger: best,
        cells_profiled: observed.len(),
        narrow_fraction: narrow as f64 / observed.len().max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_core::Scale;
    use rh_dram::Manufacturer;
    use rh_softmc::TestBench;

    #[test]
    fn trigger_fires_inside_band_only() {
        let bench = TestBench::new(Manufacturer::C, 29);
        let mut ch = Characterizer::new(bench, Scale::Smoke).unwrap();
        let candidates: Vec<u32> = (0..10).map(|i| 1200 + 6 * i).collect();
        // Smoke grid is {50, 70, 90}: accept cells seen at exactly one
        // grid point (width 0) — the narrowest observable band.
        let study = build_trigger(&mut ch, &candidates, 0.0).unwrap();
        assert!(study.cells_profiled > 0);
        let Some(trig) = study.trigger else {
            // No narrow cell in this small sample — acceptable outcome.
            return;
        };
        // Inside the band the trigger should usually fire; far outside
        // it must not (full-range cells were excluded by width 0).
        ch.set_temperature(trig.t_lo).unwrap();
        let inside = probe(&mut ch, &trig).unwrap();
        let far = if trig.t_lo >= 70.0 { 50.0 } else { 90.0 };
        ch.set_temperature(far).unwrap();
        let outside = probe(&mut ch, &trig).unwrap();
        assert!(inside || !outside, "trigger must discriminate temperatures");
    }
}
