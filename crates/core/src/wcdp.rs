//! Worst-case data pattern identification (§4.2, Table 1): test every
//! pattern on a row sample and keep the one producing the most bit
//! flips.

use crate::config::Scale;
use crate::error::CharError;
use rh_dram::{BankId, DataPattern, PatternKind, RowAddr, RowFill, RowMapping};
use rh_softmc::TestBench;
use serde::{Deserialize, Serialize};

/// BER hammer count used during pattern identification (the standard
/// 150 K of §4.2).
const WCDP_HAMMERS: u64 = 150_000;

/// Flip totals of one candidate pattern over the sample rows.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PatternScore {
    /// The candidate pattern.
    pub kind: PatternKind,
    /// Total victim-row flips over the sample.
    pub flips: u64,
}

/// Preferred sample start/stride from the paper's practice: rows near
/// the bank interior, spaced so radius-2 neighborhoods never overlap.
const PREFERRED_BASE: u32 = 1024;
const PREFERRED_STRIDE: u32 = 6;

/// Derives the victim-row sample for pattern scoring from the bank
/// geometry: every victim keeps its whole write neighborhood
/// (`victim ± radius`, which covers both aggressors) inside the bank.
/// The preferred base/stride is kept whenever it fits so results stay
/// comparable across modules; otherwise the sample is re-fitted to the
/// valid range.
///
/// # Errors
///
/// [`CharError::SampleInfeasible`] when the bank cannot hold
/// `scale.wcdp_rows()` distinct victims with their neighborhoods.
pub fn victim_sample(rows_per_bank: u32, scale: Scale) -> Result<Vec<RowAddr>, CharError> {
    let radius = scale.neighborhood_radius();
    let count = scale.wcdp_rows();
    let infeasible =
        CharError::SampleInfeasible { rows_per_bank, victims: count, radius };
    let lo = radius;
    let hi = rows_per_bank
        .checked_sub(radius + 1)
        .filter(|&h| h >= lo && h - lo >= count.saturating_sub(1))
        .ok_or(infeasible)?;
    let preferred_end =
        u64::from(PREFERRED_BASE) + u64::from(PREFERRED_STRIDE) * u64::from(count - 1);
    let (base, stride) = if PREFERRED_BASE >= lo && preferred_end <= u64::from(hi) {
        (PREFERRED_BASE, PREFERRED_STRIDE)
    } else {
        let stride = if count > 1 {
            ((hi - lo) / (count - 1)).clamp(1, PREFERRED_STRIDE)
        } else {
            PREFERRED_STRIDE
        };
        (lo, stride)
    };
    Ok((0..count).map(|i| RowAddr(base + stride * i)).collect())
}

/// Scores all seven Table-1 patterns on a sample of victim rows.
///
/// # Errors
///
/// Device errors from hammering/reads, or
/// [`CharError::SampleInfeasible`] when the module geometry cannot
/// hold the scale's victim sample.
pub fn score_patterns(
    bench: &mut TestBench,
    mapping: &RowMapping,
    bank: BankId,
    scale: Scale,
) -> Result<Vec<PatternScore>, CharError> {
    let radius = scale.neighborhood_radius() as i64;
    let seed = bench.module_seed();
    let victims = victim_sample(bench.module().geometry().rows_per_bank, scale)?;
    let mut scores = Vec::with_capacity(PatternKind::ALL.len());
    for kind in PatternKind::ALL {
        let pattern = DataPattern::new(kind, seed);
        let mut flips = 0u64;
        for &victim in &victims {
            for d in -radius..=radius {
                let phys = RowAddr((victim.0 as i64 + d) as u32);
                let logical = mapping.physical_to_logical(phys);
                bench.module_mut().write_row_fill(bank, logical, RowFill::new(pattern, phys, d))?;
            }
            let left = mapping.physical_to_logical(RowAddr(victim.0 - 1));
            let right = mapping.physical_to_logical(RowAddr(victim.0 + 1));
            bench.hammer_double_sided(bank, left, right, WCDP_HAMMERS, None, None)?;
            let logical = mapping.physical_to_logical(victim);
            let read = bench.module_mut().read_row_view(bank, logical)?;
            flips += read.count_flips(RowFill::new(pattern, victim, 0));
        }
        scores.push(PatternScore { kind, flips });
    }
    Ok(scores)
}

/// Identifies the module's worst-case data pattern (§4.2).
///
/// # Errors
///
/// Device errors from hammering/reads, or
/// [`CharError::SampleInfeasible`] from the victim sampling.
pub fn find_wcdp(
    bench: &mut TestBench,
    mapping: &RowMapping,
    bank: BankId,
    scale: Scale,
) -> Result<DataPattern, CharError> {
    let scores = score_patterns(bench, mapping, bank, scale)?;
    let best = scores.iter().max_by_key(|s| s.flips).ok_or_else(|| {
        CharError::Infra(rh_softmc::SoftMcError::InvalidProgram {
            reason: "pattern scoring produced no candidates".into(),
        })
    })?;
    Ok(DataPattern::new(best.kind, bench.module_seed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_dram::Manufacturer;

    #[test]
    fn wcdp_matches_cell_orientation_majority() {
        // Mfr. C has 66 % anti-cells (flips 0→1): the worst-case victim
        // fill should store zeros in the victim row — rowstripe (0x00
        // at even distances) should beat its complement. Aggregated
        // over several modules to wash out small-sample noise.
        let mapping = RowMapping::for_manufacturer(Manufacturer::C);
        let (mut zero_heavy, mut one_heavy, mut best_total) = (0u64, 0u64, 0u64);
        for seed in [4u64, 5, 6, 7] {
            let mut bench = TestBench::new(Manufacturer::C, seed);
            bench.set_temperature(75.0).unwrap();
            let scores = score_patterns(&mut bench, &mapping, BankId(0), Scale::Smoke).unwrap();
            zero_heavy +=
                scores.iter().find(|s| s.kind == PatternKind::Rowstripe).unwrap().flips;
            one_heavy +=
                scores.iter().find(|s| s.kind == PatternKind::RowstripeInv).unwrap().flips;
            best_total += scores.iter().map(|s| s.flips).max().unwrap();
        }
        assert!(
            zero_heavy >= one_heavy,
            "rowstripe {zero_heavy} < complement {one_heavy} across modules"
        );
        assert!(best_total > 0, "no pattern flipped anything across four modules");
    }

    #[test]
    fn sample_keeps_preferred_rows_when_they_fit() {
        // DDR4 banks (32 K/64 K rows) comfortably hold the preferred
        // base-1024 stride-6 sample at every scale.
        for scale in [Scale::Smoke, Scale::Default, Scale::Paper] {
            let sample = victim_sample(32_768, scale).unwrap();
            assert_eq!(sample.len(), scale.wcdp_rows() as usize);
            assert_eq!(sample[0], RowAddr(1024));
            assert_eq!(sample[1], RowAddr(1030));
        }
    }

    #[test]
    fn sample_refits_into_small_banks() {
        // 64-row bank: base 1024 is out of range, so the sample must be
        // re-fitted; every victim's radius-2 neighborhood stays inside.
        let sample = victim_sample(64, Scale::Smoke).unwrap();
        assert_eq!(sample.len(), Scale::Smoke.wcdp_rows() as usize);
        let radius = Scale::Smoke.neighborhood_radius();
        let distinct: std::collections::HashSet<_> = sample.iter().collect();
        assert_eq!(distinct.len(), sample.len(), "victims must be distinct");
        for v in &sample {
            assert!(v.0 >= radius, "row {} underflows its neighborhood", v.0);
            assert!(v.0 + radius < 64, "row {} overflows the bank", v.0);
        }
    }

    #[test]
    fn impossible_geometry_is_rejected() {
        // A bank smaller than one neighborhood, and one too small for
        // 64 distinct Paper-scale victims with radius-8 neighborhoods.
        assert!(matches!(
            victim_sample(4, Scale::Smoke),
            Err(CharError::SampleInfeasible { rows_per_bank: 4, victims: 4, radius: 2 })
        ));
        assert!(matches!(
            victim_sample(70, Scale::Paper),
            Err(CharError::SampleInfeasible { .. })
        ));
    }

    #[test]
    fn scores_cover_all_patterns() {
        let mut bench = TestBench::new(Manufacturer::B, 5);
        bench.set_temperature(75.0).unwrap();
        let mapping = RowMapping::for_manufacturer(Manufacturer::B);
        let scores = score_patterns(&mut bench, &mapping, BankId(0), Scale::Smoke).unwrap();
        assert_eq!(scores.len(), 7);
        let kinds: std::collections::HashSet<_> = scores.iter().map(|s| s.kind).collect();
        assert_eq!(kinds.len(), 7);
    }
}
