//! Reverse engineering of the in-DRAM logical→physical row mapping
//! (§4.2): single-sided hammer each sampled row, find the two
//! neighboring rows with the most bit flips (they are physically
//! adjacent to the aggressor), then deduce the scrambling scheme that
//! explains every observed adjacency.

use crate::config::Scale;
use crate::error::CharError;
use rh_dram::{BankId, DataPattern, PatternKind, RowAddr, RowFill, RowMapping};
use rh_softmc::TestBench;
use serde::{Deserialize, Serialize};

/// Hammers used per aggressor during reverse engineering — high enough
/// to flip bits in the physically-adjacent rows of every module.
const RE_HAMMERS: u64 = 512 * 1024;

/// Logical window (± rows) searched for an aggressor's victims. The
/// scrambling schemes of real chips permute addresses within small
/// blocks, so physical neighbors stay close in logical space.
const WINDOW: i64 = 8;

/// One adjacency observation: an aggressor row and the (up to two)
/// rows that flipped the most when it was hammered single-sided.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Adjacency {
    /// The hammered (logical) row.
    pub aggressor: RowAddr,
    /// Logical rows observed to be physically adjacent, most-flips
    /// first.
    pub victims: Vec<RowAddr>,
}

/// Collects adjacency observations for `count` sampled aggressor rows.
///
/// Rows are sampled with an odd stride so every low-address-bit residue
/// is covered — necessary to distinguish scrambling schemes that only
/// act on particular address bits.
///
/// # Errors
///
/// Device errors from the underlying hammering and reads.
pub fn observe_adjacencies(
    bench: &mut TestBench,
    bank: BankId,
    count: u32,
) -> Result<Vec<Adjacency>, CharError> {
    // Rowstripe maximizes observable flips regardless of cell
    // orientation: every cell's susceptible value is present in one of
    // the two fills, and we count any mismatch.
    let pattern = DataPattern::new(PatternKind::Checkered, 0);
    let mut out = Vec::with_capacity(count as usize);
    for i in 0..count {
        let aggressor = RowAddr(512 + 9 * i);
        // Fill the logical window around the aggressor. Distance here is
        // logical — it only determines the fill byte, and we compare
        // each row against its own written fill below.
        for d in -WINDOW..=WINDOW {
            let row = aggressor.offset(d);
            bench.module_mut().write_row_fill(bank, row, RowFill::new(pattern, row, d))?;
        }
        bench.hammer_single_sided(bank, aggressor, RE_HAMMERS, None, None)?;
        // Count flips in each window row.
        let mut flips: Vec<(u64, RowAddr)> = Vec::new();
        for d in -WINDOW..=WINDOW {
            if d == 0 {
                continue;
            }
            let row = aggressor.offset(d);
            let read = bench.module_mut().read_row_view(bank, row)?;
            let n = read.count_flips(RowFill::new(pattern, row, d));
            if n > 0 {
                flips.push((n, row));
            }
        }
        flips.sort_by(|a, b| b.0.cmp(&a.0).then(a.1 .0.cmp(&b.1 .0)));
        // The two victims with the most flips are physically adjacent
        // (§4.2); require them to dominate clearly (≥4× the runner-up)
        // so weak distance-2 coupling is not mistaken for adjacency.
        let mut victims: Vec<RowAddr> = Vec::new();
        for (n, row) in flips.iter().take(2) {
            let runner_up = flips.get(2).map(|f| f.0).unwrap_or(0);
            if *n >= 4 * runner_up.max(1) || runner_up == 0 {
                victims.push(*row);
            }
        }
        if !victims.is_empty() {
            out.push(Adjacency { aggressor, victims });
        }
    }
    Ok(out)
}

/// All candidate mapping schemes the inference considers: identity plus
/// every conditional-XOR scheme over low address bits.
fn candidate_schemes() -> Vec<RowMapping> {
    let mut v = vec![RowMapping::Direct];
    for cond_bit in 2..=5u32 {
        for mask in 1..=7u32 {
            if mask & (1 << cond_bit) == 0 {
                v.push(RowMapping::ConditionalXor { cond_bit, mask });
            }
        }
    }
    v
}

/// Deduces the mapping scheme consistent with every observation.
///
/// A scheme is consistent with an observation when every reported
/// victim is at physical distance 1 from the aggressor under the
/// scheme. When several schemes survive (an under-sampled bank), the
/// one surviving the *most specific* check — and first in candidate
/// order — is returned, preferring `Direct`.
///
/// # Errors
///
/// [`CharError::MappingUnresolved`] when no candidate explains the
/// data.
pub fn infer_scheme(observations: &[Adjacency]) -> Result<RowMapping, CharError> {
    let consistent = |m: &RowMapping| -> bool {
        observations.iter().all(|o| {
            let ap = m.logical_to_physical(o.aggressor);
            o.victims.iter().all(|v| {
                let vp = m.logical_to_physical(*v);
                (vp.0 as i64 - ap.0 as i64).abs() == 1
            })
        })
    };
    candidate_schemes()
        .into_iter()
        .find(consistent)
        .ok_or(CharError::MappingUnresolved { observations: observations.len() })
}

/// Full reverse-engineering pass: observe adjacencies on a sample of
/// rows and deduce the scheme.
///
/// # Errors
///
/// Device errors, or [`CharError::MappingUnresolved`].
pub fn reverse_engineer(
    bench: &mut TestBench,
    bank: BankId,
    scale: Scale,
) -> Result<RowMapping, CharError> {
    let obs = observe_adjacencies(bench, bank, scale.mapping_rows())?;
    if obs.is_empty() {
        return Err(CharError::MappingUnresolved { observations: 0 });
    }
    infer_scheme(&obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_dram::Manufacturer;

    #[test]
    fn recovers_ground_truth_for_every_manufacturer() {
        for mfr in Manufacturer::ALL {
            let mut bench = TestBench::new(mfr, 11);
            bench.set_temperature(75.0).unwrap();
            let m = reverse_engineer(&mut bench, BankId(0), Scale::Smoke).unwrap();
            assert_eq!(m, RowMapping::for_manufacturer(mfr), "{mfr}");
        }
    }

    #[test]
    fn inference_rejects_contradictory_data() {
        // An aggressor claiming a victim 5 rows away fits no scheme.
        let obs = vec![Adjacency {
            aggressor: RowAddr(100),
            victims: vec![RowAddr(105), RowAddr(99)],
        }];
        assert!(matches!(infer_scheme(&obs), Err(CharError::MappingUnresolved { .. })));
    }

    #[test]
    fn inference_on_synthetic_scrambled_data() {
        // Generate synthetic observations from a known scheme and
        // verify inference recovers it.
        let truth = RowMapping::ConditionalXor { cond_bit: 3, mask: 0b101 };
        let mut obs = Vec::new();
        for r in (64u32..256).step_by(9) {
            let a = RowAddr(r);
            let ap = truth.logical_to_physical(a);
            let victims: Vec<RowAddr> = [ap.0 - 1, ap.0 + 1]
                .into_iter()
                .map(|p| truth.physical_to_logical(RowAddr(p)))
                .collect();
            obs.push(Adjacency { aggressor: a, victims });
        }
        assert_eq!(infer_scheme(&obs).unwrap(), truth);
    }

    #[test]
    fn candidates_include_all_ground_truths() {
        let cands = candidate_schemes();
        for mfr in Manufacturer::ALL {
            assert!(cands.contains(&RowMapping::for_manufacturer(mfr)), "{mfr}");
        }
    }
}
