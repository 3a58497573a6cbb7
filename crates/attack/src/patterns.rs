//! RowHammer access patterns and a uniform attack executor.

use rh_core::{CharError, Characterizer};
use rh_dram::{Picos, RowAddr, RowFill};
use serde::{Deserialize, Serialize};

/// How the attacker arranges aggressor rows around the victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessPattern {
    /// One aggressor adjacent to the victim.
    SingleSided,
    /// Both physically-adjacent rows (the paper's standard, §4.2).
    DoubleSided,
    /// `pairs` nested aggressor pairs around the victim (TRRespass-
    /// style many-sided hammering).
    ManySided {
        /// Number of aggressor pairs (1 = double-sided).
        pairs: u8,
    },
}

impl AccessPattern {
    /// Physical aggressor rows around `victim`.
    pub fn aggressors(self, victim: RowAddr) -> Vec<RowAddr> {
        match self {
            AccessPattern::SingleSided => vec![RowAddr(victim.0 + 1)],
            AccessPattern::DoubleSided => {
                vec![RowAddr(victim.0 - 1), RowAddr(victim.0 + 1)]
            }
            AccessPattern::ManySided { pairs } => {
                let mut v = Vec::with_capacity(2 * pairs as usize);
                for d in 1..=pairs as u32 {
                    v.push(RowAddr(victim.0 - (2 * d - 1)));
                    v.push(RowAddr(victim.0 + (2 * d - 1)));
                }
                v
            }
        }
    }
}

/// Result of one attack run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackOutcome {
    /// Bit flips in the victim row.
    pub flips: u64,
    /// Hammers spent per aggressor.
    pub hammers: u64,
    /// Wall-clock attack time (ps).
    pub duration: Picos,
}

impl AttackOutcome {
    /// Whether the attack corrupted the victim.
    pub fn succeeded(&self) -> bool {
        self.flips > 0
    }
}

/// Executes `pattern` against `victim` for `hammers` per aggressor at
/// the given timings, on a prepared characterizer (mapping + WCDP
/// known — i.e., an attacker who has already templated the module).
///
/// # Errors
///
/// Device/infrastructure errors.
pub fn execute(
    ch: &mut Characterizer,
    pattern: AccessPattern,
    victim: RowAddr,
    hammers: u64,
    t_on: Option<Picos>,
    t_off: Option<Picos>,
) -> Result<AttackOutcome, CharError> {
    let data = ch.wcdp();
    ch.write_neighborhood(victim, data)?;
    let timing = ch.bench().module().config().timing;
    let (t_on, t_off) = (t_on.unwrap_or(timing.t_ras), t_off.unwrap_or(timing.t_rp));
    let bank = ch.bank();
    let aggressors = pattern.aggressors(victim);
    for phys in &aggressors {
        let logical = ch.logical_of(*phys);
        ch.bench_mut()
            .hammer_single_sided(bank, logical, hammers, Some(t_on), Some(t_off))?;
    }
    let logical = ch.logical_of(victim);
    let read = ch.bench_mut().module_mut().read_row_view(bank, logical)?;
    let flips = read.count_flips(RowFill::new(data, victim, 0));
    let duration = hammers * aggressors.len() as u64 * (t_on + t_off);
    Ok(AttackOutcome { flips, hammers, duration })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_core::Scale;
    use rh_dram::Manufacturer;
    use rh_softmc::TestBench;

    fn ch() -> Characterizer {
        let mut c =
            Characterizer::new(TestBench::new(Manufacturer::B, 8), Scale::Smoke).unwrap();
        c.set_temperature(75.0).unwrap();
        c
    }

    #[test]
    fn aggressor_layout() {
        let v = RowAddr(100);
        assert_eq!(AccessPattern::SingleSided.aggressors(v), vec![RowAddr(101)]);
        assert_eq!(
            AccessPattern::DoubleSided.aggressors(v),
            vec![RowAddr(99), RowAddr(101)]
        );
        let many = AccessPattern::ManySided { pairs: 2 }.aggressors(v);
        assert_eq!(many, vec![RowAddr(99), RowAddr(101), RowAddr(97), RowAddr(103)]);
    }

    #[test]
    fn double_sided_beats_single_sided() {
        let mut ch = ch();
        let v = RowAddr(2000);
        let ss = execute(&mut ch, AccessPattern::SingleSided, v, 250_000, None, None).unwrap();
        let ds = execute(&mut ch, AccessPattern::DoubleSided, v, 250_000, None, None).unwrap();
        assert!(ds.flips >= ss.flips, "double-sided {} < single-sided {}", ds.flips, ss.flips);
        assert!(ds.succeeded());
    }

    #[test]
    fn outcome_duration_scales_with_aggressors() {
        let mut ch = ch();
        let v = RowAddr(3000);
        let a = execute(&mut ch, AccessPattern::SingleSided, v, 1000, None, None).unwrap();
        let b = execute(&mut ch, AccessPattern::DoubleSided, v, 1000, None, None).unwrap();
        assert_eq!(b.duration, 2 * a.duration);
    }
}
