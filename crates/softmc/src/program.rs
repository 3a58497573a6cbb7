//! SoftMC-style instruction programs: explicit DRAM command sequences
//! with precise inter-command delays, like the test loops of Fig. 6.

use crate::error::SoftMcError;
use rh_dram::{BankId, Picos, RowAddr, TimingParams};
use serde::{Deserialize, Serialize};

/// One SoftMC instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Instr {
    /// Activate a row.
    Act {
        /// Target bank.
        bank: BankId,
        /// Logical row.
        row: RowAddr,
    },
    /// Precharge a bank.
    Pre {
        /// Target bank.
        bank: BankId,
    },
    /// Read a column of the open row.
    Rd {
        /// Target bank.
        bank: BankId,
        /// Column address.
        column: u32,
    },
    /// Write a column of the open row.
    Wr {
        /// Target bank.
        bank: BankId,
        /// Column address.
        column: u32,
        /// Beat to store.
        data: [u8; 8],
    },
    /// Advance time without issuing a command.
    Wait {
        /// Delay in picoseconds.
        ps: Picos,
    },
    /// Repeat a body `count` times (SoftMC's hardware loop).
    Loop {
        /// Iteration count.
        count: u64,
        /// Loop body.
        body: Vec<Instr>,
    },
}

/// A SoftMC program: a validated instruction sequence.
///
/// ```
/// use rh_dram::{BankId, RowAddr, TimingParams};
/// use rh_softmc::Program;
///
/// let t = TimingParams::ddr4_2400();
/// let p = Program::double_sided_hammer(
///     BankId(0), RowAddr(9), RowAddr(11), 1000, t.t_ras, t.t_rp,
/// );
/// assert!(p.command_count() >= 4000); // 2 rows × 1000 × (ACT+PRE)
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    instrs: Vec<Instr>,
}

impl Program {
    /// Wraps raw instructions after validation.
    ///
    /// # Errors
    ///
    /// [`SoftMcError::InvalidProgram`] for empty programs, empty or
    /// zero-count loops, or loop nesting deeper than 4 (the hardware
    /// loop stack of the infrastructure).
    pub fn new(instrs: Vec<Instr>) -> Result<Self, SoftMcError> {
        if instrs.is_empty() {
            return Err(SoftMcError::InvalidProgram { reason: "empty program".into() });
        }
        fn check(instrs: &[Instr], depth: u32) -> Result<(), SoftMcError> {
            if depth > 4 {
                return Err(SoftMcError::InvalidProgram {
                    reason: "loop nesting deeper than 4".into(),
                });
            }
            for i in instrs {
                if let Instr::Loop { count, body } = i {
                    if *count == 0 {
                        return Err(SoftMcError::InvalidProgram {
                            reason: "zero-count loop".into(),
                        });
                    }
                    if body.is_empty() {
                        return Err(SoftMcError::InvalidProgram { reason: "empty loop".into() });
                    }
                    check(body, depth + 1)?;
                }
            }
            Ok(())
        }
        check(&instrs, 0)?;
        Ok(Self { instrs })
    }

    /// The instruction list.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Total DRAM commands issued when executed (loops expanded; `Wait`
    /// does not count).
    pub fn command_count(&self) -> u64 {
        fn count(instrs: &[Instr]) -> u64 {
            instrs
                .iter()
                .map(|i| match i {
                    Instr::Wait { .. } => 0,
                    Instr::Loop { count: c, body } => c * count(body),
                    _ => 1,
                })
                .sum()
        }
        count(&self.instrs)
    }

    /// The paper's standard double-sided hammer loop (§4.2): alternate
    /// activations of the two aggressor rows, each held open for `t_on`
    /// and followed by `t_off` of precharge. One loop iteration is one
    /// *hammer* (a pair of activations).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero (a zero-hammer test is meaningless).
    pub fn double_sided_hammer(
        bank: BankId,
        left: RowAddr,
        right: RowAddr,
        count: u64,
        t_on: Picos,
        t_off: Picos,
    ) -> Self {
        assert!(count > 0, "hammer count must be positive");
        let body = vec![
            Instr::Act { bank, row: left },
            Instr::Wait { ps: t_on },
            Instr::Pre { bank },
            Instr::Wait { ps: t_off },
            Instr::Act { bank, row: right },
            Instr::Wait { ps: t_on },
            Instr::Pre { bank },
            Instr::Wait { ps: t_off },
        ];
        Self::new(vec![Instr::Loop { count, body }])
            .unwrap_or_else(|e| unreachable!("builder produced invalid hammer loop: {e}"))
    }

    /// The Aggressor-On attack sequence of §8.1 Improvement 3: each
    /// activation is followed by `reads` column READs (at tCCD spacing),
    /// which keeps the aggressor row open ≈5× longer while looking like
    /// an innocent access sequence to activation-counting defenses.
    pub fn hammer_with_reads(
        bank: BankId,
        left: RowAddr,
        right: RowAddr,
        count: u64,
        reads: u32,
        timing: &TimingParams,
    ) -> Self {
        assert!(count > 0, "hammer count must be positive");
        let mut body = Vec::new();
        for row in [left, right] {
            body.push(Instr::Act { bank, row });
            body.push(Instr::Wait { ps: timing.t_rcd });
            for c in 0..reads {
                body.push(Instr::Rd { bank, column: c % 8 });
                body.push(Instr::Wait { ps: timing.t_ccd });
            }
            // Ensure the row was open at least tRAS in total.
            let open = timing.t_rcd + u64::from(reads) * timing.t_ccd;
            if open < timing.t_ras {
                body.push(Instr::Wait { ps: timing.t_ras - open });
            }
            body.push(Instr::Pre { bank });
            body.push(Instr::Wait { ps: timing.t_rp });
        }
        Self::new(vec![Instr::Loop { count, body }])
            .unwrap_or_else(|e| unreachable!("builder produced invalid hammer loop: {e}"))
    }

    /// Effective per-activation on-time of [`Program::hammer_with_reads`].
    pub fn read_extended_t_on(reads: u32, timing: &TimingParams) -> Picos {
        (timing.t_rcd + u64::from(reads) * timing.t_ccd).max(timing.t_ras)
    }

    /// Writes `data` into a full row: ACT, sequential WRs, PRE.
    pub fn write_row(bank: BankId, row: RowAddr, data: &[u8], timing: &TimingParams) -> Self {
        assert_eq!(data.len() % 8, 0, "row data must be whole beats");
        let mut instrs = vec![Instr::Act { bank, row }, Instr::Wait { ps: timing.t_rcd }];
        for (c, beat) in data.chunks_exact(8).enumerate() {
            let mut d = [0u8; 8];
            d.copy_from_slice(beat);
            instrs.push(Instr::Wr { bank, column: c as u32, data: d });
            instrs.push(Instr::Wait { ps: timing.t_ccd });
        }
        instrs.push(Instr::Wait { ps: timing.t_ras });
        instrs.push(Instr::Pre { bank });
        instrs.push(Instr::Wait { ps: timing.t_rp });
        Self::new(instrs)
            .unwrap_or_else(|e| unreachable!("builder produced invalid write program: {e}"))
    }

    /// Reads a full row of `columns` columns: ACT, sequential RDs, PRE.
    pub fn read_row(bank: BankId, row: RowAddr, columns: u32, timing: &TimingParams) -> Self {
        let mut instrs = vec![Instr::Act { bank, row }, Instr::Wait { ps: timing.t_rcd }];
        for c in 0..columns {
            instrs.push(Instr::Rd { bank, column: c });
            instrs.push(Instr::Wait { ps: timing.t_ccd });
        }
        instrs.push(Instr::Wait { ps: timing.t_ras });
        instrs.push(Instr::Pre { bank });
        instrs.push(Instr::Wait { ps: timing.t_rp });
        Self::new(instrs)
            .unwrap_or_else(|e| unreachable!("builder produced invalid read program: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_program() {
        assert!(matches!(Program::new(vec![]), Err(SoftMcError::InvalidProgram { .. })));
    }

    #[test]
    fn rejects_bad_loops() {
        let zero = Instr::Loop { count: 0, body: vec![Instr::Wait { ps: 1 }] };
        assert!(Program::new(vec![zero]).is_err());
        let empty = Instr::Loop { count: 1, body: vec![] };
        assert!(Program::new(vec![empty]).is_err());
    }

    #[test]
    fn rejects_deep_nesting() {
        let mut i = Instr::Wait { ps: 1 };
        for _ in 0..6 {
            i = Instr::Loop { count: 1, body: vec![i] };
        }
        assert!(Program::new(vec![i]).is_err());
    }

    #[test]
    fn double_sided_command_count() {
        let p = Program::double_sided_hammer(
            BankId(0),
            RowAddr(1),
            RowAddr(3),
            100,
            34_500,
            16_500,
        );
        // 100 iterations × (2 ACT + 2 PRE).
        assert_eq!(p.command_count(), 400);
    }

    #[test]
    fn read_extension_reaches_5x() {
        let t = TimingParams::ddr4_2400();
        // §8.1 Improvement 3: 10–15 READs ≈ 5× the baseline on-time.
        let t_on = Program::read_extended_t_on(15, &t);
        assert!(t_on >= 5 * t.t_ras / 2, "15 reads give {t_on} ps");
        assert!(Program::read_extended_t_on(0, &t) == t.t_ras);
    }

    #[test]
    fn write_row_covers_all_columns() {
        let t = TimingParams::ddr4_2400();
        let p = Program::write_row(BankId(1), RowAddr(5), &[0xAB; 64], &t);
        // ACT + 8 WR + PRE.
        assert_eq!(p.command_count(), 10);
    }

    #[test]
    #[should_panic(expected = "hammer count must be positive")]
    fn zero_hammers_panics() {
        Program::double_sided_hammer(BankId(0), RowAddr(1), RowAddr(3), 0, 1, 1);
    }
}
