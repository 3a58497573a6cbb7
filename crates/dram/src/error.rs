//! Error types for DRAM device operations.

use crate::geometry::{BankId, RowAddr};
use crate::timing::Picos;
use std::error::Error;
use std::fmt;

/// Errors returned by DRAM device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DramError {
    /// A command was issued before the minimum timing constraint named
    /// in `parameter` elapsed.
    TimingViolation {
        /// The violated timing parameter (e.g. `"tRAS"`).
        parameter: &'static str,
        /// Required minimum delay.
        required: Picos,
        /// Observed delay.
        observed: Picos,
    },
    /// A command is illegal in the bank's current state (e.g. ACT on an
    /// already-active bank).
    IllegalCommand {
        /// Human-readable description of the offending transition.
        what: &'static str,
        /// Bank the command targeted.
        bank: BankId,
    },
    /// A bank index beyond the module geometry.
    BankOutOfRange {
        /// Offending bank.
        bank: BankId,
        /// Number of banks in the module.
        banks: u32,
    },
    /// A row address beyond the module geometry.
    RowOutOfRange {
        /// Offending row.
        row: RowAddr,
        /// Rows per bank in the module.
        rows: u32,
    },
    /// A column address beyond the row (`RD`/`WR`).
    ColumnOutOfRange {
        /// Offending column.
        column: u32,
        /// Columns per row in the module.
        columns: u32,
    },
    /// Row data of the wrong length was supplied to a write.
    BadRowLength {
        /// Expected length in bytes.
        expected: usize,
        /// Supplied length in bytes.
        got: usize,
    },
    /// A read targeted a row that was never written (contents unknown).
    UninitializedRow {
        /// Bank of the read.
        bank: BankId,
        /// Physical row of the read.
        row: RowAddr,
    },
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TimingViolation { parameter, required, observed } => write!(
                f,
                "timing violation: {parameter} requires {required} ps, observed {observed} ps"
            ),
            Self::IllegalCommand { what, bank } => {
                write!(f, "illegal command on bank {}: {what}", bank.0)
            }
            Self::BankOutOfRange { bank, banks } => {
                write!(f, "bank {} out of range (module has {banks} banks)", bank.0)
            }
            Self::RowOutOfRange { row, rows } => {
                write!(f, "row {} out of range (bank has {rows} rows)", row.0)
            }
            Self::ColumnOutOfRange { column, columns } => {
                write!(f, "column {column} out of range (row has {columns} columns)")
            }
            Self::BadRowLength { expected, got } => {
                write!(f, "row data length {got} does not match row size {expected}")
            }
            Self::UninitializedRow { bank, row } => {
                write!(f, "read of uninitialized row {} in bank {}", row.0, bank.0)
            }
        }
    }
}

impl Error for DramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            DramError::TimingViolation { parameter: "tRAS", required: 10, observed: 5 },
            DramError::IllegalCommand { what: "ACT while active", bank: BankId(1) },
            DramError::BankOutOfRange { bank: BankId(99), banks: 16 },
            DramError::RowOutOfRange { row: RowAddr(1 << 20), rows: 65536 },
            DramError::ColumnOutOfRange { column: 1024, columns: 1024 },
            DramError::BadRowLength { expected: 8192, got: 3 },
            DramError::UninitializedRow { bank: BankId(0), row: RowAddr(7) },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase() || s.starts_with("timing"));
        }
    }

    #[test]
    fn error_trait_object_usable() {
        let e: Box<dyn Error + Send + Sync> =
            Box::new(DramError::BadRowLength { expected: 1, got: 2 });
        assert!(e.to_string().contains("row data length"));
    }
}
