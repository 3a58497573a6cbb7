//! DRAM device model — the hardware substrate of the RowHammer
//! sensitivities reproduction.
//!
//! This crate models everything the paper's testing infrastructure
//! touches on the DRAM side:
//!
//! * [`geometry`] — channels, ranks, chips, banks, subarrays, rows, and
//!   columns, plus the chip organizations of the tested modules
//!   (x4/x8, 4 Gb/8 Gb).
//! * [`timing`] — DDR3-1600 and DDR4-2400 timing parameters (tRAS, tRP,
//!   tRCD, …) with picosecond resolution and the per-standard command
//!   clock granularity (2.5 ns / 1.25 ns) of the SoftMC infrastructure.
//! * [`command`] — the DRAM command set (ACT/PRE/PREA/RD/WR/REF/NOP).
//! * [`bank`] — the per-bank state machine with timing-violation
//!   detection and activation bookkeeping.
//! * [`module`] — a rank of lock-step chips with sparse row storage and
//!   a pluggable [`DisturbanceModel`] hook through which a RowHammer
//!   fault model injects bit flips.
//! * [`row`] — how a row is stored: a pattern fill as its [`RowFill`]
//!   descriptor plus the bits flipped since, arbitrary data as bytes;
//!   [`RowView`] reads either as 64-bit lanes.
//! * [`mapping`] — in-DRAM logical→physical row-address scrambling
//!   schemes, which characterization code reverse-engineers exactly as
//!   the paper does (§4.2).
//! * [`data`] — the data patterns of Table 1 (colstripe, checkered,
//!   rowstripe, random, and complements), and the word-wise row-diff
//!   kernel that counts or locates the bits a read row flipped.
//! * [`energy`] — IDD-style per-command energy accounting for pricing
//!   attacks and defenses in energy terms.
//! * [`population`] — the tested-module inventory of Tables 2 and 4.
//!
//! # Examples
//!
//! ```
//! use rh_dram::{DataPattern, DramModule, ModuleConfig, PatternKind, RowFill};
//!
//! let mut module = DramModule::new(ModuleConfig::ddr4_8gb_x8());
//! let bank = rh_dram::BankId(0);
//! let row = rh_dram::RowAddr(42);
//! // A pattern fill is stored as its descriptor, not as 8 KiB of bytes;
//! // checkered writes 0xAA at odd distance from the victim.
//! let fill = RowFill::new(DataPattern::new(PatternKind::Checkered, 0), row, 1);
//! module.write_row_fill(bank, row, fill).unwrap();
//! assert_eq!(module.read_row_view(bank, row).unwrap().count_flips(fill), 0);
//! // Arbitrary data is stored as bytes, and compares lane by lane.
//! module.write_row_direct(bank, row, &vec![0xAA; module.row_bytes()]).unwrap();
//! assert_eq!(module.read_row_view(bank, row).unwrap().count_flips(fill), 0);
//! let data = module.read_row_direct(bank, row).unwrap();
//! assert!(data.iter().all(|&b| b == 0xAA));
//! ```
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod bank;
pub mod command;
pub mod data;
pub mod energy;
pub mod error;
pub mod geometry;
pub mod mapping;
pub mod module;
pub mod population;
pub mod row;
pub mod timing;

pub use bank::{Bank, BankState};
pub use command::{Command, TimedCommand};
pub use data::{count_flips, flip_positions, DataPattern, PatternKind, RowFill};
pub use energy::{EnergyModel, Picojoules};
pub use error::DramError;
pub use geometry::{
    BankId, CellCoord, ChipId, ChipOrg, Density, DramGeometry, Manufacturer, RowAddr, SubarrayId,
};
pub use mapping::RowMapping;
pub use module::{
    BitFlip, DisturbanceModel, DramModule, ModuleConfig, NullDisturbance, RoundRobin,
};
pub use population::{ddr4_modules_of, tested_modules, DramStandard, TestedModule};
pub use row::RowView;
pub use timing::{Picos, TimingParams, NS};
