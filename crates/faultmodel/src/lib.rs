//! Circuit-level RowHammer fault model, calibrated to the measurements
//! of *"A Deeper Look into RowHammer's Sensitivities"* (MICRO '21).
//!
//! This crate substitutes for the 248 DDR4 + 24 DDR3 real DRAM chips the
//! paper characterizes. It implements [`rh_dram::DisturbanceModel`], so a
//! [`rh_dram::DramModule`] built with a [`RowHammerModel`] exhibits
//! RowHammer bit flips whose dependence on
//!
//! * **temperature** (bounded per-cell vulnerable ranges with an
//!   inflection point — Obsv. 1–7),
//! * **aggressor row active/precharged time** (`g_on`/`g_off` disturbance
//!   factors — Obsv. 8–11), and
//! * **physical location** (row, column, subarray, module variation —
//!   Obsv. 12–16)
//!
//! matches the paper's published response surfaces in shape and headline
//! factors. Every per-cell parameter is a *pure function* of
//! `(module seed, bank, row, cell index)` via splitmix-style hashing, so
//! an 8 Gb chip needs no per-cell storage and every experiment is
//! bit-reproducible.
//!
//! A sensing evaluates the row's cells at the module's current
//! temperature from one temperature-free table per row, derived once
//! per process and shared by every model instance ([`kernel`]); a
//! sweep over temperature builds nothing per temperature.
//!
//! The model is descriptive, not device-physical: its constants are the
//! paper's measured sensitivities (e.g., the HCfirst reduction of
//! 40.0 %/28.3 %/32.7 %/37.3 % for Mfrs. A–D at tAggOn = 154.5 ns).
//! See `DESIGN.md` §1 for the substitution argument.
//!
//! # Examples
//!
//! ```
//! use rh_dram::{BankId, DramModule, Manufacturer, ModuleConfig, RowAddr};
//! use rh_faultmodel::RowHammerModel;
//!
//! let cfg = ModuleConfig::ddr4(Manufacturer::A);
//! let model = RowHammerModel::new(Manufacturer::A, 42);
//! let mut module = DramModule::with_model(cfg, Box::new(model));
//! module.set_temperature(75.0);
//!
//! // Hammer both neighbors of row 1000 and look for flips.
//! let bank = BankId(0);
//! let row_bytes = module.row_bytes();
//! for r in 998..=1002 {
//!     module.write_row_direct(bank, RowAddr(r), &vec![0x00; row_bytes])?;
//! }
//! let t = module.config().timing;
//! module.hammer_direct(bank, RowAddr(999), 300_000, t.t_ras, t.t_rp)?;
//! module.hammer_direct(bank, RowAddr(1001), 300_000, t.t_ras, t.t_rp)?;
//! let victim = module.read_row_direct(bank, RowAddr(1000))?;
//! let flips: u32 = victim.iter().map(|b| b.count_ones()).sum();
//! println!("bit flips: {flips}");
//! # Ok::<(), rh_dram::DramError>(())
//! ```
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cell;
pub mod disturb;
pub mod kernel;
pub mod lru;
pub mod model;
pub mod profile;
pub mod retention;
pub mod rng;
pub mod variation;

pub use cell::{
    row_floor, trial_noise_at, trial_noise_bounds, CellVulnerability, TempWindow, NOISE_Z_BOUND,
};
pub use disturb::{g_off, g_on, DisturbanceUnits};
pub use kernel::CellTable;
pub use lru::LruCache;
pub use model::{EvalMode, RowHammerModel};
pub use retention::RetentionCell;
pub use profile::MfrProfile;
