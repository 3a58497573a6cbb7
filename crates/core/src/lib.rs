//! The RowHammer sensitivity characterization library — the primary
//! contribution of *"A Deeper Look into RowHammer's Sensitivities"*
//! (MICRO '21).
//!
//! Driving a [`rh_softmc::TestBench`] (real chips in the paper, the
//! calibrated fault model here), this crate implements the paper's
//! complete methodology:
//!
//! * [`mapping_re`] — reverse engineering of the in-DRAM
//!   logical→physical row mapping by single-sided hammering (§4.2).
//! * [`wcdp`] — per-module worst-case data pattern identification over
//!   the seven Table-1 patterns.
//! * [`metrics`] — the two metrics of the study: BER (bit flips per
//!   victim row at 150 K hammers) and HCfirst (minimum hammer count for
//!   the first bit flip, found by the paper's binary search with 512-
//!   activation accuracy and a 512 K cap).
//! * [`experiments::temperature`] (§5) — vulnerable-temperature-range
//!   clustering (Table 3, Fig. 3), BER vs temperature (Fig. 4), HCfirst
//!   change distributions (Fig. 5).
//! * [`experiments::rowactive`] (§6) — aggressor on-time (Figs. 7/8)
//!   and off-time (Figs. 9/10) sweeps.
//! * [`experiments::spatial`] (§7) — per-row HCfirst variation
//!   (Fig. 11), per-column flip maps (Figs. 12/13), subarray regression
//!   (Fig. 14) and similarity (Fig. 15).
//! * [`observations`] — programmatic checks of the paper's Obsv. 1–16.
//! * [`report`] — plain-text rendering of every regenerated table and
//!   figure.
//! * [`campaign`] — resilient multi-module campaigns: bounded retry
//!   with deterministic backoff, quarantine of sick modules, partial
//!   results, and JSON checkpoint/resume, on a bounded worker pool
//!   with per-module wall-clock deadlines (watchdog) and cooperative
//!   cancellation.
//! * [`fleet`] — the coordinator-side job table and lease state
//!   machine for multi-process campaigns: leases with heartbeats,
//!   re-dispatch on expiry, at-most-once result commit, and
//!   crash-resume through versioned checkpoints.
//!
//! # Examples
//!
//! ```
//! use rh_core::{Characterizer, Scale};
//! use rh_dram::Manufacturer;
//! use rh_softmc::TestBench;
//!
//! let bench = TestBench::new(Manufacturer::A, 42);
//! let mut ch = Characterizer::new(bench, Scale::Smoke)?;
//! let hc = ch.hc_first_default(rh_dram::RowAddr(1000))?;
//! println!("HCfirst of row 1000: {hc:?}");
//! # Ok::<(), rh_core::CharError>(())
//! ```
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod campaign;
pub mod config;
pub mod error;
pub mod experiments;
pub mod fleet;
pub mod mapping_re;
pub mod metrics;
pub mod observations;
pub mod progress;
pub mod report;
pub mod wcdp;

pub use campaign::{
    module_id, verify_checkpoint, CampaignOutput, CampaignReport, CampaignRunner,
    ExecutorConfig, ModuleOutcome, ModuleStatus, ModuleTask, RetryPolicy,
};
pub use config::{Scale, TestPlan};
pub use error::CharError;
pub use fleet::{
    fnv1a64, mint_replay_token, CommitOutcome, FailOutcome,
    FleetModuleOutcome, FleetPolicy, FleetReport, JobGrant, JobTable, LeaseState, ReplayToken,
};
pub use metrics::{BerMeasurement, Characterizer};
pub use progress::{ProgressSnapshot, ProgressTracker};
