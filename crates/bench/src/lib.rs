//! The reproduction harness: one runner per table and figure of the
//! paper, driven by the `repro` binary.
//!
//! Every runner returns the rendered text (the same rows/series the
//! paper reports). `repro --json` additionally dumps the raw result
//! structures.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod fleet;
pub mod runners;
pub mod soak;
pub mod worker;

pub use fleet::{fleet_text, run_fleet, run_fleet_local, FleetConfig};
pub use worker::{execute_payload, fleet_module_id, run_worker, JobSpec, WorkerConfig};

pub use runners::{
    experiment, run_defense_matrix, run_target, run_targets, targets, ObsSetup, RunConfig,
    RunOutput, EXPERIMENTS,
};
pub use soak::{run_soak_tracked, soak_one_tracked, SoakReport, SoakScenario, SoakStats};
