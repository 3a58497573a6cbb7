//! Chaos-soak harness: many short campaigns under seed-randomized
//! fault schedules — hangs, sensor faults, transient link errors,
//! dead modules, injected panics, and mid-run cancellation — each
//! checked against the supervisor's invariants:
//!
//! 1. the campaign returns (no deadlock) and every module occupies
//!    exactly one report slot;
//! 2. the checkpoint file is always loadable
//!    ([`verify_checkpoint`]) and holds exactly the non-cancelled
//!    outcomes;
//! 3. a resumed campaign completes the interrupted work — and when
//!    nothing was cancelled, reproduces the first report bit for bit;
//! 4. quarantine/timeout counts match the injected permanent faults.
//!
//! Shared by `repro --soak N` and the `chaos_soak` integration test;
//! every scenario is derived deterministically from its seed.

use rh_core::{
    verify_checkpoint, CampaignOutput, CampaignRunner, Characterizer, ExecutorConfig,
    ModuleTask, ProgressTracker, RetryPolicy, Scale,
};
use rh_dram::{Manufacturer, RowAddr};
use rh_softmc::{CancelToken, FaultPlan, TestBench};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// The fault flavor a scenario injects on its victim modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoakFault {
    /// Fault-free control run.
    None,
    /// Transient host-link failures (retries should recover).
    Flaky,
    /// Temperature-rig faults (settle failures, sensor spikes).
    Thermal,
    /// Module goes permanently unresponsive after a few operations.
    Dead,
    /// Module wedges mid-operation; only the watchdog deadline or a
    /// cancellation unblocks it.
    Hang,
    /// The measurement closure panics on the victim modules.
    Panic,
    /// Everything at once (the `chaos` preset).
    Chaos,
}

impl SoakFault {
    /// Short name for reporting.
    pub fn name(self) -> &'static str {
        match self {
            SoakFault::None => "none",
            SoakFault::Flaky => "flaky",
            SoakFault::Thermal => "thermal",
            SoakFault::Dead => "dead",
            SoakFault::Hang => "hang",
            SoakFault::Panic => "panic",
            SoakFault::Chaos => "chaos",
        }
    }
}

/// One soak scenario, fully derived from its seed.
#[derive(Debug, Clone)]
pub struct SoakScenario {
    /// The derivation seed (also mixed into every module identity).
    pub seed: u64,
    /// Module count (4–6, cycling the four manufacturers).
    pub modules: usize,
    /// Worker-pool width (1–4).
    pub workers: usize,
    /// Watchdog deadline; always set for [`SoakFault::Hang`] (a hung
    /// module with no deadline and no cancellation would never end).
    pub deadline_ms: Option<u64>,
    /// Cancel remaining work on the first quarantine/timeout.
    pub fail_fast: bool,
    /// Cancel the operator token this long into the run, simulating an
    /// interrupt (`None` = run to completion).
    pub cancel_after_ms: Option<u64>,
    /// The injected fault flavor.
    pub fault: SoakFault,
    /// Module indices armed with the fault.
    pub victims: Vec<usize>,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Deadline used whenever a scenario arms the watchdog: generous
/// enough that a healthy smoke-scale module never trips it, small
/// enough to bound a wedged module's cost.
pub const SOAK_DEADLINE_MS: u64 = 8_000;

impl SoakScenario {
    /// Derives the scenario for `seed`.
    pub fn derive(seed: u64) -> Self {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let modules = 4 + (xorshift(&mut s) % 3) as usize;
        let workers = 1 + (xorshift(&mut s) % 4) as usize;
        let fault = match xorshift(&mut s) % 7 {
            0 => SoakFault::None,
            1 => SoakFault::Flaky,
            2 => SoakFault::Thermal,
            3 => SoakFault::Dead,
            4 => SoakFault::Hang,
            5 => SoakFault::Panic,
            _ => SoakFault::Chaos,
        };
        let first = (xorshift(&mut s) as usize) % modules;
        let mut victims = vec![first];
        if xorshift(&mut s).is_multiple_of(2) {
            let second = (xorshift(&mut s) as usize) % modules;
            if second != first {
                victims.push(second);
            }
        }
        if fault == SoakFault::None {
            victims.clear();
        }
        let deadline_ms = if fault == SoakFault::Hang || xorshift(&mut s).is_multiple_of(5) {
            Some(SOAK_DEADLINE_MS)
        } else {
            None
        };
        let fail_fast = xorshift(&mut s).is_multiple_of(4);
        let cancel_after_ms = if xorshift(&mut s).is_multiple_of(3) {
            Some(5 + xorshift(&mut s) % 40)
        } else {
            None
        };
        Self { seed, modules, workers, deadline_ms, fail_fast, cancel_after_ms, fault, victims }
    }

    fn module_seed(&self, index: usize) -> u64 {
        2_000 + 97 * index as u64 + (self.seed % 1_000)
    }

    /// The fault plan armed on module `index` (victims only).
    fn plan_for(&self, index: usize) -> Option<FaultPlan> {
        if !self.victims.contains(&index) {
            return None;
        }
        let seed = self.seed ^ 0x5eed;
        match self.fault {
            SoakFault::None | SoakFault::Panic => None,
            SoakFault::Flaky => Some(FaultPlan::flaky_host(seed)),
            SoakFault::Thermal => Some(FaultPlan::thermal(seed)),
            SoakFault::Dead => Some(FaultPlan::dead_module(seed, 1 + seed % 4)),
            SoakFault::Hang => Some(FaultPlan::hung_module(seed, 2 + seed % 8)),
            SoakFault::Chaos => Some(FaultPlan::chaos(seed)),
        }
    }

    /// One line describing the scenario.
    pub fn describe(&self) -> String {
        format!(
            "seed {:>4}: {:<7} modules {} workers {} deadline {:<6} fail_fast {:<5} cancel {:?}",
            self.seed,
            self.fault.name(),
            self.modules,
            self.workers,
            self.deadline_ms.map_or("none".to_string(), |d| format!("{d}ms")),
            self.fail_fast,
            self.cancel_after_ms,
        )
    }
}

/// Per-scenario outcome counts, aggregated into a [`SoakReport`].
#[derive(Debug, Clone)]
pub struct SoakStats {
    /// The scenario that ran.
    pub scenario: SoakScenario,
    /// Modules that succeeded or recovered in the first run.
    pub ok: usize,
    /// Modules quarantined in the first run.
    pub quarantined: usize,
    /// Modules timed out in the first run.
    pub timed_out: usize,
    /// Modules cancelled in the first run.
    pub cancelled: usize,
}

/// The aggregate of a whole soak.
#[derive(Debug, Clone, Default)]
pub struct SoakReport {
    /// Scenarios that upheld every invariant.
    pub passed: Vec<SoakStats>,
    /// Invariant violations, one message per failed scenario.
    pub failures: Vec<String>,
}

impl SoakReport {
    /// Whether every scenario upheld the invariants.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// One-line aggregate summary.
    pub fn summary_line(&self) -> String {
        let (mut ok, mut q, mut t, mut c) = (0, 0, 0, 0);
        for s in &self.passed {
            ok += s.ok;
            q += s.quarantined;
            t += s.timed_out;
            c += s.cancelled;
        }
        format!(
            "soak: {} scenario(s) passed, {} failed ({} ok / {} quarantined / {} timed out / {} cancelled module runs)",
            self.passed.len(),
            self.failures.len(),
            ok,
            q,
            t,
            c
        )
    }
}

fn fail(seed: u64, what: &str, detail: String) -> String {
    format!("seed {seed}: {what}: {detail}")
}

/// Runs the campaign of `scenario` once. `cancel` is the operator
/// token (cancelled mid-run by the caller for interrupt scenarios);
/// `fail_fast` and the checkpoint path are explicit so the resume pass
/// can differ from the first run.
fn run_campaign(
    scenario: &SoakScenario,
    ckpt: &Path,
    cancel: &CancelToken,
    fail_fast: bool,
    tracker: Option<&Arc<ProgressTracker>>,
) -> Result<CampaignOutput<u64>, String> {
    let tasks: Vec<ModuleTask<'_>> = (0..scenario.modules)
        .map(|i| {
            let mfr = Manufacturer::ALL[i % Manufacturer::ALL.len()];
            let module_seed = scenario.module_seed(i);
            let plan = scenario.plan_for(i);
            ModuleTask::new(format!("soak-{i}-{module_seed:x}"), move |attempt, token| {
                let mut bench = TestBench::new(mfr, module_seed);
                bench.set_cancel_token(token.clone());
                if let Some(p) = &plan {
                    bench.install_faults(&p.for_attempt(attempt));
                }
                Characterizer::new(bench, Scale::Smoke)
            })
        })
        .collect();
    let panic_seeds: Vec<u64> = if scenario.fault == SoakFault::Panic {
        scenario.victims.iter().map(|&i| scenario.module_seed(i)).collect()
    } else {
        Vec::new()
    };
    let mut executor = ExecutorConfig::with_workers(scenario.workers);
    if let Some(ms) = scenario.deadline_ms {
        executor = executor.with_deadline(Duration::from_millis(ms));
    }
    let mut runner = CampaignRunner::new()
        .with_policy(RetryPolicy { max_attempts: 2, ..RetryPolicy::default() })
        .with_checkpoint(ckpt)
        .with_executor(executor)
        .with_cancel(cancel.clone())
        .with_fail_fast(fail_fast);
    if let Some(t) = tracker {
        runner = runner.with_progress(Arc::clone(t));
    }
    runner
        .run(tasks, |ch: &mut Characterizer| {
            assert!(
                !panic_seeds.contains(&ch.bench().module_seed()),
                "soak: injected measurement panic"
            );
            ch.set_temperature(75.0)?;
            let wcdp = ch.wcdp();
            let ber = ch.measure_ber(RowAddr(1500), wcdp, 30_000, None, None)?;
            Ok(ber.victim)
        })
        .map_err(|e| fail(scenario.seed, "campaign errored", e.to_string()))
}

/// Runs one scenario and checks every invariant. The checkpoint file
/// lives under `dir` and is removed on success. With a progress
/// tracker, both the first run and the resume pass admit their
/// modules, so the `campaign.progress.*` gauges of `repro --soak
/// --metrics-out` count the whole soak (2× modules per scenario) as
/// one accumulating total.
///
/// # Errors
///
/// A description of the first violated invariant.
pub fn soak_one_tracked(
    seed: u64,
    dir: &Path,
    tracker: Option<&Arc<ProgressTracker>>,
) -> Result<SoakStats, String> {
    let scenario = SoakScenario::derive(seed);
    let ckpt: PathBuf = dir.join(format!("soak-{seed}.json"));
    let _ = std::fs::remove_file(&ckpt);

    // First run, with the scenario's interrupt (if any) arriving on the
    // operator token from a second thread — exactly what the SIGINT
    // handler does in `repro`.
    let root = CancelToken::new();
    let canceller = scenario.cancel_after_ms.map(|ms| {
        let token = root.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(ms));
            token.cancel();
        })
    });
    let first = run_campaign(&scenario, &ckpt, &root, scenario.fail_fast, tracker)?;
    if let Some(handle) = canceller {
        let _ = handle.join();
    }
    let r = &first.report;

    // 1. Structural: every module occupies exactly one slot.
    if r.outcomes.len() != scenario.modules
        || r.succeeded + r.recovered + r.quarantined + r.timed_out + r.cancelled
            != scenario.modules
    {
        return Err(fail(seed, "report slots inconsistent", r.summary_line()));
    }

    // 2. The checkpoint is loadable and holds exactly the
    //    non-cancelled outcomes.
    let entries = verify_checkpoint(&ckpt)
        .map_err(|e| fail(seed, "checkpoint not loadable after run", e.to_string()))?;
    let persistable = scenario.modules - r.cancelled;
    if entries != persistable {
        return Err(fail(
            seed,
            "checkpoint entry count",
            format!("{entries} entries, expected {persistable} ({})", r.summary_line()),
        ));
    }

    // 3. Injected permanent faults are accounted for. Exact counts are
    //    only determined when nothing raced the fault (no interrupt, no
    //    fail-fast cancellation).
    if scenario.cancel_after_ms.is_none() && !scenario.fail_fast {
        match scenario.fault {
            SoakFault::Dead | SoakFault::Panic
                if r.quarantined != scenario.victims.len()
                    || r.succeeded + r.recovered != scenario.modules - scenario.victims.len() =>
            {
                return Err(fail(
                    seed,
                    "quarantine count vs injected permanent faults",
                    format!("{} victims, {}", scenario.victims.len(), r.summary_line()),
                ));
            }
            SoakFault::Hang if r.timed_out != scenario.victims.len() => {
                return Err(fail(
                    seed,
                    "timeout count vs injected hangs",
                    format!("{} victims, {}", scenario.victims.len(), r.summary_line()),
                ));
            }
            _ => {}
        }
        if scenario.fault == SoakFault::None && !r.is_clean() {
            return Err(fail(seed, "fault-free scenario not clean", r.summary_line()));
        }
    }

    // 4. Resume completes the interrupted work (fresh token, no
    //    fail-fast: the operator inspecting a failed run resumes the
    //    remainder).
    let resumed = run_campaign(&scenario, &ckpt, &CancelToken::new(), false, tracker)?;
    let rr = &resumed.report;
    if rr.cancelled != 0 || rr.outcomes.len() != scenario.modules {
        return Err(fail(seed, "resume left work unfinished", rr.summary_line()));
    }
    // When the first run finished everything, the resume must
    // reproduce it bit for bit (every outcome replayed from the
    // checkpoint).
    if r.cancelled == 0 && (*rr != *r || resumed.results != first.results) {
        return Err(fail(
            seed,
            "resume did not reproduce the completed run",
            format!("first: {} / resumed: {}", r.summary_line(), rr.summary_line()),
        ));
    }
    let entries = verify_checkpoint(&ckpt)
        .map_err(|e| fail(seed, "checkpoint not loadable after resume", e.to_string()))?;
    if entries != scenario.modules {
        return Err(fail(
            seed,
            "checkpoint incomplete after resume",
            format!("{entries} of {} entries", scenario.modules),
        ));
    }

    let _ = std::fs::remove_file(&ckpt);
    Ok(SoakStats {
        scenario,
        ok: r.succeeded + r.recovered,
        quarantined: r.quarantined,
        timed_out: r.timed_out,
        cancelled: r.cancelled,
    })
}

/// Runs `soak_one_tracked` for every seed, collecting pass/fail per
/// scenario. `progress` is called with one line per finished scenario;
/// `tracker`, when given, is the live-progress tracker shared by every
/// scenario's campaigns.
pub fn run_soak_tracked(
    seeds: impl IntoIterator<Item = u64>,
    dir: &Path,
    mut progress: impl FnMut(&str),
    tracker: Option<&Arc<ProgressTracker>>,
) -> SoakReport {
    let mut report = SoakReport::default();
    for seed in seeds {
        match soak_one_tracked(seed, dir, tracker) {
            Ok(stats) => {
                progress(&format!(
                    "{}  ->  {} ok / {} quarantined / {} timed out / {} cancelled",
                    stats.scenario.describe(),
                    stats.ok,
                    stats.quarantined,
                    stats.timed_out,
                    stats.cancelled
                ));
                report.passed.push(stats);
            }
            Err(msg) => {
                progress(&format!("seed {seed}: FAILED — {msg}"));
                report.failures.push(msg);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic_and_varied() {
        let a = SoakScenario::derive(7);
        let b = SoakScenario::derive(7);
        assert_eq!(a.fault, b.fault);
        assert_eq!(a.victims, b.victims);
        assert_eq!(a.cancel_after_ms, b.cancel_after_ms);
        let flavors: std::collections::BTreeSet<&'static str> =
            (0..40).map(|s| SoakScenario::derive(s).fault.name()).collect();
        assert!(flavors.len() >= 5, "40 seeds only produced {flavors:?}");
    }

    #[test]
    fn hang_scenarios_always_carry_a_deadline() {
        for seed in 0..200 {
            let sc = SoakScenario::derive(seed);
            if sc.fault == SoakFault::Hang {
                assert_eq!(sc.deadline_ms, Some(SOAK_DEADLINE_MS), "seed {seed}");
            }
        }
    }
}
