//! `artifacts_default` / `artifacts_smoke`: the 35 targets of
//! `repro all`, timed as one `repro` process from spawn to exit.

use crate::golden::{self, Digests};
use crate::{layers, sys, Env, Inject, Rep, Workload, BENCH_SEED};
use rh_bench::{run_target, RunConfig};
use rh_core::Scale;
use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Batches of `repro --list` launches; the median batch gives the
/// start-up time.
const STARTUP_BATCHES: usize = 8;
/// Launches per batch. At about 1.1 ms of CPU a launch, the batches add
/// up to over a second of start-up work.
const STARTUP_BATCH: usize = 128;

/// Every target of `repro all`, in its order.
#[must_use]
pub fn all_targets() -> Vec<String> {
    let mut t: Vec<String> = rh_bench::targets()
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    t.push("defense-matrix".to_string());
    t
}

/// The targets of one run: all of them, in an order drawn from `seed`
/// (outputs do not depend on the order), plus an unknown one when a
/// failing target is injected.
#[must_use]
pub fn targets_for(seed: u64, inject: Option<Inject>) -> Vec<String> {
    let mut t = crate::shuffled(&all_targets(), seed);
    if inject == Some(Inject::FailingTarget) {
        t.push("no-such-target".to_string());
    }
    t
}

fn scale(workload: Workload) -> (Scale, &'static str) {
    match workload {
        Workload::ArtifactsDefault => (Scale::Default, "default"),
        _ => (Scale::Smoke, "smoke"),
    }
}

/// CPU time per launch of `repro --list`: loading and starting the
/// binary, the one set-up `repro all` has outside its measured process.
/// The median over [`STARTUP_BATCHES`] of the mean of a batch. CPU time
/// rather than wall time, because the wall time of a launch doubled
/// when the machine was busy, twice the change of any other metric.
///
/// # Errors
///
/// `repro` cannot be started or fails.
pub fn startup_s(repro: &std::path::Path) -> Result<f64, String> {
    let mut batches = Vec::with_capacity(STARTUP_BATCHES);
    for _ in 0..STARTUP_BATCHES {
        let mut cpu_s = 0.0;
        for _ in 0..STARTUP_BATCH {
            let child = Command::new(repro)
                .arg("--list")
                .stdout(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot start {}: {e}", repro.display()))?;
            let (exit, usage) = sys::reap(child).map_err(|e| format!("cannot reap repro: {e}"))?;
            if !exit.success() {
                return Err(format!("repro --list failed ({exit})"));
            }
            cpu_s += usage.cpu_s;
        }
        batches.push(cpu_s / STARTUP_BATCH as f64);
    }
    Ok(crate::median(&batches))
}

/// One finished `repro` process.
pub struct ReproRun {
    /// Spawn to reap, seconds.
    pub wall_s: f64,
    /// CPU time and peak memory of the process.
    pub usage: sys::Usage,
    /// How it ended.
    pub exit: sys::Exit,
    /// `(target, digest)` per output line.
    pub got: Vec<(String, String)>,
    /// Output lines that were not target results.
    pub bad_lines: Vec<String>,
    /// Its standard error.
    pub stderr: String,
}

/// Runs `repro <args>` to completion, timed from spawn to reap, and
/// digests every line of its `--json` output.
///
/// # Errors
///
/// The process cannot be spawned or reaped.
pub fn run_repro(repro: &std::path::Path, args: &[String]) -> Result<ReproRun, String> {
    let started = Instant::now();
    let mut child = Command::new(repro)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn repro: {e}"))?;
    // Drain stderr beside stdout so neither pipe can fill and block.
    let stderr = child.stderr.take().map(|mut pipe| {
        std::thread::spawn(move || {
            let mut text = String::new();
            let _ = pipe.read_to_string(&mut text);
            text
        })
    });
    let mut out = String::new();
    if let Some(mut stdout) = child.stdout.take() {
        let _ = stdout.read_to_string(&mut out);
    }
    let reaped = sys::reap(child);
    let wall_s = started.elapsed().as_secs_f64();
    let stderr = stderr.and_then(|h| h.join().ok()).unwrap_or_default();
    let (exit, usage) = reaped.map_err(|e| format!("cannot reap repro: {e}"))?;
    let mut got = Vec::new();
    let mut bad_lines = Vec::new();
    for line in out.lines() {
        match golden::target_digest(line) {
            Ok(d) => got.push(d),
            Err(e) => bad_lines.push(e),
        }
    }
    Ok(ReproRun {
        wall_s,
        usage,
        exit,
        got,
        bad_lines,
        stderr,
    })
}

/// The arguments of one run over `targets` at the workload's scale.
#[must_use]
pub fn repro_args(workload: Workload, targets: &[String]) -> Vec<String> {
    let mut args: Vec<String> = [
        "--seed",
        &BENCH_SEED.to_string(),
        "--scale",
        scale(workload).1,
        "--json",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.extend(targets.iter().cloned());
    args
}

/// One untraced repetition: `repro --scale S --json <targets>` as a
/// child, every output line checked against the goldens.
#[must_use]
pub fn rep(
    env: &Env,
    workload: Workload,
    seed: u64,
    golden: &Digests,
    inject: Option<Inject>,
) -> Rep {
    let targets = targets_for(seed, inject);
    let attempted = targets.len() as u64;
    let run = match run_repro(&env.repro, &repro_args(workload, &targets)) {
        Ok(run) => run,
        Err(e) => return Rep::all_failed(attempted, &e),
    };
    let mut failures = run.bad_lines;
    failures.extend(golden::check(golden, &targets, &run.got));
    if !run.exit.success() && failures.is_empty() {
        failures.push(format!("repro: {}", run.exit));
    }
    if !failures.is_empty() {
        for line in run.stderr.lines().filter(|l| !l.trim().is_empty()).take(5) {
            eprintln!("perfbench: repro: {line}");
        }
    }
    failures.truncate(targets.len());
    Rep {
        wall_s: run.wall_s,
        cpu_s: run.usage.cpu_s,
        peak_rss_mb: run.usage.peak_rss_kb as f64 / 1024.0,
        attempted,
        failures,
        ..Rep::default()
    }
}

/// The traced repetition, in this process: every target through
/// [`run_target`] under a timer, with an [`rh_obs::Recorder`]
/// installed to read the program's own counters and histograms.
#[must_use]
pub fn traced_rep(workload: Workload, seed: u64, golden: &Digests) -> Rep {
    let targets = targets_for(seed, None);
    let cfg = RunConfig {
        scale: scale(workload).0,
        seed: BENCH_SEED,
        ..RunConfig::default()
    };
    let recorder = layers::install_recorder();
    let mut out = Rep {
        attempted: targets.len() as u64,
        ..Rep::default()
    };
    let mut got = Vec::new();
    let started = Instant::now();
    for target in &targets {
        let t = Instant::now();
        let ran = run_target(target, &cfg);
        out.layers
            .insert(format!("runners.{target}_s"), t.elapsed().as_secs_f64());
        match ran {
            Ok(o) => {
                let line = serde_json::json!({"target": o.target, "data": o.data}).to_string();
                match golden::target_digest(&line) {
                    Ok(d) => got.push(d),
                    Err(e) => out.failures.push(e),
                }
            }
            // Reported once, as the target's missing output below.
            Err(e) => eprintln!("perfbench: {target}: {e}"),
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    rh_obs::uninstall();
    layers::from_recorder(&recorder, &mut out.layers);
    out.failures.extend(golden::check(golden, &targets, &got));
    out.failures.truncate(targets.len());
    out.peak_rss_mb = sys::self_usage().peak_rss_kb as f64 / 1024.0;
    out
}
