//! End-to-end and per-layer benchmark of the RowHammer reproduction.
//!
//! `rh-perfbench --workload W --seed N --seconds S --trace 0|1` builds
//! `repro` from the checkout it runs in, repeats workload `W` until `S`
//! seconds have been measured, checks every output against the golden
//! digests in `perfbench/golden/`, and prints one JSON result line.
//! With `--trace 1` it then makes one extra traced run and prints the
//! per-layer table. See `perfbench/NOTES.md` for the workloads, the
//! metric table and the findings behind them.
//!
//! Every repetition runs in a fresh process, so process-wide caches
//! start cold and peak memory is per repetition: `artifacts_*` time
//! the `repro` process itself, the other workloads re-run this binary
//! in its `--rep` mode.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod artifacts;
mod characterize;
mod fleet;
mod golden;
pub mod layers;
mod sys;

use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Program seed of every workload; the goldens pin its outputs. The
/// benchmark's `--seed` only reorders independent work (see
/// [`shuffled`]).
pub const BENCH_SEED: u64 = 0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 35 targets of `repro all --scale default`.
    ArtifactsDefault,
    /// All 35 targets of `repro all --scale smoke`.
    ArtifactsSmoke,
    /// Bring-up, HCfirst and BER on 32 modules through `rh_core`.
    CharacterizeDefault,
    /// 16 `temp_ranges` jobs through one `repro serve` worker.
    FleetLoopback,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ArtifactsDefault,
        Workload::ArtifactsSmoke,
        Workload::CharacterizeDefault,
        Workload::FleetLoopback,
    ];

    /// The workload's name on the command line and in golden files.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ArtifactsDefault => "artifacts_default",
            Workload::ArtifactsSmoke => "artifacts_smoke",
            Workload::CharacterizeDefault => "characterize_default",
            Workload::FleetLoopback => "fleet_loopback",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A deliberate fault, for checking that failures are reported as
/// failed operations rather than crashes or silent passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Corrupt one golden digest in memory.
    DigestMismatch,
    /// Ask `repro` for a target that does not exist (`artifacts_*`).
    FailingTarget,
    /// SIGKILL the fleet worker once its first job has started.
    KillWorker,
}

impl Inject {
    /// Parses `digest-mismatch`, `failing-target` or `kill-worker`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "digest-mismatch" => Some(Inject::DigestMismatch),
            "failing-target" => Some(Inject::FailingTarget),
            "kill-worker" => Some(Inject::KillWorker),
            _ => None,
        }
    }

    /// The flag value [`Inject::parse`] accepts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Inject::DigestMismatch => "digest-mismatch",
            Inject::FailingTarget => "failing-target",
            Inject::KillWorker => "kill-worker",
        }
    }
}

/// Where the program and the scratch files of one checkout live.
#[derive(Debug, Clone)]
pub struct Env {
    /// Root of the checkout.
    pub root: PathBuf,
    /// The `repro` binary built from it.
    pub repro: PathBuf,
    /// Directory for journals and other run files, inside the build
    /// directory.
    pub scratch: PathBuf,
}

impl Env {
    /// Builds `repro` from the checkout at `root` with cargo, into
    /// `$CARGO_TARGET_DIR` (default `target/`).
    ///
    /// # Errors
    ///
    /// `root` is not a checkout of the repository, or the build fails.
    pub fn prepare(root: &Path) -> Result<Self, String> {
        if !root
            .join("crates")
            .join("bench")
            .join("Cargo.toml")
            .is_file()
        {
            return Err(format!(
                "{} is not a checkout of the repository",
                root.display()
            ));
        }
        let target_dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| root.join("target"), |d| root.join(d));
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .args([
                "build",
                "--release",
                "--offline",
                "-q",
                "-p",
                "rh-bench",
                "--bin",
                "repro",
            ])
            .arg("--target-dir")
            .arg(&target_dir)
            .current_dir(root)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building repro failed ({status})"));
        }
        let scratch = target_dir.join("perfbench-scratch");
        std::fs::create_dir_all(&scratch)
            .map_err(|e| format!("scratch dir {}: {e}", scratch.display()))?;
        Ok(Self {
            root: root.to_path_buf(),
            repro: target_dir.join("release").join("repro"),
            scratch,
        })
    }
}

/// One measured repetition of a workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rep {
    /// Set-up before the first measured operation, seconds.
    pub setup_s: f64,
    /// Wall time of the measured phase, seconds.
    pub wall_s: f64,
    /// User + system CPU of the measured phase, seconds.
    pub cpu_s: f64,
    /// Peak resident memory, MiB.
    pub peak_rss_mb: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Per-layer metrics of a traced repetition.
    pub layers: BTreeMap<String, f64>,
}

impl Rep {
    /// A repetition in which every attempted operation failed for
    /// `why` (a crashed child, an unbuildable input).
    #[must_use]
    pub fn all_failed(attempted: u64, why: &str) -> Self {
        Self {
            attempted,
            failures: (0..attempted.max(1)).map(|_| why.to_string()).collect(),
            ..Self::default()
        }
    }

    /// The wire form a `--rep` child prints.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let layers = Value::Object(
            self.layers
                .iter()
                .map(|(k, v)| (k.clone(), Value::F64(*v)))
                .collect(),
        );
        serde_json::json!({
            "setup_s": self.setup_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_mb": self.peak_rss_mb,
            "attempted": self.attempted,
            "failures": self.failures.clone(),
            "layers": layers,
        })
    }

    /// Parses [`Rep::to_json`] output.
    #[must_use]
    pub fn from_json(v: &Value) -> Option<Self> {
        let num = |k: &str| v.field(k).as_f64();
        let failures = match v.field("failures") {
            Value::Array(items) => items
                .iter()
                .map(|f| f.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            _ => return None,
        };
        let layers = match v.field("layers") {
            Value::Object(pairs) => pairs
                .iter()
                .map(|(k, x)| Some((k.clone(), x.as_f64()?)))
                .collect::<Option<_>>()?,
            _ => return None,
        };
        Some(Self {
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            cpu_s: num("cpu_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            attempted: v.field("attempted").as_u64()?,
            failures,
            layers,
        })
    }
}

/// Runs `rh-perfbench --rep <workload>` as a child and returns the
/// repetition it reports. A child that dies or prints no result counts
/// as `expected_ops` failed operations.
#[must_use]
pub fn child_rep(env: &Env, workload: &str, seed: u64, extra: &[&str], expected_ops: u64) -> Rep {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return Rep::all_failed(expected_ops, &format!("cannot locate own binary: {e}")),
    };
    let child = Command::new(exe)
        .args(["--rep", workload, "--seed", &seed.to_string()])
        .arg("--root")
        .arg(&env.root)
        .arg("--repro")
        .arg(&env.repro)
        .arg("--scratch")
        .arg(&env.scratch)
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn();
    let mut child = match child {
        Ok(c) => c,
        Err(e) => {
            return Rep::all_failed(expected_ops, &format!("cannot spawn {workload} rep: {e}"))
        }
    };
    let mut out = String::new();
    if let Some(mut stdout) = child.stdout.take() {
        let _ = std::io::Read::read_to_string(&mut stdout, &mut out);
    }
    let exit = match sys::reap(child) {
        Ok((exit, _)) => exit,
        Err(e) => {
            return Rep::all_failed(expected_ops, &format!("cannot reap {workload} rep: {e}"))
        }
    };
    out.lines()
        .last()
        .and_then(|l| serde_json::from_str::<Value>(l).ok())
        .and_then(|v| Rep::from_json(&v))
        .unwrap_or_else(|| {
            Rep::all_failed(
                expected_ops,
                &format!("{workload} rep printed no result ({exit})"),
            )
        })
}

/// `items` in an order drawn from `seed` (SplitMix64 Fisher–Yates).
#[must_use]
pub fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut state = seed ^ 0x5eed_0fbe_9c4a_1100;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The end-to-end metrics, in `BENCHMARK.json` order: name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// What one benchmark invocation measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted across all repetitions.
    pub attempted: u64,
    /// Operations failed across all repetitions.
    pub failures: Vec<String>,
    /// The metrics to print.
    pub metrics: Vec<Metric>,
    /// The rendered per-layer table of a traced invocation.
    pub table: Option<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics = Value::Object(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        serde_json::json!({"value": m.value, "unit": m.unit}),
                    )
                })
                .collect(),
        );
        serde_json::json!({
            "correct": self.failures.is_empty(),
            "attempted": self.attempted,
            "failed": self.failures.len() as u64,
            "metrics": metrics,
        })
        .to_string()
    }
}

/// The golden digests of `workload`; with an injected digest mismatch,
/// the first one is corrupted.
///
/// # Errors
///
/// Unreadable or malformed golden file.
pub fn load_golden(
    root: &Path,
    workload: Workload,
    inject: Option<Inject>,
) -> Result<golden::Digests, String> {
    let mut digests = golden::load(&golden::path(root, workload.name()))?;
    if inject == Some(Inject::DigestMismatch) {
        if let Some(d) = digests.values_mut().next() {
            *d = "0000000000000000".to_string();
        }
    }
    Ok(digests)
}

/// The `--rep` mode: one repetition of `name` in this process.
///
/// # Errors
///
/// Unknown repetition name or unreadable goldens.
pub fn rep_child(
    env: &Env,
    name: &str,
    seed: u64,
    traced: bool,
    inject: Option<Inject>,
) -> Result<Rep, String> {
    if name == "characterize_split" {
        return Ok(characterize::split_child(seed));
    }
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown repetition '{name}'"))?;
    let golden = load_golden(&env.root, workload, inject)?;
    Ok(match workload {
        Workload::ArtifactsDefault | Workload::ArtifactsSmoke => {
            artifacts::traced_rep(workload, seed, &golden)
        }
        Workload::CharacterizeDefault => characterize::child(seed, traced, &golden),
        Workload::FleetLoopback => fleet::child(env, traced, inject, &golden),
    })
}

/// Regenerates every golden file from the program at the benchmark
/// seed. `repro` outputs must agree at executor widths 1 and 2, and the
/// fleet goldens come from the in-process oracle `run_fleet_local`.
///
/// # Errors
///
/// Build or run failures, or outputs that differ between widths.
pub fn write_goldens(root: &Path) -> Result<(), String> {
    let env = Env::prepare(root)?;
    for workload in [Workload::ArtifactsSmoke, Workload::ArtifactsDefault] {
        let targets = artifacts::all_targets();
        let mut runs = Vec::new();
        for width in ["1", "2"] {
            let mut args = vec!["--max-workers".to_string(), width.to_string()];
            args.extend(artifacts::repro_args(workload, &targets));
            let run = artifacts::run_repro(&env.repro, &args)?;
            if !run.exit.success() || !run.bad_lines.is_empty() {
                return Err(format!(
                    "{}: repro {} {:?}",
                    workload.name(),
                    run.exit,
                    run.bad_lines
                ));
            }
            runs.push(run.got.into_iter().collect::<golden::Digests>());
        }
        if runs[0] != runs[1] {
            let differ: Vec<&String> = runs[0]
                .iter()
                .filter(|(k, v)| runs[1].get(*k) != Some(v))
                .map(|(k, _)| k)
                .collect();
            return Err(format!(
                "{}: outputs differ between widths 1 and 2: {differ:?}",
                workload.name()
            ));
        }
        golden::save(&golden::path(root, workload.name()), &runs[0])?;
    }
    let (_, items, got) = characterize::measure(BENCH_SEED, false);
    if got.len() != items.len() {
        return Err("characterize_default: some modules failed".to_string());
    }
    golden::save(
        &golden::path(root, Workload::CharacterizeDefault.name()),
        &got.into_iter().collect(),
    )?;
    let local =
        rh_bench::run_fleet_local(&fleet::config("local", None)).map_err(|e| e.to_string())?;
    golden::save(
        &golden::path(root, Workload::FleetLoopback.name()),
        &fleet::result_digests(&local).into_iter().collect(),
    )
}

/// Options of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed: orders independent work, never changes outputs.
    pub seed: u64,
    /// Measured time to fill with repetitions.
    pub seconds: Duration,
    /// Make the extra traced run and report per-layer metrics.
    pub trace: bool,
    /// Deliberate fault, if any.
    pub inject: Option<Inject>,
}

/// Runs one benchmark invocation: set-up, repetitions until
/// `opts.seconds` are measured, and with `opts.trace` one traced run.
///
/// # Errors
///
/// Set-up failures: no checkout, a failed build, unreadable goldens.
/// Failures of the measured work are failed operations instead.
pub fn run(root: &Path, opts: &Options) -> Result<Outcome, String> {
    let env = Env::prepare(root)?;
    let golden = load_golden(root, opts.workload, opts.inject)?;
    let workload = opts.workload;
    let seed = opts.seed;
    let one = || -> Rep {
        match workload {
            Workload::ArtifactsDefault | Workload::ArtifactsSmoke => {
                artifacts::rep(&env, workload, seed, &golden, opts.inject)
            }
            Workload::CharacterizeDefault => {
                characterize::parent_rep(&env, seed, opts.inject, false)
            }
            Workload::FleetLoopback => fleet::parent_rep(&env, seed, opts.inject, false),
        }
    };

    // Start-up of the binary is the only set-up `repro all` has outside
    // the measured process; median of several launches.
    let artifacts_setup = match workload {
        Workload::ArtifactsDefault | Workload::ArtifactsSmoke => {
            Some(artifacts::startup_s(&env.repro)?)
        }
        _ => None,
    };

    let mut reps = Vec::new();
    let started = Instant::now();
    // Whole repetitions only: stop when one more would overshoot the
    // measured time by more than it undershoots without it.
    let budget = opts.seconds.as_secs_f64();
    while reps.is_empty() || {
        let spent = started.elapsed().as_secs_f64();
        spent + spent / reps.len() as f64 / 2.0 < budget
    } {
        let rep = one();
        eprintln!(
            "perfbench: {} rep {}: wall {:.3} s, cpu {:.3} s, rss {:.1} MiB, setup {:.3} s, {} failed of {}",
            workload.name(),
            reps.len() + 1,
            rep.wall_s,
            rep.cpu_s,
            rep.peak_rss_mb,
            rep.setup_s,
            rep.failures.len(),
            rep.attempted,
        );
        for f in &rep.failures {
            eprintln!("perfbench:   FAILED {f}");
        }
        reps.push(rep);
    }
    let column = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let wall = column(|r| r.wall_s);
    let mut attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.failures.clone()).collect();

    if !opts.trace {
        let setup = artifacts_setup.unwrap_or_else(|| column(|r| r.setup_s));
        // The peak of one repetition can vary (141 to 203 MiB across the
        // repetitions of one `fleet_loopback` run); the smallest peak is
        // what the work needs and repeats from run to run.
        let peak_rss = reps.iter().map(|r| r.peak_rss_mb).fold(f64::INFINITY, f64::min);
        let values = [wall, column(|r| r.cpu_s), peak_rss, setup];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric {
                name: name.to_string(),
                value,
                unit,
            })
            .collect();
        return Ok(Outcome {
            attempted,
            failures,
            metrics,
            table: None,
        });
    }

    let traced = match workload {
        Workload::ArtifactsDefault | Workload::ArtifactsSmoke => {
            let targets = artifacts::targets_for(opts.seed, None);
            child_rep(
                &env,
                workload.name(),
                opts.seed,
                &["--traced"],
                targets.len() as u64,
            )
        }
        Workload::CharacterizeDefault => characterize::parent_rep(&env, opts.seed, None, true),
        Workload::FleetLoopback => fleet::parent_rep(&env, opts.seed, None, true),
    };
    attempted += traced.attempted;
    failures.extend(traced.failures.iter().map(|f| format!("traced: {f}")));
    let mut values = traced.layers.clone();
    values.insert(
        "obs.trace_overhead_pct".to_string(),
        if wall > 0.0 {
            100.0 * (traced.wall_s - wall) / wall
        } else {
            0.0
        },
    );
    let table = layers::render(workload, &values);
    let metrics = layers::table()
        .into_iter()
        .map(|l| Metric {
            value: values.get(&l.name).copied().unwrap_or(0.0),
            name: l.name,
            unit: l.unit,
        })
        .collect();
    Ok(Outcome {
        attempted,
        failures,
        metrics,
        table: Some(table),
    })
}
