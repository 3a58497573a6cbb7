//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--scale smoke|default|paper] [--seed N] [--modules N] [--json] [--out DIR]
//!       [--fault-scenario NAME|FILE.json] [--fault-seed N] [--max-attempts N]
//!       [--checkpoint PREFIX] [--resume]
//!       [--max-workers N] [--deadline-ms N] [--fail-fast]
//!       [--trace-out FILE.jsonl] [--metrics-out FILE.json] <target>...
//! repro all           # everything, in paper order
//! repro --list        # available targets
//! repro --soak N      # chaos-soak: N randomized fault campaigns
//! repro analyze TRACE.jsonl [--metrics METRICS.json] [--folded OUT.folded] [--top N]
//! repro serve [--addr ADDR] [--slots N] [--queue N] [--retry-after SECS]
//!             [--net-fault-scenario NAME|FILE.json] [--net-fault-seed N]
//! repro fleet [--worker ADDR]... [--spawn N] [--seed N] [--scale S] [--modules N]
//!             [--workload NAME] [--lease-ms N] [--poll-ms N] [--max-attempts N]
//!             [--checkpoint FILE] [--resume] [--json]
//!             [--net-fault-scenario NAME|FILE.json] [--net-fault-seed N]
//!             [--metrics-out FILE.json] [--trace-dir DIR] [--journal FILE.jsonl]
//! repro analyze --fleet TRACE_DIR    # stitch a multi-process fleet trace
//! repro analyze replay TOKEN         # re-execute one committed job and diff
//! repro analyze journal JOURNAL.jsonl [--worker ADDR] [--module ID] [--kind KIND]
//!             [--from KIND] [--to KIND]
//! ```
//!
//! `repro fleet --journal FILE.jsonl` writes the durable fleet
//! journal: the coordinator scrapes every worker's `GET /events`
//! stream (per-job lifecycle events with per-worker monotone sequence
//! numbers) with a per-worker resume cursor and appends each event —
//! deduplicated by `(lease_id, seq)`, so at-least-once delivery
//! becomes an exactly-once journal — as one worker-attributed JSONL
//! line. Terminal events additionally ride the worker's Done/Failed
//! poll reply, so a job's outcome is journaled even if the worker is
//! killed before its stream is scraped again. `repro analyze journal`
//! queries the journal offline. See DESIGN.md §15.
//!
//! `repro fleet --trace-dir DIR` records a causal distributed trace of
//! the run: the coordinator opens a `fleet.run` root span, every
//! dispatch RPC carries a W3C-style `Traceparent` header, workers run
//! each job under a `worker.job` span and ship their bounded per-job
//! JSONL segment back with the result, and the coordinator writes
//! `DIR/coordinator.jsonl` plus one `DIR/segment-<lease>.jsonl` per
//! committed job. `repro analyze --fleet DIR` stitches the segments
//! into one cross-process span tree (normalizing per-worker clock skew
//! from the poll's request/response bracket and flagging orphan spans
//! from killed workers). Every committed job is stamped with a replay
//! token (printed as `replay <module> rtv1:...` and carried in the
//! JSON report); `repro analyze replay <token>` re-executes that job
//! single-process and verifies the result hash bit-for-bit. See
//! DESIGN.md §14.
//!
//! `repro analyze` reconstructs the span tree of a `--trace-out` JSONL
//! file, prints per-phase and hot-span breakdowns (plus counter rates
//! when `--metrics` is given), and can emit a flamegraph-compatible
//! folded-stack file via `--folded`. Timing is not measured here: the
//! `perfbench` package (`BENCHMARK.json`) times this binary end to end.
//!
//! `--out DIR` additionally writes `<target>.txt` and `<target>.json`
//! into DIR for downstream plotting.
//!
//! `--trace-out` installs the observability recorder and writes every
//! span/event as one JSONL line; `--metrics-out` writes the end-of-run
//! metrics snapshot (counters, gauges, span statistics). Either flag
//! alone enables recording; both files come from the same recorder, so
//! one run can emit both. A failed run still exports its partial trace.
//! On `repro fleet`, `--metrics-out` writes the coordinator's counters
//! (dispatches, breaker trips, injected network faults, journal
//! events) and its `campaign.progress.*` gauges.
//!
//! `repro serve` starts a fleet worker: an HTTP job server that
//! executes characterization jobs submitted by a `repro fleet`
//! coordinator (POST `/job`, polled via GET `/job?lease=N`) next to
//! the usual `/metrics`, `/progress`, and `/healthz` endpoints. The
//! bound address is announced on stderr as `worker serving on
//! http://...`. `repro fleet` runs the coordinator: it leases one job
//! per module to the given (`--worker`) or spawned (`--spawn N`)
//! workers, treats the poll as a heartbeat, re-dispatches expired
//! leases with bounded backoff, commits exactly one result per module
//! (late zombie replies are rejected), and with `--checkpoint` +
//! `--resume` survives its own crash by re-running only in-flight
//! leases. See DESIGN.md §11 for the lease state machine. `--workload`
//! names the experiment every module runs: any entry of
//! `rh_bench::EXPERIMENTS` (the usage text lists them; DESIGN.md §16).
//!
//! `--net-fault-scenario` arms seeded *network* chaos (a
//! `NetFaultPlan` preset — `none`, `flaky-link`, `slow-link`,
//! `lossy-link`, `chaos` — or a JSON file): on `repro fleet` it
//! injects connection refusals, delays, drip-feeds, truncations,
//! duplicated replies, and corrupted status lines into the
//! coordinator's client I/O; on `repro serve` it mutilates the
//! worker's replies. Per-worker circuit breakers
//! (closed/open/half-open, then eviction) keep a chaotic run
//! converging: persistently failing workers stop receiving dispatches
//! and their leases re-dispatch to healthy ones. When losses leave
//! modules uncommitted the fleet report is flagged `DEGRADED` (and
//! the run exits nonzero) instead of wedging. `--queue` bounds a
//! worker's admission queue; overflow is shed with `429` +
//! `Retry-After`.
//!
//! `--fault-scenario` arms deterministic fault injection on every
//! module of campaign-backed targets: a preset name (`none`,
//! `flaky-host`, `thermal`, `dead-module`, `hung-module`, `chaos`) or a
//! path to a serialized `FaultPlan` JSON. `--checkpoint PREFIX`
//! persists per-target campaign state to `PREFIX-<target>.json`;
//! rerunning with `--resume` skips already-completed modules, while
//! without it any stale checkpoint files are removed first.
//!
//! Targets run concurrently and print in request order. `--max-workers`
//! is the width of the one worker budget every target shares (default:
//! one per core): a campaign module or a non-campaign target holds one
//! slot while it runs, and a target waiting for its modules or for
//! another target's shared experiment holds none, so at most that many
//! run at once; width 1 runs them one at a time. The first failing
//! target stops the run: nothing after it prints. `--deadline-ms` arms
//! the watchdog that quarantines modules overrunning their wall-clock
//! budget, counted from when the module holds its slot; `--fail-fast`
//! cancels the rest of a campaign on its first quarantine or timeout.
//!
//! SIGINT/SIGTERM cancel the run cooperatively: in-flight modules
//! unwind at their next command boundary, the checkpoint and any
//! observability trace are flushed, and a rerun with `--resume`
//! continues exactly the unfinished modules. The exit code is nonzero
//! whenever any campaign reports quarantined, timed-out, or cancelled
//! modules.

use rh_bench::{run_soak_tracked, run_targets, targets, ObsSetup, RunConfig};
use rh_core::{CharError, ExecutorConfig, Scale};
use rh_obs::analyze;
use rh_softmc::FaultPlan;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale smoke|default|paper] [--seed N] [--modules N] [--json] [--out DIR]\n\
         \x20            [--fault-scenario NAME|FILE.json] [--fault-seed N] [--max-attempts N]\n\
         \x20            [--checkpoint PREFIX] [--resume]\n\
         \x20            [--max-workers N] [--deadline-ms N] [--fail-fast]\n\
         \x20            [--trace-out FILE.jsonl] [--metrics-out FILE.json] <target>... | --soak N\n\
         \x20      repro analyze TRACE.jsonl [--metrics FILE.json] [--folded OUT] [--top N] [--lenient]\n\
         \x20      repro analyze --fleet TRACE_DIR [--folded OUT] [--top N]\n\
         \x20      repro analyze replay TOKEN\n\
         \x20      repro analyze journal JOURNAL.jsonl [--worker ADDR] [--module ID]\n\
         \x20            [--kind KIND] [--from KIND] [--to KIND]\n\
         \x20      repro serve [--addr ADDR] [--slots N] [--queue N] [--retry-after SECS]\n\
         \x20            [--net-fault-scenario NAME|FILE.json] [--net-fault-seed N]\n\
         \x20      repro fleet [--worker ADDR]... [--spawn N] [--seed N] [--scale S]\n\
         \x20            [--modules N] [--workload NAME] [--lease-ms N] [--poll-ms N]\n\
         \x20            [--max-attempts N] [--checkpoint FILE] [--resume] [--json]\n\
         \x20            [--net-fault-scenario NAME|FILE.json] [--net-fault-seed N]\n\
         \x20            [--metrics-out FILE.json] [--trace-dir DIR] [--journal FILE.jsonl]\n\
         fault scenarios: none | flaky-host | thermal | dead-module | hung-module | chaos | <plan.json>\n\
         net-fault scenarios: none | flaky-link | slow-link | lossy-link | chaos | <plan.json>\n\
         targets: {} | defense-matrix | all\n\
         fleet workloads: {}",
        targets().join(" | "),
        rh_bench::EXPERIMENTS.map(|(name, _)| name).join(" | ")
    );
    std::process::exit(2);
}

/// `repro analyze`: reconstruct and report on a JSONL trace, stitch a
/// fleet trace directory (`--fleet`), or re-execute a replay token
/// (`analyze replay <token>`).
fn analyze_main(args: impl Iterator<Item = String>) -> ExitCode {
    let argv: Vec<String> = args.collect();
    if argv.first().map(String::as_str) == Some("replay") {
        return replay_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("journal") {
        return journal_main(&argv[1..]);
    }
    let mut args = argv.into_iter();
    let mut trace: Option<PathBuf> = None;
    let mut fleet_dir: Option<PathBuf> = None;
    let mut metrics: Option<PathBuf> = None;
    let mut folded: Option<PathBuf> = None;
    let mut top = 15usize;
    let mut lenient = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fleet" => match args.next() {
                Some(d) => fleet_dir = Some(PathBuf::from(d)),
                None => usage(),
            },
            "--metrics" => match args.next() {
                Some(p) => metrics = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--folded" => match args.next() {
                Some(p) => folded = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--top" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => top = n,
                _ => usage(),
            },
            "--lenient" => lenient = true,
            other if other.starts_with('-') => usage(),
            other if trace.is_none() => trace = Some(PathBuf::from(other)),
            _ => usage(),
        }
    }
    let counters = match &metrics {
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| analyze::parse_metrics_counters(&t))
        {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("repro analyze: metrics {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    // Fleet mode: stitch coordinator + worker segments into one tree.
    if let Some(dir) = &fleet_dir {
        if trace.is_some() {
            usage();
        }
        let stitch = match analyze::analyze_fleet_dir(dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("repro analyze: fleet {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        };
        print!("{}", analyze::render_fleet_report(&stitch));
        let analysis = stitch.to_analysis();
        print!("\n{}", analyze::render_report(&analysis, counters.as_ref(), top));
        if let Some(path) = &folded {
            if let Err(e) = std::fs::write(path, analysis.folded_stacks()) {
                eprintln!("repro analyze: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("analyze: wrote folded stacks to {}", path.display());
        }
        if stitch.roots.is_empty() {
            eprintln!("repro analyze: fleet trace has no stitched root");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let Some(trace) = trace else { usage() };
    let jsonl = match std::fs::read_to_string(&trace) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("repro analyze: cannot read {}: {e}", trace.display());
            return ExitCode::FAILURE;
        }
    };
    // Strict by default: a truncated/corrupt record is a hard error
    // with its line number, not a silently smaller tree.
    let parsed = if lenient {
        analyze::analyze_trace(&jsonl)
    } else {
        analyze::analyze_trace_strict(&jsonl)
    };
    let analysis = match parsed {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repro analyze: {}: {e}", trace.display());
            return ExitCode::FAILURE;
        }
    };
    print!("{}", analyze::render_report(&analysis, counters.as_ref(), top));
    if let Some(path) = &folded {
        if let Err(e) = std::fs::write(path, analysis.folded_stacks()) {
            eprintln!("repro analyze: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("analyze: wrote folded stacks to {}", path.display());
    }
    if analysis.span_count == 0 {
        eprintln!("repro analyze: trace contains no spans");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `repro analyze replay <token>`: re-execute one committed fleet job
/// single-process from its replay token and diff the result hash
/// bit-for-bit.
fn replay_main(argv: &[String]) -> ExitCode {
    let [token_str] = argv else { usage() };
    let token = match rh_core::ReplayToken::parse(token_str) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("repro analyze replay: bad token: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match rh_bench::JobSpec::from_replay(&token) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("repro analyze replay: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "replay: {} {} index {} seed {} scale {} (run under net-plan {} seed {}, trace {:032x})",
        token.workload, token.mfr, token.index, token.seed, token.scale,
        token.net_plan, token.net_seed, token.trace_id,
    );
    // Single-process, fault-free: the job itself is deterministic in
    // its spec, so the net-fault posture of the original run must not
    // change the committed bits.
    let result = match spec.execute(&rh_softmc::CancelToken::new()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro analyze replay: execution failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let got = rh_core::fnv1a64(result.to_string().as_bytes());
    if got == token.result_hash {
        println!(
            "replay OK: result hash {got:016x} matches the committed token (bit-identical)"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "replay MISMATCH: token committed {:016x}, re-execution produced {got:016x}",
            token.result_hash
        );
        ExitCode::FAILURE
    }
}

/// `repro analyze journal <journal.jsonl>`: offline queries over the
/// fleet journal a `repro fleet --journal` run wrote — per-kind /
/// worker / module counts, an exactly-once sanity check, and latency
/// percentiles between an event pair (default `started -> committed`).
fn journal_main(argv: &[String]) -> ExitCode {
    let parse_kind = |spec: Option<String>| -> rh_obs::EventKind {
        match spec.as_deref().and_then(rh_obs::EventKind::parse) {
            Some(k) => k,
            None => {
                eprintln!(
                    "repro analyze journal: event kinds: {}",
                    rh_obs::EventKind::ALL.map(|k| k.as_str()).join(" | ")
                );
                usage()
            }
        }
    };
    let mut args = argv.iter().cloned();
    let mut path: Option<PathBuf> = None;
    let mut filter = analyze::JournalFilter::default();
    let mut from = rh_obs::EventKind::Started;
    let mut to = rh_obs::EventKind::Committed;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--worker" => match args.next() {
                Some(w) => filter.worker = Some(w),
                None => usage(),
            },
            "--module" => match args.next() {
                Some(m) => filter.module = Some(m),
                None => usage(),
            },
            "--kind" => filter.kind = Some(parse_kind(args.next())),
            "--from" => from = parse_kind(args.next()),
            "--to" => to = parse_kind(args.next()),
            other if other.starts_with('-') => usage(),
            other if path.is_none() => path = Some(PathBuf::from(other)),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("repro analyze journal: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let a = analyze::analyze_journal(&text, &filter, from, to);
    print!("{}", analyze::render_journal_report(&a));
    if a.total == 0 && a.skipped == 0 && a.leases == 0 {
        eprintln!("repro analyze journal: {} contains no events", path.display());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `repro serve`: run a fleet worker until shut down (POST
/// `/shutdown`, SIGINT, or SIGTERM).
fn serve_main(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut cfg = rh_bench::WorkerConfig::default();
    let mut net_fault: Option<String> = None;
    let mut net_fault_seed: Option<u64> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => match args.next() {
                Some(addr) => cfg.addr = addr,
                None => usage(),
            },
            "--slots" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => cfg.slots = n,
                _ => usage(),
            },
            "--queue" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => cfg.queue_depth = n,
                None => usage(),
            },
            "--retry-after" => match args.next().and_then(|s| s.parse().ok()) {
                Some(secs) => cfg.retry_after_secs = secs,
                None => usage(),
            },
            "--net-fault-scenario" => match args.next() {
                Some(spec) => net_fault = Some(spec),
                None => usage(),
            },
            "--net-fault-seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(seed) => net_fault_seed = Some(seed),
                None => usage(),
            },
            _ => usage(),
        }
    }
    if let Some(spec) = net_fault {
        let preset = rh_obs::NetFaultPlan::preset(&spec, net_fault_seed.unwrap_or(0));
        match load_plan("net-fault scenario", &spec, preset) {
            Ok(plan) => cfg.fault = Some(plan),
            Err(e) => {
                eprintln!("repro serve: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    interrupt::install();
    interrupt::cancel_on_signal(&cfg.cancel);
    match rh_bench::run_worker(&cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro fleet`: run the lease-based coordinator over a set of
/// workers and print the fleet report.
fn fleet_main(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut cfg = rh_bench::FleetConfig::default();
    let mut resume = false;
    let mut json = false;
    let mut metrics_out: Option<PathBuf> = None;
    let mut net_fault: Option<String> = None;
    let mut net_fault_seed: Option<u64> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--worker" => match args.next() {
                Some(addr) => cfg.workers.push(addr),
                None => usage(),
            },
            "--spawn" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => cfg.spawn_workers = n,
                _ => usage(),
            },
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => cfg.seed = s,
                None => usage(),
            },
            "--scale" => cfg.scale = parse_scale(args.next()),
            "--modules" => match args.next().and_then(|s| s.parse().ok()) {
                Some(m) if m >= 1 => cfg.modules_per_mfr = m,
                _ => usage(),
            },
            "--workload" => match args.next() {
                Some(w) if rh_bench::experiment(&w).is_some() => cfg.workload = w,
                _ => usage(),
            },
            "--lease-ms" => match args.next().and_then(|s| s.parse().ok()) {
                Some(ms) if ms >= 1 => cfg.lease_ms = ms,
                _ => usage(),
            },
            "--poll-ms" => match args.next().and_then(|s| s.parse().ok()) {
                Some(ms) if ms >= 1 => cfg.poll_ms = ms,
                _ => usage(),
            },
            "--max-attempts" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => cfg.retry.max_attempts = n,
                _ => usage(),
            },
            "--checkpoint" => match args.next() {
                Some(p) => cfg.checkpoint = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--resume" => resume = true,
            "--json" => json = true,
            "--trace-dir" => match args.next() {
                Some(d) => cfg.trace_dir = Some(PathBuf::from(d)),
                None => usage(),
            },
            "--journal" => match args.next() {
                Some(p) => cfg.journal = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--net-fault-scenario" => match args.next() {
                Some(spec) => net_fault = Some(spec),
                None => usage(),
            },
            "--net-fault-seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(seed) => net_fault_seed = Some(seed),
                None => usage(),
            },
            "--metrics-out" => match args.next() {
                Some(p) => metrics_out = Some(PathBuf::from(p)),
                None => usage(),
            },
            _ => usage(),
        }
    }
    if let Some(spec) = net_fault {
        // Default the chaos seed to the run seed so a chaos run is
        // replayable from its command line alone.
        let preset = rh_obs::NetFaultPlan::preset(&spec, net_fault_seed.unwrap_or(cfg.seed));
        match load_plan("net-fault scenario", &spec, preset) {
            Ok(plan) => {
                cfg.net_fault = Some(plan);
                // Replay tokens record the scenario by its CLI name.
                cfg.net_fault_name = Some(spec);
            }
            Err(e) => {
                eprintln!("repro fleet: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &cfg.checkpoint {
        if !resume && path.exists() {
            // Same hygiene as campaign checkpoints: a fresh run must
            // not inherit stale state.
            if let Err(e) = std::fs::remove_file(path) {
                eprintln!("repro fleet: cannot clear checkpoint {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    interrupt::install();
    interrupt::cancel_on_signal(&cfg.cancel);
    let obs = ObsSetup::new(None, metrics_out);
    cfg.progress = obs.progress();
    // Reuse the --metrics-out recorder for trace capture when one is
    // up; otherwise run_fleet installs a private one for --trace-dir.
    cfg.trace_recorder = obs.recorder_handle();
    let outcome = rh_bench::run_fleet(&cfg);
    let mut code = match &outcome {
        Ok(report) => {
            if json {
                match serde_json::to_value(report) {
                    Ok(v) => println!("{v}"),
                    Err(e) => {
                        eprintln!("repro fleet: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                print!("{}", rh_bench::fleet_text(report));
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                eprintln!("repro fleet: not clean ({})", report.summary_line());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("repro fleet: {e}");
            ExitCode::FAILURE
        }
    };
    if let Err(e) = obs.finish() {
        eprintln!("repro fleet: failed to write metrics: {e}");
        code = ExitCode::FAILURE;
    }
    code
}

/// Resolves `--fault-scenario` or `--net-fault-scenario`: the named
/// `preset`, or else the plan in the JSON file at `spec`.
fn load_plan<P: serde::Deserialize>(what: &str, spec: &str, preset: Option<P>) -> Result<P, String> {
    if let Some(plan) = preset {
        return Ok(plan);
    }
    let raw = std::fs::read_to_string(spec)
        .map_err(|e| format!("{what} '{spec}': not a preset and unreadable: {e}"))?;
    serde_json::from_str(&raw).map_err(|e| format!("{what} '{spec}': bad JSON: {e}"))
}

/// Async-signal-safe interrupt latch: the handler only sets an atomic;
/// a monitor thread translates it into a cooperative token
/// cancellation, and the target loop stops dispatching new work.
mod interrupt {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static FIRED: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    extern "C" fn handle(_signum: i32) {
        FIRED.store(true, Ordering::SeqCst);
    }

    #[cfg(unix)]
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        let h: extern "C" fn(i32) = handle;
        // SIGINT = 2, SIGTERM = 15.
        unsafe {
            signal(2, h as usize);
            signal(15, h as usize);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}

    /// Starts the monitor thread that turns the latch into a
    /// cooperative cancellation of `token`.
    pub fn cancel_on_signal(token: &rh_softmc::CancelToken) {
        let token = token.clone();
        std::thread::spawn(move || loop {
            if FIRED.load(Ordering::SeqCst) {
                token.cancel();
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        });
    }
}

/// glibc's malloc gives each thread that allocates an arena of its own,
/// up to 8 per core, and an arena keeps the memory its threads free.
/// Concurrent targets run on many short-lived threads, which spread a
/// run's allocations over a dozen arenas and raise its peak RSS by up to
/// a tenth; one arena per worker slot, plus the main thread's, keeps it
/// at the serial run's.
mod malloc {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    pub fn cap_arenas(arenas: usize) {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        /// glibc's `M_ARENA_MAX` parameter.
        const M_ARENA_MAX: i32 = -8;
        // Sets one allocator parameter; no memory is touched.
        unsafe {
            mallopt(M_ARENA_MAX, i32::try_from(arenas).unwrap_or(i32::MAX));
        }
    }

    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    pub fn cap_arenas(_arenas: usize) {}
}

/// The value of `--scale`: `smoke`, `default` or `paper`.
fn parse_scale(arg: Option<String>) -> Scale {
    match arg.as_deref() {
        Some("smoke") => Scale::Smoke,
        Some("default") => Scale::Default,
        Some("paper") => Scale::Paper,
        _ => usage(),
    }
}

fn main() -> ExitCode {
    let mut cfg = RunConfig::default();
    let mut json = false;
    let mut out_dir: Option<PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut scenario: Option<String> = None;
    let mut fault_seed: Option<u64> = None;
    let mut resume = false;
    let mut trace_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut soak: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    // Subcommands dispatch on the first argument; everything else
    // keeps the original flag-driven target interface.
    match std::env::args().nth(1).as_deref() {
        Some("analyze") => return analyze_main(args.skip(1)),
        Some("serve") => return serve_main(args.skip(1)),
        Some("fleet") => return fleet_main(args.skip(1)),
        _ => {}
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => cfg.scale = parse_scale(args.next()),
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => cfg.seed = s,
                None => usage(),
            },
            "--modules" => match args.next().and_then(|s| s.parse().ok()) {
                Some(m) => cfg.modules_per_mfr = m,
                None => usage(),
            },
            "--json" => json = true,
            "--out" => match args.next() {
                Some(d) => out_dir = Some(PathBuf::from(d)),
                None => usage(),
            },
            "--fault-scenario" => match args.next() {
                Some(s) => scenario = Some(s),
                None => usage(),
            },
            "--fault-seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => fault_seed = Some(s),
                None => usage(),
            },
            "--max-attempts" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => cfg.retry.max_attempts = n,
                _ => usage(),
            },
            "--checkpoint" => match args.next() {
                Some(p) => cfg.checkpoint = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--resume" => resume = true,
            "--max-workers" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => cfg.max_workers = Some(n),
                _ => usage(),
            },
            "--deadline-ms" => match args.next().and_then(|s| s.parse().ok()) {
                Some(ms) if ms >= 1 => cfg.deadline_ms = Some(ms),
                _ => usage(),
            },
            "--fail-fast" => cfg.fail_fast = true,
            "--soak" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => soak = Some(n),
                _ => usage(),
            },
            "--trace-out" => match args.next() {
                Some(p) => trace_out = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--metrics-out" => match args.next() {
                Some(p) => metrics_out = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--list" => {
                for t in targets() {
                    println!("{t}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => wanted.push(other.to_string()),
        }
    }
    interrupt::install();

    // Chaos-soak mode: N seed-randomized fault campaigns, each checked
    // against the supervisor's invariants (see `rh_bench::soak`).
    if let Some(n) = soak {
        if !wanted.is_empty() {
            usage();
        }
        let dir = out_dir.unwrap_or_else(std::env::temp_dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("repro --soak: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let obs = ObsSetup::new(trace_out, metrics_out);
        let tracker = obs.progress();
        let base = cfg.seed;
        let report =
            run_soak_tracked(base..base + n, &dir, |line| println!("{line}"), tracker.as_ref());
        println!("{}", report.summary_line());
        let mut code =
            if report.all_passed() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
        if let Err(e) = obs.finish() {
            eprintln!("repro: failed to write trace/metrics: {e}");
            code = ExitCode::FAILURE;
        }
        return code;
    }

    if wanted.is_empty() {
        usage();
    }
    if wanted.iter().any(|w| w == "all") {
        wanted = targets().iter().map(|s| s.to_string()).collect();
        wanted.push("defense-matrix".to_string());
    }
    if let Some(spec) = &scenario {
        let preset = FaultPlan::preset(spec, fault_seed.unwrap_or(cfg.seed));
        match load_plan("fault scenario", spec, preset) {
            Ok(plan) => cfg.faults = Some(plan),
            Err(e) => {
                eprintln!("repro: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(prefix) = &cfg.checkpoint {
        if !resume {
            // A fresh (non-resumed) run must not inherit stale state.
            for t in &wanted {
                let path = PathBuf::from(format!("{}-{t}.json", prefix.display()));
                if path.exists() {
                    if let Err(e) = std::fs::remove_file(&path) {
                        eprintln!("repro: cannot clear checkpoint {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }

    // In-flight campaign modules unwind at their next command boundary
    // and checkpoint as cancelled-free state.
    interrupt::cancel_on_signal(&cfg.cancel);

    let obs = ObsSetup::new(trace_out, metrics_out);
    cfg.progress = obs.progress();
    let mut code = ExitCode::SUCCESS;
    let wanted: Vec<&str> = wanted.iter().map(String::as_str).collect();
    let width = cfg.max_workers.unwrap_or_else(|| ExecutorConfig::default().max_workers);
    malloc::cap_arenas(width + 1);
    run_targets(&wanted, &cfg, |t, ran| {
        let out = match ran {
            Ok(out) => out,
            Err(CharError::WorkerPanicked { .. }) => {
                eprintln!("repro {t}: panicked; flushing trace and exiting");
                code = ExitCode::FAILURE;
                return false;
            }
            Err(e) => {
                eprintln!("repro {t}: {e}");
                code = ExitCode::FAILURE;
                return false;
            }
        };
        if let Some(dir) = &out_dir {
            if let Err(e) = std::fs::create_dir_all(dir)
                .and_then(|_| std::fs::write(dir.join(format!("{t}.txt")), &out.text))
                .and_then(|_| {
                    std::fs::write(
                        dir.join(format!("{t}.json")),
                        serde_json::to_vec_pretty(&out.data).unwrap_or_default(),
                    )
                })
            {
                eprintln!("repro {t}: failed to write output files: {e}");
                code = ExitCode::FAILURE;
                return false;
            }
        }
        if json {
            println!("{}", serde_json::json!({"target": out.target, "data": out.data}));
        } else {
            println!("==== {} ====", out.target);
            println!("{}", out.text);
        }
        // Exit-code hygiene: a "successful" run with quarantined,
        // timed-out, or cancelled modules is not a clean reproduction.
        if let Some(report) = &out.report {
            if !report.is_clean() {
                eprintln!("repro {t}: campaign not clean ({})", report.summary_line());
                code = ExitCode::FAILURE;
            }
        }
        if interrupt::FIRED.load(Ordering::SeqCst) {
            eprintln!("repro: interrupted — checkpoints flushed; rerun with --resume to continue");
            code = ExitCode::FAILURE;
            return false;
        }
        true
    });
    // Export even a failed run's partial trace — that's the run most
    // worth diagnosing.
    if let Err(e) = obs.finish() {
        eprintln!("repro: failed to write trace/metrics: {e}");
        code = ExitCode::FAILURE;
    }
    code
}
