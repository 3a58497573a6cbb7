//! `fleet_loopback`: this process is the coordinator
//! ([`rh_bench::run_fleet`]) of one `repro serve` worker on 127.0.0.1,
//! running `temp_ranges` for 4 manufacturers x 4 modules at default
//! scale with the journal on.

use crate::golden::{self, Digests};
use crate::{child_rep, layers, sys, Env, Inject, Rep, BENCH_SEED};
use rh_bench::{run_fleet, run_fleet_local, FleetConfig};
use rh_core::fleet::FleetReport;
use rh_core::Scale;
use rh_obs::analyze::{analyze_journal, JournalFilter};
use rh_obs::{http_get, http_post, names, EventKind};
use std::collections::HashMap;
use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Modules per manufacturer: 16 jobs in all.
pub const MODULES_PER_MFR: usize = 4;
/// Job slots of the worker; at most this many jobs run at once. With
/// one, the worker's job and the coordinator each have a core, and the
/// wall time follows the jobs' CPU time. Two jobs at once on two cores
/// kept between 1.4 and 1.75 cores busy depending on machine load,
/// which spread the wall time three times as much as the CPU time.
pub const SLOTS: usize = 1;
/// Admission queue of the worker: with [`SLOTS`], room for every job,
/// so none is shed with 429 and a `Retry-After` back-off.
pub const QUEUE: usize = JOBS as usize - SLOTS;
/// Coordinator poll interval. At the default 100 ms, noticing commits
/// quantizes the run's wall time; 20 ms keeps that under a percent.
pub const POLL_MS: u64 = 20;

const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Jobs one run commits: 4 manufacturers x [`MODULES_PER_MFR`].
pub const JOBS: u64 = 4 * MODULES_PER_MFR as u64;

/// The workload's repetition as seen by the parent: one child process
/// that coordinates the fleet.
#[must_use]
pub fn parent_rep(env: &Env, seed: u64, inject: Option<Inject>, traced: bool) -> Rep {
    let mut extra = Vec::new();
    if let Some(i) = inject {
        extra.extend(["--inject", i.name()]);
    }
    if traced {
        extra.push("--traced");
    }
    child_rep(env, "fleet_loopback", seed, &extra, JOBS)
}

/// The coordinator configuration of the workload.
#[must_use]
pub fn config(worker: &str, journal: Option<PathBuf>) -> FleetConfig {
    FleetConfig {
        workers: vec![worker.to_string()],
        seed: BENCH_SEED,
        scale: Scale::Default,
        modules_per_mfr: MODULES_PER_MFR,
        workload: "temp_ranges".to_string(),
        poll_ms: POLL_MS,
        journal,
        ..FleetConfig::default()
    }
}

/// Per-module digest of a fleet report: the committed result plus its
/// replay token without the trace field (trace ids differ per run).
#[must_use]
pub fn result_digests(report: &FleetReport) -> Vec<(String, String)> {
    report
        .results
        .iter()
        .map(|(id, result)| {
            let token = report
                .outcomes
                .iter()
                .find(|o| &o.id == id)
                .and_then(|o| o.replay_token.as_deref())
                .map_or("", |t| t.rsplit_once(':').map_or(t, |(head, _)| head));
            (
                id.clone(),
                golden::digest(format!("{result}|{token}").as_bytes()),
            )
        })
        .collect()
}

/// Module ids of the job set, in input order.
fn job_ids() -> Vec<String> {
    rh_dram::Manufacturer::ALL
        .into_iter()
        .flat_map(|m| {
            (0..MODULES_PER_MFR).map(move |i| rh_bench::fleet_module_id(m, i, BENCH_SEED))
        })
        .collect()
}

/// A spawned `repro serve` worker.
struct Worker {
    child: Child,
    addr: String,
    drain: JoinHandle<()>,
}

/// Spawns the worker and waits until `/healthz` answers.
fn spawn_worker(repro: &Path) -> Result<Worker, String> {
    let mut child = Command::new(repro)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--slots",
            &SLOTS.to_string(),
            "--queue",
            &QUEUE.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn worker: {e}"))?;
    let Some(stderr) = child.stderr.take() else {
        let _ = child.kill();
        let _ = sys::reap(child);
        return Err("worker has no stderr pipe".to_string());
    };
    let mut reader = std::io::BufReader::new(stderr);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => {
                let _ = sys::reap(child);
                return Err("worker exited before announcing its address".to_string());
            }
        }
        if let Some(rest) = line.trim().strip_prefix("repro: worker serving on http://") {
            break rest.to_string();
        }
    };
    // Keep draining stderr so the worker never blocks on a full pipe.
    let drain = std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    let worker = Worker { child, addr, drain };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if matches!(http_get(&worker.addr, "/healthz", IO_TIMEOUT), Ok(r) if r.status == 200) {
            return Ok(worker);
        }
        if Instant::now() > deadline {
            let _ = stop_worker(worker);
            return Err("worker never answered /healthz".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Shuts the worker down (killing it if it does not answer) and reaps
/// it with its resource usage.
fn stop_worker(worker: Worker) -> Result<sys::Usage, String> {
    if http_post(&worker.addr, "/shutdown", "{}", IO_TIMEOUT).is_err() {
        let _ = sys::sigkill(worker.child.id());
    }
    let reaped = sys::reap(worker.child).map_err(|e| format!("cannot reap worker: {e}"));
    let _ = worker.drain.join();
    reaped.map(|(_, usage)| usage)
}

/// Sum of the samples of `name` in a Prometheus exposition.
fn exposition_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let metric = series.split('{').next()?;
            (metric == name)
                .then(|| value.parse::<f64>().ok())
                .flatten()
        })
        .fold(0.0, |a, b| a + b)
}

/// Mean started -> committed latency per lease in the journal, ms.
fn mean_job_ms(journal: &str) -> f64 {
    let events = rh_obs::stream::parse_events(journal).events;
    let started: HashMap<u64, u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::Started)
        .map(|e| (e.lease_id, e.ts_us))
        .collect();
    let spans: Vec<f64> = events
        .iter()
        .filter(|e| e.kind == EventKind::Committed)
        .filter_map(|e| Some(e.ts_us.saturating_sub(*started.get(&e.lease_id)?) as f64 / 1e3))
        .collect();
    if spans.is_empty() {
        0.0
    } else {
        spans.iter().sum::<f64>() / spans.len() as f64
    }
}

/// Kills the worker once the journal shows its first started job.
fn killer(pid: u32, journal: PathBuf) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline {
            let text = std::fs::read_to_string(&journal).unwrap_or_default();
            if rh_obs::stream::parse_events(&text)
                .events
                .iter()
                .any(|e| e.kind == EventKind::Started)
            {
                let _ = sys::sigkill(pid);
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    })
}

/// Failures of one fleet report: anything but a clean, first-try
/// commit of every job, plus digest differences from `golden`.
fn report_failures(report: &FleetReport, golden: &Digests) -> Vec<String> {
    let ids = job_ids();
    let mut failures = golden::check(golden, &ids, &result_digests(report));
    if report.redispatches > 0 {
        failures.push(format!("{} redispatch(es)", report.redispatches));
    }
    if report.quarantined > 0 {
        failures.push(format!("{} module(s) quarantined", report.quarantined));
    }
    if report.degraded {
        failures.push(format!("degraded: {} worker(s) lost", report.workers_lost));
    }
    failures.truncate(ids.len());
    failures
}

/// One repetition, in this (fresh) process.
#[must_use]
pub fn child(env: &Env, traced: bool, inject: Option<Inject>, golden: &Digests) -> Rep {
    let journal = env
        .scratch
        .join(format!("journal-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal);

    let setup = Instant::now();
    let worker = match spawn_worker(&env.repro) {
        Ok(w) => w,
        Err(e) => return Rep::all_failed(JOBS, &e),
    };
    let setup_s = setup.elapsed().as_secs_f64();

    let recorder = traced.then(layers::install_recorder);
    let kill =
        (inject == Some(Inject::KillWorker)).then(|| killer(worker.child.id(), journal.clone()));
    let self0 = sys::self_usage().cpu_s;
    let started = Instant::now();
    let outcome = run_fleet(&config(&worker.addr, Some(journal.clone())));
    let wall_s = started.elapsed().as_secs_f64();
    let coordinator = sys::self_usage();
    if let Some(k) = kill {
        let _ = k.join();
    }

    let mut rep = Rep {
        setup_s,
        wall_s,
        attempted: JOBS,
        ..Rep::default()
    };
    let exposition = if traced {
        http_get(&worker.addr, "/metrics", IO_TIMEOUT)
            .map(|r| r.body)
            .unwrap_or_default()
    } else {
        String::new()
    };
    match stop_worker(worker) {
        Ok(w) => {
            rep.cpu_s = coordinator.cpu_s - self0 + w.cpu_s;
            rep.peak_rss_mb = (coordinator.peak_rss_kb + w.peak_rss_kb) as f64 / 1024.0;
        }
        Err(e) => rep.failures.push(e),
    }
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            let _ = std::fs::remove_file(&journal);
            return Rep {
                failures: vec![format!("fleet: {e}"); JOBS as usize],
                ..rep
            };
        }
    };
    rep.failures.extend(report_failures(&report, golden));
    rep.failures.truncate(JOBS as usize);

    if let Some(recorder) = recorder {
        rh_obs::uninstall();
        let text = std::fs::read_to_string(&journal).unwrap_or_default();
        let filter = JournalFilter::default();
        let jobs_lat = analyze_journal(&text, &filter, EventKind::Started, EventKind::Committed);
        let queue_lat = analyze_journal(&text, &filter, EventKind::Accepted, EventKind::Started);
        // The in-process oracle over the same job set, timed: its
        // results must equal the fleet's.
        let t = Instant::now();
        let local = run_fleet_local(&config("local", None));
        let execute_s = t.elapsed().as_secs_f64();
        match local {
            Ok(local) if result_digests(&local) == result_digests(&report) => {}
            Ok(_) => rep
                .failures
                .push("fleet results differ from run_fleet_local".to_string()),
            Err(e) => rep.failures.push(format!("run_fleet_local: {e}")),
        }
        let dispatches = recorder.counter_value(names::FLEET_DISPATCH) as f64;
        let commits = recorder.counter_value(names::FLEET_COMMIT) as f64;
        let worker_count =
            |n: &str| exposition_value(&exposition, &rh_obs::export::sanitize_metric_name(n));
        let worker_s = |n: &str| worker_count(&format!("{n}_sum")) / 1e9;
        for (name, value) in [
            ("fleet.job_p50_ms", jobs_lat.latency.p50_us as f64 / 1e3),
            ("fleet.job_max_ms", jobs_lat.latency.max_us as f64 / 1e3),
            ("fleet.queue_p50_ms", queue_lat.latency.p50_us as f64 / 1e3),
            ("worker.execute_s", execute_s),
            (
                "fleet.overhead_per_job_ms",
                mean_job_ms(&text) - execute_s * 1e3 / JOBS as f64,
            ),
            (
                "fleet.commit_ratio",
                if dispatches > 0.0 {
                    commits / dispatches
                } else {
                    0.0
                },
            ),
            ("obs.http.requests", worker_count(names::OBS_HTTP_REQUESTS)),
            (
                "worker.events.polls",
                worker_count(names::WORKER_EVENTS_POLLS),
            ),
            ("dram.row_read.calls", worker_count(names::DRAM_ROW_READ)),
            ("dram.row_write.calls", worker_count(names::DRAM_ROW_WRITE)),
            ("dram.row_read_s", worker_s(names::DRAM_ROW_READ_NS)),
            ("dram.row_write_s", worker_s(names::DRAM_ROW_WRITE_NS)),
            ("dram.hammer_s", worker_s(names::DRAM_HAMMER_NS)),
            (
                "faultmodel.row_derive.calls",
                worker_count(names::FAULTMODEL_ROW_DERIVE),
            ),
            (
                "faultmodel.surface_build.calls",
                worker_count(names::FAULTMODEL_SURFACE_BUILD),
            ),
            (
                "faultmodel.early_out.calls",
                worker_count(names::FAULTMODEL_EVAL_EARLY_OUT),
            ),
            (
                "faultmodel.cells_hit_ratio",
                layers::hit_ratio(
                    worker_count(names::FAULTMODEL_CELLS_GLOBAL_HIT),
                    worker_count(names::FAULTMODEL_ROW_DERIVE),
                ),
            ),
        ] {
            rep.layers.insert(name.to_string(), value);
        }
    }
    let _ = std::fs::remove_file(&journal);
    rep
}
