//! Chaos-hardened fleet transport, end to end:
//!
//! * a seeded `flaky-link` plan injects connection refusals, delays,
//!   truncations, and duplicated replies into every coordinator-side
//!   request while one worker is SIGKILLed mid-run — the fleet must
//!   still converge to a clean report, bit-identical to the
//!   fault-free in-process oracle, with nonzero injected faults and
//!   nonzero breaker trips observable through the metrics recorder;
//! * a permanently dead worker (nothing ever listens on its address)
//!   must end in a *degraded partial* report once its breaker is
//!   evicted — never a wedged coordinator;
//! * a dispatch whose reply is lost after the worker took the job is
//!   settled by polling that worker, never by running the job again
//!   elsewhere.

use rh_bench::{run_fleet, run_fleet_local, FleetConfig};
use rh_core::fleet::BreakerPolicy;
use rh_core::Scale;
use rh_obs::{http_get, names};
use serde::Value;
use std::collections::BTreeSet;
use std::io::{BufRead, Read as _, Write as _};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

const GET_TIMEOUT: Duration = Duration::from_secs(2);

/// Both tests install process-global state (the metrics recorder; the
/// net-fault injector inside `run_fleet`), so they must not overlap.
static GLOBALS: Mutex<()> = Mutex::new(());

fn globals() -> MutexGuard<'static, ()> {
    match GLOBALS.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Kills the child on drop so a failed assertion never leaks a
/// worker process.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns a `repro serve` worker on a free port and returns it with
/// the address parsed from its announce line.
fn spawn_worker(slots: usize) -> (ChildGuard, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--addr", "127.0.0.1:0", "--slots", &slots.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro serve");
    let stderr = child.stderr.take().expect("stderr is piped");
    let mut reader = std::io::BufReader::new(stderr);
    let mut addr = None;
    let mut line = String::new();
    while reader.read_line(&mut line).expect("read worker stderr") != 0 {
        if let Some(rest) = line.trim().strip_prefix("repro: worker serving on http://") {
            addr = Some(rest.to_string());
            break;
        }
        line.clear();
    }
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = std::io::Read::read_to_string(&mut reader, &mut sink);
    });
    (ChildGuard(child), addr.expect("worker must announce its address"))
}

/// Reads one counter sample from a worker's `/metrics`, retrying
/// through injected client-side faults (the global injector mutilates
/// these scrapes too — that is the point of the chaos plan).
fn scrape_counter_through_chaos(addr: &str, name: &str) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(resp) = http_get(addr, "/metrics", GET_TIMEOUT) {
            if resp.status == 200 {
                return resp
                    .body
                    .lines()
                    .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.trim().parse().ok()))
                    .unwrap_or(0);
            }
        }
        assert!(Instant::now() < deadline, "scrape of {addr} {name} never got through");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One un-labeled sample out of a Prometheus exposition.
fn prom_value(text: &str, name: &str) -> f64 {
    let prom = rh_obs::export::sanitize_metric_name(name);
    text.lines()
        .find_map(|l| l.strip_prefix(prom.as_str()).and_then(|rest| rest.trim().parse().ok()))
        .unwrap_or(0.0)
}

fn results_key(results: &[(String, Value)]) -> String {
    use serde::Serialize as _;
    results
        .iter()
        .map(|(id, v)| {
            format!("{id}={}", serde_json::to_string(&v.to_json_value()).expect("encode"))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The deterministic fault-free oracle for the chaos run's job set.
fn oracle_key(seed: u64, workload: &str) -> String {
    let cfg = FleetConfig {
        seed,
        scale: Scale::Default,
        modules_per_mfr: 1,
        workload: workload.to_string(),
        ..FleetConfig::default()
    };
    let report = run_fleet_local(&cfg).expect("local oracle run");
    assert!(report.is_clean());
    results_key(&report.results)
}

#[test]
fn seeded_flaky_link_with_worker_kill_matches_fault_free_oracle() {
    let _g = globals();
    let recorder = Arc::new(rh_obs::Recorder::new());
    rh_obs::install(recorder.clone());

    let (mut victim, victim_addr) = spawn_worker(1);
    let (_w1, addr1) = spawn_worker(1);
    let (_w2, addr2) = spawn_worker(1);

    let seed = 42;
    let cfg = FleetConfig {
        workers: vec![victim_addr.clone(), addr1, addr2],
        seed,
        scale: Scale::Default,
        modules_per_mfr: 1,
        workload: "temp_ranges".to_string(),
        lease_ms: 1_500,
        poll_ms: 50,
        net_fault: Some(rh_obs::NetFaultPlan::flaky_link(seed)),
        // Trip fast so the killed worker's breaker activity is
        // guaranteed to register within the run.
        breaker: BreakerPolicy {
            failure_threshold: 2,
            cooldown_ms: 200,
            max_cooldown_ms: 1_000,
            max_trips: 20,
            jitter_seed: 0,
        },
        ..FleetConfig::default()
    };
    let fleet = std::thread::spawn(move || run_fleet(&cfg));

    // Wait (through the chaos, which also hits these scrapes) until
    // the victim holds a job, then SIGKILL it mid-execution.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "victim never accepted a job");
        if scrape_counter_through_chaos(&victim_addr, "worker_jobs_accepted") >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    victim.0.kill().expect("SIGKILL the victim worker");

    let report = fleet.join().expect("fleet thread").expect("fleet survives kill + chaos");
    assert!(report.is_clean(), "fleet not clean: {}", report.summary_line());
    assert_eq!(report.committed, 4);

    // Exactly one result per module, bit-identical to the fault-free
    // oracle: chaos may reorder and retry, never corrupt.
    let ids: BTreeSet<_> = report.results.iter().map(|(id, _)| id.clone()).collect();
    assert_eq!(ids.len(), report.results.len(), "duplicate module results");
    assert_eq!(results_key(&report.results), oracle_key(seed, "temp_ranges"));

    // The chaos was real and the breakers reacted to it: the injector
    // fired, and the killed worker's failures tripped its breaker.
    let text = rh_obs::export::render_prometheus(&recorder);
    assert!(
        prom_value(&text, names::NETFAULT_INJECTED) >= 1.0,
        "no network faults were injected:\n{text}"
    );
    assert!(
        prom_value(&text, names::FLEET_BREAKER_TRIP) >= 1.0,
        "killed worker never tripped its breaker:\n{text}"
    );
    rh_obs::uninstall();
}

#[test]
fn permanently_dead_worker_completes_degraded_instead_of_wedging() {
    let _g = globals();
    let recorder = Arc::new(rh_obs::Recorder::new());
    rh_obs::install(recorder.clone());

    // An address nothing will ever listen on again.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    let dead_addr = probe.local_addr().expect("probe addr").to_string();
    drop(probe);

    let cfg = FleetConfig {
        workers: vec![dead_addr],
        seed: 7,
        scale: Scale::Smoke,
        modules_per_mfr: 1,
        workload: "row_variation".to_string(),
        poll_ms: 20,
        breaker: BreakerPolicy {
            failure_threshold: 2,
            cooldown_ms: 50,
            max_cooldown_ms: 200,
            max_trips: 3,
            jitter_seed: 0,
        },
        ..FleetConfig::default()
    };
    let start = Instant::now();
    let report = run_fleet(&cfg).expect("quorum loss degrades the run, it does not error");
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "a dead worker must evict quickly, not wedge the coordinator"
    );

    assert!(report.degraded, "report must be flagged degraded: {}", report.summary_line());
    assert_eq!(report.committed, 0, "nothing can commit without workers");
    assert_eq!(report.workers_lost, 1);
    assert!(!report.is_clean(), "a degraded report is not clean");
    assert!(
        report.summary_line().contains("DEGRADED: 1 worker(s) lost"),
        "summary must announce the loss: {}",
        report.summary_line()
    );

    // Breaker lifecycle is visible through /metrics: trips, the
    // terminal eviction, and the degraded flag itself.
    let text = rh_obs::export::render_prometheus(&recorder);
    assert!(prom_value(&text, names::FLEET_BREAKER_TRIP) >= 3.0, "{text}");
    assert!(prom_value(&text, names::FLEET_BREAKER_EVICTED) >= 1.0, "{text}");
    assert!((prom_value(&text, names::FLEET_DEGRADED) - 1.0).abs() < f64::EPSILON, "{text}");
    rh_obs::uninstall();
}

/// A stub worker whose `POST /job` replies are always lost: it reads
/// the whole submission, counts it, and closes the connection without
/// answering. Every `GET /job` poll answers `done`. Returns its address
/// and the submission count.
fn reply_losing_worker() -> (String, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("stub bind");
    let addr = listener.local_addr().expect("stub addr").to_string();
    let submissions = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&submissions);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let mut reader = std::io::BufReader::new(stream);
            let mut request_line = String::new();
            let mut content_length = 0usize;
            let mut line = String::new();
            if reader.read_line(&mut request_line).is_err() {
                continue;
            }
            while reader.read_line(&mut line).is_ok_and(|n| n > 2) {
                if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                    content_length = v.trim().parse().unwrap_or(0);
                }
                line.clear();
            }
            let mut body = vec![0u8; content_length];
            let _ = reader.read_exact(&mut body);
            if request_line.starts_with("POST /job ") {
                seen.fetch_add(1, Ordering::SeqCst);
                continue; // dropped: the worker has the job, the reply is lost
            }
            let reply = if request_line.starts_with("GET /job?") {
                r#"{"state":"done","result":{"stub":true}}"#
            } else {
                "{}"
            };
            let _ = write!(
                reader.get_mut(),
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{reply}",
                reply.len()
            );
        }
    });
    (addr, submissions)
}

#[test]
fn lost_dispatch_reply_is_settled_by_polling_not_by_a_second_run() {
    let _g = globals();
    let (addr, submissions) = reply_losing_worker();
    let cfg = FleetConfig {
        workers: vec![addr],
        seed: 7,
        scale: Scale::Smoke,
        modules_per_mfr: 1,
        poll_ms: 10,
        ..FleetConfig::default()
    };
    let start = Instant::now();
    let report = run_fleet(&cfg).expect("fleet run");
    assert!(start.elapsed() < Duration::from_secs(60), "the run must not wedge");
    assert!(report.is_clean(), "every job commits from its first lease: {}", report.summary_line());
    assert_eq!(report.committed, 4);
    assert_eq!(
        submissions.load(Ordering::SeqCst),
        4,
        "a job the worker took is never submitted again"
    );
}
