//! Fleet fault-tolerance, end to end, against real `repro serve`
//! worker processes:
//!
//! * `kill -9` a worker mid-job — the coordinator must detect the
//!   dead lease, re-dispatch the job to a surviving worker, and the
//!   final report must carry exactly one result per module,
//!   bit-identical to a single-process run of the same seed.
//! * kill the *coordinator* (cooperative cancel standing in for a
//!   crash — the checkpoint on disk is identical either way) after
//!   some commits — a resumed coordinator must re-run only the
//!   unfinished modules and converge on the same bit-identical
//!   report.

use rh_bench::{run_fleet, run_fleet_local, FleetConfig};
use rh_core::{verify_checkpoint, Scale};
use rh_obs::http_get;
use rh_softmc::CancelToken;
use serde::Value;
use std::collections::BTreeSet;
use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const GET_TIMEOUT: Duration = Duration::from_secs(2);

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
    // Keep draining stderr so the worker never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = std::io::Read::read_to_string(&mut reader, &mut sink);
    });
    (ChildGuard(child), addr.expect("worker must announce its address"))
}

/// Reads one counter sample from a worker's Prometheus exposition.
fn scrape_counter(addr: &str, name: &str) -> u64 {
    let resp = http_get(addr, "/metrics", GET_TIMEOUT).expect("scrape /metrics");
    assert_eq!(resp.status, 200);
    resp.body
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.trim().parse().ok()))
        .unwrap_or(0)
}

/// The deterministic oracle: the same jobs executed sequentially in
/// this process, no HTTP involved.
fn local_results(seed: u64, workload: &str) -> String {
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

#[test]
fn sigkilled_worker_is_redispatched_and_report_matches_single_process_run() {
    let (mut victim, victim_addr) = spawn_worker(1);
    let (_survivor, survivor_addr) = spawn_worker(1);

    let cfg = FleetConfig {
        workers: vec![victim_addr.clone(), survivor_addr],
        seed: 11,
        scale: Scale::Default,
        modules_per_mfr: 1,
        workload: "temp_ranges".to_string(),
        lease_ms: 1_500,
        poll_ms: 50,
        ..FleetConfig::default()
    };
    let fleet = std::thread::spawn(move || run_fleet(&cfg));

    // Wait until the victim has actually accepted a job (the jobs run
    // for ~a second each, so this catches it mid-execution), then
    // SIGKILL it — no shutdown handler runs, the lease just dies.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "victim never accepted a job");
        if scrape_counter(&victim_addr, "worker_jobs_accepted") >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    victim.0.kill().expect("SIGKILL the victim worker");

    let report = fleet.join().expect("fleet thread").expect("fleet survives the kill");
    assert!(report.is_clean(), "fleet not clean: {}", report.summary_line());
    assert_eq!(report.committed, 4);
    assert!(
        report.redispatches >= 1,
        "the killed worker's lease must have been re-dispatched: {}",
        report.summary_line()
    );

    // Exactly one result per module, and bit-identical to the
    // single-process run of the same seed.
    let ids: BTreeSet<_> = report.results.iter().map(|(id, _)| id.clone()).collect();
    assert_eq!(ids.len(), report.results.len(), "duplicate module results");
    assert_eq!(results_key(&report.results), local_results(11, "temp_ranges"));
}

#[test]
fn coordinator_resumes_from_checkpoint_rerunning_only_unfinished_leases() {
    let (_worker, addr) = spawn_worker(1);
    let ckpt = std::env::temp_dir().join(format!("rh-fleet-resume-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);

    let cancel = CancelToken::new();
    let cfg = FleetConfig {
        workers: vec![addr.clone()],
        seed: 23,
        scale: Scale::Default,
        modules_per_mfr: 1,
        workload: "temp_ranges".to_string(),
        lease_ms: 10_000,
        poll_ms: 50,
        checkpoint: Some(ckpt.clone()),
        cancel: cancel.clone(),
        ..FleetConfig::default()
    };
    let fleet = std::thread::spawn(move || run_fleet(&cfg));

    // Down the coordinator as soon as the checkpoint holds at least
    // one committed module (the single worker slot serializes the
    // jobs, so the remaining three cannot all have finished).
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "no module ever committed to the checkpoint");
        if verify_checkpoint(&ckpt).map(|n| n >= 1).unwrap_or(false) {
            cancel.cancel();
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let first = fleet.join().expect("fleet thread");
    assert!(first.is_err(), "a cancelled coordinator must not report success");

    let committed_before = verify_checkpoint(&ckpt).expect("checkpoint stays loadable");
    assert!(
        (1..4).contains(&committed_before),
        "want a genuinely partial checkpoint, got {committed_before}/4"
    );
    let accepted_before = scrape_counter(&addr, "worker_jobs_accepted");

    // Resume: a fresh coordinator loads the checkpoint and finishes.
    let resumed_cfg = FleetConfig {
        workers: vec![addr.clone()],
        seed: 23,
        scale: Scale::Default,
        modules_per_mfr: 1,
        workload: "temp_ranges".to_string(),
        lease_ms: 10_000,
        poll_ms: 50,
        checkpoint: Some(ckpt.clone()),
        ..FleetConfig::default()
    };
    let report = run_fleet(&resumed_cfg).expect("resumed run completes");
    assert!(report.is_clean(), "resumed fleet not clean: {}", report.summary_line());
    assert_eq!(report.committed, 4);
    assert_eq!(results_key(&report.results), local_results(23, "temp_ranges"));

    // Only the unfinished modules were handed out again: the worker
    // saw exactly (total - already committed) new submissions.
    let accepted_after = scrape_counter(&addr, "worker_jobs_accepted");
    assert_eq!(
        (accepted_after - accepted_before) as usize,
        4 - committed_before,
        "resume must not re-run checkpoint-committed modules"
    );
    let _ = std::fs::remove_file(&ckpt);
}
