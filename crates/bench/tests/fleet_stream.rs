//! The fleet journal, end to end: a chaos-hardened fleet run with the
//! journal armed must leave
//!
//! * an append-only `journal.jsonl` in which at-least-once event
//!   delivery has been collapsed to exactly-once — no duplicate
//!   `(lease_id, seq)` pair, at most one terminal event per lease,
//!   and exactly one `committed` event for every committed module —
//!   even while the link is flaky and a worker is SIGKILLed mid-run;
//! * a committed result set bit-identical to the fault-free
//!   in-process oracle (observability must never perturb results);
//! * a `fleet.journal.events` counter equal to the journal's length;
//!   and
//! * every surviving worker drained: its highest journaled `seq` is
//!   the `last_seq` its own `/progress` reports after the run.

use rh_bench::{run_fleet, run_fleet_local, FleetConfig};
use rh_core::fleet::BreakerPolicy;
use rh_core::Scale;
use rh_obs::analyze::{analyze_journal, JournalFilter};
use rh_obs::stream::{parse_events, EventDedup, EventKind};
use rh_obs::{http_get, names};
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
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
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = std::io::Read::read_to_string(&mut reader, &mut sink);
    });
    (ChildGuard(child), addr.expect("worker must announce its address"))
}

/// Reads one counter sample from a worker's `/metrics`, retrying
/// through injected client-side faults.
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
fn journaled_chaos_fleet_is_exactly_once_and_bit_identical() {
    let recorder = Arc::new(rh_obs::Recorder::new());
    rh_obs::install(recorder.clone());

    let (mut victim, victim_addr) = spawn_worker(1);
    let (_w1, addr1) = spawn_worker(1);
    let (_w2, addr2) = spawn_worker(1);

    let journal_path =
        std::env::temp_dir().join(format!("rh-fleet-journal-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal_path);

    let seed = 42;
    let cfg = FleetConfig {
        workers: vec![victim_addr.clone(), addr1.clone(), addr2.clone()],
        seed,
        scale: Scale::Default,
        modules_per_mfr: 1,
        workload: "temp_ranges".to_string(),
        lease_ms: 1_500,
        poll_ms: 50,
        net_fault: Some(rh_obs::NetFaultPlan::flaky_link(seed)),
        breaker: BreakerPolicy {
            failure_threshold: 2,
            cooldown_ms: 200,
            max_cooldown_ms: 1_000,
            max_trips: 20,
            jitter_seed: 0,
        },
        journal: Some(journal_path.clone()),
        ..FleetConfig::default()
    };
    let fleet = std::thread::spawn(move || run_fleet(&cfg));

    // Wait (through the chaos, which also hits these scrapes) until
    // the victim holds a job, then SIGKILL it mid-execution: its
    // stream dies with unscraped events, and its lease re-dispatches.
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

    // --- Results: bit-identical to the fault-free oracle. ---
    let oracle = run_fleet_local(&FleetConfig {
        seed,
        scale: Scale::Default,
        modules_per_mfr: 1,
        workload: "temp_ranges".to_string(),
        ..FleetConfig::default()
    })
    .expect("local oracle run");
    assert!(oracle.is_clean());
    assert_eq!(
        results_key(&report.results),
        results_key(&oracle.results),
        "the journal must not perturb committed bits"
    );

    // --- Journal: exactly-once over an at-least-once stream. ---
    let text = std::fs::read_to_string(&journal_path).expect("journal written");
    let parsed = parse_events(&text);
    assert_eq!(parsed.skipped, 0, "the coordinator writes whole records");
    assert!(!parsed.events.is_empty());
    let mut dedup = EventDedup::new();
    for ev in &parsed.events {
        assert!(
            dedup.admit(ev),
            "duplicate (lease_id={}, seq={}) reached the journal",
            ev.lease_id,
            ev.seq
        );
        assert!(!ev.worker.is_empty(), "journal entries are worker-attributed");
    }
    // At most one terminal event per lease, and exactly one committed
    // event for every committed module (a zombie's late commit lands
    // under its own expired lease, never a second one for the same).
    let analysis =
        analyze_journal(&text, &JournalFilter::default(), EventKind::Started, EventKind::Committed);
    assert_eq!(analysis.multi_terminal_leases, 0, "two terminals on one lease");
    let mut committed_per_module: BTreeMap<&str, usize> = BTreeMap::new();
    let mut committed_leases: BTreeSet<u64> = BTreeSet::new();
    for ev in parsed.events.iter().filter(|e| e.kind == EventKind::Committed) {
        *committed_per_module.entry(ev.module.as_str()).or_insert(0) += 1;
        committed_leases.insert(ev.lease_id);
    }
    for (module, _) in &report.results {
        assert_eq!(
            committed_per_module.get(module.as_str()),
            Some(&1),
            "module {module} must journal exactly one committed event:\n{text}"
        );
    }
    assert_eq!(committed_leases.len(), report.committed, "one committed lease per job");
    assert!(
        analysis.latency.samples >= report.committed,
        "every committed lease pairs started -> committed"
    );

    // --- Counter: the coordinator's own tally equals the journal. ---
    assert_eq!(
        recorder.counter_value(names::FLEET_JOURNAL_EVENTS),
        parsed.events.len() as u64,
        "journal counter equals journal lines"
    );

    // --- Drain: every surviving worker's stream is journaled to the
    // last event it assigned. ---
    for addr in [&addr1, &addr2] {
        let progress = http_get(addr, "/progress", GET_TIMEOUT).expect("worker /progress");
        assert_eq!(progress.status, 200);
        let v: Value = serde_json::from_str(&progress.body).expect("worker /progress is JSON");
        let last_seq = v.field("last_seq").as_u64().expect("last_seq");
        let journaled = parsed
            .events
            .iter()
            .filter(|e| e.worker == *addr)
            .map(|e| e.seq)
            .max()
            .unwrap_or(0);
        assert!(last_seq >= 1, "surviving worker {addr} emitted no events");
        assert_eq!(journaled, last_seq, "final drain leaves {addr} at lag 0");
    }

    let _ = std::fs::remove_file(&journal_path);
    rh_obs::uninstall();
}
