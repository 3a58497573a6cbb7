//! The `repro fleet` coordinator: dispatches characterization jobs to
//! `repro serve` workers under leases and survives both worker death
//! (`kill -9` mid-job) and its own (checkpoint crash-resume).
//!
//! The pure lease/commit logic lives in [`rh_core::fleet`]; this
//! module is the I/O shell around it: the HTTP dispatch/poll loop,
//! worker-process spawning, `Retry-After`-honoring backoff, fleet-wide
//! progress aggregation, and cancellation fan-out. See DESIGN.md §11.

use crate::worker::{fleet_module_id, JobSpec};
use rh_core::fleet::{
    BreakerPolicy, BreakerState, CircuitBreaker, CommitOutcome, FailOutcome, FleetPolicy,
    FleetReport, JobGrant, JobTable,
};
use rh_core::{CharError, ModuleStatus, ProgressTracker, RetryPolicy, Scale};
use rh_dram::Manufacturer;
use rh_obs::faultnet::InstalledPlan;
use rh_obs::names;
use rh_obs::stream::{self, EventDedup, JobEvent};
use rh_obs::{http_get, http_post, ClientResponse, NetFaultPlan};
use rh_softmc::CancelToken;
use serde::{Serialize as _, Value};
use std::collections::HashMap;
use std::io::{BufRead as _, Write as _};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Addresses of already-running workers (`host:port`).
    pub workers: Vec<String>,
    /// Additionally spawn this many local `repro serve` child
    /// processes (torn down at the end of the run).
    pub spawn_workers: usize,
    /// Base seed, exactly as `repro --seed`.
    pub seed: u64,
    /// Experiment scale of every job.
    pub scale: Scale,
    /// Modules per manufacturer.
    pub modules_per_mfr: usize,
    /// Workload every module runs: the name of a
    /// [`crate::EXPERIMENTS`] entry.
    pub workload: String,
    /// Lease duration (ms): a worker must finish or be polled alive
    /// within this, or its job is re-dispatched.
    pub lease_ms: u64,
    /// Poll/heartbeat interval (ms).
    pub poll_ms: u64,
    /// Consecutive failed polls before a lease is marked suspect.
    pub suspect_after_misses: u32,
    /// Bounded retry/backoff for re-dispatch and quarantine.
    pub retry: RetryPolicy,
    /// Coordinator checkpoint path; resumed from when it exists.
    pub checkpoint: Option<PathBuf>,
    /// Operator cancellation: fans out to every worker.
    pub cancel: CancelToken,
    /// Fleet-wide progress aggregation (drives the
    /// `campaign.progress.*` gauges of the `--metrics-out` snapshot).
    pub progress: Option<Arc<ProgressTracker>>,
    /// Per-worker circuit breaker policy (trip thresholds, cooldowns,
    /// eviction). The `jitter_seed` is normally derived from `seed`.
    pub breaker: BreakerPolicy,
    /// Client-side network fault plan, installed process-globally for
    /// the duration of the run (chaos testing). `None` or an inert
    /// plan injects nothing.
    pub net_fault: Option<NetFaultPlan>,
    /// Human name of the net-fault scenario (e.g. `flaky-link`),
    /// recorded in replay tokens. `None` renders as `none`.
    pub net_fault_name: Option<String>,
    /// When set, the run captures a distributed trace: the
    /// coordinator's own records land in `<dir>/coordinator.jsonl`
    /// and each committed job's shipped segment in
    /// `<dir>/segment-<lease>.jsonl` (see `repro analyze --fleet`).
    pub trace_dir: Option<PathBuf>,
    /// Recorder to capture with. `None` + `trace_dir` set = the run
    /// installs (and uninstalls) a private recorder; callers that
    /// already installed one (`--metrics-out`) pass it here instead.
    pub trace_recorder: Option<Arc<rh_obs::Recorder>>,
    /// Append-only fleet journal (`journal.jsonl`): every per-job
    /// lifecycle event scraped from worker `/events` streams — plus
    /// the terminal-event copies embedded in poll replies — lands
    /// here exactly once, deduplicated by `(lease_id, seq)`. `None`
    /// disables event-stream ingestion entirely.
    pub journal: Option<PathBuf>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            workers: Vec::new(),
            spawn_workers: 0,
            seed: 0,
            scale: Scale::Smoke,
            modules_per_mfr: 1,
            workload: "row_variation".to_string(),
            lease_ms: 10_000,
            poll_ms: 100,
            suspect_after_misses: 2,
            retry: RetryPolicy::default(),
            checkpoint: None,
            cancel: CancelToken::new(),
            progress: None,
            breaker: BreakerPolicy::default(),
            net_fault: None,
            net_fault_name: None,
            trace_dir: None,
            trace_recorder: None,
            journal: None,
        }
    }
}

/// Milliseconds since an arbitrary-but-fixed origin; the coordinator
/// clock the [`JobTable`] runs on.
fn now_ms(origin: Instant) -> u64 {
    origin.elapsed().as_millis() as u64
}

/// Per-worker dispatch health: round-robin skips workers whose
/// circuit breaker is open (connect failures / injected faults) or
/// that are backing off on their own `Retry-After` advice.
///
/// The breaker replaces the old ad-hoc consecutive-failure backoff:
/// repeated transport failures trip it Open (no dispatch until an
/// escalating, jittered cooldown elapses), a single half-open probe
/// decides recovery, and a worker that keeps failing its probes is
/// *evicted* — permanently removed from dispatch so its leases
/// re-dispatch to healthy workers via [`JobTable::tick`].
#[derive(Debug)]
struct WorkerHealth {
    addr: String,
    not_before_ms: u64,
    breaker: CircuitBreaker,
    spawned: Option<Child>,
}

impl WorkerHealth {
    fn new(addr: String, policy: BreakerPolicy, spawned: Option<Child>) -> Self {
        let breaker = CircuitBreaker::new(&addr, policy);
        Self { addr, not_before_ms: 0, breaker, spawned }
    }

    /// May this worker receive a dispatch right now? Consults (and
    /// advances) the breaker: an Open breaker whose cooldown elapsed
    /// transitions to HalfOpen here, admitting this dispatch as its
    /// single probe.
    fn available(&mut self, now: u64) -> bool {
        now >= self.not_before_ms && self.breaker.allow_request(now)
    }

    /// Worker answered 503 all-slots-busy (or 429 shed): healthy but
    /// loaded. Honor the advice without touching the breaker.
    fn back_off_advice(&mut self, now: u64, advice: Duration) {
        self.not_before_ms = now + advice.as_millis() as u64;
    }

    /// Any successful HTTP exchange (dispatch or poll) proves the
    /// link: resets the failure streak, closes a half-open breaker.
    fn note_success(&mut self) {
        self.breaker.record_success();
    }

    /// Transport-level failure (connect refused, deadline exceeded,
    /// garbage reply): feeds the breaker.
    fn note_failure(&mut self, now: u64) {
        self.breaker.record_failure(now);
    }
}

/// The builtin fleet job set: every manufacturer × module index, in
/// the same order and with the same module ids a single-process
/// campaign would use.
fn fleet_jobs(cfg: &FleetConfig) -> Vec<(String, Value)> {
    let mut jobs = Vec::new();
    for mfr in Manufacturer::ALL {
        for index in 0..cfg.modules_per_mfr {
            let spec = JobSpec {
                mfr,
                index,
                seed: cfg.seed,
                scale: cfg.scale,
                workload: cfg.workload.clone(),
            };
            jobs.push((fleet_module_id(mfr, index, cfg.seed), spec.to_json_value()));
        }
    }
    jobs
}

/// [`JobTable::grant`] plus the fleet's dispatch telemetry: the
/// `fleet.dispatch` (and `fleet.redispatch`) counters and a
/// `fleet.grant` event.
fn grant(
    table: &mut JobTable,
    module: &str,
    worker: &str,
    now: u64,
) -> Result<JobGrant, CharError> {
    let grant = table.grant(module, worker, now)?;
    rh_obs::counter!(names::FLEET_DISPATCH, 1);
    if grant.generation > 1 {
        rh_obs::counter!(names::FLEET_REDISPATCH, 1);
    }
    rh_obs::event!(
        names::FLEET_GRANT_EVENT,
        module = module.to_string(),
        worker = worker.to_string(),
        lease = grant.lease_id,
        generation = grant.generation
    );
    Ok(grant)
}

/// [`JobTable::commit`], counted as `fleet.commit` or, for a stale or
/// repeated reply, `fleet.duplicate`.
fn commit(table: &mut JobTable, lease_id: u64, result: Value) -> CommitOutcome {
    let outcome = table.commit(lease_id, result);
    match outcome {
        CommitOutcome::Committed => rh_obs::counter!(names::FLEET_COMMIT, 1),
        CommitOutcome::Duplicate | CommitOutcome::Stale => {
            rh_obs::counter!(names::FLEET_DUPLICATE, 1);
        }
    }
    outcome
}

/// Runs the same job set as [`run_fleet`] in this process, without
/// any workers — the determinism oracle: a fleet run (with any amount
/// of worker death) must produce a bit-identical report.
///
/// # Errors
///
/// [`CharError`] from the characterization itself.
pub fn run_fleet_local(cfg: &FleetConfig) -> Result<FleetReport, CharError> {
    let mut table = JobTable::new(FleetPolicy {
        retry: cfg.retry.clone(),
        lease_ms: u64::MAX / 4,
        suspect_after_misses: cfg.suspect_after_misses,
    });
    for (id, payload) in fleet_jobs(cfg) {
        table.add_job(id, payload);
    }
    while let Some(module) = table.next_ready(0) {
        let grant = grant(&mut table, &module, "local", 0)?;
        match crate::worker::execute_payload(&grant.payload, &cfg.cancel) {
            Ok(result) => {
                commit(&mut table, grant.lease_id, result);
            }
            Err(e) if e.is_cancelled() => return Err(e),
            Err(e) => {
                let transient = e.is_transient();
                if table.fail(grant.lease_id, &e.to_string(), transient, 0)
                    == FailOutcome::Quarantined
                {
                    rh_obs::counter!(names::FLEET_QUARANTINED, 1);
                }
            }
        }
    }
    Ok(table.report())
}

/// Spawns one local `repro serve` child and parses its announced
/// address from stderr.
fn spawn_worker(slots: usize) -> Result<(Child, String), CharError> {
    let exe = std::env::current_exe().map_err(|e| CharError::Checkpoint {
        detail: format!("fleet: cannot locate own binary: {e}"),
    })?;
    let mut child = Command::new(exe)
        .args(["serve", "--addr", "127.0.0.1:0", "--slots", &slots.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| CharError::Checkpoint { detail: format!("fleet: spawn worker: {e}") })?;
    let stderr = child.stderr.take().ok_or_else(|| CharError::Checkpoint {
        detail: "fleet: no stderr pipe from worker".to_string(),
    })?;
    let mut reader = std::io::BufReader::new(stderr);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = reader.read_line(&mut line).map_err(|e| CharError::Checkpoint {
            detail: format!("fleet: read worker stderr: {e}"),
        })?;
        if n == 0 {
            let _ = child.kill();
            return Err(CharError::Checkpoint {
                detail: "fleet: worker exited before announcing its address".to_string(),
            });
        }
        if let Some(rest) = line.trim().strip_prefix("repro: worker serving on http://") {
            break rest.to_string();
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::Builder::new()
        .name("rh-fleet-worker-stderr".to_string())
        .spawn(move || {
            let mut sink = String::new();
            loop {
                sink.clear();
                match reader.read_line(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
        })
        .map_err(|e| CharError::Checkpoint { detail: format!("fleet: spawn drain: {e}") })?;
    Ok((child, addr))
}

/// What one poll of one lease told us.
enum PollVerdict {
    Alive,
    Done {
        result: Value,
        /// The worker's shipped trace payload
        /// (`{"segment","shed","now_us"}`), when the job ran traced.
        trace: Option<Value>,
        /// The job's terminal lifecycle event, embedded in the reply
        /// so the journal gets it even if `/events` is never reachable
        /// again (dedup collapses it with the stream copy).
        event: Option<JobEvent>,
    },
    Failed {
        error: String,
        transient: bool,
        event: Option<JobEvent>,
    },
    Gone,
}

fn poll_lease(addr: &str, lease_id: u64, timeout: Duration) -> PollVerdict {
    let Ok(response) = http_get(addr, &format!("/job?lease={lease_id}"), timeout) else {
        return PollVerdict::Gone;
    };
    let Ok(body) = serde_json::from_str::<Value>(&response.body) else {
        return PollVerdict::Gone;
    };
    match body.field("state").as_str() {
        // "queued" = admitted but waiting for a slot; the lease is
        // alive and must keep its heartbeat.
        Some("running" | "queued") => PollVerdict::Alive,
        Some("done") => PollVerdict::Done {
            result: body.field("result").clone(),
            trace: {
                let t = body.field("trace");
                (!t.is_null()).then(|| t.clone())
            },
            event: JobEvent::from_json(body.field("event")),
        },
        Some("failed") => PollVerdict::Failed {
            error: body.field("error").as_str().unwrap_or("unknown worker error").to_string(),
            transient: body.field("transient").as_bool().unwrap_or(false),
            event: JobEvent::from_json(body.field("event")),
        },
        // "cancelled" / "unknown" / garbage: the lease is not coming
        // back from this worker.
        _ => PollVerdict::Gone,
    }
}

/// The coordinator's durable, exactly-once view of the fleet's event
/// streams: at-least-once delivery (scrapes that reconnect after
/// breaker trips, SIGKILLed workers replaced mid-stream, terminal
/// copies riding poll replies) collapses through [`EventDedup`]
/// before anything is appended to `journal.jsonl`.
struct FleetJournal {
    writer: Option<std::io::BufWriter<std::fs::File>>,
    dedup: EventDedup,
    /// worker -> resume cursor: highest seq durably ingested *from
    /// the stream* (poll-embedded copies do not advance it — earlier
    /// stream events may still be unread).
    cursors: HashMap<String, u64>,
    /// worker -> highest seq the worker reports assigned
    /// (`X-Last-Seq`); minus the cursor, that worker's journal lag.
    last_seqs: HashMap<String, u64>,
}

impl FleetJournal {
    /// Append-opens the journal. An unopenable path degrades to
    /// dedup-only ingestion (counters still advance) rather than
    /// failing the run — the journal observes the fleet, it is not
    /// load-bearing for results.
    fn open(path: &PathBuf) -> Self {
        let writer = match std::fs::OpenOptions::new().create(true).append(true).open(path) {
            Ok(file) => Some(std::io::BufWriter::new(file)),
            Err(e) => {
                eprintln!("repro: fleet journal {}: {e}", path.display());
                None
            }
        };
        Self {
            writer,
            dedup: EventDedup::new(),
            cursors: HashMap::new(),
            last_seqs: HashMap::new(),
        }
    }

    /// The resume cursor to present on the next `/events` scrape.
    fn cursor(&self, worker: &str) -> u64 {
        self.cursors.get(worker).copied().unwrap_or(0)
    }

    /// Highest seq known assigned by `worker`.
    fn last_seq(&self, worker: &str) -> u64 {
        self.last_seqs.get(worker).copied().unwrap_or(0).max(self.cursor(worker))
    }

    /// Journals one event if it has not been seen before. Never
    /// advances the stream cursor.
    fn ingest_one(&mut self, worker: &str, ev: &JobEvent) {
        if self.dedup.admit(ev) {
            if let Some(w) = self.writer.as_mut() {
                let _ = w.write_all(stream::journal_line(worker, ev).as_bytes());
                let _ = w.flush();
            }
            rh_obs::counter!(names::FLEET_JOURNAL_EVENTS, 1);
        } else {
            rh_obs::counter!(names::FLEET_JOURNAL_DUPLICATES, 1);
        }
        self.note_last_seq(worker, ev.seq);
    }

    /// Ingests one stream batch and advances the resume cursor over
    /// every seq it covered (batches are oldest-first, so the max seq
    /// is the new cursor).
    fn ingest_batch(&mut self, worker: &str, events: &[JobEvent]) {
        let mut fresh = 0u64;
        let mut dup = 0u64;
        let mut top = self.cursor(worker);
        for ev in events {
            if self.dedup.admit(ev) {
                if let Some(w) = self.writer.as_mut() {
                    let _ = w.write_all(stream::journal_line(worker, ev).as_bytes());
                }
                fresh += 1;
            } else {
                dup += 1;
            }
            top = top.max(ev.seq);
        }
        if fresh > 0 {
            if let Some(w) = self.writer.as_mut() {
                let _ = w.flush();
            }
            rh_obs::counter!(names::FLEET_JOURNAL_EVENTS, fresh);
        }
        if dup > 0 {
            rh_obs::counter!(names::FLEET_JOURNAL_DUPLICATES, dup);
        }
        self.cursors.insert(worker.to_string(), top);
    }

    /// Records the highest seq `worker` reports having assigned.
    fn note_last_seq(&mut self, worker: &str, last_seq: u64) {
        let e = self.last_seqs.entry(worker.to_string()).or_insert(0);
        *e = (*e).max(last_seq);
    }

    /// Worst per-worker lag: events assigned but not yet journaled.
    fn worst_lag(&self) -> u64 {
        self.last_seqs
            .keys()
            .map(|w| self.last_seq(w).saturating_sub(self.cursor(w)))
            .max()
            .unwrap_or(0)
    }
}

/// One `/events` scrape of one worker into the journal. Scrape
/// failures are silent (the cursor simply re-presents next tick) and
/// NEVER feed the worker's circuit breaker: observability must not
/// influence dispatch health.
fn scrape_events(journal: &mut FleetJournal, addr: &str, io_timeout: Duration) {
    let cursor = journal.cursor(addr);
    let Ok(response) =
        http_get(addr, &format!("/events?since={cursor}&max=512"), io_timeout)
    else {
        return;
    };
    if response.status != 200 {
        return;
    }
    let parsed = stream::parse_events(&response.body);
    journal.ingest_batch(addr, &parsed.events);
    if let Some(last) = response.header("x-last-seq").and_then(|v| v.parse().ok()) {
        journal.note_last_seq(addr, last);
    }
}

/// Scrapes every worker's `/events` into the journal, then sets the
/// `fleet.journal.lag` gauge (from this one site, as a gauge needs).
fn scrape_all(journal: &mut FleetJournal, workers: &[WorkerHealth], io_timeout: Duration) {
    for worker in workers {
        scrape_events(journal, &worker.addr, io_timeout);
    }
    rh_obs::gauge!(names::FLEET_JOURNAL_LAG, journal.worst_lag() as f64);
}

/// Byte budget for the coordinator's own trace file.
const COORD_TRACE_BUDGET: usize = 4 << 20;

/// Coordinator-side trace capture for one fleet run: owns the output
/// directory, the recorder the spans land in, and — on drop — writes
/// `coordinator.jsonl` and uninstalls any recorder this run installed.
struct TraceCapture {
    dir: PathBuf,
    recorder: Arc<rh_obs::Recorder>,
    /// Whether this run installed the global recorder (and must restore).
    owns_recorder: bool,
    /// Thread ordinal of the coordinator loop, keying its records.
    tid: u64,
    /// The run's root trace, set once the root span opens.
    trace_id: u128,
}

impl TraceCapture {
    /// Arms capture when `cfg.trace_dir` is set; `None` otherwise (or
    /// when the directory cannot be created — tracing must never fail
    /// the run it observes).
    fn arm(cfg: &FleetConfig) -> Option<TraceCapture> {
        let dir = cfg.trace_dir.clone()?;
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("repro: fleet trace dir {}: {e}", dir.display());
            return None;
        }
        let (recorder, owns_recorder) = match &cfg.trace_recorder {
            Some(recorder) => (Arc::clone(recorder), false),
            None => {
                let recorder = Arc::new(rh_obs::Recorder::new());
                rh_obs::install(recorder.clone());
                (recorder, true)
            }
        };
        Some(Self { dir, recorder, owns_recorder, tid: rh_obs::thread_ordinal(), trace_id: 0 })
    }

    /// Writes one committed (or orphaned) job's shipped segment to
    /// `segment-<lease>.jsonl`, headed by a meta record carrying the
    /// lease⇄worker binding, shed count, orphan flag, and the clock
    /// skew `offset_us` estimated from the poll's request/response
    /// bracket: `offset = coordinator_midpoint - worker_now`, so
    /// `ts_coordinator ≈ ts_worker + offset_us`.
    fn write_segment(
        &self,
        lease_id: u64,
        worker: &str,
        trace: &Value,
        bracket: Option<(u64, u64)>,
        orphan: bool,
    ) {
        let Some(segment) = trace.field("segment").as_str() else { return };
        let shed = trace.field("shed").as_u64().unwrap_or(0);
        let offset_us = match (bracket, trace.field("now_us").as_u64()) {
            (Some((t0, t1)), Some(worker_now)) => {
                let mid = i64::try_from(t0 / 2 + t1 / 2).unwrap_or(i64::MAX);
                Some(mid.saturating_sub(i64::try_from(worker_now).unwrap_or(i64::MAX)))
            }
            _ => None,
        };
        let meta = format!(
            "{{\"ts_us\":0,\"kind\":\"meta\",\"name\":\"{}\",\"tid\":0,\"fields\":{{\"lease\":{lease_id},\"worker\":\"{worker}\",\"offset_us\":{},\"shed\":{shed},\"orphan\":{orphan}}}}}\n",
            names::FLEET_TRACE_SEGMENT,
            offset_us.map_or_else(|| "null".to_string(), |o| o.to_string()),
        );
        let path = self.dir.join(format!("segment-{lease_id}.jsonl"));
        if let Err(e) = std::fs::write(&path, format!("{meta}{segment}")) {
            eprintln!("repro: fleet trace segment {}: {e}", path.display());
        }
    }
}

impl Drop for TraceCapture {
    fn drop(&mut self) {
        // The root span guard has already dropped (declared after this
        // capture), so the fleet.run record is in the recorder.
        let (jsonl, _shed) =
            self.recorder.trace_segment(self.trace_id, self.tid, COORD_TRACE_BUDGET);
        let path = self.dir.join("coordinator.jsonl");
        if let Err(e) = std::fs::write(&path, jsonl) {
            eprintln!("repro: fleet trace {}: {e}", path.display());
        }
        if self.owns_recorder {
            rh_obs::uninstall();
        }
    }
}

/// Runs a fleet campaign to completion (every module committed or
/// quarantined), honoring leases, re-dispatch, checkpoint resume, and
/// operator cancellation. Returns the final [`FleetReport`].
///
/// # Errors
///
/// [`CharError::Checkpoint`] for unusable checkpoints or when no
/// worker can be contacted at all; [`CharError::Cancelled`] when the
/// operator cancels before completion.
pub fn run_fleet(cfg: &FleetConfig) -> Result<FleetReport, CharError> {
    let origin = Instant::now();
    let io_timeout = Duration::from_millis(cfg.poll_ms.clamp(50, 2_000) * 4);

    // Arm client-side chaos for the whole run; the guard uninstalls
    // the plan on every exit path (including errors).
    let _net_fault = cfg
        .net_fault
        .as_ref()
        .filter(|plan| !plan.is_inert())
        .map(InstalledPlan::new);

    // Tie breaker jitter to the run seed so cooldown schedules are
    // replayable, unless the caller pinned a seed explicitly.
    let breaker_policy = BreakerPolicy {
        jitter_seed: if cfg.breaker.jitter_seed == 0 { cfg.seed } else { cfg.breaker.jitter_seed },
        ..cfg.breaker.clone()
    };
    let mut workers: Vec<WorkerHealth> = cfg
        .workers
        .iter()
        .map(|addr| WorkerHealth::new(addr.clone(), breaker_policy.clone(), None))
        .collect();
    for _ in 0..cfg.spawn_workers {
        let (child, addr) = spawn_worker(2)?;
        eprintln!("repro: fleet spawned worker on {addr}");
        workers.push(WorkerHealth::new(addr, breaker_policy.clone(), Some(child)));
    }
    if workers.is_empty() {
        return Err(CharError::Checkpoint {
            detail: "fleet: no workers (pass --worker or --spawn)".to_string(),
        });
    }

    // Trace capture: declared *before* the root span so the span guard
    // drops (recording fleet.run) before the capture drops (writing
    // coordinator.jsonl and uninstalling any recorder this run installed).
    let mut capture = TraceCapture::arm(cfg);
    let mut root = rh_obs::span(names::FLEET_RUN_SPAN);
    root.set("workers", workers.len());
    root.set("seed", cfg.seed);
    // When obs is disabled the guard is inert and trace_id is 0: every
    // lease binds trace 0 and replay tokens carry an all-zero trace,
    // keeping disabled runs deterministic.
    let trace_id = root.ids().trace_id;
    if let Some(c) = capture.as_mut() {
        c.trace_id = trace_id;
    }

    let mut table = JobTable::new(FleetPolicy {
        retry: cfg.retry.clone(),
        lease_ms: cfg.lease_ms,
        suspect_after_misses: cfg.suspect_after_misses,
    });
    // Per-incarnation lease-ID nonce: a resumed coordinator must not
    // mint IDs its dead predecessor already used, or a worker still
    // holding one of those jobs would answer the new lease with the
    // old job's result (see `JobTable::set_lease_base`). The low bits
    // stay free for the grant counter.
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()) ^ (d.as_secs() << 20))
        .unwrap_or(1);
    table.set_lease_base((nonce & 0xffff_ffff) << 24);
    // Replay tokens minted at commit embed the run's fault posture.
    table.set_replay_context(
        cfg.net_fault_name.clone().unwrap_or_else(|| "none".to_string()),
        cfg.net_fault.as_ref().filter(|plan| !plan.is_inert()).map_or(0, |plan| plan.seed),
    );
    for (id, payload) in fleet_jobs(cfg) {
        table.add_job(id, payload);
    }
    if let Some(path) = &cfg.checkpoint {
        table.with_checkpoint(path.clone())?;
    }
    if let Some(progress) = &cfg.progress {
        progress.add_modules(table.total());
        // Checkpoint-resumed modules count as already done.
        for _ in 0..table.done_count() {
            progress.record_status(&ModuleStatus::Succeeded);
        }
    }

    // Event-stream ingestion rides beside the dispatch loop; it never
    // touches results or breakers.
    let mut journal = cfg.journal.as_ref().map(FleetJournal::open);

    // lease id -> worker address, for polling.
    let mut lease_worker: HashMap<u64, String> = HashMap::new();
    // Expired leases we keep polling so a zombie's late result is
    // *observed* being rejected by the commit rule (rather than the
    // zombie silently never being asked).
    let mut orphans: HashMap<u64, String> = HashMap::new();
    let mut rr_cursor = 0usize;

    let outcome = loop {
        if cfg.cancel.is_cancelled() {
            break Err(CharError::Cancelled { op: "fleet".to_string() });
        }
        if table.is_done() {
            break Ok(());
        }
        let now = now_ms(origin);

        // Quorum loss: every worker evicted and no lease still in
        // flight means no job can ever progress again. Complete with
        // whatever committed — the report is flagged degraded below —
        // instead of wedging in this loop forever.
        if workers.iter().all(|w| w.breaker.is_evicted()) && table.active_leases().is_empty() {
            eprintln!("repro: fleet degraded: every worker evicted; returning partial report");
            break Ok(());
        }

        // 1. Expire overdue leases; their jobs re-queue behind backoff.
        for expired in table.tick(now) {
            lease_worker.remove(&expired.lease_id);
            if !expired.quarantined {
                orphans.insert(expired.lease_id, expired.worker.clone());
                continue;
            }
            rh_obs::counter!(names::FLEET_QUARANTINED, 1);
            if let Some(progress) = &cfg.progress {
                progress.record_status(&ModuleStatus::Quarantined {
                    attempts: cfg.retry.max_attempts,
                    error: "lease expired; attempt budget exhausted".to_string(),
                });
            }
        }

        // 2. Dispatch every ready job to an available worker.
        while let Some(module) = table.next_ready(now) {
            let n = workers.len();
            let mut found = None;
            for offset in 0..n {
                let i = (rr_cursor + offset) % n;
                if workers[i].available(now) {
                    found = Some(i);
                    break;
                }
            }
            let Some(slot) = found else {
                break; // breakers open / advice backoff; try next tick
            };
            rr_cursor = slot + 1;
            let grant = grant(&mut table, &module, &workers[slot].addr, now)?;
            table.bind_trace(grant.lease_id, trace_id);
            let body = serde_json::to_string(&grant.to_json_value()).map_err(|e| {
                CharError::Checkpoint { detail: format!("fleet: serialize grant: {e}") }
            })?;
            // The RPC span is the remote parent of the worker's job
            // span: the HTTP client injects its traceparent while the
            // guard is live, so dispatch → worker.job links causally.
            let response = {
                let mut rpc = rh_obs::span(names::FLEET_DISPATCH_RPC);
                rpc.set("module", module.as_str());
                rpc.set("lease", grant.lease_id);
                rpc.set("worker", workers[slot].addr.as_str());
                http_post(&workers[slot].addr, "/job", &body, io_timeout)
            };
            match response {
                Ok(ClientResponse { status, .. }) if (200..300).contains(&status) => {
                    workers[slot].note_success();
                    lease_worker.insert(grant.lease_id, workers[slot].addr.clone());
                }
                Ok(response) => {
                    // Worker refused (503 all-slots-busy or 429
                    // admission shed): it answered, so the link is
                    // fine — honor its Retry-After advice and release
                    // the lease without burning the module's attempt
                    // budget.
                    workers[slot].note_success();
                    let advice = response
                        .retry_after
                        .unwrap_or_else(|| Duration::from_millis(cfg.poll_ms.max(100)));
                    workers[slot].back_off_advice(now, advice);
                    table.release(grant.lease_id, now);
                }
                Err(e) => {
                    workers[slot].note_failure(now);
                    if e.kind() == std::io::ErrorKind::ConnectionRefused {
                        // Never delivered: back to pending, attempt
                        // budget untouched.
                        table.release(grant.lease_id, now);
                    } else {
                        // The request may have reached the worker and
                        // only the reply was lost. Keep the lease and
                        // let the poll decide, so a delivered job is
                        // never run a second time elsewhere.
                        lease_worker.insert(grant.lease_id, workers[slot].addr.clone());
                    }
                }
            }
        }

        // 3. Poll every active lease: heartbeat, result, or miss.
        for (lease_id, worker_addr, _state) in table.active_leases() {
            let addr = lease_worker
                .get(&lease_id)
                .cloned()
                .unwrap_or_else(|| worker_addr.clone());
            // Bracket the poll with coordinator clock reads: the
            // midpoint pairs with the worker's now_us in the response
            // to estimate per-process clock skew for trace stitching.
            let poll_t0 = capture.as_ref().map(|c| c.recorder.elapsed_us());
            let verdict = poll_lease(&addr, lease_id, io_timeout);
            let bracket = capture.as_ref().and_then(|c| Some((poll_t0?, c.recorder.elapsed_us())));
            // Poll outcomes feed the worker's breaker too: a dead
            // worker with only in-flight leases (nothing left to
            // dispatch) still accumulates failures toward eviction,
            // and a successful poll closes a half-open breaker.
            if let Some(worker) = workers.iter_mut().find(|w| w.addr == addr) {
                match &verdict {
                    PollVerdict::Gone => worker.note_failure(now_ms(origin)),
                    _ => worker.note_success(),
                }
            }
            match verdict {
                PollVerdict::Alive => {
                    table.heartbeat(lease_id, now_ms(origin));
                }
                PollVerdict::Done { result, trace, event } => {
                    // Journal the embedded terminal event through the
                    // same dedup path as the stream copy — this is
                    // what guarantees a committed job's terminal
                    // event survives a worker SIGKILLed before its
                    // stream is scraped again.
                    if let (Some(journal), Some(ev)) = (journal.as_mut(), event.as_ref()) {
                        journal.ingest_one(&addr, ev);
                    }
                    let attempts = table.lease_generation(lease_id).unwrap_or(1);
                    if commit(&mut table, lease_id, result) == CommitOutcome::Committed {
                        if let (Some(c), Some(trace)) = (capture.as_ref(), trace.as_ref()) {
                            c.write_segment(lease_id, &addr, trace, bracket, false);
                        }
                        lease_worker.remove(&lease_id);
                        if let Some(progress) = &cfg.progress {
                            progress.record_status(&if attempts <= 1 {
                                ModuleStatus::Succeeded
                            } else {
                                ModuleStatus::Recovered { attempts }
                            });
                        }
                    }
                }
                PollVerdict::Failed { error, transient, event } => {
                    if let (Some(journal), Some(ev)) = (journal.as_mut(), event.as_ref()) {
                        journal.ingest_one(&addr, ev);
                    }
                    lease_worker.remove(&lease_id);
                    if table.fail(lease_id, &error, transient, now_ms(origin))
                        == FailOutcome::Quarantined
                    {
                        rh_obs::counter!(names::FLEET_QUARANTINED, 1);
                        if let Some(progress) = &cfg.progress {
                            progress.record_status(&ModuleStatus::Quarantined {
                                attempts: cfg.retry.max_attempts,
                                error,
                            });
                        }
                    }
                }
                PollVerdict::Gone => {
                    table.heartbeat_missed(lease_id);
                }
            }
        }
        let suspects = table
            .active_leases()
            .iter()
            .filter(|(_, _, s)| *s == rh_core::fleet::LeaseState::Suspect)
            .count();
        rh_obs::gauge!(names::FLEET_WORKER_SUSPECT, suspects as f64);
        let not_closed =
            workers.iter().filter(|w| w.breaker.state() != BreakerState::Closed).count();
        rh_obs::gauge!(names::FLEET_BREAKER_OPEN, not_closed as f64);

        // 4. Poll orphaned leases: a zombie that finished after its
        // lease expired gets its late result explicitly rejected.
        orphans.retain(|&lease_id, addr| match poll_lease(addr, lease_id, io_timeout) {
            PollVerdict::Done { result, trace, event } => {
                // Stale by construction: the lease no longer owns its
                // job, so commit() counts it as fleet.duplicate. Its
                // trace segment is still kept — flagged, not dropped —
                // so the stitched tree shows what the zombie executed.
                if let (Some(c), Some(trace)) = (capture.as_ref(), trace.as_ref()) {
                    c.write_segment(lease_id, addr, trace, None, true);
                }
                if let (Some(journal), Some(ev)) = (journal.as_mut(), event.as_ref()) {
                    journal.ingest_one(addr, ev);
                }
                commit(&mut table, lease_id, result);
                false
            }
            PollVerdict::Alive => true,
            _ => false,
        });

        // 5. Scrape worker event streams into the journal. This never
        // feeds the circuit breakers.
        if let Some(journal) = journal.as_mut() {
            scrape_all(journal, &workers, io_timeout);
        }

        std::thread::sleep(Duration::from_millis(cfg.poll_ms.max(10)));
    };

    // Final drain: trailing events emitted after the last in-loop
    // scrape (typically the winning jobs' committed events) get one
    // more chance to land in the journal; dead workers just fail the
    // connect and are skipped.
    if let Some(journal) = journal.as_mut() {
        scrape_all(journal, &workers, io_timeout);
    }

    // Fan cancellation out to the workers we know about, then tear
    // down the children we spawned.
    if outcome.is_err() {
        for (lease_id, addr) in &lease_worker {
            let _ = http_post(
                addr,
                "/cancel",
                &format!("{{\"lease_id\":{lease_id}}}"),
                io_timeout,
            );
        }
        if let Some(progress) = &cfg.progress {
            for (_, _, _) in table.active_leases() {
                progress.record_status(&ModuleStatus::Cancelled { attempts: 1 });
            }
        }
    }
    for worker in &mut workers {
        if let Some(mut child) = worker.spawned.take() {
            let _ = http_post(&worker.addr, "/shutdown", "{}", io_timeout);
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
    }

    // Evicted workers are the fleet's permanent losses. The report is
    // only *degraded* when losses left work uncommitted — a fleet
    // that absorbed a death and still committed everything is clean.
    let workers_lost = workers.iter().filter(|w| w.breaker.is_evicted()).count() as u64;
    outcome.map(|()| {
        let mut report = table.report();
        report.mark_degraded(workers_lost);
        report
    })
}

/// Renders a fleet report the way `repro` prints campaign footers.
#[must_use]
pub fn fleet_text(report: &FleetReport) -> String {
    let mut s = format!("fleet: {}\n", report.summary_line());
    for outcome in report.outcomes.iter().filter(|o| o.status != "committed") {
        s.push_str(&format!(
            "  {} {} after {} attempt(s)\n",
            outcome.status, outcome.id, outcome.attempts
        ));
        for error in &outcome.errors {
            s.push_str(&format!("    - {error}\n"));
        }
    }
    for outcome in &report.outcomes {
        if let Some(token) = &outcome.replay_token {
            s.push_str(&format!("  replay {} {token}\n", outcome.id));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_jobs_are_stable_and_ordered() {
        let cfg = FleetConfig { seed: 3, modules_per_mfr: 2, ..FleetConfig::default() };
        let jobs = fleet_jobs(&cfg);
        assert_eq!(jobs.len(), 8, "4 manufacturers x 2 modules");
        let again = fleet_jobs(&cfg);
        assert_eq!(
            jobs.iter().map(|(id, _)| id.clone()).collect::<Vec<_>>(),
            again.iter().map(|(id, _)| id.clone()).collect::<Vec<_>>()
        );
        // Ids are unique.
        let mut ids: Vec<_> = jobs.iter().map(|(id, _)| id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 8);
    }

    #[test]
    fn local_fleet_run_is_deterministic() {
        let cfg = FleetConfig { seed: 11, ..FleetConfig::default() };
        let a = run_fleet_local(&cfg).unwrap();
        let b = run_fleet_local(&cfg).unwrap();
        assert!(a.is_clean());
        assert_eq!(a.results.len(), 4);
        assert_eq!(
            serde_json::to_string(&a.to_json_value()).unwrap(),
            serde_json::to_string(&b.to_json_value()).unwrap(),
            "local oracle must be bit-stable"
        );
    }

    #[test]
    fn fleet_without_workers_is_refused() {
        let cfg = FleetConfig::default();
        let err = run_fleet(&cfg).unwrap_err();
        assert!(err.to_string().contains("no workers"), "got {err}");
    }
}
