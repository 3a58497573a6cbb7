//! The `repro serve` fleet worker: a process that owns a shard of
//! characterization work and executes jobs POSTed by the `repro
//! fleet` coordinator.
//!
//! A worker is the telemetry HTTP server from `rh-obs` plus custom
//! routes (via [`rh_obs::TelemetrySource::handle`]):
//!
//! - `POST /job` — body is a [`JobGrant`]; accepted jobs run on a
//!   detached thread and the reply is `202 {"accepted":true,...}`.
//!   When every slot is busy the worker answers `503` with a
//!   `Retry-After` header instead of queueing unboundedly.
//! - `GET /job?lease=N` — the coordinator's combined heartbeat and
//!   result poll: `{"state":"running"|"done"|"failed"|"cancelled"}`
//!   plus the result or error. An unknown lease (e.g. the worker
//!   restarted) is `404 {"state":"unknown"}`.
//! - `POST /cancel` — body `{"lease_id":N}`; trips the job's remote
//!   cancel token. Coordinator-driven lease revocation and operator
//!   Ctrl-C meet in the same [`CancelToken::linked`] token.
//! - `POST /shutdown` — drains and exits the serve loop.
//! - `GET /events?since=N&max=M&wait=MS` — bounded long-poll over the
//!   worker's per-job lifecycle [`rh_obs::EventRing`]: a JSONL batch
//!   of events with `seq > since`, oldest first. The `since` cursor a
//!   consumer presents doubles as its delivery acknowledgement, which
//!   `/progress` re-exposes as `last_seq`/`acked_seq` journal lag.
//!
//! `GET /metrics`, `/progress`, and `/healthz` keep working, so a
//! worker's counters, queue and journal lag can be read while it runs.
//!
//! The work itself is deterministic in the payload: the same
//! `(module, seed, scale, workload)` produces bit-identical JSON on
//! any worker, which is what lets the coordinator re-dispatch freely
//! and still match a single-process run.

use crate::runners::{campaign_module_id, characterizer_armed, RunConfig};
use rh_core::fleet::JobGrant;
use rh_core::{CharError, ReplayToken, Scale};
use rh_dram::Manufacturer;
use rh_obs::names;
use rh_obs::{EventKind, EventRing, HttpRequest, HttpResponse, JobEvent, TelemetrySource};
use rh_softmc::CancelToken;
use serde::{Deserialize, Serialize, Value};
use serde_json::json;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Sizing and wiring of one fleet worker.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Bind address (e.g. `127.0.0.1:0` for an OS-assigned port).
    pub addr: String,
    /// Concurrent job slots.
    pub slots: usize,
    /// Bounded admission queue: submissions beyond the running slots
    /// wait here; beyond `slots + queue_depth` in flight, further
    /// submissions are shed with `429` + `Retry-After`.
    pub queue_depth: usize,
    /// `Retry-After` seconds advertised when submissions are shed.
    pub retry_after_secs: u64,
    /// Operator cancellation (SIGINT/SIGTERM in `repro serve`).
    pub cancel: CancelToken,
    /// Server-side network fault plan for chaos testing: replies are
    /// dripped/truncated/corrupted per this seeded schedule. `None`
    /// (or an inert plan) serves faithfully.
    pub fault: Option<rh_obs::NetFaultPlan>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            slots: 2,
            queue_depth: 4,
            retry_after_secs: 1,
            cancel: CancelToken::new(),
            fault: None,
        }
    }
}

/// One fleet job: the [`crate::EXPERIMENTS`] entry named `workload`
/// on module `index` of `mfr`. Its JSON is the wire payload the
/// coordinator grants and the fields replay tokens are minted from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Manufacturer of the module.
    pub mfr: Manufacturer,
    /// Module index within the manufacturer.
    pub index: usize,
    /// Base seed, exactly as `repro --seed`.
    pub seed: u64,
    /// Experiment scale.
    pub scale: Scale,
    /// Name of the experiment to run.
    pub workload: String,
}

impl JobSpec {
    /// The job a replay token names.
    ///
    /// # Errors
    ///
    /// [`CharError::InvalidInput`] when the token's manufacturer or
    /// scale is unknown.
    pub fn from_replay(token: &ReplayToken) -> Result<Self, CharError> {
        let name = |s: &str| Value::Str(s.to_string());
        Ok(Self {
            mfr: Manufacturer::from_json_value(&name(&token.mfr)).map_err(malformed)?,
            index: usize::try_from(token.index).map_err(malformed)?,
            seed: token.seed,
            scale: Scale::from_json_value(&name(&token.scale)).map_err(malformed)?,
            workload: token.workload.clone(),
        })
    }

    /// Runs the job to completion (or cancellation) on a fresh bench,
    /// built exactly like a campaign's first attempt. Deterministic in
    /// the spec, so re-dispatched runs are bit-identical.
    ///
    /// # Errors
    ///
    /// [`CharError`] from the characterization itself, an unknown
    /// workload, or cancellation.
    pub fn execute(&self, cancel: &CancelToken) -> Result<Value, CharError> {
        let (_, run) = crate::experiment(&self.workload)
            .ok_or_else(|| malformed(format!("unknown workload '{}'", self.workload)))?;
        let cfg = RunConfig { seed: self.seed, scale: self.scale, ..RunConfig::default() };
        run(&mut characterizer_armed(self.mfr, &cfg, self.index, 1, cancel)?)
    }
}

fn malformed(what: impl std::fmt::Display) -> CharError {
    CharError::InvalidInput { detail: format!("fleet payload: {what}") }
}

/// The stable module id of one fleet job — identical to the campaign
/// module id of the same `(mfr, index, seed)`, so fleet and
/// single-process reports line up key-for-key.
#[must_use]
pub fn fleet_module_id(mfr: Manufacturer, index: usize, seed: u64) -> String {
    campaign_module_id(mfr, &RunConfig { seed, ..RunConfig::default() }, index)
}

/// Decodes a [`JobSpec`] payload and executes it.
///
/// # Errors
///
/// As [`JobSpec::execute`], plus a payload that is not a `JobSpec`.
pub fn execute_payload(payload: &Value, cancel: &CancelToken) -> Result<Value, CharError> {
    JobSpec::from_json_value(payload).map_err(malformed)?.execute(cancel)
}

/// Byte budget for one job's trace segment in a Done poll reply.
/// Records beyond it are shed (counted via `obs.trace.shed`), keeping
/// the reply far under the client's 4 MiB response cap.
const TRACE_SEGMENT_BUDGET: usize = 32 * 1024;

/// One job slot's lifecycle on the worker.
#[derive(Debug, Clone)]
enum JobState {
    /// Admitted but waiting for a free slot; polls answer `"queued"`,
    /// which the coordinator treats as a live heartbeat.
    Queued,
    Running,
    Done(Value),
    Failed { error: String, transient: bool },
    Cancelled,
}

#[derive(Debug)]
struct JobSlot {
    lease_id: u64,
    generation: u32,
    module_id: String,
    /// Retained until execution starts, so queued jobs can launch
    /// after their submission request has long been answered.
    payload: Value,
    state: JobState,
    /// The remote half tripped by `POST /cancel`.
    cancel: CancelToken,
    /// Operator ∪ remote; what the executing job watches.
    token: CancelToken,
    /// Trace context from the submission's `Traceparent` header; the
    /// job thread adopts it so its spans join the coordinator's trace.
    trace: Option<rh_obs::TraceContext>,
    /// [`rh_obs::thread_ordinal`] of the executing job thread, set at
    /// thread start — the key that isolates this job's records in the
    /// shared recorder when the segment ships back.
    job_tid: Option<u64>,
    /// The terminal lifecycle event emitted when this job finished. A
    /// byte-identical copy rides in the Done/Failed/Cancelled poll
    /// reply so the coordinator journals a terminal event even if it
    /// never reaches `/events` again (the stream copy and the poll
    /// copy collapse under `(lease_id, seq)` dedup).
    terminal: Option<JobEvent>,
}

/// Shared state between the HTTP routes and the job threads.
struct WorkerState {
    slots: usize,
    queue_depth: usize,
    retry_after_secs: u64,
    jobs: Mutex<Vec<JobSlot>>,
    running: AtomicUsize,
    operator: CancelToken,
    shutdown: AtomicBool,
    /// The worker's own recorder, for extracting per-job trace
    /// segments to ship back with results. `None` only in tests that
    /// build the state by hand.
    recorder: Option<Arc<rh_obs::Recorder>>,
    /// Per-job lifecycle events with monotone seqs, served by
    /// `GET /events`.
    events: EventRing,
}

impl WorkerState {
    fn submit(
        &self,
        grant: JobGrant,
        trace: Option<rh_obs::TraceContext>,
        state: &Arc<WorkerState>,
    ) -> HttpResponse {
        let mut jobs = lock(&self.jobs);
        // Idempotent re-submission of a lease we already hold (e.g.
        // the coordinator's POST reply was lost) — but only for the
        // *same* job: a known lease ID carrying a different module or
        // generation is a distinct coordinator incarnation reusing the
        // ID, and silently adopting the stored job would hand it the
        // wrong module's result. Refuse so the coordinator re-grants
        // under a fresh ID.
        if let Some(held) = jobs.iter().find(|j| j.lease_id == grant.lease_id) {
            if held.module_id == grant.module_id && held.generation == grant.generation {
                return HttpResponse::json(
                    200,
                    json!({"accepted": true, "lease_id": grant.lease_id}).to_string(),
                );
            }
            rh_obs::counter!(names::WORKER_JOBS_REJECTED, 1);
            return HttpResponse::json(
                409,
                json!({"accepted": false, "error": "lease id collision"}).to_string(),
            );
        }
        // Admission control: `slots` jobs run, up to `queue_depth`
        // more wait in line, and anything beyond that is shed with
        // `429` so a coordinator under chaos cannot pile unbounded
        // work onto a struggling worker.
        let running = self.running.load(Ordering::SeqCst);
        let queued = jobs.iter().filter(|j| matches!(j.state, JobState::Queued)).count();
        if running >= self.slots && queued >= self.queue_depth {
            rh_obs::counter!(names::WORKER_ADMISSION_SHED, 1);
            self.events.emit(
                EventKind::Shed,
                grant.lease_id,
                &grant.module_id,
                (running + queued) as u64,
                "admission queue full",
            );
            return HttpResponse::json(429, json!({"accepted": false}).to_string())
                .with_header("Retry-After", self.retry_after_secs.to_string());
        }
        let remote = CancelToken::new();
        let token = self.operator.linked(&remote);
        let start_now = running < self.slots;
        let lease_id = grant.lease_id;
        jobs.push(JobSlot {
            lease_id,
            generation: grant.generation,
            module_id: grant.module_id.clone(),
            payload: grant.payload,
            state: if start_now { JobState::Running } else { JobState::Queued },
            cancel: remote,
            token,
            trace,
            job_tid: None,
            terminal: None,
        });
        if start_now {
            self.running.fetch_add(1, Ordering::SeqCst);
            self.events.emit(EventKind::Accepted, lease_id, &grant.module_id, 0, "");
        } else {
            rh_obs::counter!(names::WORKER_ADMISSION_QUEUED, 1);
            self.events.emit(
                EventKind::Queued,
                lease_id,
                &grant.module_id,
                (queued + 1) as u64,
                "",
            );
        }
        rh_obs::counter!(names::WORKER_JOBS_ACCEPTED, 1);
        drop(jobs);

        if start_now && !start_job(state, lease_id) {
            rh_obs::counter!(names::WORKER_JOBS_REJECTED, 1);
            return HttpResponse::json(503, json!({"accepted": false}).to_string())
                .with_header("Retry-After", self.retry_after_secs.to_string());
        }
        HttpResponse::json(
            202,
            json!({"accepted": true, "lease_id": lease_id, "queued": !start_now}).to_string(),
        )
    }

    fn poll(&self, lease_id: u64) -> HttpResponse {
        let jobs = lock(&self.jobs);
        let Some(slot) = jobs.iter().find(|j| j.lease_id == lease_id) else {
            return HttpResponse::json(404, json!({"state": "unknown"}).to_string());
        };
        let mut body = match &slot.state {
            JobState::Queued => json!({"state": "queued", "lease_id": lease_id}),
            JobState::Running => json!({"state": "running", "lease_id": lease_id}),
            JobState::Done(result) => {
                let mut body = json!({
                    "state": "done",
                    "lease_id": lease_id,
                    "generation": slot.generation,
                    "module_id": slot.module_id.clone(),
                    "result": result.clone(),
                });
                // Ship the job's bounded trace segment *beside* the
                // result, never inside it: the committed result must
                // stay bit-identical to a single-process run.
                if let (Some(recorder), Some(trace), Some(tid)) =
                    (&self.recorder, slot.trace, slot.job_tid)
                {
                    let (segment, shed) =
                        recorder.trace_segment(trace.trace_id, tid, TRACE_SEGMENT_BUDGET);
                    if shed > 0 {
                        rh_obs::counter!(names::OBS_TRACE_SHED, shed);
                    }
                    if let Value::Object(pairs) = &mut body {
                        pairs.push((
                            "trace".to_string(),
                            json!({
                                "segment": segment,
                                "shed": shed,
                                "now_us": recorder.elapsed_us(),
                            }),
                        ));
                    }
                }
                body
            }
            JobState::Failed { error, transient } => json!({
                "state": "failed",
                "lease_id": lease_id,
                "error": error.clone(),
                "transient": *transient,
            }),
            JobState::Cancelled => json!({"state": "cancelled", "lease_id": lease_id}),
        };
        // Terminal replies carry the job's terminal lifecycle event:
        // the coordinator journals it through the same dedup path as
        // the `/events` stream, so every committed job has exactly one
        // terminal journal entry even when the stream is never read
        // again (worker SIGKILLed between the poll and the scrape).
        if let Some(ev) = &slot.terminal {
            if let Value::Object(pairs) = &mut body {
                pairs.push(("event".to_string(), ev.to_value()));
            }
        }
        HttpResponse::ok_json(body.to_string())
    }

    fn cancel_lease(&self, lease_id: u64) -> HttpResponse {
        let jobs = lock(&self.jobs);
        match jobs.iter().find(|j| j.lease_id == lease_id) {
            Some(slot) => {
                slot.cancel.cancel();
                HttpResponse::ok_json(json!({"ok": true}).to_string())
            }
            None => HttpResponse::json(404, json!({"state": "unknown"}).to_string()),
        }
    }
}

/// Spawns the executor thread for `lease_id`, whose slot must already
/// be `Running` (its slot count reserved). On thread-spawn failure the
/// slot is rolled back entirely — the coordinator's poll then sees
/// `unknown` and the lease expires into a re-dispatch.
fn start_job(state: &Arc<WorkerState>, lease_id: u64) -> bool {
    let staged = {
        let jobs = lock(&state.jobs);
        jobs.iter()
            .find(|j| j.lease_id == lease_id)
            .map(|slot| (slot.payload.clone(), slot.token.clone(), slot.trace, slot.module_id.clone()))
    };
    let Some((payload, token, trace, module_id)) = staged else {
        state.running.fetch_sub(1, Ordering::SeqCst);
        return false;
    };
    let owner = Arc::clone(state);
    let spawned = std::thread::Builder::new()
        .name(format!("rh-fleet-job-{lease_id}"))
        .spawn(move || {
            // Adopt the coordinator's trace (this thread runs exactly
            // one job, then exits) and record which thread ordinal the
            // job's records will carry, so the Done poll can extract
            // this job's segment from the shared recorder.
            if let Some(ctx) = trace {
                rh_obs::set_remote_parent(ctx);
            }
            {
                let mut jobs = lock(&owner.jobs);
                if let Some(slot) = jobs.iter_mut().find(|j| j.lease_id == lease_id) {
                    slot.job_tid = Some(rh_obs::thread_ordinal());
                }
            }
            owner.events.emit(EventKind::Started, lease_id, &module_id, 0, "");
            let outcome = if token.is_cancelled() {
                Err(CharError::Cancelled { op: "fleet job".to_string() })
            } else {
                let mut span = rh_obs::span(names::WORKER_JOB_SPAN);
                span.set("lease", lease_id);
                span.set("module", module_id.clone());
                execute_payload(&payload, &token)
            };
            {
                let (state, terminal) = match outcome {
                    Ok(result) => {
                        rh_obs::counter!(names::WORKER_JOBS_COMPLETED, 1);
                        let flips = flip_evidence(&result);
                        if flips > 0 {
                            owner.events.emit(
                                EventKind::FlipFound,
                                lease_id,
                                &module_id,
                                flips,
                                "",
                            );
                        }
                        let ev = owner.events.emit_full(
                            EventKind::Committed,
                            lease_id,
                            &module_id,
                            flips,
                            "",
                        );
                        (JobState::Done(result), ev)
                    }
                    Err(e) if e.is_cancelled() || token.is_cancelled() => {
                        rh_obs::counter!(names::WORKER_JOBS_CANCELLED, 1);
                        let ev = owner.events.emit_full(
                            EventKind::Cancelled,
                            lease_id,
                            &module_id,
                            0,
                            "",
                        );
                        (JobState::Cancelled, ev)
                    }
                    Err(e) => {
                        rh_obs::counter!(names::WORKER_JOBS_FAILED, 1);
                        let error = e.to_string();
                        let ev = owner.events.emit_full(
                            EventKind::Failed,
                            lease_id,
                            &module_id,
                            0,
                            &error,
                        );
                        (JobState::Failed { error, transient: e.is_transient() }, ev)
                    }
                };
                let mut jobs = lock(&owner.jobs);
                if let Some(slot) = jobs.iter_mut().find(|j| j.lease_id == lease_id) {
                    slot.state = state;
                    slot.terminal = Some(terminal);
                }
                owner.running.fetch_sub(1, Ordering::SeqCst);
            }
            // The freed slot pulls the next queued job, if any.
            pump(&owner);
        });
    if spawned.is_err() {
        let mut jobs = lock(&state.jobs);
        jobs.retain(|j| j.lease_id != lease_id);
        state.running.fetch_sub(1, Ordering::SeqCst);
        return false;
    }
    true
}

/// Promotes queued jobs into free slots until either runs out.
fn pump(state: &Arc<WorkerState>) {
    loop {
        let promoted = {
            let mut jobs = lock(&state.jobs);
            if state.running.load(Ordering::SeqCst) >= state.slots {
                return;
            }
            let Some(slot) = jobs.iter_mut().find(|j| matches!(j.state, JobState::Queued)) else {
                return;
            };
            slot.state = JobState::Running;
            state.running.fetch_add(1, Ordering::SeqCst);
            state.events.emit(
                EventKind::Progress,
                slot.lease_id,
                &slot.module_id,
                0,
                "promoted from queue",
            );
            slot.lease_id
        };
        let _ = start_job(state, promoted);
    }
}

/// Flip evidence carried on `flip_found`/`committed` events: the
/// result's own vulnerability tally when the workload exposes one
/// (`vulnerable_cells` for `temp_ranges`, vulnerable-row count for
/// `row_variation`), else 0.
fn flip_evidence(result: &Value) -> u64 {
    if let Some(n) = result.field("vulnerable_cells").as_u64() {
        return n;
    }
    if let Value::Array(rows) = result.field("rows") {
        return rows.len() as u64;
    }
    0
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The [`TelemetrySource`] a worker serves: built-in telemetry plus
/// the job-control routes.
struct WorkerSource {
    state: Arc<WorkerState>,
    recorder: Arc<rh_obs::Recorder>,
}

impl TelemetrySource for WorkerSource {
    fn metrics_text(&self) -> String {
        rh_obs::export::render_prometheus(&self.recorder)
    }

    fn progress_json(&self) -> String {
        let jobs = lock(&self.state.jobs);
        let running = self.state.running.load(Ordering::SeqCst);
        let queued = jobs.iter().filter(|j| matches!(j.state, JobState::Queued)).count();
        // Per-slot detail: what each slot is actually executing, with
        // the trace id linking it to the distributed trace ("0" =
        // untraced submission).
        let slots: Vec<Value> = jobs
            .iter()
            .map(|j| {
                json!({
                    "lease_id": j.lease_id,
                    "module": j.module_id.clone(),
                    "state": match &j.state {
                        JobState::Queued => "queued",
                        JobState::Running => "running",
                        JobState::Done(_) => "done",
                        JobState::Failed { .. } => "failed",
                        JobState::Cancelled => "cancelled",
                    },
                    "trace_id": j.trace.map_or("0".to_string(), |t| format!("{:032x}", t.trace_id)),
                })
            })
            .collect();
        json!({
            "total": jobs.len(),
            "running": running,
            "queued": queued,
            "slots": slots,
            // Journal lag: highest seq emitted vs highest resume
            // cursor any consumer has presented.
            "last_seq": self.state.events.last_seq(),
            "acked_seq": self.state.events.acked_seq(),
            "events_dropped": self.state.events.dropped(),
        })
        .to_string()
    }

    fn healthy(&self) -> bool {
        !self.state.operator.is_cancelled() && !self.state.shutdown.load(Ordering::SeqCst)
    }

    fn handle(&self, request: &HttpRequest) -> Option<HttpResponse> {
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/job") => {
                let grant = serde_json::from_str::<Value>(&request.body)
                    .ok()
                    .and_then(|v| JobGrant::from_json_value(&v).ok());
                Some(match grant {
                    Some(grant) => self.state.submit(grant, request.traceparent, &self.state),
                    None => HttpResponse::json(400, "{\"error\":\"bad job grant\"}".to_string()),
                })
            }
            ("GET", "/job") => {
                let lease = request.query_param("lease").and_then(|v| v.parse::<u64>().ok());
                Some(match lease {
                    Some(lease) => self.state.poll(lease),
                    None => HttpResponse::json(400, "{\"error\":\"missing lease\"}".to_string()),
                })
            }
            ("POST", "/cancel") => {
                let lease = serde_json::from_str::<Value>(&request.body)
                    .ok()
                    .and_then(|v| v.field("lease_id").as_u64());
                Some(match lease {
                    Some(lease) => self.state.cancel_lease(lease),
                    None => HttpResponse::json(400, "{\"error\":\"missing lease_id\"}".to_string()),
                })
            }
            ("POST", "/shutdown") => {
                self.state.shutdown.store(true, Ordering::SeqCst);
                Some(HttpResponse::ok_json(json!({"ok": true}).to_string()))
            }
            ("GET", "/events") => {
                let since = request
                    .query_param("since")
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
                let max = request
                    .query_param("max")
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or(256)
                    .min(4096);
                // Bounded long-poll: capped well under the client's
                // read timeout so a quiet worker still answers.
                let wait_ms = request
                    .query_param("wait")
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0)
                    .min(2_000);
                rh_obs::counter!(names::WORKER_EVENTS_POLLS, 1);
                let batch =
                    self.state.events.since(since, max, Duration::from_millis(wait_ms));
                Some(
                    HttpResponse::text(200, EventRing::to_jsonl(&batch.events))
                        .with_header("X-Last-Seq", batch.last_seq.to_string())
                        .with_header("X-Dropped", batch.dropped.to_string()),
                )
            }
            (_, "/job" | "/cancel" | "/shutdown" | "/events") => {
                Some(HttpResponse::method_not_allowed(match request.path.as_str() {
                    "/job" => "GET, POST",
                    "/events" => "GET",
                    _ => "POST",
                }))
            }
            _ => None,
        }
    }
}

/// Runs one fleet worker until `POST /shutdown` or operator
/// cancellation. Installs its own [`rh_obs::Recorder`] so `/metrics`
/// is live, announces its bound address on stderr (`repro: worker
/// serving on http://ADDR` — the line the coordinator and CI parse),
/// and joins every thread before returning.
///
/// # Errors
///
/// Binding the listen address.
pub fn run_worker(cfg: &WorkerConfig) -> std::io::Result<()> {
    let recorder = Arc::new(rh_obs::Recorder::new());
    rh_obs::install(recorder.clone());

    let state = Arc::new(WorkerState {
        slots: cfg.slots.max(1),
        queue_depth: cfg.queue_depth,
        retry_after_secs: cfg.retry_after_secs,
        jobs: Mutex::new(Vec::new()),
        running: AtomicUsize::new(0),
        operator: cfg.cancel.clone(),
        shutdown: AtomicBool::new(false),
        recorder: Some(Arc::clone(&recorder)),
        events: EventRing::new(4096),
    });
    let source = Arc::new(WorkerSource { state: Arc::clone(&state), recorder });

    let watch = Arc::clone(&state);
    let shutdown = Box::new(move || {
        watch.operator.is_cancelled() || watch.shutdown.load(Ordering::SeqCst)
    });
    let serve_cfg = rh_obs::ServeConfig {
        // Job submissions + heartbeats from the coordinator plus
        // scrapes: a little more headroom than the pure-telemetry
        // default.
        workers: 4,
        queue_depth: 32,
        retry_after_secs: cfg.retry_after_secs,
        fault: cfg
            .fault
            .as_ref()
            .filter(|plan| !plan.is_inert())
            .map(|plan| Arc::new(plan.injector())),
        ..rh_obs::ServeConfig::default()
    };
    let mut server = rh_obs::serve_with(&cfg.addr, source, &serve_cfg, Some(shutdown))?;
    eprintln!("repro: worker serving on http://{}", server.local_addr());

    // Block until shutdown is requested, then drain: revoke every
    // running job and wait for the slots to empty.
    while !state.operator.is_cancelled() && !state.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
    }
    server.shutdown();
    for slot in lock(&state.jobs).iter() {
        slot.cancel.cancel();
    }
    let drain_deadline = std::time::Instant::now() + Duration::from_secs(10);
    while state.running.load(Ordering::SeqCst) > 0
        && std::time::Instant::now() < drain_deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    rh_obs::uninstall();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_obs::{http_get, http_post};

    fn start_worker(
        slots: usize,
        queue_depth: usize,
    ) -> (std::thread::JoinHandle<()>, String, CancelToken) {
        // Bind first so the test knows the address without parsing
        // stderr: ask the OS for a free port, then hand it to the
        // worker. (A race window exists but loopback port reuse in a
        // fresh netns makes it negligible for tests.)
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let cancel = CancelToken::new();
        let cfg = WorkerConfig {
            addr: addr.clone(),
            slots,
            queue_depth,
            retry_after_secs: 1,
            cancel: cancel.clone(),
            fault: None,
        };
        let handle = std::thread::spawn(move || {
            run_worker(&cfg).unwrap();
        });
        // Wait for the listener to come up.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while std::net::TcpStream::connect(&addr).is_err() {
            assert!(std::time::Instant::now() < deadline, "worker never bound {addr}");
            std::thread::sleep(Duration::from_millis(10));
        }
        (handle, addr, cancel)
    }

    /// The job of module 0 of `mfr`.
    fn spec(mfr: Manufacturer, seed: u64, scale: Scale, workload: &str) -> JobSpec {
        JobSpec { mfr, index: 0, seed, scale, workload: workload.to_string() }
    }

    #[test]
    fn job_spec_is_the_old_wire_payload() {
        let job = JobSpec { index: 3, ..spec(Manufacturer::C, 42, Scale::Paper, "column_map") };
        // The payload `job_payload` built with `json!` before `JobSpec`.
        let old = json!({
            "mfr": format!("{:?}", Manufacturer::C),
            "index": 3usize,
            "seed": 42u64,
            "scale": format!("{:?}", Scale::Paper),
            "workload": "column_map",
        });
        let text = job.to_json_value().to_string();
        assert_eq!(text, old.to_string());
        assert_eq!(
            text,
            r#"{"mfr":"C","index":3,"seed":42,"scale":"Paper","workload":"column_map"}"#
        );
        for mfr in Manufacturer::ALL {
            for scale in [Scale::Smoke, Scale::Default, Scale::Paper] {
                let job = spec(mfr, u64::MAX, scale, "dose_response");
                assert_eq!(JobSpec::from_json_value(&job.to_json_value()), Ok(job));
            }
        }
    }

    #[test]
    fn malformed_payloads_are_errors() {
        let good = spec(Manufacturer::A, 7, Scale::Smoke, "row_variation").to_json_value();
        let with = |key: &str, value: Value| {
            let Value::Object(mut pairs) = good.clone() else { unreachable!() };
            pairs.retain(|(k, _)| k != key);
            if !value.is_null() {
                pairs.push((key.to_string(), value));
            }
            Value::Object(pairs)
        };
        let bad = [
            ("workload", with("workload", json!("fig4"))),
            ("mfr", with("mfr", json!("MfrA"))),
            ("scale", with("scale", json!("smoke"))),
            ("index", with("index", json!(-1))),
            ("seed", with("seed", Value::Null)),
            ("not an object", json!([1, 2])),
        ];
        for (what, payload) in bad {
            let err = execute_payload(&payload, &CancelToken::new())
                .expect_err(&format!("{what}: {payload}"));
            assert!(
                matches!(&err, CharError::InvalidInput { detail } if detail.starts_with("fleet payload: ")),
                "{what}: {err}"
            );
        }
        let token = |mfr: &str, scale: &str| ReplayToken {
            workload: "row_variation".to_string(),
            mfr: mfr.to_string(),
            index: 0,
            seed: 7,
            scale: scale.to_string(),
            net_plan: "none".to_string(),
            net_seed: 0,
            result_hash: 0,
            trace_id: 0,
        };
        let job = JobSpec::from_replay(&token("A", "Smoke")).unwrap();
        assert_eq!(job.to_json_value(), good);
        assert!(JobSpec::from_replay(&token("MfrA", "Smoke")).is_err());
        assert!(JobSpec::from_replay(&token("A", "smoke")).is_err());
    }

    fn grant(lease_id: u64, generation: u32) -> JobGrant {
        JobGrant {
            module_id: fleet_module_id(Manufacturer::A, 0, 7),
            payload: spec(Manufacturer::A, 7, Scale::Smoke, "row_variation").to_json_value(),
            lease_id,
            generation,
            lease_ms: 5_000,
        }
    }

    fn poll_until_done(addr: &str, lease: u64) -> Value {
        let timeout = Duration::from_secs(5);
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            let r = http_get(addr, &format!("/job?lease={lease}"), timeout).unwrap();
            let v: Value = serde_json::from_str(&r.body).unwrap();
            match v.field("state").as_str() {
                // "queued" is a live heartbeat too: promotion into a
                // freed slot races the poll, so keep waiting.
                Some("running" | "queued") => {
                    assert!(std::time::Instant::now() < deadline, "job never finished");
                    std::thread::sleep(Duration::from_millis(20));
                }
                _ => return v,
            }
        }
    }

    #[test]
    fn worker_runs_a_job_and_result_is_deterministic() {
        let (handle, addr, _cancel) = start_worker(2, 0);
        let timeout = Duration::from_secs(5);

        // Submit under a live trace context: the client injects the
        // traceparent header, the worker binds the job to our trace.
        let ctx = rh_obs::TraceContext { trace_id: 0x5eed, span_id: 0x1 };
        rh_obs::set_remote_parent(ctx);
        let g = grant(1, 1);
        let body = serde_json::to_string(&g.to_json_value()).unwrap();
        let r = http_post(&addr, "/job", &body, timeout).unwrap();
        assert_eq!(r.status, 202, "submit: {}", r.body);

        // Re-submitting the same lease is idempotent.
        let r = http_post(&addr, "/job", &body, timeout).unwrap();
        assert_eq!(r.status, 200, "resubmit: {}", r.body);

        // The progress route exposes per-slot lease/trace detail.
        let r = http_get(&addr, "/progress", timeout).unwrap();
        let progress: Value = serde_json::from_str(&r.body).unwrap();
        let slot = progress.field("slots").index(0);
        assert_eq!(slot.field("lease_id").as_u64(), Some(1), "{progress:?}");
        assert_eq!(
            slot.field("trace_id").as_str(),
            Some(format!("{:032x}", 0x5eed_u128).as_str()),
            "{progress:?}"
        );

        let done = poll_until_done(&addr, 1);
        rh_obs::set_remote_parent(rh_obs::TraceContext { trace_id: 0, span_id: 0 });
        assert_eq!(done.field("state").as_str(), Some("done"));
        assert_eq!(done.field("generation").as_u64(), Some(1));
        // The Done reply ships the job's trace segment beside (never
        // inside) the result.
        let trace = done.field("trace");
        assert!(!trace.is_null(), "Done reply must carry a trace object: {done:?}");
        assert!(trace.field("now_us").as_u64().is_some(), "{trace:?}");
        assert!(trace.field("shed").as_u64().is_some(), "{trace:?}");
        assert!(trace.field("segment").as_str().is_some(), "{trace:?}");
        let remote = done.field("result").clone();

        // The worker's result matches an in-process execution bit for
        // bit.
        let local = execute_payload(&g.payload, &CancelToken::new()).unwrap();
        assert_eq!(
            serde_json::to_string(&remote).unwrap(),
            serde_json::to_string(&local).unwrap(),
            "remote and local execution must be identical"
        );

        // Unknown leases are 404/unknown.
        let r = http_get(&addr, "/job?lease=999", timeout).unwrap();
        assert_eq!(r.status, 404);

        let r = http_post(&addr, "/shutdown", "{}", timeout).unwrap();
        assert_eq!(r.status, 200);
        handle.join().unwrap();
    }

    #[test]
    fn full_slots_answer_429_with_retry_after() {
        let (handle, addr, cancel) = start_worker(1, 0);
        let timeout = Duration::from_secs(5);

        // Occupy the only slot with a slow job (Default scale).
        let slow = JobGrant {
            module_id: fleet_module_id(Manufacturer::B, 0, 9),
            payload: spec(Manufacturer::B, 9, Scale::Default, "row_variation").to_json_value(),
            lease_id: 10,
            generation: 1,
            lease_ms: 60_000,
        };
        let r = http_post(
            &addr,
            "/job",
            &serde_json::to_string(&slow.to_json_value()).unwrap(),
            timeout,
        )
        .unwrap();
        assert_eq!(r.status, 202, "{}", r.body);

        // With no admission queue, the next submission must be shed
        // with backoff advice — unless the slow job already finished,
        // which Default scale makes effectively impossible within one
        // round trip.
        let g = grant(11, 1);
        let r = http_post(
            &addr,
            "/job",
            &serde_json::to_string(&g.to_json_value()).unwrap(),
            timeout,
        )
        .unwrap();
        assert_eq!(r.status, 429, "{}", r.body);
        assert_eq!(r.retry_after, Some(Duration::from_secs(1)), "Retry-After must be advertised");

        // Cancel the slow job remotely; the slot must drain.
        let r = http_post(&addr, "/cancel", "{\"lease_id\":10}", timeout).unwrap();
        assert_eq!(r.status, 200);
        let v = poll_until_done(&addr, 10);
        assert_eq!(v.field("state").as_str(), Some("cancelled"), "{v:?}");

        // Operator cancellation also downs the worker.
        cancel.cancel();
        handle.join().unwrap();
    }

    #[test]
    fn queued_job_runs_once_a_slot_frees() {
        let (handle, addr, cancel) = start_worker(1, 1);
        let timeout = Duration::from_secs(5);

        // Occupy the only slot with a job that cannot finish before the
        // `/cancel` below, however fast the build: a paper-scale sweep.
        let slow = JobGrant {
            module_id: fleet_module_id(Manufacturer::B, 0, 9),
            payload: spec(Manufacturer::B, 9, Scale::Paper, "row_variation").to_json_value(),
            lease_id: 20,
            generation: 1,
            lease_ms: 60_000,
        };
        let r = http_post(
            &addr,
            "/job",
            &serde_json::to_string(&slow.to_json_value()).unwrap(),
            timeout,
        )
        .unwrap();
        assert_eq!(r.status, 202, "{}", r.body);

        // A second submission is admitted into the queue, not shed.
        let quick = grant(21, 1);
        let r = http_post(
            &addr,
            "/job",
            &serde_json::to_string(&quick.to_json_value()).unwrap(),
            timeout,
        )
        .unwrap();
        assert_eq!(r.status, 202, "queued submission: {}", r.body);
        let v: Value = serde_json::from_str(&r.body).unwrap();
        assert_eq!(v.field("queued").as_bool(), Some(true));

        // While waiting it polls as "queued" (a live heartbeat)...
        let r = http_get(&addr, "/job?lease=21", timeout).unwrap();
        let v: Value = serde_json::from_str(&r.body).unwrap();
        assert_eq!(v.field("state").as_str(), Some("queued"), "{v:?}");

        // ...and a third submission overflows the bounded queue.
        let shed = grant(22, 1);
        let r = http_post(
            &addr,
            "/job",
            &serde_json::to_string(&shed.to_json_value()).unwrap(),
            timeout,
        )
        .unwrap();
        assert_eq!(r.status, 429, "overflow must shed: {}", r.body);
        assert_eq!(r.retry_after, Some(Duration::from_secs(1)));

        // Freeing the slot promotes the queued job to completion.
        let r = http_post(&addr, "/cancel", "{\"lease_id\":20}", timeout).unwrap();
        assert_eq!(r.status, 200);
        let v = poll_until_done(&addr, 21);
        assert_eq!(v.field("state").as_str(), Some("done"), "{v:?}");

        cancel.cancel();
        handle.join().unwrap();
    }

    #[test]
    fn events_stream_tracks_lifecycle_and_terminal_rides_the_poll() {
        let (handle, addr, cancel) = start_worker(1, 0);
        let timeout = Duration::from_secs(5);
        let g = grant(31, 1);
        let body = serde_json::to_string(&g.to_json_value()).unwrap();
        let r = http_post(&addr, "/job", &body, timeout).unwrap();
        assert_eq!(r.status, 202, "{}", r.body);
        let done = poll_until_done(&addr, 31);
        assert_eq!(done.field("state").as_str(), Some("done"));

        // The terminal event rides the poll reply...
        let embedded = JobEvent::from_json(done.field("event"))
            .unwrap_or_else(|| panic!("no embedded event: {done:?}"));
        assert_eq!(embedded.kind, EventKind::Committed);
        assert_eq!(embedded.lease_id, 31);

        // ...and the stream carries the same lifecycle, ending in a
        // committed event with the very same seq.
        let r = http_get(&addr, "/events?since=0&max=100", timeout).unwrap();
        assert_eq!(r.status, 200);
        let parsed = rh_obs::stream::parse_events(&r.body);
        assert_eq!(parsed.skipped, 0, "{}", r.body);
        let kinds: Vec<EventKind> = parsed.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds.first(), Some(&EventKind::Accepted), "{kinds:?}");
        assert_eq!(kinds.last(), Some(&EventKind::Committed), "{kinds:?}");
        assert!(kinds.contains(&EventKind::Started), "{kinds:?}");
        let committed = parsed.events.last().unwrap();
        assert_eq!(committed.seq, embedded.seq, "stream and poll copies must collapse");
        let seqs: Vec<u64> = parsed.events.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seqs must be monotone: {seqs:?}");

        // Presenting a resume cursor acknowledges delivery, which
        // /progress exposes as journal lag.
        let r = http_get(&addr, &format!("/events?since={}", committed.seq), timeout).unwrap();
        assert_eq!(r.status, 200);
        assert!(r.body.is_empty(), "drained stream must be empty: {}", r.body);
        let r = http_get(&addr, "/progress", timeout).unwrap();
        let progress: Value = serde_json::from_str(&r.body).unwrap();
        assert_eq!(progress.field("last_seq").as_u64(), Some(committed.seq), "{progress:?}");
        assert_eq!(progress.field("acked_seq").as_u64(), Some(committed.seq), "{progress:?}");

        cancel.cancel();
        handle.join().unwrap();
    }

    #[test]
    fn malformed_job_control_requests_are_400() {
        let (handle, addr, cancel) = start_worker(1, 0);
        let timeout = Duration::from_secs(5);
        let r = http_post(&addr, "/job", "not json", timeout).unwrap();
        assert_eq!(r.status, 400);
        let r = http_get(&addr, "/job", timeout).unwrap();
        assert_eq!(r.status, 400, "missing lease param");
        let r = http_post(&addr, "/cancel", "{}", timeout).unwrap();
        assert_eq!(r.status, 400, "missing lease_id");
        // Wrong method on a job route is 405, not 400.
        let r = http_get(&addr, "/shutdown", timeout).unwrap();
        assert_eq!(r.status, 405);
        // A well-formed grant of an unknown workload is admitted, and
        // the job fails instead of panicking the worker.
        let g = JobGrant {
            payload: spec(Manufacturer::A, 7, Scale::Smoke, "fig4").to_json_value(),
            ..grant(1, 1)
        };
        let r = http_post(&addr, "/job", &g.to_json_value().to_string(), timeout).unwrap();
        assert_eq!(r.status, 202, "submit: {}", r.body);
        let v = poll_until_done(&addr, 1);
        assert_eq!(v.field("state").as_str(), Some("failed"), "{v:?}");
        let error = v.field("error").as_str().unwrap();
        assert!(error.contains("unknown workload 'fig4'"), "{error}");
        cancel.cancel();
        handle.join().unwrap();
    }
}
