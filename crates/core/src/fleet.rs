//! The job table: the one state machine behind every campaign, in
//! process (`CampaignRunner`) or across a fleet (`repro fleet`).
//!
//! A campaign at characterization-as-a-service scale (ROADMAP item 1)
//! outgrows one process: modules are sharded across worker processes,
//! and workers die — cleanly, or with `kill -9` mid-job. The
//! [`JobTable`] hands out work under **leases**, decides retry,
//! backoff, quarantine and timeout, records every module's outcome,
//! and guarantees that every module commits **exactly one** result no
//! matter how many workers raced on it. It has two transports:
//! [`CampaignRunner`](crate::CampaignRunner) runs each lease on an
//! in-process worker thread, and `rh_bench::fleet` ships leases to
//! `repro serve` workers over HTTP. Each transport emits its own
//! telemetry (`campaign.*` or `fleet.*`); the table emits only what
//! is common to both, such as checkpoint saves.
//!
//! # The lease state machine (DESIGN.md §11)
//!
//! ```text
//! Pending ──grant──▶ Granted ──heartbeat ok──▶ Heartbeating ─┐
//!    ▲                  │                          │     ▲   │ heartbeat ok
//!    │                  │ misses ≥ threshold       │     └───┘
//!    │                  ▼                          ▼
//!    │               Suspect ◀──────── misses ≥ threshold
//!    │                  │
//!    │   deadline passes│(tick)
//!    ├──◀── Expired ◀───┘         (backoff per RetryPolicy, attempts += 0
//!    │                             — the grant already counted)
//!    └── re-grant = *re-dispatch* (generation += 1)
//! ```
//!
//! A job ends in one terminal phase holding its [`ModuleStatus`]:
//! committed (`Succeeded`/`Recovered`, a result landed from the lease
//! that currently owns the job), `Quarantined` (attempt budget
//! exhausted, or a non-transient error), or `TimedOut` (the in-process
//! watchdog killed it at its deadline). A job still pending or leased
//! when its campaign stops reports as `Cancelled`.
//!
//! # The at-most-once commit rule
//!
//! Every grant mints a fresh `(lease_id, generation)`. A result may
//! commit **only** from the lease that currently owns the job: a
//! zombie worker's late reply carries a stale generation and is
//! counted as [`CommitOutcome::Stale`]; a repeat of an
//! already-committed module is [`CommitOutcome::Duplicate`]. Either
//! way the committed result never changes — re-dispatch plus this
//! rule is what makes `kill -9` invisible in the final report.
//!
//! # Crash-resume
//!
//! With [`JobTable::with_checkpoint`] the table persists its terminal
//! entries after every terminal transition, in the one checkpoint
//! format both transports share: `{version, entries: [{id, outcome,
//! result}]}`, where `outcome` is the module's [`ModuleOutcome`].
//! Writes go through a tmp file and an atomic rename. In-flight leases
//! are deliberately *not* persisted: a resumed campaign re-runs exactly
//! the work that was in flight, and nothing else. A resume applies only
//! the entries whose module is in the current job set.
//!
//! All methods take the current time as a parameter (`now_ms`), so
//! the whole state machine is deterministic under test.

use crate::campaign::{ModuleOutcome, ModuleStatus, RetryPolicy};
use crate::error::CharError;
use rh_obs::names;
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};

/// Current checkpoint schema version. Version 1 campaign files lacked
/// the `TimedOut` status; their entries still decode, so we accept any
/// version ≤ this and reject anything newer with a clear error. (The
/// retired fleet format was also version 1, but its entries have no
/// `outcome` and fail to decode.)
const CHECKPOINT_VERSION: u32 = 2;

/// Liveness of an active lease, driven by heartbeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LeaseState {
    /// Granted; no heartbeat observed yet.
    Granted,
    /// At least one heartbeat has renewed the lease.
    Heartbeating,
    /// Enough consecutive heartbeats missed that the worker is
    /// presumed dead; the lease still expires only at its deadline.
    Suspect,
}

/// One active lease.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lease {
    /// Unique across the whole fleet run.
    pub lease_id: u64,
    /// 1-based grant counter for this job; the commit key.
    pub generation: u32,
    /// The worker the job was dispatched to.
    pub worker: String,
    /// Absolute coordinator-clock deadline (ms).
    pub deadline_ms: u64,
    /// Liveness state.
    pub state: LeaseState,
    /// Consecutive missed heartbeats.
    pub missed_heartbeats: u32,
}

/// Where one job is in its lifecycle.
#[derive(Debug)]
enum JobPhase {
    /// Ready to grant once `now >= not_before_ms`.
    Pending {
        /// Retry backoff gate (0 = immediately ready).
        not_before_ms: u64,
    },
    /// Owned by an active lease.
    Leased(Lease),
    /// Terminal. `result` is the committed payload, present exactly
    /// when `status` is a success.
    Done { status: ModuleStatus, result: Option<Value> },
}

/// One job: a module plus its dispatch history.
#[derive(Debug)]
struct Job {
    module_id: String,
    /// Opaque work description; the worker interprets it.
    payload: Value,
    /// Leases granted so far.
    attempts: u32,
    phase: JobPhase,
    /// One rendered error per failed attempt.
    errors: Vec<String>,
    /// Scheduled backoff (ms) before each retry.
    backoffs_ms: Vec<u64>,
    /// Replay token minted when the result committed (see
    /// [`ReplayToken`]); `None` until then, and forever for payloads
    /// that do not describe a replayable workload.
    token: Option<String>,
}

/// The wire form of one job grant, POSTed to a worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobGrant {
    /// Stable module identifier (the commit key for reports).
    pub module_id: String,
    /// Opaque work description; the worker interprets it.
    pub payload: Value,
    /// Fleet-unique lease identifier.
    pub lease_id: u64,
    /// Grant generation for this module.
    pub generation: u32,
    /// Advisory lease duration: how long the worker has before the
    /// coordinator presumes it dead.
    pub lease_ms: u64,
}

/// What [`JobTable::commit`] decided about an arriving result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The result is the module's one committed result.
    Committed,
    /// The module already committed; this reply changes nothing.
    Duplicate,
    /// The reply's lease no longer owns the job (expired and
    /// re-dispatched, or never known); it is discarded.
    Stale,
}

/// What [`JobTable::fail`] decided about a reported failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailOutcome {
    /// The job went back to pending behind a backoff gate.
    Retrying {
        /// Scheduled backoff before the job is grantable again (ms).
        backoff_ms: u64,
    },
    /// Attempt budget exhausted or the error was not transient.
    Quarantined,
    /// The reporting lease no longer owns the job; ignored.
    Stale,
}

/// One lease expired by [`JobTable::tick`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExpiredLease {
    /// The job that lost its lease.
    pub module_id: String,
    /// The expired lease id.
    pub lease_id: u64,
    /// The worker that held it.
    pub worker: String,
    /// Whether the job was quarantined instead of re-queued.
    pub quarantined: bool,
}

/// Per-module line in a [`FleetReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetModuleOutcome {
    /// Stable module identifier.
    pub id: String,
    /// `"committed"` or `"quarantined"`.
    pub status: String,
    /// Grants consumed.
    pub attempts: u32,
    /// One rendered error per failed attempt.
    pub errors: Vec<String>,
    /// Deterministic replay token for committed results (see
    /// [`ReplayToken`]); `None` for quarantined modules or payloads
    /// that do not describe a replayable workload.
    pub replay_token: Option<String>,
}

/// FNV-1a 64-bit hash — the result fingerprint inside a
/// [`ReplayToken`]. Stable, dependency-free, and fast enough to hash
/// every committed result at commit time.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A deterministic replay token, stamped on every committed job
/// result: everything needed to re-execute the job single-process
/// (`repro analyze replay <token>`) and diff the result bit-for-bit.
///
/// Wire form (10 `:`-separated fields, first is the literal version
/// tag):
///
/// ```text
/// rtv1:<workload>:<mfr>:<index>:<seed:016x>:<scale>:<net-plan>:<net-seed:016x>:<result-hash:016x>:<trace:032x>
/// ```
///
/// `workload`/`mfr`/`index`/`seed`/`scale` identify the module profile
/// and command seed; `net-plan`/`net-seed` pin the network-fault
/// environment the result survived (informational for replay — the
/// single-process re-execution runs fault-free and must still match);
/// `result-hash` is [`fnv1a64`] over the committed result's compact
/// JSON; `trace` links the token back to the distributed trace that
/// produced it (0 for local runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayToken {
    /// Worker workload name (e.g. `row_variation`).
    pub workload: String,
    /// Manufacturer debug name (e.g. `A`).
    pub mfr: String,
    /// Module index within the manufacturer.
    pub index: u64,
    /// Command seed the job ran under.
    pub seed: u64,
    /// Scale debug name (e.g. `Smoke`).
    pub scale: String,
    /// Armed net-fault plan name (`none` when unfaulted).
    pub net_plan: String,
    /// Net-fault plan seed (0 when unfaulted).
    pub net_seed: u64,
    /// [`fnv1a64`] of the committed result's compact JSON.
    pub result_hash: u64,
    /// Trace the job executed under (0 = untraced/local).
    pub trace_id: u128,
}

impl ReplayToken {
    /// Parses the wire form back into a token.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field.
    pub fn parse(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.trim().split(':').collect();
        if parts.len() != 10 {
            return Err(format!("expected 10 ':'-separated fields, got {}", parts.len()));
        }
        if parts[0] != "rtv1" {
            return Err(format!("unknown token version '{}' (expected rtv1)", parts[0]));
        }
        let hex = |what: &str, s: &str| -> Result<u128, String> {
            u128::from_str_radix(s, 16).map_err(|e| format!("bad {what} '{s}': {e}"))
        };
        let index: u64 =
            parts[3].parse().map_err(|e| format!("bad index '{}': {e}", parts[3]))?;
        Ok(Self {
            workload: parts[1].to_string(),
            mfr: parts[2].to_string(),
            index,
            seed: hex("seed", parts[4])? as u64,
            scale: parts[5].to_string(),
            net_plan: parts[6].to_string(),
            net_seed: hex("net seed", parts[7])? as u64,
            result_hash: hex("result hash", parts[8])? as u64,
            trace_id: hex("trace id", parts[9])?,
        })
    }
}

/// Mints a [`ReplayToken`] for a committed `(payload, result)` pair,
/// or `None` when the payload does not carry the full replayable
/// profile (`workload`/`mfr`/`index`/`seed`/`scale`) — synthetic test
/// payloads stay tokenless rather than minting garbage.
#[must_use]
pub fn mint_replay_token(
    payload: &Value,
    result: &Value,
    net_plan: &str,
    net_seed: u64,
    trace_id: u128,
) -> Option<String> {
    let token = ReplayToken {
        workload: payload.field("workload").as_str()?.to_string(),
        mfr: payload.field("mfr").as_str()?.to_string(),
        index: payload.field("index").as_u64()?,
        seed: payload.field("seed").as_u64()?,
        scale: payload.field("scale").as_str()?.to_string(),
        net_plan: net_plan.to_string(),
        net_seed,
        result_hash: fnv1a64(result.to_string().as_bytes()),
        trace_id,
    };
    Some(token.to_string())
}

impl std::fmt::Display for ReplayToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // ':' inside free-text fields would shift every later field.
        let clean = |s: &str| s.replace(':', "_");
        write!(
            f,
            "rtv1:{}:{}:{}:{:016x}:{}:{}:{:016x}:{:016x}:{:032x}",
            clean(&self.workload),
            clean(&self.mfr),
            self.index,
            self.seed,
            clean(&self.scale),
            clean(&self.net_plan),
            self.net_seed,
            self.result_hash,
            self.trace_id
        )
    }
}

/// Structured summary of a fleet run. `results` carries the committed
/// payloads in job input order, so a fleet run of seed *s* renders
/// bit-identically to a single-process run of seed *s*.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// `(module id, committed result)` in input order.
    pub results: Vec<(String, Value)>,
    /// Per-module outcomes in input order.
    pub outcomes: Vec<FleetModuleOutcome>,
    /// Modules with a committed result.
    pub committed: usize,
    /// Modules quarantined.
    pub quarantined: usize,
    /// Grants beyond each module's first (the re-dispatch count).
    pub redispatches: u64,
    /// `true` when the coordinator finished *partially* because
    /// workers were permanently lost (circuit-breaker eviction with
    /// no healthy replacement): the report is explicitly incomplete
    /// rather than silently short. Worker loss that the fleet fully
    /// absorbed (every module still committed) is not degradation.
    pub degraded: bool,
    /// Workers permanently evicted during the run (informational;
    /// nonzero with `degraded == false` means the fleet rode through
    /// the losses).
    pub workers_lost: u64,
}

impl FleetReport {
    /// `true` when every module committed and nothing was lost to
    /// degradation.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.quarantined == 0 && !self.degraded
    }

    /// One-line human summary. Degradation appends a suffix (the
    /// prefix format is stable for log scrapers).
    #[must_use]
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "{} module(s): {} committed, {} quarantined, {} redispatch(es)",
            self.outcomes.len(),
            self.committed,
            self.quarantined,
            self.redispatches
        );
        if self.degraded {
            line.push_str(&format!(" [DEGRADED: {} worker(s) lost]", self.workers_lost));
        }
        line
    }

    /// Flags the report as the partial product of a degraded run:
    /// `workers_lost` workers were evicted, and not every module
    /// committed. Called by the coordinator; pure reporting.
    pub fn mark_degraded(&mut self, workers_lost: u64) {
        self.workers_lost = workers_lost;
        self.degraded = workers_lost > 0 && self.committed < self.outcomes.len();
        rh_obs::gauge(names::FLEET_DEGRADED, if self.degraded { 1.0 } else { 0.0 });
    }
}

/// Circuit-breaker tuning for one worker link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BreakerPolicy {
    /// Consecutive transport failures (while Closed or probing) that
    /// trip the breaker Open.
    pub failure_threshold: u32,
    /// Cooldown before an Open breaker admits a half-open probe (ms);
    /// doubles per consecutive trip.
    pub cooldown_ms: u64,
    /// Upper bound on the escalated cooldown (ms).
    pub max_cooldown_ms: u64,
    /// Trips before the worker is evicted from dispatch permanently.
    pub max_trips: u32,
    /// Seed for the deterministic cooldown jitter, so replays of the
    /// same seed reproduce the same probe schedule.
    pub jitter_seed: u64,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            cooldown_ms: 500,
            max_cooldown_ms: 8_000,
            max_trips: 4,
            jitter_seed: 0,
        }
    }
}

/// Where one worker's breaker stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are blocked until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe request is in flight;
    /// its outcome re-closes or re-trips the breaker.
    HalfOpen,
    /// Permanently removed from dispatch after `max_trips` trips.
    Evicted,
}

impl BreakerState {
    /// Short tag for events.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
            BreakerState::Evicted => "evicted",
        }
    }
}

/// SplitMix64 finalizer: the deterministic jitter behind retry backoffs
/// and breaker cooldowns.
pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A per-worker circuit breaker (DESIGN.md §13): Closed → Open after
/// `failure_threshold` consecutive failures, Open → HalfOpen after a
/// jittered, escalating cooldown, HalfOpen → Closed on a successful
/// probe or back to Open on a failed one, and → Evicted for good
/// after `max_trips` trips. Pure and clock-injected like
/// [`JobTable`]; the coordinator drives it with dispatch outcomes.
///
/// ```text
///            failures ≥ threshold                cooldown elapsed
/// Closed ───────────────────────────▶ Open ──────────────────────▶ HalfOpen
///    ▲                                 ▲                               │
///    │            probe ok             │        probe failed           │
///    └─────────────────────────────────┼───────────────────────────────┤
///                                      └───────────────────────────────┘
///                       (trips ≥ max_trips anywhere ▶ Evicted, terminal)
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircuitBreaker {
    worker: String,
    policy: BreakerPolicy,
    state: BreakerState,
    consecutive_failures: u32,
    trips: u32,
    open_until_ms: u64,
}

impl CircuitBreaker {
    /// A closed breaker guarding `worker`.
    #[must_use]
    pub fn new(worker: impl Into<String>, policy: BreakerPolicy) -> Self {
        Self {
            worker: worker.into(),
            policy,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            trips: 0,
            open_until_ms: 0,
        }
    }

    /// The guarded worker's address/name.
    #[must_use]
    pub fn worker(&self) -> &str {
        &self.worker
    }

    /// Current state (does not advance the clock; see
    /// [`allow_request`](Self::allow_request)).
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker tripped Open.
    #[must_use]
    pub fn trips(&self) -> u32 {
        self.trips
    }

    /// Whether the worker is permanently out of dispatch.
    #[must_use]
    pub fn is_evicted(&self) -> bool {
        self.state == BreakerState::Evicted
    }

    /// When an Open breaker next admits a probe (ms); 0 unless Open.
    #[must_use]
    pub fn open_until_ms(&self) -> u64 {
        if self.state == BreakerState::Open {
            self.open_until_ms
        } else {
            0
        }
    }

    /// Whether a request may be sent to this worker now. Closed:
    /// always. Open: transitions to HalfOpen and admits exactly one
    /// probe once the cooldown has elapsed. HalfOpen: the probe is
    /// already in flight, no more until its outcome lands. Evicted:
    /// never.
    pub fn allow_request(&mut self, now_ms: u64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Evicted | BreakerState::HalfOpen => false,
            BreakerState::Open => {
                if now_ms < self.open_until_ms {
                    return false;
                }
                self.transition(BreakerState::HalfOpen);
                rh_obs::counter(names::FLEET_BREAKER_HALF_OPEN, 1);
                true
            }
        }
    }

    /// Records a successful request: failures reset; a half-open
    /// probe's success re-closes the breaker (and resets the trip
    /// escalation — the worker earned a clean slate).
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.trips = 0;
            self.transition(BreakerState::Closed);
            rh_obs::counter(names::FLEET_BREAKER_CLOSE, 1);
        }
    }

    /// Records a failed request; returns the state afterwards. A
    /// Closed breaker trips after `failure_threshold` consecutive
    /// failures; a HalfOpen probe failure re-trips immediately. Each
    /// trip doubles the cooldown (with deterministic jitter) and
    /// counts toward eviction.
    pub fn record_failure(&mut self, now_ms: u64) -> BreakerState {
        match self.state {
            BreakerState::Evicted | BreakerState::Open => self.state,
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.policy.failure_threshold {
                    self.trip(now_ms);
                }
                self.state
            }
            BreakerState::HalfOpen => {
                self.consecutive_failures += 1;
                self.trip(now_ms);
                self.state
            }
        }
    }

    fn trip(&mut self, now_ms: u64) {
        self.trips += 1;
        rh_obs::counter(names::FLEET_BREAKER_TRIP, 1);
        if self.trips >= self.policy.max_trips {
            self.transition(BreakerState::Evicted);
            rh_obs::counter(names::FLEET_BREAKER_EVICTED, 1);
            return;
        }
        self.open_until_ms = now_ms + self.cooldown_for_trip(self.trips);
        self.transition(BreakerState::Open);
    }

    /// The escalated, jittered cooldown for trip number `trip`
    /// (1-based): `cooldown_ms * 2^(trip-1)`, capped, then jittered
    /// ±25% by a pure function of `(jitter_seed, worker, trip)` so
    /// two breakers tripping together do not probe in lockstep — yet
    /// a replay of the same seed probes on the same schedule.
    #[must_use]
    pub fn cooldown_for_trip(&self, trip: u32) -> u64 {
        let base = self
            .policy
            .cooldown_ms
            .saturating_mul(1u64 << trip.saturating_sub(1).min(20))
            .min(self.policy.max_cooldown_ms)
            .max(1);
        let mut h = self.policy.jitter_seed ^ u64::from(trip).wrapping_mul(0xA24B_AED4_963E_E407);
        for b in self.worker.bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        // Map the draw onto [-25%, +25%] of base.
        let span = base / 2;
        let jitter = if span == 0 { 0 } else { splitmix64(h) % (span + 1) };
        base - span / 2 + jitter
    }

    fn transition(&mut self, to: BreakerState) {
        let from = self.state;
        if from == to {
            return;
        }
        self.state = to;
        rh_obs::event!(
            names::FLEET_BREAKER_EVENT,
            worker = self.worker.clone(),
            from = from.tag(),
            to = to.tag(),
            failures = self.consecutive_failures,
            trips = self.trips
        );
    }
}

/// Fleet sizing and liveness knobs.
#[derive(Debug, Clone)]
pub struct FleetPolicy {
    /// Bounded retry/backoff schedule, shared with campaigns.
    pub retry: RetryPolicy,
    /// Lease duration: a worker must commit or heartbeat within this.
    pub lease_ms: u64,
    /// Consecutive missed heartbeats before a lease turns suspect.
    pub suspect_after_misses: u32,
}

impl Default for FleetPolicy {
    fn default() -> Self {
        Self { retry: RetryPolicy::default(), lease_ms: 5_000, suspect_after_misses: 2 }
    }
}

/// The authoritative job/lease/commit state of a campaign. Pure and
/// clock-injected; its transports are
/// [`CampaignRunner`](crate::CampaignRunner) and the HTTP loop in
/// `rh-bench`.
#[derive(Debug)]
pub struct JobTable {
    jobs: Vec<Job>,
    policy: FleetPolicy,
    /// Every grant ever made: `(lease_id, job index, generation)`.
    /// Late replies are resolved against this, not just active leases.
    grants: Vec<(u64, usize, u32)>,
    next_lease_id: u64,
    redispatches: u64,
    checkpoint: Option<PathBuf>,
    /// Net-fault environment baked into replay tokens.
    net_plan: String,
    net_seed: u64,
    /// Lease⇄trace bindings: the distributed trace each dispatch
    /// executed under, recorded by the coordinator loop so the token
    /// minted at commit can link back to the trace tree.
    traces: Vec<(u64, u128)>,
}

impl JobTable {
    /// An empty table under `policy`.
    #[must_use]
    pub fn new(policy: FleetPolicy) -> Self {
        Self {
            jobs: Vec::new(),
            policy,
            grants: Vec::new(),
            next_lease_id: 1,
            redispatches: 0,
            checkpoint: None,
            net_plan: "none".to_string(),
            net_seed: 0,
            traces: Vec::new(),
        }
    }

    /// Declares the net-fault environment this run executes under, so
    /// replay tokens record which chaos the committed results
    /// survived. Call before the first commit; the default is
    /// `("none", 0)`.
    pub fn set_replay_context(&mut self, net_plan: impl Into<String>, net_seed: u64) {
        self.net_plan = net_plan.into();
        self.net_seed = net_seed;
    }

    /// Binds `lease_id` to the distributed trace its dispatch executes
    /// under. The token minted when that lease commits carries the
    /// trace id; unbound leases (local runs, tests) mint trace 0.
    pub fn bind_trace(&mut self, lease_id: u64, trace_id: u128) {
        self.traces.push((lease_id, trace_id));
    }

    /// Offsets all future lease IDs by `base`. A restarted
    /// coordinator would otherwise mint the same IDs as its previous
    /// incarnation (the counter restarts at 1), and a worker still
    /// holding a finished job under such an ID would answer the
    /// "new" lease with the *old* job's result — committing one
    /// module's data under another module's name. Callers pass a
    /// per-incarnation nonce (e.g. wall-clock derived); tests keep
    /// the deterministic default of 0.
    pub fn set_lease_base(&mut self, base: u64) {
        self.next_lease_id = base.saturating_add(1);
    }

    /// Admits one job. Input order is report order.
    pub fn add_job(&mut self, module_id: impl Into<String>, payload: Value) {
        self.jobs.push(Job {
            module_id: module_id.into(),
            payload,
            attempts: 0,
            phase: JobPhase::Pending { not_before_ms: 0 },
            errors: Vec::new(),
            backoffs_ms: Vec::new(),
            token: None,
        });
    }

    /// The active policy.
    #[must_use]
    pub fn policy(&self) -> &FleetPolicy {
        &self.policy
    }

    /// Persists a checkpoint to `path` after every terminal transition
    /// and — if the file already exists — resumes from it now: entries
    /// whose module is in the job set are applied to it, everything
    /// else (including work that was in flight when the previous run
    /// died) stays pending and re-runs.
    ///
    /// Call after [`add_job`](Self::add_job)ing the full campaign.
    ///
    /// # Errors
    ///
    /// [`CharError::Checkpoint`] for unreadable, corrupt, or
    /// future-versioned files.
    pub fn with_checkpoint(&mut self, path: impl Into<PathBuf>) -> Result<(), CharError> {
        let path = path.into();
        clean_stale_tmp(&path);
        let entries = load_checkpoint(&path)?;
        if !entries.is_empty() {
            rh_obs::event!(names::CAMPAIGN_CHECKPOINT_LOADED, entries = entries.len());
        }
        for entry in entries {
            let Some(job) = self.jobs.iter_mut().find(|j| j.module_id == entry.id) else {
                continue;
            };
            // Every retry scheduled one backoff.
            job.attempts = entry.outcome.backoffs_ms.len() as u32 + 1;
            self.redispatches += u64::from(job.attempts - 1);
            // Re-mint the replay token rather than persist it: payload
            // and result are both in hand, and a resumed run is by
            // definition local to this incarnation (trace 0).
            job.token = entry.result.as_ref().and_then(|result| {
                mint_replay_token(&job.payload, result, &self.net_plan, self.net_seed, 0)
            });
            job.errors = entry.outcome.errors;
            job.backoffs_ms = entry.outcome.backoffs_ms;
            job.phase = JobPhase::Done { status: entry.outcome.status, result: entry.result };
        }
        self.checkpoint = Some(path);
        Ok(())
    }

    /// The next grantable job's module id, in input order, honoring
    /// retry backoff gates. `None` means nothing is ready *right
    /// now* — there may still be leased or backoff-gated jobs.
    #[must_use]
    pub fn next_ready(&self, now_ms: u64) -> Option<String> {
        self.jobs
            .iter()
            .find(|j| matches!(j.phase, JobPhase::Pending { not_before_ms } if now_ms >= not_before_ms))
            .map(|j| j.module_id.clone())
    }

    /// The earliest time any backoff-gated pending job becomes ready,
    /// for the dispatch loop's sleep calculation.
    #[must_use]
    pub fn next_ready_at(&self) -> Option<u64> {
        self.jobs
            .iter()
            .filter_map(|j| match j.phase {
                JobPhase::Pending { not_before_ms } => Some(not_before_ms),
                _ => None,
            })
            .min()
    }

    /// Grants a lease on `module_id` to `worker`, minting a fresh
    /// `(lease_id, generation)`.
    ///
    /// # Errors
    ///
    /// [`CharError::Checkpoint`] if the job is unknown or not
    /// currently pending (grants race only through coordinator bugs;
    /// the table is single-owner).
    pub fn grant(
        &mut self,
        module_id: &str,
        worker: &str,
        now_ms: u64,
    ) -> Result<JobGrant, CharError> {
        let lease_ms = self.policy.lease_ms;
        let lease_id = self.next_lease_id;
        let idx = self
            .jobs
            .iter()
            .position(|j| j.module_id == module_id)
            .ok_or_else(|| CharError::Checkpoint {
                detail: format!("fleet: grant on unknown module '{module_id}'"),
            })?;
        let job = &mut self.jobs[idx];
        if !matches!(job.phase, JobPhase::Pending { .. }) {
            return Err(CharError::Checkpoint {
                detail: format!("fleet: grant on non-pending module '{module_id}'"),
            });
        }
        self.next_lease_id += 1;
        job.attempts += 1;
        let generation = job.attempts;
        job.phase = JobPhase::Leased(Lease {
            lease_id,
            generation,
            worker: worker.to_string(),
            deadline_ms: now_ms + lease_ms,
            state: LeaseState::Granted,
            missed_heartbeats: 0,
        });
        self.grants.push((lease_id, idx, generation));
        if generation > 1 {
            self.redispatches += 1;
        }
        Ok(JobGrant {
            module_id: module_id.to_string(),
            payload: job.payload.clone(),
            lease_id,
            generation,
            lease_ms,
        })
    }

    /// Records a successful heartbeat (any successful poll of the
    /// worker counts): renews the lease deadline and clears the miss
    /// counter. Returns `false` for a lease that no longer owns its
    /// job.
    pub fn heartbeat(&mut self, lease_id: u64, now_ms: u64) -> bool {
        let lease_ms = self.policy.lease_ms;
        match self.active_lease_mut(lease_id) {
            Some(lease) => {
                lease.deadline_ms = now_ms + lease_ms;
                lease.state = LeaseState::Heartbeating;
                lease.missed_heartbeats = 0;
                true
            }
            None => false,
        }
    }

    /// Records a missed heartbeat (connection refused, timeout, bad
    /// reply). Returns the lease state afterwards, or `None` for a
    /// lease that no longer owns its job. The lease still only
    /// expires at its deadline — a suspect worker gets the benefit of
    /// the doubt until then.
    pub fn heartbeat_missed(&mut self, lease_id: u64) -> Option<LeaseState> {
        let threshold = self.policy.suspect_after_misses;
        let lease = self.active_lease_mut(lease_id)?;
        lease.missed_heartbeats += 1;
        rh_obs::counter(names::FLEET_HEARTBEAT_MISSED, 1);
        if lease.missed_heartbeats >= threshold {
            lease.state = LeaseState::Suspect;
        }
        Some(lease.state)
    }

    /// Returns a job to pending *without* consuming an attempt — the
    /// dispatch itself failed (connection refused before the worker
    /// ever saw the job), so the module's retry budget is untouched.
    /// The grant's generation is burned, which is exactly what makes
    /// a late reply from a half-delivered job stale.
    pub fn release(&mut self, lease_id: u64, now_ms: u64) {
        let base = self.policy.retry.base_backoff_ms;
        if let Some(idx) = self.active_lease_index(lease_id) {
            let job = &mut self.jobs[idx];
            job.attempts = job.attempts.saturating_sub(1);
            job.phase = JobPhase::Pending { not_before_ms: now_ms + base };
        }
    }

    /// Applies a worker-reported failure from lease `lease_id`.
    /// Transient errors retry behind the deterministic backoff until
    /// the attempt budget runs out; anything else quarantines.
    pub fn fail(
        &mut self,
        lease_id: u64,
        error: &str,
        transient: bool,
        now_ms: u64,
    ) -> FailOutcome {
        let max_attempts = self.policy.retry.max_attempts;
        let Some(idx) = self.active_lease_index(lease_id) else {
            return FailOutcome::Stale;
        };
        let retry = self.policy.retry.clone();
        let job = &mut self.jobs[idx];
        job.errors.push(error.to_string());
        if transient && job.attempts < max_attempts {
            let backoff_ms = retry.backoff_ms(&job.module_id, job.attempts);
            job.backoffs_ms.push(backoff_ms);
            job.phase = JobPhase::Pending { not_before_ms: now_ms + backoff_ms };
            FailOutcome::Retrying { backoff_ms }
        } else {
            job.quarantine(error.to_string());
            self.save_if_configured();
            FailOutcome::Quarantined
        }
    }

    /// Expires every lease whose deadline has passed. Expired jobs go
    /// back to pending behind the retry backoff (they re-dispatch on
    /// the next [`grant`](Self::grant)), or quarantine when the
    /// attempt budget is spent.
    pub fn tick(&mut self, now_ms: u64) -> Vec<ExpiredLease> {
        let max_attempts = self.policy.retry.max_attempts;
        let retry = self.policy.retry.clone();
        let mut expired = Vec::new();
        let mut any_quarantined = false;
        for job in &mut self.jobs {
            let JobPhase::Leased(lease) = &job.phase else { continue };
            if now_ms < lease.deadline_ms {
                continue;
            }
            let info = ExpiredLease {
                module_id: job.module_id.clone(),
                lease_id: lease.lease_id,
                worker: lease.worker.clone(),
                quarantined: job.attempts >= max_attempts,
            };
            rh_obs::counter(names::FLEET_LEASE_EXPIRED, 1);
            rh_obs::event!(
                names::FLEET_EXPIRE_EVENT,
                module = info.module_id.clone(),
                lease = info.lease_id,
                worker = info.worker.clone()
            );
            job.errors.push(format!(
                "lease {} on worker {} expired after {} attempt(s)",
                lease.lease_id, lease.worker, job.attempts
            ));
            if info.quarantined {
                job.quarantine("lease expired; attempt budget exhausted".to_string());
                any_quarantined = true;
            } else {
                let backoff_ms = retry.backoff_ms(&job.module_id, job.attempts);
                job.backoffs_ms.push(backoff_ms);
                job.phase = JobPhase::Pending { not_before_ms: now_ms + backoff_ms };
            }
            expired.push(info);
        }
        if any_quarantined {
            self.save_if_configured();
        }
        expired
    }

    /// Applies an arriving result under the at-most-once rule: only
    /// the lease that currently owns the job may commit. See the
    /// [module docs](self).
    pub fn commit(&mut self, lease_id: u64, result: Value) -> CommitOutcome {
        let Some(&(_, idx, generation)) =
            self.grants.iter().find(|(id, _, _)| *id == lease_id)
        else {
            return CommitOutcome::Stale;
        };
        let job = &mut self.jobs[idx];
        match &job.phase {
            JobPhase::Done { result: Some(_), .. } => CommitOutcome::Duplicate,
            JobPhase::Leased(lease) if lease.lease_id == lease_id => {
                let trace_id = self
                    .traces
                    .iter()
                    .find(|(id, _)| *id == lease_id)
                    .map_or(0, |&(_, t)| t);
                job.token =
                    mint_replay_token(&job.payload, &result, &self.net_plan, self.net_seed, trace_id);
                let status = if generation == 1 {
                    ModuleStatus::Succeeded
                } else {
                    ModuleStatus::Recovered { attempts: generation }
                };
                job.phase = JobPhase::Done { status, result: Some(result) };
                self.save_if_configured();
                CommitOutcome::Committed
            }
            // The job moved on: expired & re-leased, re-pending,
            // quarantined or timed out. The zombie's reply is dropped.
            _ => CommitOutcome::Stale,
        }
    }

    /// Ends `module_id` as `TimedOut` unless it already reached a
    /// terminal phase; the in-process watchdog calls this at the
    /// module's deadline. Any lease it held turns stale. Returns whether
    /// the job timed out.
    pub fn time_out(&mut self, module_id: &str, elapsed_ms: u64, deadline_ms: u64) -> bool {
        let Some(job) = self.jobs.iter_mut().find(|j| j.module_id == module_id) else {
            return false;
        };
        if matches!(job.phase, JobPhase::Done { .. }) {
            return false;
        }
        let status = ModuleStatus::TimedOut { elapsed_ms, deadline_ms };
        job.phase = JobPhase::Done { status, result: None };
        self.save_if_configured();
        true
    }

    /// Whether every job reached a terminal phase.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.jobs.iter().all(|j| matches!(j.phase, JobPhase::Done { .. }))
    }

    /// Jobs admitted.
    #[must_use]
    pub fn total(&self) -> usize {
        self.jobs.len()
    }

    /// Jobs in a terminal phase.
    #[must_use]
    pub fn done_count(&self) -> usize {
        self.jobs.iter().filter(|j| matches!(j.phase, JobPhase::Done { .. })).count()
    }

    /// Active leases, for the poll loop: `(lease_id, worker, state)`.
    #[must_use]
    pub fn active_leases(&self) -> Vec<(u64, String, LeaseState)> {
        self.jobs
            .iter()
            .filter_map(|j| match &j.phase {
                JobPhase::Leased(l) => Some((l.lease_id, l.worker.clone(), l.state)),
                _ => None,
            })
            .collect()
    }

    /// Grants beyond each module's first.
    #[must_use]
    pub fn redispatches(&self) -> u64 {
        self.redispatches
    }

    /// The generation a lease was granted at (== the module's attempt
    /// count at grant time), for any lease ever minted.
    #[must_use]
    pub fn lease_generation(&self, lease_id: u64) -> Option<u32> {
        self.grants.iter().find(|(id, _, _)| *id == lease_id).map(|&(_, _, g)| g)
    }

    /// The final report. Call once [`is_done`](Self::is_done) (jobs
    /// still in flight are simply absent from `results`).
    #[must_use]
    pub fn report(&self) -> FleetReport {
        let mut results = Vec::new();
        let mut outcomes = Vec::new();
        for job in &self.jobs {
            let status = match &job.phase {
                JobPhase::Done { result: Some(result), .. } => {
                    results.push((job.module_id.clone(), result.clone()));
                    "committed"
                }
                JobPhase::Done { .. } => "quarantined",
                _ => "pending",
            };
            outcomes.push(FleetModuleOutcome {
                id: job.module_id.clone(),
                status: status.to_string(),
                attempts: job.attempts,
                errors: job.errors.clone(),
                replay_token: job.token.clone(),
            });
        }
        let committed = outcomes.iter().filter(|o| o.status == "committed").count();
        let quarantined = outcomes.iter().filter(|o| o.status == "quarantined").count();
        FleetReport {
            results,
            outcomes,
            committed,
            quarantined,
            redispatches: self.redispatches,
            degraded: false,
            workers_lost: 0,
        }
    }

    /// How `module_id` stands: its terminal status, or `Cancelled` with
    /// the attempts started so far while it is still pending or leased.
    #[must_use]
    pub fn status(&self, module_id: &str) -> ModuleStatus {
        self.jobs
            .iter()
            .find(|j| j.module_id == module_id)
            .map_or(ModuleStatus::Cancelled { attempts: 0 }, Job::status)
    }

    /// Every job's [`ModuleOutcome`] and committed result, in input
    /// order, as [`status`](Self::status) states them.
    #[must_use]
    pub fn outcomes(&self) -> Vec<(ModuleOutcome, Option<Value>)> {
        self.jobs.iter().map(|j| (j.outcome(), j.result().cloned())).collect()
    }

    fn active_lease_index(&self, lease_id: u64) -> Option<usize> {
        self.jobs.iter().position(
            |j| matches!(&j.phase, JobPhase::Leased(l) if l.lease_id == lease_id),
        )
    }

    fn active_lease_mut(&mut self, lease_id: u64) -> Option<&mut Lease> {
        self.jobs.iter_mut().find_map(|j| match &mut j.phase {
            JobPhase::Leased(l) if l.lease_id == lease_id => Some(l),
            _ => None,
        })
    }

    fn save_if_configured(&self) {
        let Some(path) = &self.checkpoint else { return };
        let entries = self
            .jobs
            .iter()
            .filter(|j| matches!(j.phase, JobPhase::Done { .. }))
            .map(|j| CheckpointEntry {
                id: j.module_id.clone(),
                outcome: j.outcome(),
                result: j.result().cloned(),
            })
            .collect();
        let cp = Checkpoint { version: CHECKPOINT_VERSION, entries };
        // A failed write only degrades resumability, so it never stops
        // the campaign.
        let saved = save_checkpoint(path, &cp).is_ok();
        rh_obs::event!(names::CAMPAIGN_CHECKPOINT_SAVED, entries = cp.entries.len(), ok = saved);
    }
}

impl Job {
    fn quarantine(&mut self, error: String) {
        let status = ModuleStatus::Quarantined { attempts: self.attempts, error };
        self.phase = JobPhase::Done { status, result: None };
    }

    fn status(&self) -> ModuleStatus {
        match &self.phase {
            JobPhase::Done { status, .. } => status.clone(),
            _ => ModuleStatus::Cancelled { attempts: self.attempts },
        }
    }

    fn result(&self) -> Option<&Value> {
        match &self.phase {
            JobPhase::Done { result, .. } => result.as_ref(),
            _ => None,
        }
    }

    fn outcome(&self) -> ModuleOutcome {
        ModuleOutcome {
            id: self.module_id.clone(),
            status: self.status(),
            errors: self.errors.clone(),
            backoffs_ms: self.backoffs_ms.clone(),
        }
    }
}

/// One persisted module: its outcome plus, for a success, the result.
#[derive(Serialize, Deserialize)]
struct CheckpointEntry {
    id: String,
    outcome: ModuleOutcome,
    result: Option<Value>,
}

#[derive(Serialize, Deserialize)]
struct Checkpoint {
    version: u32,
    entries: Vec<CheckpointEntry>,
}

/// Removes a stale `*.tmp` left behind by a crash between
/// `save_checkpoint`'s write and rename. The rename is atomic, so the
/// real checkpoint is either the previous complete save or the new
/// one — the orphan is always safe to delete.
fn clean_stale_tmp(path: &Path) {
    let tmp = path.with_extension("tmp");
    if tmp.exists() && std::fs::remove_file(&tmp).is_ok() {
        rh_obs::event!(names::CAMPAIGN_CHECKPOINT_STALE_TMP, path = tmp.display().to_string());
    }
}

/// Loads a checkpoint and returns its entry count — the "is this file
/// still usable?" probe shutdown paths and the soak harness use.
///
/// # Errors
///
/// [`CharError::Checkpoint`] for unreadable, corrupt, or
/// future-versioned files. A missing file is `Ok(0)` (a campaign that
/// never saved is trivially resumable).
pub fn verify_checkpoint(path: &Path) -> Result<usize, CharError> {
    load_checkpoint(path).map(|entries| entries.len())
}

fn load_checkpoint(path: &Path) -> Result<Vec<CheckpointEntry>, CharError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Err(CharError::Checkpoint { detail: format!("read {}: {e}", path.display()) })
        }
    };
    let value: Value = serde_json::from_str(&text).map_err(|e| CharError::Checkpoint {
        detail: format!("parse {}: {e}", path.display()),
    })?;
    // Check the version *before* decoding the whole structure, so a
    // checkpoint from a newer schema fails with "written by version 3,
    // this build reads ≤ 2" instead of an opaque serde error about
    // whichever field changed.
    match value.field("version").as_u64() {
        Some(v) if v > u64::from(CHECKPOINT_VERSION) => {
            return Err(CharError::Checkpoint {
                detail: format!(
                    "{} was written by checkpoint schema version {v}; this build reads \
                     versions <= {CHECKPOINT_VERSION} — rerun without --resume or upgrade",
                    path.display()
                ),
            });
        }
        Some(_) => {}
        None => {
            return Err(CharError::Checkpoint {
                detail: format!("{} has no checkpoint version field", path.display()),
            });
        }
    }
    let cp = Checkpoint::from_json_value(&value).map_err(|e| CharError::Checkpoint {
        detail: format!("decode {}: {e}", path.display()),
    })?;
    for entry in &cp.entries {
        if entry.outcome.status.is_success() != entry.result.is_some() {
            return Err(CharError::Checkpoint {
                detail: format!(
                    "checkpoint entry for {} must hold a result iff it succeeded",
                    entry.id
                ),
            });
        }
    }
    Ok(cp.entries)
}

fn save_checkpoint(path: &Path, cp: &Checkpoint) -> Result<(), CharError> {
    let bytes = serde_json::to_vec_pretty(&cp.to_json_value()).map_err(|e| {
        CharError::Checkpoint { detail: format!("serialize checkpoint: {e}") }
    })?;
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes).map_err(|e| CharError::Checkpoint {
        detail: format!("write {}: {e}", tmp.display()),
    })?;
    std::fs::rename(&tmp, path).map_err(|e| CharError::Checkpoint {
        detail: format!("rename {} -> {}: {e}", tmp.display(), path.display()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn table() -> JobTable {
        let mut t = JobTable::new(FleetPolicy {
            retry: RetryPolicy { max_attempts: 3, ..RetryPolicy::default() },
            lease_ms: 1_000,
            suspect_after_misses: 2,
        });
        t.add_job("m0", json!({"n": 0}));
        t.add_job("m1", json!({"n": 1}));
        t
    }

    #[test]
    fn replay_token_round_trips_and_rejects_malformed() {
        let token = ReplayToken {
            workload: "row_variation".to_string(),
            mfr: "MfrA".to_string(),
            index: 3,
            seed: 42,
            scale: "Smoke".to_string(),
            net_plan: "flaky-link".to_string(),
            net_seed: 7,
            result_hash: 0xdead_beef,
            trace_id: 0xabc,
        };
        let wire = token.to_string();
        assert!(wire.starts_with("rtv1:row_variation:MfrA:3:"), "got {wire}");
        assert_eq!(ReplayToken::parse(&wire), Ok(token.clone()));
        // Colons in free-text fields must not shift later fields.
        let evil = ReplayToken { net_plan: "a:b".to_string(), ..token };
        assert_eq!(ReplayToken::parse(&evil.to_string()).map(|t| t.net_plan), Ok("a_b".into()));
        for bad in ["", "rtv1:short", "rtv2:w:m:1:0:s:p:0:0:0", "rtv1:w:m:x:0:s:p:0:0:0"] {
            assert!(ReplayToken::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn commit_mints_replay_tokens_for_replayable_payloads_only() {
        let mut t = table();
        t.add_job(
            "mfr_a#0",
            json!({"mfr": "MfrA", "index": 0, "seed": 9, "scale": "Smoke",
                   "workload": "row_variation"}),
        );
        t.set_replay_context("flaky-link", 1234);
        // Synthetic payload: committed, but tokenless.
        let g = t.grant("m0", "w1", 0).unwrap();
        assert_eq!(t.commit(g.lease_id, json!({"ok": true})), CommitOutcome::Committed);
        // Replayable payload, with a trace bound to the lease.
        let g = t.grant("mfr_a#0", "w1", 0).unwrap();
        t.bind_trace(g.lease_id, 0xfeed);
        let result = json!({"ber": 0.5});
        assert_eq!(t.commit(g.lease_id, result.clone()), CommitOutcome::Committed);
        let report = t.report();
        let by_id = |id: &str| {
            report.outcomes.iter().find(|o| o.id == id).unwrap_or_else(|| panic!("{id} missing"))
        };
        assert_eq!(by_id("m0").replay_token, None);
        let token_str = by_id("mfr_a#0").replay_token.clone().expect("token minted");
        let token = ReplayToken::parse(&token_str).expect("token parses");
        assert_eq!(token.workload, "row_variation");
        assert_eq!((token.index, token.seed), (0, 9));
        assert_eq!((token.net_plan.as_str(), token.net_seed), ("flaky-link", 1234));
        assert_eq!(token.trace_id, 0xfeed);
        assert_eq!(
            token.result_hash,
            fnv1a64(rh_core_result_json(&result).as_bytes()),
            "hash covers the committed result's compact JSON"
        );
    }

    /// Compact-JSON helper mirroring what the minting path hashes.
    fn rh_core_result_json(v: &Value) -> String {
        v.to_string()
    }

    #[test]
    fn lease_base_offsets_every_minted_id() {
        let mut t = table();
        t.set_lease_base(7 << 32);
        let g0 = t.grant("m0", "w1", 0).unwrap();
        let g1 = t.grant("m1", "w1", 0).unwrap();
        assert_eq!(g0.lease_id, (7 << 32) + 1);
        assert_eq!(g1.lease_id, (7 << 32) + 2);
        // The offset changes identity only — commits still resolve.
        assert_eq!(t.commit(g0.lease_id, json!({"ok": true})), CommitOutcome::Committed);
    }

    #[test]
    fn grant_heartbeat_commit_happy_path() {
        let mut t = table();
        assert_eq!(t.next_ready(0).as_deref(), Some("m0"));
        let g = t.grant("m0", "w1", 0).unwrap();
        assert_eq!((g.lease_id, g.generation), (1, 1));
        // m0 now leased; the next ready job is m1.
        assert_eq!(t.next_ready(0).as_deref(), Some("m1"));

        assert!(t.heartbeat(g.lease_id, 900));
        // Heartbeat renewed the deadline: tick at the original
        // deadline expires nothing.
        assert!(t.tick(1_100).is_empty());

        assert_eq!(t.commit(g.lease_id, json!({"ber": 0.5})), CommitOutcome::Committed);
        assert_eq!(t.commit(g.lease_id, json!({"ber": 0.5})), CommitOutcome::Duplicate);
        assert!(!t.is_done(), "m1 still pending");
        assert_eq!(t.done_count(), 1);
    }

    #[test]
    fn expired_lease_redispatches_and_zombie_reply_is_stale() {
        let mut t = table();
        let g1 = t.grant("m0", "w1", 0).unwrap();
        // Park m1 on another worker (and keep it alive) so the gate
        // arithmetic below is m0's alone.
        let parked = t.grant("m1", "w9", 0).unwrap();
        assert!(t.heartbeat(parked.lease_id, 900));
        // No heartbeat on m0's lease: it dies at its deadline.
        let expired = t.tick(1_000);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].module_id, "m0");
        assert!(!expired[0].quarantined);

        // The job waits out its backoff, then re-dispatches with a
        // bumped generation.
        assert!(t.next_ready(1_000).as_deref() != Some("m0"), "backoff gates the re-grant");
        let ready_at = t.next_ready_at().unwrap();
        assert!(ready_at > 1_000);
        let g2 = t.grant("m0", "w2", ready_at).unwrap();
        assert_eq!(g2.generation, 2);
        assert!(g2.lease_id > g1.lease_id);
        assert_eq!(t.redispatches(), 1);

        // The zombie's late reply must not commit...
        assert_eq!(t.commit(g1.lease_id, json!({"zombie": true})), CommitOutcome::Stale);
        // ...and the live lease's result must.
        assert_eq!(t.commit(g2.lease_id, json!({"ber": 1.0})), CommitOutcome::Committed);
        let report = t.report();
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.results[0].1, json!({"ber": 1.0}), "zombie result must not win");
        assert_eq!(report.redispatches, 1);
    }

    #[test]
    fn heartbeat_misses_mark_suspect_but_deadline_rules() {
        let mut t = table();
        let g = t.grant("m0", "w1", 0).unwrap();
        assert_eq!(t.heartbeat_missed(g.lease_id), Some(LeaseState::Granted));
        assert_eq!(t.heartbeat_missed(g.lease_id), Some(LeaseState::Suspect));
        // Suspect is advisory; the lease still holds until deadline.
        assert!(t.tick(500).is_empty());
        // A successful heartbeat rehabilitates the lease.
        assert!(t.heartbeat(g.lease_id, 600));
        assert_eq!(t.active_leases()[0].2, LeaseState::Heartbeating);
        assert!(t.tick(1_500).is_empty(), "renewed deadline holds");
        assert_eq!(t.tick(1_700).len(), 1, "then expires");
        // Heartbeats on a dead lease are refused.
        assert!(!t.heartbeat(g.lease_id, 1_800));
        assert_eq!(t.heartbeat_missed(g.lease_id), None);
    }

    #[test]
    fn attempt_budget_exhaustion_quarantines() {
        let mut t = table();
        let mut now = 0u64;
        for attempt in 1..=3u32 {
            let ready_at = t.next_ready_at().unwrap().max(now);
            let g = t.grant("m0", "w1", ready_at).unwrap();
            assert_eq!(g.generation, attempt);
            now = ready_at + 1_000;
            let expired = t.tick(now);
            assert_eq!(expired.len(), 1);
            assert_eq!(expired[0].quarantined, attempt == 3);
        }
        let report = t.report();
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.outcomes[0].attempts, 3);
        assert!(!report.is_clean());
        // Quarantined jobs never re-dispatch.
        t.grant("m1", "w1", now).unwrap();
        assert_eq!(t.next_ready(u64::MAX), None);
    }

    #[test]
    fn transient_failure_retries_and_hard_failure_quarantines() {
        let mut t = table();
        let g = t.grant("m0", "w1", 0).unwrap();
        let FailOutcome::Retrying { backoff_ms } =
            t.fail(g.lease_id, "host link flake", true, 100)
        else {
            panic!("transient failure should retry");
        };
        assert!(backoff_ms > 0);
        // Stale failure reports are ignored.
        assert_eq!(t.fail(g.lease_id, "again", true, 150), FailOutcome::Stale);

        let g2 = t.grant("m0", "w1", 100 + backoff_ms).unwrap();
        assert_eq!(g2.generation, 2);
        assert_eq!(
            t.fail(g2.lease_id, "module unresponsive", false, 300),
            FailOutcome::Quarantined
        );
        let report = t.report();
        assert_eq!(report.outcomes[0].errors.len(), 2);
        assert_eq!(report.quarantined, 1);
    }

    #[test]
    fn release_returns_job_without_burning_an_attempt() {
        let mut t = table();
        let g = t.grant("m0", "w1", 0).unwrap();
        t.release(g.lease_id, 0);
        let ready_at = t.next_ready_at().unwrap();
        let g2 = t.grant("m0", "w2", ready_at).unwrap();
        assert_eq!(g2.generation, 1, "released dispatch must not consume the budget");
        // But the released lease is dead for commits.
        assert_eq!(t.commit(g.lease_id, json!(1)), CommitOutcome::Stale);
        assert_eq!(t.commit(g2.lease_id, json!(2)), CommitOutcome::Committed);
    }

    #[test]
    fn checkpoint_roundtrip_drops_in_flight_leases() {
        let dir = std::env::temp_dir().join(format!("rh-fleet-cp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.json");
        let _ = std::fs::remove_file(&path);

        let mut t = table();
        t.add_job("m2", json!({"n": 2}));
        t.with_checkpoint(&path).unwrap();
        let g0 = t.grant("m0", "w1", 0).unwrap();
        assert_eq!(t.commit(g0.lease_id, json!({"ok": 0})), CommitOutcome::Committed);
        let g1 = t.grant("m1", "w1", 0).unwrap();
        let _in_flight = t.grant("m2", "w2", 0).unwrap();
        assert_eq!(
            t.fail(g1.lease_id, "module unresponsive", false, 10),
            FailOutcome::Quarantined
        );
        // m2's lease is in flight when the "coordinator dies" here.

        let mut resumed = JobTable::new(FleetPolicy {
            retry: RetryPolicy { max_attempts: 3, ..RetryPolicy::default() },
            lease_ms: 1_000,
            suspect_after_misses: 2,
        });
        resumed.add_job("m0", json!({"n": 0}));
        resumed.add_job("m1", json!({"n": 1}));
        resumed.add_job("m2", json!({"n": 2}));
        resumed.with_checkpoint(&path).unwrap();

        // Committed and quarantined entries survive; only the
        // in-flight m2 is pending again.
        assert_eq!(resumed.next_ready(0).as_deref(), Some("m2"));
        assert_eq!(resumed.done_count(), 2);
        let g2 = resumed.grant("m2", "w3", 0).unwrap();
        assert_eq!(resumed.commit(g2.lease_id, json!({"ok": 2})), CommitOutcome::Committed);
        assert!(resumed.is_done());
        let report = resumed.report();
        assert_eq!(report.committed, 2);
        assert_eq!(report.quarantined, 1);
        assert_eq!(verify_checkpoint(&path).unwrap(), 3);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn future_version_checkpoint_is_rejected() {
        let dir = std::env::temp_dir().join(format!("rh-fleet-ver-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.json");
        std::fs::write(&path, "{\"version\": 99, \"entries\": []}").unwrap();
        let mut t = table();
        let err = t.with_checkpoint(&path).unwrap_err();
        assert!(err.to_string().contains("version 99"), "got {err}");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn fleet_v1_checkpoint_is_rejected() {
        let dir = std::env::temp_dir().join(format!("rh-fleet-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.json");
        let v1 = r#"{"version": 1, "entries": [{"id": "m0", "status": "committed",
            "attempts": 1, "generation": 1, "errors": [], "result": {"ok": 0}, "error": null}]}"#;
        std::fs::write(&path, v1).unwrap();
        let mut t = table();
        assert!(matches!(t.with_checkpoint(&path), Err(CharError::Checkpoint { .. })));
        assert!(matches!(verify_checkpoint(&path), Err(CharError::Checkpoint { .. })));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn grant_refuses_unknown_and_non_pending_jobs() {
        let mut t = table();
        assert!(t.grant("nope", "w1", 0).is_err());
        t.grant("m0", "w1", 0).unwrap();
        assert!(t.grant("m0", "w1", 0).is_err(), "double grant must be refused");
    }

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(
            "127.0.0.1:9001",
            BreakerPolicy {
                failure_threshold: 3,
                cooldown_ms: 1_000,
                max_cooldown_ms: 8_000,
                max_trips: 3,
                jitter_seed: 42,
            },
        )
    }

    #[test]
    fn breaker_trips_after_threshold_and_admits_one_probe() {
        let mut b = breaker();
        assert!(b.allow_request(0));
        assert_eq!(b.record_failure(0), BreakerState::Closed);
        assert_eq!(b.record_failure(0), BreakerState::Closed);
        assert!(b.allow_request(0), "two failures stay under the threshold");
        assert_eq!(b.record_failure(0), BreakerState::Open);
        assert_eq!(b.trips(), 1);

        // Open: blocked until the cooldown elapses.
        assert!(!b.allow_request(1));
        let ready = b.open_until_ms();
        assert!((750..=1_500).contains(&ready), "jittered cooldown out of band: {ready}");
        // Exactly one half-open probe is admitted, not a stampede.
        assert!(b.allow_request(ready));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow_request(ready), "second probe must wait for the first");

        // Probe success re-closes and resets the escalation.
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
        assert!(b.allow_request(ready + 1));
    }

    #[test]
    fn failed_probe_retrips_with_escalating_cooldown_until_eviction() {
        let mut b = breaker();
        for _ in 0..3 {
            b.record_failure(0);
        }
        assert_eq!(b.state(), BreakerState::Open);
        let first_cooldown = b.cooldown_for_trip(1);
        let second_cooldown = b.cooldown_for_trip(2);
        assert!(
            second_cooldown > first_cooldown,
            "cooldowns must escalate: {first_cooldown} -> {second_cooldown}"
        );

        // Probe #1 fails: trip 2.
        let t1 = b.open_until_ms();
        assert!(b.allow_request(t1));
        assert_eq!(b.record_failure(t1), BreakerState::Open);
        assert_eq!(b.trips(), 2);

        // Probe #2 fails: trip 3 == max_trips -> evicted for good.
        let t2 = b.open_until_ms();
        assert!(t2 > t1);
        assert!(b.allow_request(t2));
        assert_eq!(b.record_failure(t2), BreakerState::Evicted);
        assert!(b.is_evicted());
        assert!(!b.allow_request(u64::MAX), "eviction is terminal");
        assert_eq!(b.record_failure(u64::MAX), BreakerState::Evicted);
    }

    #[test]
    fn breaker_jitter_is_deterministic_and_worker_dependent() {
        let b1 = breaker();
        let b2 = breaker();
        assert_eq!(b1.cooldown_for_trip(1), b2.cooldown_for_trip(1), "same seed, same schedule");
        let other = CircuitBreaker::new(
            "127.0.0.1:9002",
            BreakerPolicy { jitter_seed: 42, ..BreakerPolicy::default() },
        );
        let same_policy = CircuitBreaker::new(
            "127.0.0.1:9001",
            BreakerPolicy { jitter_seed: 42, ..BreakerPolicy::default() },
        );
        assert_ne!(
            other.cooldown_for_trip(1),
            same_policy.cooldown_for_trip(1),
            "different workers must not probe in lockstep"
        );
    }

    #[test]
    fn breaker_cooldown_values_are_pinned() {
        let b = breaker();
        let got: Vec<u64> = (1..=3).map(|t| b.cooldown_for_trip(t)).collect();
        assert_eq!(got, [795, 1928, 4376]);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = breaker();
        b.record_failure(0);
        b.record_failure(0);
        b.record_success();
        b.record_failure(0);
        b.record_failure(0);
        assert_eq!(b.state(), BreakerState::Closed, "streak must reset on success");
        b.record_failure(0);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn degraded_report_semantics() {
        let mut t = table();
        let g = t.grant("m0", "w1", 0).unwrap();
        assert_eq!(t.commit(g.lease_id, json!({"ok": 0})), CommitOutcome::Committed);
        // m1 never finishes: the coordinator lost its last worker.
        let mut partial = t.report();
        assert_eq!(partial.committed, 1);
        partial.mark_degraded(1);
        assert!(partial.degraded);
        assert!(!partial.is_clean());
        assert!(
            partial.summary_line().starts_with("2 module(s): 1 committed, 0 quarantined"),
            "stable prefix broken: {}",
            partial.summary_line()
        );
        assert!(partial.summary_line().contains("[DEGRADED: 1 worker(s) lost]"));

        // Losing workers while still committing everything is NOT
        // degradation — the fleet absorbed it (fleet-smoke relies on
        // this: kill -9 one of two workers, still clean 4/4).
        let g1 = t.grant("m1", "w2", 0).unwrap();
        assert_eq!(t.commit(g1.lease_id, json!({"ok": 1})), CommitOutcome::Committed);
        let mut full = t.report();
        full.mark_degraded(1);
        assert!(!full.degraded);
        assert!(full.is_clean());
        assert_eq!(full.workers_lost, 1, "losses stay visible in the report");
        assert!(!full.summary_line().contains("DEGRADED"));
    }
}
