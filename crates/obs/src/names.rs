//! The canonical registry of metric, span, and histogram names.
//!
//! Every instrumentation point in the workspace refers to these
//! constants instead of ad-hoc `&'static str` literals: a typo'd name
//! can no longer silently fork a time series, because the only way to
//! emit a record is through a constant that [`all`] enumerates and the
//! `names_are_unique` / `names_follow_convention` tests police.
//!
//! # Naming convention
//!
//! `crate.noun[.qualifier]` — lowercase ASCII, `.`-separated segments
//! of `[a-z0-9_]`, no leading/trailing/empty segments. Histograms of
//! durations carry a unit suffix (`.ns`), so a reader never has to
//! guess what a p99 of `1024` means.

/// Every opcode issued by the SoftMC controller.
pub const SOFTMC_CMD: &str = "softmc.cmd";
/// ACT commands issued.
pub const SOFTMC_CMD_ACT: &str = "softmc.cmd.act";
/// PRE commands issued.
pub const SOFTMC_CMD_PRE: &str = "softmc.cmd.pre";
/// PREALL commands issued.
pub const SOFTMC_CMD_PRE_ALL: &str = "softmc.cmd.pre_all";
/// RD commands issued.
pub const SOFTMC_CMD_RD: &str = "softmc.cmd.rd";
/// WR commands issued.
pub const SOFTMC_CMD_WR: &str = "softmc.cmd.wr";
/// REF commands issued.
pub const SOFTMC_CMD_REF: &str = "softmc.cmd.ref";
/// NOP commands issued.
pub const SOFTMC_CMD_NOP: &str = "softmc.cmd.nop";
/// Bulk hammer fast-path invocations.
pub const SOFTMC_HAMMER_BULK: &str = "softmc.hammer.bulk";
/// Operations aborted by a fired cancel token.
pub const SOFTMC_CANCELLED: &str = "softmc.cancelled";
/// Injected infrastructure faults that fired.
pub const SOFTMC_FAULT_INJECTED: &str = "softmc.fault.injected";
/// Injected hangs that wedged the host link.
pub const SOFTMC_FAULT_HANG: &str = "softmc.fault.hang";
/// Event: one injected fault (stage, op, error).
pub const SOFTMC_FAULT_EVENT: &str = "softmc.fault";
/// Event: the host link wedged (op, after_ops).
pub const SOFTMC_HANG_EVENT: &str = "softmc.hang";

/// Histogram: wall latency of issuing one ACT (ns).
pub const SOFTMC_ISSUE_ACT_NS: &str = "softmc.issue.act.ns";
/// Histogram: wall latency of issuing one PRE (ns).
pub const SOFTMC_ISSUE_PRE_NS: &str = "softmc.issue.pre.ns";
/// Histogram: wall latency of issuing one PREALL (ns).
pub const SOFTMC_ISSUE_PRE_ALL_NS: &str = "softmc.issue.pre_all.ns";
/// Histogram: wall latency of issuing one RD (ns).
pub const SOFTMC_ISSUE_RD_NS: &str = "softmc.issue.rd.ns";
/// Histogram: wall latency of issuing one WR (ns).
pub const SOFTMC_ISSUE_WR_NS: &str = "softmc.issue.wr.ns";
/// Histogram: wall latency of issuing one REF (ns).
pub const SOFTMC_ISSUE_REF_NS: &str = "softmc.issue.ref.ns";
/// Histogram: wall latency of issuing one NOP (ns).
pub const SOFTMC_ISSUE_NOP_NS: &str = "softmc.issue.nop.ns";

/// Bit flips materialized on activation.
pub const DRAM_FLIP: &str = "dram.flip";
/// Hammer episodes delivered to the fault model.
pub const DRAM_HAMMER_EPISODES: &str = "dram.hammer.episodes";
/// Dangling episodes flushed after a program's final PRE.
pub const DRAM_HAMMER_FLUSHED: &str = "dram.hammer.flushed";
/// Full-row writes through the direct interface.
pub const DRAM_ROW_WRITE: &str = "dram.row.write";
/// Full-row reads through the direct interface.
pub const DRAM_ROW_READ: &str = "dram.row.read";
/// Gauge: the most rows one module has held in storage since the
/// recorder was installed (a high-water mark across modules).
pub const DRAM_ROWS_STORED: &str = "dram.rows_stored";
/// Timing-constraint violations (counter and event share the name).
pub const DRAM_TIMING_VIOLATION: &str = "dram.timing_violation";
/// Histogram: wall latency of one bulk hammer burst (ns).
pub const DRAM_HAMMER_NS: &str = "dram.hammer.ns";
/// Histogram: wall latency of one direct row write (ns).
pub const DRAM_ROW_WRITE_NS: &str = "dram.row.write.ns";
/// Histogram: wall latency of one direct row read (ns).
pub const DRAM_ROW_READ_NS: &str = "dram.row.read.ns";

/// Vulnerable-cell populations derived (global-cache misses).
pub const FAULTMODEL_ROW_DERIVE: &str = "faultmodel.row.derive";
/// Oracle lookups of a row's cells (`RowHammerModel::row_cells`)
/// served by the process-global cell cache; a sensing records no hit.
pub const FAULTMODEL_CELLS_GLOBAL_HIT: &str = "faultmodel.cells.global_hit";
/// Cell tables built: one per derived row, so it equals
/// [`FAULTMODEL_ROW_DERIVE`].
pub const FAULTMODEL_SURFACE_BUILD: &str = "faultmodel.surface.build";
/// Activations whose dose reaches no cell: below the row's dose floor
/// or, in its cell table, below every base threshold times the noise
/// floor.
pub const FAULTMODEL_EVAL_EARLY_OUT: &str = "faultmodel.eval.early_out";
/// Early-outs decided by the row's dose floor, before the row's cells
/// were derived (a subset of [`FAULTMODEL_EVAL_EARLY_OUT`]).
pub const FAULTMODEL_EVAL_GATED: &str = "faultmodel.eval.gated";
/// Cell tables evicted from the process-global cache (LRU, not
/// wiped).
pub const FAULTMODEL_CACHE_EVICT: &str = "faultmodel.cache.evict";

/// BER tests taken (`Characterizer::measure_ber`). HCfirst probes
/// sense only the victim and do not pass through it; they are counted
/// by [`CORE_HC_FIRST_PROBE_NS`] instead.
pub const CORE_BER_MEASUREMENTS: &str = "core.ber_measurements";
/// Span: one HCfirst binary search.
pub const CORE_HC_FIRST: &str = "core.hc_first";
/// Histogram: wall latency of one HCfirst probe iteration (ns).
pub const CORE_HC_FIRST_PROBE_NS: &str = "core.hc_first.probe.ns";

/// Modules that succeeded on their first attempt.
pub const CAMPAIGN_SUCCEEDED: &str = "campaign.succeeded";
/// Modules that recovered after retries (the counter and the
/// per-module event share this name).
pub const CAMPAIGN_RECOVERED: &str = "campaign.recovered";
/// Modules quarantined after exhausting attempts.
pub const CAMPAIGN_QUARANTINED: &str = "campaign.quarantined";
/// Retry attempts across all modules.
pub const CAMPAIGN_RETRIES: &str = "campaign.retries";
/// Modules timed out by the watchdog.
pub const CAMPAIGN_TIMEOUT: &str = "campaign.timeout";
/// Modules cancelled (queued or in flight).
pub const CAMPAIGN_CANCELLED: &str = "campaign.cancelled";
/// Event: one retry (module, attempt, backoff_ms, error).
pub const CAMPAIGN_RETRY_EVENT: &str = "campaign.retry";
/// Event: one quarantine (module, attempts, transient, error).
pub const CAMPAIGN_QUARANTINE_EVENT: &str = "campaign.quarantine";
/// Event: a checkpoint was loaded (entries).
pub const CAMPAIGN_CHECKPOINT_LOADED: &str = "campaign.checkpoint.loaded";
/// Event: a checkpoint was saved (entries, ok).
pub const CAMPAIGN_CHECKPOINT_SAVED: &str = "campaign.checkpoint.saved";
/// Event: a stale checkpoint temp file was removed.
pub const CAMPAIGN_CHECKPOINT_STALE_TMP: &str = "campaign.checkpoint.stale_tmp_removed";
/// Event: a module was skipped because the checkpoint already has it.
pub const CAMPAIGN_RESUME_SKIP: &str = "campaign.resume_skip";
/// Span: one module's full retry loop.
pub const CAMPAIGN_MODULE: &str = "campaign.module";
/// Histogram: wall time of one module's full retry loop (ns).
pub const CAMPAIGN_MODULE_NS: &str = "campaign.module.ns";
/// Span: one attempt (build + run) inside a module's retry loop; nests
/// under [`CAMPAIGN_MODULE`] in the reconstructed trace tree.
pub const CAMPAIGN_ATTEMPT: &str = "campaign.attempt";

/// Event: periodic campaign progress heartbeat (done, total, running,
/// eta_ms).
pub const CAMPAIGN_HEARTBEAT: &str = "campaign.heartbeat";
/// Gauge: modules in this campaign (fixed once tasks are admitted).
pub const CAMPAIGN_PROGRESS_TOTAL: &str = "campaign.progress.total";
/// Gauge: modules with a terminal status (any outcome counts as done).
pub const CAMPAIGN_PROGRESS_DONE: &str = "campaign.progress.done";
/// Gauge: modules currently inside a worker.
pub const CAMPAIGN_PROGRESS_RUNNING: &str = "campaign.progress.running";
/// Gauge: throughput-based estimate of remaining campaign wall time.
pub const CAMPAIGN_ETA_MS: &str = "campaign.eta_ms";

/// Gauge: threads still waiting for a worker-budget slot when one was
/// last granted (0 once a run has finished).
pub const EXECUTOR_QUEUE_DEPTH: &str = "executor.queue_depth";
/// Span: the watchdog thread's whole patrol.
pub const EXECUTOR_WATCHDOG: &str = "executor.watchdog";
/// Histogram: time a campaign module waited, from its pool's start
/// until it held a worker-budget slot (ns).
pub const EXECUTOR_QUEUE_WAIT_NS: &str = "executor.queue_wait.ns";

/// Rows refreshed by a defense.
pub const DEFENSE_REFRESH: &str = "defense.refresh";
/// Defense refreshes that landed on the true victim.
pub const DEFENSE_VICTIM_REFRESH: &str = "defense.victim_refresh";
/// Throttle actions taken by a defense.
pub const DEFENSE_THROTTLE: &str = "defense.throttle";
/// Cumulative throttle delay in picoseconds.
pub const DEFENSE_THROTTLE_PS: &str = "defense.throttle_ps";

/// Span: one reproduction target.
pub const BENCH_TARGET: &str = "bench.target";

/// Jobs the fleet coordinator dispatched (first grant or re-grant).
pub const FLEET_DISPATCH: &str = "fleet.dispatch";
/// Jobs re-dispatched after a lease expired.
pub const FLEET_REDISPATCH: &str = "fleet.redispatch";
/// Module results committed (exactly one per module, ever).
pub const FLEET_COMMIT: &str = "fleet.commit";
/// Late or repeated results rejected by the commit rule.
pub const FLEET_DUPLICATE: &str = "fleet.duplicate";
/// Leases that expired (deadline passed without commit).
pub const FLEET_LEASE_EXPIRED: &str = "fleet.lease.expired";
/// Heartbeats that failed (connection refused, timeout, bad reply).
pub const FLEET_HEARTBEAT_MISSED: &str = "fleet.heartbeat.missed";
/// Workers currently marked suspect (gauge).
pub const FLEET_WORKER_SUSPECT: &str = "fleet.worker.suspect";
/// Modules the fleet quarantined after exhausting attempts.
pub const FLEET_QUARANTINED: &str = "fleet.quarantined";
/// Event: one lease grant (module, worker, lease, generation).
pub const FLEET_GRANT_EVENT: &str = "fleet.grant";
/// Event: one lease expiry (module, lease, worker).
pub const FLEET_EXPIRE_EVENT: &str = "fleet.expire";

/// Jobs a worker accepted onto a slot.
pub const WORKER_JOBS_ACCEPTED: &str = "worker.jobs.accepted";
/// Jobs a worker refused for lack of slots (503 to the coordinator).
pub const WORKER_JOBS_REJECTED: &str = "worker.jobs.rejected";
/// Jobs a worker ran to successful completion.
pub const WORKER_JOBS_COMPLETED: &str = "worker.jobs.completed";
/// Jobs that failed on the worker (the error travels back).
pub const WORKER_JOBS_FAILED: &str = "worker.jobs.failed";
/// Jobs cancelled on the worker via `POST /cancel`.
pub const WORKER_JOBS_CANCELLED: &str = "worker.jobs.cancelled";

/// Circuit-breaker trips: a worker's breaker moved Closed/HalfOpen →
/// Open after consecutive transport failures.
pub const FLEET_BREAKER_TRIP: &str = "fleet.breaker.trip";
/// Breaker probes: an Open breaker cooled down and admitted one
/// half-open trial request.
pub const FLEET_BREAKER_HALF_OPEN: &str = "fleet.breaker.half_open";
/// Breaker recoveries: a half-open probe succeeded and the breaker
/// re-closed.
pub const FLEET_BREAKER_CLOSE: &str = "fleet.breaker.close";
/// Workers evicted from dispatch after exhausting breaker trips.
pub const FLEET_BREAKER_EVICTED: &str = "fleet.breaker.evicted";
/// Gauge: workers whose breaker is currently not Closed (open,
/// half-open, or evicted) — nonzero means the fleet is degraded-risk.
pub const FLEET_BREAKER_OPEN: &str = "fleet.breaker.open";
/// Event: one breaker transition (worker, from, to, failures).
pub const FLEET_BREAKER_EVENT: &str = "fleet.breaker";
/// Gauge: 1 when the coordinator finished with a degraded (partial)
/// report because workers were permanently lost, else 0.
pub const FLEET_DEGRADED: &str = "fleet.degraded";
/// Jobs a worker shed with 429 because the admission queue was full.
pub const WORKER_ADMISSION_SHED: &str = "worker.admission.shed";
/// Jobs accepted into the worker's bounded admission queue (deferred,
/// not yet on a slot).
pub const WORKER_ADMISSION_QUEUED: &str = "worker.admission.queued";

/// Network faults injected by the armed [`crate::faultnet`] plan.
pub const NETFAULT_INJECTED: &str = "obs.netfault.injected";
/// Event: one injected network fault (kind, op).
pub const NETFAULT_EVENT: &str = "obs.netfault";

/// Span: one whole coordinator fleet run (the trace root).
pub const FLEET_RUN_SPAN: &str = "fleet.run";
/// Span: one coordinator→worker dispatch RPC (carries the traceparent).
pub const FLEET_DISPATCH_RPC: &str = "fleet.dispatch.rpc";
/// Span: one job executing on a worker slot thread.
pub const WORKER_JOB_SPAN: &str = "worker.job";
/// Span: one fault-model kernel sweep (a bounded hammer+evaluate
/// batch inside a characterization workload, e.g. one temperature
/// grid step), so worker job spans carry kernel children across the
/// process boundary without flooding the per-job segment budget.
pub const FAULTMODEL_KERNEL_SPAN: &str = "faultmodel.kernel";
/// Meta record heading each per-job trace segment file.
pub const FLEET_TRACE_SEGMENT: &str = "fleet.trace.segment";
/// Trace records a worker shed from a job segment to stay in budget.
pub const OBS_TRACE_SHED: &str = "obs.trace.shed";

/// Per-job lifecycle events appended to a worker's event ring.
pub const WORKER_EVENTS_EMITTED: &str = "worker.events.emitted";
/// Lifecycle events evicted from a worker's ring by overflow.
pub const WORKER_EVENTS_DROPPED: &str = "worker.events.dropped";
/// `GET /events` polls a worker answered.
pub const WORKER_EVENTS_POLLS: &str = "worker.events.polls";
/// Events appended to the coordinator's fleet journal (post-dedup).
pub const FLEET_JOURNAL_EVENTS: &str = "fleet.journal.events";
/// Redelivered events the journal rejected via `(lease_id, seq)`.
pub const FLEET_JOURNAL_DUPLICATES: &str = "fleet.journal.duplicates";
/// Gauge: worst per-worker stream lag (`last_seq - acked_seq`).
pub const FLEET_JOURNAL_LAG: &str = "fleet.journal.lag";

/// Trace records dropped by the recorder (memory cap or write error).
pub const OBS_DROPPED_RECORDS: &str = "obs.dropped_records";
/// Connections accepted by the telemetry HTTP server.
pub const OBS_HTTP_REQUESTS: &str = "obs.http.requests";
/// Connections the telemetry server refused with 503 (queue full).
pub const OBS_HTTP_REJECTED: &str = "obs.http.rejected";
/// Requests answered 405 (known route, wrong method).
pub const OBS_HTTP_METHOD_NOT_ALLOWED: &str = "obs.http.method_not_allowed";

/// Every name above, for the uniqueness and convention tests and for
/// tooling that wants to validate a trace against the registry.
pub fn all() -> &'static [&'static str] {
    &[
        SOFTMC_CMD,
        SOFTMC_CMD_ACT,
        SOFTMC_CMD_PRE,
        SOFTMC_CMD_PRE_ALL,
        SOFTMC_CMD_RD,
        SOFTMC_CMD_WR,
        SOFTMC_CMD_REF,
        SOFTMC_CMD_NOP,
        SOFTMC_HAMMER_BULK,
        SOFTMC_CANCELLED,
        SOFTMC_FAULT_INJECTED,
        SOFTMC_FAULT_HANG,
        SOFTMC_FAULT_EVENT,
        SOFTMC_HANG_EVENT,
        SOFTMC_ISSUE_ACT_NS,
        SOFTMC_ISSUE_PRE_NS,
        SOFTMC_ISSUE_PRE_ALL_NS,
        SOFTMC_ISSUE_RD_NS,
        SOFTMC_ISSUE_WR_NS,
        SOFTMC_ISSUE_REF_NS,
        SOFTMC_ISSUE_NOP_NS,
        DRAM_FLIP,
        DRAM_HAMMER_EPISODES,
        DRAM_HAMMER_FLUSHED,
        DRAM_ROW_WRITE,
        DRAM_ROW_READ,
        DRAM_ROWS_STORED,
        DRAM_TIMING_VIOLATION,
        DRAM_HAMMER_NS,
        DRAM_ROW_WRITE_NS,
        DRAM_ROW_READ_NS,
        FAULTMODEL_ROW_DERIVE,
        FAULTMODEL_CELLS_GLOBAL_HIT,
        FAULTMODEL_SURFACE_BUILD,
        FAULTMODEL_EVAL_EARLY_OUT,
        FAULTMODEL_EVAL_GATED,
        FAULTMODEL_CACHE_EVICT,
        CORE_BER_MEASUREMENTS,
        CORE_HC_FIRST,
        CORE_HC_FIRST_PROBE_NS,
        CAMPAIGN_SUCCEEDED,
        CAMPAIGN_RECOVERED,
        CAMPAIGN_QUARANTINED,
        CAMPAIGN_RETRIES,
        CAMPAIGN_TIMEOUT,
        CAMPAIGN_CANCELLED,
        CAMPAIGN_RETRY_EVENT,
        CAMPAIGN_QUARANTINE_EVENT,
        CAMPAIGN_CHECKPOINT_LOADED,
        CAMPAIGN_CHECKPOINT_SAVED,
        CAMPAIGN_CHECKPOINT_STALE_TMP,
        CAMPAIGN_RESUME_SKIP,
        CAMPAIGN_MODULE,
        CAMPAIGN_MODULE_NS,
        CAMPAIGN_ATTEMPT,
        CAMPAIGN_HEARTBEAT,
        CAMPAIGN_PROGRESS_TOTAL,
        CAMPAIGN_PROGRESS_DONE,
        CAMPAIGN_PROGRESS_RUNNING,
        CAMPAIGN_ETA_MS,
        EXECUTOR_QUEUE_DEPTH,
        EXECUTOR_WATCHDOG,
        EXECUTOR_QUEUE_WAIT_NS,
        DEFENSE_REFRESH,
        DEFENSE_VICTIM_REFRESH,
        DEFENSE_THROTTLE,
        DEFENSE_THROTTLE_PS,
        BENCH_TARGET,
        FLEET_DISPATCH,
        FLEET_REDISPATCH,
        FLEET_COMMIT,
        FLEET_DUPLICATE,
        FLEET_LEASE_EXPIRED,
        FLEET_HEARTBEAT_MISSED,
        FLEET_WORKER_SUSPECT,
        FLEET_QUARANTINED,
        FLEET_GRANT_EVENT,
        FLEET_EXPIRE_EVENT,
        FLEET_BREAKER_TRIP,
        FLEET_BREAKER_HALF_OPEN,
        FLEET_BREAKER_CLOSE,
        FLEET_BREAKER_EVICTED,
        FLEET_BREAKER_OPEN,
        FLEET_BREAKER_EVENT,
        FLEET_DEGRADED,
        WORKER_ADMISSION_SHED,
        WORKER_ADMISSION_QUEUED,
        NETFAULT_INJECTED,
        NETFAULT_EVENT,
        WORKER_JOBS_ACCEPTED,
        WORKER_JOBS_REJECTED,
        WORKER_JOBS_COMPLETED,
        WORKER_JOBS_FAILED,
        WORKER_JOBS_CANCELLED,
        FLEET_RUN_SPAN,
        FLEET_DISPATCH_RPC,
        WORKER_JOB_SPAN,
        FAULTMODEL_KERNEL_SPAN,
        FLEET_TRACE_SEGMENT,
        OBS_TRACE_SHED,
        WORKER_EVENTS_EMITTED,
        WORKER_EVENTS_DROPPED,
        WORKER_EVENTS_POLLS,
        FLEET_JOURNAL_EVENTS,
        FLEET_JOURNAL_DUPLICATES,
        FLEET_JOURNAL_LAG,
        OBS_DROPPED_RECORDS,
        OBS_HTTP_REQUESTS,
        OBS_HTTP_REJECTED,
        OBS_HTTP_METHOD_NOT_ALLOWED,
    ]
}

/// Whether `name` follows the registry convention: non-empty
/// `.`-separated segments of `[a-z0-9_]`.
pub fn follows_convention(name: &str) -> bool {
    !name.is_empty()
        && name.split('.').all(|seg| {
            !seg.is_empty()
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique() {
        let mut seen = BTreeSet::new();
        for n in all() {
            assert!(seen.insert(*n), "duplicate metric name '{n}' forks a time series");
        }
    }

    #[test]
    fn names_follow_convention() {
        for n in all() {
            assert!(follows_convention(n), "'{n}' violates the naming convention");
        }
    }

    #[test]
    fn convention_rejects_typos() {
        for bad in ["", ".", "a..b", "A.b", "a.b ", "a.b-ns", "a.", ".a"] {
            assert!(!follows_convention(bad), "'{bad}' should be rejected");
        }
        assert!(follows_convention("softmc.cmd.act"));
        assert!(follows_convention("executor.queue_wait.ns"));
    }

    #[test]
    fn duration_histograms_carry_a_unit_suffix() {
        for n in all().iter().filter(|n| n.contains("issue.") || n.ends_with("probe.ns")) {
            assert!(n.ends_with(".ns"), "duration histogram '{n}' is missing its unit");
        }
    }
}
