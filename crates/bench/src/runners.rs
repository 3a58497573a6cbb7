//! Experiment runners, one per reproduced table/figure/improvement.

use rh_attack::{long_open_study, temperature_aware_study, trigger};
use rh_core::experiments::{dose, rowactive, spatial, temperature};
use rh_core::{
    module_id, observations as obs, report, CampaignReport, CampaignRunner, CharError,
    Characterizer, ModuleTask, ProgressTracker, RetryPolicy, Scale,
};
use rh_defense::{
    blockhammer_area_pct, cooling, cost, ecc, graphene_area_pct, profiling, retire, scheduler,
    sim::DefenseSim, BlockHammer, Graphene, Para, TargetRowRefresh, ThresholdConfig, Twice,
};
use rh_core::ExecutorConfig;
use rh_dram::{ddr4_modules_of, BankId, Manufacturer, RowAddr};
use rh_softmc::{CancelToken, FaultPlan, Program, TestBench};
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;
use rh_obs::names;

/// Configuration of a reproduction run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Experiment scale.
    pub scale: Scale,
    /// Base seed mixed into every module identity (new seed = new set
    /// of simulated modules).
    pub seed: u64,
    /// Modules per manufacturer for multi-module figures (11/14/15).
    pub modules_per_mfr: usize,
    /// Infrastructure fault plan armed on every campaign-managed bench
    /// (`None` = fault-free run). Single-module targets are unmanaged
    /// and ignore it.
    pub faults: Option<FaultPlan>,
    /// Retry/quarantine policy of campaign-managed targets.
    pub retry: RetryPolicy,
    /// Checkpoint path prefix: each campaign target persists partial
    /// results to `<prefix>-<target>.json` and resumes from it.
    pub checkpoint: Option<PathBuf>,
    /// Worker-pool width of campaign-backed targets (`None` = one
    /// worker per available core).
    pub max_workers: Option<usize>,
    /// Per-module wall-clock deadline in milliseconds; overrunning
    /// modules are marked `TimedOut` by the watchdog (`None` = no
    /// deadline).
    pub deadline_ms: Option<u64>,
    /// Cancel the rest of a campaign on its first quarantine/timeout.
    pub fail_fast: bool,
    /// Operator cancellation token: cancelling it (e.g. from a SIGINT
    /// handler) makes every campaign-backed target checkpoint and
    /// unwind at the next command boundary.
    pub cancel: CancelToken,
    /// Shared live-progress tracker: every campaign-backed target
    /// admits its modules here and records their terminal statuses, so
    /// the `/progress` endpoint and `repro top` see a run spanning
    /// several targets as one aggregate (`None` = no tracking).
    pub progress: Option<Arc<ProgressTracker>>,
    /// Clean campaigns already run under this config, shared by all its
    /// clones, so targets that render one experiment (table3/fig3,
    /// fig7–10, fig12/13, fig14/15) run its campaign once. A fresh
    /// config starts empty.
    pub experiments: ExperimentRegistry,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            scale: Scale::Default,
            seed: 0,
            modules_per_mfr: 2,
            faults: None,
            retry: RetryPolicy::default(),
            checkpoint: None,
            max_workers: None,
            deadline_ms: None,
            fail_fast: false,
            cancel: CancelToken::new(),
            progress: None,
            experiments: ExperimentRegistry::default(),
        }
    }
}

/// The output of one runner.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Target name (e.g. `"fig7"`).
    pub target: &'static str,
    /// Rendered text report.
    pub text: String,
    /// Raw machine-readable results.
    pub data: Value,
    /// The resilience report of campaign-backed targets (`None` for
    /// static or single-module targets). `repro` keys its exit code on
    /// this: quarantined, timed-out, or cancelled modules are failures.
    pub report: Option<CampaignReport>,
}

/// Live-telemetry sidecar options of one reproduction invocation,
/// layered on top of the trace/metrics file outputs.
#[derive(Debug, Clone, Default)]
pub struct TelemetryOptions {
    /// Bind address of the HTTP endpoint serving `/metrics`,
    /// `/progress`, and `/healthz` (e.g. `127.0.0.1:0` for an
    /// OS-assigned port); `None` = no server.
    pub serve_addr: Option<String>,
    /// Interval of the periodic rollup snapshot (one JSONL line per
    /// tick, flushed immediately, so a crashed run still leaves its
    /// metric series on disk). `None` = no rollup publisher.
    pub rollup_interval: Option<Duration>,
}

impl TelemetryOptions {
    /// Whether any live sidecar is requested.
    #[must_use]
    pub fn any(&self) -> bool {
        self.serve_addr.is_some() || self.rollup_interval.is_some()
    }
}

/// The [`rh_obs::TelemetrySource`] backing the live endpoints: renders
/// the shared recorder as Prometheus text, the shared tracker as the
/// `/progress` JSON, and reports unhealthy once the operator token has
/// fired (the executor tree is unwinding; scrapers should know).
struct LiveTelemetry {
    recorder: Arc<rh_obs::Recorder>,
    progress: Arc<ProgressTracker>,
    cancel: CancelToken,
    /// Fleet metrics federation: worker expositions the coordinator
    /// has scraped. Empty (every non-fleet run) renders the local
    /// exposition byte-identically.
    federation: Arc<rh_obs::FederationHub>,
}

impl rh_obs::TelemetrySource for LiveTelemetry {
    fn metrics_text(&self) -> String {
        self.federation.render(&rh_obs::export::render_prometheus(&self.recorder))
    }

    fn progress_json(&self) -> String {
        self.progress.progress_json()
    }

    fn healthy(&self) -> bool {
        !self.cancel.is_cancelled()
    }
}

/// Observability wiring of one reproduction invocation: when at least
/// one output path is requested, installs a process-global
/// [`rh_obs::Recorder`] so every instrumentation point in the stack
/// (softmc commands, dram flips, campaign retry/quarantine events,
/// defense mitigations) is captured, and exports the JSONL trace and
/// the metrics snapshot on [`finish`](ObsSetup::finish).
///
/// [`with_telemetry`](ObsSetup::with_telemetry) additionally starts
/// the live sidecars: the telemetry HTTP server and/or the periodic
/// rollup publisher, both torn down by `finish` (and the server also
/// by the operator cancel token, via the accept loop's shutdown
/// predicate).
#[derive(Debug, Default)]
pub struct ObsSetup {
    recorder: Option<Arc<rh_obs::Recorder>>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    progress: Option<Arc<ProgressTracker>>,
    server: Option<rh_obs::TelemetryServer>,
    rollup: Option<rh_obs::RollupPublisher>,
    federation: Option<Arc<rh_obs::FederationHub>>,
}

impl ObsSetup {
    /// Installs a recorder if `trace_out` or `metrics_out` is given;
    /// otherwise observability stays disabled (zero overhead). With a
    /// trace path the recorder *streams* records to the file through a
    /// `BufWriter` as they arrive, so soak-length traces are bounded
    /// neither by memory nor lost wholesale on a crash (flushed on
    /// every snapshot and on drop). If the trace file cannot be
    /// created the recorder falls back to in-memory recording and the
    /// export happens at [`finish`](ObsSetup::finish).
    pub fn new(trace_out: Option<PathBuf>, metrics_out: Option<PathBuf>) -> Self {
        Self::with_telemetry(
            trace_out,
            metrics_out,
            &TelemetryOptions::default(),
            &CancelToken::new(),
        )
    }

    /// [`new`](Self::new) plus live telemetry. A recorder is installed
    /// when any output — file or live — is requested. With
    /// [`TelemetryOptions::serve_addr`] the HTTP server starts here
    /// (bind errors are reported on stderr, not fatal: losing the
    /// monitor must not kill the campaign); its accept loop also polls
    /// `cancel`, so an operator interrupt downs the server without any
    /// extra plumbing. With [`TelemetryOptions::rollup_interval`] the
    /// rollup publisher appends periodic counter/gauge snapshots to
    /// `<metrics_out>.rollup.jsonl` (or a temp-dir file when no
    /// metrics path was given).
    pub fn with_telemetry(
        trace_out: Option<PathBuf>,
        metrics_out: Option<PathBuf>,
        telemetry: &TelemetryOptions,
        cancel: &CancelToken,
    ) -> Self {
        let wanted = trace_out.is_some() || metrics_out.is_some() || telemetry.any();
        if !wanted {
            return Self::default();
        }
        let rec = trace_out
            .as_deref()
            .and_then(|p| rh_obs::Recorder::with_trace_file(p).ok())
            .unwrap_or_default();
        let rec = Arc::new(rec);
        rh_obs::install(rec.clone());
        let progress = Arc::new(ProgressTracker::new());
        let federation = Arc::new(rh_obs::FederationHub::new());

        let server = telemetry.serve_addr.as_deref().and_then(|addr| {
            let source = Arc::new(LiveTelemetry {
                recorder: Arc::clone(&rec),
                progress: Arc::clone(&progress),
                cancel: cancel.clone(),
                federation: Arc::clone(&federation),
            });
            let token = cancel.clone();
            let shutdown = Box::new(move || token.is_cancelled());
            match rh_obs::serve_with(
                addr,
                source,
                &rh_obs::ServeConfig::default(),
                Some(shutdown),
            ) {
                Ok(server) => {
                    // The one parseable line CI and `repro top` key on.
                    eprintln!("repro: serving telemetry on http://{}", server.local_addr());
                    Some(server)
                }
                Err(e) => {
                    eprintln!("repro: cannot serve telemetry on {addr}: {e}");
                    None
                }
            }
        });

        let rollup = telemetry.rollup_interval.and_then(|interval| {
            let path = metrics_out.as_ref().map_or_else(
                || std::env::temp_dir().join(format!("rh-rollup-{}.jsonl", std::process::id())),
                |p| {
                    let mut name = p.file_name().map_or_else(
                        || std::ffi::OsString::from("metrics"),
                        std::ffi::OsStr::to_os_string,
                    );
                    name.push(".rollup.jsonl");
                    p.with_file_name(name)
                },
            );
            match rh_obs::RollupPublisher::start(Arc::clone(&rec), &path, interval) {
                Ok(rollup) => {
                    eprintln!("repro: rollup series -> {}", path.display());
                    Some(rollup)
                }
                Err(e) => {
                    eprintln!("repro: cannot start rollup at {}: {e}", path.display());
                    None
                }
            }
        });

        Self {
            recorder: Some(rec),
            trace_out,
            metrics_out,
            progress: Some(progress),
            server,
            rollup,
            federation: Some(federation),
        }
    }

    /// Whether a recorder is installed.
    pub fn active(&self) -> bool {
        self.recorder.is_some()
    }

    /// The installed recorder, for in-process inspection.
    pub fn recorder(&self) -> Option<&rh_obs::Recorder> {
        self.recorder.as_deref()
    }

    /// An owning handle to the installed recorder, for components
    /// (e.g. the fleet trace capture) that hold it past `self`.
    pub fn recorder_handle(&self) -> Option<Arc<rh_obs::Recorder>> {
        self.recorder.clone()
    }

    /// The metrics-federation hub the live `/metrics` endpoint renders
    /// from (present whenever live telemetry is), for wiring into
    /// [`crate::fleet::FleetConfig::federation`].
    pub fn federation_hub(&self) -> Option<Arc<rh_obs::FederationHub>> {
        self.federation.clone()
    }

    /// The shared progress tracker (present whenever a recorder is),
    /// for wiring into [`RunConfig::progress`].
    pub fn progress(&self) -> Option<Arc<ProgressTracker>> {
        self.progress.clone()
    }

    /// The bound address of the live telemetry server, if one is up.
    pub fn serve_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(rh_obs::TelemetryServer::local_addr)
    }

    /// Stops the live sidecars (joining every server thread and
    /// writing the rollup's final line), uninstalls the sink, and
    /// writes the requested trace/metrics files. Call once, after the
    /// last target has run (even a failed or interrupted run's partial
    /// trace is worth exporting for diagnosis — this is also what
    /// flushes the rollup on SIGINT/SIGTERM, alongside the campaign
    /// checkpoints).
    ///
    /// # Errors
    ///
    /// I/O errors writing either output file.
    pub fn finish(mut self) -> std::io::Result<()> {
        if let Some(mut server) = self.server.take() {
            server.shutdown();
        }
        if let Some(rollup) = self.rollup.take() {
            rollup.stop();
        }
        let Some(rec) = self.recorder else {
            return Ok(());
        };
        rh_obs::uninstall();
        if let Some(path) = &self.trace_out {
            rec.save_jsonl(path)?;
        }
        if let Some(path) = &self.metrics_out {
            rec.save_metrics(path)?;
        }
        Ok(())
    }
}

/// All runnable target names, in paper order, followed by the
/// extension studies (DDR3 cross-check, TRRespass-style dilution,
/// chipkill, and the fault-model ablations).
pub fn targets() -> Vec<&'static str> {
    vec![
        "table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "observations", "attack1",
        "attack2", "attack3", "defense1", "defense2", "defense3", "defense4", "defense5",
        "defense6", "ddr3", "trrespass", "chipkill", "ablation", "overhead", "patterns",
        "hcsweep", "memctl",
    ]
}

pub(crate) fn module_identity(mfr: Manufacturer, cfg: &RunConfig, index: usize) -> u64 {
    let modules = ddr4_modules_of(mfr);
    modules[index % modules.len()].seed() ^ cfg.seed.rotate_left(17)
}

/// The unarmed bench of module `index` of `mfr` under `cfg`'s seed.
fn module_bench(mfr: Manufacturer, cfg: &RunConfig, index: usize) -> TestBench {
    let modules = ddr4_modules_of(mfr);
    let module = &modules[index % modules.len()];
    TestBench::with_config(module.module_config(), mfr, module_identity(mfr, cfg, index))
}

fn characterizer(mfr: Manufacturer, cfg: &RunConfig, index: usize) -> Result<Characterizer, CharError> {
    Characterizer::new(module_bench(mfr, cfg, index), cfg.scale)
}

/// Builds a fresh, fault-armed characterizer for one campaign attempt.
/// Each retry re-derives the fault stream from the attempt number, so a
/// transient fault does not replay identically on every rebuild. The
/// per-task cancel token is installed *before* the (expensive) build so
/// even module bring-up unwinds promptly on cancellation.
pub(crate) fn characterizer_armed(
    mfr: Manufacturer,
    cfg: &RunConfig,
    index: usize,
    attempt: u32,
    cancel: &CancelToken,
) -> Result<Characterizer, CharError> {
    let mut bench = module_bench(mfr, cfg, index);
    bench.set_cancel_token(cancel.clone());
    if let Some(plan) = &cfg.faults {
        bench.install_faults(&plan.for_attempt(attempt));
    }
    Characterizer::new(bench, cfg.scale)
}

/// The checkpoint-stable identifier of a campaign module.
pub(crate) fn campaign_module_id(mfr: Manufacturer, cfg: &RunConfig, index: usize) -> String {
    format!("{}#{}", module_id(mfr, module_identity(mfr, cfg, index)), index)
}

fn campaign_runner(cfg: &RunConfig, target: &str) -> CampaignRunner {
    let mut executor = match cfg.max_workers {
        Some(n) => ExecutorConfig::with_workers(n),
        None => ExecutorConfig::default(),
    };
    if let Some(ms) = cfg.deadline_ms {
        executor = executor.with_deadline(Duration::from_millis(ms));
    }
    let mut runner = CampaignRunner::new()
        .with_policy(cfg.retry.clone())
        .with_executor(executor)
        .with_cancel(cfg.cancel.clone())
        .with_fail_fast(cfg.fail_fast);
    if let Some(prefix) = &cfg.checkpoint {
        runner = runner
            .with_checkpoint(PathBuf::from(format!("{}-{target}.json", prefix.display())));
    }
    if let Some(progress) = &cfg.progress {
        runner = runner.with_progress(Arc::clone(progress));
    }
    runner
}

/// Renders the resilience footer appended to campaign-backed targets.
fn campaign_text(report: &CampaignReport) -> String {
    use rh_core::ModuleStatus;
    let mut s = format!("campaign: {}\n", report.summary_line());
    for q in report.quarantined_modules() {
        match &q.status {
            ModuleStatus::Quarantined { attempts, error } => {
                s.push_str(&format!(
                    "  quarantined {} after {attempts} attempt(s): {error}\n",
                    q.id
                ));
            }
            ModuleStatus::TimedOut { elapsed_ms, deadline_ms } => {
                s.push_str(&format!(
                    "  timed out {} after {elapsed_ms} ms (deadline {deadline_ms} ms)\n",
                    q.id
                ));
            }
            ModuleStatus::Cancelled { attempts } => {
                s.push_str(&format!(
                    "  cancelled {} ({attempts} attempt(s) started)\n",
                    q.id
                ));
            }
            ModuleStatus::Succeeded | ModuleStatus::Recovered { .. } => {}
        }
    }
    s
}

/// The tail of every campaign-backed target: the resilience footer
/// after `text`, and `results` wrapped together with the report.
fn campaign_output(
    target: &'static str,
    mut text: String,
    results: impl Serialize,
    report: &CampaignReport,
) -> RunOutput {
    text.push_str(&campaign_text(report));
    let data = json!({
        "results": serde_json::to_value(results).unwrap_or(Value::Null),
        "campaign": serde_json::to_value(report).unwrap_or(Value::Null),
    });
    RunOutput { target, text, data, report: Some(report.clone()) }
}

/// One campaign experiment: its name and an `rh_core::experiments`
/// function run on one module, with the result as JSON. [`EXPERIMENTS`]
/// is the only list of them: `repro` targets run them as campaigns, and
/// `repro fleet` ships their names as job kinds, which workers and
/// `repro analyze replay` look up in the same table.
pub type Experiment = (&'static str, fn(&mut Characterizer) -> Result<Value, CharError>);

const TEMP_RANGES: Experiment =
    ("temp_ranges", |ch| Ok(temperature::cell_temp_ranges(ch)?.to_json_value()));
const ROW_VARIATION: Experiment =
    ("row_variation", |ch| Ok(spatial::row_variation(ch)?.to_json_value()));
const BER_VS_TEMPERATURE: Experiment =
    ("ber_vs_temperature", |ch| Ok(temperature::ber_vs_temperature(ch)?.to_json_value()));
const HCFIRST_VS_TEMPERATURE: Experiment =
    ("hcfirst_vs_temperature", |ch| Ok(temperature::hcfirst_vs_temperature(ch)?.to_json_value()));
const ROW_ACTIVE_ANALYSIS: Experiment =
    ("row_active_analysis", |ch| Ok(rowactive::row_active_analysis(ch)?.to_json_value()));
const COLUMN_MAP: Experiment = ("column_map", |ch| Ok(spatial::column_map(ch)?.to_json_value()));
const SUBARRAY_HCFIRST: Experiment =
    ("subarray_hcfirst", |ch| Ok(spatial::subarray_hcfirst(ch)?.to_json_value()));
const DOSE_RESPONSE: Experiment =
    ("dose_response", |ch| Ok(dose::dose_response(ch)?.to_json_value()));

/// Every campaign experiment.
pub const EXPERIMENTS: [Experiment; 8] = [
    TEMP_RANGES,
    ROW_VARIATION,
    BER_VS_TEMPERATURE,
    HCFIRST_VS_TEMPERATURE,
    ROW_ACTIVE_ANALYSIS,
    COLUMN_MAP,
    SUBARRAY_HCFIRST,
    DOSE_RESPONSE,
];

/// The [`EXPERIMENTS`] entry called `name`.
#[must_use]
pub fn experiment(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|(n, _)| *n == name)
}

/// Everything that can change a campaign's result.
#[derive(Debug, PartialEq)]
struct ExperimentKey {
    experiment: &'static str,
    scale: Scale,
    seed: u64,
    /// Modules per manufacturer the campaign actually runs.
    modules_per_mfr: usize,
    faults: Option<FaultPlan>,
    retry: RetryPolicy,
    deadline_ms: Option<u64>,
}

/// One experiment's campaign: `(mfr, module index, result)` in module
/// order, plus the resilience report.
type Campaign = Arc<(Vec<(Manufacturer, usize, Value)>, CampaignReport)>;

/// The in-process experiment registry of a [`RunConfig`] and its
/// clones. It holds only clean campaigns: a quarantined, timed-out or
/// cancelled one is recomputed by the next target that needs it.
#[derive(Clone, Default)]
pub struct ExperimentRegistry(Arc<Mutex<Vec<(ExperimentKey, Campaign)>>>);

impl std::fmt::Debug for ExperimentRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let held = self.0.lock().unwrap_or_else(PoisonError::into_inner).len();
        write!(f, "ExperimentRegistry({held} campaign(s))")
    }
}

/// Runs `experiment` over `modules_per_mfr` modules of every
/// manufacturer as one campaign, or hands back the clean campaign an
/// earlier target of this config already ran. A cancelled config skips
/// the registry, so it reports the cancellation as a fresh one would.
fn run_campaign(
    cfg: &RunConfig,
    target: &str,
    (name, run): &Experiment,
    modules_per_mfr: usize,
) -> Result<Campaign, CharError> {
    let key = ExperimentKey {
        experiment: name,
        scale: cfg.scale,
        seed: cfg.seed,
        modules_per_mfr,
        faults: cfg.faults.clone(),
        retry: cfg.retry.clone(),
        deadline_ms: cfg.deadline_ms,
    };
    let registry = &cfg.experiments.0;
    if !cfg.cancel.is_cancelled() {
        let held = registry.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, hit)) = held.iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(hit));
        }
    }
    let mut meta: Vec<(String, Manufacturer, usize)> = Vec::new();
    let mut tasks: Vec<ModuleTask<'_>> = Vec::new();
    for mfr in Manufacturer::ALL {
        for i in 0..modules_per_mfr {
            let id = campaign_module_id(mfr, cfg, i);
            meta.push((id.clone(), mfr, i));
            tasks.push(ModuleTask::new(id, move |attempt, cancel| {
                characterizer_armed(mfr, cfg, i, attempt, cancel)
            }));
        }
    }
    let out = campaign_runner(cfg, target).run(tasks, run)?;
    let results = out
        .results
        .into_iter()
        .map(|(id, t)| {
            meta.iter()
                .find(|(mid, _, _)| *mid == id)
                .map(|(_, mfr, i)| (*mfr, *i, t))
                .ok_or_else(|| CharError::Checkpoint {
                    detail: format!("campaign returned unknown module id '{id}'"),
                })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let ran = Arc::new((results, out.report));
    if ran.1.is_clean() {
        registry.lock().unwrap_or_else(PoisonError::into_inner).push((key, ran.clone()));
    }
    Ok(ran)
}

/// A campaign's results as the renderer's type.
fn decode<T: Deserialize>(ran: &Campaign) -> Result<Vec<(Manufacturer, usize, T)>, CharError> {
    let err = |e| CharError::Checkpoint { detail: format!("result does not decode: {e}") };
    ran.0.iter().map(|(m, i, v)| Ok((*m, *i, T::from_json_value(v).map_err(err)?))).collect()
}

/// The `data` shape of one-module-per-manufacturer targets.
fn by_mfr<T>(results: &[(Manufacturer, usize, T)]) -> Vec<(String, &T)> {
    results.iter().map(|(m, _, t)| (m.to_string(), t)).collect()
}

fn run_table1() -> RunOutput {
    RunOutput { target: "table1", text: report::table1(), data: json!({}), report: None }
}

fn run_table2() -> RunOutput {
    let data = serde_json::to_value(rh_dram::tested_modules()).unwrap_or(Value::Null);
    RunOutput { target: "table2", text: report::table2(), data, report: None }
}

fn run_temp_ranges(cfg: &RunConfig, target: &'static str) -> Result<RunOutput, CharError> {
    let ran = run_campaign(cfg, target, &TEMP_RANGES, 1)?;
    let results: Vec<(_, _, temperature::TempRangeAnalysis)> = decode(&ran)?;
    let mut text = String::new();
    if target == "table3" {
        let rows: Vec<(&str, &temperature::TempRangeAnalysis)> = results
            .iter()
            .map(|(m, _, a)| (["Mfr. A", "Mfr. B", "Mfr. C", "Mfr. D"][m.index()], a))
            .collect();
        text = report::table3(&rows);
        text.push_str("paper: 99.1% / 98.9% / 98.0% / 99.2%\n");
    } else {
        for (m, _, a) in &results {
            text.push_str(&report::fig3(&m.to_string(), a));
            text.push('\n');
        }
        text.push_str("paper all-temps corner: 14.2% / 17.4% / 9.6% / 29.8%\n");
    }
    Ok(campaign_output(target, text, by_mfr(&results), &ran.1))
}

fn run_fig4(cfg: &RunConfig) -> Result<RunOutput, CharError> {
    let ran = run_campaign(cfg, "fig4", &BER_VS_TEMPERATURE, 1)?;
    let results: Vec<(_, _, temperature::BerVsTemperature)> = decode(&ran)?;
    let mut text = String::new();
    for (m, _, f) in &results {
        text.push_str(&report::fig4(&m.to_string(), f));
        text.push('\n');
    }
    text.push_str(
        "paper trend 50->90C (victim): A up ~+100%, B down ~-20%, C up ~+40%, D up ~+200%\n",
    );
    Ok(campaign_output("fig4", text, by_mfr(&results), &ran.1))
}

fn run_fig5(cfg: &RunConfig) -> Result<RunOutput, CharError> {
    let ran = run_campaign(cfg, "fig5", &HCFIRST_VS_TEMPERATURE, 1)?;
    let results: Vec<(_, _, temperature::HcFirstVsTemperature)> = decode(&ran)?;
    let mut text = String::new();
    for (m, _, f) in &results {
        text.push_str(&report::fig5(&m.to_string(), f));
        text.push('\n');
    }
    text.push_str("paper crossings at 50->90C: A P45, B P67, C P71, D P40; magnitude ratio ~4x\n");
    Ok(campaign_output("fig5", text, by_mfr(&results), &ran.1))
}

fn run_fig6() -> Result<RunOutput, CharError> {
    // The command-timing diagram: record the three §6 test sequences.
    let mut bench = TestBench::new(Manufacturer::D, 1);
    let timing = bench.module().config().timing;
    let mut text = String::from("Fig. 6: command timings of the aggressor active-time tests\n");
    for (name, t_on, t_off) in [
        ("Baseline", timing.t_ras, timing.t_rp),
        ("AggressorOn (+30ns)", timing.t_ras + 30_000, timing.t_rp),
        ("AggressorOff (+8ns)", timing.t_ras, timing.t_rp + 8_000),
    ] {
        bench.controller_mut().set_record_trace(true);
        let p = Program::double_sided_hammer(BankId(0), RowAddr(10), RowAddr(12), 1, t_on, t_off);
        bench.run(&p)?;
        text.push_str(&format!("--- {name} ---\n"));
        text.push_str(&rh_dram::command::render_trace(bench.controller().trace()));
        bench.controller_mut().set_record_trace(false);
    }
    Ok(RunOutput { target: "fig6", text, data: json!({}), report: None })
}

fn run_rowactive(cfg: &RunConfig, target: &'static str) -> Result<RunOutput, CharError> {
    let ran = run_campaign(cfg, target, &ROW_ACTIVE_ANALYSIS, 1)?;
    let results: Vec<(_, _, rowactive::RowActiveAnalysis)> = decode(&ran)?;
    let mut text = String::new();
    for (m, _, a) in &results {
        let label = m.to_string();
        match target {
            "fig7" => text.push_str(&report::fig_ber_sweep("Fig. 7", &label, a, true)),
            "fig8" => text.push_str(&report::fig_hc_sweep("Fig. 8", &label, a, true)),
            "fig9" => text.push_str(&report::fig_ber_sweep("Fig. 9", &label, a, false)),
            _ => text.push_str(&report::fig_hc_sweep("Fig. 10", &label, a, false)),
        }
        text.push('\n');
    }
    match target {
        "fig7" => text.push_str("paper BER gain at 154.5ns: 10.2x / 3.1x / 4.4x / 9.6x\n"),
        "fig8" => text.push_str("paper HCfirst reduction: 40.0% / 28.3% / 32.7% / 37.3%\n"),
        "fig9" => text.push_str("paper BER drop at 40.5ns: 6.3x / 2.9x / 4.9x / 5.0x\n"),
        _ => text.push_str("paper HCfirst increase: 33.8% / 24.7% / 50.1% / 33.7%\n"),
    }
    Ok(campaign_output(target, text, by_mfr(&results), &ran.1))
}

fn run_fig11(cfg: &RunConfig) -> Result<RunOutput, CharError> {
    let ran = run_campaign(cfg, "fig11", &ROW_VARIATION, cfg.modules_per_mfr)?;
    let results: Vec<(_, _, spatial::RowVariation)> = decode(&ran)?;
    let mut text = String::new();
    let mut data = Vec::new();
    let mut last_mfr = None;
    for (mfr, i, rv) in &results {
        if last_mfr.is_some() && last_mfr != Some(*mfr) {
            text.push('\n');
        }
        last_mfr = Some(*mfr);
        text.push_str(&report::fig11(&format!("{mfr} module {i}"), rv));
        data.push((mfr.to_string(), *i, rv));
    }
    text.push('\n');
    text.push_str("paper: P99 >= 1.6x, P95 >= 2.0x, P90 >= 2.2x the most vulnerable row\n");
    Ok(campaign_output("fig11", text, data, &ran.1))
}

fn run_fig12_13(cfg: &RunConfig, target: &'static str) -> Result<RunOutput, CharError> {
    let ran = run_campaign(cfg, target, &COLUMN_MAP, 1)?;
    let results: Vec<(_, _, spatial::ColumnMap)> = decode(&ran)?;
    let mut text = String::new();
    let mut data = Vec::new();
    for (m, _, cm) in &results {
        let label = m.to_string();
        let row = if target == "fig12" {
            text.push_str(&report::fig12(&label, cm));
            serde_json::to_value((label, cm.zero_fraction(), cm.max_count()))
        } else {
            let cv = spatial::column_variation(cm);
            text.push_str(&report::fig13(&label, &cv));
            serde_json::to_value((label, &cv))
        };
        data.push(row.unwrap_or(Value::Null));
        text.push('\n');
    }
    text.push_str(if target == "fig12" {
        "paper zero-flip columns: 27.8% / 0% / 31.1% / 9.96%\n"
    } else {
        "paper CV=0 share: Mfr. B 50.9%, Mfr. C 16.6%; CV=1 share: A 59.8%, C 30.6%, D 29.1%\n"
    });
    Ok(campaign_output(target, text, data, &ran.1))
}

fn run_fig14_15(cfg: &RunConfig, target: &'static str) -> Result<RunOutput, CharError> {
    // The subarray regression and similarity studies need several
    // modules per manufacturer for a stable picture.
    let modules = cfg.modules_per_mfr.max(3);
    let ran = run_campaign(cfg, target, &SUBARRAY_HCFIRST, modules)?;
    let results: Vec<(_, _, Vec<spatial::SubarrayPoint>)> = decode(&ran)?;
    let mut text = String::new();
    let mut data = Vec::new();
    for mfr in Manufacturer::ALL {
        let per_module: Vec<Vec<spatial::SubarrayPoint>> = results
            .iter()
            .filter(|(m, _, _)| *m == mfr)
            .map(|(_, _, p)| p.clone())
            .collect();
        if per_module.is_empty() {
            text.push_str(&format!("{mfr}: every module quarantined, no data\n"));
            text.push('\n');
            continue;
        }
        if target == "fig14" {
            let all: Vec<spatial::SubarrayPoint> =
                per_module.iter().flatten().cloned().collect();
            let fit = spatial::subarray_fit(&all);
            text.push_str(&report::fig14(&mfr.to_string(), &all, fit));
            data.push((mfr.to_string(), serde_json::to_value(&all).unwrap_or(Value::Null)));
        } else {
            let sim = spatial::subarray_similarity(&per_module);
            text.push_str(&report::fig15(&mfr.to_string(), &sim));
            data.push((mfr.to_string(), serde_json::to_value(&sim).unwrap_or(Value::Null)));
        }
        text.push('\n');
    }
    if target == "fig14" {
        text.push_str("paper fits: A y=0.46x R2 0.73, B y=0.41x R2 0.78, C y=0.42x R2 0.93, D y=0.67x R2 0.42\n");
    } else {
        text.push_str("paper: same-module P5 ~0.975 (Mfr. C); cross-module P5 down to 0.66\n");
    }
    Ok(campaign_output(target, text, data, &ran.1))
}

fn run_observations(cfg: &RunConfig) -> Result<RunOutput, CharError> {
    // One Mfr. B module carries most checks (B flips the most at
    // reduced scales). The temperature-trend checks (Obsv. 4, 6) run on
    // a Mfr. D module, the paper's strongest rising-trend manufacturer;
    // manufacturer-specific trends are covered by the per-figure
    // targets.
    let mut ch = characterizer(Manufacturer::B, cfg, 0)?;
    let ranges = temperature::cell_temp_ranges(&mut ch)?;
    let mut ch_d = characterizer(Manufacturer::D, cfg, 0)?;
    let ber_t = temperature::ber_vs_temperature(&mut ch_d)?;
    let hc_t = temperature::hcfirst_vs_temperature(&mut ch_d)?;
    let ra = rowactive::row_active_analysis(&mut ch)?;
    let rv = spatial::row_variation(&mut ch)?;
    let cm = spatial::column_map(&mut ch)?;
    let cv = spatial::column_variation(&cm);
    let sa = spatial::subarray_hcfirst(&mut ch)?;
    let mut ch2 = characterizer(Manufacturer::B, cfg, 1)?;
    let sa2 = spatial::subarray_hcfirst(&mut ch2)?;
    let sim = spatial::subarray_similarity(&[sa.clone(), sa2]);
    let checks = vec![
        obs::obsv1(&ranges),
        obs::obsv2(&ranges),
        obs::obsv3(&ranges),
        obs::obsv4(&ber_t),
        obs::obsv5(&hc_t),
        obs::obsv6(&hc_t),
        obs::obsv7(&hc_t),
        obs::obsv8(&ra),
        obs::obsv9(&ra),
        obs::obsv10(&ra),
        obs::obsv11(&ra),
        obs::obsv12(&rv),
        obs::obsv13(&cm),
        obs::obsv14(&cv),
        obs::obsv15(&sa),
        obs::obsv16(&sim),
    ];
    let text = report::observations(&checks);
    let data = serde_json::to_value(&checks).unwrap_or(Value::Null);
    Ok(RunOutput { target: "observations", text, data, report: None })
}

fn run_attack(cfg: &RunConfig, target: &'static str) -> Result<RunOutput, CharError> {
    let mut ch = characterizer(Manufacturer::B, cfg, 0)?;
    match target {
        "attack1" => {
            let candidates: Vec<u32> = (0..16).map(|i| 700 + 6 * i).collect();
            let s = temperature_aware_study(&mut ch, &candidates, 80.0)?;
            let text = format!(
                "Attack Improvement 1: temperature-aware targeting at {}°C\n\
                 uninformed pick HCfirst: {}\ninformed pick HCfirst: {} (row {})\n\
                 hammer-count reduction: {:.0}% (paper: up to ~50%)\n",
                s.temperature,
                s.uninformed_hc,
                s.informed_hc,
                s.informed_row,
                s.reduction * 100.0
            );
            Ok(RunOutput { target, text, data: serde_json::to_value(s).unwrap_or(Value::Null), report: None })
        }
        "attack2" => {
            let candidates: Vec<u32> = (0..16).map(|i| 1200 + 6 * i).collect();
            let s = trigger::build_trigger(&mut ch, &candidates, 10.0)?;
            let mut text = format!(
                "Attack Improvement 2: temperature trigger\nprofiled cells: {}\n\
                 narrow-range share: {:.1}%\n",
                s.cells_profiled,
                s.narrow_fraction * 100.0
            );
            if let Some(t) = &s.trigger {
                text.push_str(&format!(
                    "trigger cell: row {} byte {} bit {} — fires within {:.0}–{:.0}°C\n",
                    t.row, t.byte, t.bit, t.t_lo, t.t_hi
                ));
            } else {
                text.push_str("no suitable narrow-range cell in this sample\n");
            }
            Ok(RunOutput { target, text, data: serde_json::to_value(s).unwrap_or(Value::Null), report: None })
        }
        _ => {
            ch.set_temperature(50.0)?;
            let victims: Vec<u32> = (0..12).map(|i| 1500 + 6 * i).collect();
            let s = long_open_study(&mut ch, &victims, 15)?;
            let text = format!(
                "Attack Improvement 3: READ-extended aggressor open time\n\
                 reads/activation: {} (effective tAggOn {:.1} ns)\n\
                 BER: {:.1} -> {:.1} ({:.1}x; paper 3.2x-10.2x)\n\
                 HCfirst: {:.0} -> {:.0} (-{:.0}%; paper ~36%)\n\
                 defeats threshold configured at baseline HCfirst: {}\n",
                s.reads_per_activation,
                s.effective_t_on as f64 / 1000.0,
                s.ber_baseline,
                s.ber_extended,
                s.ber_gain(),
                s.hc_baseline,
                s.hc_extended,
                s.hc_reduction() * 100.0,
                s.defeats_baseline_threshold()
            );
            Ok(RunOutput { target, text, data: serde_json::to_value(s).unwrap_or(Value::Null), report: None })
        }
    }
}

fn run_defense(cfg: &RunConfig, target: &'static str) -> Result<RunOutput, CharError> {
    match target {
        "defense1" => {
            let uni = ThresholdConfig::uniform_worst_case();
            let dual = ThresholdConfig::dual_obsv12();
            let text = format!(
                "Defense Improvement 1: per-row-class thresholds (Obsv. 12)\n\
                 Graphene area: {:.2}% -> {:.2}% ({:.0}% reduction; paper 80%)\n\
                 BlockHammer area: {:.2}% -> {:.2}% ({:.0}% reduction; paper 33%)\n\
                 PARA slowdown: {:.0}% -> {:.0}% (paper: 28% halved)\n",
                graphene_area_pct(uni),
                graphene_area_pct(dual),
                cost::area_reduction(graphene_area_pct(uni), graphene_area_pct(dual)) * 100.0,
                blockhammer_area_pct(uni),
                blockhammer_area_pct(dual),
                cost::area_reduction(blockhammer_area_pct(uni), blockhammer_area_pct(dual))
                    * 100.0,
                cost::para_slowdown_pct(1.0),
                cost::para_slowdown_pct(2.0),
            );
            let data = json!({
                "graphene": {"uniform": graphene_area_pct(uni), "dual": graphene_area_pct(dual)},
                "blockhammer": {"uniform": blockhammer_area_pct(uni), "dual": blockhammer_area_pct(dual)},
            });
            Ok(RunOutput { target, text, data, report: None })
        }
        "defense2" => {
            let mut ch = characterizer(Manufacturer::C, cfg, 0)?;
            let fp = profiling::fast_profile(&mut ch, 6, 6)?;
            let text = format!(
                "Defense Improvement 2: subarray-sampled profiling (Obsv. 15/16)\n\
                 profiled {} subarrays; model y = {:.2}x + {:.0} (R2 {:.2})\n\
                 held-out subarray: predicted min {:.0}, measured min {:.0} (error {:.0}%)\n\
                 speedup vs full profile: {:.0}x (paper: >=10x)\n",
                fp.profiled.len(),
                fp.model.slope,
                fp.model.intercept,
                fp.model.r2,
                fp.predicted_min,
                fp.measured_min,
                fp.prediction_error() * 100.0,
                fp.speedup()
            );
            Ok(RunOutput { target, text, data: serde_json::to_value(&fp).unwrap_or(Value::Null), report: None })
        }
        "defense3" => {
            let mut ch = characterizer(Manufacturer::B, cfg, 0)?;
            let rows: Vec<u32> = (0..12).map(|i| 3000 + 6 * i).collect();
            let plan = retire::build_plan(&mut ch, &rows)?;
            let residual = retire::residual_risk(&mut ch, &plan, 70.0, 5.0)?;
            let text = format!(
                "Defense Improvement 3: temperature-aware row retirement (Obsv. 1/3)\n\
                 profiled rows: {} vulnerable: {}\n\
                 retired at 70°C (5°C guard): {} rows ({:.0}% of vulnerable)\n\
                 residual flipping rows after retirement: {}\n",
                rows.len(),
                plan.vulnerable.len(),
                plan.rows_to_retire(70.0, 5.0).len(),
                plan.retired_fraction(70.0, 5.0) * 100.0,
                residual
            );
            Ok(RunOutput { target, text, data: serde_json::to_value(&plan).unwrap_or(Value::Null), report: None })
        }
        "defense4" => {
            let mut ch = characterizer(Manufacturer::A, cfg, 0)?;
            let rows: Vec<u32> = (0..14).map(|i| 5000 + 6 * i).collect();
            let s = cooling::cooling_study(&mut ch, &rows, 90.0, 50.0)?;
            let text = format!(
                "Defense Improvement 4: cooling (Obsv. 4)\n\
                 BER at {:.0}°C: {:.1}; at {:.0}°C: {:.1}\n\
                 reduction from cooling: {:.0}% (paper: ~25% for Mfr. A; our Mfr. A trend is stronger)\n",
                s.hot, s.ber_hot, s.cold, s.ber_cold, s.reduction() * 100.0
            );
            Ok(RunOutput { target, text, data: serde_json::to_value(s).unwrap_or(Value::Null), report: None })
        }
        "defense5" => {
            let mut ch = characterizer(Manufacturer::B, cfg, 0)?;
            let rows: Vec<u32> = (0..12).map(|i| 6000 + 6 * i).collect();
            let s = scheduler::scheduler_study(&mut ch, &rows, 15)?;
            let text = format!(
                "Defense Improvement 5: open-time-limiting scheduler (Obsv. 8)\n\
                 attacker requests tAggOn {:.1} ns via 15 READs/activation\n\
                 BER without cap: {:.1}; with tRAS cap: {:.1} (x{:.1} mitigation)\n",
                s.requested_t_on as f64 / 1000.0,
                s.ber_unlimited,
                s.ber_capped,
                s.mitigation_factor()
            );
            Ok(RunOutput { target, text, data: serde_json::to_value(s).unwrap_or(Value::Null), report: None })
        }
        _ => {
            // defense6: ECC interleaving on measured flip positions.
            let mut ch = characterizer(Manufacturer::B, cfg, 0)?;
            ch.set_temperature(75.0)?;
            let pattern = ch.wcdp();
            let mut flips_bits: Vec<usize> = Vec::new();
            for i in 0..12u32 {
                let v = RowAddr(7000 + 6 * i);
                for (byte, bit) in
                    ch.flipped_cells(v, pattern, rh_core::metrics::BER_HAMMERS)?
                {
                    flips_bits.push(byte as usize * 8 + bit as usize);
                }
            }
            let total = ch.bench().module().row_bytes() * 8;
            let (seq_ok, seq_bad) =
                ecc::corrected_flips(ecc::Interleaving::Sequential, &flips_bits, total);
            let (spr_ok, spr_bad) =
                ecc::corrected_flips(ecc::Interleaving::ColumnSpread, &flips_bits, total);
            let text = format!(
                "Defense Improvement 6: non-uniform ECC (Obsv. 13/14)\n\
                 RowHammer flips observed: {}\n\
                 SEC-DED sequential layout: {} corrected, {} uncorrectable words\n\
                 vulnerability-aware spread: {} corrected, {} uncorrectable words\n",
                flips_bits.len(),
                seq_ok,
                seq_bad,
                spr_ok,
                spr_bad
            );
            let data = json!({
                "flips": flips_bits.len(),
                "sequential": {"corrected": seq_ok, "uncorrectable": seq_bad},
                "spread": {"corrected": spr_ok, "uncorrectable": spr_bad},
            });
            Ok(RunOutput { target, text, data, report: None })
        }
    }
}

/// DDR3 cross-check: the paper verifies Obsv. 2 on its three DDR3
/// SODIMMs; this runner characterizes them and reports the same
/// temperature statistics plus baseline BER/HCfirst.
fn run_ddr3(cfg: &RunConfig) -> Result<RunOutput, CharError> {
    let mut text = String::from("DDR3 SODIMM cross-check (Table 2's three DDR3 modules)\n");
    let mut data = Vec::new();
    for module in rh_dram::tested_modules()
        .into_iter()
        .filter(|m| m.standard == rh_dram::DramStandard::Ddr3)
    {
        let bench = TestBench::for_module(&module);
        let mut ch = Characterizer::new(bench, cfg.scale)?;
        let ranges = temperature::cell_temp_ranges(&mut ch)?;
        ch.set_temperature(75.0)?;
        let mut hc = Vec::new();
        for i in 0..8u32 {
            if let Some(h) = ch.hc_first_default(RowAddr(2000 + 6 * i))? {
                hc.push(h as f64);
            }
        }
        text.push_str(&format!(
            "{}: vulnerable cells {}, all-temps {:.1}% (Obsv. 2 {}), no-gaps {:.1}%, mean HCfirst {:.0}\n",
            module.label,
            ranges.vulnerable_cells,
            ranges.full_range_fraction * 100.0,
            if ranges.full_range_fraction > 0.03 { "holds" } else { "NOT confirmed" },
            ranges.no_gap_fraction * 100.0,
            rh_stats::mean(&hc),
        ));
        data.push((module.label.clone(), ranges));
    }
    text.push_str("paper: Obsv. 2 verified on the three DDR3 SODIMMs (§5.1)\n");
    Ok(RunOutput {
        target: "ddr3",
        text,
        data: serde_json::to_value(data).unwrap_or(Value::Null),
        report: None,
    })
}

/// TRRespass-style many-sided study: mitigation dilution of a small
/// in-DRAM TRR sampler as decoy pairs grow.
fn run_trrespass(_cfg: &RunConfig) -> Result<RunOutput, CharError> {
    let mut text =
        String::from("Many-sided hammering vs a 4-entry TRR sampler (TRRespass mechanics)\n");
    let mut rows = Vec::new();
    for pairs in [1u8, 2, 4, 8, 12] {
        let mut bench = TestBench::new(Manufacturer::B, 99);
        bench.set_temperature(75.0)?;
        let mut sim = DefenseSim::new(bench);
        let mut trr = TargetRowRefresh::new(4, 2);
        let o = sim
            .run_many_sided(&mut trr, RowAddr(5000), pairs, 60_000, None)
            .map_err(CharError::from)?;
        let eff = o.victim_refreshes as f64 / o.refreshes.max(1) as f64 * 100.0;
        text.push_str(&format!(
            "{:>2} pairs: flips {:>3}  refreshes {:>6}  on-victim {:>5.1}%  achieved {:>6}\n",
            pairs, o.victim_flips, o.refreshes, eff, o.achieved_hammers
        ));
        rows.push(o);
    }
    text.push_str(
        "mitigation efficiency collapses with decoy pairs; full bypasses additionally\n\
         exploit sampler determinism not modeled here (DESIGN.md §1)\n",
    );
    Ok(RunOutput {
        target: "trrespass",
        text,
        data: serde_json::to_value(&rows).unwrap_or(Value::Null),
        report: None,
    })
}

/// Chipkill vs SEC-DED on measured RowHammer flips (Improvement 6's
/// chipkill discussion).
fn run_chipkill(cfg: &RunConfig) -> Result<RunOutput, CharError> {
    use rh_defense::ecc::chipkill;
    let mut ch = characterizer(Manufacturer::B, cfg, 0)?;
    ch.set_temperature(75.0)?;
    let pattern = ch.wcdp();
    let mut flips: Vec<(u32, u8)> = Vec::new();
    for i in 0..12u32 {
        flips.extend(ch.flipped_cells(
            RowAddr(7000 + 6 * i),
            pattern,
            2 * rh_core::metrics::BER_HAMMERS,
        )?);
    }
    let ck = chipkill::decode_flips(&flips);
    let bit_positions: Vec<usize> =
        flips.iter().map(|&(b, bit)| b as usize * 8 + bit as usize).collect();
    let total = ch.bench().module().row_bytes() * 8;
    let (sec_ok, sec_bad) =
        ecc::corrected_flips(ecc::Interleaving::Sequential, &bit_positions, total);
    let text = format!(
        "Chipkill vs SEC-DED on {} measured RowHammer flips\n\
         SEC-DED (sequential words): {} corrected, {} uncorrectable words\n\
         chipkill (per-column symbols): {} corrected, {} uncorrectable codewords\n",
        flips.len(),
        sec_ok,
        sec_bad,
        ck.corrected,
        ck.uncorrectable
    );
    let data = json!({
        "flips": flips.len(),
        "secded": {"corrected": sec_ok, "uncorrectable": sec_bad},
        "chipkill": {"corrected": ck.corrected, "uncorrectable": ck.uncorrectable},
    });
    Ok(RunOutput { target: "chipkill", text, data, report: None })
}

/// Fault-model ablations: disable one calibrated mechanism at a time
/// and show which headline result it carries.
fn run_ablation(_cfg: &RunConfig) -> Result<RunOutput, CharError> {
    use rh_faultmodel::{MfrProfile, RowHammerModel};
    let mfr = Manufacturer::B;
    let base_profile = MfrProfile::for_manufacturer(mfr);
    let study = |profile: MfrProfile| -> Result<(f64, f64), CharError> {
        let bench = TestBench::with_fault_model(
            rh_dram::ModuleConfig::ddr4(mfr),
            RowHammerModel::with_profile(profile, 4242),
            4242,
        );
        let mut ch = Characterizer::new(bench, Scale::Smoke)?;
        let a = rowactive::row_active_analysis(&mut ch)?;
        // Fig. 11's percentile factor needs a wider row sample than the
        // smoke plan: measure 48 rows directly.
        ch.set_temperature(75.0)?;
        let mut hc = Vec::new();
        for i in 0..48u32 {
            if let Some(h) = ch.hc_first_default(RowAddr(1000 + 6 * i))? {
                hc.push(h as f64);
            }
        }
        let min = hc.iter().copied().fold(f64::INFINITY, f64::min);
        let p95 = rh_stats::percentile(&hc, 5.0).map_or(0.0, |p| p / min);
        Ok((a.ber_gain_on(), p95))
    };
    let (gain_base, p95_base) = study(base_profile)?;
    let (gain_no_on, _) = study(MfrProfile { on_slope: 0.0, ..base_profile })?;
    let (_, p95_no_weak) = study(MfrProfile { weak_row_fraction: 0.0, ..base_profile })?;
    let text = format!(
        "Fault-model ablations (Mfr. B module)\n\
         tAggOn BER gain:   calibrated {gain_base:.1}x  |  on_slope=0 -> {gain_no_on:.1}x\n\
         (the g_on damage factor carries the entire Fig. 7/8 effect)\n\
         Fig. 11 P95 factor: calibrated {p95_base:.1}x  |  weak_row_fraction=0 -> {p95_no_weak:.1}x\n\
         (the weak-row tail carries Obsv. 12's vulnerable minority)\n"
    );
    let data = json!({
        "ber_gain_on": {"calibrated": gain_base, "no_on_slope": gain_no_on},
        "p95_factor": {"calibrated": p95_base, "no_weak_rows": p95_no_weak},
    });
    Ok(RunOutput { target: "ablation", text, data, report: None })
}

/// Memory-controller study: row-buffer policies (including the
/// Improvement-5 open-time cap) and MC-side defense hooks on a benign
/// request stream.
fn run_memctl() -> Result<RunOutput, CharError> {
    use rh_softmc::{MemController, MemRequest, RowPolicy};
    let stream = |n: u64| -> Vec<MemRequest> {
        // 70%-locality stream over 8 banks, xorshift-deterministic.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut unit = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut rows = [1000u32; 8];
        (0..n)
            .map(|i| {
                let bank = (i % 8) as u32;
                if unit() > 0.7 {
                    rows[bank as usize] = 1000 + (unit() * 2048.0) as u32;
                }
                MemRequest {
                    id: i,
                    bank: BankId(bank),
                    row: RowAddr(rows[bank as usize]),
                    column: (i % 64) as u32,
                    is_write: i % 4 == 0,
                    arrival: i * 4_000,
                }
            })
            .collect()
    };
    let run = |policy: RowPolicy,
               hook: Option<rh_softmc::ActivationHook>|
     -> Result<rh_softmc::MemStats, CharError> {
        let module = rh_dram::DramModule::new(rh_dram::ModuleConfig::ddr4(Manufacturer::D));
        let mut mc = MemController::new(module, policy);
        if let Some(h) = hook {
            mc.set_hook(h);
        }
        for r in stream(200_000) {
            mc.submit(r)?;
        }
        Ok(mc.drain())
    };
    let mut text = String::from(
        "Memory-controller study: 200K requests, 70% locality, 8 banks\n",
    );
    let mut data = Vec::new();
    let mut row = |name: &str, s: rh_softmc::MemStats| {
        text.push_str(&format!(
            "{:<26} mean latency {:>7.1} ns  hit rate {:>5.1}%  refreshes {:>6}\n",
            name,
            s.mean_latency() / 1000.0,
            s.hit_rate() * 100.0,
            s.hook_refreshes
        ));
        data.push((name.to_string(), s));
    };
    row("open page", run(RowPolicy::OpenPage, None)?);
    row("closed page", run(RowPolicy::ClosedPage, None)?);
    row(
        "capped open (3x tRAS)",
        run(RowPolicy::CappedOpen { cap: 3 * 34_500 }, None)?,
    );
    row(
        "open + PARA hook",
        run(RowPolicy::OpenPage, Some(rh_defense::traits::as_hook(Para::new(0.002, 7))))?,
    );
    row(
        "open + Graphene hook",
        run(
            RowPolicy::OpenPage,
            Some(rh_defense::traits::as_hook(Graphene::new(32_000, 1_300_000))),
        )?,
    );
    text.push_str(
        "the Improvement-5 cap costs little on benign traffic while denying\n\
         attackers extended aggressor-open time\n",
    );
    Ok(RunOutput {
        target: "memctl",
        text,
        data: serde_json::to_value(&data).unwrap_or(Value::Null),
        report: None,
    })
}

/// BER-vs-hammer-count dose response (the basis of the paper's 150 K
/// choice, §4.2 footnote 3).
fn run_hcsweep(cfg: &RunConfig) -> Result<RunOutput, CharError> {
    let ran = run_campaign(cfg, "hcsweep", &DOSE_RESPONSE, 1)?;
    let results: Vec<(_, _, dose::DoseResponse)> = decode(&ran)?;
    let mut text = String::from("BER vs hammer count (75C, WCDP)\n");
    for (m, _, d) in &results {
        text.push_str(&format!("{m}:\n"));
        for p in &d.points {
            text.push_str(&format!(
                "  {:>7} hammers: mean BER {:>7.1}  flipping rows {:>5.1}%\n",
                p.hammers,
                p.mean_ber,
                p.flipping_rows * 100.0
            ));
        }
    }
    text.push_str("paper: 150K chosen as attack-realistic and sufficient on every module\n");
    Ok(campaign_output("hcsweep", text, by_mfr(&results), &ran.1))
}

/// Benign-workload overhead of the defense roster (the performance
/// dimension of §8.2 Improvement 1).
fn run_overhead() -> RunOutput {
    use rh_defense::overhead::slowdown;
    let timing = rh_dram::TimingParams::ddr4_2400();
    let accesses = 400_000;
    let mut text = String::from(
        "Benign-workload overhead (50% row-buffer locality, 400K accesses)\n",
    );
    let mut data = Vec::new();
    let mut row = |name: &str, d: &mut dyn rh_defense::Defense| {
        let (report, s) = slowdown(d, 0.5, accesses, &timing);
        text.push_str(&format!(
            "{:<22} slowdown {:>6.2}%  refreshes {:>6}  throttle {:>6.2} ms\n",
            name,
            s * 100.0,
            report.refreshes,
            report.throttle_delay as f64 / 1e9
        ));
        data.push((name.to_string(), s, report));
    };
    row("PARA (worst-case T)", &mut Para::for_threshold(1_000, 40, 7));
    row("PARA (2x T, Obsv.12)", &mut Para::for_threshold(2_000, 40, 7));
    row("Graphene@8K", &mut Graphene::new(8_000, 1_300_000));
    row("BlockHammer@4K", &mut BlockHammer::new(4_000, 64_000_000_000, 5));
    row("TWiCe@8K", &mut Twice::new(8_000, 64_000_000_000));
    text.push_str(
        "paper: PARA at worst-case HCfirst costs 28% slowdown, halved at 2x threshold\n",
    );
    RunOutput {
        target: "overhead",
        text,
        data: serde_json::to_value(&data).unwrap_or(Value::Null),
        report: None,
    }
}

/// Per-manufacturer worst-case data pattern scores (the purpose behind
/// Table 1).
fn run_patterns(cfg: &RunConfig) -> Result<RunOutput, CharError> {
    let mut text = String::from("Data-pattern scores (victim-row flips at 150K hammers)\n");
    let mut data = Vec::new();
    for mfr in Manufacturer::ALL {
        let mut ch = characterizer(mfr, cfg, 0)?;
        ch.set_temperature(75.0)?;
        let mapping = ch.mapping();
        let scores = rh_core::wcdp::score_patterns(
            ch.bench_mut(),
            &mapping,
            BankId(0),
            cfg.scale,
        )?;
        let best = scores.iter().max_by_key(|s| s.flips).ok_or_else(|| {
            CharError::Infra(rh_softmc::SoftMcError::InvalidProgram {
                reason: "pattern scoring produced no candidates".into(),
            })
        })?;
        text.push_str(&format!("{mfr}: WCDP = {}\n", best.kind.name()));
        for s in &scores {
            text.push_str(&format!("   {:<12} {:>6}\n", s.kind.name(), s.flips));
        }
        data.push((mfr.to_string(), scores));
    }
    Ok(RunOutput {
        target: "patterns",
        text,
        data: serde_json::to_value(&data).unwrap_or(Value::Null),
        report: None,
    })
}

/// Evaluates the classic defense roster against a double-sided attack
/// (a bonus target exercised by the benches and examples).
pub fn run_defense_matrix(_cfg: &RunConfig) -> Result<RunOutput, CharError> {
    let hammers = 150_000;
    let mut text = String::from("Defense matrix: double-sided attack, 150K hammers\n");
    let mut rows = Vec::new();
    // Fixed module identity: the baseline row must flip undefended for
    // the comparison to be meaningful.
    let mk_bench = || -> Result<TestBench, CharError> {
        let mut b = TestBench::new(Manufacturer::B, 99);
        b.set_temperature(75.0)?;
        Ok(b)
    };
    let defenses: Vec<Box<dyn rh_defense::Defense>> = vec![
        Box::new(rh_defense::traits::NoDefense),
        Box::new(Para::new(0.002, 7)),
        Box::new(Graphene::new(8_000, 1_300_000)),
        Box::new(BlockHammer::new(4_000, 64_000_000_000, 5)),
        Box::new(TargetRowRefresh::new(4, 2)),
        Box::new(Twice::new(8_000, 64_000_000_000)),
    ];
    for mut d in defenses {
        let mut sim = DefenseSim::new(mk_bench()?);
        let o = sim
            .run_many_sided(d.as_mut(), RowAddr(5000), 1, hammers, None)
            .map_err(CharError::from)?;
        text.push_str(&format!(
            "{:<12} flips {:>5}  refreshes {:>6}  throttle {:>8.2} ms  achieved {:>7}\n",
            o.defense,
            o.victim_flips,
            o.refreshes,
            o.throttle_delay as f64 / 1e9,
            o.achieved_hammers
        ));
        rows.push(o);
    }
    Ok(RunOutput {
        target: "defense-matrix",
        text,
        data: serde_json::to_value(&rows).unwrap_or(Value::Null),
        report: None,
    })
}

/// Runs one named target.
///
/// # Errors
///
/// Unknown targets are rejected; experiment errors propagate.
pub fn run_target(target: &str, cfg: &RunConfig) -> Result<RunOutput, CharError> {
    let mut span = rh_obs::span(names::BENCH_TARGET);
    span.set("target", target);
    match target {
        "table1" => Ok(run_table1()),
        "table2" => Ok(run_table2()),
        "table3" => run_temp_ranges(cfg, "table3"),
        "fig3" => run_temp_ranges(cfg, "fig3"),
        "fig4" => run_fig4(cfg),
        "fig5" => run_fig5(cfg),
        "fig6" => run_fig6(),
        "fig7" => run_rowactive(cfg, "fig7"),
        "fig8" => run_rowactive(cfg, "fig8"),
        "fig9" => run_rowactive(cfg, "fig9"),
        "fig10" => run_rowactive(cfg, "fig10"),
        "fig11" => run_fig11(cfg),
        "fig12" => run_fig12_13(cfg, "fig12"),
        "fig13" => run_fig12_13(cfg, "fig13"),
        "fig14" => run_fig14_15(cfg, "fig14"),
        "fig15" => run_fig14_15(cfg, "fig15"),
        "observations" => run_observations(cfg),
        "attack1" => run_attack(cfg, "attack1"),
        "attack2" => run_attack(cfg, "attack2"),
        "attack3" => run_attack(cfg, "attack3"),
        "defense1" => run_defense(cfg, "defense1"),
        "defense2" => run_defense(cfg, "defense2"),
        "defense3" => run_defense(cfg, "defense3"),
        "defense4" => run_defense(cfg, "defense4"),
        "defense5" => run_defense(cfg, "defense5"),
        "defense6" => run_defense(cfg, "defense6"),
        "ddr3" => run_ddr3(cfg),
        "overhead" => Ok(run_overhead()),
        "hcsweep" => run_hcsweep(cfg),
        "memctl" => run_memctl(),
        "patterns" => run_patterns(cfg),
        "trrespass" => run_trrespass(cfg),
        "chipkill" => run_chipkill(cfg),
        "ablation" => run_ablation(cfg),
        "defense-matrix" => run_defense_matrix(cfg),
        other => Err(CharError::InvalidInput { detail: format!("unknown repro target '{other}'") }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> RunConfig {
        RunConfig { scale: Scale::Smoke, seed: 5, modules_per_mfr: 2, ..RunConfig::default() }
    }

    #[test]
    fn static_targets_render() {
        assert!(run_target("table1", &smoke()).unwrap().text.contains("colstripe"));
        assert!(run_target("table2", &smoke()).unwrap().text.contains("DDR4"));
        assert!(run_target("fig6", &smoke()).unwrap().text.contains("ACT(b0,r10)"));
    }

    #[test]
    fn unknown_target_rejected() {
        assert!(run_target("fig99", &smoke()).is_err());
    }

    #[test]
    fn rowactive_target_reports_gains() {
        let out = run_target("fig7", &smoke()).unwrap();
        assert!(out.text.contains("BER gain"));
        assert!(out.text.contains("Mfr. D"));
    }

    /// Targets that render one experiment, in `repro all` order.
    const SHARING_GROUPS: [&[&str]; 4] = [
        &["table3", "fig3"],
        &["fig7", "fig8", "fig9", "fig10"],
        &["fig12", "fig13"],
        &["fig14", "fig15"],
    ];

    fn held_campaigns(cfg: &RunConfig) -> usize {
        cfg.experiments.0.lock().unwrap().len()
    }

    #[test]
    fn shared_experiments_render_like_fresh_runs() {
        for group in SHARING_GROUPS {
            let shared = smoke();
            for &target in group {
                let reused = run_target(target, &shared).unwrap();
                let fresh = run_target(target, &smoke()).unwrap();
                assert_eq!(reused.text, fresh.text, "{target} text");
                assert_eq!(reused.data, fresh.data, "{target} data");
            }
            assert_eq!(held_campaigns(&shared), 1, "{group:?} ran its campaign once");
        }
    }

    /// Cross-transport oracle: every experiment commits, per module
    /// id, the same JSON through the fleet's job path as through the
    /// campaign the registry holds.
    #[test]
    fn fleet_jobs_commit_what_campaigns_hold() {
        let cfg = RunConfig { modules_per_mfr: 1, ..smoke() };
        for experiment @ (name, _) in &EXPERIMENTS {
            let ran = run_campaign(&cfg, "oracle", experiment, 1).unwrap();
            let fleet = crate::run_fleet_local(&crate::FleetConfig {
                seed: cfg.seed,
                scale: cfg.scale,
                modules_per_mfr: 1,
                workload: name.to_string(),
                ..crate::FleetConfig::default()
            })
            .unwrap();
            let held: Vec<(String, &Value)> =
                ran.0.iter().map(|(m, i, v)| (campaign_module_id(*m, &cfg, *i), v)).collect();
            let committed: Vec<(String, &Value)> =
                fleet.results.iter().map(|(id, v)| (id.clone(), v)).collect();
            assert_eq!(held.len(), 4, "{name}");
            assert_eq!(held, committed, "{name}");
        }
    }

    #[test]
    fn registry_key_separates_seeds_and_fault_plans() {
        let fig7 = |cfg: &RunConfig| {
            let out = run_target("fig7", cfg).unwrap();
            (out.text, out.data)
        };
        let shared = smoke();
        assert_eq!(fig7(&shared), fig7(&smoke()));
        let seed6 = RunConfig { seed: 6, ..shared.clone() };
        assert_eq!(fig7(&seed6), fig7(&RunConfig { seed: 6, ..smoke() }));
        assert_eq!(held_campaigns(&shared), 2, "seeds 5 and 6 are separate campaigns");

        let clean = RunConfig { faults: None, ..faulty_cfg() };
        let faulty = RunConfig { experiments: clean.experiments.clone(), ..faulty_cfg() };
        let clean_out = fig7(&clean);
        let faulty_out = fig7(&faulty);
        assert_ne!(clean_out, faulty_out, "the plan must perturb fig7");
        assert_eq!(faulty_out, fig7(&faulty_cfg()));
    }

    #[test]
    fn only_clean_campaigns_are_reused() {
        let cfg = smoke();
        let cancelled = RunConfig { cancel: CancelToken::new(), ..cfg.clone() };
        cancelled.cancel.cancel();
        let report = run_target("fig7", &cancelled).unwrap().report.unwrap();
        assert_eq!(report.cancelled, 4);
        assert_eq!(held_campaigns(&cfg), 0, "a cancelled campaign is not stored");
        let resumed = run_target("fig7", &cfg).unwrap();
        assert!(resumed.report.unwrap().is_clean());
        assert_eq!(resumed.data, run_target("fig7", &smoke()).unwrap().data);
        // A cancelled config skips the registry and reports cancellation.
        let report = run_target("fig8", &cancelled).unwrap().report.unwrap();
        assert_eq!(report.cancelled, 4);
    }

    #[test]
    fn registry_hits_admit_no_progress_work() {
        let tracker = Arc::new(ProgressTracker::new());
        let cfg = RunConfig { progress: Some(Arc::clone(&tracker)), ..smoke() };
        run_target("fig7", &cfg).unwrap();
        run_target("fig8", &cfg).unwrap();
        let progress = tracker.snapshot();
        assert_eq!(progress.total, 4, "fig8 reused fig7's campaign");
        assert_eq!(progress.completed(), 4);
    }

    #[test]
    fn attack2_is_deterministic_across_runs_and_widths() {
        let attack2 = |workers| {
            let cfg = RunConfig {
                scale: Scale::Smoke,
                max_workers: Some(workers),
                ..RunConfig::default()
            };
            run_target("attack2", &cfg).unwrap()
        };
        let first = attack2(1);
        let trigger = first.data.field("trigger");
        assert!(trigger.field("row").as_u64().is_some(), "a trigger cell is chosen: {trigger:?}");
        for again in [attack2(1), attack2(2)] {
            assert_eq!(first.data, again.data);
            assert_eq!(first.text, again.text);
        }
    }

    #[test]
    fn defense1_matches_paper_numbers() {
        let out = run_target("defense1", &smoke()).unwrap();
        assert!(out.text.contains("80"));
        assert!(out.text.contains("33"));
    }

    /// A plan tuned (seed 11, 1% link loss) so the four fig4 modules
    /// split into succeeded / recovered / quarantined on cfg seed 0.
    fn mixed_plan() -> FaultPlan {
        FaultPlan { host_link_fail_prob: 0.01, host_link_burst: 1, ..FaultPlan::none(11) }
    }

    fn faulty_cfg() -> RunConfig {
        RunConfig {
            scale: Scale::Smoke,
            modules_per_mfr: 1,
            faults: Some(mixed_plan()),
            ..RunConfig::default()
        }
    }

    #[test]
    fn fault_campaign_completes_with_partial_results() {
        let out = run_target("fig4", &faulty_cfg()).unwrap();
        let campaign = out.data.field("campaign");
        let quarantined = campaign.field("quarantined").as_u64().unwrap();
        let succeeded = campaign.field("succeeded").as_u64().unwrap();
        let recovered = campaign.field("recovered").as_u64().unwrap();
        assert!(quarantined >= 1, "plan should quarantine at least one module");
        assert!(succeeded + recovered >= 2, "plan should leave healthy modules");
        assert_eq!(succeeded + recovered + quarantined, 4);
        assert!(out.text.contains("quarantined"), "report footer lists quarantined modules");
    }

    #[test]
    fn healthy_modules_match_fault_free_run_bit_for_bit() {
        let clean_cfg =
            RunConfig { scale: Scale::Smoke, modules_per_mfr: 1, ..RunConfig::default() };
        let clean = run_target("fig4", &clean_cfg).unwrap();
        let faulty = run_target("fig4", &faulty_cfg()).unwrap();
        let faulty_results = match faulty.data.field("results") {
            Value::Array(items) => items.clone(),
            other => panic!("results not an array: {other:?}"),
        };
        assert!(!faulty_results.is_empty(), "partial results survived");
        for entry in &faulty_results {
            let mfr = entry.index(0).as_str().unwrap();
            let clean_entry = match clean.data.field("results") {
                Value::Array(items) => items
                    .iter()
                    .find(|e| e.index(0).as_str() == Some(mfr))
                    .unwrap_or_else(|| panic!("{mfr} missing from clean run")),
                other => panic!("results not an array: {other:?}"),
            };
            assert_eq!(entry, clean_entry, "{mfr}: fault injection perturbed a healthy module");
        }
    }

    #[test]
    fn fault_campaign_is_deterministic() {
        let a = run_target("fig4", &faulty_cfg()).unwrap();
        let b = run_target("fig4", &faulty_cfg()).unwrap();
        assert_eq!(a.text, b.text);
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn checkpoint_resume_reproduces_the_run() {
        let prefix = std::env::temp_dir()
            .join(format!("rh-bench-ckpt-{}-resume", std::process::id()));
        let ckpt_file = PathBuf::from(format!("{}-fig4.json", prefix.display()));
        let _ = std::fs::remove_file(&ckpt_file);
        let cfg = RunConfig { checkpoint: Some(prefix.clone()), ..faulty_cfg() };
        let first = run_target("fig4", &cfg).unwrap();
        assert!(ckpt_file.exists(), "campaign wrote its checkpoint");
        // Resume with a plan that kills every module instantly: only
        // checkpointed results can explain an identical report.
        let poisoned = RunConfig {
            faults: Some(FaultPlan::dead_module(11, 0)),
            ..cfg
        };
        let second = run_target("fig4", &poisoned).unwrap();
        assert_eq!(first.text, second.text);
        assert_eq!(first.data, second.data);
        let _ = std::fs::remove_file(&ckpt_file);
    }
}
