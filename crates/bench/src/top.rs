//! `repro top` — a self-refreshing terminal view of a running
//! campaign, driven entirely by the live telemetry endpoints
//! (`/progress` and `/metrics`) of a `repro run --serve-metrics`
//! process. Being HTTP-only, it attaches to any run on the machine (or
//! across machines) without sharing memory, and detaches cleanly: the
//! monitored run never knows whether anyone is watching.
//!
//! The module is split monitor-style: pure parsers for the two
//! payloads ([`parse_progress`], [`metric_value`]) and a pure frame
//! renderer ([`render_frame`]) — all testable without sockets — plus
//! the polling loop ([`top_main`]) that owns the terminal and fetches
//! with the deadline-bounded [`rh_obs::http_get`] client.

use rh_obs::names;
use serde_json::Value;
use std::io::Write;
use std::time::Duration;

/// Parses the `/progress` JSON into a field map. Unknown fields are
/// ignored so the monitor tolerates newer servers.
///
/// # Errors
///
/// Malformed JSON, as text.
pub fn parse_progress(body: &str) -> Result<Value, String> {
    serde_json::from_str(body).map_err(|e| format!("bad /progress JSON: {e}"))
}

/// Extracts one un-labeled sample from a Prometheus text exposition:
/// the value of the first `name value` line (exact name match, labels
/// absent). Returns `None` when the series is missing.
#[must_use]
pub fn metric_value(metrics: &str, name: &str) -> Option<f64> {
    metrics.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

/// Extracts one `worker="..."`-labeled sample from a (federated)
/// Prometheus exposition: the value of the first `name{...} value`
/// line whose label set contains exactly `worker="<worker>"` as one
/// of its comma-separated pairs. `None` when absent.
#[must_use]
pub fn metric_value_labeled(metrics: &str, name: &str, worker: &str) -> Option<f64> {
    let needle = format!("worker=\"{worker}\"");
    metrics.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix('{')?;
        let (labels, value) = rest.split_once("} ")?;
        if labels.split(',').any(|kv| kv == needle) {
            value.trim().parse().ok()
        } else {
            None
        }
    })
}

/// Clamps every line of a frame to at most `width` display characters,
/// eliding overflow with `…`, so narrow terminals never wrap a frame
/// line (wrapped lines break the home-and-redraw animation). A zero
/// width disables clamping.
#[must_use]
pub fn clamp_width(frame: &str, width: usize) -> String {
    if width == 0 {
        return frame.to_string();
    }
    let mut out = String::with_capacity(frame.len());
    for line in frame.split_inclusive('\n') {
        let (body, newline) = match line.strip_suffix('\n') {
            Some(body) => (body, true),
            None => (line, false),
        };
        if body.chars().count() <= width {
            out.push_str(body);
        } else {
            out.extend(body.chars().take(width.saturating_sub(1)));
            out.push('…');
        }
        if newline {
            out.push('\n');
        }
    }
    out
}

/// The terminal's current column count: `TIOCGWINSZ` on the
/// controlling terminal, else the `COLUMNS` environment variable,
/// else `None` (no clamping — e.g. output piped to a file).
fn terminal_width() -> Option<usize> {
    #[cfg(unix)]
    {
        #[repr(C)]
        struct Winsize {
            row: u16,
            col: u16,
            xpixel: u16,
            ypixel: u16,
        }
        extern "C" {
            fn ioctl(fd: i32, request: u64, argp: *mut Winsize) -> i32;
        }
        const TIOCGWINSZ: u64 = 0x5413;
        let mut ws = Winsize { row: 0, col: 0, xpixel: 0, ypixel: 0 };
        // SAFETY: TIOCGWINSZ only writes the four u16 fields of the
        // passed struct; stdout (fd 1) may legitimately not be a tty,
        // in which case the call fails and we fall through.
        let ok = unsafe { ioctl(1, TIOCGWINSZ, &raw mut ws) } == 0;
        if ok && ws.col > 0 {
            return Some(ws.col as usize);
        }
    }
    std::env::var("COLUMNS").ok().and_then(|v| v.parse().ok()).filter(|&c| c > 0)
}

/// Counter rates between two polls, for the flips/s and cmd/s columns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rates {
    /// `dram.flip` per second.
    pub flips_per_s: f64,
    /// `softmc.cmd` per second.
    pub cmds_per_s: f64,
}

/// Derives per-second rates from two metric snapshots `dt` apart.
/// Counter resets (a restarted run) clamp to zero instead of going
/// negative.
#[must_use]
pub fn rates_between(prev: &str, curr: &str, dt: Duration) -> Rates {
    let secs = dt.as_secs_f64();
    if secs <= 0.0 {
        return Rates::default();
    }
    let rate = |name: &str| -> f64 {
        let a = metric_value(prev, &prom_name(name)).unwrap_or(0.0);
        let b = metric_value(curr, &prom_name(name)).unwrap_or(0.0);
        ((b - a) / secs).max(0.0)
    };
    Rates { flips_per_s: rate(names::DRAM_FLIP), cmds_per_s: rate(names::SOFTMC_CMD) }
}

/// The Prometheus-sanitized form of a registry name (`.` -> `_`).
fn prom_name(name: &str) -> String {
    rh_obs::export::sanitize_metric_name(name)
}

fn field_u64(progress: &Value, key: &str) -> u64 {
    progress.field(key).as_u64().unwrap_or(0)
}

/// `eta_ms` is the one nullable field: `None` until the first module
/// completes.
fn field_eta(progress: &Value) -> Option<u64> {
    progress.field("eta_ms").as_u64()
}

fn fmt_duration_ms(ms: u64) -> String {
    let secs = ms / 1000;
    if secs >= 3600 {
        format!("{}h{:02}m", secs / 3600, (secs % 3600) / 60)
    } else if secs >= 60 {
        format!("{}m{:02}s", secs / 60, secs % 60)
    } else {
        format!("{}.{}s", secs, (ms % 1000) / 100)
    }
}

/// Renders one monitor frame from a parsed `/progress` object, the raw
/// `/metrics` text, and the rates derived from the previous poll. Pure
/// — the loop owns the screen, tests own the string.
#[must_use]
pub fn render_frame(progress: &Value, metrics: &str, rates: Rates) -> String {
    let total = field_u64(progress, "total");
    let completed = field_u64(progress, "completed");
    let running = field_u64(progress, "running");
    let pending = field_u64(progress, "pending");
    let elapsed = field_u64(progress, "elapsed_ms");
    let done = progress.field("done").as_bool() == Some(true);

    let mut out = String::new();
    out.push_str("repro top — live campaign monitor\n\n");

    // Progress bar over terminal-friendly 40 cells.
    let frac = if total > 0 { completed as f64 / total as f64 } else { 0.0 };
    let filled = (frac * 40.0).round() as usize;
    out.push_str(&format!(
        "  modules  [{}{}] {completed}/{total}{}\n",
        "#".repeat(filled.min(40)),
        "-".repeat(40usize.saturating_sub(filled)),
        if done { "  DONE" } else { "" },
    ));
    out.push_str(&format!(
        "  slots    {running} running / {pending} pending / {completed} done\n"
    ));
    out.push_str(&format!(
        "  outcome  {} ok / {} recovered / {} quarantined / {} timed out / {} cancelled\n",
        field_u64(progress, "succeeded"),
        field_u64(progress, "recovered"),
        field_u64(progress, "quarantined"),
        field_u64(progress, "timed_out"),
        field_u64(progress, "cancelled"),
    ));
    out.push_str(&format!(
        "  elapsed  {}   eta {}\n",
        fmt_duration_ms(elapsed),
        field_eta(progress).map_or_else(|| "--".to_string(), fmt_duration_ms),
    ));

    let gauge = |name: &str| metric_value(metrics, &prom_name(name));
    out.push_str(&format!(
        "\n  throughput  {:>10.0} flips/s  {:>10.0} cmds/s\n",
        rates.flips_per_s, rates.cmds_per_s
    ));
    if let Some(depth) = gauge(names::EXECUTOR_QUEUE_DEPTH) {
        out.push_str(&format!("  queue depth {:>10.0}\n", depth));
    }
    let counter = |name: &str| gauge(name).unwrap_or(0.0);
    out.push_str(&format!(
        "  resilience  {:>10.0} retries  {:>5.0} quarantine events  {:>5.0} http reqs\n",
        counter(names::CAMPAIGN_RETRIES),
        counter(names::CAMPAIGN_QUARANTINE_EVENT),
        counter(names::OBS_HTTP_REQUESTS),
    ));
    // Fleet chaos health: only rendered when a coordinator exports
    // breaker telemetry (the gauge exists once a fleet loop ran).
    if let Some(open) = gauge(names::FLEET_BREAKER_OPEN) {
        out.push_str(&format!(
            "  breakers    {:>10.0} not closed  {:>5.0} trips  {:>5.0} evicted  {:>5.0} shed\n",
            open,
            counter(names::FLEET_BREAKER_TRIP),
            counter(names::FLEET_BREAKER_EVICTED),
            counter(names::WORKER_ADMISSION_SHED),
        ));
    }
    if gauge(names::FLEET_DEGRADED).unwrap_or(0.0) > 0.0 {
        out.push_str("  DEGRADED    fleet lost workers with modules uncommitted\n");
    }
    if counter(names::OBS_DROPPED_RECORDS) > 0.0 {
        out.push_str(&format!(
            "  WARNING     {:.0} trace records dropped (memory cap or write error)\n",
            counter(names::OBS_DROPPED_RECORDS)
        ));
    }
    // Worker slot detail: a fleet worker's /progress carries a
    // "slots" array — what each slot is executing right now, with its
    // lease and live trace id ("0" = untraced).
    if let Value::Array(slots) = progress.field("slots") {
        if !slots.is_empty() {
            out.push_str("\n  worker slots:\n");
            for slot in slots {
                out.push_str(&format!(
                    "    lease={:<12} {:<10} {:<28} trace={}\n",
                    slot.field("lease_id").as_u64().unwrap_or(0),
                    slot.field("state").as_str().unwrap_or("?"),
                    slot.field("module").as_str().unwrap_or("-"),
                    slot.field("trace_id").as_str().unwrap_or("0"),
                ));
            }
        }
    }
    out
}

/// Renders the `--fleet` monitor frame: journal health from the
/// coordinator's own (unlabeled) series, then one row per worker
/// stream cursor from `/progress`, with per-worker event and flip
/// rates derived from `worker="..."`-labeled federated counters. Pure,
/// like [`render_frame`].
#[must_use]
pub fn render_fleet_frame(
    progress: &Value,
    metrics: &str,
    prev_metrics: Option<&str>,
    dt: Duration,
) -> String {
    let mut out = String::new();
    out.push_str("repro top — live fleet monitor\n\n");

    let counter = |name: &str| metric_value(metrics, &prom_name(name)).unwrap_or(0.0);
    out.push_str(&format!(
        "  journal   {:>8.0} events  {:>5.0} duplicates  lag {:>4.0}\n",
        counter(names::FLEET_JOURNAL_EVENTS),
        counter(names::FLEET_JOURNAL_DUPLICATES),
        counter(names::FLEET_JOURNAL_LAG),
    ));
    out.push_str(&format!(
        "  breakers  {:>8.0} not closed  {:>5.0} trips  {:>6.0} evicted\n",
        counter(names::FLEET_BREAKER_OPEN),
        counter(names::FLEET_BREAKER_TRIP),
        counter(names::FLEET_BREAKER_EVICTED),
    ));
    out.push_str(&format!(
        "  scrapes   {:>8.0} metrics  {:>5.0} errors\n",
        counter(names::FLEET_FEDERATION_SCRAPES),
        counter(names::FLEET_FEDERATION_ERRORS),
    ));

    let secs = dt.as_secs_f64().max(1e-9);
    if let Value::Array(streams) = progress.field("streams") {
        if !streams.is_empty() {
            out.push_str("\n  workers:\n");
            for s in streams {
                let worker = s.field("worker").as_str().unwrap_or("?");
                let last = s.field("last_seq").as_u64().unwrap_or(0);
                let acked = s.field("acked_seq").as_u64().unwrap_or(0);
                let lag =
                    s.field("lag").as_u64().unwrap_or_else(|| last.saturating_sub(acked));
                let labeled =
                    |name: &str| metric_value_labeled(metrics, &prom_name(name), worker);
                let rate = |name: &str| -> f64 {
                    let curr = labeled(name).unwrap_or(0.0);
                    let prev = prev_metrics
                        .and_then(|p| {
                            metric_value_labeled(p, &prom_name(name), worker)
                        })
                        .unwrap_or(0.0);
                    ((curr - prev) / secs).max(0.0)
                };
                out.push_str(&format!(
                    "    {worker:<21} seq {last:>6}  acked {acked:>6}  lag {lag:>4}  \
                     {:>7.1} ev/s  {:>8.0} flips/s  jobs {:>4.0}\n",
                    rate(names::WORKER_EVENTS_EMITTED),
                    rate(names::DRAM_FLIP),
                    labeled(names::WORKER_JOBS_COMPLETED).unwrap_or(0.0),
                ));
            }
        }
    }
    if progress.field("done").as_bool() == Some(true) {
        out.push_str("\n  fleet DONE\n");
    }
    out
}

/// `repro top`: poll `ADDR` until the campaign reports done (or the
/// server goes away), redrawing the frame every `--interval-ms`.
/// Frames are clamped to the terminal width so narrow terminals never
/// wrap (and thus never corrupt the home-and-redraw animation).
///
/// ```text
/// repro top ADDR [--interval-ms N] [--once] [--fleet]
/// ```
pub fn top_main(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut interval = Duration::from_millis(1000);
    let mut once = false;
    let mut fleet = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--interval-ms" => match args.next().and_then(|s| s.parse().ok()) {
                Some(ms) if ms >= 50u64 => interval = Duration::from_millis(ms),
                _ => return Err("--interval-ms needs an integer >= 50".into()),
            },
            "--once" => once = true,
            "--fleet" => fleet = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown repro top flag '{other}'"));
            }
            other if addr.is_none() => addr = Some(other.to_string()),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let addr =
        addr.ok_or("usage: repro top ADDR [--interval-ms N] [--once] [--fleet]")?;
    let timeout = Duration::from_secs(2);

    let mut prev_metrics: Option<String> = None;
    let mut misses = 0u32;
    loop {
        let get = |path: &str| {
            rh_obs::http_get(&addr, path, timeout).map_err(|e| format!("GET {addr}{path}: {e}"))
        };
        let polled = get("/progress")
            .and_then(|r| match r.status {
                200 => parse_progress(&r.body),
                s => Err(format!("/progress returned {s}")),
            })
            .and_then(|progress| Ok((progress, get("/metrics")?.body)));
        match polled {
            Ok((progress, metrics)) => {
                misses = 0;
                let frame = if fleet {
                    render_fleet_frame(
                        &progress,
                        &metrics,
                        prev_metrics.as_deref(),
                        interval,
                    )
                } else {
                    let rates = prev_metrics
                        .as_deref()
                        .map_or_else(Rates::default, |prev| {
                            rates_between(prev, &metrics, interval)
                        });
                    render_frame(&progress, &metrics, rates)
                };
                let frame = match terminal_width() {
                    Some(w) => clamp_width(&frame, w),
                    None => frame,
                };
                if once {
                    print!("{frame}");
                    return Ok(());
                }
                // Home + clear-to-end keeps redraws flicker-free.
                print!("\x1b[H\x1b[2J{frame}");
                let _ = std::io::stdout().flush();
                if progress.field("done").as_bool() == Some(true) {
                    println!("\ncampaign done");
                    return Ok(());
                }
                prev_metrics = Some(metrics);
            }
            Err(e) if once => return Err(e),
            Err(e) => {
                // The run exiting (connection refused) is the normal
                // way a monitor session ends; tolerate one blip first.
                misses += 1;
                if misses >= 3 {
                    return Err(format!("lost the telemetry endpoint: {e}"));
                }
            }
        }
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_core::ProgressSnapshot;

    /// Goes through the real wire format: what the server sends is
    /// exactly what the monitor parses.
    fn parse(snap: &ProgressSnapshot) -> Value {
        parse_progress(&snap.to_json()).unwrap_or_else(|e| panic!("{e}"))
    }

    fn sample_progress() -> Value {
        parse(&ProgressSnapshot {
            total: 8,
            pending: 3,
            running: 2,
            succeeded: 2,
            recovered: 1,
            quarantined: 0,
            timed_out: 0,
            cancelled: 0,
            elapsed_ms: 65_400,
            eta_ms: Some(109_000),
        })
    }

    #[test]
    fn metric_value_matches_exact_unlabeled_samples() {
        let text = "# HELP dram_flip x\n# TYPE dram_flip counter\n\
                    dram_flip 42\ndram_flip_total 99\nsoftmc_cmd 7\n";
        assert_eq!(metric_value(text, "dram_flip"), Some(42.0));
        assert_eq!(metric_value(text, "softmc_cmd"), Some(7.0));
        assert_eq!(metric_value(text, "dram"), None, "prefix must not match");
        assert_eq!(metric_value(text, "missing"), None);
    }

    #[test]
    fn rates_are_nonnegative_and_scaled() {
        let prev = "dram_flip 100\nsoftmc_cmd 1000\n";
        let curr = "dram_flip 300\nsoftmc_cmd 900\n";
        let r = rates_between(prev, curr, Duration::from_secs(2));
        assert!((r.flips_per_s - 100.0).abs() < 1e-9);
        assert_eq!(r.cmds_per_s, 0.0, "counter reset clamps to zero");
    }

    #[test]
    fn frame_renders_progress_eta_and_rates() {
        let metrics = "executor_queue_depth 5\ncampaign_retries 4\n";
        let frame = render_frame(
            &sample_progress(),
            metrics,
            Rates { flips_per_s: 1234.0, cmds_per_s: 56789.0 },
        );
        assert!(frame.contains("3/8"), "completed/total: {frame}");
        assert!(frame.contains("2 running / 3 pending"), "{frame}");
        assert!(frame.contains("eta 1m49s"), "{frame}");
        assert!(frame.contains("1234 flips/s"), "{frame}");
        assert!(frame.contains("queue depth"), "{frame}");
        assert!(!frame.contains("WARNING"), "no dropped records here: {frame}");
    }

    #[test]
    fn frame_flags_dropped_records_and_done() {
        let progress = parse(&ProgressSnapshot {
            total: 2,
            pending: 0,
            running: 0,
            succeeded: 2,
            recovered: 0,
            quarantined: 0,
            timed_out: 0,
            cancelled: 0,
            elapsed_ms: 1_000,
            eta_ms: Some(0),
        });
        let frame =
            render_frame(&progress, "obs_dropped_records 17\n", Rates::default());
        assert!(frame.contains("DONE"), "{frame}");
        assert!(frame.contains("WARNING"), "{frame}");
        assert!(frame.contains("17 trace records dropped"), "{frame}");
    }

    #[test]
    fn frame_shows_breaker_state_when_fleet_telemetry_is_present() {
        let plain = render_frame(&sample_progress(), "campaign_retries 1\n", Rates::default());
        assert!(!plain.contains("breakers"), "no fleet telemetry yet: {plain}");
        let metrics = "fleet_breaker_open 2\nfleet_breaker_trip 5\n\
                       fleet_breaker_evicted 1\nworker_admission_shed 3\nfleet_degraded 1\n";
        let frame = render_frame(&sample_progress(), metrics, Rates::default());
        assert!(frame.contains("2 not closed"), "{frame}");
        assert!(frame.contains("5 trips"), "{frame}");
        assert!(frame.contains("1 evicted"), "{frame}");
        assert!(frame.contains("3 shed"), "{frame}");
        assert!(frame.contains("DEGRADED"), "{frame}");
    }

    #[test]
    fn frame_lists_worker_slots_with_lease_and_trace_ids() {
        let plain = render_frame(&sample_progress(), "", Rates::default());
        assert!(!plain.contains("worker slots"), "no slots on a campaign: {plain}");
        let body = r#"{"total":1,"pending":0,"running":1,"succeeded":0,"recovered":0,
            "quarantined":0,"timed_out":0,"cancelled":0,"elapsed_ms":5,"eta_ms":null,
            "slots":[{"lease_id":16777217,"module":"mfr_a_x16_2021#0","state":"running",
                      "trace_id":"00000000000000000000000000005eed"}]}"#;
        let progress = parse_progress(body).unwrap_or_else(|e| panic!("{e}"));
        let frame = render_frame(&progress, "", Rates::default());
        assert!(frame.contains("worker slots"), "{frame}");
        assert!(frame.contains("lease=16777217"), "{frame}");
        assert!(frame.contains("mfr_a_x16_2021#0"), "{frame}");
        assert!(frame.contains("trace=00000000000000000000000000005eed"), "{frame}");
    }

    #[test]
    fn eta_null_renders_as_dashes() {
        let progress = parse(&ProgressSnapshot {
            total: 4,
            pending: 4,
            running: 0,
            succeeded: 0,
            recovered: 0,
            quarantined: 0,
            timed_out: 0,
            cancelled: 0,
            elapsed_ms: 120,
            eta_ms: None,
        });
        let frame = render_frame(&progress, "", Rates::default());
        assert!(frame.contains("eta --"), "{frame}");
    }

    #[test]
    fn duration_formatting_covers_all_magnitudes() {
        assert_eq!(fmt_duration_ms(900), "0.9s");
        assert_eq!(fmt_duration_ms(61_000), "1m01s");
        assert_eq!(fmt_duration_ms(3_720_000), "1h02m");
    }

    #[test]
    fn labeled_metric_lookup_requires_exact_worker_pair() {
        let text = "dram_flip 9\n\
                    dram_flip{worker=\"127.0.0.1:7001\"} 42\n\
                    dram_flip{module=\"m#0\",worker=\"127.0.0.1:7002\"} 7\n";
        assert_eq!(metric_value_labeled(text, "dram_flip", "127.0.0.1:7001"), Some(42.0));
        assert_eq!(
            metric_value_labeled(text, "dram_flip", "127.0.0.1:7002"),
            Some(7.0),
            "worker pair may sit anywhere in the label set"
        );
        assert_eq!(metric_value_labeled(text, "dram_flip", "127.0.0.1:7"), None);
        assert_eq!(metric_value_labeled(text, "missing", "127.0.0.1:7001"), None);
        assert_eq!(metric_value(text, "dram_flip"), Some(9.0), "unlabeled still wins");
    }

    #[test]
    fn clamp_width_elides_long_lines_and_keeps_short_ones() {
        let frame = "short\nexactly-10\na-line-that-is-much-too-long\n";
        let clamped = clamp_width(frame, 10);
        assert_eq!(clamped, "short\nexactly-10\na-line-th…\n");
        assert_eq!(clamp_width(frame, 0), frame, "zero width disables clamping");
        assert_eq!(clamp_width("ab", 1), "…", "width 1 leaves only the ellipsis");
        assert!(
            clamp_width(frame, 10).lines().all(|l| l.chars().count() <= 10),
            "no line exceeds the clamp"
        );
    }

    #[test]
    fn fleet_frame_lists_worker_cursors_with_rates() {
        let body = r#"{"total":4,"pending":1,"running":1,"succeeded":2,"recovered":0,
            "quarantined":0,"timed_out":0,"cancelled":0,"elapsed_ms":5000,"eta_ms":null,
            "streams":[{"worker":"127.0.0.1:7001","last_seq":12,"acked_seq":10,"lag":2},
                       {"worker":"127.0.0.1:7002","last_seq":8,"acked_seq":8,"lag":0}]}"#;
        let progress = parse_progress(body).unwrap_or_else(|e| panic!("{e}"));
        let prev = "worker_events_emitted{worker=\"127.0.0.1:7001\"} 10\n";
        let metrics = "fleet_journal_events 18\nfleet_journal_duplicates 1\n\
                       fleet_journal_lag 2\n\
                       worker_events_emitted{worker=\"127.0.0.1:7001\"} 30\n\
                       dram_flip{worker=\"127.0.0.1:7001\"} 512\n\
                       worker_jobs_completed{worker=\"127.0.0.1:7001\"} 3\n";
        let frame = render_fleet_frame(
            &progress,
            metrics,
            Some(prev),
            Duration::from_secs(2),
        );
        assert!(frame.contains("live fleet monitor"), "{frame}");
        assert!(frame.contains("18 events"), "{frame}");
        assert!(frame.contains("1 duplicates"), "{frame}");
        assert!(frame.contains("127.0.0.1:7001"), "{frame}");
        assert!(frame.contains("lag    2"), "{frame}");
        assert!(frame.contains("10.0 ev/s"), "(30-10)/2s: {frame}");
        assert!(frame.contains("jobs    3"), "{frame}");
        assert!(frame.contains("127.0.0.1:7002"), "{frame}");
        assert!(!frame.contains("fleet DONE"), "{frame}");
    }

    #[test]
    fn fleet_frame_marks_done_and_tolerates_missing_streams() {
        let progress = parse(&ProgressSnapshot {
            total: 2,
            pending: 0,
            running: 0,
            succeeded: 2,
            recovered: 0,
            quarantined: 0,
            timed_out: 0,
            cancelled: 0,
            elapsed_ms: 1_000,
            eta_ms: Some(0),
        });
        let frame = render_fleet_frame(&progress, "", None, Duration::from_secs(1));
        assert!(frame.contains("fleet DONE"), "{frame}");
        assert!(!frame.contains("workers:"), "no stream cursors yet: {frame}");
    }
}
