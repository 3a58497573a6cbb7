//! The disabled-observability contract: with no recorder installed,
//! every `rh-obs` entry point costs one relaxed atomic load and a
//! branch, so instrumentation can stay in the hot paths of the product
//! build.
//!
//! This file is its own test binary and never installs a recorder, so no
//! test here can be pushed onto the enabled path by another. The
//! timing bound only means something in an optimized build:
//!
//! ```text
//! cargo test --release -p rh-obs --test disabled_overhead -- --nocapture
//! ```

use std::hint::black_box;
use std::time::Instant;

/// Operations per timed pass.
const OPS: u64 = 1_000_000;
/// Timed passes per entry point; the median is compared to the bound.
const TIMED_PASSES: usize = 5;
/// Per-operation bound, in nanoseconds. Tens of times the expected
/// cost, so a slow shared runner still passes while any real work on
/// the disabled path (a clock read, an ID mint, a `format!`) fails.
const BOUND_NS: f64 = 50.0;

/// Median ns/op of `body` over [`TIMED_PASSES`] passes of [`OPS`]
/// calls, after one untimed warmup pass.
fn ns_per_op(body: impl Fn(u64)) -> f64 {
    let pass = || {
        let start = Instant::now();
        for i in 0..OPS {
            body(i);
        }
        start.elapsed().as_secs_f64() * 1e9 / OPS as f64
    };
    pass();
    let mut passes: Vec<f64> = (0..TIMED_PASSES).map(|_| pass()).collect();
    passes.sort_by(f64::total_cmp);
    passes[TIMED_PASSES / 2]
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing contract: run with --release")]
fn disabled_entry_points_cost_one_relaxed_load() {
    assert!(!rh_obs::enabled(), "observability must be disabled for the overhead contract");

    let record = ns_per_op(|i| {
        rh_obs::histogram!("bench.disabled.overhead_ns", black_box(i));
    });
    let counter = ns_per_op(|i| {
        rh_obs::counter!("bench.disabled.counter", black_box(i));
    });
    let gauge = ns_per_op(|i| {
        rh_obs::gauge!("bench.disabled.gauge", black_box(i) as f64);
    });
    let event = ns_per_op(|i| {
        rh_obs::event!(
            "bench.disabled.event",
            index = black_box(i),
            detail = format!("module-{i} unhealthy"),
        );
    });
    let span = ns_per_op(|i| {
        let mut span = rh_obs::span("bench.disabled.span");
        span.set("index", black_box(i));
        black_box(span.ids());
    });

    for (what, ns) in [
        ("histogram record", record),
        ("counter add", counter),
        ("gauge set", gauge),
        ("event with formatted fields", event),
        ("span guard with ID propagation", span),
    ] {
        println!("disabled {what}: {ns:.2} ns/op");
        assert!(
            ns < BOUND_NS,
            "disabled {what} costs {ns:.1} ns/op (bound {BOUND_NS} ns); \
             the zero-cost-when-disabled contract is broken"
        );
    }
}

#[test]
fn disabled_event_never_evaluates_its_fields() {
    assert!(!rh_obs::enabled(), "observability must be disabled for the overhead contract");
    let mut evaluated = 0u64;
    for i in 0..1_000u64 {
        rh_obs::event!(
            "bench.disabled.event",
            index = i,
            detail = {
                evaluated += 1;
                format!("module-{i} unhealthy")
            },
        );
    }
    assert_eq!(evaluated, 0, "a disabled event! evaluated its field expressions");
}
