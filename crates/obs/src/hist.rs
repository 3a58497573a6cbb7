//! Lock-free recording statics — log-bucketed histograms, counters
//! and gauges — and the one registry that finds them.
//!
//! A [`Histogram`], [`Counter`] or [`Gauge`] is a `static` declared at
//! the call site (usually via the [`crate::histogram!`] /
//! [`crate::timer!`] / [`crate::counter!`] / [`crate::gauge!`] macros)
//! and registered on first touch. Histogram values land in power-of-2
//! buckets: bucket 0 holds exactly 0, bucket *i* (1 ≤ *i* ≤ 64) holds
//! `[2^(i-1), 2^i)`. Quantiles read back from a bucket's upper bound,
//! so any quantile is exact to within a factor of 2 of the true sample
//! quantile — plenty for "did the p99 of command issue double?" while
//! costing 65 words per shard.
//!
//! # Overhead contract
//!
//! When observability is disabled ([`crate::enabled`] is false), a
//! record, add or set is **one relaxed atomic load** and a branch —
//! the same contract as every other `rh-obs` entry point, and the
//! `disabled_overhead` test (run in release by CI's `contracts` job)
//! asserts it stays that way. When enabled, a histogram record is four
//! relaxed atomic RMWs and a counter add one, on a shard chosen by
//! thread ordinal, so concurrent hot paths do not contend on a single
//! cache line; a gauge set is one relaxed store. None takes a lock.
//!
//! Everything here is process-global and cumulative; [`reset_all`]
//! runs on [`crate::install`] so each recording session starts from
//! zero, and lists only what is touched again.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of independent shards per histogram. Power of two so the
/// thread-ordinal modulo is a mask.
pub const NUM_SHARDS: usize = 8;

/// Bucket 0 for zero, buckets 1..=64 for each power-of-2 magnitude.
pub const NUM_BUCKETS: usize = 65;

/// Index of the bucket that `v` lands in.
#[must_use]
pub const fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of bucket `i` — the value a quantile falling
/// in that bucket reads back as (before clamping by the observed max).
#[must_use]
pub const fn bucket_hi(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

struct Shard {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; NUM_BUCKETS],
}

impl Shard {
    const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Every static touched at least once, by kind.
struct Registry {
    hists: Vec<&'static Histogram>,
    counters: Vec<&'static Counter>,
    gauges: Vec<&'static Gauge>,
}

static REGISTRY: Mutex<Registry> =
    Mutex::new(Registry { hists: Vec::new(), counters: Vec::new(), gauges: Vec::new() });

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    match REGISTRY.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn shard_index() -> usize {
    (crate::thread_ordinal() as usize) & (NUM_SHARDS - 1)
}

/// A static's state: never registered (`NEW`), untouched since the
/// last [`reset_all`] (`IDLE`), or `TOUCHED`.
#[derive(Debug)]
struct Presence(AtomicU8);

const NEW: u8 = 0;
const IDLE: u8 = 1;
const TOUCHED: u8 = 2;

impl Presence {
    const fn new() -> Self {
        Self(AtomicU8::new(NEW))
    }

    /// Marks the static touched; `register` runs on the first touch
    /// ever (a reset never returns a static to `NEW`).
    #[inline]
    fn touch(&self, register: impl FnOnce()) {
        if self.0.load(Ordering::Relaxed) != TOUCHED
            && self.0.swap(TOUCHED, Ordering::Relaxed) == NEW
        {
            register();
        }
    }

    fn touched(&self) -> bool {
        self.0.load(Ordering::Relaxed) == TOUCHED
    }

    fn reset(&self) {
        self.0.store(IDLE, Ordering::Relaxed);
    }
}

/// A lock-free, const-initializable latency histogram. Declare as a
/// `static` (the [`crate::histogram!`] and [`crate::timer!`] macros do
/// this per call site) and record raw `u64` values — by convention
/// nanoseconds for durations, with the unit in the name (`*.ns`).
pub struct Histogram {
    name: &'static str,
    presence: Presence,
    shards: [Shard; NUM_SHARDS],
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram").field("name", &self.name).finish_non_exhaustive()
    }
}

impl Histogram {
    /// Const constructor for `static` declarations.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            presence: Presence::new(),
            shards: [const { Shard::new() }; NUM_SHARDS],
        }
    }

    /// Records `v` if observability is enabled. Disabled cost: one
    /// relaxed atomic load and a branch.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.record_always(v);
    }

    /// Records `v` unconditionally (used by tests and by guards that
    /// already checked `enabled`).
    pub fn record_always(&'static self, v: u64) {
        self.presence.touch(|| registry().hists.push(self));
        let shard = &self.shards[shard_index()];
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
        shard.max.fetch_max(v, Ordering::Relaxed);
        shard.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Starts a timer that records elapsed **nanoseconds** into this
    /// histogram on drop. Inert (no clock read) when created disabled.
    #[inline]
    pub fn timer(&'static self) -> TimerGuard {
        let start = if crate::enabled() { Some(Instant::now()) } else { None };
        TimerGuard { hist: self, start }
    }

    /// Merged view of all shards.
    #[must_use]
    pub fn snapshot(&self) -> HistSnapshot {
        let mut snap = HistSnapshot::empty(self.name);
        for shard in &self.shards {
            snap.count += shard.count.load(Ordering::Relaxed);
            snap.sum = snap.sum.saturating_add(shard.sum.load(Ordering::Relaxed));
            snap.max = snap.max.max(shard.max.load(Ordering::Relaxed));
            for (i, b) in shard.buckets.iter().enumerate() {
                snap.buckets[i] += b.load(Ordering::Relaxed);
            }
        }
        snap
    }

    fn reset(&self) {
        self.presence.reset();
        for shard in &self.shards {
            shard.reset();
        }
    }
}

/// Snapshots of every histogram recorded since the last
/// [`reset_all`], sorted by name. Distinct call sites recording under
/// the same name are one time series: their snapshots are merged.
#[must_use]
pub fn snapshot_all() -> Vec<HistSnapshot> {
    let mut by_name: BTreeMap<&'static str, HistSnapshot> = BTreeMap::new();
    for h in registry().hists.iter().filter(|h| h.presence.touched()) {
        let s = h.snapshot();
        match by_name.entry(s.name) {
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&s),
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(s);
            }
        }
    }
    by_name.into_values().collect()
}

/// Zeroes and unlists every registered static. Called by
/// [`crate::install`] so a new recording session does not inherit a
/// previous run's values.
pub fn reset_all() {
    let reg = registry();
    for h in &reg.hists {
        h.reset();
    }
    for c in &reg.counters {
        c.presence.reset();
        for slot in &c.shards {
            slot.0.store(0, Ordering::Relaxed);
        }
    }
    for g in &reg.gauges {
        g.presence.reset();
        g.bits.store(0, Ordering::Relaxed);
    }
}

/// One counter shard, alone on its cache line.
#[derive(Debug)]
#[repr(align(64))]
struct Slot(AtomicU64);

/// A lock-free, const-initializable monotonic counter, sharded by
/// thread ordinal. Declare as a `static` (the [`crate::counter!`]
/// macro does this per call site); sites sharing a name are one
/// series. A shard that would overflow sticks at `u64::MAX`.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    presence: Presence,
    shards: [Slot; NUM_SHARDS],
}

impl Counter {
    /// Const constructor for `static` declarations.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        let shards = [const { Slot(AtomicU64::new(0)) }; NUM_SHARDS];
        Self { name, presence: Presence::new(), shards }
    }

    /// Adds `delta` if observability is enabled; a delta of 0 still
    /// lists the counter. Disabled cost: one relaxed load and a branch.
    #[inline]
    pub fn add(&'static self, delta: u64) {
        if crate::enabled() {
            self.add_enabled(delta);
        }
    }

    // Out of line, so the inlined disabled path stays one load.
    #[inline(never)]
    fn add_enabled(&'static self, delta: u64) {
        self.presence.touch(|| registry().counters.push(self));
        let slot = &self.shards[shard_index()].0;
        if slot.fetch_add(delta, Ordering::Relaxed).checked_add(delta).is_none() {
            // Wrapped: the store saturates it, along with any add
            // that raced in between.
            slot.store(u64::MAX, Ordering::Relaxed);
        }
    }
}

/// A lock-free, const-initializable last-write-wins gauge holding the
/// bits of an `f64`. Declare as a `static` (the [`crate::gauge!`]
/// macro does this per call site). Each gauge name must have exactly
/// one static: distinct statics cannot order their writes, so code
/// that sets one gauge from several places does so through one
/// function or one shared `static Gauge`.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    presence: Presence,
    bits: AtomicU64,
}

impl Gauge {
    /// Const constructor for `static` declarations.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self { name, presence: Presence::new(), bits: AtomicU64::new(0) }
    }

    /// Sets the gauge to `v` if observability is enabled. Disabled
    /// cost: one relaxed load and a branch; enabled, one relaxed store
    /// once touched.
    #[inline]
    pub fn set(&'static self, v: f64) {
        if crate::enabled() {
            self.set_enabled(v);
        }
    }

    #[inline(never)]
    fn set_enabled(&'static self, v: f64) {
        self.presence.touch(|| registry().gauges.push(self));
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if that is above its value, so it holds
    /// the high-water mark since the last reset whatever the order of
    /// the writers. For non-negative `v` only: their bits order as the
    /// values do. Disabled cost as [`set`](Self::set).
    #[inline]
    pub fn set_max(&'static self, v: f64) {
        if crate::enabled() {
            self.set_max_enabled(v);
        }
    }

    #[inline(never)]
    fn set_max_enabled(&'static self, v: f64) {
        self.presence.touch(|| registry().gauges.push(self));
        self.bits.fetch_max(v.to_bits(), Ordering::Relaxed);
    }
}

/// Every counter touched since the last [`reset_all`], summed
/// (saturating) across shards and call sites sharing a name.
#[must_use]
pub fn counters_all() -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for c in registry().counters.iter().filter(|c| c.presence.touched()) {
        for slot in &c.shards {
            let total: &mut u64 = out.entry(c.name).or_default();
            *total = total.saturating_add(slot.0.load(Ordering::Relaxed));
        }
    }
    out
}

/// Every gauge set since the last [`reset_all`], at its last value.
#[must_use]
pub fn gauges_all() -> BTreeMap<&'static str, f64> {
    registry()
        .gauges
        .iter()
        .filter(|g| g.presence.touched())
        .map(|g| (g.name, f64::from_bits(g.bits.load(Ordering::Relaxed))))
        .collect()
}

/// Timer guard returned by [`Histogram::timer`]; records elapsed
/// nanoseconds on drop. Created-disabled guards stay inert.
#[derive(Debug)]
pub struct TimerGuard {
    hist: &'static Histogram,
    start: Option<Instant>,
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.hist.record(ns);
        }
    }
}

/// An immutable merged view of a histogram: counts per power-of-2
/// bucket plus exact count/sum/max. Merging two snapshots adds bucket
/// counts elementwise, so merge is associative and commutative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Histogram name.
    pub name: &'static str,
    /// Total recorded values.
    pub count: u64,
    /// Exact sum of recorded values (saturating).
    pub sum: u64,
    /// Exact maximum recorded value.
    pub max: u64,
    /// Count per bucket; bucket 0 is exactly 0, bucket `i` covers
    /// `[2^(i-1), 2^i)`.
    pub buckets: [u64; NUM_BUCKETS],
}

impl HistSnapshot {
    /// An empty snapshot (merge identity).
    #[must_use]
    pub fn empty(name: &'static str) -> Self {
        Self { name, count: 0, sum: 0, max: 0, buckets: [0; NUM_BUCKETS] }
    }

    /// Merges `other` into `self` (elementwise bucket add; exact for
    /// count/sum, max of max).
    pub fn merge(&mut self, other: &HistSnapshot) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// Mean of recorded values (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a bucket upper bound
    /// clamped by the observed max; `None` when empty. The returned
    /// value is within a factor of 2 of the exact sample quantile.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the order statistic the quantile reads.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(bucket_hi(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median (p50).
    #[must_use]
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 90th percentile.
    #[must_use]
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testlock::locked;
    use crate::Recorder;
    use std::sync::Arc;

    /// Installs a fresh recorder, which resets the registry.
    fn session() -> Arc<Recorder> {
        let rec = Arc::new(Recorder::new());
        crate::install(rec.clone());
        rec
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        // Every bucket's hi is the last value mapping into it.
        for i in 1..64 {
            assert_eq!(bucket_of(bucket_hi(i)), i);
            assert_eq!(bucket_of(bucket_hi(i) + 1), i + 1);
        }
        assert_eq!(bucket_hi(0), 0);
        assert_eq!(bucket_hi(64), u64::MAX);
    }

    #[test]
    fn record_and_quantiles() {
        let _l = locked();
        static H: Histogram = Histogram::new("test.hist.record_and_quantiles");
        for v in [0u64, 1, 2, 3, 100, 1000, 10_000] {
            H.record_always(v);
        }
        let s = H.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 11_106);
        assert_eq!(s.max, 10_000);
        // p50 of [0,1,2,3,100,1000,10000] is 3 exact; bucket answer
        // must be within a factor of 2 (bucket [2,4) reads back 3).
        assert_eq!(s.quantile(0.5), Some(3));
        // Max quantile is clamped by the exact max, not the bucket hi.
        assert_eq!(s.quantile(1.0), Some(10_000));
        assert_eq!(s.quantile(0.0), Some(0));
    }

    #[test]
    fn merge_is_commutative_and_has_identity() {
        let _l = locked();
        static A: Histogram = Histogram::new("test.hist.merge_a");
        static B: Histogram = Histogram::new("test.hist.merge_b");
        for v in [5u64, 9, 17] {
            A.record_always(v);
        }
        for v in [1u64, 1_000_000] {
            B.record_always(v);
        }
        let (a, b) = (A.snapshot(), B.snapshot());
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.count, ba.count);
        assert_eq!(ab.sum, ba.sum);
        assert_eq!(ab.max, ba.max);
        assert_eq!(ab.buckets, ba.buckets);
        let mut with_id = a.clone();
        with_id.merge(&HistSnapshot::empty("id"));
        assert_eq!(with_id.buckets, a.buckets);
    }

    #[test]
    fn snapshot_all_sees_registered_histograms() {
        let _l = locked();
        static H: Histogram = Histogram::new("test.hist.snapshot_all");
        H.record_always(42);
        let snaps = snapshot_all();
        assert!(snaps.iter().any(|s| s.name == "test.hist.snapshot_all" && s.count >= 1));
    }

    #[test]
    fn empty_snapshot_quantile_is_none() {
        let s = HistSnapshot::empty("e");
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn sharded_recording_merges_across_threads() {
        let _l = locked();
        static H: Histogram = Histogram::new("test.hist.sharded");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for v in 1..=250u64 {
                        H.record_always(v);
                    }
                })
            })
            .collect();
        for h in handles {
            let _ = h.join();
        }
        let s = H.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 4 * (250 * 251 / 2));
        assert_eq!(s.max, 250);
    }

    #[test]
    fn counter_sums_are_exact_across_eight_threads() {
        let _l = locked();
        static C: Counter = Counter::new("test.hist.counter_threads");
        let rec = session();
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                std::thread::spawn(move || {
                    for v in 1..=10_000u64 {
                        C.add(v + t);
                    }
                })
            })
            .collect();
        for h in handles {
            let _ = h.join();
        }
        crate::uninstall();
        let per_thread = 10_000 * 10_001 / 2;
        let want = 8 * per_thread + 10_000 * (0..8).sum::<u64>();
        assert_eq!(rec.counter_value("test.hist.counter_threads"), want);
    }

    #[test]
    fn counter_saturates_instead_of_overflowing() {
        let _l = locked();
        let rec = session();
        // Same shard (one thread), and across sites sharing the name.
        crate::counter!("test.hist.saturate", u64::MAX);
        crate::counter!("test.hist.saturate", 5);
        crate::counter!("test.hist.saturate", 1);
        crate::uninstall();
        assert_eq!(rec.counter_value("test.hist.saturate"), u64::MAX);
        static C: Counter = Counter::new("test.hist.saturate_shard");
        session();
        C.add(u64::MAX - 1);
        C.add(2);
        C.add(7);
        crate::uninstall();
        assert_eq!(counters_all().get("test.hist.saturate_shard"), Some(&u64::MAX));
    }

    #[test]
    fn counter_touched_with_zero_delta_is_listed() {
        let _l = locked();
        let rec = session();
        crate::counter!("test.hist.zero_delta", 0);
        crate::uninstall();
        assert_eq!(rec.counters().get("test.hist.zero_delta"), Some(&0));
        assert!(rec.metrics_json().contains("\"test.hist.zero_delta\": 0"));
        // Disabled, nothing is touched: the next session lists nothing.
        crate::counter!("test.hist.zero_delta_disabled", 0);
        crate::gauge!("test.hist.zero_delta_disabled_gauge", 1.0);
        assert!(!rec.counters().contains_key("test.hist.zero_delta_disabled"));
        assert!(!rec.gauges().contains_key("test.hist.zero_delta_disabled_gauge"));
    }

    #[test]
    fn install_resets_counters_and_gauges() {
        let _l = locked();
        let first = session();
        crate::counter!("test.hist.reset_counter", 4);
        crate::gauge!("test.hist.reset_gauge", 2.5);
        crate::uninstall();
        assert_eq!(first.counter_value("test.hist.reset_counter"), 4);
        assert_eq!(first.gauge_value("test.hist.reset_gauge"), Some(2.5));
        // Values survive uninstall and vanish on the next install.
        let second = session();
        assert_eq!(second.counter_value("test.hist.reset_counter"), 0);
        assert!(!second.counters().contains_key("test.hist.reset_counter"));
        assert_eq!(second.gauge_value("test.hist.reset_gauge"), None);
        // A reset counter counts from zero again, at the same site.
        for _ in 0..3 {
            crate::counter!("test.hist.reset_again", 1);
        }
        crate::uninstall();
        assert_eq!(second.counter_value("test.hist.reset_again"), 3);
        session();
        for _ in 0..2 {
            crate::counter!("test.hist.reset_again", 1);
        }
        crate::uninstall();
        assert_eq!(second.counter_value("test.hist.reset_again"), 2);
    }

    #[test]
    fn gauge_set_max_keeps_the_high_water_mark() {
        static PEAK: Gauge = Gauge::new("test.hist.peak");
        let _l = locked();
        let rec = session();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                s.spawn(move || {
                    for v in (0..1_000u32).map(|i| (i * 7 + t * 13) % 977) {
                        PEAK.set_max(f64::from(v));
                    }
                });
            }
        });
        crate::uninstall();
        assert_eq!(rec.gauge_value("test.hist.peak"), Some(976.0));
        session();
        PEAK.set_max(0.0);
        crate::uninstall();
        assert_eq!(rec.gauge_value("test.hist.peak"), Some(0.0), "install resets the mark");
    }
}
