//! Deterministic fault injection for the coordinator↔worker
//! *transport* — the network analogue of `rh-softmc`'s [`FaultPlan`]
//! for the host link (PR 1, DESIGN.md §6).
//!
//! A [`NetFaultPlan`] is a seeded, serde-configurable description of
//! which network faults may fire on the fleet's HTTP links and how
//! often. Arming a plan produces a [`NetFaultInjector`] whose random
//! stream is derived purely from `(seed, operation index)`, so a chaos
//! run is replayable by seed: the same sequence of client requests and
//! server responses draws the same fault schedule. The injector hooks
//! into both sides of the transport:
//!
//! * **client side** ([`crate::client`]) — connection refusal before
//!   the socket is even opened, response delay, slow-loris drip reads,
//!   mid-body truncation, duplicated replies, and corrupted status
//!   lines, all applied to the bytes the client sees;
//! * **server side** ([`crate::serve`], via `ServeConfig::fault`) —
//!   the same response mutations applied to the bytes a worker writes,
//!   so a worker process can present a flaky link to *every* client.
//!
//! Faults never corrupt the work itself: every injected fault
//! manifests to the caller as an I/O error, a timeout, or bytes that
//! [`crate::client::parse_response`] rejects — exactly the failures
//! the fleet's lease/retry/commit machinery (DESIGN.md §11) and the
//! circuit breaker (§13) are built to absorb. A fleet run under any
//! `NetFaultPlan` must therefore converge on a report bit-identical to
//! the fault-free oracle, or degrade explicitly — never silently
//! differ.
//!
//! The injector is installed process-globally (like the observability
//! recorder) so the dependency-free client functions can consult it
//! without threading a handle through every call site; servers take an
//! explicit `Arc<NetFaultInjector>` instead, because one process may
//! host several servers with different plans under test.

use crate::names;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// A seeded description of transport faults to inject.
///
/// All probabilities are per-operation in `[0, 1]`; `0.0` disables the
/// corresponding fault. The default plan injects nothing. One
/// "operation" is one client request or one server response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetFaultPlan {
    /// Master seed; every decision is a pure function of
    /// `(seed, operation index)`.
    pub seed: u64,
    /// Probability that a connection attempt is refused outright
    /// (client side) or an accepted connection is dropped before any
    /// reply bytes (server side).
    pub refuse_prob: f64,
    /// Probability that the response is delayed by
    /// [`delay_ms`](Self::delay_ms) before any bytes move.
    pub delay_prob: f64,
    /// Injected response delay, milliseconds.
    pub delay_ms: u64,
    /// Probability that the response arrives as a slow-loris drip:
    /// [`drip_chunk`](Self::drip_chunk)-byte chunks separated by
    /// [`drip_gap_ms`](Self::drip_gap_ms) pauses. This is the fault a
    /// per-read timeout cannot bound — only a total request deadline
    /// can.
    pub drip_prob: f64,
    /// Bytes delivered per drip chunk (min 1).
    pub drip_chunk: usize,
    /// Pause between drip chunks, milliseconds.
    pub drip_gap_ms: u64,
    /// Probability that the response body is truncated mid-flight
    /// (the connection closes early, shorter than `Content-Length`).
    pub truncate_prob: f64,
    /// Probability that the whole reply is delivered twice back to
    /// back (a retransmitting middlebox; the bytes after the first
    /// response must be ignored, not parsed as body).
    pub duplicate_prob: f64,
    /// Probability that the status line is replaced with garbage
    /// bytes (a corrupted or non-HTTP peer).
    pub corrupt_prob: f64,
}

impl Default for NetFaultPlan {
    fn default() -> Self {
        Self::none(0)
    }
}

impl NetFaultPlan {
    /// A plan that injects nothing (useful as a baseline).
    #[must_use]
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            refuse_prob: 0.0,
            delay_prob: 0.0,
            delay_ms: 0,
            drip_prob: 0.0,
            drip_chunk: 1,
            drip_gap_ms: 0,
            truncate_prob: 0.0,
            duplicate_prob: 0.0,
            corrupt_prob: 0.0,
        }
    }

    /// An intermittently failing link: occasional refusals, delays,
    /// truncations, and duplicated replies — the everyday chaos of a
    /// multi-node deployment.
    #[must_use]
    pub fn flaky_link(seed: u64) -> Self {
        Self {
            refuse_prob: 0.05,
            delay_prob: 0.05,
            delay_ms: 50,
            truncate_prob: 0.05,
            duplicate_prob: 0.05,
            ..Self::none(seed)
        }
    }

    /// A slow-loris peer: responses drip a few bytes at a time. The
    /// per-read timeout never fires (each read makes progress), so
    /// only the total request deadline bounds these.
    #[must_use]
    pub fn slow_link(seed: u64) -> Self {
        Self {
            drip_prob: 0.25,
            drip_chunk: 3,
            drip_gap_ms: 25,
            delay_prob: 0.1,
            delay_ms: 100,
            ..Self::none(seed)
        }
    }

    /// A corrupting link: garbage status lines and truncated bodies.
    #[must_use]
    pub fn lossy_link(seed: u64) -> Self {
        Self { truncate_prob: 0.15, corrupt_prob: 0.1, ..Self::none(seed) }
    }

    /// Everything at once, at moderate rates.
    #[must_use]
    pub fn chaos(seed: u64) -> Self {
        Self {
            seed,
            refuse_prob: 0.05,
            delay_prob: 0.05,
            delay_ms: 40,
            drip_prob: 0.05,
            drip_chunk: 5,
            drip_gap_ms: 10,
            truncate_prob: 0.05,
            duplicate_prob: 0.05,
            corrupt_prob: 0.05,
        }
    }

    /// Looks up a named preset (`none`, `flaky-link`, `slow-link`,
    /// `lossy-link`, `chaos`) for CLI use.
    #[must_use]
    pub fn preset(name: &str, seed: u64) -> Option<Self> {
        match name {
            "none" => Some(Self::none(seed)),
            "flaky-link" => Some(Self::flaky_link(seed)),
            "slow-link" => Some(Self::slow_link(seed)),
            "lossy-link" => Some(Self::lossy_link(seed)),
            "chaos" => Some(Self::chaos(seed)),
            _ => None,
        }
    }

    /// The preset names [`preset`](Self::preset) accepts.
    #[must_use]
    pub fn preset_names() -> &'static [&'static str] {
        &["none", "flaky-link", "slow-link", "lossy-link", "chaos"]
    }

    /// Whether any fault can fire under this plan.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.refuse_prob <= 0.0
            && self.delay_prob <= 0.0
            && self.drip_prob <= 0.0
            && self.truncate_prob <= 0.0
            && self.duplicate_prob <= 0.0
            && self.corrupt_prob <= 0.0
    }

    /// Arms the plan: a fresh injector whose operation counter starts
    /// at zero.
    #[must_use]
    pub fn injector(&self) -> NetFaultInjector {
        NetFaultInjector { plan: self.clone(), ops: AtomicU64::new(0) }
    }
}

/// What the injector decided for one transport operation. At most one
/// fault fires per operation (plus an optional leading delay), so a
/// schedule stays interpretable: each op is either clean, delayed,
/// refused, or mutated in exactly one way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetFault {
    /// No fault; proceed normally.
    None,
    /// Refuse the connection / drop it before any reply bytes.
    Refuse,
    /// Sleep this long before moving bytes, then proceed normally.
    Delay(Duration),
    /// Deliver the reply in `chunk`-byte pieces separated by `gap`.
    Drip {
        /// Bytes per chunk (>= 1).
        chunk: usize,
        /// Pause between chunks.
        gap: Duration,
    },
    /// Deliver only the head and a prefix of the body, then close.
    Truncate,
    /// Deliver the whole reply twice back to back.
    Duplicate,
    /// Replace the status line with garbage bytes.
    CorruptStatus,
}

impl NetFault {
    /// Short kind tag for events and counters.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            NetFault::None => "none",
            NetFault::Refuse => "refuse",
            NetFault::Delay(_) => "delay",
            NetFault::Drip { .. } => "drip",
            NetFault::Truncate => "truncate",
            NetFault::Duplicate => "duplicate",
            NetFault::CorruptStatus => "corrupt_status",
        }
    }
}

/// An armed [`NetFaultPlan`]: hands out one deterministic decision per
/// transport operation. Sharable across threads; the operation counter
/// is the only mutable state, so the schedule depends only on the
/// *order* operations are drawn in, never on wall-clock time.
#[derive(Debug)]
pub struct NetFaultInjector {
    plan: NetFaultPlan,
    ops: AtomicU64,
}

/// SplitMix64 finalizer, as in `rh-softmc`'s fault module: turns any
/// seed into a well-mixed value.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps one mixed draw onto `[0, 1)`.
fn unit(draw: u64) -> f64 {
    (draw >> 11) as f64 / (1u64 << 53) as f64
}

impl NetFaultInjector {
    /// The plan this injector was armed with.
    #[must_use]
    pub fn plan(&self) -> &NetFaultPlan {
        &self.plan
    }

    /// Operations decided so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Draws the decision for the next transport operation. The
    /// fault classes are checked in a fixed order against disjoint
    /// slices of one uniform draw, so at most one fires per op.
    pub fn decide(&self) -> NetFault {
        if self.plan.is_inert() {
            return NetFault::None;
        }
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let u = unit(mix(self.plan.seed ^ op.wrapping_mul(0xA24B_AED4_963E_E407)));
        let mut floor = 0.0f64;
        let mut band = |prob: f64| {
            let hit = prob > 0.0 && u >= floor && u < floor + prob;
            floor += prob.max(0.0);
            hit
        };
        let fault = if band(self.plan.refuse_prob) {
            NetFault::Refuse
        } else if band(self.plan.delay_prob) {
            NetFault::Delay(Duration::from_millis(self.plan.delay_ms))
        } else if band(self.plan.drip_prob) {
            NetFault::Drip {
                chunk: self.plan.drip_chunk.max(1),
                gap: Duration::from_millis(self.plan.drip_gap_ms),
            }
        } else if band(self.plan.truncate_prob) {
            NetFault::Truncate
        } else if band(self.plan.duplicate_prob) {
            NetFault::Duplicate
        } else if band(self.plan.corrupt_prob) {
            NetFault::CorruptStatus
        } else {
            NetFault::None
        };
        if fault != NetFault::None {
            crate::counter!(names::NETFAULT_INJECTED, 1);
            crate::event!(names::NETFAULT_EVENT, kind = fault.kind(), op = op);
        }
        fault
    }

    /// Applies a decided fault to a fully formed wire reply (status
    /// line + headers + body), returning the bytes to actually
    /// deliver. `Refuse` maps to an empty delivery (the caller should
    /// drop the connection); delay/drip do not change bytes.
    #[must_use]
    pub fn mutate_reply(&self, fault: &NetFault, raw: &[u8]) -> Vec<u8> {
        match fault {
            NetFault::Refuse => Vec::new(),
            NetFault::Truncate => {
                // Keep the head and roughly half the body so the
                // receiver sees a well-formed start that dies short of
                // its Content-Length promise.
                let head_end = raw
                    .windows(4)
                    .position(|w| w == b"\r\n\r\n")
                    .map_or(raw.len() / 2, |i| i + 4);
                let body_len = raw.len() - head_end;
                raw[..head_end + body_len / 2].to_vec()
            }
            NetFault::Duplicate => {
                let mut doubled = raw.to_vec();
                doubled.extend_from_slice(raw);
                doubled
            }
            NetFault::CorruptStatus => {
                let mut corrupted = b"XTTP/9.9 ?garbage?\r\n".to_vec();
                let keep = raw
                    .iter()
                    .position(|&b| b == b'\r')
                    .map_or(0, |i| (i + 2).min(raw.len()));
                corrupted.extend_from_slice(&raw[keep..]);
                corrupted
            }
            NetFault::None | NetFault::Delay(_) | NetFault::Drip { .. } => raw.to_vec(),
        }
    }
}

/// The process-global injector the std-only client consults. Absent by
/// default; [`install`] arms it for chaos runs.
static INJECTOR: RwLock<Option<Arc<NetFaultInjector>>> = RwLock::new(None);

/// Installs `plan` as the process-global client-side fault injector,
/// returning the armed injector (e.g. to read
/// [`NetFaultInjector::ops`] afterwards). Replaces any previous plan.
pub fn install(plan: &NetFaultPlan) -> Arc<NetFaultInjector> {
    let injector = Arc::new(plan.injector());
    let mut guard = match INJECTOR.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    *guard = Some(Arc::clone(&injector));
    injector
}

/// Removes the process-global injector, returning it if one was
/// installed.
pub fn uninstall() -> Option<Arc<NetFaultInjector>> {
    let mut guard = match INJECTOR.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    guard.take()
}

/// The currently installed global injector, if any.
#[must_use]
pub fn active() -> Option<Arc<NetFaultInjector>> {
    let guard = match INJECTOR.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    guard.clone()
}

/// An RAII guard that uninstalls the global injector on drop, so a
/// chaos run (or a test) cannot leak its plan into unrelated code.
#[derive(Debug)]
pub struct InstalledPlan {
    injector: Arc<NetFaultInjector>,
}

impl InstalledPlan {
    /// Installs `plan` globally; dropping the guard uninstalls it.
    #[must_use]
    pub fn new(plan: &NetFaultPlan) -> Self {
        Self { injector: install(plan) }
    }

    /// The armed injector (for reading the op count).
    #[must_use]
    pub fn injector(&self) -> &Arc<NetFaultInjector> {
        &self.injector
    }
}

impl Drop for InstalledPlan {
    fn drop(&mut self) {
        let _ = uninstall();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(plan: &NetFaultPlan, n: usize) -> Vec<&'static str> {
        let injector = plan.injector();
        (0..n).map(|_| injector.decide().kind()).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = NetFaultPlan::chaos(42);
        assert_eq!(schedule(&plan, 500), schedule(&plan, 500));
        let other = NetFaultPlan::chaos(43);
        assert_ne!(schedule(&plan, 500), schedule(&other, 500), "seed must matter");
    }

    #[test]
    fn inert_plan_never_fires_and_draws_no_ops() {
        let plan = NetFaultPlan::none(7);
        assert!(plan.is_inert());
        let injector = plan.injector();
        for _ in 0..100 {
            assert_eq!(injector.decide(), NetFault::None);
        }
        assert_eq!(injector.ops(), 0, "inert plans must not consume the stream");
    }

    #[test]
    fn chaos_fires_every_class_eventually() {
        let plan = NetFaultPlan::chaos(11);
        let kinds: std::collections::BTreeSet<_> = schedule(&plan, 2_000).into_iter().collect();
        for kind in ["refuse", "delay", "drip", "truncate", "duplicate", "corrupt_status", "none"]
        {
            assert!(kinds.contains(kind), "chaos never drew '{kind}': {kinds:?}");
        }
    }

    #[test]
    fn presets_resolve_and_unknown_is_none() {
        for name in NetFaultPlan::preset_names() {
            let plan = NetFaultPlan::preset(name, 3)
                .unwrap_or_else(|| panic!("preset '{name}' missing"));
            assert_eq!(plan.seed, 3);
        }
        assert!(NetFaultPlan::preset("flaky-host", 0).is_none(), "that's the PR-1 namespace");
    }

    #[test]
    fn certain_refusal_always_refuses() {
        let plan = NetFaultPlan { refuse_prob: 1.0, ..NetFaultPlan::none(0) };
        let injector = plan.injector();
        for _ in 0..50 {
            assert_eq!(injector.decide(), NetFault::Refuse);
        }
    }

    #[test]
    fn mutations_shape_the_reply_as_documented() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\nabcdefgh";
        let injector = NetFaultPlan::none(0).injector();

        let truncated = injector.mutate_reply(&NetFault::Truncate, raw);
        assert!(truncated.len() < raw.len());
        assert!(truncated.windows(4).any(|w| w == b"\r\n\r\n"), "head must survive");

        let doubled = injector.mutate_reply(&NetFault::Duplicate, raw);
        assert_eq!(doubled.len(), raw.len() * 2);
        assert_eq!(&doubled[..raw.len()], raw);

        let corrupted = injector.mutate_reply(&NetFault::CorruptStatus, raw);
        assert!(corrupted.starts_with(b"XTTP/9.9"));

        assert!(injector.mutate_reply(&NetFault::Refuse, raw).is_empty());
        assert_eq!(injector.mutate_reply(&NetFault::None, raw), raw.to_vec());
    }

    #[test]
    fn install_guard_uninstalls_on_drop() {
        let _l = crate::testlock::locked();
        {
            let guard = InstalledPlan::new(&NetFaultPlan::flaky_link(1));
            assert!(active().is_some());
            assert_eq!(guard.injector().plan().seed, 1);
        }
        assert!(active().is_none(), "guard must uninstall on drop");
    }
}
