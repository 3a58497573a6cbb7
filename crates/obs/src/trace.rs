//! Distributed trace identity: process-unique trace/span IDs, the
//! thread-local current-span context, and the W3C-traceparent-style
//! wire format that carries a context across the fleet's HTTP pair.
//!
//! # Model
//!
//! Every *enabled* [`crate::span`] mints a process-unique 64-bit span
//! ID and joins the thread's current trace (minting a fresh 128-bit
//! trace ID when the thread has none). The guard saves the previous
//! `(trace, span)` pair and restores it on drop, so nesting on one
//! thread builds parent links without any heap stack. A thread that
//! executes work on behalf of a *remote* span (a worker job thread)
//! calls [`set_remote_parent`] first; its spans then join the remote
//! trace with the remote span as parent — this is what stitches
//! coordinator dispatch → worker job → kernel spans into one causal
//! tree across processes.
//!
//! When observability is disabled, none of this runs: `span()` stays
//! at one relaxed atomic load, reads no clock, and mints no IDs (the
//! `disabled_overhead` test gates this at < 50 ns/op in release).
//!
//! # Wire format
//!
//! [`format_traceparent`]/[`parse_traceparent`] implement the W3C
//! `traceparent` shape: `00-{trace:032x}-{span:016x}-01` — version
//! `00`, lowercase hex, all-zero IDs invalid. Parsing is strict and
//! total: any malformed input yields `None`, never a panic (fuzzed in
//! `tests/traceparent_fuzz.rs` alongside the faultnet corruption
//! classes).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The identity of one span in a distributed trace. `parent_id == 0`
/// marks a root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanIds {
    /// 128-bit trace the span belongs to (0 = untraced).
    pub trace_id: u128,
    /// Process-unique 64-bit span ID.
    pub span_id: u64,
    /// The parent span's ID within the same trace (0 = root).
    pub parent_id: u64,
}

impl SpanIds {
    /// The all-zero (untraced) identity.
    #[must_use]
    pub const fn none() -> Self {
        Self { trace_id: 0, span_id: 0, parent_id: 0 }
    }

    /// Whether this span carries a live trace identity.
    #[must_use]
    pub fn is_traced(&self) -> bool {
        self.trace_id != 0
    }
}

/// A propagated `(trace, span)` pair — what a traceparent header
/// carries, and what child spans adopt as their parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace being continued.
    pub trace_id: u128,
    /// The span that is the remote parent.
    pub span_id: u64,
}

thread_local! {
    /// The thread's current `(trace_id, span_id)`; `(0, 0)` = none.
    static CURRENT: Cell<(u128, u64)> = const { Cell::new((0, 0)) };
}

/// Monotonic per-process draw for ID minting.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// SplitMix64 finalizer (same mixer the fault planners use).
fn mix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lazily drawn per-process entropy: `RandomState` is seeded fresh
/// per process, so two workers spawned in the same nanosecond still
/// mint disjoint IDs. No new dependencies, no syscall per span.
fn process_entropy() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        use std::hash::{BuildHasher as _, Hasher as _};
        let mut h = std::collections::hash_map::RandomState::new().build_hasher();
        h.write_u32(std::process::id());
        h.finish() | 1
    })
}

/// Mints a nonzero process-unique 64-bit span ID.
#[must_use]
pub fn mint_span_id() -> u64 {
    let draw = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    mix64(process_entropy() ^ draw).max(1)
}

/// Mints a nonzero 128-bit trace ID.
#[must_use]
pub fn mint_trace_id() -> u128 {
    (u128::from(mint_span_id()) << 64) | u128::from(mint_span_id())
}

/// The thread's current trace context, if any — what the HTTP client
/// injects as a `Traceparent` header on outgoing requests.
#[must_use]
pub fn current_context() -> Option<TraceContext> {
    let (trace_id, span_id) = CURRENT.try_with(Cell::get).unwrap_or((0, 0));
    (trace_id != 0).then_some(TraceContext { trace_id, span_id })
}

/// Adopts `ctx` as this thread's current context, so subsequent spans
/// join the remote trace with `ctx.span_id` as their parent. Intended
/// for threads that execute one remote job and then exit (the worker
/// spawns a fresh thread per job); a long-lived thread should restore
/// the previous context itself via a second call.
pub fn set_remote_parent(ctx: TraceContext) {
    let _ = CURRENT.try_with(|c| c.set((ctx.trace_id, ctx.span_id)));
}

/// Opens a span scope: mints IDs, joins (or starts) the thread's
/// trace, and swaps the current context. Returns the new span's IDs
/// and the previous context for [`exit_span`]. Only called on the
/// enabled path.
pub(crate) fn enter_span() -> (SpanIds, (u128, u64)) {
    let prev = CURRENT.try_with(Cell::get).unwrap_or((0, 0));
    let trace_id = if prev.0 != 0 { prev.0 } else { mint_trace_id() };
    let span_id = mint_span_id();
    let ids = SpanIds { trace_id, span_id, parent_id: prev.1 };
    let _ = CURRENT.try_with(|c| c.set((trace_id, span_id)));
    (ids, prev)
}

/// Restores the context saved by [`enter_span`].
pub(crate) fn exit_span(prev: (u128, u64)) {
    let _ = CURRENT.try_with(|c| c.set(prev));
}

/// Renders `ctx` in the W3C traceparent shape:
/// `00-{trace:032x}-{span:016x}-01`.
#[must_use]
pub fn format_traceparent(ctx: TraceContext) -> String {
    format!("00-{:032x}-{:016x}-01", ctx.trace_id, ctx.span_id)
}

/// Strict hex decode: exactly `digits` lowercase ASCII hex characters.
fn parse_hex_strict(s: &str, digits: usize) -> Option<u128> {
    if s.len() != digits {
        return None;
    }
    let mut value: u128 = 0;
    for b in s.bytes() {
        let nibble = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            // Uppercase is invalid per the W3C grammar; rejecting it
            // keeps parse(format(x)) the only round-trip.
            _ => return None,
        };
        value = (value << 4) | u128::from(nibble);
    }
    Some(value)
}

/// Parses a traceparent header value. Strict and total: version must
/// be `00`, IDs must be exact-length lowercase hex and nonzero, the
/// flags field must be two hex digits. Anything else — truncation,
/// corruption, uppercase, embedded NULs — yields `None`.
#[must_use]
pub fn parse_traceparent(value: &str) -> Option<TraceContext> {
    let value = value.trim();
    // "00-" + 32 + "-" + 16 + "-" + 2 = 55 bytes exactly.
    if value.len() != 55 {
        return None;
    }
    let mut parts = value.split('-');
    let (version, trace, span, flags) =
        (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
    if parts.next().is_some() || version != "00" {
        return None;
    }
    let trace_id = parse_hex_strict(trace, 32)?;
    let span_id = parse_hex_strict(span, 16)? as u64;
    parse_hex_strict(flags, 2)?;
    if trace_id == 0 || span_id == 0 {
        return None;
    }
    Some(TraceContext { trace_id, span_id })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minted_ids_are_nonzero_and_distinct() {
        let a = mint_span_id();
        let b = mint_span_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        let t = mint_trace_id();
        assert_ne!(t, 0);
        assert!(t >> 64 != 0, "high half must carry entropy");
    }

    #[test]
    fn traceparent_round_trips() {
        let ctx = TraceContext { trace_id: mint_trace_id(), span_id: mint_span_id() };
        let wire = format_traceparent(ctx);
        assert_eq!(wire.len(), 55);
        assert_eq!(parse_traceparent(&wire), Some(ctx));
        // Surrounding whitespace (header trimming) is tolerated.
        assert_eq!(parse_traceparent(&format!("  {wire} ")), Some(ctx));
    }

    #[test]
    fn malformed_traceparents_are_rejected() {
        let ctx = TraceContext { trace_id: 0xabc, span_id: 0xdef };
        let wire = format_traceparent(ctx);
        for bad in [
            "",
            "00",
            &wire[..54],                          // truncated
            &format!("{wire}0"),                  // too long
            &wire.to_uppercase(),                 // uppercase hex
            &wire.replace("00-", "01-"),          // wrong version
            &wire.replacen('a', "g", 1),          // non-hex digit
            "00-00000000000000000000000000000000-0000000000000def-01", // zero trace
            "00-00000000000000000000000000000abc-0000000000000000-01", // zero span
        ] {
            assert_eq!(parse_traceparent(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn remote_parent_is_adopted_by_the_thread() {
        let ctx = TraceContext { trace_id: 7, span_id: 9 };
        std::thread::spawn(move || {
            assert_eq!(current_context(), None);
            set_remote_parent(ctx);
            assert_eq!(current_context(), Some(ctx));
            let (ids, prev) = enter_span();
            assert_eq!(ids.trace_id, 7);
            assert_eq!(ids.parent_id, 9);
            assert_ne!(ids.span_id, 9);
            exit_span(prev);
            assert_eq!(current_context(), Some(ctx));
        })
        .join()
        .unwrap_or_else(|_| panic!("trace thread panicked"));
    }
}
