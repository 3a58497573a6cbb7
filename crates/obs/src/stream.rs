//! Per-job lifecycle event streams: the wire layer behind the
//! worker's `GET /events?since=<seq>` endpoint and the coordinator's
//! append-only fleet journal.
//!
//! A worker owns one [`EventRing`] — a bounded buffer of
//! [`JobEvent`]s stamped with a per-worker **monotone sequence
//! number** (starting at 1, never reused, assigned under the ring
//! lock so buffer order equals seq order). Consumers poll with a
//! resume cursor (`since`) and receive a bounded JSONL batch; a
//! consumer that reconnects, times out, or re-reads after a breaker
//! trip simply re-presents its last cursor and gets at-least-once
//! delivery. The coordinator collapses that to exactly-once with
//! [`EventDedup`], keyed by `(lease_id, seq)` — lease ids are minted
//! globally unique by the coordinator, so the pair is unique across
//! the whole fleet even though seqs are per-worker.
//!
//! The codec is deliberately forgiving on the read side
//! ([`parse_events`] skips malformed or truncated lines and counts
//! them instead of failing) because a journal cut mid-record by a
//! crash, or a batch truncated by a fault-injected link, must never
//! wedge analysis. The write side is strict: one event per line, keys
//! in fixed order, strings JSON-escaped.
//!
//! Ring overflow drops the *oldest* events (the newest are the ones a
//! live consumer is about to read) and counts the loss; a consumer
//! detects the gap as a jump in `seq` and the drop count is exposed
//! as `worker.events.dropped`.

use crate::names;
use serde::Value;
use std::collections::{HashSet, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Lifecycle stage of one fleet job, as carried on the event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// Job admitted and started immediately.
    Accepted,
    /// Job admitted into the wait queue.
    Queued,
    /// Job began executing on a worker thread.
    Started,
    /// Mid-flight state change (e.g. promoted from queue to a slot).
    Progress,
    /// The job's payload observed bit flips; `value` carries how many.
    FlipFound,
    /// Job finished with a committed result (terminal).
    Committed,
    /// Job finished with an error (terminal); `detail` carries it.
    Failed,
    /// Job cancelled before or during execution (terminal).
    Cancelled,
    /// Admission control shed the job (`429`); terminal for this
    /// lease on this worker, though the coordinator will re-dispatch.
    Shed,
}

impl EventKind {
    /// Every kind, in lifecycle order.
    pub const ALL: [EventKind; 9] = [
        EventKind::Accepted,
        EventKind::Queued,
        EventKind::Started,
        EventKind::Progress,
        EventKind::FlipFound,
        EventKind::Committed,
        EventKind::Failed,
        EventKind::Cancelled,
        EventKind::Shed,
    ];

    /// Wire name (snake_case, stable).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Accepted => "accepted",
            EventKind::Queued => "queued",
            EventKind::Started => "started",
            EventKind::Progress => "progress",
            EventKind::FlipFound => "flip_found",
            EventKind::Committed => "committed",
            EventKind::Failed => "failed",
            EventKind::Cancelled => "cancelled",
            EventKind::Shed => "shed",
        }
    }

    /// Parses a wire name; unknown kinds (a newer worker talking to
    /// an older coordinator) return `None` and the record is skipped.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.as_str() == s)
    }

    /// Whether this kind ends the job's lifecycle on its worker.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            EventKind::Committed | EventKind::Failed | EventKind::Cancelled | EventKind::Shed
        )
    }
}

/// One per-job lifecycle event. `worker` is empty on the worker's own
/// wire (the consumer knows whom it polled) and filled in by the
/// coordinator when the event lands in the fleet journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobEvent {
    /// Per-worker monotone sequence number, starting at 1.
    pub seq: u64,
    /// Lease the event belongs to (0 for worker-global events).
    pub lease_id: u64,
    /// Lifecycle stage.
    pub kind: EventKind,
    /// Module the job characterizes (may be empty for shed grants
    /// rejected before decode).
    pub module: String,
    /// Microseconds since the worker's ring was created.
    pub ts_us: u64,
    /// Kind-specific magnitude: flips for [`EventKind::FlipFound`],
    /// queue depth for [`EventKind::Queued`], otherwise 0.
    pub value: u64,
    /// Kind-specific free text (error message for
    /// [`EventKind::Failed`]); empty otherwise.
    pub detail: String,
    /// Worker address, filled by the journal writer; empty on the
    /// worker wire.
    pub worker: String,
}

impl JobEvent {
    /// The event as a JSON object, keys in fixed order. `value`,
    /// `detail`, and `worker` are omitted when they hold their
    /// defaults to keep high-rate streams tight.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("seq".to_string(), Value::U64(self.seq)),
            ("lease_id".to_string(), Value::U64(self.lease_id)),
            ("kind".to_string(), Value::Str(self.kind.as_str().to_string())),
            ("module".to_string(), Value::Str(self.module.clone())),
            ("ts_us".to_string(), Value::U64(self.ts_us)),
        ];
        if self.value != 0 {
            pairs.push(("value".to_string(), Value::U64(self.value)));
        }
        for (key, text) in [("detail", &self.detail), ("worker", &self.worker)] {
            if !text.is_empty() {
                pairs.push((key.to_string(), Value::Str(text.clone())));
            }
        }
        Value::Object(pairs)
    }

    /// Renders the event as one JSONL line (trailing newline
    /// included).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        format!("{}\n", self.to_value())
    }

    /// Decodes one event from a JSON record. `None` when required
    /// fields are missing/ill-typed or the kind is unknown.
    #[must_use]
    pub fn from_json(rec: &Value) -> Option<Self> {
        let text = |key| rec.field(key).as_str().unwrap_or("").to_string();
        Some(JobEvent {
            seq: rec.field("seq").as_u64()?,
            lease_id: rec.field("lease_id").as_u64()?,
            kind: EventKind::parse(rec.field("kind").as_str()?)?,
            module: text("module"),
            ts_us: rec.field("ts_us").as_u64()?,
            value: rec.field("value").as_u64().unwrap_or(0),
            detail: text("detail"),
            worker: text("worker"),
        })
    }
}

/// Outcome of a lenient JSONL parse: the events that decoded plus a
/// count of lines that did not (truncated, corrupt, unknown kind).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedEvents {
    /// Events in input order.
    pub events: Vec<JobEvent>,
    /// Lines skipped as malformed or unknown.
    pub skipped: u64,
}

/// Parses a JSONL event batch or journal leniently: malformed lines
/// — including a final line cut mid-record by a crash or a truncated
/// HTTP body — are counted, never fatal, and never panic.
#[must_use]
pub fn parse_events(text: &str) -> ParsedEvents {
    let mut out = ParsedEvents::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<Value>(line).ok().as_ref().and_then(JobEvent::from_json) {
            Some(ev) => out.events.push(ev),
            None => out.skipped += 1,
        }
    }
    out
}

/// Exactly-once admission over an at-least-once stream: keyed by
/// `(lease_id, seq)`, which is globally unique (lease ids are minted
/// by the coordinator; seqs are monotone per worker).
#[derive(Debug, Default)]
pub struct EventDedup {
    seen: HashSet<(u64, u64)>,
}

impl EventDedup {
    /// An empty dedup set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` the first time this `(lease_id, seq)` is presented,
    /// `false` on every redelivery.
    pub fn admit(&mut self, ev: &JobEvent) -> bool {
        self.seen.insert((ev.lease_id, ev.seq))
    }

    /// Distinct events admitted so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether nothing has been admitted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

/// One bounded batch from [`EventRing::since`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventBatch {
    /// Events with `seq > cursor`, oldest first, at most `max`.
    pub events: Vec<JobEvent>,
    /// Highest seq the ring has assigned (equals the last event's seq
    /// when the batch drained the ring).
    pub last_seq: u64,
    /// Ring-lifetime count of events evicted by overflow; a consumer
    /// whose cursor fell behind sees the gap as a jump in `seq`.
    pub dropped: u64,
}

#[derive(Debug, Default)]
struct RingInner {
    events: VecDeque<JobEvent>,
    next_seq: u64,
    acked: u64,
    dropped: u64,
}

/// Bounded per-worker event buffer with monotone seq assignment and a
/// bounded long-poll read side. This is wire-protocol state, not
/// observability: it exists (and fills) whether or not the `rh-obs`
/// recorder is installed, so the disabled-observability fast path stays a
/// single relaxed load.
#[derive(Debug)]
pub struct EventRing {
    cap: usize,
    t0: Instant,
    inner: Mutex<RingInner>,
    cv: Condvar,
}

impl EventRing {
    /// A ring holding at most `cap` events (oldest evicted first).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            t0: Instant::now(),
            inner: Mutex::new(RingInner::default()),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RingInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Appends one event, assigning the next seq, and wakes waiting
    /// long-polls. Returns the assigned seq.
    pub fn emit(
        &self,
        kind: EventKind,
        lease_id: u64,
        module: &str,
        value: u64,
        detail: &str,
    ) -> u64 {
        self.emit_full(kind, lease_id, module, value, detail).seq
    }

    /// [`emit`](Self::emit), returning the full stamped event — for
    /// callers that also need to ship a byte-identical copy out of
    /// band (the worker embeds the terminal event in its Done poll
    /// reply so a consumer that never reaches `/events` still sees
    /// it; dedup by `(lease_id, seq)` collapses the two copies).
    pub fn emit_full(
        &self,
        kind: EventKind,
        lease_id: u64,
        module: &str,
        value: u64,
        detail: &str,
    ) -> JobEvent {
        let ts_us = u64::try_from(self.t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        let mut inner = self.lock();
        inner.next_seq += 1;
        let ev = JobEvent {
            seq: inner.next_seq,
            lease_id,
            kind,
            module: module.to_string(),
            ts_us,
            value,
            detail: detail.to_string(),
            worker: String::new(),
        };
        inner.events.push_back(ev.clone());
        let mut evicted = 0u64;
        while inner.events.len() > self.cap {
            inner.events.pop_front();
            inner.dropped += 1;
            evicted += 1;
        }
        drop(inner);
        self.cv.notify_all();
        if crate::enabled() {
            crate::counter!(names::WORKER_EVENTS_EMITTED, 1);
            if evicted > 0 {
                crate::counter!(names::WORKER_EVENTS_DROPPED, evicted);
            }
        }
        ev
    }

    /// Events with `seq > cursor`, oldest first, at most `max`. Also
    /// records `cursor` as the consumer's acknowledged position (the
    /// resume cursor it presented proves everything at or below it
    /// was durably received). With a nonzero `wait` and nothing new,
    /// blocks up to that long for an event to arrive (bounded
    /// long-poll).
    #[must_use]
    pub fn since(&self, cursor: u64, max: usize, wait: Duration) -> EventBatch {
        let deadline = Instant::now() + wait;
        let mut inner = self.lock();
        inner.acked = inner.acked.max(cursor);
        loop {
            if inner.next_seq > cursor || wait.is_zero() {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _timeout) = match self.cv.wait_timeout(inner, deadline - now) {
                Ok(pair) => pair,
                Err(poisoned) => poisoned.into_inner(),
            };
            inner = guard;
        }
        let events: Vec<JobEvent> =
            inner.events.iter().filter(|e| e.seq > cursor).take(max.max(1)).cloned().collect();
        EventBatch { events, last_seq: inner.next_seq, dropped: inner.dropped }
    }

    /// Highest seq assigned so far (0 before the first event).
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.lock().next_seq
    }

    /// Highest resume cursor any consumer has presented — i.e. the
    /// seq up to which delivery is acknowledged. `last_seq - acked`
    /// is the journal lag `/progress` exposes.
    #[must_use]
    pub fn acked_seq(&self) -> u64 {
        self.lock().acked
    }

    /// Ring-lifetime count of overflow-evicted events.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Renders a batch as JSONL, ready for the `/events` reply body.
    #[must_use]
    pub fn to_jsonl(events: &[JobEvent]) -> String {
        let mut out = String::with_capacity(events.len() * 96);
        for ev in events {
            out.push_str(&ev.to_json_line());
        }
        out
    }
}

/// Renders one fleet-journal line: the event with the source worker's
/// address attributed.
#[must_use]
pub fn journal_line(worker: &str, ev: &JobEvent) -> String {
    let mut stamped = ev.clone();
    stamped.worker = worker.to_string();
    stamped.to_json_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqs_are_monotone_and_batches_resume_from_cursors() {
        let ring = EventRing::new(64);
        let s1 = ring.emit(EventKind::Accepted, 7, "A0", 0, "");
        let s2 = ring.emit(EventKind::Started, 7, "A0", 0, "");
        let s3 = ring.emit(EventKind::Committed, 7, "A0", 0, "");
        assert_eq!((s1, s2, s3), (1, 2, 3));
        assert_eq!(ring.last_seq(), 3);

        let batch = ring.since(0, 100, Duration::ZERO);
        assert_eq!(batch.events.len(), 3);
        assert_eq!(batch.last_seq, 3);
        let resumed = ring.since(s2, 100, Duration::ZERO);
        assert_eq!(resumed.events.len(), 1);
        assert_eq!(resumed.events[0].kind, EventKind::Committed);
        assert_eq!(ring.acked_seq(), s2, "cursor acknowledges delivery");
        assert!(ring.since(3, 100, Duration::ZERO).events.is_empty());
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let ring = EventRing::new(2);
        for i in 0..5u64 {
            ring.emit(EventKind::Progress, i, "m", 0, "");
        }
        assert_eq!(ring.dropped(), 3);
        let batch = ring.since(0, 100, Duration::ZERO);
        let seqs: Vec<u64> = batch.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 5], "newest survive; the gap is visible in seq");
        assert_eq!(batch.dropped, 3);
    }

    #[test]
    fn jsonl_round_trips_including_escapes() {
        let ev = JobEvent {
            seq: 42,
            lease_id: 16_777_217,
            kind: EventKind::Failed,
            module: "B3".to_string(),
            ts_us: 1234,
            value: 9,
            detail: "host \"link\"\nreset\t\u{1}".to_string(),
            worker: String::new(),
        };
        let line = ev.to_json_line();
        let parsed = parse_events(&line);
        assert_eq!(parsed.skipped, 0);
        assert_eq!(parsed.events, vec![ev.clone()]);
        // Journal attribution survives too.
        let journal = journal_line("127.0.0.1:9", &ev);
        let entry = &parse_events(&journal).events[0];
        assert_eq!(entry.worker, "127.0.0.1:9");
        assert_eq!(entry.detail, ev.detail);
    }

    #[test]
    fn one_codec_round_trips_every_kind_and_pins_the_wire_bytes() {
        for kind in EventKind::ALL {
            let bare = JobEvent {
                seq: 1,
                lease_id: u64::MAX - 1,
                kind,
                module: String::new(),
                ts_us: 0,
                value: 0,
                detail: String::new(),
                worker: String::new(),
            };
            let full = JobEvent {
                module: "A0".to_string(),
                value: 7,
                detail: "d".to_string(),
                worker: "127.0.0.1:1".to_string(),
                ..bare.clone()
            };
            for ev in [bare, full] {
                assert_eq!(JobEvent::from_json(&ev.to_value()), Some(ev.clone()));
            }
        }
        let ev = JobEvent {
            seq: 2,
            lease_id: 3,
            kind: EventKind::Failed,
            module: "B1".to_string(),
            ts_us: 4,
            value: 0,
            detail: "a\"b\\c\u{1}".to_string(),
            worker: String::new(),
        };
        assert_eq!(
            ev.to_json_line(),
            "{\"seq\":2,\"lease_id\":3,\"kind\":\"failed\",\"module\":\"B1\",\"ts_us\":4,\
             \"detail\":\"a\\\"b\\\\c\\u0001\"}\n"
        );
    }

    #[test]
    fn lenient_parse_skips_garbage_and_truncation() {
        let good = JobEvent {
            seq: 1,
            lease_id: 2,
            kind: EventKind::Accepted,
            module: "m".to_string(),
            ts_us: 3,
            value: 0,
            detail: String::new(),
            worker: String::new(),
        }
        .to_json_line();
        let mut text = String::new();
        text.push_str(&good);
        text.push_str("not json at all\n");
        text.push_str("{\"seq\":9,\"kind\":\"warp\",\"lease_id\":1,\"ts_us\":0}\n");
        text.push_str(&good[..good.len() - 7]); // cut mid-record
        let parsed = parse_events(&text);
        assert_eq!(parsed.events.len(), 1);
        assert_eq!(parsed.skipped, 3);
    }

    #[test]
    fn dedup_collapses_at_least_once_to_exactly_once() {
        let ring = EventRing::new(16);
        ring.emit(EventKind::Accepted, 5, "m", 0, "");
        ring.emit(EventKind::Committed, 5, "m", 0, "");
        let batch = ring.since(0, 100, Duration::ZERO);
        let mut dedup = EventDedup::new();
        let mut admitted = 0;
        // The consumer crashes and replays the same batch three times.
        for _ in 0..3 {
            for ev in &batch.events {
                if dedup.admit(ev) {
                    admitted += 1;
                }
            }
        }
        assert_eq!(admitted, 2);
        assert_eq!(dedup.len(), 2);
        // A different lease with the same seq is a different event.
        let other = JobEvent { lease_id: 6, ..batch.events[0].clone() };
        assert!(dedup.admit(&other));
    }

    #[test]
    fn long_poll_wakes_on_emit() {
        let ring = std::sync::Arc::new(EventRing::new(16));
        let reader = {
            let ring = std::sync::Arc::clone(&ring);
            std::thread::spawn(move || ring.since(0, 10, Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(30));
        ring.emit(EventKind::Accepted, 1, "m", 0, "");
        let batch = reader.join().unwrap_or_else(|_| panic!("reader panicked"));
        assert_eq!(batch.events.len(), 1, "long-poll must wake on emit, not time out");
    }

    #[test]
    fn kind_wire_names_round_trip_and_terminality_is_stable() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::parse(kind.as_str()), Some(kind));
        }
        assert!(EventKind::parse("warp").is_none());
        let terminal: Vec<EventKind> =
            EventKind::ALL.into_iter().filter(|k| k.is_terminal()).collect();
        assert_eq!(
            terminal,
            vec![EventKind::Committed, EventKind::Failed, EventKind::Cancelled, EventKind::Shed]
        );
    }
}
