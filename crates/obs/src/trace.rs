//! Span-based request tracing with deterministic trace IDs, and the one
//! timer every measured interval goes through.
//!
//! ## Trace IDs
//!
//! Every request gets a [`TraceId`]: the client's `X-Trace-Id` header when
//! it supplies a well-formed one, otherwise an ID minted by [`TraceIdGen`]
//! — the workspace's SplitMix64 mix (the same constants as
//! `routes-gen`'s RNG) applied to an atomic counter. There is no wall
//! clock and no OS randomness in the minting path, so a fixed seed yields
//! a fixed ID sequence: tests and replay runs are deterministic.
//!
//! ## Spans and timers
//!
//! A span is a named interval measured on the monotonic clock
//! ([`std::time::Instant`]). One guard, [`Span`], measures it once and
//! feeds every view from that reading when it ends: an optional
//! histogram sink (count and µs total), the current request's per-name
//! totals ([`current_total_us`], the slow-request breakdown), the
//! tracer's ring buffer when tracing is on, and — while it is open — the
//! sampling profiler's frame stack. [`span`] opens one without a sink: it
//! reads no clock unless tracing records it. [`timer`] always reads the
//! clock. Intervals measured elsewhere (a chase's wall time, an admission
//! queue wait, a lock wait) enter the same views through [`record`].
//!
//! The ring is a mutex around preallocated [`SpanRecord`] slots — records
//! are `Copy`, a push is a slot overwrite, and the hot path allocates
//! nothing after startup. At capacity the ring overwrites oldest-first.
//!
//! ## Context propagation
//!
//! The current request's [`TraceCtx`] (with its totals) lives in a
//! thread-local. The server installs it for the duration of a request
//! ([`scoped`]); `routes-pool` carries a copy onto its scoped workers so
//! spans opened inside a parallel region still land under the request's
//! trace ID (the totals stay with the request's own thread).

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::{env_number, micros, Histogram};

/// Environment variable disabling tracing (`0` / `off` / `false`).
pub const TRACE_ENV: &str = "ROUTES_TRACE";

/// Environment variable sizing the span ring buffer.
pub const TRACE_SPANS_ENV: &str = "ROUTES_TRACE_SPANS";

/// Environment variable seeding minted trace IDs (tests pin sequences).
pub const TRACE_SEED_ENV: &str = "ROUTES_TRACE_SEED";

/// Environment variable for the slow-request threshold in milliseconds.
pub const SLOW_MS_ENV: &str = "ROUTES_SLOW_MS";

/// Default slow-request threshold (milliseconds).
pub const DEFAULT_SLOW_MS: u64 = 500;

/// Default ring capacity: at ~88 bytes a slot this is a fixed ~90 KiB.
pub const DEFAULT_TRACE_SPANS: usize = 1024;

/// Longest accepted client-supplied trace ID (bytes); IDs are stored
/// inline in ring slots, so this bounds the slot size.
pub const MAX_TRACE_ID_LEN: usize = 64;

/// The slow-request threshold: `ROUTES_SLOW_MS` or [`DEFAULT_SLOW_MS`].
pub fn slow_threshold_from_env() -> Duration {
    Duration::from_millis(env_number(SLOW_MS_ENV).unwrap_or(DEFAULT_SLOW_MS))
}

/// A trace identifier, stored inline (no allocation on the hot path).
/// Client-supplied IDs are accepted when 1..=[`MAX_TRACE_ID_LEN`] bytes of
/// `[A-Za-z0-9._-]`; minted IDs are 16 lowercase hex digits.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct TraceId {
    bytes: [u8; MAX_TRACE_ID_LEN],
    len: u8,
}

impl TraceId {
    /// Accept a client-supplied ID, or reject (`None`) anything that could
    /// not round-trip through a header and a JSON log line unescaped.
    pub fn parse(s: &str) -> Option<TraceId> {
        let raw = s.as_bytes();
        if raw.is_empty() || raw.len() > MAX_TRACE_ID_LEN {
            return None;
        }
        if !raw
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
        {
            return None;
        }
        let mut bytes = [0u8; MAX_TRACE_ID_LEN];
        bytes[..raw.len()].copy_from_slice(raw);
        Some(TraceId {
            bytes,
            len: raw.len() as u8,
        })
    }

    fn from_u64(x: u64) -> TraceId {
        let mut bytes = [0u8; MAX_TRACE_ID_LEN];
        for (i, slot) in bytes.iter_mut().take(16).enumerate() {
            let nibble = ((x >> (60 - 4 * i)) & 0xF) as u8;
            *slot = if nibble < 10 {
                b'0' + nibble
            } else {
                b'a' + (nibble - 10)
            };
        }
        TraceId { bytes, len: 16 }
    }

    pub fn as_str(&self) -> &str {
        // Construction only admits ASCII, so this cannot fail.
        std::str::from_utf8(&self.bytes[..usize::from(self.len)]).unwrap_or("")
    }
}

impl fmt::Debug for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TraceId({})", self.as_str())
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The SplitMix64 output mix — the same constants as `routes-gen`'s RNG,
/// re-stated here so `routes-obs` stays dependency-free.
fn splitmix64(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const SPLITMIX_GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Deterministic trace-ID minting: the k-th minted ID is
/// `splitmix64(seed + k * GOLDEN)`, exactly the k-th output of the
/// workspace RNG seeded with `seed`.
pub struct TraceIdGen {
    seed: u64,
    counter: AtomicU64,
}

impl TraceIdGen {
    pub fn new(seed: u64) -> TraceIdGen {
        TraceIdGen {
            seed,
            counter: AtomicU64::new(0),
        }
    }

    /// Mint the next ID (16 hex digits). Allocation-free.
    pub fn mint(&self) -> TraceId {
        let k = self.counter.fetch_add(1, Relaxed).wrapping_add(1);
        TraceId::from_u64(splitmix64(
            self.seed.wrapping_add(SPLITMIX_GOLDEN.wrapping_mul(k)),
        ))
    }
}

/// One completed span. `Copy`, fixed-size: ring slots are preallocated and
/// a push is a slot overwrite.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    pub trace: TraceId,
    /// Span name (a static seam name: `request`, `chase`, `wal_fsync`, …).
    pub name: &'static str,
    /// Start offset (µs) on the tracer's monotonic clock.
    pub start_us: u64,
    /// Duration in microseconds (truncated).
    pub dur_us: u64,
}

struct Ring {
    slots: Vec<SpanRecord>,
    capacity: usize,
    /// Next slot to overwrite.
    next: usize,
    /// Slots holding real records (== capacity once wrapped).
    filled: usize,
}

impl Ring {
    fn push(&mut self, record: SpanRecord) {
        self.slots[self.next] = record;
        self.next = (self.next + 1) % self.capacity;
        self.filled = (self.filled + 1).min(self.capacity);
    }

    /// The most recent `min(limit, filled)` records in chronological
    /// (oldest-first) order. Copies only what it returns — `GET /trace`
    /// with a small `?limit=` no longer clones the whole ring under the
    /// mutex.
    fn recent_limited(&self, limit: usize) -> Vec<SpanRecord> {
        let take = limit.min(self.filled);
        let mut out = Vec::with_capacity(take);
        let oldest = (self.next + self.capacity - take) % self.capacity;
        for i in 0..take {
            out.push(self.slots[(oldest + i) % self.capacity]);
        }
        out
    }

    fn recent(&self) -> Vec<SpanRecord> {
        self.recent_limited(self.filled)
    }
}

/// The span sink: an enabled flag, a monotonic origin, the ID generator,
/// and the ring buffer of completed spans.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    ids: TraceIdGen,
    ring: Mutex<Ring>,
}

impl Tracer {
    /// An enabled tracer with `capacity` ring slots (clamped to ≥ 1) and a
    /// fixed minting seed.
    pub fn new(capacity: usize, seed: u64) -> Tracer {
        let capacity = capacity.max(1);
        let blank = SpanRecord {
            trace: TraceId::from_u64(0),
            name: "",
            start_us: 0,
            dur_us: 0,
        };
        Tracer {
            enabled: true,
            origin: Instant::now(),
            ids: TraceIdGen::new(seed),
            ring: Mutex::new(Ring {
                slots: vec![blank; capacity],
                capacity,
                next: 0,
                filled: 0,
            }),
        }
    }

    /// A tracer that mints IDs but records no spans (tracing off).
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new(1, 0)
        }
    }

    /// Configure from the environment: capacity from `ROUTES_TRACE_SPANS`
    /// (unless `capacity_override` is `Some`), seed from
    /// `ROUTES_TRACE_SEED` (default 0), disabled when `ROUTES_TRACE` is
    /// `0` / `off` / `false`.
    pub fn from_env(capacity_override: Option<usize>) -> Tracer {
        let capacity = capacity_override.unwrap_or_else(|| {
            env_number(TRACE_SPANS_ENV)
                .filter(|&n| n > 0)
                .unwrap_or(DEFAULT_TRACE_SPANS)
        });
        let seed = env_number(TRACE_SEED_ENV).unwrap_or(0);
        let off = std::env::var(TRACE_ENV)
            .map(|v| {
                matches!(
                    v.trim().to_ascii_lowercase().as_str(),
                    "0" | "off" | "false"
                )
            })
            .unwrap_or(false);
        let mut tracer = Tracer::new(capacity, seed);
        tracer.enabled = !off;
        tracer
    }

    /// Whether spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Ring capacity in spans.
    pub fn capacity(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).capacity
    }

    /// Begin a trace context for one request: honor a well-formed supplied
    /// ID, else mint. IDs are minted even when tracing is disabled — every
    /// response carries `X-Trace-Id` regardless.
    pub fn begin(self: &Arc<Tracer>, supplied: Option<&str>) -> TraceCtx {
        let id = supplied
            .and_then(TraceId::parse)
            .unwrap_or_else(|| self.ids.mint());
        TraceCtx {
            tracer: Arc::clone(self),
            id,
            totals: Totals::EMPTY,
        }
    }

    /// Record a completed span. No-op when disabled; otherwise one mutex
    /// acquisition and one slot overwrite — no allocation.
    pub fn record(&self, trace: TraceId, name: &'static str, start: Instant, dur: Duration) {
        if !self.enabled {
            return;
        }
        let start_us = micros(start.saturating_duration_since(self.origin));
        let dur_us = micros(dur);
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(SpanRecord {
                trace,
                name,
                start_us,
                dur_us,
            });
    }

    /// Completed spans, oldest first (what `GET /trace` serves).
    pub fn recent(&self) -> Vec<SpanRecord> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).recent()
    }

    /// The most recent `limit` completed spans, oldest first. Copies at
    /// most `limit` records under the ring mutex.
    pub fn recent_limited(&self, limit: usize) -> Vec<SpanRecord> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .recent_limited(limit)
    }
}

/// One request's trace identity: the tracer, the request's ID, and the
/// per-name totals of the intervals recorded under it. Cloning is an
/// `Arc` bump and a fixed-size copy — no allocation.
#[derive(Clone)]
pub struct TraceCtx {
    tracer: Arc<Tracer>,
    id: TraceId,
    totals: Totals,
}

/// How many distinct interval names one context totals; a name past the
/// last slot is not totaled (the service records about a dozen).
const TOTAL_SLOTS: usize = 16;

/// Per-name µs totals in inline slots: installing or copying a context
/// allocates nothing.
#[derive(Clone, Copy)]
struct Totals {
    len: usize,
    slots: [(&'static str, u64); TOTAL_SLOTS],
}

impl Totals {
    const EMPTY: Totals = Totals {
        len: 0,
        slots: [("", 0); TOTAL_SLOTS],
    };

    fn add(&mut self, name: &'static str, us: u64) {
        match self.slots[..self.len].iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total = total.saturating_add(us),
            None if self.len < TOTAL_SLOTS => {
                self.slots[self.len] = (name, us);
                self.len += 1;
            }
            None => {}
        }
    }

    fn get(&self, name: &str) -> u64 {
        self.slots[..self.len]
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, us)| us)
    }
}

impl TraceCtx {
    pub fn id(&self) -> TraceId {
        self.id
    }
}

thread_local! {
    static CURRENT: RefCell<Option<TraceCtx>> = const { RefCell::new(None) };
}

/// Replace the thread's current trace context, returning the previous one.
fn set_current(ctx: Option<TraceCtx>) -> Option<TraceCtx> {
    CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), ctx))
}

/// The thread's current trace context, if any.
pub fn current() -> Option<TraceCtx> {
    CURRENT.with(|c| c.borrow().clone())
}

/// The current trace ID, if a context is installed (used to stamp error
/// bodies and log lines).
pub fn current_trace_id() -> Option<TraceId> {
    CURRENT.with(|c| c.borrow().as_ref().map(TraceCtx::id))
}

/// RAII installation of a trace context: restores the previous context on
/// drop (nesting-safe, including across `routes-pool` workers).
pub struct ScopedCtx {
    prev: Option<TraceCtx>,
}

/// Install `ctx` as the thread's current context for the returned guard's
/// lifetime.
pub fn scoped(ctx: Option<TraceCtx>) -> ScopedCtx {
    ScopedCtx {
        prev: set_current(ctx),
    }
}

impl Drop for ScopedCtx {
    fn drop(&mut self) {
        set_current(self.prev.take());
    }
}

/// The one timer: an open interval that, when it ends, feeds every view
/// from a single clock reading — the histogram sink (count and µs total),
/// the current context's per-name totals, and the trace ring when tracing
/// is on. While it is open and the sampling profiler runs, its name is a
/// frame on the thread's profiler stack.
pub struct Span<'s> {
    name: &'static str,
    sink: Option<&'s Histogram>,
    /// `None` for a clock-free span (no sink, tracing off or no context).
    start: Option<Instant>,
    frame_pushed: bool,
}

/// Open a span with no sink under the thread's current trace context. It
/// reads no clock unless the context's tracer records spans.
pub fn span(name: &'static str) -> Span<'static> {
    let recording = CURRENT.with(|c| c.borrow().as_ref().is_some_and(|t| t.tracer.enabled));
    Span::open(name, None, recording)
}

/// Open a timer: a span that always reads the clock and, when it ends,
/// also feeds `sink`.
pub fn timer<'s>(name: &'static str, sink: Option<&'s Histogram>) -> Span<'s> {
    Span::open(name, sink, true)
}

impl<'s> Span<'s> {
    fn open(name: &'static str, sink: Option<&'s Histogram>, clocked: bool) -> Span<'s> {
        let frame_pushed = crate::profile::push_frame(name);
        Span {
            name,
            sink,
            start: clocked.then(Instant::now),
            frame_pushed,
        }
    }

    /// Whether this span reads the clock (a timer, or a recording tracer).
    pub fn is_recording(&self) -> bool {
        self.start.is_some()
    }

    /// End the span now and return its duration (zero when clock-free).
    pub fn end(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        if std::mem::take(&mut self.frame_pushed) {
            crate::profile::pop_frame();
        }
        let Some(start) = self.start.take() else {
            return Duration::ZERO;
        };
        let dur = start.elapsed();
        feed(self.name, self.sink, Some(start), dur);
        dur
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

/// Record an interval the caller measured itself, ending now and lasting
/// `dur`: it feeds what a [`Span`] feeds except the profiler frame. Its
/// ring record, when tracing is on, starts `dur` before now.
pub fn record(name: &'static str, sink: Option<&Histogram>, dur: Duration) {
    feed(name, sink, None, dur);
}

/// The µs total of the `name` intervals recorded on this thread under
/// its current trace context (0 without one).
pub fn current_total_us(name: &str) -> u64 {
    CURRENT.with(|c| c.borrow().as_ref().map_or(0, |ctx| ctx.totals.get(name)))
}

fn feed(name: &'static str, sink: Option<&Histogram>, start: Option<Instant>, dur: Duration) {
    let us = micros(dur);
    if let Some(sink) = sink {
        sink.record(us);
    }
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow_mut().as_mut() {
            ctx.totals.add(name, us);
            if ctx.tracer.enabled {
                let start = start.unwrap_or_else(|| {
                    let now = Instant::now();
                    now.checked_sub(dur).unwrap_or(now)
                });
                ctx.tracer.record(ctx.id, name, start, dur);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minted_ids_match_the_workspace_splitmix64_sequence() {
        // routes-gen's rng.rs pins seed 0's first output to this value;
        // the trace-ID generator must agree digit for digit.
        let ids = TraceIdGen::new(0);
        assert_eq!(ids.mint().as_str(), "e220a8397b1dcdaf");
        // Deterministic: a fresh generator with the same seed repeats.
        let again = TraceIdGen::new(0);
        assert_eq!(again.mint().as_str(), "e220a8397b1dcdaf");
        // Distinct seeds, distinct streams.
        assert_ne!(TraceIdGen::new(1).mint(), TraceIdGen::new(2).mint());
    }

    #[test]
    fn client_ids_are_validated_and_stored_inline() {
        assert_eq!(
            TraceId::parse("abc-DEF_0.9").unwrap().as_str(),
            "abc-DEF_0.9"
        );
        assert!(TraceId::parse("").is_none());
        assert!(TraceId::parse("has space").is_none());
        assert!(TraceId::parse("quote\"").is_none());
        assert!(TraceId::parse(&"x".repeat(MAX_TRACE_ID_LEN)).is_some());
        assert!(TraceId::parse(&"x".repeat(MAX_TRACE_ID_LEN + 1)).is_none());
    }

    #[test]
    fn ring_evicts_oldest_first_at_capacity() {
        let tracer = Arc::new(Tracer::new(4, 0));
        let t0 = Instant::now();
        for k in 0..7u64 {
            let ctx = tracer.begin(None);
            tracer.record(ctx.id(), "request", t0, Duration::from_micros(k));
        }
        let recent = tracer.recent();
        assert_eq!(recent.len(), 4);
        let durs: Vec<u64> = recent.iter().map(|s| s.dur_us).collect();
        assert_eq!(durs, vec![3, 4, 5, 6], "oldest three were overwritten");
    }

    #[test]
    fn spans_record_under_the_scoped_context_only() {
        let tracer = Arc::new(Tracer::new(16, 7));
        let ctx = tracer.begin(Some("my-trace"));
        assert_eq!(ctx.id().as_str(), "my-trace");
        {
            let _guard = scoped(Some(ctx.clone()));
            assert_eq!(current_trace_id().unwrap().as_str(), "my-trace");
            let _span = span("chase");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(current_trace_id().is_none(), "guard restored the context");
        let inert = span("ignored");
        assert!(!inert.is_recording());
        drop(inert);
        let spans = tracer.recent();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "chase");
        assert_eq!(spans[0].trace.as_str(), "my-trace");
        assert!(spans[0].dur_us >= 1_000);
    }

    #[test]
    fn disabled_tracer_mints_ids_but_records_nothing() {
        let tracer = Arc::new(Tracer::disabled());
        let ctx = tracer.begin(None);
        assert_eq!(ctx.id().as_str().len(), 16);
        let _guard = scoped(Some(ctx.clone()));
        {
            let s = span("chase");
            assert!(!s.is_recording());
        }
        assert_eq!(
            current_total_us("chase"),
            0,
            "a clock-free span totals nothing"
        );
        record("request", None, Duration::from_millis(2));
        assert!(tracer.recent().is_empty());
        assert_eq!(current_total_us("request"), 2_000);
    }

    #[test]
    fn one_timer_feeds_the_sink_the_totals_and_the_ring() {
        static BOUNDS: [u64; 1] = [1_000_000];
        let sink = Histogram::new(&BOUNDS);
        for tracer in [Tracer::new(16, 0), Tracer::disabled()] {
            let tracer = Arc::new(tracer);
            let _guard = scoped(Some(tracer.begin(Some("timed"))));
            let timed = timer("chase", Some(&sink));
            assert!(timed.is_recording(), "a timer reads the clock");
            std::thread::sleep(Duration::from_millis(1));
            let first = micros(timed.end());
            record("chase", Some(&sink), Duration::from_micros(7));
            record("edit", None, Duration::from_micros(5));
            assert!(first >= 1_000);
            assert_eq!(current_total_us("chase"), first + 7);
            assert_eq!(current_total_us("edit"), 5);
            let ring: Vec<(&str, u64)> =
                tracer.recent().iter().map(|r| (r.name, r.dur_us)).collect();
            if tracer.is_enabled() {
                assert_eq!(ring, [("chase", first), ("chase", 7), ("edit", 5)]);
            } else {
                assert!(ring.is_empty());
            }
        }
        assert_eq!(sink.counts().sum::<u64>(), 4, "two samples per tracer");
        assert_eq!(current_total_us("chase"), 0, "totals belong to the context");
    }

    #[test]
    fn totals_past_the_slot_limit_are_dropped_not_misfiled() {
        const NAMES: [&str; TOTAL_SLOTS + 1] = [
            "n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8", "n9", "n10", "n11", "n12", "n13",
            "n14", "n15", "n16",
        ];
        let mut totals = Totals::EMPTY;
        for (k, name) in NAMES.into_iter().enumerate() {
            totals.add(name, k as u64 + 1);
        }
        totals.add("n3", 10);
        assert_eq!(totals.get("n3"), 14);
        assert_eq!(totals.get("n15"), 16);
        assert_eq!(totals.get("n16"), 0);
    }

    #[test]
    fn malformed_supplied_ids_fall_back_to_minting() {
        let tracer = Arc::new(Tracer::new(4, 0));
        let ctx = tracer.begin(Some("bad header value"));
        assert_eq!(ctx.id().as_str(), "e220a8397b1dcdaf");
    }
}
