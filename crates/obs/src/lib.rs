//! `routes-obs` — the observability substrate for the route-debugging
//! service, std-only like the rest of the workspace (DESIGN.md §5).
//!
//! Small pieces, each usable on its own:
//!
//! * [`mod@log`] — leveled structured logging: one JSON object per line on
//!   stderr, filtered by `ROUTES_LOG` / [`log::set_level`]. Log lines
//!   automatically carry the emitting thread's trace ID.
//! * [`trace`] — span-based request tracing: deterministic SplitMix64
//!   trace IDs, a thread-local trace context propagated across
//!   `routes-pool` workers, a fixed-capacity preallocated ring buffer
//!   of completed spans (`GET /trace` serves it), and the one timer
//!   ([`Span`], [`record`]) whose single clock reading feeds the ring,
//!   the profiler's frame stack, a histogram and the request's per-name
//!   totals.
//! * [`hist`] — the fixed-bucket atomic [`Histogram`] behind every
//!   latency histogram the service renders.
//! * [`prom`] — Prometheus text-format exposition helpers (`# HELP` /
//!   `# TYPE` families, label escaping, cumulative histogram buckets,
//!   bucket exemplars) for `GET /metrics?format=prometheus`.
//! * [`profile`] — a sampling wall-clock self-profiler: a ticker thread
//!   snapshots every worker's open-span stack into flamegraph-collapsed
//!   counts (`GET /profile` serves them). Off by default; off ⇒ every
//!   hook is a single relaxed atomic load.
//!
//! This crate sits below `routes-pool`, `routes-store`, and
//! `routes-server` in the dependency graph and depends on nothing, so any
//! layer can emit spans and logs without cycles.

pub mod hist;
pub mod log;
pub mod profile;
pub mod prom;
pub mod trace;

pub use hist::{micros, Histogram};
pub use log::{log, push_json_string, set_level, set_sink, Level, Value, LOG_ENV};
pub use profile::{
    adopt_frames, collect as profile_collect, manual_profile, profile_hz_from_env,
    profiler_enabled, reset_samples, sample_once, snapshot_frames, start_sampler, AdoptedFrames,
    ProfileSnapshot, Sampler, MAX_PROFILE_HZ, PROFILE_HZ_ENV,
};
pub use prom::{PromText, PROMETHEUS_CONTENT_TYPE};
pub use trace::{
    current, current_total_us, current_trace_id, record, scoped, slow_threshold_from_env, span,
    timer, ScopedCtx, Span, SpanRecord, TraceCtx, TraceId, TraceIdGen, Tracer, DEFAULT_SLOW_MS,
    DEFAULT_TRACE_SPANS, MAX_TRACE_ID_LEN, SLOW_MS_ENV, TRACE_ENV, TRACE_SEED_ENV, TRACE_SPANS_ENV,
};

/// The numeric setting in environment variable `name` (the `ROUTES_*`
/// knobs): its value trimmed and parsed as `T`, or `None` when it is unset
/// or does not parse. Callers apply their own range rule and default.
pub fn env_number<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok()?.trim().parse().ok()
}
