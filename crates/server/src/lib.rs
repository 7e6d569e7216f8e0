//! `routes-server` — a concurrent route-debugging service over HTTP.
//!
//! The `spiderd` binary exposes the workspace's route algorithms as a
//! small JSON service, so editors and notebooks can probe a mapping
//! scenario without embedding the Rust library:
//!
//! * [`http`] — a hand-rolled HTTP/1.1 subset (keep-alive, strict limits).
//! * [`json`] — an in-repo JSON value, parser, and encoder (the workspace
//!   builds offline with no external crates — see `DESIGN.md`).
//! * [`answer`] — the one-route, all-routes and stitched-route bodies,
//!   written straight from the routes and forests into one string.
//! * [`session`] — the sharded session store (`ROUTES_SESSION_SHARDS` or
//!   available parallelism shards, each its own `RwLock<HashMap>` slice)
//!   with segmented-LRU eviction, read-lock + atomic touches, and a
//!   per-session memoized route-forest cache.
//! * [`router`] — the REST surface: `POST /sessions`, one-route /
//!   all-routes probes, summaries, `GET /metrics` (JSON or Prometheus
//!   text), `GET /healthz`, `GET /trace`, `GET /profile` (self-profiler
//!   scrape: JSON or flamegraph-collapsed text), per-session
//!   `GET /sessions/{id}/profile` (per-tgd chase attribution, per-hop
//!   pipeline timings), `POST /shutdown`. Every request
//!   runs under a `routes-obs` trace context: the response echoes
//!   `X-Trace-Id`, error bodies carry `trace_id`, and instrumented seams
//!   (chase, forest, route, print, shard locks, WAL append/fsync,
//!   checkpoint) record spans into the tracer's ring.
//! * [`metrics`] — atomic counters plus a request-latency histogram
//!   (with per-bucket trace-id exemplars), rendered as JSON and as
//!   Prometheus text exposition.
//! * [`window`] — a ring of one-second slots giving the last N seconds
//!   of traffic as live rps, error rate, and interpolated p50/p90/p99
//!   (the `window` block of `/metrics`).
//! * [`persist`] — optional durability (`--data-dir`): WAL appends on
//!   every session mutation, periodic snapshot + log-compaction
//!   checkpoints, snapshot-then-log crash recovery (via `routes-store`).
//! * [`server`] — a dedicated acceptor feeding a bounded connection
//!   queue drained by a fixed worker pool: over-capacity connections are
//!   shed with `429` + `Retry-After`, every request runs under a
//!   wall-clock deadline a trickling peer cannot reset (`408` + reap),
//!   and shutdown drains gracefully (stop accepting, finish in-flight,
//!   close idle keep-alives cleanly).
//!
//! Scenario loading and solution materialization reuse the `spider` CLI's
//! loader and `prepare` step, so a scenario file means exactly the same
//! thing to both front-ends.

pub mod answer;
pub mod http;
pub mod json;
pub mod metrics;
pub mod persist;
pub mod router;
pub mod server;
pub mod session;
pub mod window;

pub use json::Json;
pub use persist::{Persistence, RecoveryReport, CHECKPOINT_RECORDS_ENV, DATA_DIR_ENV};
pub use router::App;
pub use server::{
    Server, ServerConfig, DEFAULT_MAX_QUEUE, DEFAULT_REQUEST_DEADLINE, DEFAULT_RETRY_AFTER,
    MAX_QUEUE_ENV, REQUEST_DEADLINE_ENV, RETRY_AFTER_ENV,
};
pub use session::{
    Removal, Session, SessionLookup, SessionOrigin, SessionStore, ShardSnapshot, StoreSnapshot,
    SHARDS_ENV,
};
