//! Service counters, lock-free via atomics, and the `/metrics` declaration
//! list.
//!
//! One [`Metrics`] instance is shared by every worker thread; all updates
//! are relaxed (counters tolerate reordering, they only need to not lose
//! increments). `GET /metrics` renders a snapshot as JSON or as Prometheus
//! text. Both renderings walk one list, `declare`: each series appears
//! there once, with its JSON path, Prometheus family, kind, help, labels and
//! reading, so the two formats cannot diverge.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use routes_model::JoinSnapshot;
use routes_obs::{Histogram, PromText};
use routes_store::{PersistSnapshot, FSYNC_BUCKETS_US};

use crate::json::Json;
use crate::session::{ShardSnapshot, StoreSnapshot, LOCK_WAIT_BUCKETS_US};
use crate::window::{window_seconds_from_env, WindowRing};

/// Upper bounds (µs) of the request-latency histogram buckets; the last
/// bucket is unbounded.
pub const LATENCY_BUCKETS_US: [u64; 7] = [100, 500, 1_000, 5_000, 25_000, 100_000, 1_000_000];

/// A work phase whose wall time is tracked separately from whole-request
/// latency: the chase materializing `J`, route-forest construction
/// (`ComputeAllRoutes`), single-route enumeration (`ComputeOneRoute` +
/// replay), result rendering ("print": view building + JSON encoding), and
/// edit-batch application (the whole incremental pipeline; the replayed
/// chase inside it is also sampled under `chase`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Chase,
    Forest,
    Route,
    Print,
    Edit,
}

impl Phase {
    /// All phases, in the order they appear in `/metrics`.
    pub const ALL: [Phase; 5] = [
        Phase::Chase,
        Phase::Forest,
        Phase::Route,
        Phase::Print,
        Phase::Edit,
    ];

    /// The phase's `phase` label value and JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Chase => "chase",
            Phase::Forest => "forest",
            Phase::Route => "route",
            Phase::Print => "print",
            Phase::Edit => "edit",
        }
    }
}

/// Shared service counters.
pub struct Metrics {
    /// When this instance was created (serving process start, in
    /// practice); `/metrics` renders the elapsed time as `uptime_seconds`.
    started: Instant,
    pub requests_total: AtomicU64,
    pub responses_2xx: AtomicU64,
    pub responses_4xx: AtomicU64,
    pub responses_5xx: AtomicU64,
    pub bad_requests: AtomicU64,
    pub connections_accepted: AtomicU64,
    /// Bound of the acceptor's connection queue (0 until a server stores
    /// its resolved `--max-queue`; `Metrics` alone has no front door).
    pub admission_queue_capacity: AtomicU64,
    /// Connections currently parked in the acceptor's queue.
    pub admission_queue_depth: AtomicU64,
    /// Connections admitted into the queue (later popped by a worker).
    pub admission_admitted: AtomicU64,
    /// Connections shed at the door with `429 Too Many Requests`.
    pub admission_shed: AtomicU64,
    /// Requests answered `408 Request Timeout` after their wall-clock
    /// deadline expired mid-parse.
    pub admission_timeouts: AtomicU64,
    /// Connections force-closed by a deadline (every 408 plus write-side
    /// stalls that never got a response).
    pub admission_reaped: AtomicU64,
    /// Time connections waited in the admission queue (µs), fed by the
    /// workers through [`routes_obs::record`].
    pub admission_queue_wait: Histogram,
    pub sessions_created: AtomicU64,
    pub sessions_deleted: AtomicU64,
    pub sessions_evicted: AtomicU64,
    pub one_routes_computed: AtomicU64,
    pub all_routes_computed: AtomicU64,
    pub forest_cache_hits: AtomicU64,
    pub forest_cache_misses: AtomicU64,
    pub edits_applied: AtomicU64,
    pub edits_rejected: AtomicU64,
    pub edit_ops_applied: AtomicU64,
    pub edit_forests_kept: AtomicU64,
    pub edit_forests_invalidated: AtomicU64,
    /// Multi-stage pipeline sessions created (subset of `sessions_created`).
    pub pipeline_sessions_created: AtomicU64,
    /// Stage chases run while creating pipeline sessions (hops summed).
    pub pipeline_stage_chases: AtomicU64,
    /// Core minimization passes run (one per hop when core mode is on).
    pub pipeline_core_runs: AtomicU64,
    /// Tuples removed by core minimization, summed over hops and sessions.
    pub pipeline_core_tuples_removed: AtomicU64,
    /// Stitched end-to-end routes answered.
    pub pipeline_stitched_routes: AtomicU64,
    /// Per-hop routes inside answered stitched routes (hops summed).
    pub pipeline_stitched_hops: AtomicU64,
    latency: Histogram,
    /// Per-phase wall time: each histogram's sum is the phase's µs total
    /// and its count the sample count.
    phases: [Histogram; Phase::ALL.len()],
    /// Rolling one-second traffic windows (live rps / error rate / tail
    /// latency; `ROUTES_WINDOW_SECONDS` sizes the ring).
    window: WindowRing,
    /// Per-latency-bucket exemplar: the trace id and duration of the
    /// slowest recent request that landed in the bucket, linking a
    /// `/metrics` scrape to `GET /trace?trace_id=` evidence.
    exemplars: [Mutex<Option<Exemplar>>; LATENCY_BUCKETS_US.len() + 1],
}

/// One retained bucket occupant; see [`Metrics::exemplars`].
struct Exemplar {
    trace: String,
    dur_us: u64,
    at: Instant,
}

/// How long a bucket exemplar stays authoritative: after this, any new
/// occupant replaces it even if faster, so exemplars keep pointing at
/// traces the ring buffer still holds.
const EXEMPLAR_TTL: Duration = Duration::from_secs(10);

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    pub fn new() -> Self {
        Metrics {
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            connections_accepted: AtomicU64::new(0),
            admission_queue_capacity: AtomicU64::new(0),
            admission_queue_depth: AtomicU64::new(0),
            admission_admitted: AtomicU64::new(0),
            admission_shed: AtomicU64::new(0),
            admission_timeouts: AtomicU64::new(0),
            admission_reaped: AtomicU64::new(0),
            admission_queue_wait: Histogram::new(&LATENCY_BUCKETS_US),
            sessions_created: AtomicU64::new(0),
            sessions_deleted: AtomicU64::new(0),
            sessions_evicted: AtomicU64::new(0),
            one_routes_computed: AtomicU64::new(0),
            all_routes_computed: AtomicU64::new(0),
            forest_cache_hits: AtomicU64::new(0),
            forest_cache_misses: AtomicU64::new(0),
            edits_applied: AtomicU64::new(0),
            edits_rejected: AtomicU64::new(0),
            edit_ops_applied: AtomicU64::new(0),
            edit_forests_kept: AtomicU64::new(0),
            edit_forests_invalidated: AtomicU64::new(0),
            pipeline_sessions_created: AtomicU64::new(0),
            pipeline_stage_chases: AtomicU64::new(0),
            pipeline_core_runs: AtomicU64::new(0),
            pipeline_core_tuples_removed: AtomicU64::new(0),
            pipeline_stitched_routes: AtomicU64::new(0),
            pipeline_stitched_hops: AtomicU64::new(0),
            latency: Histogram::new(&LATENCY_BUCKETS_US),
            phases: Phase::ALL.map(|_| Histogram::new(&LATENCY_BUCKETS_US)),
            window: WindowRing::new(window_seconds_from_env()),
            exemplars: Default::default(),
        }
    }

    /// Seconds since this metrics instance (the serving process) started.
    pub fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Count one handled request with its response status and latency.
    /// `trace`, when the tracer minted one, becomes the request's latency
    /// bucket exemplar if it is the slowest recent occupant.
    pub fn record_response(&self, status: u16, latency: Duration, trace: Option<&str>) {
        self.requests_total.fetch_add(1, Relaxed);
        match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        }
        .fetch_add(1, Relaxed);
        let us = routes_obs::micros(latency);
        let bucket = self.latency.record(us);
        self.window.record(status, us);
        if let Some(trace) = trace {
            // Never block the request path on a scrape holding the lock:
            // on contention the exemplar is simply not updated (the next
            // slow request in this bucket will be).
            if let Ok(mut slot) = self.exemplars[bucket].try_lock() {
                let replace = match slot.as_ref() {
                    None => true,
                    Some(e) => us >= e.dur_us || e.at.elapsed() > EXEMPLAR_TTL,
                };
                if replace {
                    *slot = Some(Exemplar {
                        trace: trace.to_owned(),
                        dur_us: us,
                        at: Instant::now(),
                    });
                }
            }
        }
    }

    /// Current latency-bucket exemplars: `(trace_id, dur_us)` per bucket
    /// (one entry per bound plus the unbounded tail), `None` where no
    /// traced request has landed yet.
    pub fn exemplars(&self) -> Vec<Option<(String, u64)>> {
        self.exemplars
            .iter()
            .map(|slot| {
                slot.lock()
                    .ok()
                    .and_then(|e| e.as_ref().map(|e| (e.trace.clone(), e.dur_us)))
            })
            .collect()
    }

    /// The wall-time histogram of `phase`: the sink its timers feed
    /// (`routes_obs::timer`, `routes_obs::record`).
    pub fn phase(&self, phase: Phase) -> &Histogram {
        &self.phases[phase as usize]
    }

    /// The snapshot `GET /metrics` serves as JSON: every series of
    /// `declare` at its JSON path. The join counters are process-wide
    /// ([`routes_model::joinstats`]); the caller passes an explicit
    /// snapshot so both renderings of one request agree and tests stay
    /// deterministic. `threads` is the worker pool width used for parallel
    /// chase / forest construction; `persist` is `None` without a data
    /// directory (and then there is no `persistence` block).
    pub fn to_json_with_store(
        &self,
        store: &StoreSnapshot,
        persist: Option<&PersistSnapshot>,
        join: &JoinSnapshot,
        threads: usize,
    ) -> Json {
        let mut root = Json::Object(Vec::with_capacity(32));
        declare(
            self,
            store,
            persist,
            join,
            threads,
            &mut |s| match s.reading {
                Reading::Value(v) => insert(&mut root, s.json, Json::from(v)),
                Reading::Text(text) => insert(&mut root, s.json, Json::from(text)),
                Reading::Histogram(h) => {
                    let buckets = h.counts.iter().enumerate().map(|(i, &count)| {
                        Json::obj([
                            ("le_us", le_json(h.bounds, i)),
                            ("count", Json::from(count)),
                        ])
                    });
                    insert(&mut root, s.json, Json::Array(buckets.collect()));
                    if let Some((path, sum)) = h.sum {
                        insert(&mut root, path, Json::from(sum));
                    }
                    if let Some((path, exemplars)) = h.exemplars {
                        let occupied = exemplars.iter().enumerate().filter_map(|(i, e)| {
                            let (trace, dur) = e.as_ref()?;
                            Some(Json::obj([
                                ("le_us", le_json(h.bounds, i)),
                                ("trace_id", Json::from(trace.as_str())),
                                ("dur_us", Json::from(*dur)),
                            ]))
                        });
                        insert(&mut root, path, Json::Array(occupied.collect()));
                    }
                }
            },
        );
        root
    }

    /// The same snapshot [`Metrics::to_json_with_store`] serves, in
    /// Prometheus text exposition format: every series of `declare` that
    /// names a family, each family announced once before its samples.
    pub fn to_prometheus(
        &self,
        store: &StoreSnapshot,
        persist: Option<&PersistSnapshot>,
        join: &JoinSnapshot,
        threads: usize,
    ) -> String {
        let mut w = PromText::new();
        let mut announced = "";
        declare(self, store, persist, join, threads, &mut |s| {
            let Some(family) = s.family else { return };
            if family.name != announced {
                w.family(family.name, family.kind, family.help);
                announced = family.name;
            }
            match s.reading {
                Reading::Value(v) => w.sample(family.name, s.labels, v),
                Reading::Text(_) => w.sample(family.name, s.labels, 1),
                Reading::Histogram(h) => w.histogram(
                    family.name,
                    s.labels,
                    h.bounds,
                    h.counts,
                    h.sum.map(|(_, sum)| sum),
                    h.exemplars.map_or(&[], |(_, e)| e),
                ),
            }
        });
        w.finish()
    }
}

/// One step of a series' JSON path from the root of the `/metrics` object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    /// An object field.
    Name(&'static str),
    /// An array element (a shard's position in `session_store.shards`).
    Index(usize),
}

/// A Prometheus family, announced once (`# HELP`, `# TYPE`) before its
/// samples.
#[derive(Debug, Clone, Copy)]
struct Family {
    name: &'static str,
    /// `counter`, `gauge`, or `histogram`.
    kind: &'static str,
    help: &'static str,
}

/// What a series reads at scrape time.
enum Reading<'a> {
    /// A counter or gauge value.
    Value(u64),
    /// Build metadata: JSON renders the text, the sample reads 1 and
    /// carries the text as a label.
    Text(&'a str),
    Histogram(Hist<'a>),
}

/// Per-bucket (non-cumulative) counts over `bounds` plus the unbounded
/// bucket, with the optional `_sum` and bucket exemplars; each of those
/// names the JSON path it renders at.
struct Hist<'a> {
    bounds: &'static [u64],
    counts: &'a [u64],
    sum: Option<(&'a [Key], u64)>,
    exemplars: Option<(&'a [Key], Exemplars<'a>)>,
}

/// Per-bucket `(trace_id, dur_us)` exemplars, `None` where unoccupied.
type Exemplars<'a> = &'a [Option<(String, u64)>];

/// One declared series.
struct Series<'a> {
    json: &'a [Key],
    /// `None` for the two JSON-only entries: `session_store.live_sessions`
    /// (the top-level gauge again) and each phase's `count` (its
    /// histogram's `_count`).
    family: Option<Family>,
    labels: &'a [(&'a str, &'a str)],
    reading: Reading<'a>,
}

impl<'a> Series<'a> {
    fn new(json: &'a [Key], family: Option<Family>, reading: Reading<'a>) -> Series<'a> {
        Series {
            json,
            family,
            labels: &[],
            reading,
        }
    }

    fn labeled(self, labels: &'a [(&'a str, &'a str)]) -> Series<'a> {
        Series { labels, ..self }
    }
}

fn family(kind: &'static str, name: &'static str, help: &'static str) -> Option<Family> {
    Some(Family { name, kind, help })
}

/// [`counter`] or [`gauge`] (the per-shard table picks one).
type NewSeries = for<'a> fn(&'a [Key], &'static str, &'static str, u64) -> Series<'a>;

fn counter<'a>(json: &'a [Key], name: &'static str, help: &'static str, value: u64) -> Series<'a> {
    Series::new(json, family("counter", name, help), Reading::Value(value))
}

fn gauge<'a>(json: &'a [Key], name: &'static str, help: &'static str, value: u64) -> Series<'a> {
    Series::new(json, family("gauge", name, help), Reading::Value(value))
}

fn histogram<'a>(
    json: &'a [Key],
    name: &'static str,
    help: &'static str,
    bounds: &'static [u64],
    counts: &'a [u64],
) -> Series<'a> {
    let (sum, exemplars) = (None, None);
    let hist = Hist {
        bounds,
        counts,
        sum,
        exemplars,
    };
    Series::new(
        json,
        family("histogram", name, help),
        Reading::Histogram(hist),
    )
}

/// One of the two JSON-only entries (see [`Series::family`]).
fn json_only(json: &[Key], value: u64) -> Series<'_> {
    Series::new(json, None, Reading::Value(value))
}

/// The `/metrics` declaration list: every series, in exposition order,
/// each emitted once with its JSON path, family, labels, and reading.
/// [`Metrics::to_json_with_store`] and [`Metrics::to_prometheus`] are the
/// two walkers; the unit tests below hold both renderings to this list.
fn declare(
    m: &Metrics,
    store: &StoreSnapshot,
    persist: Option<&PersistSnapshot>,
    join: &JoinSnapshot,
    threads: usize,
    emit: &mut impl FnMut(Series<'_>),
) {
    use Key::{Index as I, Name as N};
    let load = |c: &AtomicU64| c.load(Relaxed);

    let version = env!("CARGO_PKG_VERSION");
    emit(
        Series::new(
            &[N("version")],
            family(
                "gauge",
                "routes_build_info",
                "Build metadata; the value is always 1.",
            ),
            Reading::Text(version),
        )
        .labeled(&[("version", version)]),
    );
    emit(gauge(
        &[N("uptime_seconds")],
        "routes_uptime_seconds",
        "Seconds since the serving process started.",
        m.uptime_seconds(),
    ));
    emit(gauge(
        &[N("threads")],
        "routes_threads",
        "Worker pool width for parallel chase and forest construction.",
        threads as u64,
    ));
    emit(counter(
        &[N("requests_total")],
        "routes_requests_total",
        "Requests handled (any status).",
        load(&m.requests_total),
    ));
    for (key, class, responses) in [
        ("responses_2xx", "2xx", &m.responses_2xx),
        ("responses_4xx", "4xx", &m.responses_4xx),
        ("responses_5xx", "5xx", &m.responses_5xx),
    ] {
        emit(
            counter(
                &[N(key)],
                "routes_responses_total",
                "Responses by status class.",
                load(responses),
            )
            .labeled(&[("class", class)]),
        );
    }
    emit(counter(
        &[N("bad_requests")],
        "routes_bad_requests_total",
        "Requests rejected before dispatch (parse errors, limits).",
        load(&m.bad_requests),
    ));
    emit(counter(
        &[N("connections_accepted")],
        "routes_connections_accepted_total",
        "TCP connections accepted.",
        load(&m.connections_accepted),
    ));

    emit(gauge(
        &[N("admission"), N("queue_capacity")],
        "routes_admission_queue_capacity",
        "Bound of the acceptor's connection queue (--max-queue).",
        load(&m.admission_queue_capacity),
    ));
    emit(gauge(
        &[N("admission"), N("queue_depth")],
        "routes_admission_queue_depth",
        "Connections currently waiting in the admission queue.",
        load(&m.admission_queue_depth),
    ));
    emit(counter(
        &[N("admission"), N("admitted")],
        "routes_admission_admitted_total",
        "Connections admitted into the acceptor's queue.",
        load(&m.admission_admitted),
    ));
    emit(counter(
        &[N("admission"), N("shed")],
        "routes_admission_shed_total",
        "Connections shed at the door with 429 Too Many Requests.",
        load(&m.admission_shed),
    ));
    emit(counter(
        &[N("admission"), N("timeouts")],
        "routes_admission_timeouts_total",
        "Requests answered 408 after the request deadline expired.",
        load(&m.admission_timeouts),
    ));
    emit(counter(
        &[N("admission"), N("reaped")],
        "routes_admission_reaped_total",
        "Connections force-closed by a deadline (stalled readers/writers).",
        load(&m.admission_reaped),
    ));
    let queue_wait: Vec<u64> = m.admission_queue_wait.counts().collect();
    emit(histogram(
        &[N("admission"), N("queue_wait_us")],
        "routes_admission_queue_wait_us",
        "Time connections spent queued before a worker popped them, in microseconds.",
        &LATENCY_BUCKETS_US,
        &queue_wait,
    ));

    emit(gauge(
        &[N("live_sessions")],
        "routes_live_sessions",
        "Sessions currently resident in the store.",
        store.live() as u64,
    ));
    emit(counter(
        &[N("sessions_created")],
        "routes_sessions_created_total",
        "Sessions created.",
        load(&m.sessions_created),
    ));
    emit(counter(
        &[N("sessions_deleted")],
        "routes_sessions_deleted_total",
        "Sessions deleted by clients.",
        load(&m.sessions_deleted),
    ));
    emit(counter(
        &[N("sessions_evicted")],
        "routes_sessions_evicted_total",
        "Sessions evicted at capacity.",
        load(&m.sessions_evicted),
    ));
    emit(counter(
        &[N("one_routes_computed")],
        "routes_one_routes_computed_total",
        "ComputeOneRoute invocations.",
        load(&m.one_routes_computed),
    ));
    emit(counter(
        &[N("all_routes_computed")],
        "routes_all_routes_computed_total",
        "ComputeAllRoutes invocations.",
        load(&m.all_routes_computed),
    ));
    emit(counter(
        &[N("forest_cache_hits")],
        "routes_forest_cache_hits_total",
        "Route-forest memo hits.",
        load(&m.forest_cache_hits),
    ));
    emit(counter(
        &[N("forest_cache_misses")],
        "routes_forest_cache_misses_total",
        "Route-forest memo misses (forest built).",
        load(&m.forest_cache_misses),
    ));
    emit(counter(
        &[N("edits"), N("applied")],
        "routes_edits_applied_total",
        "Edit batches applied.",
        load(&m.edits_applied),
    ));
    emit(counter(
        &[N("edits"), N("rejected")],
        "routes_edits_rejected_total",
        "Edit batches rejected by validation.",
        load(&m.edits_rejected),
    ));
    emit(counter(
        &[N("edits"), N("ops_applied")],
        "routes_edit_ops_applied_total",
        "Individual edit ops applied (across batches).",
        load(&m.edit_ops_applied),
    ));
    emit(counter(
        &[N("edits"), N("forests_kept")],
        "routes_edit_forests_kept_total",
        "Cached route forests surviving an edit batch.",
        load(&m.edit_forests_kept),
    ));
    emit(counter(
        &[N("edits"), N("forests_invalidated")],
        "routes_edit_forests_invalidated_total",
        "Cached route forests invalidated by an edit batch.",
        load(&m.edit_forests_invalidated),
    ));

    emit(counter(
        &[N("pipeline"), N("sessions_created")],
        "routes_pipeline_sessions_created_total",
        "Multi-stage pipeline sessions created.",
        load(&m.pipeline_sessions_created),
    ));
    emit(counter(
        &[N("pipeline"), N("stage_chases")],
        "routes_pipeline_stage_chases_total",
        "Stage chases run while creating pipeline sessions.",
        load(&m.pipeline_stage_chases),
    ));
    emit(counter(
        &[N("pipeline"), N("core_runs")],
        "routes_pipeline_core_runs_total",
        "Core minimization passes run on chased stage instances.",
        load(&m.pipeline_core_runs),
    ));
    emit(counter(
        &[N("pipeline"), N("core_tuples_removed")],
        "routes_pipeline_core_tuples_removed_total",
        "Tuples removed by core minimization.",
        load(&m.pipeline_core_tuples_removed),
    ));
    emit(counter(
        &[N("pipeline"), N("stitched_routes")],
        "routes_pipeline_stitched_routes_total",
        "Stitched end-to-end routes answered.",
        load(&m.pipeline_stitched_routes),
    ));
    emit(counter(
        &[N("pipeline"), N("stitched_hops")],
        "routes_pipeline_stitched_hops_total",
        "Per-hop routes inside answered stitched routes.",
        load(&m.pipeline_stitched_hops),
    ));

    emit(counter(
        &[N("join"), N("batches")],
        "routes_join_batches_total",
        "Binding batches pushed through the vectorized join executor.",
        join.batches,
    ));
    emit(counter(
        &[N("join"), N("rows_probed")],
        "routes_join_rows_probed_total",
        "Candidate rows examined while extending binding batches.",
        join.rows_probed,
    ));
    emit(counter(
        &[N("join"), N("index_probes")],
        "routes_join_index_probes_total",
        "Hash-index probe operations issued by the batch executor.",
        join.index_probes,
    ));
    emit(counter(
        &[N("join"), N("hash_builds")],
        "routes_join_hash_builds_total",
        "Hash-index builds, including incremental catch-ups.",
        join.hash_builds,
    ));
    emit(counter(
        &[N("join"), N("hash_build_rows")],
        "routes_join_hash_build_rows_total",
        "Rows inserted into hash indexes by builds and catch-ups.",
        join.hash_build_rows,
    ));

    let latency: Vec<u64> = m.latency.counts().collect();
    let exemplars = m.exemplars();
    let hist = Hist {
        bounds: &LATENCY_BUCKETS_US,
        counts: &latency,
        sum: None,
        exemplars: Some((&[N("exemplars")], &exemplars)),
    };
    emit(Series::new(
        &[N("latency_us")],
        family(
            "histogram",
            "routes_request_latency_us",
            "Whole-request latency in microseconds.",
        ),
        Reading::Histogram(hist),
    ));

    let window = m.window.snapshot();
    emit(gauge(
        &[N("window"), N("seconds")],
        "routes_window_seconds",
        "Length of the rolling traffic window, in seconds.",
        window.seconds as u64,
    ));
    emit(gauge(
        &[N("window"), N("requests")],
        "routes_window_requests",
        "Requests recorded in the rolling window.",
        window.requests,
    ));
    emit(gauge(
        &[N("window"), N("errors")],
        "routes_window_errors",
        "5xx responses recorded in the rolling window.",
        window.errors,
    ));
    emit(gauge(
        &[N("window"), N("rps_milli")],
        "routes_window_rps_milli",
        "Requests per second over the window, times 1000.",
        window.rps_milli,
    ));
    emit(gauge(
        &[N("window"), N("error_rate_milli")],
        "routes_window_error_rate_milli",
        "Errors per request over the window, times 1000.",
        window.error_rate_milli,
    ));
    emit(gauge(
        &[N("window"), N("p50_us")],
        "routes_window_latency_p50_us",
        "Interpolated p50 request latency over the window, in microseconds.",
        window.p50_us,
    ));
    emit(gauge(
        &[N("window"), N("p90_us")],
        "routes_window_latency_p90_us",
        "Interpolated p90 request latency over the window, in microseconds.",
        window.p90_us,
    ));
    emit(gauge(
        &[N("window"), N("p99_us")],
        "routes_window_latency_p99_us",
        "Interpolated p99 request latency over the window, in microseconds.",
        window.p99_us,
    ));

    for p in Phase::ALL {
        let counts: Vec<u64> = m.phase(p).counts().collect();
        let hist = Hist {
            bounds: &LATENCY_BUCKETS_US,
            counts: &counts,
            sum: Some((&[N("phases"), N(p.name()), N("total_us")], m.phase(p).sum())),
            exemplars: None,
        };
        emit(
            Series::new(
                &[N("phases"), N(p.name()), N("latency_us")],
                family(
                    "histogram",
                    "routes_phase_latency_us",
                    "Per-phase wall time in microseconds (chase, forest, route, print, edit).",
                ),
                Reading::Histogram(hist),
            )
            .labeled(&[("phase", p.name())]),
        );
        emit(json_only(
            &[N("phases"), N(p.name()), N("count")],
            counts.iter().sum(),
        ));
    }

    emit(gauge(
        &[N("session_store"), N("capacity")],
        "routes_session_store_capacity",
        "Session-store capacity (sessions).",
        store.capacity as u64,
    ));
    emit(gauge(
        &[N("session_store"), N("shard_count")],
        "routes_session_store_shards",
        "Session-store shard count.",
        store.shards.len() as u64,
    ));
    emit(json_only(
        &[N("session_store"), N("live_sessions")],
        store.live() as u64,
    ));
    emit(counter(
        &[N("session_store"), N("hits")],
        "routes_session_store_hits_total",
        "Store-wide lookup hits.",
        store.hits(),
    ));
    emit(counter(
        &[N("session_store"), N("misses")],
        "routes_session_store_misses_total",
        "Store-wide lookup misses.",
        store.misses(),
    ));
    emit(counter(
        &[N("session_store"), N("inserts")],
        "routes_session_store_inserts_total",
        "Store-wide inserts.",
        store.inserts(),
    ));
    emit(counter(
        &[N("session_store"), N("removes")],
        "routes_session_store_removes_total",
        "Store-wide removes.",
        store.removes(),
    ));
    emit(counter(
        &[N("session_store"), N("evictions")],
        "routes_session_store_evictions_total",
        "Store-wide evictions.",
        store.evictions(),
    ));
    emit(counter(
        &[N("session_store"), N("evict_scan_steps")],
        "routes_session_store_evict_scan_steps_total",
        "Entries examined while hunting eviction victims.",
        store.evict_scan_steps(),
    ));
    emit(counter(
        &[N("session_store"), N("write_locks")],
        "routes_session_store_write_locks_total",
        "Store-wide shard write-lock acquisitions.",
        store.write_locks(),
    ));

    let shard_labels: Vec<String> = (0..store.shards.len()).map(|i| i.to_string()).collect();
    type ShardField = fn(&ShardSnapshot) -> u64;
    let per_shard: [(&str, NewSeries, &str, &str, ShardField); 10] = [
        (
            "sessions",
            gauge,
            "routes_session_shard_sessions",
            "Sessions resident per shard.",
            |s| s.sessions as u64,
        ),
        (
            "capacity",
            gauge,
            "routes_session_shard_capacity",
            "Per-shard session capacity.",
            |s| s.capacity as u64,
        ),
        (
            "hits",
            counter,
            "routes_session_shard_hits_total",
            "Per-shard lookup hits.",
            |s| s.hits,
        ),
        (
            "misses",
            counter,
            "routes_session_shard_misses_total",
            "Per-shard lookup misses.",
            |s| s.misses,
        ),
        (
            "inserts",
            counter,
            "routes_session_shard_inserts_total",
            "Per-shard inserts.",
            |s| s.inserts,
        ),
        (
            "removes",
            counter,
            "routes_session_shard_removes_total",
            "Per-shard removes.",
            |s| s.removes,
        ),
        (
            "evictions",
            counter,
            "routes_session_shard_evictions_total",
            "Per-shard evictions.",
            |s| s.evictions,
        ),
        (
            "demotions",
            counter,
            "routes_session_shard_demotions_total",
            "Segmented-LRU demotions from protected to probation.",
            |s| s.demotions,
        ),
        (
            "evict_scan_steps",
            counter,
            "routes_session_shard_evict_scan_steps_total",
            "Per-shard entries examined while hunting eviction victims.",
            |s| s.evict_scan_steps,
        ),
        (
            "write_locks",
            counter,
            "routes_session_shard_write_locks_total",
            "Per-shard write-lock acquisitions.",
            |s| s.write_locks,
        ),
    ];
    for (key, new, name, help, read) in per_shard {
        for (i, shard) in store.shards.iter().enumerate() {
            let json = [N("session_store"), N("shards"), I(i), N(key)];
            let labels = [("shard", shard_labels[i].as_str())];
            emit(new(&json, name, help, read(shard)).labeled(&labels));
        }
    }
    for (i, shard) in store.shards.iter().enumerate() {
        for (key, mode, counts) in [
            ("lock_wait_read_us", "read", &shard.lock_wait_read_us),
            ("lock_wait_write_us", "write", &shard.lock_wait_write_us),
        ] {
            let json = [N("session_store"), N("shards"), I(i), N(key)];
            let labels = [("shard", shard_labels[i].as_str()), ("mode", mode)];
            emit(
                histogram(
                    &json,
                    "routes_session_shard_lock_wait_us",
                    "Shard lock-acquisition wait in microseconds, by shard and mode.",
                    &LOCK_WAIT_BUCKETS_US,
                    counts,
                )
                .labeled(&labels),
            );
        }
    }

    let Some(p) = persist else { return };
    emit(gauge(
        &[N("persistence"), N("wal_gen")],
        "routes_wal_generation",
        "Current WAL generation number.",
        p.wal_gen,
    ));
    emit(counter(
        &[N("persistence"), N("wal_appends")],
        "routes_wal_appends_total",
        "WAL records appended.",
        p.wal_appends,
    ));
    emit(counter(
        &[N("persistence"), N("wal_bytes")],
        "routes_wal_bytes_total",
        "WAL bytes written.",
        p.wal_bytes,
    ));
    emit(counter(
        &[N("persistence"), N("fsync_batches")],
        "routes_fsync_batches_total",
        "Group-commit fsync batches.",
        p.fsync_batches,
    ));
    emit(counter(
        &[N("persistence"), N("fsync_records")],
        "routes_fsync_records_total",
        "WAL records made durable by fsync batches.",
        p.fsync_records,
    ));
    emit(counter(
        &[N("persistence"), N("snapshots_written")],
        "routes_snapshots_written_total",
        "Checkpoint snapshots written.",
        p.snapshots_written,
    ));
    emit(gauge(
        &[N("persistence"), N("wal_records_since_checkpoint")],
        "routes_wal_records_since_checkpoint",
        "WAL records appended since the last checkpoint.",
        p.wal_records_since_checkpoint,
    ));
    emit(histogram(
        &[N("persistence"), N("fsync_latency_us")],
        "routes_fsync_latency_us",
        "Group-commit fsync latency in microseconds.",
        &FSYNC_BUCKETS_US,
        &p.fsync_latency_us,
    ));
    emit(gauge(
        &[N("persistence"), N("replayed_records")],
        "routes_wal_replayed_records",
        "WAL records replayed during the last recovery.",
        p.replayed_records,
    ));
    emit(gauge(
        &[N("persistence"), N("restored_sessions")],
        "routes_wal_restored_sessions",
        "Sessions restored during the last recovery.",
        p.restored_sessions,
    ));
    emit(gauge(
        &[N("persistence"), N("recovery_dropped")],
        "routes_recovery_dropped",
        "Records the last recovery dropped because they no longer applied.",
        p.recovery_dropped,
    ));
    emit(gauge(
        &[N("persistence"), N("recovery_us")],
        "routes_recovery_us",
        "Wall time of the last recovery in microseconds.",
        p.recovery_us,
    ));
}

/// A histogram bucket's JSON `le_us`: its bound, or `"inf"` past the last.
fn le_json(bounds: &[u64], bucket: usize) -> Json {
    Json::from(
        bounds
            .get(bucket)
            .map_or_else(|| "inf".to_owned(), |b| b.to_string()),
    )
}

/// Put `leaf` at `path` under `root`, creating the objects and arrays on
/// the way. Consecutive series share their enclosing block, so looking
/// the block up from the newest field is O(1) in practice; the leaf
/// itself is appended unchecked, since [`declare`] names each path once.
fn insert(root: &mut Json, path: &[Key], leaf: Json) {
    let (last, parents) = path.split_last().expect("declared paths are non-empty");
    let mut node = root;
    for (step, key) in parents.iter().enumerate() {
        // Room for every block's fields up front: growing ~20 containers
        // from empty by doubling cost ~15% of a JSON render.
        let container = || match path[step + 1] {
            Key::Name(_) => Json::Object(Vec::with_capacity(16)),
            Key::Index(_) => Json::Array(Vec::with_capacity(16)),
        };
        node = match (node, *key) {
            (Json::Object(fields), Key::Name(name)) => {
                let at = match fields.iter().rposition(|(k, _)| k == name) {
                    Some(at) => at,
                    None => {
                        fields.push((name.to_owned(), container()));
                        fields.len() - 1
                    }
                };
                &mut fields[at].1
            }
            (Json::Array(items), Key::Index(i)) => {
                if i == items.len() {
                    items.push(container());
                }
                &mut items[i]
            }
            _ => unreachable!("declared paths agree on their containers"),
        };
    }
    match (node, *last) {
        (Json::Object(fields), Key::Name(name)) => fields.push((name.to_owned(), leaf)),
        _ => unreachable!("declared leaves are object fields"),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use super::*;
    use crate::session::{SessionStore, ShardSnapshot};

    /// The JSON rendering over a one-shard store snapshot holding `live`
    /// sessions, at `threads`.
    fn json_of(m: &Metrics, live: usize, threads: usize) -> Json {
        let mut store = SessionStore::with_shards(4, 1).snapshot();
        store.shards[0].sessions = live;
        m.to_json_with_store(&store, None, &JoinSnapshot::default(), threads)
    }

    #[test]
    fn responses_land_in_class_and_latency_buckets() {
        let m = Metrics::new();
        m.record_response(200, Duration::from_micros(50), None);
        m.record_response(201, Duration::from_micros(400), None);
        m.record_response(404, Duration::from_millis(2), None);
        m.record_response(500, Duration::from_secs(5), None);
        assert_eq!(m.requests_total.load(Relaxed), 4);
        assert_eq!(m.responses_2xx.load(Relaxed), 2);
        assert_eq!(m.responses_4xx.load(Relaxed), 1);
        assert_eq!(m.responses_5xx.load(Relaxed), 1);
        let snapshot = json_of(&m, 3, 2);
        assert_eq!(
            snapshot.get("version").unwrap().as_str(),
            Some(env!("CARGO_PKG_VERSION")),
            "the crate version leads the snapshot"
        );
        assert!(snapshot.get("uptime_seconds").unwrap().as_u64().is_some());
        assert_eq!(snapshot.get("requests_total").unwrap().as_u64(), Some(4));
        assert_eq!(snapshot.get("live_sessions").unwrap().as_u64(), Some(3));
        assert_eq!(snapshot.get("threads").unwrap().as_u64(), Some(2));
        let hist = snapshot.get("latency_us").unwrap().as_array().unwrap();
        assert_eq!(hist.len(), LATENCY_BUCKETS_US.len() + 1);
        let total: u64 = hist
            .iter()
            .map(|b| b.get("count").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(total, 4);
        // The 5 s response falls in the unbounded bucket.
        assert_eq!(hist.last().unwrap().get("count").unwrap().as_u64(), Some(1));
        // The rolling window saw the same four requests, one of them 5xx.
        let window = snapshot.get("window").unwrap();
        assert_eq!(window.get("requests").unwrap().as_u64(), Some(4));
        assert_eq!(window.get("errors").unwrap().as_u64(), Some(1));
        assert_eq!(window.get("error_rate_milli").unwrap().as_u64(), Some(250));
        // No traced request yet: the exemplar list is empty.
        let exemplars = snapshot.get("exemplars").unwrap().as_array().unwrap();
        assert!(exemplars.is_empty());
    }

    #[test]
    fn traced_requests_become_bucket_exemplars() {
        let m = Metrics::new();
        m.record_response(200, Duration::from_micros(40), Some("fast"));
        // Slower occupant of the same bucket replaces the exemplar…
        m.record_response(200, Duration::from_micros(80), Some("slow"));
        // …a faster one does not.
        m.record_response(200, Duration::from_micros(60), Some("mid"));
        // A different bucket keeps its own exemplar.
        m.record_response(500, Duration::from_micros(300), Some("err"));
        let exemplars = m.exemplars();
        assert_eq!(exemplars[0], Some(("slow".to_owned(), 80)));
        assert_eq!(exemplars[1], Some(("err".to_owned(), 300)));
        assert!(exemplars[2..].iter().all(|e| e.is_none()));
        let json = json_of(&m, 0, 1);
        let rendered = json.get("exemplars").unwrap().as_array().unwrap();
        assert_eq!(rendered.len(), 2);
        assert_eq!(rendered[0].get("trace_id").unwrap().as_str(), Some("slow"));
        assert_eq!(rendered[0].get("le_us").unwrap().as_str(), Some("100"));
        assert_eq!(rendered[0].get("dur_us").unwrap().as_u64(), Some(80));
    }

    #[test]
    fn empty_window_renders_zero_gauges_at_boot() {
        let m = Metrics::new();
        let store = SessionStore::with_shards(1, 1);
        let text = m.to_prometheus(&store.snapshot(), None, &JoinSnapshot::default(), 1);
        for gauge in [
            "routes_window_requests 0",
            "routes_window_errors 0",
            "routes_window_rps_milli 0",
            "routes_window_error_rate_milli 0",
            "routes_window_latency_p50_us 0",
            "routes_window_latency_p90_us 0",
            "routes_window_latency_p99_us 0",
        ] {
            assert!(text.contains(gauge), "missing `{gauge}` in:\n{text}");
        }
        assert!(text.contains(&format!(
            "routes_window_seconds {}",
            crate::window::DEFAULT_WINDOW_SECONDS
        )));
    }

    #[test]
    fn prometheus_buckets_carry_the_exemplar_annotation() {
        let m = Metrics::new();
        m.record_response(200, Duration::from_micros(70), Some("abc123"));
        let store = SessionStore::with_shards(1, 1);
        let text = m.to_prometheus(&store.snapshot(), None, &JoinSnapshot::default(), 1);
        assert!(
            text.contains(
                "routes_request_latency_us_bucket{le=\"100\"} 1 # {trace_id=\"abc123\"} 70"
            ),
            "exemplar annotation missing in:\n{text}"
        );
    }

    #[test]
    fn store_snapshot_renders_totals_shards_and_lock_wait_histograms() {
        use routes_chase::ChaseOptions;
        use routes_cli::{load_scenario_str, prepare_scenario};
        use routes_pool::Pool;

        let text = "source schema:\n  S(a)\ntarget schema:\n  T(a)\n\
                    dependencies:\n  m: S(x) -> T(x)\nsource data:\n  S(1)\n";
        let scenario =
            || prepare_scenario(load_scenario_str(text).unwrap(), ChaseOptions::fresh()).unwrap();
        let store = SessionStore::with_shards(4, 2);
        let workers = Pool::sequential();
        let (a, _) = store.insert(scenario(), &workers);
        let (b, _) = store.insert(scenario(), &workers);
        for _ in 0..3 {
            assert!(store.get(a).is_found());
        }
        assert!(store.get(b).is_found());
        assert!(!store.get(999).is_found());

        let snap = store.snapshot();
        let m = Metrics::new();
        let json = m.to_json_with_store(&snap, None, &JoinSnapshot::default(), 1);
        assert!(
            json.get("persistence").is_none(),
            "no persistence block without a data dir"
        );
        assert_eq!(json.get("live_sessions").unwrap().as_u64(), Some(2));
        let sj = json.get("session_store").unwrap();
        assert_eq!(sj.get("shard_count").unwrap().as_u64(), Some(2));
        assert_eq!(sj.get("capacity").unwrap().as_u64(), Some(4));
        assert_eq!(sj.get("hits").unwrap().as_u64(), Some(4));
        assert_eq!(sj.get("misses").unwrap().as_u64(), Some(1));
        let shards = sj.get("shards").unwrap().as_array().unwrap();
        assert_eq!(shards.len(), 2);
        let bucket_total = |hist: &Json| -> u64 {
            hist.as_array()
                .unwrap()
                .iter()
                .map(|b| b.get("count").unwrap().as_u64().unwrap())
                .sum()
        };
        // Every lock acquisition lands in exactly one wait bucket: reads
        // are the five lookups, writes match the write_locks counter.
        let read_waits: u64 = shards
            .iter()
            .map(|s| bucket_total(s.get("lock_wait_read_us").unwrap()))
            .sum();
        let write_waits: u64 = shards
            .iter()
            .map(|s| bucket_total(s.get("lock_wait_write_us").unwrap()))
            .sum();
        assert_eq!(read_waits, 5);
        assert_eq!(write_waits, snap.write_locks());
        assert!(snap.write_locks() >= 2, "two inserts write-locked");
    }

    #[test]
    fn persistence_block_renders_counters_and_fsync_histogram() {
        let p = PersistSnapshot {
            wal_gen: 2,
            wal_appends: 7,
            fsync_latency_us: {
                let mut h = vec![0; FSYNC_BUCKETS_US.len() + 1];
                h[0] = 3;
                h
            },
            ..PersistSnapshot::default()
        };
        let m = Metrics::new();
        let store = SessionStore::with_shards(1, 1);
        let json = m.to_json_with_store(&store.snapshot(), Some(&p), &JoinSnapshot::default(), 1);
        let pj = json.get("persistence").unwrap();
        assert_eq!(pj.get("wal_gen").unwrap().as_u64(), Some(2));
        assert_eq!(pj.get("wal_appends").unwrap().as_u64(), Some(7));
        let hist = pj.get("fsync_latency_us").unwrap().as_array().unwrap();
        assert_eq!(hist.len(), FSYNC_BUCKETS_US.len() + 1);
        assert_eq!(hist[0].get("count").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn join_block_renders_the_batch_executor_counters() {
        let j = JoinSnapshot {
            batches: 5,
            rows_probed: 40,
            index_probes: 12,
            hash_builds: 3,
            hash_build_rows: 30,
        };
        let m = Metrics::new();
        let store = SessionStore::with_shards(1, 1);
        let json = m.to_json_with_store(&store.snapshot(), None, &j, 1);
        let jj = json.get("join").unwrap();
        assert_eq!(jj.get("batches").unwrap().as_u64(), Some(5));
        assert_eq!(jj.get("rows_probed").unwrap().as_u64(), Some(40));
        assert_eq!(jj.get("index_probes").unwrap().as_u64(), Some(12));
        assert_eq!(jj.get("hash_builds").unwrap().as_u64(), Some(3));
        assert_eq!(jj.get("hash_build_rows").unwrap().as_u64(), Some(30));
        let text = m.to_prometheus(&store.snapshot(), None, &j, 1);
        assert!(text.contains("routes_join_batches_total 5"));
        assert!(text.contains("routes_join_rows_probed_total 40"));
        assert!(text.contains("routes_join_hash_build_rows_total 30"));
    }

    #[test]
    fn phase_samples_accumulate_count_total_and_histogram() {
        let m = Metrics::new();
        let sample = |p: Phase, dur| routes_obs::record(p.name(), Some(m.phase(p)), dur);
        sample(Phase::Chase, Duration::from_micros(90));
        sample(Phase::Chase, Duration::from_micros(400));
        sample(Phase::Forest, Duration::from_millis(2));
        let snapshot = json_of(&m, 0, 1);
        let phases = snapshot.get("phases").unwrap();
        let stat = |phase: &str, key: &str| phases.get(phase).unwrap().get(key).unwrap().as_u64();
        assert_eq!(stat("chase", "count"), Some(2));
        assert_eq!(stat("chase", "total_us"), Some(490));
        assert_eq!(stat("forest", "count"), Some(1));
        assert_eq!(stat("route", "count"), Some(0));
        for p in Phase::ALL {
            let entry = phases.get(p.name()).unwrap();
            let hist_total: u64 = entry
                .get("latency_us")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|b| b.get("count").unwrap().as_u64().unwrap())
                .sum();
            assert_eq!(Some(hist_total), entry.get("count").unwrap().as_u64());
        }
    }

    /// A scrape where every counter holds a distinct non-zero value, every
    /// histogram has samples, and two request-latency buckets carry
    /// exemplars; with the value each counter and gauge must read, keyed by
    /// its [`dotted`] JSON path and stated independently of `declare`.
    fn busy_scrape() -> (
        Metrics,
        StoreSnapshot,
        PersistSnapshot,
        JoinSnapshot,
        HashMap<String, u64>,
    ) {
        let m = Metrics::new();
        m.record_response(200, Duration::from_micros(70), Some("trace-a"));
        m.record_response(503, Duration::from_millis(3), Some("trace-b"));
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            let dur = Duration::from_micros(50 + 700 * i as u64);
            routes_obs::record(p.name(), Some(m.phase(p)), dur);
        }
        let wait = Duration::from_micros(700);
        routes_obs::record("queue_wait", Some(&m.admission_queue_wait), wait);
        let counters = [
            ("requests_total", &m.requests_total),
            ("responses_2xx", &m.responses_2xx),
            ("responses_4xx", &m.responses_4xx),
            ("responses_5xx", &m.responses_5xx),
            ("bad_requests", &m.bad_requests),
            ("connections_accepted", &m.connections_accepted),
            ("admission.queue_capacity", &m.admission_queue_capacity),
            ("admission.queue_depth", &m.admission_queue_depth),
            ("admission.admitted", &m.admission_admitted),
            ("admission.shed", &m.admission_shed),
            ("admission.timeouts", &m.admission_timeouts),
            ("admission.reaped", &m.admission_reaped),
            ("sessions_created", &m.sessions_created),
            ("sessions_deleted", &m.sessions_deleted),
            ("sessions_evicted", &m.sessions_evicted),
            ("one_routes_computed", &m.one_routes_computed),
            ("all_routes_computed", &m.all_routes_computed),
            ("forest_cache_hits", &m.forest_cache_hits),
            ("forest_cache_misses", &m.forest_cache_misses),
            ("edits.applied", &m.edits_applied),
            ("edits.rejected", &m.edits_rejected),
            ("edits.ops_applied", &m.edit_ops_applied),
            ("edits.forests_kept", &m.edit_forests_kept),
            ("edits.forests_invalidated", &m.edit_forests_invalidated),
            ("pipeline.sessions_created", &m.pipeline_sessions_created),
            ("pipeline.stage_chases", &m.pipeline_stage_chases),
            ("pipeline.core_runs", &m.pipeline_core_runs),
            (
                "pipeline.core_tuples_removed",
                &m.pipeline_core_tuples_removed,
            ),
            ("pipeline.stitched_routes", &m.pipeline_stitched_routes),
            ("pipeline.stitched_hops", &m.pipeline_stitched_hops),
        ];
        let mut want = HashMap::new();
        for (i, (path, counter)) in counters.into_iter().enumerate() {
            counter.store(1_000 + i as u64, Relaxed);
            want.insert(path.to_owned(), 1_000 + i as u64);
        }
        let shard = |base: u64| ShardSnapshot {
            sessions: base as usize,
            capacity: base as usize + 1,
            hits: base + 2,
            misses: base + 3,
            inserts: base + 4,
            removes: base + 5,
            evictions: base + 6,
            demotions: base + 7,
            evict_scan_steps: base + 8,
            write_locks: base + 9,
            lock_wait_read_us: (10..16).map(|i| base + i).collect(),
            lock_wait_write_us: (20..26).map(|i| base + i).collect(),
        };
        let store = StoreSnapshot {
            capacity: 2_000,
            shards: vec![shard(2_100), shard(2_200)],
        };
        // The shard fields in the order of their offsets in `shard`.
        for (i, base) in [2_100, 2_200].into_iter().enumerate() {
            for (offset, key) in [
                "sessions",
                "capacity",
                "hits",
                "misses",
                "inserts",
                "removes",
                "evictions",
                "demotions",
                "evict_scan_steps",
                "write_locks",
            ]
            .into_iter()
            .enumerate()
            {
                let path = format!("session_store.shards[{i}].{key}");
                want.insert(path, base + offset as u64);
            }
        }
        let persist = PersistSnapshot {
            wal_appends: 3_001,
            wal_bytes: 3_002,
            wal_records_since_checkpoint: 3_003,
            fsync_batches: 3_004,
            fsync_records: 3_005,
            snapshots_written: 3_006,
            replayed_records: 3_007,
            restored_sessions: 3_008,
            recovery_dropped: 3_009,
            recovery_us: 3_010,
            wal_gen: 3_011,
            fsync_latency_us: (3_020..3_027).collect(),
        };
        let join = JoinSnapshot {
            batches: 4_001,
            rows_probed: 4_002,
            index_probes: 4_003,
            hash_builds: 4_004,
            hash_build_rows: 4_005,
        };
        let window = m.window.snapshot();
        // Store totals sum the two shards; persistence and join repeat the
        // values set above, and the window reads its own snapshot.
        for (path, value) in [
            ("live_sessions", 4_300),
            ("session_store.live_sessions", 4_300),
            ("session_store.capacity", 2_000),
            ("session_store.shard_count", 2),
            ("session_store.hits", 4_304),
            ("session_store.misses", 4_306),
            ("session_store.inserts", 4_308),
            ("session_store.removes", 4_310),
            ("session_store.evictions", 4_312),
            ("session_store.evict_scan_steps", 4_316),
            ("session_store.write_locks", 4_318),
            ("persistence.wal_appends", 3_001),
            ("persistence.wal_bytes", 3_002),
            ("persistence.wal_records_since_checkpoint", 3_003),
            ("persistence.fsync_batches", 3_004),
            ("persistence.fsync_records", 3_005),
            ("persistence.snapshots_written", 3_006),
            ("persistence.replayed_records", 3_007),
            ("persistence.restored_sessions", 3_008),
            ("persistence.recovery_dropped", 3_009),
            ("persistence.recovery_us", 3_010),
            ("persistence.wal_gen", 3_011),
            ("join.batches", 4_001),
            ("join.rows_probed", 4_002),
            ("join.index_probes", 4_003),
            ("join.hash_builds", 4_004),
            ("join.hash_build_rows", 4_005),
            ("window.seconds", window.seconds as u64),
            ("window.requests", window.requests),
            ("window.errors", window.errors),
            ("window.rps_milli", window.rps_milli),
            ("window.error_rate_milli", window.error_rate_milli),
            ("window.p50_us", window.p50_us),
            ("window.p90_us", window.p90_us),
            ("window.p99_us", window.p99_us),
        ] {
            want.insert(path.to_owned(), value);
        }
        for p in Phase::ALL {
            want.insert(format!("phases.{}.count", p.name()), 1);
        }
        (m, store, persist, join, want)
    }

    /// `path` written `a.b[0].c`.
    fn dotted(path: &[Key]) -> String {
        let steps: String = path
            .iter()
            .map(|key| match key {
                Key::Name(name) => format!(".{name}"),
                Key::Index(i) => format!("[{i}]"),
            })
            .collect();
        steps[1..].to_owned()
    }

    /// What one declared series must render as: its family, its JSON
    /// leaves (path and value), and its exposition sample lines.
    type Expected = (Option<&'static str>, Vec<(Vec<Key>, Json)>, Vec<String>);

    fn expected(s: &Series<'_>) -> Expected {
        let name = s.family.map(|f| f.name);
        let line = |suffix: &str, le: Option<&str>, value: u64| {
            let labels: Vec<String> = s
                .labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .chain(le.map(|le| format!("le=\"{le}\"")))
                .collect();
            let name = name.unwrap_or_default();
            match labels.is_empty() {
                true => format!("{name}{suffix} {value}"),
                false => format!("{name}{suffix}{{{}}} {value}", labels.join(",")),
            }
        };
        let h = match &s.reading {
            Reading::Value(v) => {
                return (
                    name,
                    vec![(s.json.to_vec(), Json::from(*v))],
                    vec![line("", None, *v)],
                )
            }
            Reading::Text(text) => {
                return (
                    name,
                    vec![(s.json.to_vec(), Json::from(*text))],
                    vec![line("", None, 1)],
                )
            }
            Reading::Histogram(h) => h,
        };
        let (mut buckets, mut occupied, mut lines, mut total) =
            (Vec::new(), Vec::new(), Vec::new(), 0);
        for (i, &count) in h.counts.iter().enumerate() {
            total += count;
            buckets.push(Json::obj([
                ("le_us", le_json(h.bounds, i)),
                ("count", Json::from(count)),
            ]));
            let le = h.bounds.get(i).map_or("+Inf".to_owned(), u64::to_string);
            let mut bucket = line("_bucket", Some(&le), total);
            if let Some((trace, dur)) = h.exemplars.and_then(|(_, e)| e[i].as_ref()) {
                bucket += &format!(" # {{trace_id=\"{trace}\"}} {dur}");
                occupied.push(Json::obj([
                    ("le_us", le_json(h.bounds, i)),
                    ("trace_id", Json::from(trace.as_str())),
                    ("dur_us", Json::from(*dur)),
                ]));
            }
            lines.push(bucket);
        }
        let mut leaves = vec![(s.json.to_vec(), Json::Array(buckets))];
        if let Some((path, sum)) = h.sum {
            leaves.push((path.to_vec(), Json::from(sum)));
            lines.push(line("_sum", None, sum));
        }
        if let Some((path, _)) = h.exemplars {
            leaves.push((path.to_vec(), Json::Array(occupied)));
        }
        lines.push(line("_count", None, total));
        (name, leaves, lines)
    }

    /// Remove and return the leaf at `path`.
    fn take(root: &mut Json, path: &[Key]) -> Option<Json> {
        let (last, parents) = path.split_last()?;
        let mut node = root;
        for key in parents {
            node = match (node, key) {
                (Json::Object(fields), Key::Name(name)) => {
                    &mut fields.iter_mut().find(|(k, _)| k == name)?.1
                }
                (Json::Array(items), Key::Index(i)) => items.get_mut(*i)?,
                _ => return None,
            };
        }
        let (Json::Object(fields), Key::Name(name)) = (node, last) else {
            return None;
        };
        let at = fields.iter().position(|(k, _)| k == name)?;
        Some(fields.remove(at).1)
    }

    /// Paths of every leaf left in `json` (an empty array counts as one).
    fn leftovers(json: &Json, path: &str, out: &mut Vec<String>) {
        match json {
            Json::Object(fields) => {
                for (key, value) in fields {
                    leftovers(value, &format!("{path}.{key}"), out);
                }
            }
            Json::Array(items) if !items.is_empty() => {
                for (i, item) in items.iter().enumerate() {
                    leftovers(item, &format!("{path}[{i}]"), out);
                }
            }
            _ => out.push(path.to_owned()),
        }
    }

    #[test]
    fn every_declared_series_renders_once_in_each_format() {
        let (m, store, persist, join, mut want) = busy_scrape();
        // Uptime is read once per walk: retry if a second boundary falls
        // between the three walks.
        let (mut json, text, declared, values) = loop {
            let before = m.uptime_seconds();
            let json = m.to_json_with_store(&store, Some(&persist), &join, 3);
            let text = m.to_prometheus(&store, Some(&persist), &join, 3);
            let (mut declared, mut values) = (Vec::new(), Vec::new());
            declare(&m, &store, Some(&persist), &join, 3, &mut |s| {
                if let Reading::Value(v) = s.reading {
                    values.push((dotted(s.json), v));
                }
                declared.push(expected(&s));
            });
            if m.uptime_seconds() == before {
                want.insert("uptime_seconds".to_owned(), before);
                break (json, text, declared, values);
            }
        };
        // Each counter and gauge reads the value stored for its own path.
        want.insert("threads".to_owned(), 3);
        for (path, value) in values {
            assert_eq!(want.remove(&path), Some(value), "value at {path}");
        }
        assert!(want.is_empty(), "stored values no series reads: {want:?}");
        let (mut paths, mut families, mut lines, mut json_only) =
            (HashSet::new(), HashSet::new(), Vec::new(), Vec::new());
        for (family, leaves, series) in declared {
            match family {
                Some(name) => {
                    families.insert(name);
                    lines.extend(series);
                }
                None => json_only.push(leaves[0].0.clone()),
            }
            for (path, leaf) in leaves {
                assert!(paths.insert(path.clone()), "{path:?} declared twice");
                assert_eq!(take(&mut json, &path), Some(leaf), "JSON leaf {path:?}");
            }
        }
        let mut left = Vec::new();
        leftovers(&json, "$", &mut left);
        assert!(
            left.is_empty(),
            "JSON leaves the list does not declare: {left:?}"
        );
        let mut rendered: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        rendered.sort_unstable();
        lines.sort_unstable();
        assert!(
            lines.windows(2).all(|w| w[0] != w[1]),
            "a sample declared twice"
        );
        assert_eq!(rendered, lines, "exposition samples");
        assert_eq!(
            text.matches("# TYPE ").count(),
            families.len(),
            "one announcement per family"
        );
        assert_eq!(
            text.matches(" # {trace_id=").count(),
            2,
            "both exemplars rendered"
        );
        let mut only: Vec<Vec<Key>> = Phase::ALL
            .map(|p| vec![Key::Name("phases"), Key::Name(p.name()), Key::Name("count")])
            .to_vec();
        only.push(vec![Key::Name("session_store"), Key::Name("live_sessions")]);
        assert_eq!(json_only, only, "only the two JSON-only entries");
    }
}
