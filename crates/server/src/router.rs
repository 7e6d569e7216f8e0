//! Request routing and handlers: the service's REST surface.
//!
//! ```text
//! POST   /sessions                  load a scenario, chase if needed
//! GET    /sessions/{id}             instance + chase summary
//! POST   /sessions/{id}/edit        apply a mutation batch (delta-chase)
//! POST   /sessions/{id}/one-route   ComputeOneRoute for a selection
//! POST   /sessions/{id}/all-routes  ComputeAllRoutes (memoized per session)
//! DELETE /sessions/{id}             drop the session
//! GET    /metrics                   service counters (JSON or Prometheus)
//! GET    /healthz                   liveness probe (lock-free)
//! GET    /trace                     recent completed spans
//! POST   /shutdown                  begin graceful shutdown
//! ```
//!
//! An unsupported method on a known route answers 405 with an `Allow`
//! header (RFC 9110); an unknown path — including unknown `/sessions/{id}/…`
//! subpaths — answers 404.
//!
//! Handlers are synchronous and lock-light: the session store lock is held
//! only for lookups; route computation runs on a shared immutable session.
//! Edits swap in a fresh immutable incarnation (see `session`), so readers
//! never see a half-applied batch.
//!
//! [`App::handle_traced`] wraps dispatch in a trace context: every request
//! gets a trace ID (the client's `X-Trace-Id` when well-formed, else a
//! deterministic minted one), echoed back as `X-Trace-Id`, stamped on error
//! bodies and log lines, and attached to every span the handler opens.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use routes_chase::{ChaseStats, TgdStats};
use routes_core::{compute_one_route, RouteForest};
use routes_model::TupleId;
use routes_pipeline::{stitch_route, PreparedPipeline, StitchError};
use routes_pool::Pool;

use routes_store::{ChaseMode, Durability, EditOp, Record};

use crate::answer;
use crate::http::{Request, Response};
use crate::json::{self, Json};
use crate::metrics::{Metrics, Phase};
use crate::persist::Persistence;
use crate::session::{
    chase_options, LoadedText, Removal, Session, SessionLookup, SessionOrigin, SessionStore,
};

/// The shared application state every worker thread serves from.
pub struct App {
    pub store: SessionStore,
    pub metrics: Metrics,
    /// Worker pool for parallel chase and forest construction, sized from
    /// `ROUTES_THREADS` or the machine's available parallelism.
    pub pool: Pool,
    /// Durability, when a data directory is configured; `None` keeps the
    /// service purely in-memory with zero persistence overhead.
    persist: Option<Persistence>,
    /// Trace-ID minting and the span ring (`GET /trace`).
    tracer: Arc<routes_obs::Tracer>,
    /// Requests slower than this emit a `slow_request` warning.
    slow: Duration,
    shutdown: AtomicBool,
}

impl App {
    pub fn new(max_sessions: usize) -> Self {
        App::with_pool(max_sessions, Pool::from_env())
    }

    /// [`App::new`] with an explicit worker pool (tests pin the width).
    pub fn with_pool(max_sessions: usize, pool: Pool) -> Self {
        App::with_store(SessionStore::new(max_sessions), pool)
    }

    /// [`App::with_pool`] with an explicit store (tests pin the shard
    /// count).
    pub fn with_store(store: SessionStore, pool: Pool) -> Self {
        App::with_persistence(store, pool, None)
    }

    /// [`App::with_store`] plus an (already-recovered) persistence handle;
    /// tracing and the slow-request threshold come from the environment.
    pub fn with_persistence(store: SessionStore, pool: Pool, persist: Option<Persistence>) -> Self {
        App::with_observability(
            store,
            pool,
            persist,
            Arc::new(routes_obs::Tracer::from_env(None)),
            routes_obs::slow_threshold_from_env(),
        )
    }

    /// [`App::with_persistence`] with an explicit tracer and slow-request
    /// threshold (tests pin the ring capacity, seed, and threshold).
    pub fn with_observability(
        store: SessionStore,
        pool: Pool,
        persist: Option<Persistence>,
        tracer: Arc<routes_obs::Tracer>,
        slow: Duration,
    ) -> Self {
        App {
            store,
            metrics: Metrics::new(),
            pool,
            persist,
            tracer,
            slow,
            shutdown: AtomicBool::new(false),
        }
    }

    /// The tracer serving `GET /trace`.
    pub fn tracer(&self) -> &Arc<routes_obs::Tracer> {
        &self.tracer
    }

    /// The persistence handle, when a data directory is configured.
    pub fn persistence(&self) -> Option<&Persistence> {
        self.persist.as_ref()
    }

    /// Append a WAL record whose loss cannot change an answer (touches,
    /// forest memos): buffered, and a poisoned log is not a request error.
    fn log_relaxed(&self, record: Record) {
        if let Some(p) = &self.persist {
            let _ = p.append(&record, Durability::Buffered);
        }
    }

    /// Append a WAL record that backs an answer the client is about to
    /// see (creates, deletes, evictions): fsynced before returning. `Err`
    /// means the record is *not* durable — the handler must turn it into
    /// a 500 rather than ack a mutation that a crash would undo.
    fn log_synced(&self, record: Record) -> std::io::Result<()> {
        match &self.persist {
            Some(p) => p.append(&record, Durability::Synced),
            None => Ok(()),
        }
    }

    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Relaxed)
    }

    /// [`App::handle`] inside a full trace context: installs the request's
    /// trace ID, records the `request` span, counts the response, emits the
    /// slow-request warning, and stamps `X-Trace-Id` on the way out. This
    /// is what the accept loop calls; `handle` stays separate for tests
    /// that exercise routing alone.
    pub fn handle_traced(&self, req: &Request) -> Response {
        let ctx = self.tracer.begin(req.header("x-trace-id"));
        let _scope = routes_obs::scoped(Some(ctx.clone()));
        // Root frame for the sampling profiler: every in-request span
        // (chase, route, print, …) collapses under `request;…`.
        let _frame = routes_obs::profile_frame("request");
        let started = Instant::now();
        let mut response = catch_unwind(AssertUnwindSafe(|| self.handle(req)))
            .unwrap_or_else(|_| Response::error(500, "handler panicked"));
        let elapsed = started.elapsed();
        ctx.record("request", started, elapsed);
        self.metrics
            .record_response(response.status, elapsed, Some(ctx.id().as_str()));
        let elapsed_us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        if elapsed >= self.slow {
            // Per-phase breakdown from the spans this request already
            // recorded: one ring pass, no extra clocks on the fast path.
            let phases = self
                .tracer
                .phase_totals_us(ctx.id(), &["chase", "forest", "route", "print", "edit"]);
            routes_obs::log(
                routes_obs::Level::Warn,
                "slow_request",
                &[
                    ("method", routes_obs::Value::from(req.method.as_str())),
                    ("path", routes_obs::Value::from(req.path.as_str())),
                    (
                        "status",
                        routes_obs::Value::from(u64::from(response.status)),
                    ),
                    ("elapsed_us", routes_obs::Value::from(elapsed_us)),
                    (
                        "threshold_ms",
                        routes_obs::Value::from(
                            self.slow.as_millis().min(u128::from(u64::MAX)) as u64
                        ),
                    ),
                    ("chase_us", routes_obs::Value::from(phases[0])),
                    ("forest_us", routes_obs::Value::from(phases[1])),
                    ("route_us", routes_obs::Value::from(phases[2])),
                    ("print_us", routes_obs::Value::from(phases[3])),
                    ("edit_us", routes_obs::Value::from(phases[4])),
                ],
            );
        } else {
            routes_obs::log(
                routes_obs::Level::Debug,
                "request",
                &[
                    ("method", routes_obs::Value::from(req.method.as_str())),
                    ("path", routes_obs::Value::from(req.path.as_str())),
                    (
                        "status",
                        routes_obs::Value::from(u64::from(response.status)),
                    ),
                    ("elapsed_us", routes_obs::Value::from(elapsed_us)),
                ],
            );
        }
        response.set_header("x-trace-id", ctx.id().as_str().to_owned());
        response
    }

    /// Dispatch one request.
    pub fn handle(&self, req: &Request) -> Response {
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        match (req.method.as_str(), segments.as_slice()) {
            ("POST", ["sessions"]) => self.create_session(req),
            ("GET", ["sessions", id]) => self.with_session(id, |s| self.session_summary(&s)),
            ("DELETE", ["sessions", id]) => self.delete_session(id),
            ("POST", ["sessions", id, "edit"]) => self.edit_session(id, req),
            ("POST", ["sessions", id, "one-route"]) => {
                self.with_session(id, |s| self.one_route(&s, req))
            }
            ("POST", ["sessions", id, "all-routes"]) => {
                self.with_session(id, |s| self.all_routes(&s, req))
            }
            ("POST", ["sessions", id, "stitched-route"]) => {
                self.with_session(id, |s| self.stitched_route(&s, req))
            }
            ("GET", ["metrics"]) => self.metrics_response(req),
            ("GET", ["profile"]) => self.profile_response(req),
            ("GET", ["sessions", id, "profile"]) => {
                self.with_session(id, |s| self.session_profile(&s))
            }
            ("GET", ["healthz"]) => {
                // Liveness probe: touches no session-store shard lock and no
                // WAL state — atomics only, it must answer even when those
                // are contended.
                let wal_gen = self
                    .persist
                    .as_ref()
                    .map_or(Json::Null, |p| Json::from(p.metrics.wal_gen.load(Relaxed)));
                Response::json(
                    200,
                    Json::obj([
                        ("ok", Json::Bool(true)),
                        ("version", Json::from(env!("CARGO_PKG_VERSION"))),
                        ("uptime_seconds", Json::from(self.metrics.uptime_seconds())),
                        ("wal_gen", wal_gen),
                    ])
                    .encode(),
                )
            }
            ("GET", ["trace"]) => self.trace_dump(req),
            ("POST", ["shutdown"]) => {
                self.shutdown.store(true, Relaxed);
                Response::json(
                    200,
                    Json::obj([("shutting_down", Json::Bool(true))]).encode(),
                )
            }
            (_, ["sessions"]) => method_not_allowed("POST"),
            (_, ["sessions", _]) => method_not_allowed("GET, DELETE"),
            (_, ["sessions", _, "edit" | "one-route" | "all-routes" | "stitched-route"]) => {
                method_not_allowed("POST")
            }
            (_, ["sessions", _, "profile"]) => method_not_allowed("GET"),
            (_, ["metrics"]) | (_, ["healthz"]) | (_, ["trace"]) | (_, ["profile"]) => {
                method_not_allowed("GET")
            }
            (_, ["shutdown"]) => method_not_allowed("POST"),
            _ => Response::error(404, "no such resource"),
        }
    }

    /// `GET /metrics`: JSON by default; Prometheus text on
    /// `?format=prometheus` or an `Accept` header asking for `text/plain`.
    fn metrics_response(&self, req: &Request) -> Response {
        let prometheus = match req.query_param("format") {
            Some("prometheus") => true,
            Some("json") => false,
            Some(other) => {
                return Response::error(
                    400,
                    &format!("unknown metrics format `{other}` (json, prometheus)"),
                )
            }
            None => req
                .header("accept")
                .is_some_and(|accept| accept.contains("text/plain")),
        };
        let store = self.store.snapshot();
        let persist = self.persist.as_ref().map(|p| p.metrics.snapshot());
        let join = routes_model::joinstats::snapshot();
        if prometheus {
            let text =
                self.metrics
                    .to_prometheus(&store, persist.as_ref(), &join, self.pool.threads());
            Response::with_content_type(200, text.into_bytes(), routes_obs::PROMETHEUS_CONTENT_TYPE)
        } else {
            Response::json(
                200,
                self.metrics
                    .to_json_with_store(&store, persist.as_ref(), &join, self.pool.threads())
                    .encode(),
            )
        }
    }

    /// `GET /trace`: recent completed spans, oldest first, optionally
    /// filtered to one trace via `?trace_id=` and capped via `?limit=N`
    /// (at most `N` records, oldest first, copied under one mutex hold).
    fn trace_dump(&self, req: &Request) -> Response {
        let filter = req.query_param("trace_id");
        if let Some(f) = filter {
            if routes_obs::TraceId::parse(f).is_none() {
                return Response::error(400, "malformed trace_id filter");
            }
        }
        let recent = match req.query_param("limit") {
            None => self.tracer.recent(),
            Some(raw) => match raw.parse::<usize>() {
                Ok(n) => self.tracer.recent_limited(n),
                Err(_) => {
                    return Response::error(400, "malformed limit (must be a non-negative integer)")
                }
            },
        };
        let spans: Vec<Json> = recent
            .iter()
            .filter(|s| filter.is_none_or(|f| s.trace.as_str() == f))
            .map(|s| {
                Json::obj([
                    ("trace_id", Json::from(s.trace.as_str())),
                    ("name", Json::from(s.name)),
                    ("start_us", Json::from(s.start_us)),
                    ("dur_us", Json::from(s.dur_us)),
                ])
            })
            .collect();
        Response::json(
            200,
            Json::obj([
                ("enabled", Json::Bool(self.tracer.is_enabled())),
                ("capacity", Json::from(self.tracer.capacity())),
                ("spans", Json::Array(spans)),
            ])
            .encode(),
        )
    }

    /// `GET /profile`: the self-profiler's collapsed stacks, as JSON
    /// (default) or flamegraph-collapsed text. `?format=json|collapsed`
    /// overrides `Accept` negotiation; `?delta=true` scrapes only the
    /// samples since the previous delta scrape.
    fn profile_response(&self, req: &Request) -> Response {
        let collapsed = match req.query_param("format") {
            Some("collapsed") => true,
            Some("json") => false,
            Some(other) => {
                return Response::error(
                    400,
                    &format!("unknown profile format `{other}` (json, collapsed)"),
                )
            }
            None => match req.header("accept") {
                None => false,
                Some(accept) => {
                    if accept.contains("application/json") || accept.contains("*/*") {
                        false
                    } else if accept.contains("text/plain") {
                        true
                    } else {
                        return Response::error(
                            406,
                            "profile is served as application/json or text/plain",
                        );
                    }
                }
            },
        };
        let delta = match req.query_param("delta") {
            Some("true") => true,
            None | Some("false") => false,
            Some(other) => {
                return Response::error(
                    400,
                    &format!("`delta` must be true or false, got `{other}`"),
                )
            }
        };
        let snap = routes_obs::profile_collect(delta);
        if collapsed {
            return Response::with_content_type(
                200,
                snap.collapsed().into_bytes(),
                "text/plain; charset=utf-8",
            );
        }
        Response::json(
            200,
            Json::obj([
                ("enabled", Json::Bool(snap.enabled)),
                ("hz", Json::from(u64::from(snap.hz))),
                ("ticks", Json::from(snap.ticks)),
                ("total_samples", Json::from(snap.total_samples())),
                ("phases", profile_phases_json(&snap.stacks)),
                ("tree", profile_tree_json(&snap.stacks)),
            ])
            .encode(),
        )
    }

    /// `GET /sessions/{id}/profile`: per-tgd chase attribution for this
    /// session's materialization, plus per-hop chase/core timings for
    /// pipeline sessions.
    fn session_profile(&self, session: &Session) -> Response {
        let chase = match session.chase_stats() {
            Some(stats) => Json::obj([
                ("stats", chase_stats_json(&stats)),
                (
                    "per_tgd",
                    Json::Array(stats.per_tgd.iter().map(tgd_stats_json).collect()),
                ),
            ]),
            None => Json::Null,
        };
        let pipeline = match session.pipeline() {
            Some(prepared) => Json::Array(
                prepared
                    .stages
                    .iter()
                    .enumerate()
                    .map(|(k, stage)| {
                        Json::obj([
                            ("stage", Json::from(k as u64)),
                            ("name", Json::from(stage.name.as_str())),
                            ("chase_us", Json::from(stage.chase_us)),
                            ("core_us", Json::from(stage.core_us)),
                            (
                                "tuples_before_core",
                                Json::from(stage.tuples_before_core as u64),
                            ),
                            ("core_removed", Json::from(stage.core_removed as u64)),
                            ("stats", chase_stats_json(&stage.stats)),
                            (
                                "per_tgd",
                                Json::Array(
                                    stage.stats.per_tgd.iter().map(tgd_stats_json).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
            None => Json::Null,
        };
        Response::json(
            200,
            Json::obj([("chase", chase), ("pipeline", pipeline)]).encode(),
        )
    }

    fn with_session(
        &self,
        id: &str,
        f: impl FnOnce(std::sync::Arc<Session>) -> Response,
    ) -> Response {
        let Ok(id) = id.parse::<u64>() else {
            return Response::error(400, "session id must be an integer");
        };
        match self.store.get(id) {
            SessionLookup::Found(session) => {
                // The hit stamped the session most-recently-used; mirror
                // that into the log so replay reconstructs recency.
                self.log_relaxed(Record::Touch { id });
                f(session)
            }
            SessionLookup::Evicted => Response::error(410, "session evicted (store at capacity)"),
            SessionLookup::Missing => Response::error(404, "no such session"),
        }
    }

    /// `POST /sessions`: load the text (flat or pipeline, by its syntax),
    /// chase it — every hop of a pipeline, core minimization included when
    /// the text asks for it — and store the session. A pipeline keeps its
    /// full chain for stitched routes beside the final hop's flat view.
    /// Load and chase failures answer 422; the WAL record is `(text,
    /// chase)` either way, which replays the whole session.
    fn create_session(&self, req: &Request) -> Response {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(resp) => return resp,
        };
        let Some(text) = body.get("scenario").and_then(Json::as_str) else {
            return Response::error(422, "body must have a string `scenario` field");
        };
        let chase_mode = match body.get("chase").and_then(Json::as_str) {
            None | Some("fresh") => ChaseMode::Fresh,
            Some("skolem") => ChaseMode::Skolem,
            Some(_) => return Response::error(422, "`chase` must be \"fresh\" or \"skolem\""),
        };
        let loaded = match LoadedText::load(text) {
            Ok(l) => l,
            Err(e) => return Response::error(422, &format!("scenario does not load: {e}")),
        };
        let (scenario, pipeline) = {
            let _span = routes_obs::span("chase");
            match loaded.prepare(chase_mode, &self.pool) {
                Ok(p) => p,
                Err(e) => return Response::error(422, &format!("chase failed: {e}")),
            }
        };
        if let Some(wall) = scenario.chase_wall {
            self.metrics.record_phase(Phase::Chase, wall);
        }
        let summary = [
            ("source_tuples", Json::from(scenario.source.total_tuples())),
            ("target_tuples", Json::from(scenario.target.total_tuples())),
            ("weakly_acyclic", Json::from(scenario.weakly_acyclic)),
            (
                "chase",
                scenario
                    .chase_stats
                    .as_ref()
                    .map_or(Json::Null, chase_stats_json),
            ),
        ];
        let chain = pipeline.clone();
        let origin = SessionOrigin {
            chase: chase_mode,
            text: std::sync::Arc::from(text),
        };
        let (id, evicted) = self
            .store
            .insert_prepared(scenario, pipeline, origin, &self.pool);
        // Mutation first, WAL second (see `persist`): evictions ride the
        // create's group commit, and a failed fsync refuses the ack — the
        // client must never hold a 201 a crash would take back.
        for &gone in &evicted {
            self.log_relaxed(Record::Evict { id: gone });
        }
        if let Err(e) = self.log_synced(Record::Create {
            id,
            chase: chase_mode,
            scenario: text.to_owned(),
        }) {
            self.store.remove(id);
            return Response::error(500, &format!("session not persisted: {e}"));
        }
        self.metrics.sessions_created.fetch_add(1, Relaxed);
        self.metrics
            .sessions_evicted
            .fetch_add(evicted.len() as u64, Relaxed);
        let mut fields = vec![("session", Json::from(id))];
        fields.extend(summary);
        if let Some(chain) = chain {
            fields.push(("pipeline", self.count_pipeline_create(&chain)));
        }
        fields.push((
            "evicted",
            Json::Array(evicted.into_iter().map(Json::from).collect()),
        ));
        Response::json(201, Json::obj(fields).encode())
    }

    /// Count a created pipeline session in `/metrics` and summarize its
    /// chain for the create response.
    fn count_pipeline_create(&self, chain: &PreparedPipeline) -> Json {
        let hops = chain.hops();
        let core_mode = chain.pipeline.core_mode();
        let (core_before, core_after) = chain.core_shrink();
        self.metrics.pipeline_sessions_created.fetch_add(1, Relaxed);
        self.metrics
            .pipeline_stage_chases
            .fetch_add(hops as u64, Relaxed);
        if core_mode {
            self.metrics
                .pipeline_core_runs
                .fetch_add(hops as u64, Relaxed);
            self.metrics
                .pipeline_core_tuples_removed
                .fetch_add((core_before - core_after) as u64, Relaxed);
        }
        let stages = chain.stages.iter().map(|s| Json::from(s.name.as_str()));
        Json::obj([
            ("hops", Json::from(hops)),
            ("stages", Json::Array(stages.collect())),
            ("core", Json::from(core_mode)),
            ("core_tuples_before", Json::from(core_before)),
            ("core_tuples_after", Json::from(core_after)),
        ])
    }

    /// `POST /sessions/{id}/stitched-route`: an end-to-end route for
    /// tuples of the final hop's target, hop by hop from the original
    /// source. 409 on non-pipeline sessions. Every answered route is
    /// replayed per-hop (Definition 3.3 at each stage) before the client
    /// sees it, exactly like `one-route`.
    fn stitched_route(&self, session: &Session, req: &Request) -> Response {
        let Some(pipeline) = session.pipeline() else {
            return Response::error(409, "session is not a pipeline (no stages to stitch)");
        };
        let selected = match parse_selection(session, req) {
            Ok(sel) => sel,
            Err(resp) => return resp,
        };
        let route_start = Instant::now();
        let route_span = routes_obs::span("route");
        let stitched = match stitch_route(pipeline, &selected) {
            Ok(s) => s,
            Err(StitchError::EmptySelection) => {
                return Response::error(422, "select at least one tuple")
            }
            Err(StitchError::NoRoute { stage, source }) => {
                drop(route_span);
                self.metrics
                    .record_phase(Phase::Route, route_start.elapsed());
                // Like one-route's no_route: an unroutable tuple is a
                // debugging answer, not a client error.
                return Response::json(
                    200,
                    Json::obj([
                        ("found", Json::Bool(false)),
                        ("stage", Json::from(stage.as_str())),
                        ("no_route", Json::from(source.to_string())),
                    ])
                    .encode(),
                );
            }
        };
        if let Err(e) = stitched.validate(pipeline) {
            return Response::error(500, &format!("stitched route failed replay: {e}"));
        }
        drop(route_span);
        self.metrics
            .record_phase(Phase::Route, route_start.elapsed());
        self.metrics.pipeline_stitched_routes.fetch_add(1, Relaxed);
        self.metrics
            .pipeline_stitched_hops
            .fetch_add(stitched.stages.len() as u64, Relaxed);
        let print_start = Instant::now();
        let _print_span = routes_obs::span("print");
        let response = Response::json(200, answer::stitched(pipeline, &stitched));
        self.metrics
            .record_phase(Phase::Print, print_start.elapsed());
        response
    }

    fn delete_session(&self, id: &str) -> Response {
        let Ok(id) = id.parse::<u64>() else {
            return Response::error(400, "session id must be an integer");
        };
        match self.store.remove(id) {
            Removal::Removed => {
                if let Err(e) = self.log_synced(Record::Delete { id }) {
                    return Response::error(500, &format!("delete not persisted: {e}"));
                }
                self.metrics.sessions_deleted.fetch_add(1, Relaxed);
                Response::json(200, Json::obj([("deleted", Json::Bool(true))]).encode())
            }
            Removal::Evicted => Response::error(410, "session evicted (store at capacity)"),
            Removal::Missing => Response::error(404, "no such session"),
        }
    }

    /// `POST /sessions/{id}/edit`: apply a batch of mutation ops through
    /// the incremental delta-chase (`routes-incr`), swap the post-edit
    /// incarnation into the store, and log a WAL `Edit` record. Editors
    /// are serialized per session; readers holding the pre-edit `Arc`
    /// keep a consistent snapshot, and cached forests whose support is
    /// untouched survive into the new incarnation (so their `cached: true`
    /// answers stay warm).
    fn edit_session(&self, id: &str, req: &Request) -> Response {
        let Ok(id) = id.parse::<u64>() else {
            return Response::error(400, "session id must be an integer");
        };
        let ops = match parse_edit_ops(req) {
            Ok(ops) => ops,
            Err(resp) => {
                self.metrics.edits_rejected.fetch_add(1, Relaxed);
                return resp;
            }
        };
        let session = match self.store.get(id) {
            SessionLookup::Found(s) => {
                self.log_relaxed(Record::Touch { id });
                s
            }
            SessionLookup::Evicted => {
                return Response::error(410, "session evicted (store at capacity)")
            }
            SessionLookup::Missing => return Response::error(404, "no such session"),
        };
        // Serialize editors on this id, then re-fetch: a queued editor
        // must build on its predecessor's incarnation, not the one it
        // looked up before blocking. `peek` leaves recency and hit
        // accounting alone, so a live edit perturbs exactly the state WAL
        // replay reconstructs (one touch + one edit per batch).
        let lock = session.edit_lock();
        let _guard = lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let session = match self.store.peek(id) {
            SessionLookup::Found(s) => s,
            SessionLookup::Evicted => {
                return Response::error(410, "session evicted (store at capacity)")
            }
            SessionLookup::Missing => return Response::error(404, "no such session"),
        };
        let Some(origin) = session.origin() else {
            // Sessions injected without an origin (tests, benchmarks) have
            // no canonical scenario text to edit.
            return Response::error(409, "session has no scenario text to edit");
        };
        if session.pipeline().is_some() {
            // The delta-chase edits one mapping; re-deriving every later
            // hop of a chain is a full re-create, not an edit.
            self.metrics.edits_rejected.fetch_add(1, Relaxed);
            return Response::error(409, "pipeline sessions do not support edits");
        }
        let options = chase_options(origin.chase);
        let edit_start = Instant::now();
        let apply = {
            let _span = routes_obs::span("edit");
            match routes_incr::apply_batch(
                &origin.text,
                &session.scenario,
                session.incr_state(),
                &ops,
                options,
                &self.pool,
            ) {
                Ok(apply) => apply,
                Err(e) => {
                    self.metrics.edits_rejected.fetch_add(1, Relaxed);
                    return Response::error(422, &format!("edit rejected: {e}"));
                }
            }
        };
        // Surgical forest carry-over: survivors are byte-identical to a
        // fresh recompute (see routes-incr), so they stay memoized — and
        // their answers stay `cached: true` — in the new incarnation.
        let entries = session.forest_entries();
        let keep: HashSet<Vec<TupleId>> = routes_incr::surviving_selections(
            entries.iter().map(|(key, forest)| (key, forest.as_ref())),
            &apply,
            &session.scenario.pool,
        )
        .into_iter()
        .collect();
        let forests_invalidated = entries.len() - keep.len();
        let survivors: HashMap<Vec<TupleId>, Arc<RouteForest>> = entries
            .into_iter()
            .filter(|(key, _)| keep.contains(key))
            .collect();
        let forests_kept = survivors.len();
        let new_seq = session.edit_seq() + 1;
        let new_origin = SessionOrigin {
            chase: origin.chase,
            text: Arc::from(apply.text.as_str()),
        };
        let chase_wall = apply.scenario.chase_wall;
        let stats = apply.scenario.chase_stats.clone();
        let source_tuples = apply.scenario.source.total_tuples();
        let target_tuples = apply.scenario.target.total_tuples();
        let (memo_hits, memo_misses) = (apply.memo_hits, apply.memo_misses);
        let mapping_changed = apply.mapping_changed;
        let (source_inserted, source_deleted) = (apply.source_inserted, apply.source_deleted);
        let replacement =
            Arc::new(session.edited(apply.scenario, new_origin, new_seq, apply.state, survivors));
        if !self.store.replace(id, replacement) {
            // A concurrent DELETE (or eviction) won while we were chasing.
            return Response::error(404, "no such session");
        }
        // Mutation first, WAL second (as in create): a failed fsync swaps
        // the pre-edit incarnation back and refuses the ack.
        if let Err(e) = self.log_synced(Record::Edit {
            id,
            seq: new_seq,
            ops: ops.clone(),
        }) {
            self.store.replace(id, session);
            return Response::error(500, &format!("edit not persisted: {e}"));
        }
        self.metrics.record_phase(Phase::Edit, edit_start.elapsed());
        if let Some(wall) = chase_wall {
            self.metrics.record_phase(Phase::Chase, wall);
        }
        self.metrics.edits_applied.fetch_add(1, Relaxed);
        self.metrics
            .edit_ops_applied
            .fetch_add(ops.len() as u64, Relaxed);
        self.metrics
            .edit_forests_kept
            .fetch_add(forests_kept as u64, Relaxed);
        self.metrics
            .edit_forests_invalidated
            .fetch_add(forests_invalidated as u64, Relaxed);
        Response::json(
            200,
            Json::obj([
                ("session", Json::from(id)),
                ("edit_seq", Json::from(new_seq)),
                ("ops_applied", Json::from(ops.len())),
                ("memo_hits", Json::from(memo_hits)),
                ("memo_misses", Json::from(memo_misses)),
                ("mapping_changed", Json::from(mapping_changed)),
                ("source_inserted", Json::from(source_inserted)),
                ("source_deleted", Json::from(source_deleted)),
                ("source_tuples", Json::from(source_tuples)),
                ("target_tuples", Json::from(target_tuples)),
                ("forests_kept", Json::from(forests_kept)),
                ("forests_invalidated", Json::from(forests_invalidated)),
                ("chase", stats.map_or(Json::Null, |s| chase_stats_json(&s))),
            ])
            .encode(),
        )
    }

    fn session_summary(&self, session: &Session) -> Response {
        let sc = &session.scenario;
        let rel_counts = |schema: &routes_model::Schema, inst: &routes_model::Instance| {
            Json::Object(
                schema
                    .iter()
                    .map(|(id, rel)| (rel.name().to_owned(), Json::from(inst.rel_len(id))))
                    .collect(),
            )
        };
        Response::json(
            200,
            Json::obj([
                ("session", Json::from(session.id)),
                ("source", rel_counts(sc.mapping.source(), &sc.source)),
                ("target", rel_counts(sc.mapping.target(), &sc.target)),
                ("weakly_acyclic", Json::from(sc.weakly_acyclic)),
                (
                    "chase",
                    session
                        .chase_stats()
                        .map_or(Json::Null, |s| chase_stats_json(&s)),
                ),
                ("egd_merges", Json::from(sc.egd_log.len())),
                ("cached_forests", Json::from(session.cached_forests())),
            ])
            .encode(),
        )
    }

    fn one_route(&self, session: &Session, req: &Request) -> Response {
        let selected = match parse_selection(session, req) {
            Ok(sel) => sel,
            Err(resp) => return resp,
        };
        self.metrics.one_routes_computed.fetch_add(1, Relaxed);
        let env = session.env();
        let route_start = Instant::now();
        let route_span = routes_obs::span("route");
        let computed = compute_one_route(env, &selected);
        match computed {
            Ok(route) => {
                // Replay per Definition 3.3 before answering: a route the
                // service emits is always machine-checked against (I, J).
                let produced = match route.validate(&env, &selected) {
                    Ok(p) => p,
                    Err(e) => {
                        return Response::error(500, &format!("computed route failed replay: {e}"))
                    }
                };
                drop(route_span);
                self.metrics
                    .record_phase(Phase::Route, route_start.elapsed());
                let print_start = Instant::now();
                let print_span = routes_obs::span("print");
                let response = Response::json(
                    200,
                    answer::one_route(&session.scenario.pool, &env, &route, produced.len()),
                );
                drop(print_span);
                self.metrics
                    .record_phase(Phase::Print, print_start.elapsed());
                response
            }
            Err(e) => {
                drop(route_span);
                self.metrics
                    .record_phase(Phase::Route, route_start.elapsed());
                // "No route" is a debugging *answer* (the paper's unroutable
                // tuples), not a client error.
                Response::json(
                    200,
                    answer::no_route(&session.scenario.pool, &env, &e.no_route),
                )
            }
        }
    }

    fn all_routes(&self, session: &Session, req: &Request) -> Response {
        let selected = match parse_selection(session, req) {
            Ok(sel) => sel,
            Err(resp) => return resp,
        };
        self.metrics.all_routes_computed.fetch_add(1, Relaxed);
        let forest_start = Instant::now();
        let (forest, cached, wall) = session.forest_for(&selected, &self.pool);
        if cached {
            self.metrics.forest_cache_hits.fetch_add(1, Relaxed);
        } else {
            // Record the forest span only when a forest was actually built
            // — a memo hit is a lookup, not a build.
            if let Some(ctx) = routes_obs::current() {
                ctx.record("forest", forest_start, forest_start.elapsed());
            }
            self.metrics.forest_cache_misses.fetch_add(1, Relaxed);
            self.metrics.record_phase(Phase::Forest, wall);
            // Persist the memo key (normalized like the cache's own key)
            // so recovery re-warms the forest cache.
            let mut key: Vec<(u32, u32)> = selected.iter().map(|t| (t.rel.0, t.row)).collect();
            key.sort_unstable();
            key.dedup();
            self.log_relaxed(Record::Forest {
                id: session.id,
                selection: key,
            });
        }
        let env = session.env();
        let print_start = Instant::now();
        let _print_span = routes_obs::span("print");
        let response = Response::json(
            200,
            answer::forest(&session.scenario.pool, &env, &forest, cached),
        );
        self.metrics
            .record_phase(Phase::Print, print_start.elapsed());
        response
    }
}

/// 405 with the `Allow` header RFC 9110 requires. Only *known* routes get
/// here; unknown paths (including unknown `/sessions/{id}/…` subpaths)
/// answer 404 instead.
fn method_not_allowed(allow: &'static str) -> Response {
    let mut resp = Response::error(405, "method not allowed for this resource");
    resp.set_header("allow", allow.to_owned());
    resp
}

fn parse_body(req: &Request) -> Result<Json, Response> {
    let text = req
        .body_str()
        .map_err(|_| Response::error(400, "body is not UTF-8"))?;
    json::parse(text).map_err(|e| Response::error(400, &e.to_string()))
}

/// Parse `{"ops": [{"op": "insert_tuple", "line": "S(1, 2)"}, ...]}` into
/// the WAL's [`EditOp`] representation.
fn parse_edit_ops(req: &Request) -> Result<Vec<EditOp>, Response> {
    let body = parse_body(req)?;
    let Some(items) = body.get("ops").and_then(Json::as_array) else {
        return Err(Response::error(422, "body must have an `ops` array"));
    };
    if items.is_empty() {
        return Err(Response::error(422, "apply at least one edit op"));
    }
    let mut ops = Vec::with_capacity(items.len());
    for item in items {
        let Some(kind) = item.get("op").and_then(Json::as_str) else {
            return Err(Response::error(422, "each op needs an `op` kind"));
        };
        let text_field = |field: &str| -> Result<String, Response> {
            item.get(field)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| {
                    Response::error(422, &format!("`{kind}` needs a string `{field}` field"))
                })
        };
        ops.push(match kind {
            "insert_tuple" => EditOp::InsertTuple {
                line: text_field("line")?,
            },
            "add_tgd" => EditOp::AddTgd {
                line: text_field("line")?,
            },
            "drop_tgd" => EditOp::DropTgd {
                name: text_field("name")?,
            },
            "delete_tuple" => {
                let relation = text_field("relation")?;
                let row = item
                    .get("row")
                    .and_then(Json::as_u64)
                    .and_then(|row| u32::try_from(row).ok());
                let Some(row) = row else {
                    return Err(Response::error(
                        422,
                        "`delete_tuple` needs a numeric `row` (u32)",
                    ));
                };
                EditOp::DeleteTuple { relation, row }
            }
            other => {
                return Err(Response::error(
                    422,
                    &format!(
                        "unknown edit op `{other}` \
                         (insert_tuple, delete_tuple, add_tgd, drop_tgd)"
                    ),
                ))
            }
        });
    }
    Ok(ops)
}

/// Resolve `{"tuples": [{"relation": "T", "row": 0}, ...]}` against the
/// session's target instance.
fn parse_selection(session: &Session, req: &Request) -> Result<Vec<TupleId>, Response> {
    let body = parse_body(req)?;
    let Some(items) = body.get("tuples").and_then(Json::as_array) else {
        return Err(Response::error(422, "body must have a `tuples` array"));
    };
    if items.is_empty() {
        return Err(Response::error(422, "select at least one tuple"));
    }
    let target = session.scenario.mapping.target();
    let mut selected = Vec::with_capacity(items.len());
    for item in items {
        let Some(name) = item.get("relation").and_then(Json::as_str) else {
            return Err(Response::error(422, "each tuple needs a `relation` name"));
        };
        let Some(row) = item.get("row").and_then(Json::as_u64) else {
            return Err(Response::error(422, "each tuple needs a numeric `row`"));
        };
        let Some(rel) = target.rel_id(name) else {
            return Err(Response::error(
                422,
                &format!("no target relation named `{name}`"),
            ));
        };
        if row >= u64::from(session.scenario.target.rel_len(rel)) {
            return Err(Response::error(
                422,
                &format!("relation `{name}` has no row {row}"),
            ));
        }
        selected.push(TupleId {
            rel,
            row: row as u32,
        });
    }
    Ok(selected)
}

fn chase_stats_json(stats: &ChaseStats) -> Json {
    Json::obj([
        ("rounds", Json::from(stats.rounds)),
        ("tuples_created", Json::from(stats.tuples_created)),
        ("egd_rewrites", Json::from(stats.egd_rewrites)),
        ("egd_merges", Json::from(stats.egd_merges)),
        ("target_tuples", Json::from(stats.target_tuples)),
    ])
}

fn tgd_stats_json(t: &TgdStats) -> Json {
    Json::obj([
        ("name", Json::from(t.name.as_str())),
        ("st", Json::Bool(t.st)),
        ("matches", Json::from(t.matches)),
        ("fired", Json::from(t.fired)),
        ("wall_us", Json::from(t.wall_us)),
    ])
}

/// Inclusive sample totals per frame name: a stack `request;chase` counts
/// its samples toward both `request` and `chase`, so a phase's total is
/// directly comparable to that phase's span histogram share.
fn profile_phases_json(stacks: &[(String, u64)]) -> Json {
    let mut totals: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for (key, count) in stacks {
        let mut seen: Vec<&str> = Vec::new();
        for frame in key.split(';') {
            // A frame recursing within one stack still counts once.
            if !seen.contains(&frame) {
                seen.push(frame);
                *totals.entry(frame).or_insert(0) += count;
            }
        }
    }
    Json::Object(
        totals
            .into_iter()
            .map(|(name, n)| (name.to_owned(), Json::from(n)))
            .collect(),
    )
}

/// The collapsed stacks as a weighted call tree: each node carries its
/// inclusive sample count; children are sorted by name (deterministic
/// output for the same stack set).
fn profile_tree_json(stacks: &[(String, u64)]) -> Json {
    #[derive(Default)]
    struct Node<'a> {
        samples: u64,
        children: std::collections::BTreeMap<&'a str, Node<'a>>,
    }
    fn render(children: &std::collections::BTreeMap<&str, Node<'_>>) -> Json {
        Json::Array(
            children
                .iter()
                .map(|(name, node)| {
                    Json::obj([
                        ("name", Json::from(*name)),
                        ("samples", Json::from(node.samples)),
                        ("children", render(&node.children)),
                    ])
                })
                .collect(),
        )
    }
    let mut root = Node::default();
    for (key, count) in stacks {
        let mut node = &mut root;
        for frame in key.split(';') {
            node = node.children.entry(frame).or_default();
            node.samples += count;
        }
    }
    render(&root.children)
}
