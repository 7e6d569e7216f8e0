//! The traced run: the same op lists replayed in-process, in the router's
//! order, through the public functions the router calls. Each call gets a
//! span under its op's root span; spans stay in memory until the run ends.
//!
//! Three passes share one generated workload: the op list over the socket
//! (end-to-end time per op, no spans), an in-process replay with spans off,
//! and the same replay with spans on. Each pass starts from a fresh set-up.
//! A layer's self time is its span's duration minus its children's; the
//! spans here never nest below the op root, so the layers' self times plus
//! the root's own glue partition each op.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use routes_chase::{ChaseOptions, ChaseStats};
use routes_cli::{
    is_pipeline_scenario, load_pipeline_str, load_scenario_str, prepare_pipeline,
    prepare_scenario_with,
};
use routes_core::{compute_one_route, ForestView, RouteForest, RouteView, StepView, TupleRef};
use routes_model::{joinstats, JoinSnapshot, TupleId};
use routes_pipeline::{stitch_route, StitchError};
use routes_pool::Pool;
use routes_server::http::{parse_request, Request, Response};
use routes_server::json::{self, Json};
use routes_server::metrics::Metrics;
use routes_server::{Persistence, Removal, Session, SessionOrigin, SessionStore};
use routes_store::{ChaseMode, Durability, EditOp, PersistSnapshot, Record};

use crate::check::check;
use crate::e2e::{send_checked, set_up, WorkDir};
use crate::gen::{prepare_chain, prepare_flat, Kind, Op, Workload, THREADS};
use crate::net::Spiderd;
use crate::{percentile, result_line, sorted, Record as Out};

/// One recorded call.
struct Span {
    /// Index of the timed op this span belongs to (`None`: set-up or an
    /// extra call outside every op).
    op: Option<usize>,
    name: &'static str,
    /// Whether this is an op's root span.
    root: bool,
    start: Duration,
    end: Duration,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    op: Option<usize>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            op: None,
        }
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            op: self.op,
            name,
            root: false,
            start,
            end,
        });
        out
    }
}

/// Counts taken from return values, for timed ops unless noted.
#[derive(Default)]
struct Counts {
    resp_bytes: usize,
    forest_ops: usize,
    forest_hits: usize,
    forest_nodes: usize,
    /// Forest construction wall times of cache misses (ms).
    forest_build_ms: Vec<f64>,
    memo_hits: usize,
    memo_misses: usize,
    forests_kept: usize,
    forests_invalidated: usize,
    /// Post-edit scenario texts, for the full re-prepare comparison.
    edit_texts: Vec<String>,
    /// Every materializing chase (set-up too): wall ms and stats.
    chases: Vec<(f64, ChaseStats)>,
    pipeline_creates: usize,
    pipeline_chase_us: u64,
    pipeline_core_us: u64,
    core_before: usize,
    core_after: usize,
    stitch_ops: usize,
    stitch_hops: usize,
}

type Answer = Result<Response, Response>;

fn bad(status: u16, message: &str) -> Response {
    Response::error(status, message)
}

/// The in-process service state one pass replays against.
struct Replay {
    store: SessionStore,
    pool: Pool,
    metrics: Metrics,
    persist: Option<Persistence>,
    tr: Tracer,
    counts: Counts,
    timed: bool,
}

impl Replay {
    /// A fresh set-up: recovery from the workload's data dir (when it has
    /// one), then its set-up ops.
    fn set_up(w: &Workload, work: &WorkDir, k: usize, on: bool) -> Result<Replay, String> {
        let mut r = Replay {
            store: SessionStore::new(32),
            pool: Pool::new(THREADS),
            metrics: Metrics::new(),
            persist: None,
            tr: Tracer::new(on),
            counts: Counts::default(),
            timed: false,
        };
        if w.data_dir {
            let dir = work.fresh_data_dir(w, k).map_err(|e| e.to_string())?;
            let (persist, _) =
                r.tr.span("store.open", || Persistence::open(dir, &r.store, &r.pool))
                    .map_err(|e| format!("recovery failed: {e}"))?;
            r.persist = Some(persist);
        }
        for op in &w.setup {
            let (status, body) = r.op(op, &op.request_bytes());
            check(op, status, &body).map_err(|e| format!("in-process set-up: {e}"))?;
        }
        r.timed = true;
        Ok(r)
    }

    /// Replay one op as the router would serve it; returns status and
    /// body.
    fn op(&mut self, op: &Op, request: &[u8]) -> (u16, Vec<u8>) {
        let started = Instant::now();
        let root_start = self.tr.epoch.elapsed();
        let response = self.dispatch(op, request).unwrap_or_else(|e| e);
        let mut wire = Vec::with_capacity(response.body.len() + 256);
        self.tr
            .span("http.write", || response.write_to(&mut wire, true))
            .expect("writing to memory cannot fail");
        self.metrics
            .record_response(response.status, started.elapsed(), None);
        if self.tr.on {
            let end = self.tr.epoch.elapsed();
            self.tr.spans.push(Span {
                op: self.tr.op,
                name: "op",
                root: true,
                start: root_start,
                end,
            });
        }
        if self.timed {
            self.counts.resp_bytes += wire.len();
        }
        (response.status, response.body)
    }

    fn dispatch(&mut self, op: &Op, request: &[u8]) -> Answer {
        let req = self
            .tr
            .span("http.parse", || parse_request(&mut &request[..]))
            .map_err(|e| bad(400, &format!("{e:?}")))?;
        let id = || -> Result<u64, Response> {
            req.path
                .split('/')
                .nth(2)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad(400, "session id must be an integer"))
        };
        match op.kind {
            Kind::OneRoute => self.one_route(id()?, &req),
            Kind::AllRoutes => self.all_routes(id()?, &req),
            Kind::Edit => self.edit(id()?, &req),
            Kind::Create => self.create(&req),
            Kind::Stitch => self.stitch(id()?, &req),
            Kind::Delete => self.delete(id()?),
            Kind::Scrape => Ok(self.scrape()),
        }
    }

    fn append(&mut self, record: &Record, durability: Durability) -> Result<(), Response> {
        let Some(persist) = &self.persist else {
            return Ok(());
        };
        self.tr
            .span("store.append", || persist.append(record, durability))
            .map_err(|e| bad(500, &format!("not persisted: {e}")))
    }

    /// `with_session`: a touching lookup plus its relaxed WAL touch.
    fn session(&mut self, id: u64) -> Result<Arc<Session>, Response> {
        let session = self
            .tr
            .span("session.get", || self.store.get(id).session())
            .ok_or_else(|| bad(404, "no such session"))?;
        self.append(&Record::Touch { id }, Durability::Buffered)?;
        Ok(session)
    }

    fn body(&mut self, req: &Request) -> Result<Json, Response> {
        self.tr.span("json.parse", || {
            let text = req.body_str().map_err(|_| bad(400, "body is not UTF-8"))?;
            json::parse(text).map_err(|e| bad(400, &e.to_string()))
        })
    }

    fn selection(&mut self, session: &Session, req: &Request) -> Result<Vec<TupleId>, Response> {
        self.tr.span("json.parse", || {
            let text = req.body_str().map_err(|_| bad(400, "body is not UTF-8"))?;
            let body = json::parse(text).map_err(|e| bad(400, &e.to_string()))?;
            let items = body
                .get("tuples")
                .and_then(Json::as_array)
                .ok_or_else(|| bad(422, "body must have a `tuples` array"))?;
            let target = session.scenario.mapping.target();
            items
                .iter()
                .map(|item| {
                    let rel = item
                        .get("relation")
                        .and_then(Json::as_str)
                        .and_then(|name| target.rel_id(name))
                        .ok_or_else(|| bad(422, "unknown relation"))?;
                    let row = item
                        .get("row")
                        .and_then(Json::as_u64)
                        .and_then(|r| u32::try_from(r).ok())
                        .filter(|&r| r < session.scenario.target.rel_len(rel))
                        .ok_or_else(|| bad(422, "no such row"))?;
                    Ok(TupleId { rel, row })
                })
                .collect()
        })
    }

    fn one_route(&mut self, id: u64, req: &Request) -> Answer {
        let session = self.session(id)?;
        let selected = self.selection(&session, req)?;
        let env = session.env();
        let route = self
            .tr
            .span("one_route.compute", || compute_one_route(env, &selected));
        let Ok(route) = route else {
            return Ok(Response::json(
                200,
                self.tr.span("json.encode", || {
                    Json::obj([("found", Json::Bool(false))]).encode()
                }),
            ));
        };
        let produced = self
            .tr
            .span("replay.validate", || route.validate(&env, &selected))
            .map_err(|e| bad(500, &format!("computed route failed replay: {e}")))?;
        let view = self.tr.span("view.build", || {
            RouteView::build(&session.scenario.pool, &env, &route)
        });
        let body = self.tr.span("json.encode", || {
            Json::obj([
                ("found", Json::Bool(true)),
                ("validated", Json::Bool(true)),
                ("produced_tuples", Json::from(produced.len())),
                ("steps", steps_json(&view.steps)),
            ])
            .encode()
        });
        Ok(Response::json(200, body))
    }

    fn all_routes(&mut self, id: u64, req: &Request) -> Answer {
        let session = self.session(id)?;
        let selected = self.selection(&session, req)?;
        let (forest, cached, wall) = self.tr.span("all_routes.forest_for", || {
            session.forest_for(&selected, &self.pool)
        });
        if !cached {
            let mut key: Vec<(u32, u32)> = selected.iter().map(|t| (t.rel.0, t.row)).collect();
            key.sort_unstable();
            key.dedup();
            self.append(&Record::Forest { id, selection: key }, Durability::Buffered)?;
        }
        if self.timed {
            let c = &mut self.counts;
            c.forest_ops += 1;
            c.forest_nodes += forest.order.len();
            if cached {
                c.forest_hits += 1;
            } else {
                c.forest_build_ms.push(wall.as_secs_f64() * 1e3);
            }
        }
        let env = session.env();
        let view = self.tr.span("view.build", || {
            ForestView::build(&session.scenario.pool, &env, &forest)
        });
        let body = self.tr.span("json.encode", || forest_json(cached, &view));
        Ok(Response::json(200, body))
    }

    fn edit(&mut self, id: u64, req: &Request) -> Answer {
        let body = self.body(req)?;
        let ops = self
            .tr
            .span("json.parse", || edit_ops(&body))
            .ok_or_else(|| bad(422, "malformed edit ops"))?;
        self.session(id)?;
        let session = self
            .tr
            .span("session.get", || self.store.peek(id).session())
            .ok_or_else(|| bad(404, "no such session"))?;
        let origin = session
            .origin()
            .cloned()
            .ok_or_else(|| bad(409, "session has no scenario text to edit"))?;
        let apply = self
            .tr
            .span("incr.apply", || {
                routes_incr::apply_batch(
                    &origin.text,
                    &session.scenario,
                    session.incr_state(),
                    &ops,
                    ChaseOptions::fresh(),
                    &self.pool,
                )
            })
            .map_err(|e| bad(422, &format!("edit rejected: {e}")))?;
        let entries = session.forest_entries();
        let keep: HashSet<Vec<TupleId>> = self.tr.span("incr.survivors", || {
            routes_incr::surviving_selections(
                entries.iter().map(|(key, forest)| (key, forest.as_ref())),
                &apply,
                &session.scenario.pool,
            )
            .into_iter()
            .collect()
        });
        let invalidated = entries.len() - keep.len();
        let survivors: HashMap<Vec<TupleId>, Arc<RouteForest>> = entries
            .into_iter()
            .filter(|(key, _)| keep.contains(key))
            .collect();
        let kept = survivors.len();
        let seq = session.edit_seq() + 1;
        let target_tuples = apply.scenario.target.total_tuples();
        if self.timed {
            let c = &mut self.counts;
            c.memo_hits += apply.memo_hits;
            c.memo_misses += apply.memo_misses;
            c.forests_kept += kept;
            c.forests_invalidated += invalidated;
            c.edit_texts.push(apply.text.clone());
        }
        let new_origin = SessionOrigin {
            chase: origin.chase,
            text: Arc::from(apply.text.as_str()),
        };
        let replaced = self.tr.span("session.write", || {
            let next = session.edited(apply.scenario, new_origin, seq, apply.state, survivors);
            self.store.replace(id, Arc::new(next))
        });
        if !replaced {
            return Err(bad(404, "no such session"));
        }
        self.append(&Record::Edit { id, seq, ops }, Durability::Synced)?;
        let body = self.tr.span("json.encode", || {
            Json::obj([
                ("session", Json::from(id)),
                ("edit_seq", Json::from(seq)),
                ("target_tuples", Json::from(target_tuples)),
                ("forests_kept", Json::from(kept)),
                ("forests_invalidated", Json::from(invalidated)),
            ])
            .encode()
        });
        Ok(Response::json(200, body))
    }

    fn create(&mut self, req: &Request) -> Answer {
        let body = self.body(req)?;
        let text = body
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or_else(|| bad(422, "body must have a string `scenario` field"))?;
        let origin = SessionOrigin {
            chase: ChaseMode::Fresh,
            text: Arc::from(text),
        };
        let (id, evicted, target_tuples, core) = if is_pipeline_scenario(text) {
            let loaded = self
                .tr
                .span("loader.load", || load_pipeline_str(text))
                .map_err(|e| bad(422, &format!("scenario does not load: {e}")))?;
            let (scenario, pipeline) = self
                .tr
                .span("pipeline.prepare", || {
                    prepare_pipeline(loaded, ChaseOptions::fresh(), &self.pool)
                })
                .map_err(|e| bad(422, &format!("chase failed: {e}")))?;
            let (before, after) = pipeline.core_shrink();
            for stage in &pipeline.stages {
                self.counts
                    .chases
                    .push((stage.chase_us as f64 / 1e3, stage.stats.clone()));
            }
            if self.timed {
                let c = &mut self.counts;
                c.pipeline_creates += 1;
                c.pipeline_chase_us += pipeline.stages.iter().map(|s| s.chase_us).sum::<u64>();
                c.pipeline_core_us += pipeline.stages.iter().map(|s| s.core_us).sum::<u64>();
                c.core_before += before;
                c.core_after += after;
            }
            let target_tuples = scenario.target.total_tuples();
            let (id, evicted) = self.tr.span("session.write", || {
                self.store
                    .insert_prepared(scenario, Some(Arc::new(pipeline)), origin, &self.pool)
            });
            (id, evicted, target_tuples, Some((before, after)))
        } else {
            let loaded = self
                .tr
                .span("loader.load", || load_scenario_str(text))
                .map_err(|e| bad(422, &format!("scenario does not load: {e}")))?;
            let prepared = self
                .tr
                .span("chase.prepare", || {
                    prepare_scenario_with(loaded, ChaseOptions::fresh(), &self.pool)
                })
                .map_err(|e| bad(422, &format!("chase failed: {e}")))?;
            if let (Some(wall), Some(stats)) = (prepared.chase_wall, &prepared.chase_stats) {
                self.counts
                    .chases
                    .push((wall.as_secs_f64() * 1e3, stats.clone()));
            }
            let target_tuples = prepared.target.total_tuples();
            let (id, evicted) = self.tr.span("session.write", || {
                self.store.insert_with_origin(prepared, origin, &self.pool)
            });
            (id, evicted, target_tuples, None)
        };
        for &gone in &evicted {
            self.append(&Record::Evict { id: gone }, Durability::Buffered)?;
        }
        self.append(
            &Record::Create {
                id,
                chase: ChaseMode::Fresh,
                scenario: text.to_owned(),
            },
            Durability::Synced,
        )?;
        let body = self.tr.span("json.encode", || {
            let mut fields = vec![
                ("session", Json::from(id)),
                ("target_tuples", Json::from(target_tuples)),
            ];
            if let Some((before, after)) = core {
                fields.push((
                    "pipeline",
                    Json::obj([
                        ("core_tuples_before", Json::from(before)),
                        ("core_tuples_after", Json::from(after)),
                    ]),
                ));
            }
            fields.push((
                "evicted",
                Json::Array(evicted.iter().map(|&e| Json::from(e)).collect()),
            ));
            Json::obj(fields).encode()
        });
        Ok(Response::json(201, body))
    }

    fn stitch(&mut self, id: u64, req: &Request) -> Answer {
        let session = self.session(id)?;
        let pipeline = session
            .pipeline()
            .cloned()
            .ok_or_else(|| bad(409, "session is not a pipeline"))?;
        let selected = self.selection(&session, req)?;
        let stitched = match self
            .tr
            .span("stitch.route", || stitch_route(&pipeline, &selected))
        {
            Ok(s) => s,
            Err(StitchError::NoRoute { .. }) => {
                let body = self.tr.span("json.encode", || {
                    Json::obj([("found", Json::Bool(false))]).encode()
                });
                return Ok(Response::json(200, body));
            }
            Err(e) => return Err(bad(422, &e.to_string())),
        };
        self.tr
            .span("replay.validate", || stitched.validate(&pipeline))
            .map_err(|e| bad(500, &format!("stitched route failed replay: {e}")))?;
        if self.timed {
            self.counts.stitch_ops += 1;
            self.counts.stitch_hops += stitched.stages.len();
        }
        let views: Vec<RouteView> = self.tr.span("view.build", || {
            stitched
                .stages
                .iter()
                .map(|stage| {
                    RouteView::build(
                        &pipeline.pool,
                        &pipeline.stage_env(stage.stage),
                        &stage.route,
                    )
                })
                .collect()
        });
        let body = self.tr.span("json.encode", || {
            let stages = stitched
                .stages
                .iter()
                .zip(&views)
                .map(|(stage, view)| {
                    Json::obj([
                        ("stage", Json::from(stage.stage)),
                        ("name", Json::from(stage.name.as_str())),
                        ("selection", Json::from(stage.selection.len())),
                        ("steps", steps_json(&view.steps)),
                    ])
                })
                .collect();
            Json::obj([
                ("found", Json::Bool(true)),
                ("validated", Json::Bool(true)),
                ("hops", Json::from(stitched.stages.len())),
                ("total_steps", Json::from(stitched.total_steps())),
                ("stages", Json::Array(stages)),
            ])
            .encode()
        });
        Ok(Response::json(200, body))
    }

    fn delete(&mut self, id: u64) -> Answer {
        match self.tr.span("session.write", || self.store.remove(id)) {
            Removal::Removed => {}
            _ => return Err(bad(404, "no such session")),
        }
        self.append(&Record::Delete { id }, Durability::Synced)?;
        let body = self.tr.span("json.encode", || {
            Json::obj([("deleted", Json::Bool(true))]).encode()
        });
        Ok(Response::json(200, body))
    }

    fn scrape(&mut self) -> Response {
        let text = self.tr.span("metrics.render", || {
            let store = self.store.snapshot();
            let persist = self.persist.as_ref().map(|p| p.metrics.snapshot());
            let join = joinstats::snapshot();
            self.metrics
                .to_prometheus(&store, persist.as_ref(), &join, self.pool.threads())
        });
        Response::with_content_type(200, text.into_bytes(), "text/plain; version=0.0.4")
    }

    fn persist_snapshot(&self) -> PersistSnapshot {
        self.persist
            .as_ref()
            .map(|p| p.metrics.snapshot())
            .unwrap_or_default()
    }
}

fn edit_ops(body: &Json) -> Option<Vec<EditOp>> {
    body.get("ops")?
        .as_array()?
        .iter()
        .map(|item| {
            let text = |field: &str| item.get(field).and_then(Json::as_str).map(str::to_owned);
            Some(match item.get("op")?.as_str()? {
                "insert_tuple" => EditOp::InsertTuple {
                    line: text("line")?,
                },
                "add_tgd" => EditOp::AddTgd {
                    line: text("line")?,
                },
                "drop_tgd" => EditOp::DropTgd {
                    name: text("name")?,
                },
                "delete_tuple" => EditOp::DeleteTuple {
                    relation: text("relation")?,
                    row: u32::try_from(item.get("row")?.as_u64()?).ok()?,
                },
                _ => return None,
            })
        })
        .collect()
}

fn tuple_json(t: &TupleRef) -> Json {
    Json::obj([
        ("relation", Json::from(t.relation.as_str())),
        ("row", Json::from(t.row)),
        ("text", Json::from(t.text.as_str())),
    ])
}

fn step_json(step: &StepView) -> Json {
    Json::obj([
        ("tgd", Json::from(step.tgd.as_str())),
        (
            "hom",
            Json::Object(
                step.hom
                    .iter()
                    .map(|(var, value)| (var.clone(), Json::from(value.as_str())))
                    .collect(),
            ),
        ),
        (
            "lhs",
            Json::Array(
                step.lhs
                    .iter()
                    .map(|f| {
                        Json::obj([
                            ("source", Json::from(f.source)),
                            ("tuple", tuple_json(&f.tuple)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "rhs",
            Json::Array(step.rhs.iter().map(tuple_json).collect()),
        ),
    ])
}

fn steps_json(steps: &[StepView]) -> Json {
    Json::Array(steps.iter().map(step_json).collect())
}

fn forest_json(cached: bool, view: &ForestView) -> String {
    Json::obj([
        ("cached", Json::Bool(cached)),
        ("num_nodes", Json::from(view.nodes.len())),
        ("num_branches", Json::from(view.num_branches)),
        ("all_roots_provable", Json::from(view.all_roots_provable)),
        (
            "roots",
            Json::Array(view.roots.iter().map(tuple_json).collect()),
        ),
        (
            "nodes",
            Json::Array(
                view.nodes
                    .iter()
                    .map(|n| {
                        Json::obj([
                            ("tuple", tuple_json(&n.tuple)),
                            ("branches", steps_json(&n.branches)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .encode()
}

/// One in-process pass over the timed ops.
struct Pass {
    replay: Replay,
    /// Wall time of the timed replay loop.
    loop_s: f64,
    failures: Vec<String>,
    join: JoinSnapshot,
    persist: PersistSnapshot,
}

fn in_process(
    w: &Workload,
    ops: &[Op],
    work: &WorkDir,
    k: usize,
    on: bool,
) -> Result<Pass, String> {
    let mut replay = Replay::set_up(w, work, k, on)?;
    let requests: Vec<Vec<u8>> = ops.iter().map(Op::request_bytes).collect();
    let join_before = joinstats::snapshot();
    let persist_before = replay.persist_snapshot();
    let mut failures = Vec::new();
    let started = Instant::now();
    for (i, (op, request)) in ops.iter().zip(&requests).enumerate() {
        replay.tr.op = Some(i);
        let (status, body) = replay.op(op, request);
        if let Err(e) = check(op, status, &body) {
            failures.push(format!("in-process {} {}: {e}", op.method, op.path));
        }
    }
    let loop_s = started.elapsed().as_secs_f64();
    replay.tr.op = None;
    let join = joinstats::snapshot();
    let persist = replay.persist_snapshot();
    Ok(Pass {
        join: JoinSnapshot {
            batches: join.batches - join_before.batches,
            rows_probed: join.rows_probed - join_before.rows_probed,
            index_probes: join.index_probes - join_before.index_probes,
            hash_builds: join.hash_builds - join_before.hash_builds,
            hash_build_rows: join.hash_build_rows - join_before.hash_build_rows,
        },
        persist: PersistSnapshot {
            wal_bytes: persist.wal_bytes - persist_before.wal_bytes,
            fsync_batches: persist.fsync_batches - persist_before.fsync_batches,
            ..PersistSnapshot::default()
        },
        replay,
        loop_s,
        failures,
    })
}

/// End-to-end latency of every timed op over the socket (no spans).
fn socket_pass(
    bin: &Path,
    w: &Workload,
    ops: &[Op],
    work: &WorkDir,
) -> Result<(Vec<f64>, Vec<String>), String> {
    let mut errors = Vec::new();
    let (server, mut conn, _) = set_up(bin, w, work, 0, &mut errors).map_err(|e| e.to_string())?;
    let mut latencies = Vec::with_capacity(ops.len());
    for op in ops {
        let (latency, outcome) = send_checked(&mut conn, op, &op.request_bytes());
        if let Err(e) = outcome {
            errors.push(e);
        }
        latencies.push(latency);
    }
    drop(conn);
    Spiderd::shutdown(server).map_err(|e| e.to_string())?;
    Ok((latencies, errors))
}

/// The scenario text of a workload's first create, if any.
fn first_create_text(w: &Workload) -> Option<String> {
    let op = w.all_ops().find(|op| op.kind == Kind::Create)?;
    let body = json::parse(&op.body).ok()?;
    body.get("scenario")?.as_str().map(str::to_owned)
}

/// Prepare a text at a given pool width; wall ms.
fn prepare_ms(text: &str, threads: usize) -> f64 {
    let pool = Pool::new(threads);
    let started = Instant::now();
    if is_pipeline_scenario(text) {
        prepare_chain(text, &pool);
    } else {
        prepare_flat(text, &pool);
    }
    started.elapsed().as_secs_f64() * 1e3
}

fn p(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        percentile(&sorted(xs.to_vec()), q).0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `--trace 1` run.
pub fn run(
    bin: &Path,
    w: &Workload,
    work: &WorkDir,
    record: &mut Out,
) -> Result<(String, i32), String> {
    // The first half of the timed list: three passes over all of it would
    // make a traced run three times as long as an end-to-end one.
    let ops = &w.timed[..w.timed.len() / 2];
    let (e2e, mut failures) = socket_pass(bin, w, ops, work)?;
    let off = in_process(w, ops, work, 1, false)?;
    let off_s = off.loop_s;
    failures.extend(off.failures);
    drop(off.replay);
    let mut on = in_process(w, ops, work, 2, true)?;
    failures.extend(std::mem::take(&mut on.failures));

    // Extra calls only the traced run makes, outside every op.
    let mut full_ms = Vec::new();
    for text in std::mem::take(&mut on.replay.counts.edit_texts) {
        let started = Instant::now();
        let loaded = on
            .replay
            .tr
            .span("loader.load", || load_scenario_str(&text))
            .map_err(|e| e.to_string())?;
        let prepared = on
            .replay
            .tr
            .span("chase.prepare", || {
                prepare_scenario_with(loaded, ChaseOptions::fresh(), &on.replay.pool)
            })
            .map_err(|e| e.to_string())?;
        full_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if let (Some(wall), Some(stats)) = (prepared.chase_wall, prepared.chase_stats) {
            on.replay
                .counts
                .chases
                .push((wall.as_secs_f64() * 1e3, stats));
        }
    }
    let speedup_text = first_create_text(w).or_else(|| match &w.wal.first() {
        Some(Record::Create { scenario, .. }) => Some(scenario.clone()),
        _ => None,
    });
    let (mut one, mut two) = (Vec::new(), Vec::new());
    if let Some(text) = &speedup_text {
        for _ in 0..3 {
            one.push(prepare_ms(text, 1));
            two.push(prepare_ms(text, 2));
        }
    }

    let r = &on.replay;
    let spans = &r.tr.spans;
    let n = ops.len();
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    };
    // Self time per (op, layer) for timed ops; roots are never a layer.
    let mut self_us: Vec<BTreeMap<&'static str, f64>> = vec![BTreeMap::new(); n];
    for s in spans.iter().filter(|s| !s.root) {
        if let Some(i) = s.op {
            *self_us[i].entry(s.layer()).or_insert(0.0) += s.us();
        }
    }
    let per_op_ms = |name: &str| -> f64 {
        let us: f64 = spans
            .iter()
            .filter(|s| s.op.is_some() && s.name == name)
            .map(Span::us)
            .sum();
        us / 1e3 / n as f64
    };
    let c = &r.counts;
    let chase_ms: Vec<f64> = c.chases.iter().map(|(ms, _)| *ms).collect();
    let rounds: f64 = c.chases.iter().map(|(_, s)| s.rounds as f64).sum();
    let (fired, matches) = c
        .chases
        .iter()
        .flat_map(|(_, s)| &s.per_tgd)
        .fold((0u64, 0u64), |(f, m), t| (f + t.fired, m + t.matches));
    let apply_ms: Vec<f64> = durations("incr.apply").iter().map(|us| us / 1e3).collect();

    // Per-kind accounting: layer self time against end-to-end time.
    let mut accounting = Out::default();
    let mut unattributed = BTreeMap::new();
    for kind in Kind::ALL {
        let of_kind: Vec<usize> = (0..n).filter(|&i| ops[i].kind == kind).collect();
        if of_kind.is_empty() {
            continue;
        }
        let e2e_us: f64 = of_kind.iter().map(|&i| e2e[i] * 1e6).sum();
        let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
        for &i in &of_kind {
            for (layer, us) in &self_us[i] {
                *layers.entry(layer).or_insert(0.0) += us;
            }
        }
        let traced: f64 = layers.values().sum();
        let share = 1.0 - traced / e2e_us;
        unattributed.insert(kind, share);
        let mut one = Out::default();
        one.num("ops", of_kind.len() as f64);
        one.num("e2e_ms", e2e_us / 1e3);
        let mut parts = Out::default();
        for (layer, us) in &layers {
            parts.num(layer, us / e2e_us);
        }
        one.raw("layer_shares", &parts.finish());
        one.num("unattributed_share", share);
        one.num(
            "sum",
            layers.values().map(|us| us / e2e_us).sum::<f64>() + share,
        );
        accounting.raw(kind.name(), &one.finish());
    }
    record.raw("accounting", &accounting.finish());
    record.num("replay_off_s", off_s);
    record.num("replay_on_s", on.loop_s);
    record.num("spans", spans.len() as f64);
    let attempted = 3 * (w.setup.len() + n);
    record.num("failed_share", failures.len() as f64 / attempted as f64);
    if let Some(e) = failures.first() {
        record.text("first_error", e);
    }

    let share = |kind: Kind| unattributed.get(&kind).copied().unwrap_or(0.0);
    let metrics = [
        ("http.parse_us_p50", p(&durations("http.parse"), 0.5), "us"),
        ("http.write_us_p50", p(&durations("http.write"), 0.5), "us"),
        (
            "http.resp_kb_per_op",
            c.resp_bytes as f64 / 1024.0 / n as f64,
            "KB",
        ),
        ("json.parse_ms_per_op", per_op_ms("json.parse"), "ms"),
        ("json.encode_ms_per_op", per_op_ms("json.encode"), "ms"),
        (
            "metrics.render_us_p50",
            p(&durations("metrics.render"), 0.5),
            "us",
        ),
        (
            "session.get_us_p50",
            p(&durations("session.get"), 0.5),
            "us",
        ),
        (
            "session.write_us_p50",
            p(&durations("session.write"), 0.5),
            "us",
        ),
        (
            "loader.ms_per_call",
            {
                let calls = durations("loader.load");
                ratio(calls.iter().sum::<f64>() / 1e3, calls.len() as f64)
            },
            "ms",
        ),
        (
            "chase.ms_per_call",
            ratio(chase_ms.iter().sum(), chase_ms.len() as f64),
            "ms",
        ),
        (
            "chase.rounds_per_call",
            ratio(rounds, c.chases.len() as f64),
            "count",
        ),
        (
            "chase.fired_per_match",
            ratio(fired as f64, matches as f64),
            "ratio",
        ),
        (
            "pool.chase_speedup",
            ratio(p(&one, 0.5), p(&two, 0.5)),
            "ratio",
        ),
        (
            "query.rows_probed_per_op",
            on.join.rows_probed as f64 / n as f64,
            "count",
        ),
        (
            "query.index_probes_per_op",
            on.join.index_probes as f64 / n as f64,
            "count",
        ),
        (
            "query.batches_per_op",
            on.join.batches as f64 / n as f64,
            "count",
        ),
        (
            "query.hash_build_rows_per_op",
            on.join.hash_build_rows as f64 / n as f64,
            "count",
        ),
        (
            "one_route.us_p50",
            p(&durations("one_route.compute"), 0.5),
            "us",
        ),
        (
            "one_route.us_p99",
            p(&durations("one_route.compute"), 0.99),
            "us",
        ),
        ("replay.us_p50", p(&durations("replay.validate"), 0.5), "us"),
        ("all_routes.build_ms_p50", p(&c.forest_build_ms, 0.5), "ms"),
        ("all_routes.build_ms_p90", p(&c.forest_build_ms, 0.9), "ms"),
        (
            "all_routes.nodes_per_op",
            ratio(c.forest_nodes as f64, c.forest_ops as f64),
            "count",
        ),
        (
            "all_routes.cache_hit_ratio",
            ratio(c.forest_hits as f64, c.forest_ops as f64),
            "ratio",
        ),
        ("view.ms_per_op", per_op_ms("view.build"), "ms"),
        ("incr.apply_ms_p50", p(&apply_ms, 0.5), "ms"),
        ("incr.apply_ms_p90", p(&apply_ms, 0.9), "ms"),
        (
            "incr.memo_hit_ratio",
            ratio(c.memo_hits as f64, (c.memo_hits + c.memo_misses) as f64),
            "ratio",
        ),
        (
            "incr.forests_kept_ratio",
            ratio(
                c.forests_kept as f64,
                (c.forests_kept + c.forests_invalidated) as f64,
            ),
            "ratio",
        ),
        (
            "incr.vs_full_ratio",
            ratio(p(&apply_ms, 0.5), p(&full_ms, 0.5)),
            "ratio",
        ),
        (
            "pipeline.chase_ms_per_create",
            ratio(c.pipeline_chase_us as f64 / 1e3, c.pipeline_creates as f64),
            "ms",
        ),
        (
            "pipeline.core_ms_per_create",
            ratio(c.pipeline_core_us as f64 / 1e3, c.pipeline_creates as f64),
            "ms",
        ),
        (
            "pipeline.core_shrink_ratio",
            ratio(c.core_after as f64, c.core_before as f64),
            "ratio",
        ),
        ("stitch.us_p50", p(&durations("stitch.route"), 0.5), "us"),
        (
            "stitch.hops_per_op",
            ratio(c.stitch_hops as f64, c.stitch_ops as f64),
            "count",
        ),
        (
            "store.append_us_p50",
            p(&durations("store.append"), 0.5),
            "us",
        ),
        (
            "store.fsyncs_per_op",
            on.persist.fsync_batches as f64 / n as f64,
            "count",
        ),
        (
            "store.bytes_per_op",
            on.persist.wal_bytes as f64 / n as f64,
            "bytes",
        ),
        (
            "store.recovery_ms",
            durations("store.open").first().map_or(0.0, |us| us / 1e3),
            "ms",
        ),
        (
            "unattributed.one_route_share",
            share(Kind::OneRoute),
            "ratio",
        ),
        (
            "unattributed.all_routes_share",
            share(Kind::AllRoutes),
            "ratio",
        ),
        ("unattributed.edit_share", share(Kind::Edit), "ratio"),
        ("unattributed.create_share", share(Kind::Create), "ratio"),
        ("unattributed.stitch_share", share(Kind::Stitch), "ratio"),
        ("unattributed.scrape_share", share(Kind::Scrape), "ratio"),
        ("trace.overhead_share", 1.0 - off_s / on.loop_s, "ratio"),
    ];
    let correct = failures.is_empty();
    Ok((
        result_line(correct, attempted, failures.len(), &metrics),
        if correct { 0 } else { 1 },
    ))
}
