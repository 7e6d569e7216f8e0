//! Route answers, written straight into the response body.
//!
//! One-route, all-routes and stitched-route answers are the service's
//! largest bodies: an all-routes forest over TPC-H runs to megabytes. Each
//! function here appends one answer to a single `String`, reading the
//! route or forest, the [`ValuePool`] and the [`RouteEnv`] directly, and
//! gives exactly the bytes the [`routes_core::view`] types would give once
//! turned into a [`Json`](crate::json::Json) tree and encoded
//! (`tests/answer_differential.rs` holds it to that; `tests/route_answers.rs`
//! pins the bytes).
//!
//! A route forest stores each tuple once (paper §3.1); the answer repeats
//! it wherever it occurs. So each `{"relation":…,"row":…,"text":…}` object
//! is rendered once per answer, and every later occurrence copies its
//! earlier bytes.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Range;

use routes_core::{Route, RouteEnv, RouteForest};
use routes_mapping::TgdId;
use routes_model::{write_tuple, Fact, Side, TupleId, Value, ValuePool, Var};
use routes_pipeline::{PreparedPipeline, StitchedRoute};

use routes_obs::push_json_string;

/// `{"found":true,"validated":true,"produced_tuples":…,"steps":[…]}` for a
/// route that replayed and produced `produced` tuples.
pub fn one_route(pool: &ValuePool, env: &RouteEnv<'_>, route: &Route, produced: usize) -> String {
    let mut w = Writer::new(pool);
    w.out
        .push_str("{\"found\":true,\"validated\":true,\"produced_tuples\":");
    w.uint(produced);
    w.out.push_str(",\"steps\":");
    w.route_steps(env, route);
    w.out.push('}');
    w.out
}

/// `{"found":false,"no_route":[…]}`: the selected target tuples no route
/// reaches.
pub fn no_route(pool: &ValuePool, env: &RouteEnv<'_>, tuples: &[TupleId]) -> String {
    let mut w = Writer::new(pool);
    w.out.push_str("{\"found\":false,\"no_route\":");
    w.tuples(env, tuples);
    w.out.push('}');
    w.out
}

/// The route forest: summary counts, the roots, then every explored node
/// with its branches, in exploration order.
pub fn forest(pool: &ValuePool, env: &RouteEnv<'_>, forest: &RouteForest, cached: bool) -> String {
    let mut w = Writer::new(pool);
    w.out.push_str("{\"cached\":");
    w.bool(cached);
    w.out.push_str(",\"num_nodes\":");
    w.uint(forest.order.len());
    w.out.push_str(",\"num_branches\":");
    w.uint(forest.num_branches());
    w.out.push_str(",\"all_roots_provable\":");
    w.bool(forest.all_roots_provable());
    w.out.push_str(",\"roots\":");
    w.tuples(env, &forest.roots);
    w.out.push_str(",\"nodes\":[");
    for (i, &t) in forest.order.iter().enumerate() {
        if i > 0 {
            w.out.push(',');
        }
        w.out.push_str("{\"tuple\":");
        w.tuple(env, Side::Target, t);
        w.out.push_str(",\"branches\":[");
        for (j, b) in forest.branches_of(t).iter().enumerate() {
            if j > 0 {
                w.out.push(',');
            }
            w.step(env, b.tgd, &b.hom, &b.lhs_facts, &b.rhs_tuples);
        }
        w.out.push_str("]}");
    }
    w.out.push_str("]}");
    w.out
}

/// A stitched route: the hop count, the total step count, then each hop's
/// route.
pub fn stitched(pipeline: &PreparedPipeline, stitched: &StitchedRoute) -> String {
    let mut w = Writer::new(&pipeline.pool);
    w.out
        .push_str("{\"found\":true,\"validated\":true,\"hops\":");
    w.uint(stitched.stages.len());
    w.out.push_str(",\"total_steps\":");
    w.uint(stitched.total_steps());
    w.out.push_str(",\"stages\":[");
    for (i, stage) in stitched.stages.iter().enumerate() {
        if i > 0 {
            w.out.push(',');
        }
        // Each hop has its own instances: a tuple id names a different
        // tuple in the next stage.
        w.seen.clear();
        w.out.push_str("{\"stage\":");
        w.uint(stage.stage);
        w.out.push_str(",\"name\":");
        push_json_string(&mut w.out, &stage.name);
        w.out.push_str(",\"selection\":");
        w.uint(stage.selection.len());
        w.out.push_str(",\"steps\":");
        w.route_steps(&pipeline.stage_env(stage.stage), &stage.route);
        w.out.push('}');
    }
    w.out.push_str("]}");
    w.out
}

/// One answer being written.
struct Writer<'a> {
    pool: &'a ValuePool,
    out: String,
    /// One value or tuple text, before it is escaped into `out`.
    scratch: String,
    /// Where each `(side, tuple)` object already written sits in `out`.
    seen: HashMap<(Side, TupleId), Range<usize>>,
}

impl<'a> Writer<'a> {
    fn new(pool: &'a ValuePool) -> Self {
        Writer {
            pool,
            out: String::new(),
            scratch: String::new(),
            seen: HashMap::new(),
        }
    }

    fn uint(&mut self, n: usize) {
        let _ = write!(self.out, "{n}");
    }

    fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// `value` rendered as by [`ValuePool::display`], as a JSON string.
    fn value(&mut self, value: Value) {
        self.scratch.clear();
        let _ = write!(self.scratch, "{}", self.pool.display(value));
        push_json_string(&mut self.out, &self.scratch);
    }

    /// `{"relation":…,"row":…,"text":"Rel(v1, v2, ...)"}`.
    fn tuple(&mut self, env: &RouteEnv<'_>, side: Side, id: TupleId) {
        if let Some(range) = self.seen.get(&(side, id)) {
            self.out.extend_from_within(range.clone());
            return;
        }
        let start = self.out.len();
        let (schema, inst) = match side {
            Side::Source => (env.mapping.source(), env.source),
            Side::Target => (env.mapping.target(), env.target),
        };
        self.out.push_str("{\"relation\":");
        push_json_string(&mut self.out, schema.relation(id.rel).name());
        self.out.push_str(",\"row\":");
        self.uint(id.row as usize);
        self.out.push_str(",\"text\":");
        self.scratch.clear();
        write_tuple(&mut self.scratch, self.pool, schema, inst, id);
        push_json_string(&mut self.out, &self.scratch);
        self.out.push('}');
        self.seen.insert((side, id), start..self.out.len());
    }

    /// A JSON array of target tuples.
    fn tuples(&mut self, env: &RouteEnv<'_>, ids: &[TupleId]) {
        self.out.push('[');
        for (i, &id) in ids.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.tuple(env, Side::Target, id);
        }
        self.out.push(']');
    }

    /// A route's steps as a JSON array. A step whose premises or
    /// conclusions no longer resolve shows empty lists, as its view does.
    fn route_steps(&mut self, env: &RouteEnv<'_>, route: &Route) {
        self.out.push('[');
        for (i, step) in route.steps().iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            let lhs = step.lhs_facts(env).unwrap_or_default();
            let rhs = step.rhs_tuples(env).unwrap_or_default();
            self.step(env, step.tgd, &step.hom, &lhs, &rhs);
        }
        self.out.push(']');
    }

    /// One step or branch: `{"tgd":…,"hom":{var: value, …},"lhs":[…],"rhs":[…]}`.
    fn step(
        &mut self,
        env: &RouteEnv<'_>,
        tgd: TgdId,
        hom: &[Value],
        lhs: &[Fact],
        rhs: &[TupleId],
    ) {
        let tgd = env.mapping.tgd(tgd);
        self.out.push_str("{\"tgd\":");
        push_json_string(&mut self.out, tgd.name());
        self.out.push_str(",\"hom\":{");
        for (v, &value) in hom[..tgd.var_count()].iter().enumerate() {
            if v > 0 {
                self.out.push(',');
            }
            push_json_string(&mut self.out, tgd.var_name(Var(v as u32)));
            self.out.push(':');
            self.value(value);
        }
        self.out.push_str("},\"lhs\":[");
        for (i, fact) in lhs.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.out.push_str(match fact.side {
                Side::Source => "{\"source\":true,\"tuple\":",
                Side::Target => "{\"source\":false,\"tuple\":",
            });
            self.tuple(env, fact.side, fact.id);
            self.out.push('}');
        }
        self.out.push_str("],\"rhs\":");
        self.tuples(env, rhs);
        self.out.push('}');
    }
}
