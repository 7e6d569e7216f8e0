//! Differential gate for the route-answer writer (`routes_server::answer`).
//!
//! The oracle is the rendering the writer replaced: resolve the route or
//! forest into `routes_core::view` types, turn those into a `Json` tree,
//! and encode it. Over seeded random, relational (M0–M3), deep-hierarchy
//! and pipeline scenarios, plus a few answers shaped like the benchmark's
//! TPC-H all-routes probes, the writer's one-route, `no_route`, forest
//! (`cached` both ways) and stitched-route bodies must equal the oracle's
//! byte for byte.

use routes_chase::{chase, ChaseOptions};
use routes_core::{
    compute_all_routes, compute_one_route, ForestView, Route, RouteEnv, RouteForest, RouteView,
    StepView, TupleRef,
};
use routes_gen::hierarchy::DeepRows;
use routes_gen::scenario::random_tuples;
use routes_gen::{
    deep_scenario, pipeline_scenario, random_scenario, relational_scenario, Rng, Scenario, TpchRows,
};
use routes_model::{tuple_to_string, Instance, TupleId, Value, ValuePool};
use routes_pipeline::{chase_pipeline, stitch_route, PreparedPipeline, StitchedRoute};
use routes_pool::Pool;
use routes_server::answer;
use routes_server::Json;

const SEEDS: u64 = 48;

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

fn steps_json(view: &RouteView) -> Json {
    Json::Array(view.steps.iter().map(step_json).collect())
}

fn oracle_one_route(
    pool: &ValuePool,
    env: &RouteEnv<'_>,
    route: &Route,
    produced: usize,
) -> String {
    let view = RouteView::build(pool, env, route);
    Json::obj([
        ("found", Json::Bool(true)),
        ("validated", Json::Bool(true)),
        ("produced_tuples", Json::from(produced)),
        ("steps", steps_json(&view)),
    ])
    .encode()
}

fn oracle_no_route(pool: &ValuePool, env: &RouteEnv<'_>, tuples: &[TupleId]) -> String {
    let target = env.mapping.target();
    let labels = tuples
        .iter()
        .map(|&t| {
            tuple_json(&TupleRef {
                relation: target.relation(t.rel).name().to_owned(),
                row: t.row,
                text: tuple_to_string(pool, target, env.target, t),
            })
        })
        .collect();
    Json::obj([
        ("found", Json::Bool(false)),
        ("no_route", Json::Array(labels)),
    ])
    .encode()
}

fn oracle_forest(
    pool: &ValuePool,
    env: &RouteEnv<'_>,
    forest: &RouteForest,
    cached: bool,
) -> String {
    let view = ForestView::build(pool, env, forest);
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
                            (
                                "branches",
                                Json::Array(n.branches.iter().map(step_json).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .encode()
}

fn oracle_stitched(pipeline: &PreparedPipeline, stitched: &StitchedRoute) -> String {
    let stages = stitched
        .stages
        .iter()
        .map(|stage| {
            let env = pipeline.stage_env(stage.stage);
            let view = RouteView::build(&pipeline.pool, &env, &stage.route);
            Json::obj([
                ("stage", Json::from(stage.stage)),
                ("name", Json::from(stage.name.as_str())),
                ("selection", Json::from(stage.selection.len())),
                ("steps", steps_json(&view)),
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
}

/// What one scenario family contributed.
#[derive(Default)]
struct Tally {
    routes: usize,
    no_routes: usize,
    forests: usize,
    stitched: usize,
    bytes: usize,
}

impl Tally {
    fn same(&mut self, label: &str, written: String, oracle: String) {
        if written != oracle {
            let at = written
                .bytes()
                .zip(oracle.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(written.len().min(oracle.len()));
            let from = at.saturating_sub(80);
            panic!(
                "{label}: writer and oracle differ at byte {at} \
                 (lengths {} vs {})\nwriter: …{}\noracle: …{}",
                written.len(),
                oracle.len(),
                &written[from..(at + 80).min(written.len())],
                &oracle[from..(at + 80).min(oracle.len())],
            );
        }
        self.bytes += written.len();
    }

    /// One-route (found or `no_route`) and the forest, both `cached` ways.
    fn check(&mut self, label: &str, pool: &ValuePool, env: RouteEnv<'_>, selection: &[TupleId]) {
        match compute_one_route(env, selection) {
            Ok(route) => {
                let produced = route
                    .validate(&env, selection)
                    .unwrap_or_else(|e| panic!("{label}: route failed replay: {e}"))
                    .len();
                self.same(
                    label,
                    answer::one_route(pool, &env, &route, produced),
                    oracle_one_route(pool, &env, &route, produced),
                );
                self.routes += 1;
            }
            Err(e) => {
                self.same(
                    label,
                    answer::no_route(pool, &env, &e.no_route),
                    oracle_no_route(pool, &env, &e.no_route),
                );
                self.no_routes += 1;
            }
        }
        let forest = compute_all_routes(env, selection);
        for cached in [false, true] {
            self.same(
                label,
                answer::forest(pool, &env, &forest, cached),
                oracle_forest(pool, &env, &forest, cached),
            );
        }
        self.forests += 1;
    }
}

/// 1–5 seeded tuples (repeats allowed, as a client may send them) from the
/// given relations of `j`.
fn pick(j: &Instance, rels: &[routes_model::RelId], seed: u64) -> Vec<TupleId> {
    let mut rng = Rng::seed_from_u64(seed);
    let n = rng.gen_range(1..=5usize);
    let mut picked = random_tuples(j, rels, n, seed);
    if picked.len() > 1 && rng.gen_bool(0.25) {
        picked.push(picked[0]);
    }
    picked
}

fn all_rels(j: &Instance) -> Vec<routes_model::RelId> {
    (0..j.num_relations() as u32)
        .map(routes_model::RelId)
        .collect()
}

/// `(scenario, J)` from a fresh chase.
fn chased(mut sc: Scenario, options: ChaseOptions) -> Option<(Scenario, Instance)> {
    let result = chase(&sc.mapping, &sc.source, &mut sc.pool, options).ok()?;
    Some((sc, result.target))
}

/// The first 48 random scenarios whose chase stays within its guard.
#[test]
fn random_scenarios_match_the_oracle() {
    let mut tally = Tally::default();
    let mut scenarios = 0;
    for seed in 0.. {
        if scenarios == SEEDS {
            break;
        }
        let guarded = ChaseOptions {
            max_rounds: 200,
            max_tuples: 5_000,
            ..ChaseOptions::fresh()
        };
        let Some((sc, mut j)) = chased(random_scenario(seed), guarded) else {
            continue;
        };
        let rels = all_rels(&j);
        let mut selections: Vec<Vec<TupleId>> = (0..3)
            .map(|probe| pick(&j, &rels, seed * 31 + probe))
            .filter(|selection| !selection.is_empty())
            .collect();
        // A row of constants the source never mentions, mixed into one
        // selection, so that selection usually answers `no_route`.
        let rel = rels[seed as usize % rels.len()];
        let (orphan, _) = j
            .insert(rel, &vec![Value::Int(-1_000); j.arity(rel)])
            .unwrap();
        let mut mixed = selections.first().cloned().unwrap_or_default();
        mixed.insert(mixed.len() / 2, orphan);
        selections.push(mixed);
        let env = RouteEnv::new(&sc.mapping, &sc.source, &j);
        for selection in &selections {
            tally.check(&format!("random seed {seed}"), &sc.pool, env, selection);
        }
        scenarios += 1;
    }
    // An existential head can still map onto the extra row (a route's
    // assignment may send it to any value of J), so not every scenario's
    // mixed selection is a `no_route`.
    assert!(
        tally.no_routes >= SEEDS as usize / 2,
        "{} no_routes",
        tally.no_routes
    );
    assert!(
        tally.routes >= 2 * SEEDS as usize,
        "{} routes",
        tally.routes
    );
}

/// M0–M3 over a tiny TPC-H source: three scenario seeds per join count,
/// four seeded selections from groups 1–3 of each (48 in all).
#[test]
fn relational_scenarios_match_the_oracle() {
    let rows = TpchRows::scale(0.0001);
    let mut tally = Tally::default();
    for scenario_seed in 0..SEEDS / 4 {
        let joins = (scenario_seed % 4) as usize;
        let rs = relational_scenario(joins, &rows, scenario_seed);
        let (sc, j) = chased(rs.scenario.clone(), ChaseOptions::fresh()).expect("M0-M3 chase");
        let env = RouteEnv::new(&sc.mapping, &sc.source, &j);
        for probe in 0..4 {
            let seed = scenario_seed * 4 + probe;
            let group = 1 + (probe as usize % 3);
            let selection = pick(&j, &rs.target_groups[group - 1], seed);
            tally.check(
                &format!("M{joins} group {group} seed {seed}"),
                &sc.pool,
                env,
                &selection,
            );
        }
    }
    assert_eq!(tally.routes, SEEDS as usize);
}

#[test]
fn deep_scenarios_match_the_oracle() {
    let rows = DeepRows {
        regions: 2,
        nations_per: 2,
        customers_per: 2,
        orders_per: 2,
        lineitems_per: 2,
    };
    let mut tally = Tally::default();
    for seed in 0..SEEDS {
        let ds = deep_scenario(&rows, seed);
        let (sc, j) = chased(ds.scenario.clone(), ChaseOptions::fresh()).expect("deep chases");
        let env = RouteEnv::new(&sc.mapping, &sc.source, &j);
        let depth = 1 + (seed as usize % ds.max_depth());
        let selection = pick(&j, &[ds.depth_rels[depth - 1]], seed);
        tally.check(
            &format!("deep depth {depth} seed {seed}"),
            &sc.pool,
            env,
            &selection,
        );
    }
    assert_eq!(tally.routes, SEEDS as usize);
}

#[test]
fn pipeline_scenarios_match_the_oracle() {
    let mut tally = Tally::default();
    for seed in 0..SEEDS {
        let hops = 1 + (seed as usize % 3);
        let core = seed % 2 == 0;
        let sc = pipeline_scenario(hops, 12, seed, seed % 4 < 2, core);
        let prepared = chase_pipeline(
            sc.pipeline,
            sc.source,
            sc.pool,
            ChaseOptions::fresh(),
            &Pool::sequential(),
        )
        .expect("generated pipelines chase");
        let last = prepared.hops() - 1;
        let target = &prepared.final_stage().target;
        let selection = pick(target, &all_rels(target), seed);
        let label = format!("pipeline {hops} hops core {core} seed {seed}");
        let stitched = stitch_route(&prepared, &selection)
            .unwrap_or_else(|e| panic!("{label}: no stitched route: {e}"));
        stitched.validate(&prepared).unwrap();
        tally.same(
            &label,
            answer::stitched(&prepared, &stitched),
            oracle_stitched(&prepared, &stitched),
        );
        tally.stitched += 1;
        tally.check(&label, &prepared.pool, prepared.stage_env(last), &selection);
    }
    assert_eq!(tally.stitched, SEEDS as usize);
}

/// The benchmark's all-routes probes: M1 at SF 0.001, 1–5 tuples of group
/// 3. These are the megabyte answers the writer exists for.
#[test]
fn tpch_all_routes_probes_match_the_oracle() {
    let rs = relational_scenario(1, &TpchRows::scale(0.001), 3);
    let (sc, j) = chased(rs.scenario.clone(), ChaseOptions::fresh()).expect("M1 chases");
    let env = RouteEnv::new(&sc.mapping, &sc.source, &j);
    let mut tally = Tally::default();
    for n in 1..=5 {
        let selection = rs.select_from_group(&j, 3, n, 100 + n as u64);
        tally.check(
            &format!("M1 group 3, {n} tuples"),
            &sc.pool,
            env,
            &selection,
        );
    }
    assert_eq!(tally.forests, 5);
    assert!(
        tally.bytes > 1_000_000,
        "{} bytes: the probes should be large forests",
        tally.bytes
    );
}
