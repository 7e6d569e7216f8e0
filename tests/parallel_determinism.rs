//! Determinism of the parallel execution layer (tier-1).
//!
//! The parallel chase and parallel `ComputeAllRoutes` are required to be
//! *exact*: at every worker count they must produce byte-identical target
//! instances (same tuple ids, same labeled nulls), identical chase
//! statistics, and an identical route forest (same exploration order, same
//! branches) as the sequential implementations. These tests pin that
//! contract over seeded random scenarios, both with explicit pool sizes and
//! through the `ROUTES_THREADS` environment override.
//!
//! The forest builder expands each wave set-at-a-time (one batched
//! `findHom` per tgd and relation, its probes told apart by a tag column).
//! Its oracle here is the per-tuple builder it replaced: Figure 3's
//! depth-first worklist, expanding one tuple at a time through one
//! single-probe `findHom` per tgd. The two must agree byte for byte on
//! random, TPC-H-shaped, deep-hierarchy, pipeline and egd scenarios; and
//! the batched `findHom`, over one probe or many, must yield each probe's
//! lazy `next_hom` sequence.

use std::collections::HashSet;

use routes_chase::{chase, chase_with_pool, ChaseOptions, ChaseResult};
use routes_cli::load_scenario_str;
use routes_core::findhom::find_homs;
use routes_core::{
    compute_all_routes, compute_all_routes_with_pool, AnchorSide, Branch, FindHom, RouteEnv,
    RouteForest,
};
use routes_gen::hierarchy::{deep_scenario, DeepRows};
use routes_gen::relational::relational_scenario;
use routes_gen::{pipeline_scenario, random_scenario, TpchRows};
use routes_mapping::TgdId;
use routes_model::{Fact, Instance, Schema, Side, TupleId, Value, ValuePool};
use routes_pipeline::chase_pipeline;
use routes_pool::Pool;

/// Seeds chosen so the scenarios exercise multi-tgd mappings with non-empty
/// sources (every seed chases successfully; see `routes_gen::random`).
const SEEDS: [u64; 5] = [3, 7, 11, 23, 42];

const POOL_SIZES: [usize; 3] = [1, 2, 8];

/// A canonical, index-free rendering of a target instance: relation name,
/// row index, and printed values (labeled nulls included) for every tuple,
/// in schema/row order.
fn dump_instance(schema: &Schema, inst: &Instance, values: &ValuePool) -> String {
    let mut out = String::new();
    for (rel, relation) in schema.iter() {
        for (t, row) in inst.rel_tuples(rel) {
            out.push_str(relation.name());
            out.push_str(&format!("[{}](", t.row));
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&values.value_to_string(*v));
            }
            out.push_str(")\n");
        }
    }
    out
}

/// A canonical rendering of a route forest: roots, exploration order, and
/// every node's branches (tgd, homomorphism, children, witnessed tuples) in
/// exploration order.
fn dump_forest(forest: &RouteForest, values: &ValuePool) -> String {
    let mut out = format!("roots: {:?}\norder: {:?}\n", forest.roots, forest.order);
    for &t in &forest.order {
        out.push_str(&format!("node {t:?}\n"));
        for b in forest.branches_of(t) {
            let hom: Vec<String> = b.iter_hom(values);
            out.push_str(&format!(
                "  branch {:?} hom=[{}] lhs={:?} rhs={:?}\n",
                b.tgd,
                hom.join(", "),
                b.lhs_facts,
                b.rhs_tuples
            ));
        }
    }
    out
}

trait HomDump {
    fn iter_hom(&self, values: &ValuePool) -> Vec<String>;
}

impl HomDump for routes_core::Branch {
    fn iter_hom(&self, values: &ValuePool) -> Vec<String> {
        self.hom
            .iter()
            .map(|&v| values.value_to_string(v))
            .collect()
    }
}

/// Sequential baseline: chase result + pool snapshot for one seed.
fn sequential_chase(seed: u64, options: ChaseOptions) -> (ChaseResult, ValuePool, String) {
    let mut sc = random_scenario(seed);
    let result = chase(&sc.mapping, &sc.source, &mut sc.pool, options)
        .unwrap_or_else(|e| panic!("seed {seed}: sequential chase failed: {e}"));
    let dump = dump_instance(sc.mapping.target(), &result.target, &sc.pool);
    (result, sc.pool, dump)
}

fn assert_parallel_chase_matches(seed: u64, options: ChaseOptions, workers: &Pool) {
    let (baseline, base_pool, base_dump) = sequential_chase(seed, options);
    let mut sc = random_scenario(seed);
    let result = chase_with_pool(&sc.mapping, &sc.source, &mut sc.pool, options, workers)
        .unwrap_or_else(|e| {
            panic!(
                "seed {seed}: parallel chase ({} threads) failed: {e}",
                workers.threads()
            )
        });
    assert_eq!(
        result.stats(),
        baseline.stats(),
        "seed {seed}: chase stats diverge at {} threads",
        workers.threads()
    );
    assert_eq!(
        sc.pool.num_nulls(),
        base_pool.num_nulls(),
        "seed {seed}: labeled-null allocation diverges at {} threads",
        workers.threads()
    );
    let dump = dump_instance(sc.mapping.target(), &result.target, &sc.pool);
    assert_eq!(
        dump,
        base_dump,
        "seed {seed}: target instance diverges at {} threads",
        workers.threads()
    );
}

/// The per-tuple expansion of one tuple: one single-probe `findHom` per
/// tgd, in tgd order, deduplicated on `(σ, h)`, with children deduplicated
/// in atom order. (`collect_all` is checked against lazy `next_hom`
/// draining below.)
fn per_tuple_branches(env: RouteEnv<'_>, t: TupleId) -> Vec<Branch> {
    let mut branches = Vec::new();
    let mut seen: HashSet<(TgdId, Box<[Value]>)> = HashSet::new();
    for id in env.mapping.tgd_ids() {
        let fh = FindHom::new(env, id, AnchorSide::Rhs, Fact::target(t));
        for hom in fh.collect_all() {
            if !seen.insert((id, hom.clone())) {
                continue;
            }
            let mut lhs_facts = env.lhs_facts(id, &hom).expect("findHom maps the LHS");
            let mut children = HashSet::new();
            lhs_facts.retain(|&f| children.insert(f));
            let rhs_tuples = env.rhs_tuples(id, &hom).expect("findHom maps the RHS");
            branches.push(Branch {
                tgd: id,
                hom,
                lhs_facts,
                rhs_tuples,
            });
        }
    }
    branches
}

/// The oracle: Figure 3 as a depth-first worklist that expands each tuple
/// when it first pops it.
fn per_tuple_forest(env: RouteEnv<'_>, selected: &[TupleId]) -> RouteForest {
    let mut forest = RouteForest {
        roots: selected.to_vec(),
        ..RouteForest::default()
    };
    let mut stack: Vec<TupleId> = selected.iter().rev().copied().collect();
    while let Some(t) = stack.pop() {
        if forest.branches.contains_key(&t) {
            continue;
        }
        forest.order.push(t);
        let branches = per_tuple_branches(env, t);
        for branch in &branches {
            stack.extend(branch.target_children());
        }
        forest.branches.insert(t, branches);
    }
    forest
}

/// The wave builder at each of `pools` worker counts (1 runs the
/// sequential entry point) against the per-tuple oracle.
fn assert_forest_matches_oracle(
    label: &str,
    env: RouteEnv<'_>,
    selected: &[TupleId],
    values: &ValuePool,
    pools: &[usize],
) {
    let oracle = dump_forest(&per_tuple_forest(env, selected), values);
    for &threads in pools {
        let forest = if threads == 1 {
            compute_all_routes(env, selected)
        } else {
            compute_all_routes_with_pool(env, selected, &Pool::new(threads))
        };
        assert_eq!(
            dump_forest(&forest, values),
            oracle,
            "{label}: forest diverges at {threads} threads"
        );
    }
}

fn assert_parallel_forest_matches(seed: u64, workers: &Pool) {
    let mut sc = random_scenario(seed);
    let result = chase(&sc.mapping, &sc.source, &mut sc.pool, ChaseOptions::fresh())
        .unwrap_or_else(|e| panic!("seed {seed}: chase failed: {e}"));
    let selected: Vec<TupleId> = result.target.all_rows().collect();
    if selected.is_empty() {
        return;
    }
    let env = RouteEnv::new(&sc.mapping, &sc.source, &result.target);
    let oracle = dump_forest(&per_tuple_forest(env, &selected), &sc.pool);
    let parallel = dump_forest(
        &compute_all_routes_with_pool(env, &selected, workers),
        &sc.pool,
    );
    assert_eq!(
        parallel,
        oracle,
        "seed {seed}: route forest diverges at {} threads",
        workers.threads()
    );
}

#[test]
fn parallel_chase_is_deterministic_across_pool_sizes() {
    for seed in SEEDS {
        for threads in POOL_SIZES {
            let workers = Pool::new(threads);
            assert_parallel_chase_matches(seed, ChaseOptions::fresh(), &workers);
            assert_parallel_chase_matches(seed, ChaseOptions::skolem(), &workers);
        }
    }
}

#[test]
fn parallel_forest_is_deterministic_across_pool_sizes() {
    for seed in SEEDS {
        for threads in POOL_SIZES {
            assert_parallel_forest_matches(seed, &Pool::new(threads));
        }
    }
}

/// `ROUTES_THREADS` drives `Pool::from_env`; the results must be identical
/// at every override, same as with explicitly sized pools.
#[test]
fn routes_threads_env_override_is_deterministic() {
    for threads in POOL_SIZES {
        std::env::set_var(routes_pool::THREADS_ENV, threads.to_string());
        let workers = Pool::from_env();
        assert_eq!(
            workers.threads(),
            threads,
            "ROUTES_THREADS={threads} must size the pool"
        );
        for seed in &SEEDS[..3] {
            assert_parallel_chase_matches(*seed, ChaseOptions::fresh(), &workers);
            assert_parallel_forest_matches(*seed, &workers);
        }
    }
    std::env::remove_var(routes_pool::THREADS_ENV);
}

/// The random scenarios actually exercise the parallel paths: at least one
/// seed must produce a multi-tuple target (so candidate partitioning has
/// something to split) — guards against the generator degenerating.
#[test]
fn seeds_are_not_degenerate() {
    let mut total = 0usize;
    for seed in SEEDS {
        let mut sc = random_scenario(seed);
        let result = chase(&sc.mapping, &sc.source, &mut sc.pool, ChaseOptions::fresh())
            .unwrap_or_else(|e| panic!("seed {seed}: chase failed: {e}"));
        total += result.target.total_tuples();
    }
    assert!(total >= 10, "seeds produce only {total} target tuples");
}

/// Relational M0–M3 at SF 0.001 (the shape of the paper's Figure 10 and
/// of the benchmark's all-routes probes): selections of 1–20 tuples from
/// each of the six target groups. Forests grow with the group's M/T
/// factor, so the larger groups get the smaller selections, and each case
/// checks one pool size in turn (this suite runs unoptimised).
#[test]
fn wave_forest_matches_per_tuple_oracle_on_tpch() {
    const SIZES: [usize; 6] = [20, 15, 5, 2, 1, 1];
    for joins in 0..=3usize {
        let mut sc = relational_scenario(joins, &TpchRows::scale(0.001), 0xD0D0 + joins as u64);
        let solution = sc.scenario.solution().expect("chase succeeds").target;
        let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
        for group in 1..=6usize {
            let n = SIZES[group - 1].max(if joins < 2 { 10 / group } else { 1 });
            let selected = sc.select_from_group(&solution, group, n, (joins * 10 + group) as u64);
            assert!(
                !selected.is_empty(),
                "M{joins} group {group}: empty selection"
            );
            assert_forest_matches_oracle(
                &format!("M{joins} group {group} n={n}"),
                env,
                &selected,
                &sc.scenario.pool,
                &[POOL_SIZES[(joins + group) % POOL_SIZES.len()]],
            );
        }
    }
}

/// The deep hierarchy (paper Figure 11): selections at every depth.
#[test]
fn wave_forest_matches_per_tuple_oracle_on_deep_hierarchy() {
    let rows = DeepRows {
        regions: 2,
        nations_per: 2,
        customers_per: 3,
        orders_per: 2,
        lineitems_per: 2,
    };
    let mut sc = deep_scenario(&rows, 11);
    let solution = sc.scenario.solution().expect("chase succeeds").target;
    let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
    for depth in 1..=sc.max_depth() {
        let selected = sc.select_at_depth(&solution, depth, 5, depth as u64);
        assert_forest_matches_oracle(
            &format!("deep depth {depth}"),
            env,
            &selected,
            &sc.scenario.pool,
            &POOL_SIZES,
        );
    }
}

/// Every hop of chased pipelines, with and without per-hop cores.
#[test]
fn wave_forest_matches_per_tuple_oracle_on_pipeline_hops() {
    for (seed, core) in [(5u64, false), (6, true)] {
        let sc = pipeline_scenario(3, 12, seed, true, core);
        let prepared = chase_pipeline(
            sc.pipeline,
            sc.source,
            sc.pool,
            ChaseOptions::fresh(),
            &Pool::sequential(),
        )
        .expect("generated pipelines chase");
        for (k, stage) in prepared.stages.iter().enumerate() {
            let selected: Vec<TupleId> = stage.target.all_rows().collect();
            assert_forest_matches_oracle(
                &format!("pipeline seed {seed} hop {k}"),
                prepared.stage_env(k),
                &selected,
                &prepared.pool,
                &POOL_SIZES,
            );
        }
    }
}

/// Egds merge the invented nulls, and two tgds have two RHS atoms over one
/// relation, so one assignment is found once per anchor atom: the builder
/// must keep only its first occurrence, exactly as the oracle does.
const DUPLICATE_ANCHORS: &str = "\
source schema:
  S(a, b)
  P(a)
target schema:
  T(a, b)
  U(a, b)
  V(a)
dependencies:
  m1: S(x, y) -> exists Y: T(x, Y) & T(y, Y)
  m2: P(x) -> exists Y, Z: T(x, Y) & T(x, Z)
  t1: T(x, y) & T(z, y) -> U(x, z)
  t2: U(x, z) -> V(x) & V(z)
  e1: T(x, y) & T(x, z) -> y = z
source data:
  S(1, 2)
  S(2, 3)
  S(4, 4)
  P(1)
  P(5)
";

#[test]
fn wave_forest_matches_per_tuple_oracle_with_egds_and_duplicate_anchors() {
    let mut sc = load_scenario_str(DUPLICATE_ANCHORS).expect("scenario loads");
    let result = chase(&sc.mapping, &sc.source, &mut sc.pool, ChaseOptions::fresh())
        .expect("scenario chases");
    let env = RouteEnv::new(&sc.mapping, &sc.source, &result.target);
    let selected: Vec<TupleId> = result.target.all_rows().collect();
    assert_forest_matches_oracle("egd scenario", env, &selected, &sc.pool, &POOL_SIZES);
    // The scenario really has per-anchor duplicates for dedup to remove.
    let t2 = TgdId::Target(1);
    let v = sc.mapping.target().rel_id("V").expect("V exists");
    let duplicated = result.target.rel_rows(v).any(|t| {
        let mut fh = FindHom::new(env, t2, AnchorSide::Rhs, Fact::target(t));
        let mut homs = Vec::new();
        while let Some(h) = fh.next_hom() {
            homs.push(h);
        }
        let distinct: HashSet<&Box<[Value]>> = homs.iter().collect();
        distinct.len() < homs.len()
    });
    assert!(duplicated, "some V tuple must be found once per anchor");
}

/// Every probe fact of `rel` on the anchor side's instance.
fn probes_of(inst: &Instance, rel: routes_model::RelId, side: Side, cap: usize) -> Vec<Fact> {
    inst.rel_rows(rel)
        .take(cap)
        .map(|id| Fact { side, id })
        .collect()
}

/// `find_homs` over several probes hands each probe exactly the sequence
/// that draining its own lazy `next_hom` gives (with `dedup`, that
/// sequence's first occurrences), and so do the one-probe `collect_all`
/// and `collect_dedup`.
fn assert_find_homs_matches_lazy(label: &str, env: RouteEnv<'_>, cap: usize) {
    for id in env.mapping.tgd_ids() {
        for side in [AnchorSide::Rhs, AnchorSide::Lhs] {
            let (inst, fact_side, schema) = match side {
                AnchorSide::Rhs => (env.target, Side::Target, env.mapping.target()),
                AnchorSide::Lhs => (
                    env.lhs_instance(id),
                    env.lhs_side(id),
                    match env.lhs_side(id) {
                        Side::Source => env.mapping.source(),
                        Side::Target => env.mapping.target(),
                    },
                ),
            };
            for (rel, _) in schema.iter() {
                let probes = probes_of(inst, rel, fact_side, cap);
                for dedup in [false, true] {
                    let mut batched: Vec<Vec<Box<[Value]>>> = vec![Vec::new(); probes.len()];
                    find_homs(env, id, side, &probes, dedup, |p, hom| batched[p].push(hom));
                    for (p, &probe) in probes.iter().enumerate() {
                        let mut lazy = Vec::new();
                        let mut fh = FindHom::new(env, id, side, probe);
                        while let Some(h) = fh.next_hom() {
                            lazy.push(h);
                        }
                        if dedup {
                            let mut seen = HashSet::new();
                            lazy.retain(|h| seen.insert(h.clone()));
                        }
                        let one = FindHom::new(env, id, side, probe);
                        let collected = if dedup {
                            one.collect_dedup()
                        } else {
                            one.collect_all()
                        };
                        let at = format!("{label}: {id:?} {side:?} {probe:?} dedup={dedup}");
                        assert_eq!(batched[p], lazy, "{at}: find_homs");
                        assert_eq!(collected, lazy, "{at}: one-probe collect");
                    }
                }
            }
        }
    }
}

#[test]
fn find_homs_over_many_probes_matches_lazy_draining() {
    for seed in SEEDS {
        let mut sc = random_scenario(seed);
        let result = chase(&sc.mapping, &sc.source, &mut sc.pool, ChaseOptions::fresh())
            .unwrap_or_else(|e| panic!("seed {seed}: chase failed: {e}"));
        let env = RouteEnv::new(&sc.mapping, &sc.source, &result.target);
        assert_find_homs_matches_lazy(&format!("seed {seed}"), env, usize::MAX);
    }
    let mut sc = load_scenario_str(DUPLICATE_ANCHORS).expect("scenario loads");
    let result = chase(&sc.mapping, &sc.source, &mut sc.pool, ChaseOptions::fresh())
        .expect("scenario chases");
    let env = RouteEnv::new(&sc.mapping, &sc.source, &result.target);
    assert_find_homs_matches_lazy("egd scenario", env, usize::MAX);
    // More probes per relation than one seed slice holds.
    let mut sc = relational_scenario(1, &TpchRows::scale(0.001), 0xD0D0);
    let solution = sc.scenario.solution().expect("chase succeeds").target;
    let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
    assert_find_homs_matches_lazy("M1", env, 300);
}
