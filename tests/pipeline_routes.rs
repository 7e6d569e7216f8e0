//! Differential gate for the `routes-pipeline` subsystem (tier-1 for this
//! PR).
//!
//! Three contracts over seeded pipeline campaigns
//! ([`routes_gen::pipeline_scenario`]):
//!
//! (a) **Thread-count determinism.** Stage-by-stage chase followed by route
//!     stitching is byte-identical at worker pool sizes 1, 2, and 8 — the
//!     pipeline inherits the exactness contract of `chase_with_pool`, and
//!     stitching itself is sequential.
//! (b) **Core-mode route validity.** With core mode on, every tuple of the
//!     minimized final instance yields a stitched route whose
//!     `Route::validate` replay succeeds hop by hop against the
//!     intermediate instances.
//! (c) **Core soundness and completeness for surviving tuples.** On a
//!     redundancy-heavy scenario, core mode strictly shrinks the chased
//!     instances, and for every surviving tuple the all-routes forest of
//!     the minimized session is exactly the unminimized session's forest
//!     restricted to branches whose facts all survive minimization — every
//!     route survivable on the core is still produced, and nothing new is
//!     invented.
//! (d) **Block-local cores equal the global fixpoint.** `core_minimize`
//!     (one greedy pass, each candidate searching only its own block) keeps
//!     exactly the rows of the global greedy fixpoint it replaced, kept
//!     here as the oracle, on every hop of uncored pipeline chases and on
//!     seeded random instances with shared and frozen nulls.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use routes_chase::hom::search;
use routes_chase::ChaseOptions;
use routes_core::{compute_all_routes, RouteEnv, RouteForest};
use routes_gen::{pipeline_scenario, Rng};
use routes_model::{Instance, NullId, Schema, Side, TupleId, Value, ValuePool};
use routes_pipeline::{
    chase_pipeline, core_minimize, frozen_nulls, stitch_route, PreparedPipeline,
};
use routes_pool::Pool;

const POOL_SIZES: [usize; 3] = [1, 2, 8];

fn prepare(
    hops: usize,
    rows: usize,
    seed: u64,
    redundancy: bool,
    core: bool,
    threads: usize,
) -> PreparedPipeline {
    let sc = pipeline_scenario(hops, rows, seed, redundancy, core);
    let workers = if threads == 1 {
        Pool::sequential()
    } else {
        Pool::new(threads)
    };
    chase_pipeline(
        sc.pipeline,
        sc.source,
        sc.pool,
        ChaseOptions::fresh(),
        &workers,
    )
    .expect("generated pipelines chase")
}

/// Canonical, index-free rendering of an instance (relation name + printed
/// values per row, in schema/row order).
fn dump_instance(schema: &Schema, inst: &Instance, pool: &ValuePool) -> String {
    let mut out = String::new();
    for (rel, relation) in schema.iter() {
        for (t, row) in inst.rel_tuples(rel) {
            out.push_str(relation.name());
            out.push_str(&format!("[{}](", t.row));
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&pool.value_to_string(*v));
            }
            out.push_str(")\n");
        }
    }
    out
}

/// Canonical rendering of a whole prepared pipeline: every hop's source and
/// target instances plus the chase/core statistics.
fn dump_pipeline(p: &PreparedPipeline) -> String {
    let mut out = String::new();
    for (k, stage) in p.stages.iter().enumerate() {
        let mapping = &p.pipeline.stages()[k].mapping;
        // Render the deterministic stats fields only: per-tgd wall times are
        // measurements and legitimately differ between runs.
        let per_tgd: Vec<String> = stage
            .stats
            .per_tgd
            .iter()
            .map(|t| format!("{}:{}m/{}f", t.name, t.matches, t.fired))
            .collect();
        out.push_str(&format!(
            "== stage {k} {} before_core={} removed={} rounds={} created={} \
             rewrites={} merges={} target={} per_tgd=[{}]\n",
            stage.name,
            stage.tuples_before_core,
            stage.core_removed,
            stage.stats.rounds,
            stage.stats.tuples_created,
            stage.stats.egd_rewrites,
            stage.stats.egd_merges,
            stage.stats.target_tuples,
            per_tgd.join(" ")
        ));
        out.push_str(&dump_instance(mapping.source(), &stage.source, &p.pool));
        out.push_str("--\n");
        out.push_str(&dump_instance(mapping.target(), &stage.target, &p.pool));
    }
    out
}

/// Canonical rendering of a stitched route (stage names, selections, and
/// the full step structure — tgds, homs, lhs facts, rhs tuples).
fn dump_stitched(p: &PreparedPipeline, selection: &[TupleId]) -> String {
    let stitched = stitch_route(p, selection).expect("selection has a route");
    stitched.validate(p).expect("stitched routes replay");
    let mut out = String::new();
    for stage in &stitched.stages {
        out.push_str(&format!(
            "hop {} {} selection={:?} route={:?}\n",
            stage.stage, stage.name, stage.selection, stage.route
        ));
    }
    out
}

// ---------------------------------------------------------------- gate (a)

#[test]
fn stitched_pipelines_are_byte_identical_at_every_thread_count() {
    for (hops, rows, seed, redundancy, core) in [
        (2, 10, 11, false, false),
        (3, 8, 23, true, false),
        (3, 8, 23, true, true),
        (4, 6, 42, true, true),
    ] {
        let baseline = prepare(hops, rows, seed, redundancy, core, 1);
        let base_dump = dump_pipeline(&baseline);
        let final_tuples: Vec<TupleId> = baseline.final_stage().target.all_rows().collect();
        assert!(!final_tuples.is_empty());
        let base_routes: Vec<String> = final_tuples
            .iter()
            .map(|&t| dump_stitched(&baseline, &[t]))
            .collect();
        for threads in POOL_SIZES {
            let other = prepare(hops, rows, seed, redundancy, core, threads);
            assert_eq!(
                base_dump,
                dump_pipeline(&other),
                "hops={hops} seed={seed} threads={threads}: chased chain must be byte-identical"
            );
            for (i, &t) in final_tuples.iter().enumerate() {
                assert_eq!(
                    base_routes[i],
                    dump_stitched(&other, &[t]),
                    "hops={hops} seed={seed} threads={threads}: stitched route for {t:?} drifted"
                );
                // Route equality is also structural (`Route: PartialEq` on
                // steps), not just textual.
                let a = stitch_route(&baseline, &[t]).unwrap();
                let b = stitch_route(&other, &[t]).unwrap();
                for (sa, sb) in a.stages.iter().zip(&b.stages) {
                    assert_eq!(sa.route, sb.route);
                }
            }
        }
    }
}

// ---------------------------------------------------------------- gate (b)

#[test]
fn core_mode_final_tuples_all_have_replayable_stitched_routes() {
    for (hops, rows, seed) in [(2, 12, 7), (3, 9, 13), (4, 5, 99)] {
        let prepared = prepare(hops, rows, seed, true, true, 2);
        let (before, after) = prepared.core_shrink();
        assert!(after < before, "seed {seed}: redundancy must shrink");
        let final_tuples: Vec<TupleId> = prepared.final_stage().target.all_rows().collect();
        assert!(!final_tuples.is_empty());
        for &t in &final_tuples {
            let stitched = stitch_route(&prepared, &[t])
                .unwrap_or_else(|e| panic!("seed {seed}: no route for {t:?}: {e}"));
            assert_eq!(stitched.stages.len(), hops);
            stitched
                .validate(&prepared)
                .unwrap_or_else(|e| panic!("seed {seed}: replay failed for {t:?}: {e}"));
        }
        // The whole final instance at once stitches too.
        let stitched = stitch_route(&prepared, &final_tuples).unwrap();
        stitched.validate(&prepared).unwrap();
    }
}

// ---------------------------------------------------------------- gate (c)

/// Render one branch canonically: tgd, hom values, lhs facts and rhs tuples
/// by *value* (row indices differ between the minimized and unminimized
/// sessions; values survive verbatim, so value strings are a faithful
/// cross-session identity for set-semantics instances).
fn branch_str(env: &RouteEnv<'_>, pool: &ValuePool, b: &routes_core::Branch) -> String {
    let tuple_str = |side: Side, id: TupleId| -> String {
        let (schema, inst) = match side {
            Side::Source => (env.mapping.source(), env.source),
            Side::Target => (env.mapping.target(), env.target),
        };
        let vals: Vec<String> = inst
            .tuple(id)
            .iter()
            .map(|v| pool.value_to_string(*v))
            .collect();
        format!(
            "{}:{}({})",
            if side == Side::Source { "src" } else { "tgt" },
            schema.relation(id.rel).name(),
            vals.join(", ")
        )
    };
    let hom: Vec<String> = b.hom.iter().map(|v| pool.value_to_string(*v)).collect();
    let lhs: Vec<String> = b
        .lhs_facts
        .iter()
        .map(|f| tuple_str(f.side, f.id))
        .collect();
    let rhs: Vec<String> = b
        .rhs_tuples
        .iter()
        .map(|&t| tuple_str(Side::Target, t))
        .collect();
    format!(
        "{:?} hom=[{}] lhs=[{}] rhs=[{}]",
        b.tgd,
        hom.join(","),
        lhs.join(" "),
        rhs.join(" ")
    )
}

/// Canonicalize a forest restricted to *surviving* branches: starting from
/// the roots, walk only branches whose target-side facts (children and
/// produced tuples) all survive, and render each reachable node's surviving
/// branch set sorted, keyed by the node's value rendering.
fn canonical_surviving_forest(
    env: &RouteEnv<'_>,
    pool: &ValuePool,
    forest: &RouteForest,
    survives: &dyn Fn(TupleId) -> bool,
) -> String {
    let node_str = |id: TupleId| -> String {
        let vals: Vec<String> = env
            .target
            .tuple(id)
            .iter()
            .map(|v| pool.value_to_string(*v))
            .collect();
        format!(
            "{}({})",
            env.mapping.target().relation(id.rel).name(),
            vals.join(", ")
        )
    };
    let branch_survives = |b: &routes_core::Branch| -> bool {
        b.rhs_tuples.iter().all(|&t| survives(t))
            && b.lhs_facts
                .iter()
                .all(|f| f.side == Side::Source || survives(f.id))
    };
    let mut nodes: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut seen: HashSet<TupleId> = HashSet::new();
    let mut queue: VecDeque<TupleId> = forest.roots.iter().copied().collect();
    while let Some(t) = queue.pop_front() {
        if !survives(t) || !seen.insert(t) {
            continue;
        }
        let mut branches: Vec<String> = Vec::new();
        for b in forest.branches_of(t) {
            if !branch_survives(b) {
                continue;
            }
            branches.push(branch_str(env, pool, b));
            for child in b.target_children() {
                queue.push_back(child);
            }
        }
        branches.sort();
        nodes.insert(node_str(t), branches);
    }
    let mut out = String::new();
    let mut roots: Vec<String> = forest
        .roots
        .iter()
        .filter(|&&t| survives(t))
        .map(|&t| node_str(t))
        .collect();
    roots.sort();
    out.push_str(&format!("roots: {roots:?}\n"));
    for (node, branches) in nodes {
        out.push_str(&format!("node {node}\n"));
        for b in branches {
            out.push_str(&format!("  {b}\n"));
        }
    }
    out
}

#[test]
fn core_forests_equal_the_surviving_slice_of_full_forests() {
    for seed in [3, 17, 51] {
        // Single hop, so the two sessions share one identical chase run
        // (same nulls, same row numbering pre-removal) and "surviving" is
        // exact, not value-approximate.
        let full = prepare(1, 14, seed, true, false, 1);
        let cored = prepare(1, 14, seed, true, true, 1);
        let (fb, fa) = full.core_shrink();
        assert_eq!(fb, fa, "core off: nothing removed");
        let (cb, ca) = cored.core_shrink();
        assert!(
            ca < cb,
            "seed {seed}: core must strictly shrink ({cb} -> {ca})"
        );

        // The pipeline's internal core pass agrees with a direct
        // `core_minimize` of the unminimized chase output.
        let full_stage = full.final_stage();
        let cored_stage = cored.final_stage();
        let mapping = &full.pipeline.stages()[0].mapping;
        let outcome = core_minimize(
            mapping.target(),
            &full_stage.target,
            &frozen_nulls(&full_stage.source),
        );
        assert_eq!(outcome.removed, cored_stage.core_removed);
        assert_eq!(
            dump_instance(mapping.target(), &outcome.instance, &full.pool),
            dump_instance(mapping.target(), &cored_stage.target, &cored.pool),
            "seed {seed}: chase_pipeline's core must equal a direct core_minimize"
        );

        let survivors: HashSet<TupleId> = outcome.kept.iter().copied().collect();
        let full_env = full.stage_env(0);
        let core_env = cored.stage_env(0);
        for &old in &outcome.kept {
            let new = outcome.remap[&old];
            let full_forest = compute_all_routes(full_env, &[old]);
            let core_forest = compute_all_routes(core_env, &[new]);
            let full_slice =
                canonical_surviving_forest(&full_env, &full.pool, &full_forest, &|t| {
                    survivors.contains(&t)
                });
            let core_all =
                canonical_surviving_forest(&core_env, &cored.pool, &core_forest, &|_| true);
            assert_eq!(
                full_slice, core_all,
                "seed {seed} tuple {old:?}: the core session's all-routes output must be \
                 exactly the unminimized session's forest restricted to surviving facts"
            );
        }
    }
}

// ---------------------------------------------------------------- gate (d)

/// The global greedy fixpoint `core_minimize` replaced: every candidate's
/// search maps every live row, and passes repeat until one removes
/// nothing. Returns the kept rows and the number removed.
fn oracle_core(target: &Instance, frozen: &HashSet<NullId>) -> (Vec<TupleId>, usize) {
    let all: Vec<TupleId> = target.all_rows().collect();
    let mut removed: HashSet<TupleId> = HashSet::new();
    loop {
        let mut changed = false;
        for &cand in &all {
            if removed.contains(&cand) {
                continue;
            }
            let movable = target
                .tuple(cand)
                .into_iter()
                .any(|v| matches!(v, Value::Null(n) if !frozen.contains(&n)));
            if !movable {
                continue;
            }
            removed.insert(cand);
            let mut tuples = vec![cand];
            tuples.extend(all.iter().copied().filter(|t| !removed.contains(t)));
            if search(
                target,
                target,
                &tuples,
                frozen,
                &removed,
                &mut HashMap::new(),
            ) {
                changed = true;
            } else {
                removed.remove(&cand);
            }
        }
        if !changed {
            break;
        }
    }
    let kept = all.into_iter().filter(|t| !removed.contains(t)).collect();
    (kept, removed.len())
}

fn assert_core_matches_oracle(
    schema: &Schema,
    target: &Instance,
    frozen: &HashSet<NullId>,
    case: &str,
) -> usize {
    let outcome = core_minimize(schema, target, frozen);
    let (kept, removed) = oracle_core(target, frozen);
    assert_eq!(
        outcome.kept, kept,
        "{case}: kept rows differ from the oracle"
    );
    assert_eq!(outcome.removed, removed, "{case}: removed count differs");
    removed
}

#[test]
fn block_local_cores_match_the_global_fixpoint_on_pipeline_hops() {
    let mut removed = 0;
    for hops in 1..=3 {
        for seed in [1, 2, 3, 4] {
            // Core off: each hop's target is unminimized, and its source
            // (the previous hop's target) carries the frozen nulls.
            let p = prepare(hops, 48, seed, true, false, 1);
            for (k, stage) in p.stages.iter().enumerate() {
                removed += assert_core_matches_oracle(
                    p.pipeline.stages()[k].mapping.target(),
                    &stage.target,
                    &frozen_nulls(&stage.source),
                    &format!("hops={hops} seed={seed} hop={k}"),
                );
            }
        }
    }
    assert!(
        removed > 0,
        "the redundancy-heavy chains must have cores to find"
    );
}

#[test]
fn block_local_cores_match_the_global_fixpoint_on_random_instances() {
    let mut schema = Schema::new();
    let r = schema.rel("R", &["a", "b"]);
    let s = schema.rel("S", &["a", "b", "c"]);
    let mut pool = ValuePool::new();
    let movable: Vec<Value> = (0..5).map(|i| pool.named_null(&format!("M{i}"))).collect();
    let rigid: Vec<Value> = (0..2).map(|i| pool.named_null(&format!("F{i}"))).collect();
    let frozen: HashSet<NullId> = rigid
        .iter()
        .map(|v| match v {
            Value::Null(n) => *n,
            _ => unreachable!(),
        })
        .collect();
    let mut rng = Rng::seed_from_u64(0xC0DE);
    let (mut with_removals, mut with_shared_nulls) = (0, 0);
    for case in 0..3_000 {
        let mut target = Instance::new(&schema);
        for _ in 0..rng.gen_range(2..=10usize) {
            let (rel, arity) = if rng.gen_bool(0.5) { (r, 2) } else { (s, 3) };
            let row: Vec<Value> = (0..arity)
                .map(|_| match rng.gen_range(0..20u32) {
                    0..=7 => Value::Int(rng.gen_range(0..3i64)),
                    8..=16 => movable[rng.gen_range(0..movable.len())],
                    _ => rigid[rng.gen_range(0..rigid.len())],
                })
                .collect();
            target.insert_ok(rel, &row);
        }
        let mut rows_per_null: HashMap<Value, HashSet<TupleId>> = HashMap::new();
        for id in target.all_rows() {
            for v in target.tuple(id) {
                if movable.contains(&v) {
                    rows_per_null.entry(v).or_default().insert(id);
                }
            }
        }
        with_shared_nulls += usize::from(rows_per_null.values().any(|rows| rows.len() > 1));
        let removed =
            assert_core_matches_oracle(&schema, &target, &frozen, &format!("random case {case}"));
        with_removals += usize::from(removed > 0);
    }
    assert!(
        with_removals > 500 && with_shared_nulls > 1_500,
        "the generator must exercise removals ({with_removals}) and multi-row blocks \
         ({with_shared_nulls})"
    );
}
