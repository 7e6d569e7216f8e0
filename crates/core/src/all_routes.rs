//! `ComputeAllRoutes` (paper Figure 3).
//!
//! For every tuple first encountered during construction, *all* `(σ, h)`
//! branches are computed (via `findHom`) exactly once — the `ACTIVETUPLES`
//! memoization — and target-tgd branches enqueue their LHS tuples for
//! exploration. The result is a [`RouteForest`] whose size is polynomial in
//! `|I| + |J| + |Js|` (Proposition 3.6) and which represents every minimal
//! route up to stratified interpretation (Theorem 3.7).
//!
//! There is one builder, [`compute_all_routes_with_pool`], and it runs
//! Figure 3 in two passes:
//!
//! 1. **Expansion, wave by wave.** Figure 3's worklist expands every tuple
//!    reachable from the selection through target-tgd children, each once;
//!    which tuple it expands when never changes a tuple's branches. So the
//!    builder expands the same set breadth first: the first wave is the
//!    selection, and each next wave is every tuple first reached from the
//!    previous one. A wave is expanded **set-at-a-time**: grouped by
//!    relation, it runs one batched `findHom` ([`find_homs`]) per tgd with
//!    an RHS atom over the group's relation, and each tuple receives exactly
//!    the branches a per-tuple `findHom` loop would give it. Waves of at
//!    least two chunks of `WAVE_CHUNK` tuples are split over the workers.
//! 2. **Exploration order.** Figure 3's depth-first worklist then runs over
//!    the finished expansions and records `order`.
//!
//! The forest — roots, exploration order and every branch — is therefore
//! byte-identical at every worker count to the per-tuple depth-first
//! builder, which the determinism suite keeps as its oracle.

use std::collections::{HashMap, HashSet};

use routes_mapping::TgdId;
use routes_model::{Atom, Fact, Instance, RelId, Term, TupleId, Value};
use routes_pool::Pool;

use crate::env::RouteEnv;
use crate::findhom::{find_homs, AnchorSide};
use crate::forest::{Branch, RouteForest};

/// The fewest wave tuples worth a worker thread: a wave is split over the
/// pool only in chunks of at least this many, so the one- and two-tuple
/// waves of chain-shaped forests never pay for a thread spawn.
const WAVE_CHUNK: usize = 16;

/// For each target relation, the tgds with an RHS atom over it, in tgd
/// order: the only tgds whose `findHom` a tuple of that relation can match.
fn anchor_tgds(env: RouteEnv<'_>) -> HashMap<RelId, Vec<TgdId>> {
    let mut by_rel: HashMap<RelId, Vec<TgdId>> = HashMap::new();
    for id in env.mapping.tgd_ids() {
        for atom in env.mapping.tgd(id).rhs() {
            let tgds = by_rel.entry(atom.rel).or_default();
            if tgds.last() != Some(&id) {
                tgds.push(id);
            }
        }
    }
    by_rel
}

/// All `(σ, h)` branches under each tuple of `wave` — steps 2 and 3 of
/// Figure 3 — in tgd order, then hom-enumeration order. The wave is grouped
/// by relation once, and each group runs one [`find_homs`] per tgd that can
/// match it; `find_homs` hands each tuple its own per-tuple sequence,
/// deduplicated on `(σ, h)`.
fn expand_wave(
    env: RouteEnv<'_>,
    anchors: &HashMap<RelId, Vec<TgdId>>,
    wave: &[TupleId],
) -> Vec<Vec<Branch>> {
    let mut branches: Vec<Vec<Branch>> = vec![Vec::new(); wave.len()];
    // A stable sort keeps wave order within each relation.
    let mut by_rel: Vec<usize> = (0..wave.len()).collect();
    by_rel.sort_by_key(|&i| wave[i].rel);
    let mut image = Vec::new();
    for group in by_rel.chunk_by(|&a, &b| wave[a].rel == wave[b].rel) {
        let Some(tgds) = anchors.get(&wave[group[0]].rel) else {
            continue;
        };
        let probes: Vec<Fact> = group.iter().map(|&i| Fact::target(wave[i])).collect();
        for &id in tgds {
            find_homs(env, id, AnchorSide::Rhs, &probes, true, |p, hom| {
                branches[group[p]].push(branch(env, id, hom, &mut image));
            });
        }
    }
    branches
}

/// The branch `(σ, h)` with its children — `LHS(h(σ))`, deduplicated in
/// atom order — and its RHS tuples, resolved through the reused `image`
/// buffer.
fn branch(env: RouteEnv<'_>, id: TgdId, hom: Box<[Value]>, image: &mut Vec<Value>) -> Branch {
    let tgd = env.mapping.tgd(id);
    let (lhs_instance, side) = (env.lhs_instance(id), env.lhs_side(id));
    let mut lhs_facts: Vec<Fact> = Vec::with_capacity(tgd.lhs().len());
    for atom in tgd.lhs() {
        let fact = Fact {
            side,
            id: resolve(lhs_instance, atom, &hom, image),
        };
        // A tgd has a handful of atoms: a linear scan is the cheap dedup.
        if !lhs_facts.contains(&fact) {
            lhs_facts.push(fact);
        }
    }
    let rhs_tuples = tgd
        .rhs()
        .iter()
        .map(|atom| resolve(env.target, atom, &hom, image))
        .collect();
    Branch {
        tgd: id,
        hom,
        lhs_facts,
        rhs_tuples,
    }
}

/// The tuple of `inst` that is `atom`'s image under the total assignment
/// `hom`.
fn resolve(inst: &Instance, atom: &Atom, hom: &[Value], image: &mut Vec<Value>) -> TupleId {
    image.clear();
    image.extend(atom.terms.iter().map(|term| match term {
        Term::Const(c) => *c,
        Term::Var(v) => hom[v.0 as usize],
    }));
    inst.find(atom.rel, image)
        .expect("findHom assignments map every atom into its instance")
}

/// Build the route forest for the selected target tuples, on the calling
/// thread: [`compute_all_routes_with_pool`] with [`Pool::sequential`].
///
/// Works for **any** solution `J`: selected tuples with no witnessing
/// assignment simply get an empty branch list (and
/// [`RouteForest::all_roots_provable`] reports the gap).
pub fn compute_all_routes(env: RouteEnv<'_>, selected: &[TupleId]) -> RouteForest {
    compute_all_routes_with_pool(env, selected, &Pool::sequential())
}

/// Build the route forest for the selected target tuples, expanding each
/// wave over `workers` (see the module docs). The forest is identical at
/// every worker count.
pub fn compute_all_routes_with_pool(
    env: RouteEnv<'_>,
    selected: &[TupleId],
    workers: &Pool,
) -> RouteForest {
    let anchors = anchor_tgds(env);
    let mut forest = RouteForest {
        roots: selected.to_vec(),
        ..RouteForest::default()
    };
    // Pass 1: expand every reachable tuple once, a wave at a time.
    let mut reached: HashSet<TupleId> = HashSet::new();
    let mut wave: Vec<TupleId> = selected
        .iter()
        .copied()
        .filter(|&t| reached.insert(t))
        .collect();
    while !wave.is_empty() {
        let expansions = workers.par_map_chunks(wave.len(), WAVE_CHUNK, |_, range| {
            expand_wave(env, &anchors, &wave[range])
        });
        let mut next = Vec::new();
        for (t, branches) in wave.into_iter().zip(expansions.into_iter().flatten()) {
            next.extend(
                branches
                    .iter()
                    .flat_map(Branch::target_children)
                    .filter(|&c| reached.insert(c)),
            );
            forest.branches.insert(t, branches);
        }
        wave = next;
    }
    // Pass 2: Figure 3's depth-first worklist (explicit, not recursive:
    // route chains can be as long as |J|) fixes the exploration order.
    // `reached` holds the tuples not yet explored.
    let mut stack: Vec<TupleId> = selected.iter().rev().copied().collect();
    while let Some(t) = stack.pop() {
        if !reached.remove(&t) {
            continue;
        }
        forest.order.push(t);
        for branch in &forest.branches[&t] {
            stack.extend(branch.target_children());
        }
    }
    forest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::example_3_5;
    use routes_chase::{chase, ChaseOptions};
    use routes_mapping::{parse_st_tgd, SchemaMapping};
    use routes_model::Value;
    use routes_model::{Instance, Schema, ValuePool};

    fn t_of(m: &SchemaMapping, j: &Instance, rel: &str) -> TupleId {
        let r = m.target().rel_id(rel).unwrap();
        j.rel_rows(r).next().unwrap()
    }

    #[test]
    fn figure_5_forest_structure() {
        let (m, i, j, _pool) = example_3_5();
        let env = RouteEnv::new(&m, &i, &j);
        let t7 = t_of(&m, &j, "T7");
        let forest = compute_all_routes(env, &[t7]);

        // Every tuple T1..T7 is explored (Figure 5 reaches them all).
        assert_eq!(forest.num_nodes(), 7);

        // Branch counts per node, per Figure 5:
        // T7: {σ6}; T4: {σ4}; T6: {σ8}; T3: {σ7, σ3}; T5: {σ5}; T2: {σ2}; T1: {σ1}.
        let expect = [
            ("T7", vec!["s6"]),
            ("T4", vec!["s4"]),
            ("T6", vec!["s8"]),
            ("T3", vec!["s3", "s7"]),
            ("T5", vec!["s5"]),
            ("T2", vec!["s2"]),
            ("T1", vec!["s1"]),
        ];
        for (rel, mut tgds) in expect {
            let t = t_of(&m, &j, rel);
            let mut got: Vec<String> = forest
                .branches_of(t)
                .iter()
                .map(|b| m.tgd(b.tgd).name().to_owned())
                .collect();
            got.sort();
            tgds.sort();
            assert_eq!(got, tgds, "branches under {rel}");
        }
        assert!(forest.all_roots_provable());
    }

    #[test]
    fn unjustifiable_tuple_has_empty_branches() {
        // J contains a tuple no tgd can witness.
        let mut s = Schema::new();
        s.rel("S", &["a"]);
        let mut t = Schema::new();
        t.rel("T", &["a"]);
        let mut pool = ValuePool::new();
        let mut m = SchemaMapping::new(s.clone(), t.clone());
        m.add_st_tgd(parse_st_tgd(&s, &t, &mut pool, "m: S(x) -> T(x)").unwrap())
            .unwrap();
        let i = Instance::new(&s); // empty source
        let mut j = Instance::new(&t);
        let orphan = j.insert_ok(t.rel_id("T").unwrap(), &[Value::Int(5)]);
        let env = RouteEnv::new(&m, &i, &j);
        let forest = compute_all_routes(env, &[orphan]);
        assert!(forest.branches_of(orphan).is_empty());
        assert!(!forest.all_roots_provable());
    }

    #[test]
    fn forest_over_chased_solution_is_fully_provable() {
        let (m, _i, _j, mut pool) = example_3_5();
        // Rebuild I and chase it; every chase tuple must be provable.
        let mut i = Instance::new(m.source());
        let a = pool.str("a");
        let b = pool.str("b");
        i.insert_ok(m.source().rel_id("S1").unwrap(), &[a]);
        i.insert_ok(m.source().rel_id("S2").unwrap(), &[a]);
        i.insert_ok(m.source().rel_id("S2").unwrap(), &[b]);
        let r = chase(&m, &i, &mut pool, ChaseOptions::fresh()).unwrap();
        let env = RouteEnv::new(&m, &i, &r.target);
        let all: Vec<TupleId> = r.target.all_rows().collect();
        let forest = compute_all_routes(env, &all);
        let provable = forest.provable_set();
        for t in all {
            assert!(
                provable.contains(&t),
                "chased tuple {t:?} must have a route"
            );
        }
    }

    #[test]
    fn parallel_forest_is_identical_to_sequential() {
        let (m, _i, _j, mut pool) = example_3_5();
        let mut i = Instance::new(m.source());
        let a = pool.str("a");
        let b = pool.str("b");
        i.insert_ok(m.source().rel_id("S1").unwrap(), &[a]);
        i.insert_ok(m.source().rel_id("S2").unwrap(), &[a]);
        i.insert_ok(m.source().rel_id("S2").unwrap(), &[b]);
        let r = chase(&m, &i, &mut pool, ChaseOptions::fresh()).unwrap();
        let env = RouteEnv::new(&m, &i, &r.target);
        let all: Vec<TupleId> = r.target.all_rows().collect();
        let sequential = compute_all_routes(env, &all);
        for threads in [1usize, 2, 8] {
            let parallel =
                compute_all_routes_with_pool(env, &all, &routes_pool::Pool::new(threads));
            assert_eq!(sequential.roots, parallel.roots, "threads={threads}");
            assert_eq!(sequential.order, parallel.order, "threads={threads}");
            for &t in &sequential.order {
                assert_eq!(
                    sequential.branches_of(t),
                    parallel.branches_of(t),
                    "threads={threads} tuple={t:?}"
                );
            }
        }
    }

    #[test]
    fn dotted_branch_extension_of_figure_5() {
        // Add σ9: S3(x) -> T5(x) and the source tuple S3(a): T5 gains a
        // second branch (the paper's leftmost dotted branch).
        let (mut m, mut i, j, mut pool) = example_3_5();
        let s9 = parse_st_tgd(m.source(), m.target(), &mut pool, "s9: S3(x) -> T5(x)").unwrap();
        m.add_st_tgd(s9).unwrap();
        let a = pool.str("a");
        i.insert_ok(m.source().rel_id("S3").unwrap(), &[a]);
        let env = RouteEnv::new(&m, &i, &j);
        let t7 = t_of(&m, &j, "T7");
        let forest = compute_all_routes(env, &[t7]);
        let t5 = t_of(&m, &j, "T5");
        let mut tgds: Vec<String> = forest
            .branches_of(t5)
            .iter()
            .map(|b| m.tgd(b.tgd).name().to_owned())
            .collect();
        tgds.sort();
        assert_eq!(tgds, ["s5", "s9"]);
    }
}
