//! Surgical route-forest invalidation after an edit batch.
//!
//! A cached [`RouteForest`] survives an edit iff a fresh forest computation
//! for the same selection over the edited session would produce it byte for
//! byte. Sufficient conditions, checked per forest:
//!
//! * the batch did not change the dependency set (forests cache per-tgd
//!   branch lists; a mapping change invalidates them wholesale);
//! * every source fact referenced by any branch is at a stable coordinate
//!   (not deleted, not index-shifted) — existing branches stay valid homs;
//! * every target tuple the forest mentions (roots, explored nodes, branch
//!   children, rhs images) is content-stable at its coordinate and is not
//!   in the batch's *seed set* — the rhs images of homs anchored on
//!   inserted source rows or changed/new target rows, i.e. every node that
//!   may have gained a branch;
//! * every raw `Value` stored in branch homs keeps its id across the pools:
//!   translating it from the old pool into the new one
//!   ([`ValuePool::translate`]) gives back the same value, so the fresh
//!   forest stores the same bits.
//!
//! Branch *removal* needs no separate check: a removed branch referenced a
//! tuple that changed, which already trips the conditions above. With all
//! conditions met, the fresh exploration visits the same nodes in the same
//! order with the same branch lists, so keeping the memoized forest (and
//! any `cached: true` answers derived from it) is sound.

use std::collections::HashSet;

use routes_core::RouteForest;
use routes_model::{Instance, Side, TupleId, ValuePool};

use crate::apply::EditApply;

/// Whether `forest` (built before the batch) is still byte-identical to
/// what a fresh computation over `apply.scenario` would produce.
pub fn forest_survives(
    forest: &RouteForest,
    apply: &EditApply,
    old_pool: &ValuePool,
    new_source: &Instance,
    new_target: &Instance,
) -> bool {
    if apply.mapping_changed {
        return false;
    }
    let new_pool = &apply.scenario.pool;
    let tgt_ok = |t: &TupleId| {
        t.row < new_target.rel_len(t.rel)
            && !apply.touched_tgt.contains(t)
            && !apply.seed_affected.contains(t)
    };
    let src_ok = |t: &TupleId| t.row < new_source.rel_len(t.rel) && !apply.touched_src.contains(t);
    if !forest.roots.iter().all(tgt_ok) {
        return false;
    }
    for (node, branches) in &forest.branches {
        if !tgt_ok(node) {
            return false;
        }
        for branch in branches {
            if !branch.rhs_tuples.iter().all(tgt_ok) {
                return false;
            }
            for fact in &branch.lhs_facts {
                let ok = match fact.side {
                    Side::Source => src_ok(&fact.id),
                    Side::Target => tgt_ok(&fact.id),
                };
                if !ok {
                    return false;
                }
            }
            // The fresh forest would store the same raw value only if the
            // new pool gives the value's meaning the same id.
            if !branch
                .hom
                .iter()
                .all(|&v| old_pool.translate(v, new_pool) == Some(v))
            {
                return false;
            }
        }
    }
    true
}

/// Partition a cache's selections: which survive the batch. Returns the
/// keys to keep (callers drop the rest).
pub fn surviving_selections<'a, I>(
    forests: I,
    apply: &EditApply,
    old_pool: &ValuePool,
) -> Vec<Vec<TupleId>>
where
    I: IntoIterator<Item = (&'a Vec<TupleId>, &'a RouteForest)>,
{
    let mut keep = Vec::new();
    let mut seen: HashSet<Vec<TupleId>> = HashSet::new();
    for (selection, forest) in forests {
        if seen.insert(selection.clone())
            && forest_survives(
                forest,
                apply,
                old_pool,
                &apply.scenario.source,
                &apply.scenario.target,
            )
        {
            keep.push(selection.clone());
        }
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_batch;
    use crate::memo::IncrState;
    use routes_chase::ChaseOptions;
    use routes_cli::{load_scenario_str, prepare_scenario_with, PreparedScenario};
    use routes_core::{compute_all_routes, RouteEnv};
    use routes_pool::Pool;
    use routes_store::EditOp;

    const BASE: &str = "\
source schema:
  S(a, b)
  M(a)
target schema:
  T(a, b)
  V(a)
dependencies:
  j: S(x, y) & S(y, z) -> T(x, z)
  cp: M(x) -> V(x)
source data:
  S(0, 1)
  S(1, 2)
  S(2, 3)
  M(7)
";

    fn prepare(text: &str) -> PreparedScenario {
        let loaded = load_scenario_str(text).unwrap();
        prepare_scenario_with(loaded, ChaseOptions::fresh(), &Pool::sequential()).unwrap()
    }

    fn forest_for(p: &PreparedScenario, sel: &[TupleId]) -> RouteForest {
        let env = RouteEnv::new(&p.mapping, &p.source, &p.target);
        compute_all_routes(env, sel)
    }

    #[test]
    fn untouched_forest_survives_and_equals_fresh_recompute() {
        let old = prepare(BASE);
        let v = old.mapping.target().rel_id("V").unwrap();
        let v7 = old.target.find(v, &[routes_model::Value::Int(7)]).unwrap();
        let forest = forest_for(&old, &[v7]);

        // An edit far away from M/V: insert an S row.
        let apply = apply_batch(
            BASE,
            &old,
            &IncrState::default(),
            &[EditOp::InsertTuple {
                line: "S(8, 9)".into(),
            }],
            ChaseOptions::fresh(),
            &Pool::sequential(),
        )
        .unwrap();
        assert!(forest_survives(
            &forest,
            &apply,
            &old.pool,
            &apply.scenario.source,
            &apply.scenario.target
        ));
        // The survivor is byte-identical to a fresh forest on the edited
        // session.
        let fresh = forest_for(&apply.scenario, &[v7]);
        assert_eq!(forest.roots, fresh.roots);
        assert_eq!(forest.order, fresh.order);
        assert_eq!(forest.branches, fresh.branches);
    }

    #[test]
    fn touched_and_mapping_changed_forests_die() {
        let old = prepare(BASE);
        let t = old.mapping.target().rel_id("T").unwrap();
        let t02 = old
            .target
            .find(
                t,
                &[routes_model::Value::Int(0), routes_model::Value::Int(2)],
            )
            .unwrap();
        let forest = forest_for(&old, &[t02]);

        // Deleting S(1, 2) kills T(0, 2)'s branch (and the tuple).
        let apply = apply_batch(
            BASE,
            &old,
            &IncrState::default(),
            &[EditOp::DeleteTuple {
                relation: "S".into(),
                row: 1,
            }],
            ChaseOptions::fresh(),
            &Pool::sequential(),
        )
        .unwrap();
        assert!(!forest_survives(
            &forest,
            &apply,
            &old.pool,
            &apply.scenario.source,
            &apply.scenario.target
        ));

        // Any mapping change invalidates wholesale.
        let apply = apply_batch(
            BASE,
            &old,
            &IncrState::default(),
            &[EditOp::AddTgd {
                line: "g1: M(x) -> T(x, x)".into(),
            }],
            ChaseOptions::fresh(),
            &Pool::sequential(),
        )
        .unwrap();
        assert!(!forest_survives(
            &forest,
            &apply,
            &old.pool,
            &apply.scenario.source,
            &apply.scenario.target
        ));
    }

    #[test]
    fn forest_whose_node_gains_a_branch_dies() {
        let old = prepare(BASE);
        let v = old.mapping.target().rel_id("V").unwrap();
        let v7 = old.target.find(v, &[routes_model::Value::Int(7)]).unwrap();
        let forest = forest_for(&old, &[v7]);
        // Inserting S(0, 9) and S(9, 2) creates the new j-match
        // S(0,9) & S(9,2) -> T(0, 2): a second branch on the *existing*
        // tuple T(0, 2), whose forest must die, while V(7)'s survives.
        let t = old.mapping.target().rel_id("T").unwrap();
        let t02 = old
            .target
            .find(
                t,
                &[routes_model::Value::Int(0), routes_model::Value::Int(2)],
            )
            .unwrap();
        let forest_t = forest_for(&old, &[t02]);
        let apply = apply_batch(
            BASE,
            &old,
            &IncrState::default(),
            &[
                EditOp::InsertTuple {
                    line: "S(0, 9)".into(),
                },
                EditOp::InsertTuple {
                    line: "S(9, 2)".into(),
                },
            ],
            ChaseOptions::fresh(),
            &Pool::sequential(),
        )
        .unwrap();
        assert!(apply.seed_affected.contains(&t02), "T(0,2) gains a branch");
        assert!(!forest_survives(
            &forest_t,
            &apply,
            &old.pool,
            &apply.scenario.source,
            &apply.scenario.target
        ));
        // The V(7) forest is untouched by the same batch.
        assert!(forest_survives(
            &forest,
            &apply,
            &old.pool,
            &apply.scenario.source,
            &apply.scenario.target
        ));
    }
}
