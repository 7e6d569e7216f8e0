//! Core minimization of chased instances (ten Cate–Chiticariu–Kolaitis–Tan,
//! *Laconic Schema Mappings*).
//!
//! The core of a finite instance `J` is its smallest retract: the smallest
//! subinstance `C ⊆ J` with a homomorphism `J → C`. For universal solutions
//! the core is again a universal solution — the minimal one. Greedy
//! single-tuple removal computes it exactly: remove any tuple `t` for which
//! a homomorphism `J → J∖{t}` exists, and repeat to a fixpoint. (If the
//! fixpoint `J'` were not a core, it would have a proper endomorphism whose
//! image misses some tuple `t`, and that endomorphism is a homomorphism
//! `J' → J'∖{t}` — contradicting the fixpoint.)
//!
//! Two properties downstream code depends on:
//!
//! * **Frozen nulls.** In a pipeline, a stage's source instance may itself
//!   contain labeled nulls (it is the previous hop's chased target). Those
//!   nulls are *constants of this hop*: a homomorphism that moved them
//!   would invalidate the s-t steps of routes through the stage. The search
//!   therefore treats every null occurring in the stage source
//!   ([`frozen_nulls`]) as rigid; only nulls invented by this stage's chase
//!   may move. Only tuples containing at least one movable null are removal
//!   candidates (an all-rigid tuple maps to itself under any homomorphism,
//!   so it can never be dropped).
//! * **Values survive verbatim.** Minimization only deletes rows; kept rows
//!   are rebuilt in their original order with unchanged values. Every route
//!   valid on the core is therefore step-for-step valid on the unminimized
//!   instance, which is what makes core mode safe to debug against.
//!
//! The search is [`routes_chase::hom::search`] with the frozen nulls as its
//! rigid set and the removed rows as its excluded set (so no per-candidate
//! instance copies are made).

use std::collections::{HashMap, HashSet};

use routes_chase::hom::search;
use routes_model::{Instance, NullId, Schema, TupleId, Value};

/// Result of a [`core_minimize`] run.
#[derive(Debug, Clone)]
pub struct CoreOutcome {
    /// The minimized instance: kept rows only, original relative order,
    /// values unchanged.
    pub instance: Instance,
    /// Old `TupleId`s of the kept rows, in enumeration order.
    pub kept: Vec<TupleId>,
    /// Old-to-new `TupleId` translation for the kept rows.
    pub remap: HashMap<TupleId, TupleId>,
    /// Rows before minimization.
    pub before: usize,
    /// Rows removed.
    pub removed: usize,
}

/// Collect every null occurring in `source` — the nulls a downstream hop
/// must treat as rigid when minimizing its own target.
pub fn frozen_nulls(source: &Instance) -> HashSet<NullId> {
    let mut out = HashSet::new();
    for id in source.all_rows() {
        for v in source.tuple(id) {
            if let Value::Null(n) = v {
                out.insert(n);
            }
        }
    }
    out
}

/// Greedily minimize `target` to its core (relative to `frozen` nulls,
/// which are treated as constants). Deterministic: candidates are visited
/// in row order and the backtracking search is itself deterministic.
pub fn core_minimize(schema: &Schema, target: &Instance, frozen: &HashSet<NullId>) -> CoreOutcome {
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
            if retracts_without(target, &all, cand, &removed, frozen) {
                changed = true;
            } else {
                removed.remove(&cand);
            }
        }
        if !changed {
            break;
        }
    }

    let mut instance = Instance::new(schema);
    let mut kept = Vec::with_capacity(all.len() - removed.len());
    let mut remap = HashMap::new();
    for &id in &all {
        if removed.contains(&id) {
            continue;
        }
        let (new_id, fresh) = instance
            .insert(id.rel, &target.tuple(id))
            .expect("same schema");
        debug_assert!(fresh, "chased instances have no duplicate rows");
        kept.push(id);
        remap.insert(id, new_id);
    }
    CoreOutcome {
        instance,
        kept,
        remap,
        before: all.len(),
        removed: removed.len(),
    }
}

/// Whether a homomorphism `J' → J'∖{cand}` exists, where `J'` is the live
/// instance before this removal (`all ∖ dead` plus `cand` itself — the
/// caller has already moved `cand` into `dead`). Frozen nulls are treated
/// as constants; `dead` rows are excluded as images. The candidate is
/// searched first so the search fails fast when it has no alternative
/// image.
fn retracts_without(
    target: &Instance,
    all: &[TupleId],
    cand: TupleId,
    dead: &HashSet<TupleId>,
    frozen: &HashSet<NullId>,
) -> bool {
    let mut tuples = Vec::with_capacity(all.len() - dead.len() + 1);
    tuples.push(cand);
    tuples.extend(all.iter().copied().filter(|t| !dead.contains(t)));
    search(target, target, &tuples, frozen, dead, &mut HashMap::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use routes_model::ValuePool;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.rel("T", &["a", "b"]);
        s
    }

    #[test]
    fn redundant_null_row_is_removed() {
        let s = schema();
        let t = s.rel_id("T").unwrap();
        let mut pool = ValuePool::new();
        let n = pool.named_null("N");
        let mut j = Instance::new(&s);
        // T(1, N) retracts onto T(1, 2); the core is {T(1, 2)}.
        j.insert_ok(t, &[Value::Int(1), n]);
        j.insert_ok(t, &[Value::Int(1), Value::Int(2)]);
        let out = core_minimize(&s, &j, &HashSet::new());
        assert_eq!(out.removed, 1);
        assert_eq!(out.instance.total_tuples(), 1);
        assert_eq!(
            out.instance.tuple(TupleId { rel: t, row: 0 }),
            vec![Value::Int(1), Value::Int(2)]
        );
        // The kept row's old identity is row 1; it remapped to row 0.
        assert_eq!(out.kept, vec![TupleId { rel: t, row: 1 }]);
    }

    #[test]
    fn entangled_nulls_survive() {
        let s = schema();
        let t = s.rel_id("T").unwrap();
        let mut pool = ValuePool::new();
        let n = pool.named_null("N");
        let mut j = Instance::new(&s);
        // T(1, N) and T(N, 1): N cannot move anywhere — removing either
        // tuple strands the other.
        j.insert_ok(t, &[Value::Int(1), n]);
        j.insert_ok(t, &[n, Value::Int(1)]);
        let out = core_minimize(&s, &j, &HashSet::new());
        assert_eq!(out.removed, 0);
        assert_eq!(out.instance.total_tuples(), 2);
    }

    #[test]
    fn frozen_nulls_are_rigid() {
        let s = schema();
        let t = s.rel_id("T").unwrap();
        let mut pool = ValuePool::new();
        let n = pool.named_null("N");
        let Value::Null(nid) = n else { unreachable!() };
        let mut j = Instance::new(&s);
        j.insert_ok(t, &[Value::Int(1), n]);
        j.insert_ok(t, &[Value::Int(1), Value::Int(2)]);
        // With N frozen (it came from the stage's source), T(1, N) cannot
        // retract onto T(1, 2).
        let out = core_minimize(&s, &j, &HashSet::from([nid]));
        assert_eq!(out.removed, 0);
    }

    #[test]
    fn all_constant_rows_are_never_candidates() {
        let s = schema();
        let t = s.rel_id("T").unwrap();
        let mut j = Instance::new(&s);
        j.insert_ok(t, &[Value::Int(1), Value::Int(2)]);
        j.insert_ok(t, &[Value::Int(1), Value::Int(3)]);
        let out = core_minimize(&s, &j, &HashSet::new());
        assert_eq!(out.removed, 0);
        assert_eq!(out.before, 2);
    }

    #[test]
    fn chained_retraction_reaches_the_fixpoint() {
        let s = schema();
        let t = s.rel_id("T").unwrap();
        let mut pool = ValuePool::new();
        let n1 = pool.named_null("N1");
        let n2 = pool.named_null("N2");
        let mut j = Instance::new(&s);
        // Both null rows retract onto the constant row.
        j.insert_ok(t, &[Value::Int(1), n1]);
        j.insert_ok(t, &[Value::Int(1), n2]);
        j.insert_ok(t, &[Value::Int(1), Value::Int(9)]);
        let out = core_minimize(&s, &j, &HashSet::new());
        assert_eq!(out.removed, 2);
        assert_eq!(out.instance.total_tuples(), 1);
    }
}
