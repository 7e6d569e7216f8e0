//! Core minimization of chased instances (ten Cate–Chiticariu–Kolaitis–Tan,
//! *Laconic Schema Mappings*).
//!
//! The core of a finite instance `J` is its smallest retract: the smallest
//! subinstance `C ⊆ J` with a homomorphism `J → C`. For universal solutions
//! the core is again a universal solution — the minimal one. Greedy
//! single-tuple removal computes it in one pass: visit the tuples in row
//! order and remove `t` when a homomorphism `J → J∖{t}` exists, `J` being
//! the instance left by the earlier removals. One pass suffices. Suppose
//! `t` stayed when visited, in `J_t`. The later removals compose into a
//! homomorphism `g : J_t → J_final`. A homomorphism
//! `h : J_final → J_final∖{t}` would make `h ∘ g` one from `J_t` to
//! `J_t∖{t}`, so no later removal makes `t` removable. And if the pass's
//! result were not a core, a proper endomorphism would miss some kept `t`,
//! which is such an `h`.
//!
//! The search is local to a *block* (Fagin–Kolaitis–Popa, *Data Exchange:
//! Getting to the Core*): the rows linked to `t` through shared movable
//! nulls. A map `J → J∖{t}` can be the identity outside `t`'s block, since
//! no other row shares a null it moves, and its restriction to the block
//! is one whenever a global map exists. So a retraction exists exactly
//! when the block-local search finds one, and each candidate's search
//! maps only its block's live rows. Blocks are computed once per
//! instance, by a union-find over rows; removals can only split a block,
//! and searching a block's live rows stays exact when they have split.
//!
//! Two properties downstream code depends on:
//!
//! * **Frozen nulls.** In a pipeline, a stage's source instance may itself
//!   contain labeled nulls (it is the previous hop's chased target). Those
//!   nulls are *constants of this hop*: a homomorphism that moved them
//!   would invalidate the s-t steps of routes through the stage. The search
//!   therefore treats every null occurring in the stage source
//!   ([`frozen_nulls`]) as rigid; only nulls invented by this stage's chase
//!   may move, and only they link rows into blocks. Only tuples containing
//!   at least one movable null are removal candidates (an all-rigid tuple
//!   maps to itself under any homomorphism, so it can never be dropped).
//! * **Values survive verbatim.** Minimization only deletes rows; kept rows
//!   are rebuilt in their original order with unchanged values. Every route
//!   valid on the core is therefore step-for-step valid on the unminimized
//!   instance, which is what makes core mode safe to debug against.
//!
//! The search is [`routes_chase::hom::search`] with the frozen nulls as its
//! rigid set and the removed rows as its excluded set (so no per-candidate
//! instance copies are made). It and the union-find both loop rather than
//! recurse, so no thread stack grows with the instance.

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
/// once, in row order, and the backtracking search is itself
/// deterministic.
pub fn core_minimize(schema: &Schema, target: &Instance, frozen: &HashSet<NullId>) -> CoreOutcome {
    let all: Vec<TupleId> = target.all_rows().collect();
    let (block_of, blocks) = blocks(target, &all, frozen);
    let mut removed: HashSet<TupleId> = HashSet::new();
    let mut tuples = Vec::new();
    for (&cand, block) in all.iter().zip(&block_of) {
        let Some(block) = block else {
            continue;
        };
        // Whether a homomorphism maps the live instance into itself minus
        // `cand`: the candidate first, so the search fails fast when it has
        // no other image, then the rest of its block.
        removed.insert(cand);
        tuples.clear();
        tuples.push(cand);
        tuples.extend(
            blocks[*block]
                .iter()
                .map(|&pos| all[pos])
                .filter(|t| !removed.contains(t)),
        );
        if !search(
            target,
            target,
            &tuples,
            frozen,
            &removed,
            &mut HashMap::new(),
        ) {
            removed.remove(&cand);
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

/// The blocks of `rows`: rows linked through shared movable (non-`frozen`)
/// nulls. Returns each row's block index (`None` for a row without movable
/// nulls, which is in no block) and each block's row positions, ascending.
fn blocks(
    target: &Instance,
    rows: &[TupleId],
    frozen: &HashSet<NullId>,
) -> (Vec<Option<usize>>, Vec<Vec<usize>>) {
    // Union-find over row positions; a root is its set's smallest position.
    let mut parent: Vec<usize> = (0..rows.len()).collect();
    let find = |parent: &mut Vec<usize>, mut x: usize| {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    };
    let mut movable = vec![false; rows.len()];
    let mut first_row: HashMap<NullId, usize> = HashMap::new();
    for (pos, &id) in rows.iter().enumerate() {
        for v in target.tuple(id) {
            let Value::Null(n) = v else { continue };
            if frozen.contains(&n) {
                continue;
            }
            movable[pos] = true;
            let other = *first_row.entry(n).or_insert(pos);
            let (a, b) = (find(&mut parent, pos), find(&mut parent, other));
            parent[a.max(b)] = a.min(b);
        }
    }
    let mut block_of = vec![None; rows.len()];
    let mut blocks: Vec<Vec<usize>> = Vec::new();
    for pos in 0..rows.len() {
        if !movable[pos] {
            continue;
        }
        // Roots come first in position order, so a root's block exists
        // before any other member asks for it.
        let root = find(&mut parent, pos);
        let block = match block_of[root] {
            Some(block) => block,
            None => {
                blocks.push(Vec::new());
                blocks.len() - 1
            }
        };
        block_of[pos] = Some(block);
        blocks[block].push(pos);
    }
    (block_of, blocks)
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
