//! Pool-independent s-t tgd match memos and their delta maintenance.
//!
//! The chase engine enumerates each s-t tgd's LHS matches with an anchored
//! plan: candidate rows of the planned outermost atom in ascending order,
//! then a fixed-order backtracking join whose per-depth candidate lists are
//! also ascending (index posting lists are append-ordered). The full match
//! sequence is therefore **sorted lexicographically** by the plan-ordered
//! row vector `[v[outer], v[suffix[0]], ...]` — which is what lets a memo
//! survive edits: remap surviving vectors to new row ids, join only the
//! *inserted* rows for the new matches, then one sort by the new plan's key
//! reproduces the from-scratch enumeration order exactly.
//!
//! Memos store **row vectors** (one source row per LHS atom), not bindings:
//! row ids plus relation content identify a match independently of how the
//! value pool interned symbols, so memos stay valid across the re-parse
//! that every edit performs.

use std::collections::{HashMap, HashSet};

use routes_mapping::Tgd;
use routes_model::{Instance, RelId, Term, TupleId, Value};
use routes_query::{anchored_plan, unify_atom, Bindings, EvalOptions, MatchIter};

/// Memoized LHS matches of one s-t tgd, as row vectors in the engine's
/// enumeration order.
#[derive(Debug, Clone)]
pub struct TgdMemo {
    /// The tgd rendered back to text — memos are keyed by tgd *name*, and
    /// the signature detects a dropped-then-readded tgd reusing a name.
    pub sig: String,
    /// One row vector per match: `vectors[k][i]` is the source row the
    /// `i`-th LHS atom is matched against.
    pub vectors: Vec<Vec<u32>>,
}

/// All memos of a session, keyed by tgd name.
#[derive(Debug, Clone, Default)]
pub struct IncrState {
    /// Per-s-t-tgd match memos.
    pub memos: HashMap<String, TgdMemo>,
}

/// The image row of `atom` under total-on-lhs bindings `b`, recovered via
/// the instance's dedup table. Panics if `b` does not ground the atom or the
/// image tuple is absent — both impossible for bindings produced by matching
/// `atom` against `inst`.
fn image_row(inst: &Instance, atom: &routes_model::Atom, b: &Bindings) -> u32 {
    let mut buf: Vec<Value> = Vec::with_capacity(atom.terms.len());
    for term in &atom.terms {
        buf.push(match term {
            Term::Const(c) => *c,
            Term::Var(v) => b.get(*v).expect("LHS match binds every LHS variable"),
        });
    }
    inst.find(atom.rel, &buf)
        .expect("a match's atom image is a stored tuple")
        .row
}

/// Recover the full row vector of a total LHS match.
fn vector_of(inst: &Instance, lhs: &[routes_model::Atom], b: &Bindings) -> Vec<u32> {
    lhs.iter().map(|atom| image_row(inst, atom, b)).collect()
}

/// Enumerate *all* LHS matches of `tgd` over `source` as row vectors, in the
/// chase engine's order (the cold path, and the oracle the warm path must
/// reproduce).
pub fn full_vectors(source: &Instance, tgd: &Tgd) -> Vec<Vec<u32>> {
    let init = Bindings::new(tgd.var_count());
    let Some(ap) = anchored_plan(source, tgd.lhs(), &init) else {
        unreachable!("tgd LHSes are non-empty by construction");
    };
    let anchor = &tgd.lhs()[ap.outer];
    let mut out = Vec::new();
    for &row in &ap.rows {
        let mut b = init.clone();
        let tuple = source.tuple(TupleId {
            rel: anchor.rel,
            row,
        });
        if !unify_atom(anchor, &tuple, &mut b) {
            continue;
        }
        let mut it = MatchIter::with_plan(
            source,
            tgd.lhs(),
            b,
            ap.suffix.clone(),
            EvalOptions::default(),
        );
        while let Some(m) = it.next_match() {
            out.push(vector_of(source, tgd.lhs(), m));
        }
    }
    out
}

/// Enumerate the matches of `tgd` over `source` that use at least one row
/// from `inserted` (new-coordinate rows per relation), each exactly once:
/// a found vector is accepted only at the anchor position that is its
/// *first* LHS position holding an inserted row.
pub fn delta_vectors(
    source: &Instance,
    tgd: &Tgd,
    inserted: &HashMap<RelId, HashSet<u32>>,
) -> Vec<Vec<u32>> {
    let lhs = tgd.lhs();
    let init = Bindings::new(tgd.var_count());
    let is_inserted =
        |i: usize, row: u32| inserted.get(&lhs[i].rel).is_some_and(|s| s.contains(&row));
    let mut out = Vec::new();
    for p in 0..lhs.len() {
        let Some(rows) = inserted.get(&lhs[p].rel) else {
            continue;
        };
        let mut rows: Vec<u32> = rows.iter().copied().collect();
        rows.sort_unstable();
        // The remaining atoms in index order; any fixed order works — the
        // caller sorts the union by the new plan's key afterwards.
        let order: Vec<usize> = (0..lhs.len()).filter(|&i| i != p).collect();
        for u in rows {
            let mut b = init.clone();
            let tuple = source.tuple(TupleId {
                rel: lhs[p].rel,
                row: u,
            });
            if !unify_atom(&lhs[p], &tuple, &mut b) {
                continue;
            }
            let mut it =
                MatchIter::with_plan(source, lhs, b, order.clone(), EvalOptions::default());
            while let Some(m) = it.next_match() {
                let v = vector_of(source, lhs, m);
                let first = (0..lhs.len()).find(|&i| is_inserted(i, v[i]));
                if first == Some(p) && v[p] == u {
                    out.push(v);
                }
            }
        }
    }
    out
}

/// Sort `vectors` into the chase engine's enumeration order over `source`:
/// lexicographic by the anchored plan's atom order.
pub fn sort_to_plan_order(source: &Instance, tgd: &Tgd, vectors: &mut [Vec<u32>]) {
    let init = Bindings::new(tgd.var_count());
    let Some(ap) = anchored_plan(source, tgd.lhs(), &init) else {
        return;
    };
    let mut key_order = Vec::with_capacity(tgd.lhs().len());
    key_order.push(ap.outer);
    key_order.extend(ap.suffix.iter().copied());
    vectors.sort_by(|a, b| {
        for &i in &key_order {
            match a[i].cmp(&b[i]) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        std::cmp::Ordering::Equal
    });
}

/// Convert row vectors into the per-match [`Bindings`] the chase engine
/// fires with.
pub fn vectors_to_bindings(source: &Instance, tgd: &Tgd, vectors: &[Vec<u32>]) -> Vec<Bindings> {
    vectors
        .iter()
        .map(|v| {
            let mut b = Bindings::new(tgd.var_count());
            for (atom, &row) in tgd.lhs().iter().zip(v) {
                let ok = unify_atom(atom, &source.tuple(TupleId { rel: atom.rel, row }), &mut b);
                assert!(ok, "memo row vectors are LHS matches");
            }
            b
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use routes_mapping::parse_st_tgd;
    use routes_model::{Schema, ValuePool};

    fn setup() -> (Schema, Schema, Instance, ValuePool, Tgd) {
        let mut s = Schema::new();
        s.rel("S", &["a", "b"]);
        let mut t = Schema::new();
        t.rel("T", &["a", "b"]);
        let mut pool = ValuePool::new();
        let tgd = parse_st_tgd(&s, &t, &mut pool, "j: S(x, y) & S(y, z) -> T(x, z)").unwrap();
        let mut i = Instance::new(&s);
        let e = s.rel_id("S").unwrap();
        for (a, b) in [(0, 1), (1, 2), (2, 3), (0, 2)] {
            i.insert_ok(e, &[Value::Int(a), Value::Int(b)]);
        }
        (s, t, i, pool, tgd)
    }

    #[test]
    fn full_vectors_match_the_sequential_join() {
        let (_, _, i, _, tgd) = setup();
        let vectors = full_vectors(&i, &tgd);
        // Paths of length two: 0->1->2, 1->2->3, 0->2->3.
        assert_eq!(vectors.len(), 3);
        // Each vector grounds to a valid match.
        let bs = vectors_to_bindings(&i, &tgd, &vectors);
        assert_eq!(bs.len(), 3);
        assert!(bs.iter().all(|b| {
            tgd.lhs()
                .iter()
                .all(|a| a.vars().all(|v| b.get(v).is_some()))
        }));
    }

    #[test]
    fn delta_plus_survivors_equals_full_after_insert() {
        let (s, _, mut i, _, tgd) = setup();
        let e = s.rel_id("S").unwrap();
        let old = full_vectors(&i, &tgd);
        // Insert 3->0, closing cycles: new two-paths through it.
        let new_row = i.insert_ok(e, &[Value::Int(3), Value::Int(0)]).row;
        let mut inserted: HashMap<RelId, HashSet<u32>> = HashMap::new();
        inserted.entry(e).or_default().insert(new_row);
        let mut merged = old.clone();
        merged.extend(delta_vectors(&i, &tgd, &inserted));
        sort_to_plan_order(&i, &tgd, &mut merged);
        assert_eq!(merged, full_vectors(&i, &tgd));
    }

    #[test]
    fn delta_counts_each_new_match_once_with_repeated_relations() {
        let (s, _, mut i, _, tgd) = setup();
        let e = s.rel_id("S").unwrap();
        // Insert two rows that join with each other: the match using both
        // must be found exactly once.
        let r1 = i.insert_ok(e, &[Value::Int(10), Value::Int(11)]).row;
        let r2 = i.insert_ok(e, &[Value::Int(11), Value::Int(12)]).row;
        let mut inserted: HashMap<RelId, HashSet<u32>> = HashMap::new();
        inserted.entry(e).or_default().extend([r1, r2]);
        let delta = delta_vectors(&i, &tgd, &inserted);
        let both = delta
            .iter()
            .filter(|v| v.contains(&r1) && v.contains(&r2))
            .count();
        assert_eq!(both, 1, "delta: {delta:?}");
    }
}
