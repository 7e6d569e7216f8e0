//! Pool-independent s-t tgd match memos and their delta maintenance.
//!
//! The memos enumerate through the chase engine itself: a cold memo is the
//! engine's s-t enumeration ([`lhs_matches`]), and the matches an edit adds
//! are the engine's semi-naive delta join ([`delta_matches`]) anchored on
//! the inserted source rows — each match mapped to its row vector. This
//! module owns no join of its own.
//!
//! The engine enumerates each s-t tgd's LHS matches with an anchored plan:
//! candidate rows of the planned outermost atom in ascending order, then a
//! fixed-order join whose per-depth candidate lists are also ascending
//! (index posting lists are append-ordered). The full match sequence is
//! therefore **sorted lexicographically** by the plan-ordered row vector
//! `[v[outer], v[suffix[0]], ...]` — which is what lets a memo survive
//! edits: remap surviving vectors to new row ids, join only the *inserted*
//! rows for the new matches, then one sort by the new plan's key
//! ([`sort_to_plan_order`]) reproduces the from-scratch enumeration order
//! exactly.
//!
//! Memos store **row vectors** (one source row per LHS atom), not bindings:
//! row ids plus relation content identify a match independently of how the
//! value pool interned symbols, so memos stay valid across the re-parse
//! that every edit performs.

use std::collections::{HashMap, HashSet};

use routes_chase::{delta_matches, lhs_matches};
use routes_mapping::Tgd;
use routes_model::{Instance, RelId, Term, TupleId, Value};
use routes_pool::Pool;
use routes_query::{anchored_plan, unify_atom, Bindings};

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

/// The row vector of a total LHS match: each atom's image row, recovered via
/// the instance's dedup table. Panics if `b` does not ground an atom or the
/// image tuple is absent — both impossible for bindings produced by matching
/// `lhs` against `inst`.
fn vector_of(inst: &Instance, lhs: &[routes_model::Atom], b: &Bindings) -> Vec<u32> {
    let mut image: Vec<Value> = Vec::new();
    lhs.iter()
        .map(|atom| {
            image.clear();
            image.extend(atom.terms.iter().map(|term| match term {
                Term::Const(c) => *c,
                Term::Var(v) => b.get(*v).expect("LHS match binds every LHS variable"),
            }));
            let tid = inst.find(atom.rel, &image);
            tid.expect("a match's atom image is a stored tuple").row
        })
        .collect()
}

/// Enumerate *all* LHS matches of `tgd` over `source` in the chase
/// engine's order: each match's row vector (for the memo) and the bindings
/// themselves (for the engine to fire). The cold path, and the oracle the
/// warm path must reproduce.
pub fn full_matches(
    source: &Instance,
    tgd: &Tgd,
    workers: &Pool,
) -> (Vec<Vec<u32>>, Vec<Bindings>) {
    let bindings = lhs_matches(source, tgd, workers);
    let vectors = bindings
        .iter()
        .map(|b| vector_of(source, tgd.lhs(), b))
        .collect();
    (vectors, bindings)
}

/// Enumerate the matches of `tgd` over `source` that use at least one row
/// from `inserted` (new-coordinate rows per relation), each exactly once,
/// in no particular order (callers sort with [`sort_to_plan_order`]).
pub fn delta_vectors(
    source: &Instance,
    tgd: &Tgd,
    inserted: &HashMap<RelId, HashSet<u32>>,
    workers: &Pool,
) -> Vec<Vec<u32>> {
    let delta: Vec<TupleId> = inserted
        .iter()
        .flat_map(|(&rel, rows)| rows.iter().map(move |&row| TupleId { rel, row }))
        .collect();
    delta_matches(source, tgd, &delta, workers)
        .iter()
        .map(|b| vector_of(source, tgd.lhs(), b))
        .collect()
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
    use routes_gen::Rng;
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
    fn full_matches_match_the_sequential_join() {
        let (_, _, i, _, tgd) = setup();
        let (vectors, bindings) = full_matches(&i, &tgd, &Pool::sequential());
        // Paths of length two: 0->1->2, 1->2->3, 0->2->3.
        assert_eq!(vectors.len(), 3);
        // Each vector grounds to a valid match: the very bindings returned,
        // in the same order, so the cold path fires them as they are.
        let bs = vectors_to_bindings(&i, &tgd, &vectors);
        assert_eq!(bs, bindings);
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
        let (old, _) = full_matches(&i, &tgd, &Pool::sequential());
        // Insert 3->0, closing cycles: new two-paths through it.
        let new_row = i.insert_ok(e, &[Value::Int(3), Value::Int(0)]).row;
        let mut inserted: HashMap<RelId, HashSet<u32>> = HashMap::new();
        inserted.entry(e).or_default().insert(new_row);
        let mut merged = old.clone();
        merged.extend(delta_vectors(&i, &tgd, &inserted, &Pool::sequential()));
        sort_to_plan_order(&i, &tgd, &mut merged);
        assert_eq!(merged, full_matches(&i, &tgd, &Pool::sequential()).0);
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
        let delta = delta_vectors(&i, &tgd, &inserted, &Pool::sequential());
        let both = delta
            .iter()
            .filter(|v| v.contains(&r1) && v.contains(&r2))
            .count();
        assert_eq!(both, 1, "delta: {delta:?}");
    }

    /// An instance over `schema` holding `rows`, in order.
    fn instance_of(schema: &Schema, rows: &[(RelId, [i64; 2])]) -> Instance {
        let mut inst = Instance::new(schema);
        for (rel, row) in rows {
            inst.insert_ok(*rel, &row.map(Value::Int));
        }
        inst
    }

    #[test]
    fn survivors_plus_delta_equal_full_on_random_edits() {
        // Self-join premises (a path, a triangle, and a repeated variable
        // across two relations) over a small value domain, so joins abound.
        const TGDS: [&str; 3] = [
            "j: S(x, y) & S(y, z) -> T(x, z)",
            "tri: S(x, y) & S(y, z) & S(z, x) -> T(x, y)",
            "loop: S(x, x) & S(x, y) & R(y, x) -> T(x, y)",
        ];
        let mut s = Schema::new();
        let srel = s.rel("S", &["a", "b"]);
        let rrel = s.rel("R", &["a", "b"]);
        let mut t = Schema::new();
        t.rel("T", &["a", "b"]);
        let (mut survived, mut added) = (0, 0);
        for case in 0..48u64 {
            let mut rng = Rng::seed_from_u64(0x3E30 + case);
            let tgd = parse_st_tgd(&s, &t, &mut ValuePool::new(), TGDS[case as usize % 3]).unwrap();
            let random_row = |rng: &mut Rng| {
                let rel = if rng.gen_bool(0.75) { srel } else { rrel };
                (rel, [rng.gen_range(0..9i64), rng.gen_range(0..9i64)])
            };
            let old_rows: Vec<_> = (0..rng.gen_range(40..140usize))
                .map(|_| random_row(&mut rng))
                .collect();
            // The edit: drop some rows, append random inserts, and rebuild
            // the instance from scratch — as the re-parse does — so the
            // surviving rows move to new ids.
            let mut new_rows: Vec<_> = old_rows
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.8))
                .collect();
            for _ in 0..rng.gen_range(1..90usize) {
                new_rows.push(random_row(&mut rng));
            }
            let old = instance_of(&s, &old_rows);
            let new = instance_of(&s, &new_rows);
            let old_to_new = |tid: TupleId| new.find(tid.rel, &old.tuple(tid)).map(|t| t.row);
            let mut inserted: HashMap<RelId, HashSet<u32>> = HashMap::new();
            for tid in new.all_rows() {
                if old.find(tid.rel, &new.tuple(tid)).is_none() {
                    inserted.entry(tid.rel).or_default().insert(tid.row);
                }
            }
            for threads in [1, 2] {
                let workers = Pool::new(threads);
                let mut merged: Vec<Vec<u32>> = full_matches(&old, &tgd, &workers)
                    .0
                    .iter()
                    .filter_map(|v| {
                        v.iter()
                            .zip(tgd.lhs())
                            .map(|(&row, atom)| old_to_new(TupleId { rel: atom.rel, row }))
                            .collect()
                    })
                    .collect();
                survived += merged.len();
                let delta = delta_vectors(&new, &tgd, &inserted, &workers);
                added += delta.len();
                merged.extend(delta);
                sort_to_plan_order(&new, &tgd, &mut merged);
                let (full, _) = full_matches(&new, &tgd, &workers);
                assert!(
                    merged == full,
                    "case {case}, {threads} worker(s): {} maintained vs {} enumerated",
                    merged.len(),
                    full.len()
                );
            }
        }
        assert!(
            survived > 0 && added > 0,
            "{survived} survivors, {added} added"
        );
    }
}
