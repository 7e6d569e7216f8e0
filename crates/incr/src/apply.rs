//! Applying an edit batch to a prepared session: re-parse, delta-chase over
//! memoized matches, and change-set extraction for forest invalidation.
//!
//! The pipeline (per batch, not per op):
//!
//! 1. Apply the ops to the scenario text and re-parse it — the re-parsed
//!    pool/mapping/source are *canonical*: exactly what a from-scratch load
//!    produces.
//! 2. Diff the source instances by content into a row mapping, the
//!    inserted-row set, and the touched-row set: each old row's values are
//!    translated into the new pool ([`ValuePool::translate`]) and looked up
//!    in the new instance's dedup table.
//! 3. Maintain each s-t tgd's match memo: remap survivors to new row ids,
//!    join only the inserted rows for new matches ([`delta_vectors`]), and
//!    sort the union into the engine's enumeration order. Unknown or
//!    re-signed tgds fall back to a full single-tgd enumeration.
//! 4. Replay the chase through [`chase_with_st_matches`], which fires the
//!    memoized matches in order — producing a solution byte-identical to a
//!    from-scratch chase of the edited scenario, by construction, at every
//!    worker count.
//! 5. Diff the old and new solutions position by position and compute the
//!    seed set of target tuples that may have *gained* branches, for
//!    surgical route-forest invalidation (see [`crate::invalidate`]).

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use routes_chase::{chase_with_st_matches, ChaseOptions};
use routes_cli::PreparedScenario;
use routes_core::{AnchorSide, FindHom, RouteEnv};
use routes_mapping::{is_weakly_acyclic, tgd_to_string, TgdId};
use routes_model::{Fact, Instance, RelId, Schema, TupleId, Value, ValuePool};
use routes_pool::Pool;
use routes_query::Bindings;
use routes_store::EditOp;

use crate::edit::{apply_edits, EditError};
use crate::memo::{
    delta_vectors, full_vectors, sort_to_plan_order, vectors_to_bindings, IncrState, TgdMemo,
};

/// The result of applying one edit batch.
pub struct EditApply {
    /// The edited scenario text (the session's new canonical state).
    pub text: String,
    /// The re-prepared scenario (chased incrementally).
    pub scenario: PreparedScenario,
    /// Updated match memos for the next batch.
    pub state: IncrState,
    /// How many s-t tgds were maintained from a warm memo.
    pub memo_hits: usize,
    /// How many needed a full re-enumeration (cold, renamed, or re-signed).
    pub memo_misses: usize,
    /// Whether the batch changed the dependency set (add/drop tgd); forests
    /// are invalidated wholesale in that case.
    pub mapping_changed: bool,
    /// Source rows (old coordinates) that were deleted or index-shifted:
    /// any forest referencing one is stale.
    pub touched_src: HashSet<TupleId>,
    /// Target rows (old coordinates) whose content changed or vanished.
    pub touched_tgt: HashSet<TupleId>,
    /// Target rows (new coordinates) that may have *gained* a branch: rhs
    /// images of homs anchored on inserted source rows or on changed/new
    /// target rows. A forest containing one of these (at a stable
    /// coordinate) would be missing branches.
    pub seed_affected: HashSet<TupleId>,
    /// Inserted source rows, for reporting.
    pub source_inserted: usize,
    /// Deleted source rows, for reporting.
    pub source_deleted: usize,
}

/// Per-relation content maps between two source instances.
struct SourceDiff {
    /// `old_to_new[rel][old_row]` — the old row's new coordinate, if it
    /// still exists.
    old_to_new: Vec<Vec<Option<u32>>>,
    /// New-coordinate rows with no old counterpart, per relation.
    inserted: HashMap<RelId, HashSet<u32>>,
    /// Old-coordinate rows that were deleted or shifted.
    touched: HashSet<TupleId>,
    deleted: usize,
}

/// Find every old row in `new` by content: its values translated into
/// `new_pool`, looked up in `new`'s dedup table. A value `new_pool` never
/// interned means the row is gone.
fn diff_sources(
    old: &Instance,
    old_pool: &ValuePool,
    new: &Instance,
    new_pool: &ValuePool,
    schema: &Schema,
) -> SourceDiff {
    let mut diff = SourceDiff {
        old_to_new: Vec::new(),
        inserted: HashMap::new(),
        touched: HashSet::new(),
        deleted: 0,
    };
    let mut values: Vec<Value> = Vec::new();
    for (rel, _) in schema.iter() {
        let arity = old.arity(rel);
        let mut matched_new = vec![false; new.rel_len(rel) as usize];
        let mut map = Vec::with_capacity(old.rel_len(rel) as usize);
        for tid in old.rel_rows(rel) {
            values.clear();
            values.extend(
                (0..arity).map_while(|col| old_pool.translate(old.value_at(tid, col), new_pool)),
            );
            let new_row = if values.len() == arity {
                new.find(rel, &values).map(|t| t.row)
            } else {
                None
            };
            match new_row {
                Some(row) => {
                    matched_new[row as usize] = true;
                    if row != tid.row {
                        diff.touched.insert(tid);
                    }
                }
                None => {
                    diff.touched.insert(tid);
                    diff.deleted += 1;
                }
            }
            map.push(new_row);
        }
        let fresh: HashSet<u32> = (0..new.rel_len(rel))
            .filter(|&r| !matched_new[r as usize])
            .collect();
        if !fresh.is_empty() {
            diff.inserted.insert(rel, fresh);
        }
        debug_assert!(diff.old_to_new.len() == rel.0 as usize);
        diff.old_to_new.push(map);
    }
    diff
}

/// Row positions where two instances of the same schema disagree.
///
/// Coordinate-sensitive: row `r` of relation `R` is touched when it exists
/// on one side only, or when some cell differs in meaning across the two
/// pools ([`ValuePool::translate`]). Route forests reference tuples by
/// `(rel, row)`, so this is the granularity at which forests survive.
#[derive(Debug, Default)]
struct RowDiff {
    /// Touched positions in the old instance's coordinates.
    old: Vec<TupleId>,
    /// Touched positions in the new instance's coordinates.
    new: Vec<TupleId>,
}

/// Position-wise diff of two instances over `schema`, each under its own
/// value pool (see [`RowDiff`]).
fn target_row_diff(
    schema: &Schema,
    old: &Instance,
    old_pool: &ValuePool,
    new: &Instance,
    new_pool: &ValuePool,
) -> RowDiff {
    let mut diff = RowDiff::default();
    for (rel, _) in schema.iter() {
        let (old_len, new_len) = (old.rel_len(rel), new.rel_len(rel));
        for row in 0..old_len.max(new_len) {
            let tid = TupleId { rel, row };
            let same = row < old_len
                && row < new_len
                && (0..new.arity(rel)).all(|col| {
                    old_pool.translate(old.value_at(tid, col), new_pool)
                        == Some(new.value_at(tid, col))
                });
            if !same {
                if row < old_len {
                    diff.old.push(tid);
                }
                if row < new_len {
                    diff.new.push(tid);
                }
            }
        }
    }
    diff
}

/// Apply one batch of ops to a session. `old_text` must be the text that
/// produced `old` (under the same `options`), and `state` the memo from the
/// previous batch (empty on the first edit). On error the session is
/// untouched — all outputs are freshly built.
pub fn apply_batch(
    old_text: &str,
    old: &PreparedScenario,
    state: &IncrState,
    ops: &[EditOp],
    options: ChaseOptions,
    workers: &Pool,
) -> Result<EditApply, EditError> {
    let (text, loaded) = apply_edits(old_text, ops)?;
    let mut pool = loaded.pool;
    let mapping = loaded.mapping;
    let source = loaded.source;

    let sdiff = diff_sources(&old.source, &old.pool, &source, &pool, mapping.source());
    let mapping_changed = ops
        .iter()
        .any(|op| matches!(op, EditOp::AddTgd { .. } | EditOp::DropTgd { .. }));

    // Maintain per-tgd match memos.
    let mut next = IncrState::default();
    let mut match_lists: Vec<Vec<Bindings>> = Vec::with_capacity(mapping.st_tgds().len());
    let (mut memo_hits, mut memo_misses) = (0usize, 0usize);
    for tgd in mapping.st_tgds() {
        let sig = tgd_to_string(&pool, mapping.source(), mapping.target(), tgd);
        let warm = state.memos.get(tgd.name()).filter(|m| m.sig == sig);
        let mut vectors = match warm {
            Some(memo) => {
                memo_hits += 1;
                let mut vs: Vec<Vec<u32>> = memo
                    .vectors
                    .iter()
                    .filter_map(|v| {
                        v.iter()
                            .zip(tgd.lhs())
                            .map(|(&row, atom)| sdiff.old_to_new[atom.rel.0 as usize][row as usize])
                            .collect()
                    })
                    .collect();
                vs.extend(delta_vectors(&source, tgd, &sdiff.inserted));
                vs
            }
            None => {
                memo_misses += 1;
                full_vectors(&source, tgd)
            }
        };
        sort_to_plan_order(&source, tgd, &mut vectors);
        match_lists.push(vectors_to_bindings(&source, tgd, &vectors));
        next.memos
            .insert(tgd.name().to_owned(), TgdMemo { sig, vectors });
    }

    let start = Instant::now();
    let result =
        chase_with_st_matches(&mapping, &source, &mut pool, options, workers, &match_lists)
            .map_err(|e| EditError::Chase(e.to_string()))?;
    let chase_wall = start.elapsed();
    let stats = result.stats();
    let target = result.target;
    let egd_log = result.egd_log;

    let tdiff = target_row_diff(mapping.target(), &old.target, &old.pool, &target, &pool);

    // Seed set: target tuples that may have gained a branch. Every new
    // branch references at least one inserted source row or changed/new
    // target row, so anchoring findHom on those rows and collecting rhs
    // images covers all of them.
    let mut seed_affected: HashSet<TupleId> = HashSet::new();
    {
        let env = RouteEnv::new(&mapping, &source, &target);
        let mut probe_rhs_images = |id: TgdId, side: AnchorSide, probe: Fact| {
            let homs = FindHom::new(env, id, side, probe).collect_dedup();
            for hom in homs {
                if let Some(rhs) = env.rhs_tuples(id, &hom) {
                    seed_affected.extend(rhs);
                }
            }
        };
        for (rel, rows) in &sdiff.inserted {
            for &row in rows {
                let probe = Fact::source(TupleId { rel: *rel, row });
                for ti in 0..mapping.st_tgds().len() as u32 {
                    probe_rhs_images(TgdId::St(ti), AnchorSide::Lhs, probe);
                }
            }
        }
        for &tid in &tdiff.new {
            let probe = Fact::target(tid);
            for ti in 0..mapping.st_tgds().len() as u32 {
                probe_rhs_images(TgdId::St(ti), AnchorSide::Rhs, probe);
            }
            for ti in 0..mapping.target_tgds().len() as u32 {
                probe_rhs_images(TgdId::Target(ti), AnchorSide::Rhs, probe);
                probe_rhs_images(TgdId::Target(ti), AnchorSide::Lhs, probe);
            }
        }
    }

    let weakly_acyclic = is_weakly_acyclic(&mapping);
    let source_inserted = sdiff.inserted.values().map(HashSet::len).sum();
    let scenario = PreparedScenario {
        pool,
        mapping,
        source,
        target,
        egd_log,
        chase_stats: Some(stats),
        nested_target: None,
        weakly_acyclic,
        chase_wall: Some(chase_wall),
    };
    Ok(EditApply {
        text,
        scenario,
        state: next,
        memo_hits,
        memo_misses,
        mapping_changed,
        touched_src: sdiff.touched,
        touched_tgt: tdiff.old.iter().copied().collect(),
        seed_affected,
        source_inserted,
        source_deleted: sdiff.deleted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use routes_cli::{load_scenario_str, prepare_scenario_with};

    const BASE: &str = "\
source schema:
  S(a, b)
  M(a)
target schema:
  T(a, b)
  V(a)
  U(a, b)
dependencies:
  j: S(x, y) & S(y, z) -> T(x, z)
  cp: M(x) -> V(x)
  ex: S(x, y) -> exists W: U(x, W)
  tt: T(x, z) -> V(z)
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

    fn dump(p: &PreparedScenario) -> String {
        let mut out = String::new();
        for (rel, r) in p.mapping.target().iter() {
            for (tid, vals) in p.target.rel_tuples(rel) {
                let vs: Vec<String> = vals
                    .iter()
                    .map(|&v| format!("{v:?}:{}", p.pool.display(v)))
                    .collect();
                out.push_str(&format!("{}[{}]: {}\n", r.name(), tid.row, vs.join(", ")));
            }
        }
        out
    }

    #[test]
    fn row_diff_is_position_sensitive_and_pool_aware() {
        let mut t = Schema::new();
        t.rel("T", &["a", "b"]);
        let tr = t.rel_id("T").unwrap();
        let mut old_pool = ValuePool::new();
        let mut new_pool = ValuePool::new();

        // Old: T(1, "x"), T(2, N). New pool interns in a different order,
        // so raw ids differ while renders agree.
        let mut old = Instance::new(&t);
        let ox = old_pool.str("x");
        let on = old_pool.named_null("N");
        old.insert_ok(tr, &[Value::Int(1), ox]);
        old.insert_ok(tr, &[Value::Int(2), on]);

        let mut new = Instance::new(&t);
        let _pad = new_pool.str("padding"); // shift symbol ids
        let nx = new_pool.str("x");
        let nn = new_pool.named_null("N");
        new.insert_ok(tr, &[Value::Int(1), nx]);
        new.insert_ok(tr, &[Value::Int(2), nn]);
        let diff = target_row_diff(&t, &old, &old_pool, &new, &new_pool);
        assert!(diff.old.is_empty() && diff.new.is_empty());

        // A changed row 0 and an appended row 2 are both touched; the
        // untouched row 1 is not.
        new = Instance::new(&t);
        new.insert_ok(tr, &[Value::Int(9), nx]);
        new.insert_ok(tr, &[Value::Int(2), nn]);
        new.insert_ok(tr, &[Value::Int(3), nx]);
        let diff = target_row_diff(&t, &old, &old_pool, &new, &new_pool);
        assert_eq!(diff.old, vec![TupleId { rel: tr, row: 0 }]);
        assert_eq!(
            diff.new,
            vec![TupleId { rel: tr, row: 0 }, TupleId { rel: tr, row: 2 }]
        );

        // Int(5) never aliases Str("5").
        let five = new_pool.str("5");
        let mut a = Instance::new(&t);
        a.insert_ok(tr, &[Value::Int(5), Value::Int(0)]);
        let mut b = Instance::new(&t);
        b.insert_ok(tr, &[five, Value::Int(0)]);
        let diff = target_row_diff(&t, &a, &new_pool, &b, &new_pool);
        assert!(!(diff.old.is_empty() && diff.new.is_empty()));
    }

    #[test]
    fn incremental_apply_matches_from_scratch_prepare() {
        let old = prepare(BASE);
        let batches: Vec<Vec<EditOp>> = vec![
            vec![EditOp::InsertTuple {
                line: "S(3, 0)".into(),
            }],
            vec![
                EditOp::DeleteTuple {
                    relation: "S".into(),
                    row: 1,
                },
                EditOp::InsertTuple {
                    line: "M(9)".into(),
                },
            ],
            vec![EditOp::AddTgd {
                line: "g1: M(x) -> T(x, x)".into(),
            }],
            vec![EditOp::DropTgd { name: "g1".into() }],
        ];
        let mut text = BASE.to_owned();
        let mut scn = old;
        let mut state = IncrState::default();
        for (k, ops) in batches.iter().enumerate() {
            let apply = apply_batch(
                &text,
                &scn,
                &state,
                ops,
                ChaseOptions::fresh(),
                &Pool::sequential(),
            )
            .unwrap();
            let fresh = prepare(&apply.text);
            assert_eq!(dump(&apply.scenario), dump(&fresh), "batch {k}");
            assert_eq!(apply.scenario.chase_stats, fresh.chase_stats, "batch {k}");
            assert_eq!(
                apply.scenario.pool.num_nulls(),
                fresh.pool.num_nulls(),
                "batch {k}"
            );
            text = apply.text;
            scn = apply.scenario;
            state = apply.state;
        }
        // After the first batch, tgds are warm.
        assert!(state.memos.contains_key("j"));
    }

    #[test]
    fn change_sets_identify_touched_rows() {
        let old = prepare(BASE);
        let ops = vec![EditOp::DeleteTuple {
            relation: "S".into(),
            row: 0,
        }];
        let apply = apply_batch(
            BASE,
            &old,
            &IncrState::default(),
            &ops,
            ChaseOptions::fresh(),
            &Pool::sequential(),
        )
        .unwrap();
        let s = apply.scenario.mapping.source().rel_id("S").unwrap();
        // Row 0 deleted; rows 1 and 2 shifted down — all three touched.
        assert_eq!(apply.source_deleted, 1);
        assert!(apply.touched_src.contains(&TupleId { rel: s, row: 0 }));
        assert!(apply.touched_src.contains(&TupleId { rel: s, row: 2 }));
        // T(0, 2) (the only j-derived tuple from S(0,1),S(1,2)) is gone.
        assert!(!apply.touched_tgt.is_empty());
        assert!(!apply.mapping_changed);
    }

    #[test]
    fn seed_set_covers_new_branch_hosts() {
        // Insert S(9, 2): `j` derives a new T(9, 3), and tt re-derives
        // V(3) — which already exists (from T(1, 3)). The *existing* V(3)
        // gains a branch and must be in the seed set.
        let old = prepare(BASE);
        let ops = vec![EditOp::InsertTuple {
            line: "S(9, 2)".into(),
        }];
        let apply = apply_batch(
            BASE,
            &old,
            &IncrState::default(),
            &ops,
            ChaseOptions::fresh(),
            &Pool::sequential(),
        )
        .unwrap();
        let scn = &apply.scenario;
        let v = scn.mapping.target().rel_id("V").unwrap();
        let v3 = scn
            .target
            .find(v, &[routes_model::Value::Int(3)])
            .expect("V(3) exists before and after the edit");
        assert!(
            apply.seed_affected.contains(&v3),
            "seed: {:?}",
            apply.seed_affected
        );
    }
}
