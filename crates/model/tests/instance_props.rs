//! Property tests for the instance store: set semantics, stable ids, index
//! consistency under interleaved inserts and probes, the shared candidate
//! rule against a scan, and `map_values` correctness.
//!
//! Ported from `proptest` to seeded deterministic loops over the in-repo
//! PRNG ([`routes_gen::Rng`]) so the workspace builds offline; the original
//! case counts (256 per property) are preserved.

use routes_gen::Rng;
use routes_model::{HashIndex, Instance, RelId, Schema, TupleId, Value};
use std::collections::HashSet;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<i64>),
    Probe { col: usize, value: i64 },
}

/// The proptest strategy, reified: 3:1 insert-to-probe mix, values in 0..6.
fn random_op(rng: &mut Rng, arity: usize) -> Op {
    if rng.gen_range(0..4usize) < 3 {
        Op::Insert((0..arity).map(|_| rng.gen_range(0..6i64)).collect())
    } else {
        Op::Probe {
            col: rng.gen_range(0..arity),
            value: rng.gen_range(0..6i64),
        }
    }
}

#[test]
fn interleaved_inserts_and_probes_stay_consistent() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x1157 + case);
        let ops: Vec<Op> = (0..rng.gen_range(0..60usize))
            .map(|_| random_op(&mut rng, 2))
            .collect();

        let mut schema = Schema::new();
        let rel = schema.rel("R", &["a", "b"]);
        let mut inst = Instance::new(&schema);
        // Model: the set of tuples inserted so far.
        let mut model: Vec<Vec<i64>> = Vec::new();

        for op in ops {
            match op {
                Op::Insert(row) => {
                    let values: Vec<Value> = row.iter().map(|&v| Value::Int(v)).collect();
                    let (id, fresh) = inst.insert(rel, &values).unwrap();
                    let existed = model.contains(&row);
                    assert_eq!(fresh, !existed, "case {case}: set semantics");
                    if !existed {
                        model.push(row.clone());
                    }
                    // Stable id: the id's row indexes the value in insertion
                    // order of distinct tuples.
                    assert_eq!(inst.tuple(id).to_vec(), values, "case {case}");
                }
                Op::Probe { col, value } => {
                    let mut rows = Vec::new();
                    inst.candidates(rel, [(col as u32, Value::Int(value))], 64, &mut rows);
                    let expected: Vec<u32> = model
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| t[col] == value)
                        .map(|(k, _)| k as u32)
                        .collect();
                    assert_eq!(&rows, &expected, "case {case}: index agrees with scan");
                    assert_eq!(
                        inst.with_index(rel, &(col as u32), |idx: &HashIndex<Value>| {
                            idx.get(&Value::Int(value)).len()
                        }),
                        expected.len(),
                        "case {case}"
                    );
                }
            }
        }
        // Final state: lengths and membership agree with the model.
        assert_eq!(inst.rel_len(rel) as usize, model.len(), "case {case}");
        for (k, row) in model.iter().enumerate() {
            let values: Vec<Value> = row.iter().map(|&v| Value::Int(v)).collect();
            assert_eq!(
                inst.find(rel, &values),
                Some(TupleId { rel, row: k as u32 }),
                "case {case}"
            );
        }
    }
}

#[test]
fn map_values_is_a_set_image() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x3A9 + case);
        let rows: Vec<Vec<i64>> = (0..rng.gen_range(0..30usize))
            .map(|_| (0..2).map(|_| rng.gen_range(0..5i64)).collect())
            .collect();

        let mut schema = Schema::new();
        let rel = schema.rel("R", &["a", "b"]);
        let mut inst = Instance::new(&schema);
        for row in &rows {
            let values: Vec<Value> = row.iter().map(|&v| Value::Int(v)).collect();
            inst.insert(rel, &values).unwrap();
        }
        // Collapse all values mod 2: the image must be exactly the set image.
        let mapped = inst.map_values(&schema, |v| match v {
            Value::Int(n) => Value::Int(n % 2),
            other => other,
        });
        let expected: HashSet<Vec<i64>> = rows
            .iter()
            .map(|r| r.iter().map(|v| v % 2).collect())
            .collect();
        assert_eq!(mapped.rel_len(rel) as usize, expected.len(), "case {case}");
        for row in expected {
            let values: Vec<Value> = row.iter().map(|&v| Value::Int(v)).collect();
            assert!(mapped.contains(rel, &values), "case {case}");
        }
    }
}

/// Rows of `rel` whose columns `bound` hold the paired values, by a scan.
fn scan(inst: &Instance, rel: RelId, bound: &[(u32, Value)]) -> Vec<u32> {
    (0..inst.rel_len(rel))
        .filter(|&row| {
            bound
                .iter()
                .all(|&(col, v)| inst.value_at(TupleId { rel, row }, col as usize) == v)
        })
        .collect()
}

#[test]
fn candidates_follow_the_rule_and_cover_exactly_the_scan() {
    for case in 0..128u64 {
        let mut rng = Rng::seed_from_u64(0xCA4D + case);
        let mut schema = Schema::new();
        let rel = schema.rel("R", &["a", "b", "c", "d"]);
        let mut inst = Instance::new(&schema);
        // Skewed columns: `a` and `d` hold long posting lists (past the
        // default composite threshold of 64), `c` short ones.
        let domains = [3i64, 8, 40, 4];
        let append = |inst: &mut Instance, rng: &mut Rng, n: usize| {
            for _ in 0..n {
                let row: Vec<Value> = domains
                    .iter()
                    .map(|&d| Value::Int(rng.gen_range(0..d)))
                    .collect();
                inst.insert_ok(rel, &row);
            }
        };
        let initial = rng.gen_range(0..400usize);
        append(&mut inst, &mut rng, initial);
        for phase in ["before appends", "after appends"] {
            for _ in 0..24 {
                // 1-3 distinct columns, ascending; a column repeats the
                // previous column's value half the time (a repeated
                // variable), otherwise takes a random constant.
                let mut cols: Vec<u32> = (0..4).collect();
                rng.shuffle(&mut cols);
                cols.truncate(rng.gen_range(1..4usize));
                cols.sort_unstable();
                let mut bound: Vec<(u32, Value)> = Vec::new();
                for &col in &cols {
                    let value = match bound.last() {
                        Some(&(_, prev)) if rng.gen_bool(0.5) => prev,
                        _ => Value::Int(rng.gen_range(0..domains[col as usize])),
                    };
                    bound.push((col, value));
                }
                let exact = scan(&inst, rel, &bound);
                let per_col: Vec<Vec<u32>> =
                    bound.iter().map(|b| scan(&inst, rel, &[*b])).collect();
                let min_len = per_col.iter().map(Vec::len).min().unwrap();
                for threshold in [0, 64, usize::MAX] {
                    let mut cands = vec![u32::MAX]; // replaced, not appended to
                    inst.candidates(rel, bound.iter().copied(), threshold, &mut cands);
                    let ctx = format!("case {case} {phase}: {bound:?} at threshold {threshold}");
                    assert!(cands.windows(2).all(|w| w[0] < w[1]), "{ctx}: ascending");
                    if bound.len() >= 2 && min_len > threshold {
                        assert_eq!(cands, exact, "{ctx}: composite probe");
                    } else {
                        assert!(
                            per_col.contains(&cands) && cands.len() == min_len,
                            "{ctx}: most selective single-column probe"
                        );
                    }
                    let kept: Vec<u32> = cands
                        .into_iter()
                        .filter(|row| exact.binary_search(row).is_ok())
                        .collect();
                    assert_eq!(kept, exact, "{ctx}: re-checked candidates are the scan");
                }
            }
            let more = rng.gen_range(1..200usize);
            append(&mut inst, &mut rng, more);
        }
    }
}
