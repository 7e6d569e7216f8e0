//! Instance-level homomorphism search.
//!
//! A homomorphism `h : K → K'` maps constants to themselves and labeled
//! nulls to arbitrary values such that every fact of `K` maps to a fact of
//! `K'`. Universal solutions are characterized by the existence of such
//! homomorphisms into every other solution (paper §2), so this search is the
//! test oracle for chase correctness.
//!
//! [`search`] is the workspace's one backtracking homomorphism search. Two
//! extensions serve core minimization (`routes-pipeline`): a set of
//! *rigid* nulls that map to themselves like constants, and a set of
//! *excluded* rows that may not serve as images (so a retraction
//! `J → J∖{t}` needs no copy of `J`). It is intended for test-sized
//! instances and per-hop cores.

use std::collections::{HashMap, HashSet};

use routes_model::{Instance, NullId, TupleId, Value};

/// Find a homomorphism from `from` to `to`, returned as the null mapping
/// (constants always map to themselves). Returns `None` if none exists.
pub fn find_homomorphism(from: &Instance, to: &Instance) -> Option<HashMap<NullId, Value>> {
    let tuples: Vec<TupleId> = from.all_rows().collect();
    let mut mapping = HashMap::new();
    if search(
        from,
        to,
        &tuples,
        &HashSet::new(),
        &HashSet::new(),
        &mut mapping,
    ) {
        Some(mapping)
    } else {
        None
    }
}

/// Whether a homomorphism from `from` to `to` exists.
pub fn has_homomorphism(from: &Instance, to: &Instance) -> bool {
    find_homomorphism(from, to).is_some()
}

/// Extend `mapping` so that every row of `tuples` (rows of `from`) maps
/// onto a row of `to` outside `excluded`, with constants and `rigid` nulls
/// fixed. Rows are matched in `tuples` order; each row's candidate images
/// come in ascending row order, from the index of its most selective
/// already-determined column (or a scan), so the result is deterministic.
/// On `false`, `mapping` is left as it was.
pub fn search(
    from: &Instance,
    to: &Instance,
    tuples: &[TupleId],
    rigid: &HashSet<NullId>,
    excluded: &HashSet<TupleId>,
    mapping: &mut HashMap<NullId, Value>,
) -> bool {
    search_from(from, to, tuples, rigid, excluded, 0, mapping)
}

/// The image `v` is already committed to: itself when rigid, its mapping
/// when a bound null, `None` when a free null.
fn resolve(v: Value, rigid: &HashSet<NullId>, mapping: &HashMap<NullId, Value>) -> Option<Value> {
    match v {
        Value::Null(n) if !rigid.contains(&n) => mapping.get(&n).copied(),
        fixed => Some(fixed),
    }
}

fn search_from(
    from: &Instance,
    to: &Instance,
    tuples: &[TupleId],
    rigid: &HashSet<NullId>,
    excluded: &HashSet<TupleId>,
    depth: usize,
    mapping: &mut HashMap<NullId, Value>,
) -> bool {
    let Some(&tid) = tuples.get(depth) else {
        return true;
    };
    let values = from.tuple(tid);

    // Candidate rows in `to`: probe on the most selective already-determined
    // column if any, else scan.
    let mut best: Option<(u32, Value, usize)> = None;
    for (col, &v) in values.iter().enumerate() {
        let Some(image) = resolve(v, rigid, mapping) else {
            continue;
        };
        let len = to.probe_len(tid.rel, col as u32, image);
        if best.is_none_or(|(_, _, blen)| len < blen) {
            best = Some((col as u32, image, len));
        }
    }
    let mut candidates = Vec::new();
    match best {
        Some((col, image, _)) => to.probe_into(tid.rel, col, image, &mut candidates),
        None => candidates.extend(0..to.rel_len(tid.rel)),
    }

    'rows: for row in candidates {
        let image_id = TupleId { rel: tid.rel, row };
        if excluded.contains(&image_id) {
            continue;
        }
        let image = to.tuple(image_id);
        let mut bound_here: Vec<NullId> = Vec::new();
        for (col, &v) in values.iter().enumerate() {
            match v {
                Value::Null(n) if !rigid.contains(&n) => match mapping.get(&n) {
                    Some(&img) => {
                        if img != image[col] {
                            for b in bound_here.drain(..) {
                                mapping.remove(&b);
                            }
                            continue 'rows;
                        }
                    }
                    None => {
                        mapping.insert(n, image[col]);
                        bound_here.push(n);
                    }
                },
                fixed => {
                    if fixed != image[col] {
                        for b in bound_here.drain(..) {
                            mapping.remove(&b);
                        }
                        continue 'rows;
                    }
                }
            }
        }
        if search_from(from, to, tuples, rigid, excluded, depth + 1, mapping) {
            return true;
        }
        for b in bound_here {
            mapping.remove(&b);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use routes_model::{Schema, ValuePool};

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.rel("T", &["a", "b"]);
        s
    }

    #[test]
    fn identity_homomorphism_exists() {
        let s = schema();
        let mut i = Instance::new(&s);
        let t = s.rel_id("T").unwrap();
        i.insert_ok(t, &[Value::Int(1), Value::Int(2)]);
        assert!(has_homomorphism(&i, &i));
    }

    #[test]
    fn null_maps_to_constant() {
        let s = schema();
        let t = s.rel_id("T").unwrap();
        let mut pool = ValuePool::new();
        let n = pool.named_null("N");
        let mut from = Instance::new(&s);
        from.insert_ok(t, &[Value::Int(1), n]);
        let mut to = Instance::new(&s);
        to.insert_ok(t, &[Value::Int(1), Value::Int(9)]);
        let h = find_homomorphism(&from, &to).unwrap();
        let Value::Null(nid) = n else { unreachable!() };
        assert_eq!(h[&nid], Value::Int(9));
    }

    #[test]
    fn constants_cannot_move() {
        let s = schema();
        let t = s.rel_id("T").unwrap();
        let mut from = Instance::new(&s);
        from.insert_ok(t, &[Value::Int(1), Value::Int(2)]);
        let mut to = Instance::new(&s);
        to.insert_ok(t, &[Value::Int(1), Value::Int(3)]);
        assert!(!has_homomorphism(&from, &to));
    }

    #[test]
    fn null_mapping_must_be_consistent() {
        let s = schema();
        let t = s.rel_id("T").unwrap();
        let mut pool = ValuePool::new();
        let n = pool.named_null("N");
        // N must be both 1 and 2: impossible.
        let mut from = Instance::new(&s);
        from.insert_ok(t, &[n, Value::Int(0)]);
        from.insert_ok(t, &[Value::Int(0), n]);
        let mut to = Instance::new(&s);
        to.insert_ok(t, &[Value::Int(1), Value::Int(0)]);
        to.insert_ok(t, &[Value::Int(0), Value::Int(2)]);
        assert!(!has_homomorphism(&from, &to));
        // Make it possible.
        to.insert_ok(t, &[Value::Int(0), Value::Int(1)]);
        assert!(has_homomorphism(&from, &to));
    }

    #[test]
    fn backtracking_finds_nonobvious_assignments() {
        let s = schema();
        let t = s.rel_id("T").unwrap();
        let mut pool = ValuePool::new();
        let n1 = pool.named_null("N1");
        let n2 = pool.named_null("N2");
        let mut from = Instance::new(&s);
        from.insert_ok(t, &[n1, n2]);
        from.insert_ok(t, &[n2, Value::Int(3)]);
        let mut to = Instance::new(&s);
        to.insert_ok(t, &[Value::Int(1), Value::Int(2)]);
        to.insert_ok(t, &[Value::Int(2), Value::Int(3)]);
        // N1 -> 1, N2 -> 2 works; the greedy first choice for the first
        // tuple might try N1->2, N2->3 which fails on the second tuple.
        assert!(has_homomorphism(&from, &to));
    }
}
