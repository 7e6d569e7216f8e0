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
//! `J → J∖{t}` needs no copy of `J`). It backtracks on an explicit stack
//! of one frame per matched row, so a search over thousands of rows (one
//! core-minimization block can hold that many) takes heap, not thread
//! stack. Its worst case is still exponential in the rows it is given;
//! callers bound that by what they pass.

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
/// come in ascending row order, by [`Instance::candidates`] over its
/// already-determined columns, so the result is deterministic.
/// On `false`, `mapping` is left as it was.
pub fn search(
    from: &Instance,
    to: &Instance,
    tuples: &[TupleId],
    rigid: &HashSet<NullId>,
    excluded: &HashSet<TupleId>,
    mapping: &mut HashMap<NullId, Value>,
) -> bool {
    let mut stack: Vec<Frame> = Vec::new();
    // Each pass enters the next row; the inner loop backtracks until some
    // frame binds a fitting image, or the stack runs out.
    while let Some(&tid) = tuples.get(stack.len()) {
        stack.push(Frame::enter(from, to, tid, rigid, mapping));
        loop {
            let Some(frame) = stack.last_mut() else {
                return false;
            };
            frame.unbind(mapping);
            if frame.advance(to, rigid, excluded, mapping) {
                break;
            }
            stack.pop();
        }
    }
    true
}

/// The image `v` is already committed to: itself when rigid, its mapping
/// when a bound null, `None` when a free null.
fn resolve(v: Value, rigid: &HashSet<NullId>, mapping: &HashMap<NullId, Value>) -> Option<Value> {
    match v {
        Value::Null(n) if !rigid.contains(&n) => mapping.get(&n).copied(),
        fixed => Some(fixed),
    }
}

/// One depth of [`search`]: the row being matched, its candidate images
/// (fixed when the depth is entered), the next one to try, and the nulls
/// the image it holds now bound.
struct Frame {
    tid: TupleId,
    values: Vec<Value>,
    candidates: Vec<u32>,
    next: usize,
    bound: Vec<NullId>,
}

impl Frame {
    fn enter(
        from: &Instance,
        to: &Instance,
        tid: TupleId,
        rigid: &HashSet<NullId>,
        mapping: &HashMap<NullId, Value>,
    ) -> Frame {
        let values = from.tuple(tid);
        // Candidate rows in `to`, by the shared rule over the columns whose
        // image is already determined (never escalating to a composite
        // index).
        let determined = values
            .iter()
            .enumerate()
            .filter_map(|(col, &v)| resolve(v, rigid, mapping).map(|image| (col as u32, image)));
        let mut candidates = Vec::new();
        to.candidates(tid.rel, determined, usize::MAX, &mut candidates);
        Frame {
            tid,
            values,
            candidates,
            next: 0,
            bound: Vec::new(),
        }
    }

    /// Undo the bindings of the image this frame holds.
    fn unbind(&mut self, mapping: &mut HashMap<NullId, Value>) {
        for n in self.bound.drain(..) {
            mapping.remove(&n);
        }
    }

    /// Move to the next candidate image that fits the current mapping and
    /// bind the free nulls it fixes; `false` when none is left.
    fn advance(
        &mut self,
        to: &Instance,
        rigid: &HashSet<NullId>,
        excluded: &HashSet<TupleId>,
        mapping: &mut HashMap<NullId, Value>,
    ) -> bool {
        while let Some(&row) = self.candidates.get(self.next) {
            self.next += 1;
            let image_id = TupleId {
                rel: self.tid.rel,
                row,
            };
            if excluded.contains(&image_id) {
                continue;
            }
            let bound = &mut self.bound;
            let fits = self.values.iter().enumerate().all(|(col, &v)| {
                let image = to.value_at(image_id, col);
                match v {
                    Value::Null(n) if !rigid.contains(&n) => match mapping.get(&n) {
                        Some(&img) => img == image,
                        None => {
                            mapping.insert(n, image);
                            bound.push(n);
                            true
                        }
                    },
                    fixed => fixed == image,
                }
            });
            if fits {
                return true;
            }
            self.unbind(mapping);
        }
        false
    }
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

    /// A search maps one row per stack frame of the heap, not of the
    /// thread: 20,000 rows on a 256 KiB thread stack. (A recursive search
    /// overflows a 2 MiB stack at about 4,000 rows in a release build.)
    #[test]
    fn deep_search_runs_on_a_small_thread_stack() {
        let s = schema();
        let t = s.rel_id("T").unwrap();
        let mut pool = ValuePool::new();
        let mut from = Instance::new(&s);
        let mut to = Instance::new(&s);
        for i in 0..20_000 {
            let n = pool.named_null(&format!("N{i}"));
            from.insert_ok(t, &[Value::Int(i), n]);
            to.insert_ok(t, &[Value::Int(i), Value::Int(i + 1)]);
        }
        let tuples: Vec<TupleId> = from.all_rows().collect();
        let mapping = std::thread::scope(|scope| {
            std::thread::Builder::new()
                .stack_size(256 * 1024)
                .spawn_scoped(scope, || {
                    let mut mapping = HashMap::new();
                    let found = search(
                        &from,
                        &to,
                        &tuples,
                        &HashSet::new(),
                        &HashSet::new(),
                        &mut mapping,
                    );
                    found.then_some(mapping)
                })
                .expect("spawn the search thread")
                .join()
                .expect("the search thread finishes")
        })
        .expect("every row has an image");
        assert_eq!(mapping.len(), 20_000);
        let Value::Null(last) = pool.named_null("N19999") else {
            unreachable!()
        };
        assert_eq!(mapping[&last], Value::Int(20_000));
    }

    /// The recursive search the explicit stack replaced, kept as the
    /// reference for candidate order and result.
    fn search_recursive(
        from: &Instance,
        to: &Instance,
        tuples: &[TupleId],
        rigid: &HashSet<NullId>,
        excluded: &HashSet<TupleId>,
        mapping: &mut HashMap<NullId, Value>,
    ) -> bool {
        let Some((&tid, rest)) = tuples.split_first() else {
            return true;
        };
        let values = from.tuple(tid);
        let determined = values
            .iter()
            .enumerate()
            .filter_map(|(col, &v)| resolve(v, rigid, mapping).map(|image| (col as u32, image)));
        let mut candidates = Vec::new();
        to.candidates(tid.rel, determined, usize::MAX, &mut candidates);
        for row in candidates {
            let image_id = TupleId { rel: tid.rel, row };
            if excluded.contains(&image_id) {
                continue;
            }
            let mut bound_here = Vec::new();
            let fits = values.iter().enumerate().all(|(col, &v)| {
                let image = to.value_at(image_id, col);
                match v {
                    Value::Null(n) if !rigid.contains(&n) => match mapping.get(&n) {
                        Some(&img) => img == image,
                        None => {
                            mapping.insert(n, image);
                            bound_here.push(n);
                            true
                        }
                    },
                    fixed => fixed == image,
                }
            });
            if fits && search_recursive(from, to, rest, rigid, excluded, mapping) {
                return true;
            }
            for b in bound_here {
                mapping.remove(&b);
            }
        }
        false
    }

    /// Same verdict and the same mapping as the recursive search, over
    /// seeded random instances with shared, rigid and pre-bound nulls and
    /// excluded rows.
    #[test]
    fn explicit_stack_matches_the_recursive_search() {
        let s = schema();
        let t = s.rel_id("T").unwrap();
        let mut pool = ValuePool::new();
        let nulls: Vec<Value> = (0..5).map(|i| pool.named_null(&format!("N{i}"))).collect();
        let null_id = |v: Value| match v {
            Value::Null(n) => n,
            _ => unreachable!(),
        };
        // SplitMix64, inline: routes-chase has no generator crate to lean on.
        let mut state = 0x5EED_u64;
        let mut next = |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        let (mut found, mut missed) = (0, 0);
        for _ in 0..3_000 {
            let mut from = Instance::new(&s);
            let mut to = Instance::new(&s);
            for _ in 0..1 + next(6) {
                let row: Vec<Value> = (0..2)
                    .map(|_| match next(3) {
                        0 => Value::Int(next(3) as i64),
                        _ => nulls[next(5) as usize],
                    })
                    .collect();
                from.insert_ok(t, &row);
            }
            for _ in 0..next(9) {
                let row: Vec<Value> = (0..2)
                    .map(|_| match next(4) {
                        0 => nulls[next(5) as usize],
                        _ => Value::Int(next(3) as i64),
                    })
                    .collect();
                to.insert_ok(t, &row);
            }
            let rigid: HashSet<NullId> = (0..next(2)).map(|_| null_id(nulls[0])).collect();
            let excluded: HashSet<TupleId> = to.all_rows().filter(|_| next(5) == 0).collect();
            let mut seed_map = HashMap::new();
            if next(3) == 0 {
                seed_map.insert(null_id(nulls[1]), Value::Int(next(3) as i64));
            }
            let tuples: Vec<TupleId> = from.all_rows().collect();
            let mut stacked = seed_map.clone();
            let mut recursive = seed_map.clone();
            let a = search(&from, &to, &tuples, &rigid, &excluded, &mut stacked);
            let b = search_recursive(&from, &to, &tuples, &rigid, &excluded, &mut recursive);
            assert_eq!(a, b);
            assert_eq!(stacked, recursive);
            if a {
                found += 1;
            } else {
                missed += 1;
                assert_eq!(
                    stacked, seed_map,
                    "a failed search leaves the mapping as it was"
                );
            }
        }
        assert!(
            found > 300 && missed > 300,
            "found {found}, missed {missed}"
        );
    }
}
