//! Instances: append-only, duplicate-eliminating tuple stores with lazily
//! built, incrementally maintained per-column hash indexes.
//!
//! Storage is **columnar**: each relation keeps one interned-value vector per
//! column. Row positions are stable (tuples are never moved or removed), so a
//! [`TupleId`] durably identifies a fact for the lifetime of the instance.
//! This is the identity that routes, route forests, and the debugger use —
//! and because the store is append-only, the columnar layout preserves it
//! exactly: appending a tuple pushes one value onto each column vector and
//! never disturbs earlier rows.
//!
//! The columnar layout is what the vectorized batch executor in
//! `routes-query` scans: [`Instance::col_slice`] exposes a whole column as a
//! contiguous slice, and [`Instance::value_at`] reads a single cell without
//! materializing the row.
//!
//! Every join in the workspace — `findHom`, the chase, the edit memos and
//! the homomorphism search behind core minimization — reads through one
//! index type, [`HashIndex`] (lent out by [`Instance::with_index`]), and one
//! access rule, [`Instance::candidates`], both owned here.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use crate::error::ModelError;
use crate::schema::{RelId, Schema};
use crate::value::Value;

/// Which instance of a data-exchange pair `(I, J)` a fact belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Side {
    /// The source instance `I` (over the source schema `S`).
    Source,
    /// The target instance `J` (over the target schema `T`).
    Target,
}

/// Stable identity of a tuple within one instance: relation plus row index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId {
    /// The relation the tuple belongs to.
    pub rel: RelId,
    /// Row position within the relation (insertion order).
    pub row: u32,
}

/// Globally unique identity of a fact across a data-exchange pair `(I, J)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fact {
    /// Which instance the fact lives in.
    pub side: Side,
    /// The tuple identity within that instance.
    pub id: TupleId,
}

impl Fact {
    /// A fact in the source instance.
    pub fn source(id: TupleId) -> Self {
        Fact {
            side: Side::Source,
            id,
        }
    }

    /// A fact in the target instance.
    pub fn target(id: TupleId) -> Self {
        Fact {
            side: Side::Target,
            id,
        }
    }
}

/// A lazily built hash index over one relation: key → the rows holding it,
/// ascending. `K` is one column's [`Value`], or a column set's values as
/// `Box<[Value]>` (a composite index). The relation is append-only, so the
/// index never needs invalidation: it remembers how many rows it covers and
/// is caught up over the rows appended since on its next use.
#[derive(Debug)]
pub struct HashIndex<K> {
    map: HashMap<K, Vec<u32>>,
    /// Number of rows already indexed; rows `upto..len` are indexed on the
    /// next use.
    upto: u32,
}

impl<K: Hash + Eq> HashIndex<K> {
    /// Rows whose key equals `key`, in ascending row order. A composite
    /// index takes the values as a slice aligned with its column set.
    #[inline]
    pub fn get<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> &[u32]
    where
        K: Borrow<Q>,
    {
        self.map.get(key).map_or(&[][..], Vec::as_slice)
    }
}

/// A [`HashIndex`] key: [`Value`] for one `u32` column, `Box<[Value]>` for
/// a strictly ascending `[u32]` column set.
pub trait IndexKey: Hash + Eq + sealed::Key {}

impl IndexKey for Value {}
impl IndexKey for Box<[Value]> {}

mod sealed {
    //! What only this module needs of an [`IndexKey`](super::IndexKey).
    use super::*;

    /// One relation's lazily built indexes per column selector, each key
    /// type behind its own lock.
    #[derive(Debug, Default)]
    pub struct Indexes {
        single: Registry<Value>,
        composite: Registry<Box<[Value]>>,
    }

    pub type Registry<K> = RwLock<HashMap<<<K as Key>::Cols as ToOwned>::Owned, HashIndex<K>>>;

    pub trait Key: Sized {
        /// The column selector: `u32`, or a strictly ascending `[u32]`.
        type Cols: ?Sized + Hash + Eq + ToOwned<Owned: Hash + Eq>;
        /// The key of `row`, read from the relation's column vectors.
        fn of_row(cols: &Self::Cols, data: &[Vec<Value>], row: u32) -> Self;
        /// The relation's indexes keyed by this type.
        fn registry(indexes: &Indexes) -> &Registry<Self>;
    }

    impl Key for Value {
        type Cols = u32;
        fn of_row(col: &u32, data: &[Vec<Value>], row: u32) -> Self {
            data[*col as usize][row as usize]
        }
        fn registry(indexes: &Indexes) -> &Registry<Self> {
            &indexes.single
        }
    }

    impl Key for Box<[Value]> {
        type Cols = [u32];
        fn of_row(cols: &[u32], data: &[Vec<Value>], row: u32) -> Self {
            cols.iter()
                .map(|&c| data[c as usize][row as usize])
                .collect()
        }
        fn registry(indexes: &Indexes) -> &Registry<Self> {
            &indexes.composite
        }
    }
}

#[derive(Debug)]
struct RelData {
    arity: usize,
    /// Number of stored rows. Tracked explicitly so nullary relations (zero
    /// columns) count their single possible empty tuple like any other row.
    len: u32,
    /// Columnar tuple storage: one value vector per column, each `len` long.
    cols: Vec<Vec<Value>>,
    /// Tuple-hash → candidate rows, for duplicate elimination.
    dedup: HashMap<u64, Vec<u32>>,
    /// Lazily built single-column and composite indexes. Interior
    /// mutability lets read-only query evaluation build and extend indexes
    /// on a shared reference; an `RwLock` per key type with a
    /// double-checked build ([`Instance::with_index`]) keeps instances
    /// `Sync`.
    indexes: sealed::Indexes,
    /// Rows fed into index builds/catch-ups over this relation's lifetime.
    /// Diagnostic for the clone-laziness regression tests.
    index_rows_built: AtomicU64,
}

impl Clone for RelData {
    /// Cloning copies the data columns and dedup table but **not** the lazy
    /// indexes: the clone starts with empty index maps and rebuilds them on
    /// first probe. Deep-copying posting lists here used to make every
    /// session snapshot / edit swap pay O(index) up front even when the
    /// clone was never probed; lazy rebuild makes clone O(data) and charges
    /// index work only to clones that actually evaluate queries.
    fn clone(&self) -> Self {
        RelData {
            arity: self.arity,
            len: self.len,
            cols: self.cols.clone(),
            dedup: self.dedup.clone(),
            indexes: sealed::Indexes::default(),
            index_rows_built: AtomicU64::new(0),
        }
    }
}

impl RelData {
    fn new(arity: usize) -> Self {
        RelData {
            arity,
            len: 0,
            cols: (0..arity).map(|_| Vec::new()).collect(),
            dedup: HashMap::new(),
            indexes: sealed::Indexes::default(),
            index_rows_built: AtomicU64::new(0),
        }
    }

    fn len(&self) -> u32 {
        self.len
    }

    /// One cell, without materializing the row.
    #[inline]
    fn value(&self, row: u32, col: usize) -> Value {
        self.cols[col][row as usize]
    }

    /// Whether the stored row equals `values` pointwise (`values` must have
    /// the relation's arity). Vacuously true for nullary relations.
    fn row_eq(&self, row: u32, values: &[Value]) -> bool {
        self.cols
            .iter()
            .zip(values)
            .all(|(col, v)| col[row as usize] == *v)
    }

    fn push_row(&mut self, values: &[Value]) -> u32 {
        let row = self.len;
        for (col, v) in self.cols.iter_mut().zip(values) {
            col.push(*v);
        }
        self.len += 1;
        row
    }
}

/// Why an index lock can fail: a prober panicked while holding it.
const POISONED: &str = "an index lock holder panicked";

fn hash_tuple(values: &[Value]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    values.hash(&mut h);
    h.finish()
}

/// An instance over a fixed schema: one append-only relation store per
/// relation, with set semantics (duplicate inserts are detected and return
/// the existing row).
///
/// The instance captures the schema's arities at construction time; it does
/// not borrow the schema, so instances are freely movable and clonable.
#[derive(Debug, Clone)]
pub struct Instance {
    rels: Vec<RelData>,
}

impl Instance {
    /// Create an empty instance over the given schema.
    pub fn new(schema: &Schema) -> Self {
        Instance {
            rels: schema
                .iter()
                .map(|(_, r)| RelData::new(r.arity()))
                .collect(),
        }
    }

    fn rel(&self, rel: RelId) -> &RelData {
        &self.rels[rel.0 as usize]
    }

    /// Number of relations (as declared by the schema).
    pub fn num_relations(&self) -> usize {
        self.rels.len()
    }

    /// Declared arity of a relation.
    pub fn arity(&self, rel: RelId) -> usize {
        self.rel(rel).arity
    }

    /// Number of tuples currently stored in a relation.
    pub fn rel_len(&self, rel: RelId) -> u32 {
        self.rel(rel).len()
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.rels.iter().map(|r| r.len() as usize).sum()
    }

    /// Whether the instance contains no tuples at all.
    pub fn is_empty(&self) -> bool {
        self.total_tuples() == 0
    }

    /// Insert a tuple. Returns its [`TupleId`] and whether it was newly
    /// inserted (`false` means an identical tuple already existed and its id
    /// is returned instead).
    ///
    /// # Errors
    /// Returns [`ModelError::ArityMismatch`] if the value count does not
    /// match the relation's declared arity.
    pub fn insert(&mut self, rel: RelId, values: &[Value]) -> Result<(TupleId, bool), ModelError> {
        let rd = &mut self.rels[rel.0 as usize];
        if values.len() != rd.arity {
            return Err(ModelError::ArityMismatch {
                relation: format!("#{}", rel.0),
                expected: rd.arity,
                got: values.len(),
            });
        }
        let h = hash_tuple(values);
        if let Some(rows) = rd.dedup.get(&h) {
            for &row in rows {
                if rd.row_eq(row, values) {
                    return Ok((TupleId { rel, row }, false));
                }
            }
        }
        let row = rd.push_row(values);
        rd.dedup.entry(h).or_default().push(row);
        Ok((TupleId { rel, row }, true))
    }

    /// Insert, panicking on arity mismatch. Convenient for tests and
    /// generators where the schema is statically known.
    pub fn insert_ok(&mut self, rel: RelId, values: &[Value]) -> TupleId {
        self.insert(rel, values).unwrap_or_else(|e| panic!("{e}")).0
    }

    /// Look up the id of an existing tuple with exactly these values.
    pub fn find(&self, rel: RelId, values: &[Value]) -> Option<TupleId> {
        let rd = self.rel(rel);
        if values.len() != rd.arity {
            return None;
        }
        let h = hash_tuple(values);
        let rows = rd.dedup.get(&h)?;
        rows.iter()
            .find(|&&row| rd.row_eq(row, values))
            .map(|&row| TupleId { rel, row })
    }

    /// Whether a tuple with exactly these values exists.
    pub fn contains(&self, rel: RelId, values: &[Value]) -> bool {
        self.find(rel, values).is_some()
    }

    /// The values of a tuple, gathered from the column vectors.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn tuple(&self, id: TupleId) -> Vec<Value> {
        let rd = self.rel(id.rel);
        rd.cols.iter().map(|col| col[id.row as usize]).collect()
    }

    /// Gather a tuple's values into a reusable buffer (cleared first).
    /// Allocation-free variant of [`Instance::tuple`] for hot loops.
    pub fn tuple_into(&self, id: TupleId, buf: &mut Vec<Value>) {
        let rd = self.rel(id.rel);
        buf.clear();
        buf.extend(rd.cols.iter().map(|col| col[id.row as usize]));
    }

    /// One cell of a tuple, without materializing the row.
    ///
    /// # Panics
    /// Panics if the id or column is out of range.
    #[inline]
    pub fn value_at(&self, id: TupleId, col: usize) -> Value {
        self.rel(id.rel).value(id.row, col)
    }

    /// A whole column as a contiguous slice (the columnar layout's raison
    /// d'être: the vectorized executor scans these directly).
    pub fn col_slice(&self, rel: RelId, col: u32) -> &[Value] {
        &self.rel(rel).cols[col as usize]
    }

    /// Total rows fed into lazy index builds/catch-ups since this instance
    /// (or clone — cloning resets the counter) was created. Single-column
    /// and composite builds both count. Regression hook: cloning must not
    /// eagerly re-pay index work.
    pub fn index_build_rows(&self) -> u64 {
        self.rels
            .iter()
            .map(|r| r.index_rows_built.load(Ordering::Relaxed))
            .sum()
    }

    /// Iterate over all tuple ids of a relation, in insertion order.
    pub fn rel_rows(&self, rel: RelId) -> impl Iterator<Item = TupleId> + '_ {
        (0..self.rel_len(rel)).map(move |row| TupleId { rel, row })
    }

    /// Iterate over `(TupleId, values)` for a relation.
    pub fn rel_tuples(&self, rel: RelId) -> impl Iterator<Item = (TupleId, Vec<Value>)> + '_ {
        self.rel_rows(rel).map(move |id| (id, self.tuple(id)))
    }

    /// Iterate over every tuple id in the instance.
    pub fn all_rows(&self) -> impl Iterator<Item = TupleId> + '_ {
        (0..self.rels.len() as u32).flat_map(move |r| self.rel_rows(RelId(r)))
    }

    /// Lend the hash index of `rel` over `cols` (see [`IndexKey`]) to `f`,
    /// built or caught up first. The batch executor borrows one index per
    /// (atom, morsel) this way: one lock acquisition, no posting list copied.
    ///
    /// Double-checked publication: when the index exists and is caught up —
    /// the common case — this takes only the shared lock, once, so
    /// concurrent probes from parallel chase and `findHom` workers do not
    /// serialize. Otherwise it takes the exclusive lock, re-checks, and does
    /// the catch-up (racing builders do the work once), then runs `f` under
    /// the shared lock. The relation cannot grow while `f` runs (appends
    /// need `&mut Instance`), so the index it sees stays complete.
    pub fn with_index<K: IndexKey, R>(
        &self,
        rel: RelId,
        cols: &K::Cols,
        f: impl FnOnce(&HashIndex<K>) -> R,
    ) -> R {
        let rd = self.rel(rel);
        let registry = K::registry(&rd.indexes);
        {
            let indexes = registry.read().expect(POISONED);
            if let Some(idx) = indexes.get(cols).filter(|idx| idx.upto >= rd.len) {
                return f(idx);
            }
        }
        {
            let mut indexes = registry.write().expect(POISONED);
            let idx = indexes.entry(cols.to_owned()).or_insert_with(|| HashIndex {
                map: HashMap::new(),
                upto: 0,
            });
            if idx.upto < rd.len {
                let added = u64::from(rd.len - idx.upto);
                rd.index_rows_built.fetch_add(added, Ordering::Relaxed);
                crate::joinstats::record_hash_build(added);
                for row in idx.upto..rd.len {
                    let key = K::of_row(cols, &rd.cols, row);
                    idx.map.entry(key).or_default().push(row);
                }
                idx.upto = rd.len;
            }
        }
        let indexes = registry.read().expect(POISONED);
        f(indexes.get(cols).expect("index caught up above"))
    }

    /// Replace `out` with the candidate rows, ascending, for an atom over
    /// `rel` whose columns `bound` are fixed to the paired values (strictly
    /// ascending columns). Every row matching all of `bound` is among them.
    ///
    /// The rule, shared by every executor: probe the index of the most
    /// selective bound column (the first of equally selective ones); when at
    /// least two columns are bound and that probe would still return more
    /// than `composite_threshold` rows, probe the composite index over all
    /// of them instead (`usize::MAX` never escalates) — it pays off when no
    /// single column is selective but the combination is (e.g. TPC-H
    /// `Partsupp(partkey, suppkey)`); scan when nothing is bound.
    pub fn candidates<B>(
        &self,
        rel: RelId,
        bound: B,
        composite_threshold: usize,
        out: &mut Vec<u32>,
    ) where
        B: IntoIterator<Item = (u32, Value)> + Clone,
    {
        out.clear();
        let mut best: Option<(u32, Value, usize)> = None;
        let mut bound_cols = 0;
        for (col, value) in bound.clone() {
            bound_cols += 1;
            let len = self.with_index(rel, &col, |idx: &HashIndex<Value>| idx.get(&value).len());
            if best.is_none_or(|(_, _, blen)| len < blen) {
                best = Some((col, value, len));
            }
        }
        match best {
            Some((_, _, len)) if bound_cols >= 2 && len > composite_threshold => {
                let (cols, values): (Vec<u32>, Vec<Value>) = bound.into_iter().unzip();
                self.with_index(rel, &cols[..], |idx: &HashIndex<Box<[Value]>>| {
                    out.extend_from_slice(idx.get(&values[..]));
                });
            }
            Some((col, value, _)) => {
                self.with_index(rel, &col, |idx: &HashIndex<Value>| {
                    out.extend_from_slice(idx.get(&value));
                });
            }
            None => out.extend(0..self.rel_len(rel)),
        }
    }

    /// Build a new instance by applying `f` to every value of every tuple
    /// (re-deduplicating). Used by egd application, which replaces labeled
    /// nulls wholesale.
    ///
    /// Note: row ids are **not** preserved across this operation.
    pub fn map_values(&self, schema: &Schema, mut f: impl FnMut(Value) -> Value) -> Instance {
        let mut out = Instance::new(schema);
        let mut buf: Vec<Value> = Vec::new();
        for (rel_idx, rd) in self.rels.iter().enumerate() {
            let rel = RelId(rel_idx as u32);
            for row in 0..rd.len() {
                buf.clear();
                buf.extend((0..rd.arity).map(|c| f(rd.value(row, c))));
                out.insert(rel, &buf).expect("arity preserved by map");
            }
        }
        out
    }

    /// Approximate heap footprint of the stored tuples in bytes (column
    /// vectors plus dedup tables; lazily built indexes are *not* counted,
    /// since they are derived state). Used by the benchmark harness to
    /// report real sizes next to the paper's MB labels.
    pub fn approx_heap_bytes(&self) -> usize {
        self.rels
            .iter()
            .map(|r| {
                let data: usize = r
                    .cols
                    .iter()
                    .map(|col| col.capacity() * std::mem::size_of::<Value>())
                    .sum();
                let dedup: usize = r
                    .dedup
                    .values()
                    .map(|rows| {
                        std::mem::size_of::<u64>() + rows.capacity() * std::mem::size_of::<u32>()
                    })
                    .sum();
                data + dedup
            })
            .sum()
    }

    /// Whether `other` contains every tuple of `self` (set containment,
    /// relation by relation).
    pub fn contained_in(&self, other: &Instance) -> bool {
        let mut buf: Vec<Value> = Vec::new();
        self.rels.iter().enumerate().all(|(rel_idx, rd)| {
            let rel = RelId(rel_idx as u32);
            (0..rd.len()).all(|row| {
                buf.clear();
                buf.extend((0..rd.arity).map(|c| rd.value(row, c)));
                other.contains(rel, &buf)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValuePool;

    fn schema2() -> (Schema, RelId, RelId) {
        let mut s = Schema::new();
        let r = s.rel("R", &["a", "b"]);
        let t = s.rel("T", &["x"]);
        (s, r, t)
    }

    #[test]
    fn insert_dedups_and_preserves_ids() {
        let (s, r, _) = schema2();
        let mut inst = Instance::new(&s);
        let (id1, fresh1) = inst.insert(r, &[Value::Int(1), Value::Int(2)]).unwrap();
        let (id2, fresh2) = inst.insert(r, &[Value::Int(1), Value::Int(2)]).unwrap();
        assert!(fresh1);
        assert!(!fresh2);
        assert_eq!(id1, id2);
        assert_eq!(inst.rel_len(r), 1);
        assert_eq!(inst.tuple(id1), &[Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let (s, r, _) = schema2();
        let mut inst = Instance::new(&s);
        let err = inst.insert(r, &[Value::Int(1)]).unwrap_err();
        assert!(matches!(err, ModelError::ArityMismatch { .. }));
    }

    #[test]
    fn find_and_contains() {
        let (s, r, t) = schema2();
        let mut inst = Instance::new(&s);
        inst.insert_ok(r, &[Value::Int(1), Value::Int(2)]);
        assert!(inst.contains(r, &[Value::Int(1), Value::Int(2)]));
        assert!(!inst.contains(r, &[Value::Int(2), Value::Int(1)]));
        assert!(!inst.contains(t, &[Value::Int(1)]));
        // Wrong arity never matches.
        assert!(inst.find(r, &[Value::Int(1)]).is_none());
    }

    #[test]
    fn nullary_relations_hold_one_empty_tuple() {
        let mut s = Schema::new();
        let n = s.rel("Flag", &[]);
        let mut inst = Instance::new(&s);
        assert_eq!(inst.rel_len(n), 0);
        let (id, fresh) = inst.insert(n, &[]).unwrap();
        assert!(fresh);
        assert_eq!(inst.rel_len(n), 1);
        let (id2, fresh2) = inst.insert(n, &[]).unwrap();
        assert!(!fresh2);
        assert_eq!(id, id2);
        assert!(inst.contains(n, &[]));
        assert!(inst.tuple(id).is_empty());
    }

    #[test]
    fn columnar_accessors_agree_with_tuple() {
        let (s, r, _) = schema2();
        let mut inst = Instance::new(&s);
        for i in 0..10 {
            inst.insert_ok(r, &[Value::Int(i), Value::Int(i * 10)]);
        }
        let col0 = inst.col_slice(r, 0);
        let col1 = inst.col_slice(r, 1);
        assert_eq!(col0.len(), 10);
        let mut buf = Vec::new();
        for row in 0..10u32 {
            let id = TupleId { rel: r, row };
            let t = inst.tuple(id);
            assert_eq!(t[0], col0[row as usize]);
            assert_eq!(t[1], col1[row as usize]);
            assert_eq!(inst.value_at(id, 0), t[0]);
            assert_eq!(inst.value_at(id, 1), t[1]);
            inst.tuple_into(id, &mut buf);
            assert_eq!(buf, t);
        }
    }

    /// Rows of `rel` whose column `col` equals `value`, by the shared
    /// candidate rule (one bound column: a single-column probe).
    fn probe(inst: &Instance, rel: RelId, col: u32, value: Value) -> Vec<u32> {
        let mut out = Vec::new();
        inst.candidates(rel, [(col, value)], 0, &mut out);
        out
    }

    /// Rows of `rel` whose column set `cols` equals `values` pointwise,
    /// through the composite index.
    fn probe_composite(inst: &Instance, rel: RelId, cols: &[u32], values: &[Value]) -> Vec<u32> {
        inst.with_index(rel, cols, |idx: &HashIndex<Box<[Value]>>| {
            idx.get(values).to_vec()
        })
    }

    #[test]
    fn probe_uses_index_and_catches_up_after_inserts() {
        let (s, r, _) = schema2();
        let mut inst = Instance::new(&s);
        for i in 0..10 {
            inst.insert_ok(r, &[Value::Int(i % 3), Value::Int(i)]);
        }
        let out = probe(&inst, r, 0, Value::Int(0));
        let expected: Vec<u32> = (0..10).filter(|i| i % 3 == 0).collect();
        assert_eq!(out, expected);

        // Insert more rows after the index exists; probe must see them.
        inst.insert_ok(r, &[Value::Int(0), Value::Int(100)]);
        assert_eq!(probe(&inst, r, 0, Value::Int(0)).len(), expected.len() + 1);
        assert!(probe(&inst, r, 0, Value::Int(77)).is_empty());
    }

    #[test]
    fn composite_probe_matches_scan_and_catches_up() {
        let (s, r, _) = schema2();
        let mut inst = Instance::new(&s);
        for i in 0..30 {
            inst.insert_ok(r, &[Value::Int(i % 3), Value::Int(i % 5)]);
        }
        let out = probe_composite(&inst, r, &[0, 1], &[Value::Int(1), Value::Int(2)]);
        let expected: Vec<u32> = (0..inst.rel_len(r))
            .filter(|&row| {
                let t = inst.tuple(TupleId { rel: r, row });
                t[0] == Value::Int(1) && t[1] == Value::Int(2)
            })
            .collect();
        assert_eq!(out, expected);
        assert!(!expected.is_empty());
        // Catch-up after later inserts: a brand-new key appears in an
        // already-built index.
        let nine = [Value::Int(9), Value::Int(9)];
        assert!(probe_composite(&inst, r, &[0, 1], &nine).is_empty());
        inst.insert_ok(r, &nine);
        assert_eq!(probe_composite(&inst, r, &[0, 1], &nine).len(), 1);
        // Existing keys are unaffected.
        assert_eq!(
            probe_composite(&inst, r, &[0, 1], &[Value::Int(1), Value::Int(2)]),
            expected
        );
    }

    #[test]
    fn concurrent_probes_build_the_index_once_and_agree() {
        let (s, r, _) = schema2();
        let mut inst = Instance::new(&s);
        for i in 0..3_000 {
            inst.insert_ok(r, &[Value::Int(i % 7), Value::Int(i % 11)]);
        }
        let expected: Vec<u32> = (0..inst.rel_len(r))
            .filter(|&row| inst.value_at(TupleId { rel: r, row }, 0) == Value::Int(3))
            .collect();
        // Race eight probers against the cold index; all must see the same
        // complete row set, single-column and composite alike.
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let inst = &inst;
                let expected = &expected;
                scope.spawn(move || {
                    assert_eq!(&probe(inst, r, 0, Value::Int(3)), expected);
                    assert_eq!(
                        probe_composite(inst, r, &[0, 1], &[Value::Int(3), Value::Int(5)]).len(),
                        (0..inst.rel_len(r))
                            .filter(|&row| {
                                let t = inst.tuple(TupleId { rel: r, row });
                                t[0] == Value::Int(3) && t[1] == Value::Int(5)
                            })
                            .count()
                    );
                });
            }
        });
        // Racing builders did the single-column catch-up once, not eight
        // times (same for the composite index): each build covers exactly
        // the relation's (deduplicated) rows.
        assert_eq!(inst.index_build_rows(), 2 * u64::from(inst.rel_len(r)));
    }

    #[test]
    fn clone_does_no_index_work_until_probed() {
        let (s, r, _) = schema2();
        let mut inst = Instance::new(&s);
        for i in 0..500 {
            inst.insert_ok(r, &[Value::Int(i % 7), Value::Int(i)]);
        }
        let hits = (0..500).filter(|i| i % 7 == 3).count();
        assert_eq!(probe(&inst, r, 0, Value::Int(3)).len(), hits);
        assert_eq!(inst.index_build_rows(), 500);

        // Simulate an edit batch's snapshot churn: clone repeatedly without
        // probing. No index work may happen — the old deep-copying Clone
        // paid O(index) on every swap.
        let mut snap = inst.clone();
        for _ in 0..10 {
            snap = snap.clone();
        }
        assert_eq!(snap.index_build_rows(), 0);

        // The first probe on a clone lazily rebuilds (500 rows, once) and
        // agrees with the original.
        assert_eq!(probe(&snap, r, 0, Value::Int(3)).len(), hits);
        assert_eq!(snap.index_build_rows(), 500);
        // A second probe reuses the rebuilt index.
        let hits4 = (0..500).filter(|i| i % 7 == 4).count();
        assert_eq!(probe(&snap, r, 0, Value::Int(4)).len(), hits4);
        assert_eq!(snap.index_build_rows(), 500);
    }

    #[test]
    fn map_values_substitutes_and_dedups() {
        let mut pool = ValuePool::new();
        let (s, r, _) = schema2();
        let mut inst = Instance::new(&s);
        let n1 = pool.named_null("N1");
        let n2 = pool.named_null("N2");
        inst.insert_ok(r, &[n1, Value::Int(1)]);
        inst.insert_ok(r, &[n2, Value::Int(1)]);
        assert_eq!(inst.rel_len(r), 2);
        // Identify N1 and N2: the two tuples collapse into one.
        let mapped = inst.map_values(&s, |v| if v == n2 { n1 } else { v });
        assert_eq!(mapped.rel_len(r), 1);
        assert!(mapped.contains(r, &[n1, Value::Int(1)]));
    }

    #[test]
    fn containment() {
        let (s, r, _) = schema2();
        let mut small = Instance::new(&s);
        let mut big = Instance::new(&s);
        small.insert_ok(r, &[Value::Int(1), Value::Int(2)]);
        big.insert_ok(r, &[Value::Int(1), Value::Int(2)]);
        big.insert_ok(r, &[Value::Int(3), Value::Int(4)]);
        assert!(small.contained_in(&big));
        assert!(!big.contained_in(&small));
        assert!(Instance::new(&s).contained_in(&small));
    }

    #[test]
    fn heap_accounting_grows_with_data() {
        let (s, r, _) = schema2();
        let mut inst = Instance::new(&s);
        let empty = inst.approx_heap_bytes();
        for i in 0..1000 {
            inst.insert_ok(r, &[Value::Int(i), Value::Int(i)]);
        }
        let full = inst.approx_heap_bytes();
        assert!(full > empty);
        // At least the raw tuple payload: 1000 rows × 2 values × 16 bytes.
        assert!(full >= 1000 * 2 * std::mem::size_of::<Value>());
    }

    #[test]
    fn iteration_orders() {
        let (s, r, t) = schema2();
        let mut inst = Instance::new(&s);
        inst.insert_ok(r, &[Value::Int(1), Value::Int(2)]);
        inst.insert_ok(t, &[Value::Int(9)]);
        let all: Vec<_> = inst.all_rows().collect();
        assert_eq!(all.len(), 2);
        assert_eq!(inst.total_tuples(), 2);
        assert!(!inst.is_empty());
        let rel_tuples: Vec<_> = inst.rel_tuples(r).collect();
        assert_eq!(rel_tuples.len(), 1);
    }
}
