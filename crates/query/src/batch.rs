//! Vectorized batch join evaluation over the columnar instance store.
//!
//! [`MatchIter`](crate::MatchIter) evaluates one candidate binding at a time:
//! every join depth re-plans its access path, re-allocates its bound-column
//! list, and issues `k + 1` locked hash lookups per binding, copying each
//! posting list into a per-depth buffer. That is the right shape for
//! `ComputeOneRoute`, which wants the *first* match as lazily as possible —
//! but the chase saturation loop and wave-parallel `computeAllRoutes` drain
//! entire match sets, where per-binding overhead dominates.
//!
//! This module evaluates a whole *batch* of candidate bindings at once,
//! amortizing everything the lazy iterator pays per binding:
//!
//! - **Compiled stages.** The pipeline classifies each planned atom against
//!   the bound-variable set *once* (`compile`): key columns, residual
//!   checks, output layout, and the access path are all fixed before the
//!   first row flows. Morsels reuse per-depth output buffers, so the steady
//!   state allocates nothing.
//! - **Pinned indexes.** Each stage pins its hash index for a whole morsel
//!   ([`Instance::with_col_probe`]): one lock acquisition per morsel instead
//!   of one per row, and probes return posting lists by reference instead of
//!   copying them.
//! - **Duplicate-key memo.** Consecutive input rows with equal probe keys
//!   reuse the previous posting list without re-hashing — many-to-one joins
//!   emit long runs of equal keys, so this removes most probes outright.
//! - **Check elision.** A probed column is equal to its key by construction,
//!   so its re-check is dropped at compile time; a new variable occurring
//!   once needs no gather slot and is copied straight from the column slice.
//!   After elision a pure equijoin extension runs zero per-candidate
//!   comparisons — the inner loop is columnar reads and appends.
//!
//! **Order preservation is load-bearing.** The parallel chase's determinism
//! proof and the incremental memo contract both key on the plan-ordered match
//! sequence, so the batch pipeline must enumerate matches in exactly the
//! order the lazy iterator does. The argument:
//!
//! 1. At each depth, `MatchIter` visits the ascending sequence of rows that
//!    satisfy every bound column of the atom (posting lists are built by
//!    walking rows in order and caught up append-only, so they are ascending;
//!    scans are ascending; a probe-then-filter path visits an ascending
//!    subset). The surviving rows are therefore *the same ascending set no
//!    matter which access path produced the candidates*. Pinning an index
//!    returns the same posting lists the per-row probes would have copied;
//!    the duplicate-key memo reuses a list identical to what a fresh probe
//!    would return; and every check elided at compile time is one the probe
//!    already guarantees — so none of the amortizations can change the
//!    surviving set.
//! 2. Each stage processes input rows in batch order and appends each input
//!    row's surviving candidates in ascending row order, so the output batch
//!    is the concatenation of per-input DFS sequences.
//! 3. The driver recurses over output morsels in order, so chunking never
//!    reorders — exactly the argument [`AnchoredPlan`](crate::AnchoredPlan)
//!    makes for row-parallel chunking.
//!
//! By induction over depths, emitting the final batch in order reproduces the
//! lazy iterator's match sequence byte for byte. The differential fuzz gate
//! (`crates/query/tests/fuzz_differential.rs`) checks this on random
//! scenarios against both `MatchIter` and the naive reference evaluator.

use std::ops::Range;

use routes_model::{joinstats, Atom, Instance, Term, Value, Var};

use crate::bindings::Bindings;
use crate::eval::EvalOptions;
use crate::plan::plan;

/// Tuning for the batch pipeline.
#[derive(Debug, Clone, Copy)]
pub struct BatchOptions {
    /// Access-path tuning shared with the row-at-a-time executor.
    pub eval: EvalOptions,
    /// Maximum rows per intermediate morsel: after each extension the output
    /// batch is processed in chunks of this many rows, bounding intermediate
    /// memory to `batch_size × max fan-out` per depth.
    pub batch_size: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            eval: EvalOptions::default(),
            batch_size: 1024,
        }
    }
}

/// Where an atom column's probe-key value comes from, for columns bound
/// before the atom runs. `In(i)` reads column `i` of the input batch.
#[derive(Debug, Clone, Copy)]
enum Key {
    Const(Value),
    In(usize),
}

/// Per-column action when testing a candidate tuple against one input row.
/// Checks the access path already guarantees are elided at compile time.
#[derive(Debug, Clone, Copy)]
enum ColCheck {
    /// Column must equal a constant term.
    Const(Value),
    /// Column must equal input-batch column `i` of the current row.
    In(usize),
    /// First occurrence of a repeated new variable: gather into slot `g`.
    Gather(usize),
    /// Repeated occurrence of a new variable: must equal gathered slot `g`.
    EqualNew(usize),
}

/// Where each output column's value comes from when a candidate survives.
#[derive(Debug, Clone, Copy)]
enum OutSrc {
    /// Copy input-batch column `i` of the current row.
    In(usize),
    /// Read gathered slot `g` (repeated new variables only).
    New(usize),
    /// Read the candidate tuple's column directly (new variables that occur
    /// once — no gather slot needed).
    NewCol(u32),
}

/// Access path of one compiled stage, fixed for the whole pipeline. The
/// probe columns live in [`Stage::key_cols`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    /// No bound columns: candidates are the full relation, shared by every
    /// input row.
    Scan,
    /// One bound column: pin its single-column index.
    Single,
    /// Several bound columns: pin the composite index over all of them.
    Composite,
    /// `composite_threshold == usize::MAX` ablation baseline: per-row
    /// most-selective single-column probe with full re-checks, matching the
    /// row-at-a-time executor with composite indexes disabled.
    Ablation,
}

/// One compiled join depth: an atom classified against the bound-variable
/// set flowing into it, plus reusable scratch. Built once per pipeline by
/// [`compile`]; every morsel at this depth reuses it.
struct Stage<'a> {
    atom: &'a Atom,
    /// The atom relation's column slices (the columnar layout's payoff:
    /// candidate values are read straight from these).
    rel_cols: Vec<&'a [Value]>,
    access: Access,
    /// Probe columns, strictly ascending, aligned with `keys`.
    key_cols: Vec<u32>,
    keys: Vec<Key>,
    /// Residual per-candidate checks, probe-guaranteed columns elided.
    checks: Vec<(u32, ColCheck)>,
    out_srcs: Vec<OutSrc>,
    /// The sorted bound-variable set flowing out of this stage.
    out_bound: Vec<Var>,
    /// Scratch: composite/ablation key under construction, the previous
    /// row's key (duplicate-key memo), gathered values of repeated new
    /// variables, and the ablation path's candidate buffer.
    key_vals: Vec<Value>,
    prev_key: Vec<Value>,
    new_vals: Vec<Value>,
    cand: Vec<u32>,
}

/// Classify `order` (indices into `atoms`) against the evolving bound set,
/// producing one reusable [`Stage`] per depth.
fn compile<'a>(
    inst: &'a Instance,
    atoms: &'a [Atom],
    order: &[usize],
    seed_bound: &[Var],
    composite_threshold: usize,
) -> Vec<Stage<'a>> {
    let mut bound: Vec<Var> = seed_bound.to_vec();
    debug_assert!(bound.windows(2).all(|w| w[0] < w[1]));
    let mut stages = Vec::with_capacity(order.len());
    for &ai in order {
        let atom = &atoms[ai];
        let mut key_cols: Vec<u32> = Vec::new();
        let mut keys: Vec<Key> = Vec::new();
        let mut checks: Vec<(u32, ColCheck)> = Vec::new();
        // (first-occurrence column, referenced by an EqualNew) per new var.
        let mut new_vars: Vec<(Var, u32, bool)> = Vec::new();
        for (col, term) in atom.terms.iter().enumerate() {
            let col = col as u32;
            match term {
                Term::Const(c) => {
                    key_cols.push(col);
                    keys.push(Key::Const(*c));
                    checks.push((col, ColCheck::Const(*c)));
                }
                Term::Var(v) => {
                    if let Ok(pos) = bound.binary_search(v) {
                        key_cols.push(col);
                        keys.push(Key::In(pos));
                        checks.push((col, ColCheck::In(pos)));
                    } else if let Some(g) = new_vars.iter().position(|(nv, _, _)| nv == v) {
                        new_vars[g].2 = true;
                        checks.push((col, ColCheck::EqualNew(g)));
                    } else {
                        checks.push((col, ColCheck::Gather(new_vars.len())));
                        new_vars.push((*v, col, false));
                    }
                }
            }
        }
        let access = if keys.is_empty() {
            Access::Scan
        } else if keys.len() == 1 {
            Access::Single
        } else if composite_threshold != usize::MAX {
            Access::Composite
        } else {
            Access::Ablation
        };
        // Elide the re-checks the access path guarantees: a probed column
        // equals its key by construction, so dropping its check cannot
        // change the surviving candidate set (the order-preservation
        // argument in the module docs). The ablation path probes a
        // different column per row, so it keeps every check.
        match access {
            Access::Single => {
                let probed = key_cols[0];
                checks.retain(|&(col, _)| col != probed);
            }
            Access::Composite => {
                checks.retain(|&(_, ch)| matches!(ch, ColCheck::Gather(_) | ColCheck::EqualNew(_)))
            }
            Access::Scan | Access::Ablation => {}
        }
        // A new variable that occurs once needs no gather slot: its value is
        // read straight from the candidate's column at emit time.
        checks.retain(|&(_, ch)| match ch {
            ColCheck::Gather(g) => new_vars[g].2,
            _ => true,
        });

        let mut out_bound = bound.clone();
        out_bound.extend(new_vars.iter().map(|&(v, _, _)| v));
        out_bound.sort_unstable();
        out_bound.dedup();
        let out_srcs: Vec<OutSrc> = out_bound
            .iter()
            .map(|v| match bound.binary_search(v) {
                Ok(pos) => OutSrc::In(pos),
                Err(_) => {
                    let g = new_vars
                        .iter()
                        .position(|(nv, _, _)| nv == v)
                        .expect("output var is input-bound or new");
                    if new_vars[g].2 {
                        OutSrc::New(g)
                    } else {
                        OutSrc::NewCol(new_vars[g].1)
                    }
                }
            })
            .collect();
        let rel_cols: Vec<&[Value]> = (0..atom.terms.len() as u32)
            .map(|c| inst.col_slice(atom.rel, c))
            .collect();
        let nkeys = keys.len();
        stages.push(Stage {
            atom,
            rel_cols,
            access,
            key_cols,
            keys,
            checks,
            out_srcs,
            out_bound: out_bound.clone(),
            key_vals: Vec::with_capacity(nkeys),
            prev_key: Vec::with_capacity(nkeys),
            new_vals: vec![Value::Int(0); new_vars.len()],
            cand: Vec::new(),
        });
        bound = out_bound;
    }
    stages
}

/// Test `cands` against one input row's checks, appending survivors to
/// `out`. The innermost loop of the executor: after compile-time elision the
/// common equijoin case runs zero comparisons here — just columnar reads and
/// appends.
#[inline]
#[allow(clippy::too_many_arguments)]
fn emit_row(
    rel_cols: &[&[Value]],
    checks: &[(u32, ColCheck)],
    out_srcs: &[OutSrc],
    new_vals: &mut [Value],
    input: &BindingBatch,
    row: usize,
    cands: impl Iterator<Item = u32>,
    out: &mut BindingBatch,
) {
    'cand: for r in cands {
        let r = r as usize;
        for &(col, check) in checks {
            let actual = rel_cols[col as usize][r];
            let ok = match check {
                ColCheck::Const(c) => actual == c,
                ColCheck::In(pos) => actual == input.cols[pos][row],
                ColCheck::Gather(g) => {
                    new_vals[g] = actual;
                    true
                }
                ColCheck::EqualNew(g) => actual == new_vals[g],
            };
            if !ok {
                continue 'cand;
            }
        }
        out.len += 1;
        for (dst, src) in out.cols.iter_mut().zip(out_srcs) {
            dst.push(match *src {
                OutSrc::In(pos) => input.cols[pos][row],
                OutSrc::New(g) => new_vals[g],
                OutSrc::NewCol(col) => rel_cols[col as usize][r],
            });
        }
    }
}

impl<'a> Stage<'a> {
    /// Push rows `range` of `input` through this stage into `out` (cleared
    /// first). Output rows appear in (input row, candidate row) order — the
    /// order-preservation invariant the module docs argue from.
    fn extend(
        &mut self,
        inst: &Instance,
        input: &BindingBatch,
        range: Range<usize>,
        out: &mut BindingBatch,
    ) {
        debug_assert_eq!(out.bound, self.out_bound);
        out.clear();
        let Stage {
            atom,
            rel_cols,
            access,
            key_cols,
            keys,
            checks,
            out_srcs,
            key_vals,
            prev_key,
            new_vals,
            cand,
            out_bound: _,
        } = self;
        let mut rows_probed: u64 = 0;
        let mut index_probes: u64 = 0;
        match *access {
            Access::Scan => {
                let len = inst.rel_len(atom.rel);
                rows_probed += u64::from(len) * range.len() as u64;
                for row in range {
                    emit_row(
                        rel_cols,
                        checks,
                        out_srcs,
                        new_vals,
                        input,
                        row,
                        0..len,
                        out,
                    );
                }
            }
            Access::Single => {
                let key0 = keys[0];
                inst.with_col_probe(atom.rel, key_cols[0], |p| {
                    let mut prev: Option<Value> = None;
                    let mut cands: &[u32] = &[];
                    for row in range {
                        let key = match key0 {
                            Key::Const(c) => c,
                            Key::In(pos) => input.cols[pos][row],
                        };
                        if prev != Some(key) {
                            index_probes += 1;
                            cands = p.probe(key);
                            prev = Some(key);
                        }
                        rows_probed += cands.len() as u64;
                        emit_row(
                            rel_cols,
                            checks,
                            out_srcs,
                            new_vals,
                            input,
                            row,
                            cands.iter().copied(),
                            out,
                        );
                    }
                });
            }
            Access::Composite => {
                inst.with_multi_probe(atom.rel, key_cols, |p| {
                    let mut have_prev = false;
                    let mut cands: &[u32] = &[];
                    for row in range {
                        key_vals.clear();
                        key_vals.extend(keys.iter().map(|&k| match k {
                            Key::Const(c) => c,
                            Key::In(pos) => input.cols[pos][row],
                        }));
                        if !have_prev || key_vals != prev_key {
                            index_probes += 1;
                            cands = p.probe(key_vals);
                            std::mem::swap(prev_key, key_vals);
                            have_prev = true;
                        }
                        rows_probed += cands.len() as u64;
                        emit_row(
                            rel_cols,
                            checks,
                            out_srcs,
                            new_vals,
                            input,
                            row,
                            cands.iter().copied(),
                            out,
                        );
                    }
                });
            }
            Access::Ablation => {
                let mut have_prev = false;
                for row in range {
                    key_vals.clear();
                    key_vals.extend(keys.iter().map(|&k| match k {
                        Key::Const(c) => c,
                        Key::In(pos) => input.cols[pos][row],
                    }));
                    if !have_prev || key_vals != prev_key {
                        // No composite indexes: probe the most selective
                        // single column and filter, exactly like the
                        // row-at-a-time executor with the threshold
                        // disabled.
                        let mut best: Option<(u32, Value, usize)> = None;
                        for (&col, &value) in key_cols.iter().zip(key_vals.iter()) {
                            index_probes += 1;
                            let len = inst.probe_len(atom.rel, col, value);
                            if best.is_none_or(|(_, _, blen)| len < blen) {
                                best = Some((col, value, len));
                            }
                        }
                        let (col, value, _) = best.expect("keys is non-empty");
                        index_probes += 1;
                        cand.clear();
                        inst.probe_into(atom.rel, col, value, cand);
                        std::mem::swap(prev_key, key_vals);
                        have_prev = true;
                    }
                    rows_probed += cand.len() as u64;
                    emit_row(
                        rel_cols,
                        checks,
                        out_srcs,
                        new_vals,
                        input,
                        row,
                        cand.iter().copied(),
                        out,
                    );
                }
            }
        }
        joinstats::record_batch();
        joinstats::record_rows_probed(rows_probed);
        joinstats::record_index_probes(index_probes);
    }
}

/// A batch of partial variable assignments, stored columnarly.
///
/// Every binding in a batch has the *same* bound-variable set (`bound`,
/// sorted); the values live in one vector per bound variable. This is the
/// unit the vectorized executor pushes through an atom sequence.
#[derive(Debug, Clone)]
pub struct BindingBatch {
    /// Variable-space capacity of the bindings this batch represents
    /// (mirrors [`Bindings::capacity`], so emitted bindings compare equal to
    /// the lazy executor's).
    var_space: usize,
    /// The bound variables, sorted ascending.
    bound: Vec<Var>,
    /// One value vector per bound variable, each `len` long.
    cols: Vec<Vec<Value>>,
    len: usize,
}

impl BindingBatch {
    /// An empty batch whose bindings will bind exactly `bound` (deduplicated
    /// and sorted internally) within a variable space of `var_space`.
    pub fn new(var_space: usize, bound: impl IntoIterator<Item = Var>) -> Self {
        let mut bound: Vec<Var> = bound.into_iter().collect();
        bound.sort_unstable();
        bound.dedup();
        let cols = bound.iter().map(|_| Vec::new()).collect();
        BindingBatch {
            var_space,
            bound,
            cols,
            len: 0,
        }
    }

    /// A one-row batch holding `init`'s bindings; the batch's variable space
    /// is `init.capacity()`.
    pub fn seed(init: &Bindings) -> Self {
        let mut batch = BindingBatch::new(init.capacity(), init.iter().map(|(v, _)| v));
        batch.push_binding(init);
        batch
    }

    /// Append one binding. The binding must bind exactly this batch's bound
    /// set (checked in debug builds).
    pub fn push_binding(&mut self, b: &Bindings) {
        debug_assert_eq!(
            b.bound_count(),
            self.bound.len(),
            "binding bound set must match the batch layout"
        );
        for (col, &v) in self.cols.iter_mut().zip(&self.bound) {
            col.push(b.get(v).expect("binding must bind the batch's bound set"));
        }
        self.len += 1;
    }

    /// Number of bindings in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no bindings.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sorted bound-variable set shared by every binding in the batch.
    pub fn bound_vars(&self) -> &[Var] {
        &self.bound
    }

    /// Variable-space capacity of emitted bindings.
    pub fn var_space(&self) -> usize {
        self.var_space
    }

    /// Drop all rows, keeping the layout and the columns' capacity (the
    /// per-depth buffer reuse the driver depends on).
    fn clear(&mut self) {
        for col in &mut self.cols {
            col.clear();
        }
        self.len = 0;
    }

    /// Materialize row `row` as a [`Bindings`] (capacity `var_space`),
    /// byte-identical to what the lazy executor would yield.
    pub fn to_bindings(&self, row: usize) -> Bindings {
        let mut b = Bindings::new(self.var_space);
        for (col, &v) in self.cols.iter().zip(&self.bound) {
            b.set(v, col[row]);
        }
        b
    }

    /// Row `row` as a dense total assignment, or `None` if the batch does
    /// not bind the full variable space. (`bound` is sorted and unique, so
    /// covering `var_space` variables means binding exactly
    /// `Var(0)..Var(var_space)`.)
    pub fn total(&self, row: usize) -> Option<Vec<Value>> {
        if self.bound.len() != self.var_space {
            return None;
        }
        Some(self.cols.iter().map(|col| col[row]).collect())
    }

    /// Append rows `range` of `other`, which must have the same layout.
    pub fn append_range(&mut self, other: &BindingBatch, range: Range<usize>) {
        debug_assert_eq!(self.bound, other.bound);
        debug_assert_eq!(self.var_space, other.var_space);
        self.len += range.len();
        for (dst, src) in self.cols.iter_mut().zip(&other.cols) {
            dst.extend_from_slice(&src[range.clone()]);
        }
    }

    /// Push rows `[range]` of the batch through `atom`, returning the
    /// extended batch (input bound set plus the atom's new variables).
    ///
    /// One-stage convenience over the compiled pipeline; output rows appear
    /// in (input row, candidate row) order. Access path: probe the single
    /// bound column when there is one, a composite index over all bound
    /// columns when there are several (unless `composite_threshold` is
    /// `usize::MAX`, the ablation baseline, which falls back to the most
    /// selective single-column probe with full re-checks).
    pub fn extend_atom(
        &self,
        inst: &Instance,
        atom: &Atom,
        range: Range<usize>,
        options: EvalOptions,
    ) -> BindingBatch {
        let atoms = std::slice::from_ref(atom);
        let mut stages = compile(inst, atoms, &[0], &self.bound, options.composite_threshold);
        let stage = &mut stages[0];
        let mut out = BindingBatch::new(self.var_space, stage.out_bound.iter().copied());
        stage.extend(inst, self, range, &mut out);
        out
    }
}

/// The sorted bound-variable set after evaluating `order` starting from
/// `seed_bound`: what the final batch of the pipeline will bind.
fn final_bound(seed_bound: &[Var], atoms: &[Atom], order: &[usize]) -> Vec<Var> {
    let mut bound: Vec<Var> = seed_bound.to_vec();
    for &ai in order {
        bound.extend(atoms[ai].vars());
    }
    bound.sort_unstable();
    bound.dedup();
    bound
}

/// Recursive morsel driver: extend the input through the compiled stages,
/// chunking each intermediate result into `step`-row morsels processed in
/// order. `bufs` holds one reusable output batch per stage.
fn drive(
    inst: &Instance,
    stages: &mut [Stage],
    bufs: &mut [BindingBatch],
    input: &BindingBatch,
    range: Range<usize>,
    step: usize,
    sink: &mut dyn FnMut(&BindingBatch, Range<usize>),
) {
    let Some((stage, rest_stages)) = stages.split_first_mut() else {
        sink(input, range);
        return;
    };
    let (out, rest_bufs) = bufs.split_first_mut().expect("one buffer per stage");
    stage.extend(inst, input, range, out);
    let out: &BindingBatch = out;
    let mut start = 0;
    while start < out.len() {
        let end = (start + step).min(out.len());
        drive(inst, rest_stages, rest_bufs, out, start..end, step, sink);
        start = end;
    }
}

fn drive_all(
    inst: &Instance,
    atoms: &[Atom],
    order: &[usize],
    seeds: &BindingBatch,
    opts: &BatchOptions,
    sink: &mut dyn FnMut(&BindingBatch, Range<usize>),
) {
    assert!(
        seeds.var_space() >= routes_model::atom::var_space(atoms),
        "batch covers {} variables but atoms use {}",
        seeds.var_space(),
        routes_model::atom::var_space(atoms)
    );
    debug_assert!(order.iter().all(|&ai| ai < atoms.len()));
    let mut stages = compile(
        inst,
        atoms,
        order,
        seeds.bound_vars(),
        opts.eval.composite_threshold,
    );
    let mut bufs: Vec<BindingBatch> = stages
        .iter()
        .map(|s| BindingBatch::new(seeds.var_space(), s.out_bound.iter().copied()))
        .collect();
    let step = opts.batch_size.max(1);
    let mut start = 0;
    while start < seeds.len() {
        let end = (start + step).min(seeds.len());
        drive(inst, &mut stages, &mut bufs, seeds, start..end, step, sink);
        start = end;
    }
}

/// Evaluate `order` (indices into `atoms`) over every seed binding in
/// `seeds`, appending each total match to `out` as a [`Bindings`].
///
/// The output sequence equals running
/// [`MatchIter::with_plan`](crate::MatchIter::with_plan) on each seed in
/// batch order and concatenating the per-seed match sequences.
pub fn batch_matches_with_plan_into(
    inst: &Instance,
    atoms: &[Atom],
    order: &[usize],
    seeds: &BindingBatch,
    opts: &BatchOptions,
    out: &mut Vec<Bindings>,
) {
    drive_all(inst, atoms, order, seeds, opts, &mut |batch, range| {
        out.extend(range.map(|row| batch.to_bindings(row)));
    });
}

/// Like [`batch_matches_with_plan_into`] but returning the matches as one
/// concatenated [`BindingBatch`], for pipelines that feed the result into a
/// further batch stage (`findHom` chains the tgd's LHS into its RHS this
/// way).
pub fn batch_matches_with_plan(
    inst: &Instance,
    atoms: &[Atom],
    order: &[usize],
    seeds: &BindingBatch,
    opts: &BatchOptions,
) -> BindingBatch {
    let mut out = BindingBatch::new(
        seeds.var_space(),
        final_bound(seeds.bound_vars(), atoms, order),
    );
    drive_all(inst, atoms, order, seeds, opts, &mut |batch, range| {
        out.append_range(batch, range);
    });
    out
}

/// All matches of `atoms` against `inst` extending `init`, evaluated through
/// the batch pipeline. Plans with [`plan`], so the result sequence is
/// byte-identical to [`all_matches`](crate::all_matches).
pub fn batch_all_matches(
    inst: &Instance,
    atoms: &[Atom],
    init: &Bindings,
    opts: &BatchOptions,
) -> Vec<Bindings> {
    let order = plan(inst, atoms, init);
    let seeds = BindingBatch::seed(init);
    let mut out = Vec::new();
    batch_matches_with_plan_into(inst, atoms, &order, &seeds, opts, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::all_matches;
    use routes_model::{RelId, Schema};

    fn term_v(i: u32) -> Term {
        Term::Var(Var(i))
    }

    fn setup() -> (Schema, Instance, RelId, RelId) {
        let mut s = Schema::new();
        let e = s.rel("E", &["src", "dst"]);
        let l = s.rel("L", &["node"]);
        let mut inst = Instance::new(&s);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (0, 2), (3, 1), (2, 1)] {
            inst.insert_ok(e, &[Value::Int(a), Value::Int(b)]);
        }
        for n in [1, 2, 3] {
            inst.insert_ok(l, &[Value::Int(n)]);
        }
        (s, inst, e, l)
    }

    fn assert_batch_equals_lazy(
        inst: &Instance,
        atoms: &[Atom],
        init: &Bindings,
        opts: &BatchOptions,
    ) {
        let lazy = all_matches(inst, atoms, init.clone());
        let batched = batch_all_matches(inst, atoms, init, opts);
        assert_eq!(lazy, batched, "atoms: {atoms:?} opts: {opts:?}");
    }

    #[test]
    fn batch_matches_lazy_across_shapes_sizes_and_thresholds() {
        let (_, inst, e, l) = setup();
        let term_c = |k: i64| Term::Const(Value::Int(k));
        let conjunctions: Vec<Vec<Atom>> = vec![
            vec![Atom::new(e, vec![term_v(0), term_v(1)])],
            vec![
                Atom::new(e, vec![term_v(0), term_v(1)]),
                Atom::new(e, vec![term_v(1), term_v(2)]),
            ],
            vec![
                Atom::new(e, vec![term_v(0), term_v(1)]),
                Atom::new(l, vec![term_v(0)]),
            ],
            vec![
                Atom::new(e, vec![term_c(0), term_v(0)]),
                Atom::new(e, vec![term_v(0), term_v(1)]),
                Atom::new(l, vec![term_v(1)]),
            ],
            // Repeated variable within an atom, both bound and unbound.
            vec![Atom::new(e, vec![term_v(0), term_v(0)])],
            vec![
                Atom::new(l, vec![term_v(0)]),
                Atom::new(e, vec![term_v(0), term_v(0)]),
            ],
            // Triangles.
            vec![
                Atom::new(e, vec![term_v(0), term_v(1)]),
                Atom::new(e, vec![term_v(1), term_v(2)]),
                Atom::new(e, vec![term_v(2), term_v(0)]),
            ],
        ];
        for atoms in &conjunctions {
            let vars = routes_model::atom::var_space(atoms);
            for batch_size in [1, 3, 1024] {
                for threshold in [0, 64, usize::MAX] {
                    let opts = BatchOptions {
                        eval: EvalOptions {
                            composite_threshold: threshold,
                        },
                        batch_size,
                    };
                    assert_batch_equals_lazy(&inst, atoms, &Bindings::new(vars), &opts);
                }
            }
        }
    }

    #[test]
    fn batch_respects_initial_bindings() {
        let (_, inst, e, _) = setup();
        let atoms = vec![
            Atom::new(e, vec![term_v(0), term_v(1)]),
            Atom::new(e, vec![term_v(1), term_v(2)]),
        ];
        let mut init = Bindings::new(3);
        init.set(Var(0), Value::Int(0));
        assert_batch_equals_lazy(&inst, &atoms, &init, &BatchOptions::default());
    }

    #[test]
    fn empty_conjunction_has_one_match() {
        let (_, inst, _, _) = setup();
        let out = batch_all_matches(&inst, &[], &Bindings::new(0), &BatchOptions::default());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], Bindings::new(0));
    }

    #[test]
    fn multi_seed_batch_concatenates_per_seed_sequences() {
        let (_, inst, e, _) = setup();
        let atoms = vec![
            Atom::new(e, vec![term_v(0), term_v(1)]),
            Atom::new(e, vec![term_v(1), term_v(2)]),
        ];
        // Seeds: x = 3, 0, 2 (in that order — output must follow seed order).
        let mut seeds = BindingBatch::new(3, [Var(0)]);
        let mut expected = Vec::new();
        for x in [3, 0, 2] {
            let mut init = Bindings::new(3);
            init.set(Var(0), Value::Int(x));
            seeds.push_binding(&init);
            // Match the fixed-plan evaluation the batch uses: order planned
            // once from the shared bound set.
            expected.extend(all_matches(&inst, &atoms, init));
        }
        let order = crate::plan::plan_with_bound(&inst, &atoms, seeds.bound_vars().to_vec());
        for batch_size in [1, 2, 1024] {
            let opts = BatchOptions {
                batch_size,
                ..BatchOptions::default()
            };
            let mut got = Vec::new();
            batch_matches_with_plan_into(&inst, &atoms, &order, &seeds, &opts, &mut got);
            assert_eq!(got, expected, "batch_size: {batch_size}");
        }
    }

    #[test]
    fn batch_collect_returns_total_rows_for_full_var_space() {
        let (_, inst, e, _) = setup();
        let atoms = vec![
            Atom::new(e, vec![term_v(0), term_v(1)]),
            Atom::new(e, vec![term_v(1), term_v(2)]),
        ];
        let init = Bindings::new(3);
        let order = plan(&inst, &atoms, &init);
        let seeds = BindingBatch::seed(&init);
        let result =
            batch_matches_with_plan(&inst, &atoms, &order, &seeds, &BatchOptions::default());
        let lazy = all_matches(&inst, &atoms, init);
        assert_eq!(result.len(), lazy.len());
        for (row, b) in lazy.iter().enumerate() {
            assert_eq!(result.to_bindings(row), *b);
            assert_eq!(result.total(row), b.to_total());
        }
    }

    #[test]
    fn extend_reports_join_stats() {
        let (_, inst, e, _) = setup();
        let atoms = [Atom::new(e, vec![term_v(0), term_v(1)])];
        let before = joinstats::snapshot();
        let seeds = BindingBatch::seed(&Bindings::new(2));
        let out = seeds.extend_atom(&inst, &atoms[0], 0..1, EvalOptions::default());
        assert_eq!(out.len() as u32, inst.rel_len(e));
        let after = joinstats::snapshot();
        assert!(after.batches > before.batches);
        assert!(after.rows_probed >= before.rows_probed + u64::from(inst.rel_len(e)));
    }
}
