//! The chase engine.

use std::collections::HashMap;
use std::time::Instant;

use routes_mapping::{SchemaMapping, Tgd};
use routes_model::{Instance, TupleId, Value, ValuePool, Var};
use routes_pool::Pool;
use routes_query::{
    anchored_plan, batch_all_matches, batch_matches_with_plan_into, plan_with_bound, satisfiable,
    unify_atom, BatchOptions, BindingBatch, Bindings,
};

use crate::egd_log::{EgdLog, EgdMerge};
use crate::result::{ChaseError, ChaseResult, TgdStats};
use crate::unify::ValueUnifier;

/// How existential variables receive values when a tgd fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NullMode {
    /// Standard chase: fire only when the RHS is not already satisfiable for
    /// the universal binding, inventing fresh labeled nulls. Produces a
    /// universal solution when it terminates.
    Fresh,
    /// Skolemized (oblivious) chase: every match fires, and each existential
    /// variable receives a deterministic null keyed by the tgd and the
    /// universal binding. Idempotent; models Clio-generated transforms.
    Skolem,
}

/// Chase configuration.
#[derive(Debug, Clone, Copy)]
pub struct ChaseOptions {
    /// Existential-value policy.
    pub null_mode: NullMode,
    /// Maximum number of tgd rounds before giving up (non-terminating
    /// dependency sets exist; this is the guard).
    pub max_rounds: usize,
    /// Maximum number of target tuples to create.
    pub max_tuples: usize,
}

impl Default for ChaseOptions {
    fn default() -> Self {
        ChaseOptions {
            null_mode: NullMode::Fresh,
            max_rounds: 10_000,
            max_tuples: 100_000_000,
        }
    }
}

impl ChaseOptions {
    /// Standard-chase options.
    pub fn fresh() -> Self {
        Self::default()
    }

    /// Skolemized-chase options.
    pub fn skolem() -> Self {
        ChaseOptions {
            null_mode: NullMode::Skolem,
            ..Self::default()
        }
    }
}

/// Key identifying a Skolem term: which tgd, which existential variable,
/// and the values of the tgd's universal variables (in variable order).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SkolemKey {
    st: bool,
    tgd: u32,
    var: u32,
    args: Vec<Value>,
}

/// Minimum number of anchor rows (or delta tuples) per worker chunk; below
/// this the fan-out overhead outweighs the matching work and evaluation
/// stays on the calling thread.
const PAR_MIN_CHUNK: usize = 32;

struct Engine<'a> {
    mapping: &'a SchemaMapping,
    source: &'a Instance,
    values: &'a mut ValuePool,
    workers: &'a Pool,
    options: ChaseOptions,
    target: Instance,
    skolem: HashMap<SkolemKey, Value>,
    tuples_created: usize,
    rounds: usize,
    egd_rewrites: usize,
    egd_log: EgdLog,
    /// Caller-supplied s-t match lists (one per s-t tgd, in
    /// [`lhs_matches`] order). When set, the source joins are skipped
    /// entirely and these bindings fire instead.
    st_matches: Option<&'a [Vec<Bindings>]>,
    /// Per-dependency attribution accumulators: s-t tgds first, then
    /// target tgds, in mapping order.
    tgd_stats: Vec<TgdStats>,
}

/// All matches of `tgd`'s premise over `inst`, in the sequential
/// iterator's order at every worker count — the chase's s-t pass. The join
/// is planned once, the outer atom's candidate rows are partitioned across
/// `workers`, and the per-chunk matches are concatenated in chunk order (see
/// [`routes_query::AnchoredPlan`]), so the order is lexicographic over the
/// plan-ordered row vectors: the property `routes-incr`'s memos rely on.
///
/// Within a chunk, the anchored rows seed a columnar [`BindingBatch`] and
/// the vectorized batch executor evaluates the suffix, yielding the match
/// sequence of draining a [`MatchIter`](routes_query::MatchIter) per row
/// (the order argument lives in `routes_query::batch`).
pub fn lhs_matches(inst: &Instance, tgd: &Tgd, workers: &Pool) -> Vec<Bindings> {
    let init = Bindings::new(tgd.var_count());
    let Some(ap) = anchored_plan(inst, tgd.lhs(), &init) else {
        // Unreachable: tgd LHSes are non-empty by construction.
        return vec![init];
    };
    let anchor = &tgd.lhs()[ap.outer];
    let opts = BatchOptions::default();
    let chunks = workers.par_map_chunks(ap.rows.len(), PAR_MIN_CHUNK, |_, range| {
        let mut seeds = BindingBatch::new(init.capacity(), anchor.vars());
        for &row in &ap.rows[range] {
            let mut b = init.clone();
            if unify_atom(
                anchor,
                &inst.tuple(TupleId {
                    rel: anchor.rel,
                    row,
                }),
                &mut b,
            ) {
                seeds.push_binding(&b);
            }
        }
        let mut local: Vec<Bindings> = Vec::new();
        batch_matches_with_plan_into(inst, tgd.lhs(), &ap.suffix, &seeds, &opts, &mut local);
        local
    });
    chunks.into_iter().flatten().collect()
}

/// The matches of `tgd`'s premise over `inst` that use at least one tuple
/// of `delta`, each exactly once, sorted by binding — the semi-naive delta
/// join of the chase's target-tgd rounds.
///
/// Each delta tuple anchors every premise atom over its relation, and the
/// other atoms are completed over all of `inst`. The completion's plan
/// depends only on the anchor's bound variables, never on values, so it is
/// planned **once** per anchor atom and the delta tuples stream through the
/// batch executor, partitioned across `workers`. A match touching `k` delta
/// tuples is found `k` times; the final sort + dedup keeps one copy and
/// erases chunk boundaries, so the result depends on neither the worker
/// count nor the order of `delta`.
pub fn delta_matches(
    inst: &Instance,
    tgd: &Tgd,
    delta: &[TupleId],
    workers: &Pool,
) -> Vec<Bindings> {
    let opts = BatchOptions::default();
    let mut pending: Vec<Bindings> = Vec::new();
    for anchor_idx in 0..tgd.lhs().len() {
        let anchor = &tgd.lhs()[anchor_idx];
        // Atoms to complete once the anchor is unified.
        let rest: Vec<routes_model::Atom> = tgd
            .lhs()
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != anchor_idx)
            .map(|(_, a)| a.clone())
            .collect();
        let order = plan_with_bound(inst, &rest, anchor.vars().collect());
        let chunks = workers.par_map_chunks(delta.len(), PAR_MIN_CHUNK, |_, range| {
            let mut seeds = BindingBatch::new(tgd.var_count(), anchor.vars());
            for &tid in delta[range].iter().filter(|tid| tid.rel == anchor.rel) {
                let mut init = Bindings::new(tgd.var_count());
                if unify_atom(anchor, &inst.tuple(tid), &mut init) {
                    seeds.push_binding(&init);
                }
            }
            let mut local: Vec<Bindings> = Vec::new();
            batch_matches_with_plan_into(inst, &rest, &order, &seeds, &opts, &mut local);
            local
        });
        pending.extend(chunks.into_iter().flatten());
    }
    pending.sort_by(|a, b| a.iter().cmp(b.iter()));
    pending.dedup();
    pending
}

/// Run the chase of `(source, ∅)` with the mapping's dependencies.
///
/// On success the returned target instance `J` satisfies
/// `(I, J) ⊨ Σst ∪ Σt`. Fresh labeled nulls (or Skolem nulls) are drawn
/// from `pool`.
///
/// # Errors
/// * [`ChaseError::Failed`] — an egd equated two distinct constants.
/// * [`ChaseError::RoundLimit`] / [`ChaseError::TupleLimit`] — resource
///   guards tripped (likely a non-terminating dependency set).
pub fn chase(
    mapping: &SchemaMapping,
    source: &Instance,
    pool: &mut ValuePool,
    options: ChaseOptions,
) -> Result<ChaseResult, ChaseError> {
    chase_with_pool(mapping, source, pool, options, &Pool::sequential())
}

/// [`chase`] with tgd premise evaluation fanned out over `workers`.
///
/// The result is byte-identical to the sequential chase at every worker
/// count: s-t tgd joins are planned once and partitioned over the outer
/// atom's candidate rows (per-chunk matches concatenate to the sequential
/// match sequence), target-tgd delta matches are canonicalized by sort +
/// dedup before firing, and all firing — hence tuple-id assignment and
/// labeled-null invention — stays on the calling thread.
pub fn chase_with_pool(
    mapping: &SchemaMapping,
    source: &Instance,
    pool: &mut ValuePool,
    options: ChaseOptions,
    workers: &Pool,
) -> Result<ChaseResult, ChaseError> {
    run_engine(mapping, source, pool, options, workers, None)
}

/// [`chase_with_pool`] with the s-t tgd match lists supplied by the caller:
/// one `Vec<Bindings>` per s-t tgd, in the order the engine's own
/// collection would produce them (anchored-plan order — lexicographic over
/// the plan-permuted row vectors).
///
/// The source joins are skipped entirely; everything downstream — firing
/// order, fresh-null invention, target tgd rounds, egds — runs unchanged,
/// so supplying exactly the lists the engine would have collected yields a
/// byte-identical [`ChaseResult`]. This is the replay entry point of the
/// incremental-maintenance layer (`routes-incr`), which maintains those
/// match lists across scenario edits instead of re-joining from scratch.
pub fn chase_with_st_matches(
    mapping: &SchemaMapping,
    source: &Instance,
    pool: &mut ValuePool,
    options: ChaseOptions,
    workers: &Pool,
    st_matches: &[Vec<Bindings>],
) -> Result<ChaseResult, ChaseError> {
    assert_eq!(
        st_matches.len(),
        mapping.st_tgds().len(),
        "one match list per s-t tgd"
    );
    run_engine(mapping, source, pool, options, workers, Some(st_matches))
}

fn run_engine(
    mapping: &SchemaMapping,
    source: &Instance,
    pool: &mut ValuePool,
    options: ChaseOptions,
    workers: &Pool,
    st_matches: Option<&[Vec<Bindings>]>,
) -> Result<ChaseResult, ChaseError> {
    let mut engine = Engine {
        mapping,
        source,
        values: pool,
        workers,
        options,
        target: Instance::new(mapping.target()),
        skolem: HashMap::new(),
        tuples_created: 0,
        rounds: 0,
        egd_rewrites: 0,
        egd_log: EgdLog::new(),
        st_matches,
        tgd_stats: mapping
            .st_tgds()
            .iter()
            .map(|tgd| TgdStats::new(tgd.name(), true))
            .chain(
                mapping
                    .target_tgds()
                    .iter()
                    .map(|tgd| TgdStats::new(tgd.name(), false)),
            )
            .collect(),
    };
    engine.run()?;
    Ok(ChaseResult {
        target: engine.target,
        rounds: engine.rounds,
        tuples_created: engine.tuples_created,
        egd_rewrites: engine.egd_rewrites,
        egd_log: engine.egd_log,
        per_tgd: engine.tgd_stats,
    })
}

impl Engine<'_> {
    fn run(&mut self) -> Result<(), ChaseError> {
        loop {
            // --- Tgd fixpoint -------------------------------------------
            // Round 1 of each pass: s-t tgds, full evaluation over I.
            let mut delta = self.apply_st_tgds()?;
            self.bump_round()?;

            // Target tgd rounds, semi-naive: only matches anchored on a
            // delta tuple are re-derived. On the first pass after an egd
            // rewrite the whole target is the delta.
            while !delta.is_empty() {
                delta = self.apply_target_tgds(&delta)?;
                self.bump_round()?;
            }

            // --- Egds ----------------------------------------------------
            let unifier = self.collect_egd_equalities()?;
            if unifier.is_trivial() {
                return Ok(());
            }
            self.rewrite_with(unifier);
            self.egd_rewrites += 1;
        }
    }

    fn bump_round(&mut self) -> Result<(), ChaseError> {
        self.rounds += 1;
        if self.rounds > self.options.max_rounds {
            return Err(ChaseError::RoundLimit {
                limit: self.options.max_rounds,
            });
        }
        Ok(())
    }

    /// Apply every s-t tgd over the (immutable) source; returns the tuples
    /// newly inserted into the target. Matching fans out over the worker
    /// pool; firing stays sequential.
    fn apply_st_tgds(&mut self) -> Result<Vec<TupleId>, ChaseError> {
        let mut inserted = Vec::new();
        for ti in 0..self.mapping.st_tgds().len() {
            let started = Instant::now();
            let before = inserted.len();
            // Provided matches are borrowed and cloned one at a time as
            // they fire, never copied as a whole list.
            let matches = match self.st_matches {
                Some(provided) => {
                    for b in &provided[ti] {
                        self.fire(true, ti as u32, b.clone(), &mut inserted)?;
                    }
                    provided[ti].len()
                }
                None => {
                    let pending =
                        lhs_matches(self.source, &self.mapping.st_tgds()[ti], self.workers);
                    let matches = pending.len();
                    for b in pending {
                        self.fire(true, ti as u32, b, &mut inserted)?;
                    }
                    matches
                }
            };
            let stat = &mut self.tgd_stats[ti];
            stat.matches += matches as u64;
            stat.fired += (inserted.len() - before) as u64;
            stat.wall_us += started.elapsed().as_micros() as u64;
        }
        Ok(inserted)
    }

    /// Semi-naive application of target tgds: for each delta tuple and each
    /// LHS atom over its relation, anchor the atom on the tuple and complete
    /// the match over the full target. Matching fans out over the worker
    /// pool; firing stays sequential.
    fn apply_target_tgds(&mut self, delta: &[TupleId]) -> Result<Vec<TupleId>, ChaseError> {
        let mut inserted = Vec::new();
        let st_count = self.mapping.st_tgds().len();
        for ti in 0..self.mapping.target_tgds().len() {
            let started = Instant::now();
            // Collect matches first (the join borrows target immutably),
            // then fire. Firing within a round sees the round-start target,
            // which matches the round semantics of the chase.
            let tgd = &self.mapping.target_tgds()[ti];
            let pending = delta_matches(&self.target, tgd, delta, self.workers);
            self.tgd_stats[st_count + ti].matches += pending.len() as u64;
            let before = inserted.len();
            for b in pending {
                self.fire(false, ti as u32, b, &mut inserted)?;
            }
            let stat = &mut self.tgd_stats[st_count + ti];
            stat.fired += (inserted.len() - before) as u64;
            stat.wall_us += started.elapsed().as_micros() as u64;
        }
        Ok(inserted)
    }

    /// Fire a tgd on a (universal) match: value the existential variables
    /// per the null mode and insert the RHS image.
    fn fire(
        &mut self,
        st: bool,
        tgd_idx: u32,
        mut b: Bindings,
        inserted: &mut Vec<TupleId>,
    ) -> Result<(), ChaseError> {
        let tgd: &Tgd = if st {
            &self.mapping.st_tgds()[tgd_idx as usize]
        } else {
            &self.mapping.target_tgds()[tgd_idx as usize]
        };
        let existentials: Vec<Var> = tgd.existential_vars().collect();

        match self.options.null_mode {
            NullMode::Fresh => {
                // Standard chase: fire only if no RHS extension exists yet.
                if satisfiable(&self.target, tgd.rhs(), b.clone()) {
                    return Ok(());
                }
                for v in existentials {
                    let null = self.values.fresh_null();
                    b.set(v, null);
                }
            }
            NullMode::Skolem => {
                if !existentials.is_empty() {
                    let args: Vec<Value> = (0..tgd.var_count() as u32)
                        .map(Var)
                        .filter(|v| tgd.is_universal(*v))
                        .map(|v| b.get(v).expect("universal vars bound by LHS match"))
                        .collect();
                    for v in existentials {
                        let key = SkolemKey {
                            st,
                            tgd: tgd_idx,
                            var: v.0,
                            args: args.clone(),
                        };
                        let null = match self.skolem.get(&key) {
                            Some(&n) => n,
                            None => {
                                let n = self.values.fresh_null();
                                self.skolem.insert(key, n);
                                n
                            }
                        };
                        b.set(v, null);
                    }
                }
            }
        }

        // Insert the RHS image.
        let mut values: Vec<Value> = Vec::new();
        for atom in tgd.rhs() {
            values.clear();
            for term in &atom.terms {
                values.push(match term {
                    routes_model::Term::Const(c) => *c,
                    routes_model::Term::Var(v) => b
                        .get(*v)
                        .expect("all RHS vars bound after existential valuation"),
                });
            }
            let (tid, fresh) = self
                .target
                .insert(atom.rel, &values)
                .expect("RHS image has correct arity");
            if fresh {
                self.tuples_created += 1;
                if self.tuples_created > self.options.max_tuples {
                    return Err(ChaseError::TupleLimit {
                        limit: self.options.max_tuples,
                    });
                }
                inserted.push(tid);
            }
        }
        Ok(())
    }

    /// Evaluate every egd over the current target and collect the implied
    /// equalities. Non-trivial merges are recorded in the egd log (with
    /// their resolutions filled in once the pass's fixpoint is known).
    ///
    /// Egd evaluation always drains the full match set, so it runs through
    /// the batch executor; the union order (which the egd log's merge
    /// sequence depends on) is preserved because the batch enumerates the
    /// lazy iterator's exact sequence.
    fn collect_egd_equalities(&mut self) -> Result<ValueUnifier, ChaseError> {
        let mut unifier = ValueUnifier::new();
        let log_start = self.egd_log.len();
        let opts = BatchOptions::default();
        for egd in self.mapping.egds() {
            let matches = batch_all_matches(
                &self.target,
                egd.lhs(),
                &Bindings::new(egd.var_count()),
                &opts,
            );
            let (x, y) = egd.equated();
            for b in matches {
                let vx = b.get(x).expect("egd vars occur in LHS");
                let vy = b.get(y).expect("egd vars occur in LHS");
                let merged = unifier.union(vx, vy).map_err(|values| ChaseError::Failed {
                    egd: egd.name().to_owned(),
                    values,
                })?;
                if merged {
                    self.egd_log.push(EgdMerge {
                        egd: egd.name().to_owned(),
                        equated: (vx, vy),
                        resolved: vx, // placeholder; fixed up below
                    });
                }
            }
        }
        for entry in &mut self.egd_log[log_start..] {
            entry.resolved = unifier.resolve(entry.equated.0);
        }
        Ok(unifier)
    }

    /// Rebuild the target instance (and the Skolem cache) under the
    /// substitution induced by `unifier`.
    fn rewrite_with(&mut self, mut unifier: ValueUnifier) {
        self.target = self
            .target
            .map_values(self.mapping.target(), |v| unifier.resolve(v));
        for v in self.skolem.values_mut() {
            *v = unifier.resolve(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routes_mapping::satisfy::is_solution;
    use routes_mapping::{parse_egd, parse_st_tgd, parse_target_tgd};
    use routes_model::Schema;
    use routes_query::{EvalOptions, MatchIter};

    fn simple_mapping() -> (SchemaMapping, ValuePool) {
        let mut s = Schema::new();
        s.rel("S", &["a", "b"]);
        let mut t = Schema::new();
        t.rel("T", &["a", "b"]);
        t.rel("U", &["a", "b"]);
        let mut pool = ValuePool::new();
        let mut m = SchemaMapping::new(s.clone(), t.clone());
        m.add_st_tgd(parse_st_tgd(&s, &t, &mut pool, "m1: S(x,y) -> T(x,y)").unwrap())
            .unwrap();
        m.add_target_tgd(
            parse_target_tgd(&t, &mut pool, "m2: T(x,y) -> exists Z: U(x,Z)").unwrap(),
        )
        .unwrap();
        (m, pool)
    }

    fn src(m: &SchemaMapping, rows: &[(i64, i64)]) -> Instance {
        let mut i = Instance::new(m.source());
        let s = m.source().rel_id("S").unwrap();
        for &(a, b) in rows {
            i.insert_ok(s, &[Value::Int(a), Value::Int(b)]);
        }
        i
    }

    #[test]
    fn chase_produces_a_solution_fresh() {
        let (m, mut pool) = simple_mapping();
        let i = src(&m, &[(1, 2), (3, 4)]);
        let r = chase(&m, &i, &mut pool, ChaseOptions::fresh()).unwrap();
        assert!(is_solution(&m, &i, &r.target));
        let t = m.target().rel_id("T").unwrap();
        let u = m.target().rel_id("U").unwrap();
        assert_eq!(r.target.rel_len(t), 2);
        assert_eq!(r.target.rel_len(u), 2);
        // U tuples carry fresh nulls in the second column.
        for (_, vals) in r.target.rel_tuples(u) {
            assert!(vals[1].is_null());
        }
    }

    #[test]
    fn chase_produces_a_solution_skolem_and_is_deterministic() {
        let (m, mut pool) = simple_mapping();
        let i = src(&m, &[(1, 2), (1, 3)]);
        let r = chase(&m, &i, &mut pool, ChaseOptions::skolem()).unwrap();
        assert!(is_solution(&m, &i, &r.target));
        let u = m.target().rel_id("U").unwrap();
        // m2 has universal vars x, y; two different y values give two
        // different Skolem nulls even though x is equal.
        assert_eq!(r.target.rel_len(u), 2);
    }

    #[test]
    fn per_tgd_attribution_accounts_for_every_tuple() {
        let (m, mut pool) = simple_mapping();
        let i = src(&m, &[(1, 2), (3, 4)]);
        let r = chase(&m, &i, &mut pool, ChaseOptions::fresh()).unwrap();
        assert_eq!(r.per_tgd.len(), 2);
        assert_eq!(r.per_tgd[0].name, "m1");
        assert!(r.per_tgd[0].st);
        assert_eq!(r.per_tgd[0].matches, 2);
        assert_eq!(r.per_tgd[0].fired, 2);
        assert_eq!(r.per_tgd[1].name, "m2");
        assert!(!r.per_tgd[1].st);
        assert_eq!(r.per_tgd[1].matches, 2);
        assert_eq!(r.per_tgd[1].fired, 2);
        // Every created tuple is attributed to exactly one dependency.
        let fired: u64 = r.per_tgd.iter().map(|t| t.fired).sum();
        assert_eq!(fired as usize, r.tuples_created);
    }

    #[test]
    fn standard_chase_does_not_refire_satisfied_tgds() {
        let (m, mut pool) = simple_mapping();
        let i = src(&m, &[(1, 2)]);
        let r = chase(&m, &i, &mut pool, ChaseOptions::fresh()).unwrap();
        // Exactly one T and one U tuple; a second run over the same pool
        // creates nothing more (idempotence at the instance level).
        assert_eq!(r.target.total_tuples(), 2);
    }

    #[test]
    fn transitive_closure_target_tgd() {
        let mut s = Schema::new();
        s.rel("S", &["a", "b"]);
        let mut t = Schema::new();
        t.rel("T", &["a", "b"]);
        let mut pool = ValuePool::new();
        let mut m = SchemaMapping::new(s.clone(), t.clone());
        m.add_st_tgd(parse_st_tgd(&s, &t, &mut pool, "c: S(x,y) -> T(x,y)").unwrap())
            .unwrap();
        m.add_target_tgd(parse_target_tgd(&t, &mut pool, "tc: T(x,y) & T(y,z) -> T(x,z)").unwrap())
            .unwrap();
        let mut i = Instance::new(m.source());
        let sr = m.source().rel_id("S").unwrap();
        for k in 0..5 {
            i.insert_ok(sr, &[Value::Int(k), Value::Int(k + 1)]);
        }
        let r = chase(&m, &i, &mut pool, ChaseOptions::fresh()).unwrap();
        let tr = m.target().rel_id("T").unwrap();
        // Transitive closure of a 6-node path: 5+4+3+2+1 = 15 pairs.
        assert_eq!(r.target.rel_len(tr), 15);
        assert!(is_solution(&m, &i, &r.target));
    }

    #[test]
    fn egd_merges_nulls_with_constants() {
        // S(x,y) -> exists Z: T(x,Z);  S2(x,y) -> T(x,y);  T(x,y) & T(x,y2) -> y = y2.
        let mut s = Schema::new();
        s.rel("S", &["a", "b"]);
        s.rel("S2", &["a", "b"]);
        let mut t = Schema::new();
        t.rel("T", &["a", "b"]);
        let mut pool = ValuePool::new();
        let mut m = SchemaMapping::new(s.clone(), t.clone());
        m.add_st_tgd(parse_st_tgd(&s, &t, &mut pool, "m1: S(x,y) -> exists Z: T(x,Z)").unwrap())
            .unwrap();
        m.add_st_tgd(parse_st_tgd(&s, &t, &mut pool, "m2: S2(x,y) -> T(x,y)").unwrap())
            .unwrap();
        m.add_egd(parse_egd(&t, &mut pool, "key: T(x,y) & T(x,y2) -> y = y2").unwrap())
            .unwrap();
        let mut i = Instance::new(m.source());
        i.insert_ok(
            m.source().rel_id("S").unwrap(),
            &[Value::Int(1), Value::Int(0)],
        );
        i.insert_ok(
            m.source().rel_id("S2").unwrap(),
            &[Value::Int(1), Value::Int(9)],
        );
        let r = chase(&m, &i, &mut pool, ChaseOptions::fresh()).unwrap();
        let tr = m.target().rel_id("T").unwrap();
        assert_eq!(r.target.rel_len(tr), 1);
        assert!(r.target.contains(tr, &[Value::Int(1), Value::Int(9)]));
        assert!(r.egd_rewrites >= 1);
        assert!(is_solution(&m, &i, &r.target));
    }

    #[test]
    fn egd_log_records_merge_provenance() {
        // Same setup as egd_merges_nulls_with_constants: the key egd merges
        // the invented null with the constant 9.
        let mut s = Schema::new();
        s.rel("S", &["a", "b"]);
        s.rel("S2", &["a", "b"]);
        let mut t = Schema::new();
        t.rel("T", &["a", "b"]);
        let mut pool = ValuePool::new();
        let mut m = SchemaMapping::new(s.clone(), t.clone());
        m.add_st_tgd(parse_st_tgd(&s, &t, &mut pool, "m1: S(x,y) -> exists Z: T(x,Z)").unwrap())
            .unwrap();
        m.add_st_tgd(parse_st_tgd(&s, &t, &mut pool, "m2: S2(x,y) -> T(x,y)").unwrap())
            .unwrap();
        m.add_egd(
            routes_mapping::parse_egd(&t, &mut pool, "key: T(x,y) & T(x,y2) -> y = y2").unwrap(),
        )
        .unwrap();
        let mut i = Instance::new(m.source());
        i.insert_ok(
            m.source().rel_id("S").unwrap(),
            &[Value::Int(1), Value::Int(0)],
        );
        i.insert_ok(
            m.source().rel_id("S2").unwrap(),
            &[Value::Int(1), Value::Int(9)],
        );
        let r = chase(&m, &i, &mut pool, ChaseOptions::fresh()).unwrap();
        assert_eq!(r.egd_log.len(), 1);
        let merge = &r.egd_log[0];
        assert_eq!(merge.egd, "key");
        assert_eq!(merge.resolved, Value::Int(9));
        assert!(merge.equated.0.is_null() || merge.equated.1.is_null());
        // History query: the constant 9's identity involved the key egd.
        let hist = crate::egd_log::merges_affecting(&r.egd_log, Value::Int(9));
        assert_eq!(hist.len(), 1);
    }

    #[test]
    fn egd_conflict_fails_the_chase() {
        let mut s = Schema::new();
        s.rel("S", &["a", "b"]);
        let mut t = Schema::new();
        t.rel("T", &["a", "b"]);
        let mut pool = ValuePool::new();
        let mut m = SchemaMapping::new(s.clone(), t.clone());
        m.add_st_tgd(parse_st_tgd(&s, &t, &mut pool, "m1: S(x,y) -> T(x,y)").unwrap())
            .unwrap();
        m.add_egd(parse_egd(&t, &mut pool, "key: T(x,y) & T(x,y2) -> y = y2").unwrap())
            .unwrap();
        let mut i = Instance::new(m.source());
        let sr = m.source().rel_id("S").unwrap();
        i.insert_ok(sr, &[Value::Int(1), Value::Int(2)]);
        i.insert_ok(sr, &[Value::Int(1), Value::Int(3)]);
        let err = chase(&m, &i, &mut pool, ChaseOptions::fresh()).unwrap_err();
        assert!(matches!(err, ChaseError::Failed { .. }));
    }

    #[test]
    fn parallel_chase_is_byte_identical_to_sequential() {
        // Transitive closure over a long path: multiple semi-naive rounds,
        // enough rows to cross PAR_MIN_CHUNK and actually fan out.
        let mut s = Schema::new();
        s.rel("S", &["a", "b"]);
        let mut t = Schema::new();
        t.rel("T", &["a", "b"]);
        t.rel("U", &["a", "b"]);
        let mut pool = ValuePool::new();
        let mut m = SchemaMapping::new(s.clone(), t.clone());
        m.add_st_tgd(parse_st_tgd(&s, &t, &mut pool, "c: S(x,y) -> T(x,y)").unwrap())
            .unwrap();
        m.add_target_tgd(parse_target_tgd(&t, &mut pool, "tc: T(x,y) & T(y,z) -> T(x,z)").unwrap())
            .unwrap();
        m.add_target_tgd(parse_target_tgd(&t, &mut pool, "u: T(x,y) -> exists Z: U(x,Z)").unwrap())
            .unwrap();
        let mut i = Instance::new(m.source());
        let sr = m.source().rel_id("S").unwrap();
        for k in 0..40 {
            i.insert_ok(sr, &[Value::Int(k), Value::Int(k + 1)]);
        }
        // A stable dump: every tuple with null labels resolved, in row order.
        let dump = |inst: &Instance, p: &ValuePool| -> String {
            let mut out = String::new();
            for (rel, _) in m.target().iter() {
                for (tid, vals) in inst.rel_tuples(rel) {
                    let rendered: Vec<String> =
                        vals.iter().map(|&v| p.value_to_string(v)).collect();
                    out.push_str(&format!("{tid:?}: {}\n", rendered.join(", ")));
                }
            }
            out
        };
        for null_mode in [NullMode::Fresh, NullMode::Skolem] {
            let opts = ChaseOptions {
                null_mode,
                ..ChaseOptions::default()
            };
            let mut seq_pool = pool.clone();
            let sequential = chase(&m, &i, &mut seq_pool, opts).unwrap();
            for threads in [2usize, 3, 8] {
                let mut par_pool = pool.clone();
                let parallel =
                    chase_with_pool(&m, &i, &mut par_pool, opts, &Pool::new(threads)).unwrap();
                assert_eq!(sequential.stats(), parallel.stats(), "threads={threads}");
                assert_eq!(
                    dump(&sequential.target, &seq_pool),
                    dump(&parallel.target, &par_pool),
                    "threads={threads}"
                );
                assert_eq!(seq_pool.num_nulls(), par_pool.num_nulls());
            }
        }
    }

    #[test]
    fn provided_st_matches_reproduce_the_chase_byte_for_byte() {
        let (m, pool) = simple_mapping();
        let i = src(&m, &[(1, 2), (3, 4), (1, 5)]);

        // Hand-collect per-tgd match lists with the same anchored-plan
        // enumeration the engine uses internally.
        let mut matches: Vec<Vec<Bindings>> = Vec::new();
        for tgd in m.st_tgds() {
            let init = Bindings::new(tgd.var_count());
            let ap = anchored_plan(&i, tgd.lhs(), &init).unwrap();
            let anchor = &tgd.lhs()[ap.outer];
            let mut out = Vec::new();
            for &row in &ap.rows {
                let mut b = init.clone();
                let tuple = i.tuple(TupleId {
                    rel: anchor.rel,
                    row,
                });
                if !unify_atom(anchor, &tuple, &mut b) {
                    continue;
                }
                let mut it = MatchIter::with_plan(
                    &i,
                    tgd.lhs(),
                    b,
                    ap.suffix.clone(),
                    EvalOptions::default(),
                );
                while let Some(found) = it.next_match() {
                    out.push(found.clone());
                }
            }
            matches.push(out);
        }

        let dump = |inst: &Instance, p: &ValuePool| -> String {
            let mut out = String::new();
            for (rel, _) in m.target().iter() {
                for (tid, vals) in inst.rel_tuples(rel) {
                    let rendered: Vec<String> =
                        vals.iter().map(|&v| p.value_to_string(v)).collect();
                    out.push_str(&format!("{tid:?}: {}\n", rendered.join(", ")));
                }
            }
            out
        };
        for opts in [ChaseOptions::fresh(), ChaseOptions::skolem()] {
            let mut base_pool = pool.clone();
            let baseline = chase(&m, &i, &mut base_pool, opts).unwrap();
            let mut fed_pool = pool.clone();
            let fed =
                chase_with_st_matches(&m, &i, &mut fed_pool, opts, &Pool::sequential(), &matches)
                    .unwrap();
            assert_eq!(baseline.stats(), fed.stats());
            assert_eq!(
                dump(&baseline.target, &base_pool),
                dump(&fed.target, &fed_pool)
            );
            assert_eq!(base_pool.num_nulls(), fed_pool.num_nulls());
        }
    }

    #[test]
    fn round_limit_guards_nontermination() {
        // T(x,y) -> exists Z: T(y,Z): the classic non-terminating tgd
        // (not weakly acyclic) under the standard chase.
        let mut s = Schema::new();
        s.rel("S", &["a", "b"]);
        let mut t = Schema::new();
        t.rel("T", &["a", "b"]);
        let mut pool = ValuePool::new();
        let mut m = SchemaMapping::new(s.clone(), t.clone());
        m.add_st_tgd(parse_st_tgd(&s, &t, &mut pool, "c: S(x,y) -> T(x,y)").unwrap())
            .unwrap();
        m.add_target_tgd(
            parse_target_tgd(&t, &mut pool, "inf: T(x,y) -> exists Z: T(y,Z)").unwrap(),
        )
        .unwrap();
        let mut i = Instance::new(m.source());
        i.insert_ok(
            m.source().rel_id("S").unwrap(),
            &[Value::Int(1), Value::Int(2)],
        );
        let opts = ChaseOptions {
            max_rounds: 20,
            ..ChaseOptions::fresh()
        };
        let err = chase(&m, &i, &mut pool, opts).unwrap_err();
        assert!(matches!(err, ChaseError::RoundLimit { .. }));
    }
}
