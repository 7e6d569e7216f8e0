//! `findHom` (paper Figure 4): enumerate assignments `h = v1 ∪ v2 ∪ v3`
//! for a tuple `t` and a tgd `σ = ∀x φ(x) → ∃y ψ(x, y)` such that
//! `h(φ) ⊆ K`, `h(ψ) ⊆ J`, and `t ∈ h(ψ)` — where `K = I` for s-t tgds and
//! `K = J` for target tgds.
//!
//! The enumeration follows the paper's three stages:
//! 1. **v1** — match `t` against an RHS atom over `t`'s relation (“anchor”);
//!    on variable-assignment conflict, try the next candidate atom.
//! 2. **v2** — complete the LHS as a selection query over `K` with `v1`'s
//!    bindings pushed down (we push it into the indexed CQ evaluator, as the
//!    paper pushes it into DB2 — §3.3).
//! 3. **v3** — complete the RHS as a selection query over `J`.
//!
//! There are two ways to run it:
//!
//! - [`FindHom::next_hom`] fetches assignments **one at a time** (paper
//!   §3.3), which is what makes `ComputeOneRoute` fast: it stops at the
//!   first assignment.
//! - [`find_homs`] drains the whole enumeration for a **set** of probes at
//!   once: per anchor atom, the `v1` of every probe enters one batch, and
//!   stages 2 and 3 run once for the batch through the vectorized executor.
//!   Each probe still receives exactly its own lazy sequence.
//!   `ComputeAllRoutes` expands a forest wave this way;
//!   [`FindHom::collect_all`] and [`FindHom::collect_dedup`] are its
//!   one-probe calls.
//!
//! The same machinery anchored on the **LHS** supports routes for selected
//! *source* tuples (§3.4): see [`AnchorSide::Lhs`].

use std::collections::HashSet;

use routes_mapping::{Tgd, TgdId};
use routes_model::{Atom, Fact, Instance, RelId, Value, Var};
use routes_query::{
    batch_matches_with_plan, plan_with_bound, unify_atom, BatchOptions, BindingBatch, Bindings,
    MatchIter,
};

use crate::env::RouteEnv;

/// Anchor unifications per batch pipeline run of [`find_homs`]: each slice
/// is joined and emitted before the next is seeded, so one run's batches
/// hold at most one slice's matches.
const SEED_SLICE: usize = 256;

/// Which side of the tgd the probed tuple is matched against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnchorSide {
    /// The probed tuple is a target tuple that must appear in `h(ψ)` —
    /// the standard `findHom` of Figure 4.
    Rhs,
    /// The probed tuple must appear in `h(φ)` — used to explain how a
    /// selected source (or intermediate target) tuple flows forward.
    Lhs,
}

/// One tgd's `findHom` for probes of one relation: the tgd, the instances
/// its two sides range over, and the anchor-side atoms over that relation.
struct Stages<'a> {
    tgd: &'a Tgd,
    lhs_instance: &'a Instance,
    target: &'a Instance,
    anchor_atoms: &'a [Atom],
    /// Indices into `anchor_atoms` of the atoms over the probes' relation.
    anchors: Vec<usize>,
}

impl<'a> Stages<'a> {
    /// The stages of tgd `id` for probes of `rel` on `side`, and the
    /// instance those probes live in.
    fn new(env: RouteEnv<'a>, id: TgdId, side: AnchorSide, rel: RelId) -> (Self, &'a Instance) {
        let tgd = env.mapping.tgd(id);
        let lhs_instance = env.lhs_instance(id);
        let (anchor_atoms, probe_instance) = match side {
            AnchorSide::Rhs => (tgd.rhs(), env.target),
            AnchorSide::Lhs => (tgd.lhs(), lhs_instance),
        };
        let anchors = anchor_atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.rel == rel)
            .map(|(i, _)| i)
            .collect();
        let stages = Stages {
            tgd,
            lhs_instance,
            target: env.target,
            anchor_atoms,
            anchors,
        };
        (stages, probe_instance)
    }

    /// Every total assignment for each probe (given by its values), emitted
    /// as `(probe index, assignment)`: anchor by anchor, and within an
    /// anchor in probe order, so each probe's own sequence is the lazy one.
    fn drain(&self, probes: &[&[Value]], dedup: bool, emit: &mut dyn FnMut(usize, Box<[Value]>)) {
        let var_count = self.tgd.var_count();
        // The tag variable: no atom mentions it, so it rides through both
        // joins as an extra input column. A lone probe needs none, and then
        // runs exactly the plan and batch calls of a single `v1` seed.
        let tag = (probes.len() > 1).then_some(Var(var_count as u32));
        let var_space = var_count + usize::from(tag.is_some());
        // One anchor never yields an assignment twice — an instance holds
        // each row once, and a total assignment fixes every atom's row — so
        // only probes that two or more anchors unify with need a seen-set.
        let mut seen: Vec<Option<HashSet<Box<[Value]>>>> = Vec::new();
        if dedup && self.anchors.len() > 1 {
            let mut unified = vec![0u32; probes.len()];
            for &a in &self.anchors {
                let mut v1 = Bindings::new(var_space);
                for (n, values) in unified.iter_mut().zip(probes) {
                    *n += u32::from(anchor_v1(&self.anchor_atoms[a], values, &mut v1));
                }
            }
            seen = unified
                .iter()
                .map(|&n| (n > 1).then(HashSet::new))
                .collect();
        }
        for &a in &self.anchors {
            let atom = &self.anchor_atoms[a];
            let layout = || BindingBatch::new(var_space, atom.vars().chain(tag));
            let mut seeds = layout();
            let mut v1 = Bindings::new(var_space);
            for (p, values) in probes.iter().enumerate() {
                if !anchor_v1(atom, values, &mut v1) {
                    continue;
                }
                if let Some(tag) = tag {
                    v1.set(tag, Value::Int(p as i64));
                }
                seeds.push_binding(&v1);
                if seeds.len() == SEED_SLICE {
                    let slice = std::mem::replace(&mut seeds, layout());
                    self.join(&slice, tag.is_some(), &mut seen, emit);
                }
            }
            if !seeds.is_empty() {
                self.join(&seeds, tag.is_some(), &mut seen, emit);
            }
        }
    }

    /// Stages 2 and 3 for one batch of `v1` seeds. All seeds bind the same
    /// variables (the anchor's, plus the tag), so each stage is planned once
    /// — the plan a single seed would get — and the executor emits every
    /// seed's completions in seed order.
    fn join(
        &self,
        seeds: &BindingBatch,
        tagged: bool,
        seen: &mut [Option<HashSet<Box<[Value]>>>],
        emit: &mut dyn FnMut(usize, Box<[Value]>),
    ) {
        let opts = BatchOptions::default();
        // Stage A (v2): the LHS completions over K.
        let lhs_order = plan_with_bound(
            self.lhs_instance,
            self.tgd.lhs(),
            seeds.bound_vars().to_vec(),
        );
        let lhs_batch =
            batch_matches_with_plan(self.lhs_instance, self.tgd.lhs(), &lhs_order, seeds, &opts);
        if lhs_batch.is_empty() {
            return;
        }
        // Stage B (v3): the RHS completion of every LHS match, over J.
        let rhs_order =
            plan_with_bound(self.target, self.tgd.rhs(), lhs_batch.bound_vars().to_vec());
        let homs =
            batch_matches_with_plan(self.target, self.tgd.rhs(), &rhs_order, &lhs_batch, &opts);
        for row in 0..homs.len() {
            let mut hom = homs
                .total(row)
                .expect("all tgd variables occur in LHS ∪ RHS");
            let (probe, hom): (usize, Box<[Value]>) = if tagged {
                // The tag is the highest variable, so the last column. The
                // rest is copied to an exact allocation: shrinking in place
                // may keep the tag's slot (an allocator need not split off
                // so small a remainder), and a forest keeps every assignment.
                match hom.pop() {
                    Some(Value::Int(p)) => (p as usize, hom[..].into()),
                    other => unreachable!("tag column holds {other:?}"),
                }
            } else {
                (0, hom.into_boxed_slice())
            };
            if let Some(Some(seen)) = seen.get_mut(probe) {
                if !seen.insert(hom.clone()) {
                    continue;
                }
            }
            emit(probe, hom);
        }
    }
}

/// Stage 1 (`v1`): unify `atom` with a probe's values in `v1`, whose
/// bindings of `atom`'s variables from an earlier probe are cleared first.
fn anchor_v1(atom: &Atom, values: &[Value], v1: &mut Bindings) -> bool {
    for v in atom.vars() {
        v1.unset(v);
    }
    unify_atom(atom, values, v1)
}

/// `findHom` set-at-a-time: every total assignment of the tgd `id` that
/// witnesses each of `probes`, handed to `emit(probe index, assignment)`.
///
/// Each probe receives exactly the sequence [`FindHom::collect_all`] yields
/// for it alone — or, with `dedup`, the one [`FindHom::collect_dedup`]
/// yields — but stages 2 and 3 run once per anchor atom and slice of
/// probes, not once per probe: each anchor unification `v1` enters one
/// [`BindingBatch`], tagged with its probe's index in the extra variable
/// `Var(var_count)`. The batch executor keeps seed order and plans from the
/// bound-variable set alone ([`plan_with_bound`]), and no atom mentions the
/// tag, so the tag changes neither the plan nor any probe's matches; it only
/// says whose match a row is.
///
/// All probes must be facts of one relation, on the side `side` anchors (see
/// [`FindHom::new`]).
pub fn find_homs(
    env: RouteEnv<'_>,
    id: TgdId,
    side: AnchorSide,
    probes: &[Fact],
    dedup: bool,
    mut emit: impl FnMut(usize, Box<[Value]>),
) {
    let Some(first) = probes.first() else {
        return;
    };
    let (stages, instance) = Stages::new(env, id, side, first.id.rel);
    if stages.anchors.is_empty() {
        return;
    }
    let values: Vec<Vec<Value>> = probes
        .iter()
        .map(|p| {
            assert_eq!(
                p.id.rel, first.id.rel,
                "find_homs probes share one relation"
            );
            instance.tuple(p.id)
        })
        .collect();
    let values: Vec<&[Value]> = values.iter().map(Vec::as_slice).collect();
    stages.drain(&values, dedup, &mut emit);
}

/// Lazy iterator over the total assignments of one tgd that witness one
/// tuple. See the module docs.
pub struct FindHom<'a> {
    stages: Stages<'a>,
    tuple_values: Vec<Value>,
    anchor_pos: usize,
    stage_a: Option<MatchIter<'a>>,
    stage_b: Option<MatchIter<'a>>,
}

impl<'a> FindHom<'a> {
    /// Start the enumeration for `probe` against the tgd `id`.
    ///
    /// With [`AnchorSide::Rhs`], `probe` must be a target fact; with
    /// [`AnchorSide::Lhs`], it must be a fact of the instance the tgd's LHS
    /// ranges over (source for s-t tgds, target for target tgds).
    pub fn new(env: RouteEnv<'a>, id: TgdId, side: AnchorSide, probe: Fact) -> Self {
        debug_assert_eq!(
            probe.side,
            match side {
                AnchorSide::Rhs => routes_model::Side::Target,
                AnchorSide::Lhs => env.lhs_side(id),
            }
        );
        let (stages, probe_instance) = Stages::new(env, id, side, probe.id.rel);
        FindHom {
            stages,
            tuple_values: probe_instance.tuple(probe.id),
            anchor_pos: 0,
            stage_a: None,
            stage_b: None,
        }
    }

    /// Fetch the next total assignment, or `None` when exhausted.
    ///
    /// Note: the *same* assignment may be produced once per anchor atom it
    /// matches; callers that need set semantics (forest construction)
    /// deduplicate on the `(σ, h)` pair.
    pub fn next_hom(&mut self) -> Option<Box<[Value]>> {
        let s = &self.stages;
        loop {
            // Stage B (v3): complete the RHS over J.
            if let Some(b_iter) = &mut self.stage_b {
                if let Some(b) = b_iter.next_match() {
                    return Some(
                        b.to_total()
                            .expect("all tgd variables occur in LHS ∪ RHS")
                            .into_boxed_slice(),
                    );
                }
                self.stage_b = None;
            }
            // Stage A (v2): complete the LHS over K.
            if let Some(a_iter) = &mut self.stage_a {
                if let Some(b) = a_iter.next_match() {
                    self.stage_b = Some(MatchIter::new(s.target, s.tgd.rhs(), b.clone()));
                    continue;
                }
                self.stage_a = None;
            }
            // Stage 1 (v1): next anchor atom.
            loop {
                let idx = *s.anchors.get(self.anchor_pos)?;
                self.anchor_pos += 1;
                let mut v1 = Bindings::new(s.tgd.var_count());
                if unify_atom(&s.anchor_atoms[idx], &self.tuple_values, &mut v1) {
                    self.stage_a = Some(MatchIter::new(s.lhs_instance, s.tgd.lhs(), v1));
                    break;
                }
            }
        }
    }

    /// Drain the **entire** remaining enumeration through the vectorized
    /// batch executor: [`find_homs`] for this one probe, so per anchor the
    /// LHS completion runs as one batch pipeline and its result batch seeds
    /// the RHS completion directly.
    ///
    /// The output sequence is exactly what repeated [`FindHom::next_hom`]
    /// calls would yield — the lazy nesting "for each LHS match, drain the
    /// RHS" is the input-major order the batch pipeline preserves — including
    /// the per-anchor duplicates the lazy path produces. Route-by-route
    /// callers keep [`FindHom::next_hom`], whose cost is proportional to how
    /// far the search advances.
    ///
    /// Must be called on a fresh iterator (before any `next_hom`).
    pub fn collect_all(self) -> Vec<Box<[Value]>> {
        self.collect(false)
    }

    /// Collect all assignments, deduplicated (first occurrence wins),
    /// through the batched [`FindHom::collect_all`]. Must be called on a
    /// fresh iterator.
    pub fn collect_dedup(self) -> Vec<Box<[Value]>> {
        self.collect(true)
    }

    fn collect(self, dedup: bool) -> Vec<Box<[Value]>> {
        assert!(
            self.anchor_pos == 0 && self.stage_a.is_none() && self.stage_b.is_none(),
            "collect_all drains a fresh FindHom"
        );
        let mut out = Vec::new();
        self.stages
            .drain(&[&self.tuple_values], dedup, &mut |_, hom| out.push(hom));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routes_mapping::{parse_st_tgd, parse_target_tgd, SchemaMapping};
    use routes_model::{Schema, TupleId, ValuePool};

    /// The paper's Figure 1/2 fragment: m1 over Cards.
    fn fargo() -> (SchemaMapping, Instance, Instance, ValuePool, TgdId) {
        let mut s = Schema::new();
        s.rel(
            "Cards",
            &[
                "cardNo",
                "limit",
                "ssn",
                "name",
                "maidenName",
                "salary",
                "location",
            ],
        );
        let mut t = Schema::new();
        t.rel("Accounts", &["accNo", "limit", "accHolder"]);
        t.rel(
            "Clients",
            &["ssn", "name", "maidenName", "income", "address"],
        );
        let mut pool = ValuePool::new();
        let mut m = SchemaMapping::new(s.clone(), t.clone());
        let m1 = m
            .add_st_tgd(
                parse_st_tgd(
                    &s,
                    &t,
                    &mut pool,
                    "m1: Cards(cn,l,s,n,mn,sal,loc) -> exists A: Accounts(cn,l,s) & Clients(s,mn,mn,sal,A)",
                )
                .unwrap(),
            )
            .unwrap();
        let mut i = Instance::new(&s);
        let cards = s.rel_id("Cards").unwrap();
        let (jlong, smith, seattle) = (pool.str("J. Long"), pool.str("Smith"), pool.str("Seattle"));
        i.insert_ok(
            cards,
            &[
                Value::Int(6689),
                Value::Int(15),
                Value::Int(434),
                jlong,
                smith,
                Value::Int(50),
                seattle,
            ],
        );
        let mut j = Instance::new(&t);
        let accounts = t.rel_id("Accounts").unwrap();
        let clients = t.rel_id("Clients").unwrap();
        let a1 = pool.named_null("A1");
        j.insert_ok(
            accounts,
            &[Value::Int(6689), Value::Int(15), Value::Int(434)],
        );
        j.insert_ok(
            clients,
            &[Value::Int(434), smith, smith, Value::Int(50), a1],
        );
        (m, i, j, pool, m1)
    }

    #[test]
    fn finds_the_paper_example_assignment() {
        let (m, i, j, pool, m1) = fargo();
        let env = RouteEnv::new(&m, &i, &j);
        let accounts = m.target().rel_id("Accounts").unwrap();
        let t1 = TupleId {
            rel: accounts,
            row: 0,
        };
        let homs = FindHom::new(env, m1, AnchorSide::Rhs, Fact::target(t1)).collect_dedup();
        assert_eq!(homs.len(), 1);
        let tgd = m.tgd(m1);
        let h = &homs[0];
        // cn=6689, l=15, s=434, n='J. Long', mn='Smith', sal=50, loc='Seattle', A=A1.
        let by_name = |name: &str| {
            (0..tgd.var_count() as u32)
                .find(|&v| tgd.var_name(routes_model::Var(v)) == name)
                .map(|v| h[v as usize])
                .unwrap()
        };
        assert_eq!(by_name("cn"), Value::Int(6689));
        assert_eq!(by_name("s"), Value::Int(434));
        assert_eq!(by_name("n"), Value::Str(pool.lookup("J. Long").unwrap()));
        assert!(by_name("A").is_null());
    }

    #[test]
    fn probing_clients_tuple_finds_same_assignment() {
        let (m, i, j, _pool, m1) = fargo();
        let env = RouteEnv::new(&m, &i, &j);
        let clients = m.target().rel_id("Clients").unwrap();
        let t5 = TupleId {
            rel: clients,
            row: 0,
        };
        let homs = FindHom::new(env, m1, AnchorSide::Rhs, Fact::target(t5)).collect_dedup();
        assert_eq!(homs.len(), 1);
    }

    #[test]
    fn no_anchor_atoms_means_no_homs() {
        let (m, i, j, _pool, _m1) = fargo();
        // Probe a Clients tuple against a tgd whose RHS only covers
        // Accounts: build such a tgd.
        let mut m2 = m.clone();
        let mut pool2 = ValuePool::new();
        let only_accounts = parse_st_tgd(
            m.source(),
            m.target(),
            &mut pool2,
            "x: Cards(cn,l,s,n,mn,sal,loc) -> Accounts(cn,l,s)",
        )
        .unwrap();
        let xid = m2.add_st_tgd(only_accounts).unwrap();
        let env = RouteEnv::new(&m2, &i, &j);
        let clients = m.target().rel_id("Clients").unwrap();
        let t5 = TupleId {
            rel: clients,
            row: 0,
        };
        let homs = FindHom::new(env, xid, AnchorSide::Rhs, Fact::target(t5)).collect_dedup();
        assert!(homs.is_empty());
    }

    #[test]
    fn lhs_anchor_explains_source_tuple() {
        let (m, i, j, _pool, m1) = fargo();
        let env = RouteEnv::new(&m, &i, &j);
        let cards = m.source().rel_id("Cards").unwrap();
        let s1 = TupleId { rel: cards, row: 0 };
        let homs = FindHom::new(env, m1, AnchorSide::Lhs, Fact::source(s1)).collect_dedup();
        assert_eq!(homs.len(), 1);
    }

    #[test]
    fn multiple_assignments_enumerated_lazily() {
        // σ: S(x) -> exists Y: T(x, Y) with J containing T(1,b) and T(1,c):
        // the paper's example of two homs h1, h2 differing on Y.
        let mut s = Schema::new();
        s.rel("S", &["a"]);
        let mut t = Schema::new();
        t.rel("T", &["a", "b"]);
        let mut pool = ValuePool::new();
        let mut m = SchemaMapping::new(s.clone(), t.clone());
        let sid = m
            .add_st_tgd(parse_st_tgd(&s, &t, &mut pool, "m: S(x) -> exists Y: T(x,Y)").unwrap())
            .unwrap();
        let mut i = Instance::new(&s);
        i.insert_ok(s.rel_id("S").unwrap(), &[Value::Int(1)]);
        let mut j = Instance::new(&t);
        let tr = t.rel_id("T").unwrap();
        j.insert_ok(tr, &[Value::Int(1), Value::Int(10)]);
        j.insert_ok(tr, &[Value::Int(1), Value::Int(20)]);
        let env = RouteEnv::new(&m, &i, &j);
        let t0 = TupleId { rel: tr, row: 0 };
        let mut fh = FindHom::new(env, sid, AnchorSide::Rhs, Fact::target(t0));
        // Probing T(1,10): the anchor pins Y=10, so exactly one hom.
        let first = fh.next_hom().unwrap();
        assert_eq!(&*first, &[Value::Int(1), Value::Int(10)]);
        assert!(fh.next_hom().is_none());
        // Target tgd case with a free RHS atom would enumerate more; check
        // via a tgd whose RHS has an unanchored atom.
        let m2 = {
            let mut m2 = SchemaMapping::new(s.clone(), t.clone());
            m2.add_st_tgd(
                parse_st_tgd(&s, &t, &mut pool, "m: S(x) -> exists Y, Z: T(x,Y) & T(x,Z)").unwrap(),
            )
            .unwrap();
            m2
        };
        let env2 = RouteEnv::new(&m2, &i, &j);
        let homs =
            FindHom::new(env2, TgdId::St(0), AnchorSide::Rhs, Fact::target(t0)).collect_dedup();
        // Anchoring T(x,Y) on T(1,10): Z free over {10, 20} → 2 homs;
        // anchoring T(x,Z) on T(1,10): Y free → 2 homs; dedup → 3 distinct
        // (Y=10,Z=10), (Y=10,Z=20), (Y=20,Z=10).
        assert_eq!(homs.len(), 3);
    }

    #[test]
    fn batched_collect_all_matches_lazy_enumeration_order() {
        // A tgd with a free RHS atom so the enumeration has real fan-out and
        // per-anchor duplicates (see multiple_assignments_enumerated_lazily).
        let mut s = Schema::new();
        s.rel("S", &["a"]);
        let mut t = Schema::new();
        t.rel("T", &["a", "b"]);
        let mut pool = ValuePool::new();
        let mut m = SchemaMapping::new(s.clone(), t.clone());
        m.add_st_tgd(
            parse_st_tgd(&s, &t, &mut pool, "m: S(x) -> exists Y, Z: T(x,Y) & T(x,Z)").unwrap(),
        )
        .unwrap();
        let mut i = Instance::new(&s);
        i.insert_ok(s.rel_id("S").unwrap(), &[Value::Int(1)]);
        let mut j = Instance::new(&t);
        let tr = t.rel_id("T").unwrap();
        for b in [10, 20, 30] {
            j.insert_ok(tr, &[Value::Int(1), Value::Int(b)]);
        }
        let env = RouteEnv::new(&m, &i, &j);
        for row in 0..3 {
            let probe = Fact::target(TupleId { rel: tr, row });
            let mut lazy_fh = FindHom::new(env, TgdId::St(0), AnchorSide::Rhs, probe);
            let mut lazy = Vec::new();
            while let Some(h) = lazy_fh.next_hom() {
                lazy.push(h);
            }
            let batched = FindHom::new(env, TgdId::St(0), AnchorSide::Rhs, probe).collect_all();
            assert_eq!(lazy, batched, "row {row}");
            assert!(!lazy.is_empty());
        }
    }

    #[test]
    fn target_tgd_lhs_ranges_over_target() {
        let mut s = Schema::new();
        s.rel("S", &["a"]);
        let mut t = Schema::new();
        t.rel("T", &["a"]);
        t.rel("U", &["a"]);
        let mut pool = ValuePool::new();
        let mut m = SchemaMapping::new(s.clone(), t.clone());
        let tid = m
            .add_target_tgd(parse_target_tgd(&t, &mut pool, "m: T(x) -> U(x)").unwrap())
            .unwrap();
        let i = Instance::new(&s);
        let mut j = Instance::new(&t);
        j.insert_ok(t.rel_id("T").unwrap(), &[Value::Int(1)]);
        let u0 = j.insert_ok(t.rel_id("U").unwrap(), &[Value::Int(1)]);
        let env = RouteEnv::new(&m, &i, &j);
        let homs = FindHom::new(env, tid, AnchorSide::Rhs, Fact::target(u0)).collect_dedup();
        assert_eq!(homs.len(), 1);
        assert_eq!(&*homs[0], &[Value::Int(1)]);
    }
}
