//! `findHom` (paper Figure 4): lazily enumerate assignments `h = v1 ∪ v2 ∪ v3`
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
//! Assignments are fetched **one at a time** (paper §3.3), which is what
//! makes `ComputeOneRoute` fast: it stops at the first assignment.
//!
//! The same machinery anchored on the **LHS** supports routes for selected
//! *source* tuples (§3.4): see [`AnchorSide::Lhs`].

use routes_mapping::{Tgd, TgdId};
use routes_model::{Fact, Instance, Value};
use routes_query::{
    batch_matches_with_plan, plan, plan_with_bound, unify_atom, BatchOptions, BindingBatch,
    Bindings, MatchIter,
};

use crate::env::RouteEnv;

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

/// Lazy iterator over the total assignments of one tgd that witness one
/// tuple. See the module docs.
pub struct FindHom<'a> {
    tgd: &'a Tgd,
    lhs_instance: &'a Instance,
    target: &'a Instance,
    tuple_values: Vec<Value>,
    /// Indices of candidate anchor atoms (on the anchor side) over the
    /// probed tuple's relation.
    anchors: Vec<usize>,
    anchor_side: AnchorSide,
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
        let tgd = env.mapping.tgd(id);
        let lhs_instance = env.lhs_instance(id);
        let (anchor_atoms, probe_instance): (&[routes_model::Atom], &Instance) = match side {
            AnchorSide::Rhs => {
                debug_assert_eq!(probe.side, routes_model::Side::Target);
                (tgd.rhs(), env.target)
            }
            AnchorSide::Lhs => {
                debug_assert_eq!(probe.side, env.lhs_side(id));
                (tgd.lhs(), lhs_instance)
            }
        };
        let tuple_values = probe_instance.tuple(probe.id);
        let anchors = anchor_atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.rel == probe.id.rel)
            .map(|(i, _)| i)
            .collect();
        FindHom {
            tgd,
            lhs_instance,
            target: env.target,
            tuple_values,
            anchors,
            anchor_side: side,
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
                    self.stage_b = Some(MatchIter::new(self.target, self.tgd.rhs(), b.clone()));
                    continue;
                }
                self.stage_a = None;
            }
            // Stage 1 (v1): next anchor atom.
            let anchor_atoms = match self.anchor_side {
                AnchorSide::Rhs => self.tgd.rhs(),
                AnchorSide::Lhs => self.tgd.lhs(),
            };
            let anchor_idx = loop {
                let idx = *self.anchors.get(self.anchor_pos)?;
                self.anchor_pos += 1;
                let mut v1 = Bindings::new(self.tgd.var_count());
                if unify_atom(&anchor_atoms[idx], &self.tuple_values, &mut v1) {
                    self.stage_a = Some(MatchIter::new(self.lhs_instance, self.tgd.lhs(), v1));
                    break idx;
                }
            };
            let _ = anchor_idx;
        }
    }

    /// Drain the **entire** remaining enumeration through the vectorized
    /// batch executor: per anchor, the LHS completion runs as one batch
    /// pipeline and its result batch seeds the RHS completion directly (all
    /// LHS matches of one anchor share a bound-variable set, so the RHS is
    /// planned once).
    ///
    /// The output sequence is exactly what repeated [`FindHom::next_hom`]
    /// calls would yield — the lazy nesting "for each LHS match, drain the
    /// RHS" is the input-major order the batch pipeline preserves — including
    /// the per-anchor duplicates the lazy path produces. Full-enumeration
    /// callers (`computeAllRoutes` forest expansion) use this; route-by-route
    /// callers keep [`FindHom::next_hom`], whose cost is proportional to how
    /// far the search advances.
    ///
    /// Must be called on a fresh iterator (before any `next_hom`).
    pub fn collect_all(mut self) -> Vec<Box<[Value]>> {
        assert!(
            self.anchor_pos == 0 && self.stage_a.is_none() && self.stage_b.is_none(),
            "collect_all drains a fresh FindHom"
        );
        let anchor_atoms = match self.anchor_side {
            AnchorSide::Rhs => self.tgd.rhs(),
            AnchorSide::Lhs => self.tgd.lhs(),
        };
        let opts = BatchOptions::default();
        let mut out = Vec::new();
        for &idx in &self.anchors {
            self.anchor_pos += 1;
            let mut v1 = Bindings::new(self.tgd.var_count());
            if !unify_atom(&anchor_atoms[idx], &self.tuple_values, &mut v1) {
                continue;
            }
            // Stage A (v2): all LHS completions of v1, batched. Planned the
            // same way `MatchIter::new` would plan for v1.
            let lhs_order = plan(self.lhs_instance, self.tgd.lhs(), &v1);
            let seeds = BindingBatch::seed(&v1);
            let lhs_batch = batch_matches_with_plan(
                self.lhs_instance,
                self.tgd.lhs(),
                &lhs_order,
                &seeds,
                &opts,
            );
            if lhs_batch.is_empty() {
                continue;
            }
            // Stage B (v3): the RHS completion of every LHS match, batched.
            // Each LHS match binds the same variable set, so one plan covers
            // the whole batch — identical to the per-match plan the lazy
            // path computes.
            let rhs_order =
                plan_with_bound(self.target, self.tgd.rhs(), lhs_batch.bound_vars().to_vec());
            let final_batch =
                batch_matches_with_plan(self.target, self.tgd.rhs(), &rhs_order, &lhs_batch, &opts);
            for row in 0..final_batch.len() {
                out.push(
                    final_batch
                        .total(row)
                        .expect("all tgd variables occur in LHS ∪ RHS")
                        .into_boxed_slice(),
                );
            }
        }
        out
    }

    /// Collect all assignments, deduplicated (first occurrence wins),
    /// through the batched [`FindHom::collect_all`]. Must be called on a
    /// fresh iterator.
    pub fn collect_dedup(self) -> Vec<Box<[Value]>> {
        let mut seen = std::collections::HashSet::new();
        let mut out = self.collect_all();
        out.retain(|h| seen.insert(h.clone()));
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
