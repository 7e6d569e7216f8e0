//! The debugging environment: a schema mapping together with a concrete
//! source instance and a solution.

use routes_mapping::{SchemaMapping, TgdId, TgdKind};
use routes_model::{Fact, Instance, Side, TupleId, Value};

/// Everything the route algorithms take as input: the mapping `M`, the
/// source instance `I`, and a solution `J` for `I` under `M`.
///
/// `J` may be *any* solution (paper Definition 3.3) — in particular it may
/// contain tuples with no route at all; the algorithms detect those.
#[derive(Clone, Copy)]
pub struct RouteEnv<'a> {
    /// The schema mapping being debugged.
    pub mapping: &'a SchemaMapping,
    /// The source instance `I`.
    pub source: &'a Instance,
    /// The solution `J`.
    pub target: &'a Instance,
}

impl<'a> RouteEnv<'a> {
    /// Bundle a mapping with its instances.
    pub fn new(mapping: &'a SchemaMapping, source: &'a Instance, target: &'a Instance) -> Self {
        RouteEnv {
            mapping,
            source,
            target,
        }
    }

    /// The instance a tgd's LHS ranges over: `I` for s-t tgds, `J` for
    /// target tgds (the `K` of paper Figure 4).
    pub fn lhs_instance(&self, id: TgdId) -> &'a Instance {
        match id.kind() {
            TgdKind::SourceToTarget => self.source,
            TgdKind::Target => self.target,
        }
    }

    /// Which side a tgd's LHS facts live on.
    pub fn lhs_side(&self, id: TgdId) -> Side {
        match id.kind() {
            TgdKind::SourceToTarget => Side::Source,
            TgdKind::Target => Side::Target,
        }
    }

    /// Materialize the image of an atom list under a total assignment and
    /// resolve each image tuple in the given instance. Returns `None` if any
    /// image tuple is absent (the assignment is not a homomorphism into it).
    pub fn resolve_atom_images(
        &self,
        atoms: &[routes_model::Atom],
        hom: &[Value],
        instance: &Instance,
        side: Side,
    ) -> Option<Vec<Fact>> {
        let mut out = Vec::with_capacity(atoms.len());
        let mut buf: Vec<Value> = Vec::new();
        for atom in atoms {
            buf.clear();
            for term in &atom.terms {
                buf.push(match term {
                    routes_model::Term::Const(c) => *c,
                    routes_model::Term::Var(v) => hom[v.0 as usize],
                });
            }
            let id = instance.find(atom.rel, &buf)?;
            out.push(Fact { side, id });
        }
        Some(out)
    }

    /// The LHS facts of a step `(σ, h)`: source facts for s-t tgds, target
    /// facts for target tgds. `None` if `h` is not a homomorphism of the LHS
    /// into the appropriate instance.
    pub fn lhs_facts(&self, id: TgdId, hom: &[Value]) -> Option<Vec<Fact>> {
        let tgd = self.mapping.tgd(id);
        self.resolve_atom_images(tgd.lhs(), hom, self.lhs_instance(id), self.lhs_side(id))
    }

    /// The RHS tuples of a step `(σ, h)` (always target side). `None` if
    /// `h(ψ) ⊄ J`.
    pub fn rhs_tuples(&self, id: TgdId, hom: &[Value]) -> Option<Vec<TupleId>> {
        let tgd = self.mapping.tgd(id);
        let facts = self.resolve_atom_images(tgd.rhs(), hom, self.target, Side::Target)?;
        Some(facts.into_iter().map(|f| f.id).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routes_mapping::parse_st_tgd;
    use routes_model::{Schema, ValuePool};

    #[test]
    fn resolves_step_images() {
        let mut s = Schema::new();
        s.rel("S", &["a", "b"]);
        let mut t = Schema::new();
        t.rel("T", &["a", "b"]);
        let mut pool = ValuePool::new();
        let mut m = SchemaMapping::new(s.clone(), t.clone());
        let id = m
            .add_st_tgd(parse_st_tgd(&s, &t, &mut pool, "m: S(x,y) -> exists Z: T(x,Z)").unwrap())
            .unwrap();
        let mut i = Instance::new(&s);
        let mut j = Instance::new(&t);
        let sid = i.insert_ok(s.rel_id("S").unwrap(), &[Value::Int(1), Value::Int(2)]);
        let n = pool.named_null("N");
        let tid = j.insert_ok(t.rel_id("T").unwrap(), &[Value::Int(1), n]);
        let env = RouteEnv::new(&m, &i, &j);
        // hom: x=1, y=2, Z=N.
        let hom = vec![Value::Int(1), Value::Int(2), n];
        assert_eq!(env.lhs_facts(id, &hom), Some(vec![Fact::source(sid)]));
        assert_eq!(env.rhs_tuples(id, &hom), Some(vec![tid]));
        // A non-homomorphism resolves to None.
        let bad = vec![Value::Int(7), Value::Int(2), n];
        assert_eq!(env.lhs_facts(id, &bad), None);
        assert_eq!(env.rhs_tuples(id, &bad), None);
    }
}
