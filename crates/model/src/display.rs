//! Human-readable rendering of tuples and facts (used by examples, the
//! debugger's watch window, and error messages).

use std::fmt::Write as _;

use crate::instance::{Fact, Instance, Side, TupleId};
use crate::schema::Schema;
use crate::value::ValuePool;

/// Render a tuple as `Rel(v1, v2, ...)`.
pub fn tuple_to_string(pool: &ValuePool, schema: &Schema, inst: &Instance, id: TupleId) -> String {
    let mut out = String::with_capacity(32);
    write_tuple(&mut out, pool, schema, inst, id);
    out
}

/// Append `Rel(v1, v2, ...)` to `out`: [`tuple_to_string`] without the
/// allocations, for callers that render many tuples into one buffer.
pub fn write_tuple(
    out: &mut String,
    pool: &ValuePool,
    schema: &Schema,
    inst: &Instance,
    id: TupleId,
) {
    out.push_str(schema.relation(id.rel).name());
    out.push('(');
    for col in 0..inst.arity(id.rel) {
        if col > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}", pool.display(inst.value_at(id, col)));
    }
    out.push(')');
}

/// Render a fact, choosing the right schema/instance by its [`Side`].
pub fn fact_to_string(
    pool: &ValuePool,
    source_schema: &Schema,
    target_schema: &Schema,
    source: &Instance,
    target: &Instance,
    fact: Fact,
) -> String {
    match fact.side {
        Side::Source => tuple_to_string(pool, source_schema, source, fact.id),
        Side::Target => tuple_to_string(pool, target_schema, target, fact.id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn renders_relation_name_and_values() {
        let mut pool = ValuePool::new();
        let mut s = Schema::new();
        let r = s.rel("Cards", &["cardNo", "limit"]);
        let mut inst = Instance::new(&s);
        let name = pool.str("J. Long");
        let id = inst.insert_ok(r, &[Value::Int(6689), name]);
        assert_eq!(
            tuple_to_string(&pool, &s, &inst, id),
            "Cards(6689, J. Long)"
        );
    }

    #[test]
    fn fact_rendering_picks_side() {
        let mut pool = ValuePool::new();
        let mut ss = Schema::new();
        let sr = ss.rel("S", &["a"]);
        let mut ts = Schema::new();
        let tr = ts.rel("T", &["a"]);
        let mut i = Instance::new(&ss);
        let mut j = Instance::new(&ts);
        let sid = i.insert_ok(sr, &[Value::Int(1)]);
        let tid = j.insert_ok(tr, &[pool.named_null("N1")]);
        assert_eq!(
            fact_to_string(&pool, &ss, &ts, &i, &j, Fact::source(sid)),
            "S(1)"
        );
        assert_eq!(
            fact_to_string(&pool, &ss, &ts, &i, &j, Fact::target(tid)),
            "T(N1)"
        );
    }
}
