//! Generating schema mappings from value correspondences — the front half
//! of the Clio workflow the paper sits on top of.
//!
//! In Clio, "a user gets to make associations between source and target
//! schema elements by specifying value correspondences ... Clio then
//! interprets these value correspondences into s-t tgds" (paper §2). This
//! module implements that interpretation for the relational case, following
//! the logical-association scheme of Popa et al. (*Translating Web Data*,
//! the paper's reference \[18\]):
//!
//! 1. Every relation anchors a **logical association**: the relation plus
//!    the chase of the schema's foreign keys (each child atom joined to its
//!    parent atom on the key columns).
//! 2. For every pair of a source and a target association that some
//!    correspondence connects, emit an s-t tgd: the source association is
//!    the LHS; the target association is the RHS with corresponded positions
//!    reusing LHS variables and every other position existentially
//!    quantified.
//! 3. Pairs whose correspondence set is strictly subsumed by another pair
//!    with the same anchor are pruned.
//!
//! [`fk_tgds`] additionally turns foreign keys into target tgds — exactly
//! how the paper built `Σt` for its real scenarios ("we used the foreign
//! key constraints of the target schemas as target tgds").
//!
//! The point of generating mappings here is the paper's motivation: the
//! generated mapping reflects the *correspondences*, and wrong or missing
//! correspondences (Figure 1's `maidenName → name`) yield exactly the bugs
//! the route debugger then finds.

use std::collections::{BTreeSet, HashMap};

use routes_model::{Atom, RelId, Schema, Term, Var};

use crate::dep::Tgd;
use crate::error::MappingError;
use crate::mapping::SchemaMapping;

/// A foreign key: `child_cols` of `child` reference `parent_cols` of
/// `parent` (positionally aligned).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Display name (e.g. the paper's `f1`).
    pub name: String,
    /// Referencing relation.
    pub child: RelId,
    /// Referencing columns.
    pub child_cols: Vec<u32>,
    /// Referenced relation.
    pub parent: RelId,
    /// Referenced (key) columns.
    pub parent_cols: Vec<u32>,
}

/// A value correspondence: one arrow of paper Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Correspondence {
    /// Source (relation, column).
    pub source: (RelId, u32),
    /// Target (relation, column).
    pub target: (RelId, u32),
}

/// A logical association: atoms over one schema joined along foreign keys,
/// with a dense variable space and per-atom variable tables.
#[derive(Debug, Clone)]
struct Association {
    /// The anchoring relation (read by tests; informative in debug output).
    #[cfg_attr(not(test), allow(dead_code))]
    anchor: RelId,
    atoms: Vec<Atom>,
    /// Relations present (first atom per relation wins correspondences).
    rels: BTreeSet<RelId>,
    var_names: Vec<String>,
}

/// Chase the foreign keys from an anchor relation: every atom whose
/// relation is some fk's child gets the parent atom joined in (each fk
/// applied at most once — guards fk cycles).
fn association(schema: &Schema, fks: &[ForeignKey], anchor: RelId) -> Association {
    let mut atoms: Vec<Atom> = Vec::new();
    let mut var_names: Vec<String> = Vec::new();
    let mut rels = BTreeSet::new();

    let add_atom = |rel: RelId, preset: &HashMap<u32, Var>, var_names: &mut Vec<String>| -> Atom {
        let relation = schema.relation(rel);
        let terms = (0..relation.arity() as u32)
            .map(|col| {
                Term::Var(match preset.get(&col) {
                    Some(&v) => v,
                    None => {
                        let v = Var(var_names.len() as u32);
                        var_names.push(format!(
                            "{}_{}",
                            relation.name().to_lowercase(),
                            relation.attrs()[col as usize]
                        ));
                        v
                    }
                })
            })
            .collect();
        Atom::new(rel, terms)
    };

    atoms.push(add_atom(anchor, &HashMap::new(), &mut var_names));
    rels.insert(anchor);

    let mut applied: BTreeSet<usize> = BTreeSet::new();
    loop {
        let mut fired = None;
        'search: for (k, fk) in fks.iter().enumerate() {
            if applied.contains(&k) {
                continue;
            }
            for atom in &atoms {
                if atom.rel == fk.child {
                    // Join the parent in, sharing the key variables.
                    let mut preset = HashMap::new();
                    for (cc, pc) in fk.child_cols.iter().zip(&fk.parent_cols) {
                        if let Term::Var(v) = atom.terms[*cc as usize] {
                            preset.insert(*pc, v);
                        }
                    }
                    fired = Some((k, fk.parent, preset));
                    break 'search;
                }
            }
        }
        match fired {
            Some((k, parent, preset)) => {
                applied.insert(k);
                atoms.push(add_atom(parent, &preset, &mut var_names));
                rels.insert(parent);
            }
            None => break,
        }
    }

    Association {
        anchor,
        atoms,
        rels,
        var_names,
    }
}

/// The variable at `(rel, col)` in an association (first atom of that
/// relation).
fn var_at(assoc: &Association, rel: RelId, col: u32) -> Option<Var> {
    assoc
        .atoms
        .iter()
        .find(|a| a.rel == rel)
        .and_then(|a| a.terms.get(col as usize).copied())
        .and_then(|t| t.as_var())
}

/// Generate the s-t tgds induced by `correspondences` (see module docs).
///
/// # Errors
/// Propagates dependency-construction errors (they indicate inconsistent
/// schema/fk inputs).
pub fn generate_st_tgds(
    source: &Schema,
    target: &Schema,
    source_fks: &[ForeignKey],
    target_fks: &[ForeignKey],
    correspondences: &[Correspondence],
) -> Result<Vec<Tgd>, MappingError> {
    let source_assocs: Vec<Association> = source
        .iter()
        .map(|(rel, _)| association(source, source_fks, rel))
        .collect();
    let target_assocs: Vec<Association> = target
        .iter()
        .map(|(rel, _)| association(target, target_fks, rel))
        .collect();

    // Correspondence set per (source assoc, target assoc) pair.
    let mut pairs: Vec<(usize, usize, BTreeSet<Correspondence>)> = Vec::new();
    for (si, sa) in source_assocs.iter().enumerate() {
        for (ti, ta) in target_assocs.iter().enumerate() {
            let corr: BTreeSet<Correspondence> = correspondences
                .iter()
                .filter(|c| sa.rels.contains(&c.source.0) && ta.rels.contains(&c.target.0))
                .copied()
                .collect();
            if !corr.is_empty() {
                pairs.push((si, ti, corr));
            }
        }
    }
    // Prune a pair only against pairs with the SAME source association:
    // either its correspondence set is strictly subsumed there (a larger
    // target association covers more arrows), or the sets are equal and the
    // other pair's target association is smaller (no dangling atoms).
    // Pruning across different source anchors would be wrong — the
    // Cards-only mapping must survive even though the SupplementaryCards ⋈
    // Cards mapping covers a superset of its arrows (cards without
    // supplementary cards still migrate).
    let subsumed = |a: &(usize, usize, BTreeSet<Correspondence>)| {
        pairs.iter().any(|b| {
            b.0 == a.0
                && b.1 != a.1
                && ((b.2.len() > a.2.len() && a.2.is_subset(&b.2))
                    || (b.2 == a.2
                        && target_assocs[b.1].atoms.len() < target_assocs[a.1].atoms.len()))
        })
    };
    let kept: Vec<&(usize, usize, BTreeSet<Correspondence>)> =
        pairs.iter().filter(|p| !subsumed(p)).collect();

    let mut tgds = Vec::new();
    let mut seen_text = BTreeSet::new();
    for (k, (si, ti, corr)) in kept.into_iter().enumerate() {
        let sa = &source_assocs[*si];
        let ta = &target_assocs[*ti];
        // Variable space: source vars first, then one var per target
        // position that is not corresponded (existential) — target fk-shared
        // positions reuse the same target variable.
        let mut var_names = sa.var_names.clone();
        let mut target_var: HashMap<Var, Var> = HashMap::new(); // ta var -> new var
        let mut rhs: Vec<Atom> = Vec::new();
        for atom in &ta.atoms {
            let terms = atom
                .terms
                .iter()
                .enumerate()
                .map(|(col, term)| {
                    let tv = term.as_var().expect("associations are all-variable");
                    // Corresponded position? (first matching correspondence
                    // wins, deterministically by BTreeSet order).
                    let from_corr = corr.iter().find(|c| {
                        c.target == (atom.rel, col as u32)
                            && var_at(ta, c.target.0, c.target.1) == Some(tv)
                    });
                    if let Some(c) = from_corr {
                        if let Some(v) = var_at(sa, c.source.0, c.source.1) {
                            return Term::Var(v);
                        }
                    }
                    // Existential (possibly shared through a target fk).
                    let v = *target_var.entry(tv).or_insert_with(|| {
                        let v = Var(var_names.len() as u32);
                        var_names.push(format!("E_{}", ta.var_names[tv.0 as usize].to_uppercase()));
                        v
                    });
                    Term::Var(v)
                })
                .collect();
            rhs.push(Atom::new(atom.rel, terms));
        }
        let tgd = Tgd::new(format!("gen{k}"), sa.atoms.clone(), rhs, var_names)?;
        // Some variables may be unused if the source association has atoms
        // irrelevant to the correspondences; Tgd::new rejects those — skip
        // such degenerate pairs rather than fail.
        let text = format!("{tgd:?}");
        if seen_text.insert(text) {
            tgds.push(tgd);
        }
    }
    Ok(tgds)
}

/// Turn foreign keys into (target) inclusion tgds:
/// `child(...) → ∃... parent(...)` sharing the key columns.
pub fn fk_tgds(schema: &Schema, fks: &[ForeignKey]) -> Result<Vec<Tgd>, MappingError> {
    fks.iter()
        .map(|fk| {
            let child_rel = schema.relation(fk.child);
            let parent_rel = schema.relation(fk.parent);
            let mut var_names: Vec<String> =
                child_rel.attrs().iter().map(|a| format!("c_{a}")).collect();
            let lhs = vec![Atom::new(
                fk.child,
                (0..child_rel.arity() as u32)
                    .map(|c| Term::Var(Var(c)))
                    .collect(),
            )];
            let rhs_terms = (0..parent_rel.arity() as u32)
                .map(|col| {
                    if let Some(pos) = fk.parent_cols.iter().position(|&pc| pc == col) {
                        Term::Var(Var(fk.child_cols[pos]))
                    } else {
                        let v = Var(var_names.len() as u32);
                        var_names.push(format!(
                            "P_{}",
                            parent_rel.attrs()[col as usize].to_uppercase()
                        ));
                        Term::Var(v)
                    }
                })
                .collect();
            let rhs = vec![Atom::new(fk.parent, rhs_terms)];
            Tgd::new(fk.name.clone(), lhs, rhs, var_names)
        })
        .collect()
}

/// Generate a complete mapping: correspondence-derived s-t tgds plus
/// fk-derived target tgds.
pub fn generate_mapping(
    source: &Schema,
    target: &Schema,
    source_fks: &[ForeignKey],
    target_fks: &[ForeignKey],
    correspondences: &[Correspondence],
) -> Result<SchemaMapping, MappingError> {
    let mut mapping = SchemaMapping::new(source.clone(), target.clone());
    for tgd in generate_st_tgds(source, target, source_fks, target_fks, correspondences)? {
        mapping.add_st_tgd(tgd)?;
    }
    for tgd in fk_tgds(target, target_fks)? {
        mapping.add_target_tgd(tgd)?;
    }
    Ok(mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use routes_model::ValuePool;

    /// The Figure 1 schemas.
    fn fargo_schemas() -> (Schema, Schema) {
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
        s.rel("SupplementaryCards", &["accNo", "ssn", "name", "address"]);
        s.rel(
            "FBAccounts",
            &["bankNo", "ssn", "name", "income", "address"],
        );
        s.rel("CreditCards", &["cardNo", "creditLimit", "custSSN"]);
        let mut t = Schema::new();
        t.rel("Accounts", &["accNo", "limit", "accHolder"]);
        t.rel(
            "Clients",
            &["ssn", "name", "maidenName", "income", "address"],
        );
        (s, t)
    }

    fn corr(s: &Schema, t: &Schema, src: (&str, &str), dst: (&str, &str)) -> Correspondence {
        let srel = s.rel_id(src.0).unwrap();
        let scol = s.relation(srel).attr_position(src.1).unwrap() as u32;
        let trel = t.rel_id(dst.0).unwrap();
        let tcol = t.relation(trel).attr_position(dst.1).unwrap() as u32;
        Correspondence {
            source: (srel, scol),
            target: (trel, tcol),
        }
    }

    /// The Figure 1 arrows, including the buggy `maidenName → name`.
    fn figure_1_correspondences(s: &Schema, t: &Schema) -> Vec<Correspondence> {
        vec![
            corr(s, t, ("Cards", "cardNo"), ("Accounts", "accNo")),
            corr(s, t, ("Cards", "limit"), ("Accounts", "limit")),
            corr(s, t, ("Cards", "ssn"), ("Accounts", "accHolder")),
            corr(s, t, ("Cards", "ssn"), ("Clients", "ssn")),
            corr(s, t, ("Cards", "maidenName"), ("Clients", "name")), // the bug
            corr(s, t, ("Cards", "maidenName"), ("Clients", "maidenName")),
            corr(s, t, ("Cards", "salary"), ("Clients", "income")),
            corr(s, t, ("SupplementaryCards", "ssn"), ("Clients", "ssn")),
            corr(s, t, ("SupplementaryCards", "name"), ("Clients", "name")),
            corr(
                s,
                t,
                ("SupplementaryCards", "address"),
                ("Clients", "address"),
            ),
            corr(s, t, ("FBAccounts", "ssn"), ("Clients", "ssn")),
            corr(s, t, ("FBAccounts", "name"), ("Clients", "name")),
            corr(s, t, ("FBAccounts", "income"), ("Clients", "income")),
            corr(s, t, ("FBAccounts", "address"), ("Clients", "address")),
            corr(s, t, ("CreditCards", "cardNo"), ("Accounts", "accNo")),
            corr(s, t, ("CreditCards", "creditLimit"), ("Accounts", "limit")),
            corr(s, t, ("CreditCards", "custSSN"), ("Accounts", "accHolder")),
        ]
    }

    fn target_fk(t: &Schema) -> ForeignKey {
        // Accounts.accHolder references Clients.ssn (the m4 direction).
        ForeignKey {
            name: "acc_holder".into(),
            child: t.rel_id("Accounts").unwrap(),
            child_cols: vec![2],
            parent: t.rel_id("Clients").unwrap(),
            parent_cols: vec![0],
        }
    }

    #[test]
    fn fk_tgds_reproduce_m4() {
        let (_, t) = fargo_schemas();
        let tgds = fk_tgds(&t, &[target_fk(&t)]).unwrap();
        assert_eq!(tgds.len(), 1);
        let pool = ValuePool::new();
        let text = crate::display::tgd_to_string(&pool, &t, &t, &tgds[0]);
        // m4: Accounts(a, l, s) -> exists ...: Clients(s, ...).
        assert!(
            text.contains("Accounts(c_accNo, c_limit, c_accHolder)"),
            "{text}"
        );
        assert!(text.contains("Clients(c_accHolder,"), "{text}");
        assert_eq!(tgds[0].existential_vars().count(), 4);
    }

    #[test]
    fn generation_without_f1_reproduces_the_buggy_m2() {
        // Without the SupplementaryCards → Cards fk, the supplementary
        // association is the lone relation: the generated tgd is the
        // paper's (buggy) m2, missing the sponsoring card.
        let (s, t) = fargo_schemas();
        let corrs = figure_1_correspondences(&s, &t);
        let tgds = generate_st_tgds(&s, &t, &[], &[], &corrs).unwrap();
        let pool = ValuePool::new();
        let texts: Vec<String> = tgds
            .iter()
            .map(|g| crate::display::tgd_to_string(&pool, &s, &t, g))
            .collect();
        let m2_like = texts
            .iter()
            .find(|x| x.contains("SupplementaryCards(") && !x.contains("& Cards("))
            .unwrap_or_else(|| panic!("expected a supplementary-only tgd in {texts:#?}"));
        // LHS mentions only SupplementaryCards; RHS only Clients.
        assert!(!m2_like.contains("FBAccounts"));
        assert!(m2_like.contains("-> exists"));
        assert!(
            m2_like.contains("Clients(supplementarycards_ssn, supplementarycards_name,"),
            "{m2_like}"
        );
    }

    #[test]
    fn f1_fixes_m2_and_f2_fixes_m3() {
        let (s, t) = fargo_schemas();
        let corrs = figure_1_correspondences(&s, &t);
        let f1 = ForeignKey {
            name: "f1".into(),
            child: s.rel_id("SupplementaryCards").unwrap(),
            child_cols: vec![0],
            parent: s.rel_id("Cards").unwrap(),
            parent_cols: vec![0],
        };
        let f2 = ForeignKey {
            name: "f2".into(),
            child: s.rel_id("CreditCards").unwrap(),
            child_cols: vec![2],
            parent: s.rel_id("FBAccounts").unwrap(),
            parent_cols: vec![1],
        };
        let tfk = target_fk(&t);
        let tgds = generate_st_tgds(&s, &t, &[f1, f2], std::slice::from_ref(&tfk), &corrs).unwrap();
        let pool = ValuePool::new();
        let texts: Vec<String> = tgds
            .iter()
            .map(|g| crate::display::tgd_to_string(&pool, &s, &t, g))
            .collect();
        // m2'-like: supplementary cards joined with their sponsoring card.
        assert!(
            texts
                .iter()
                .any(|x| x.contains("SupplementaryCards(") && x.contains("& Cards(")),
            "{texts:#?}"
        );
        // m3'-like: credit cards joined with FBAccounts on custSSN, with the
        // shared variable in both atoms.
        let m3 = texts
            .iter()
            .find(|x| x.contains("CreditCards(") && x.contains("FBAccounts("))
            .unwrap_or_else(|| panic!("{texts:#?}"));
        assert!(m3.contains("creditcards_custSSN"), "{m3}");
        assert!(m3.matches("creditcards_custSSN").count() >= 2, "{m3}");
    }

    #[test]
    fn target_fk_pulls_clients_into_account_mappings() {
        // With the accHolder → ssn fk, the Accounts-anchored target
        // association contains Clients, so the Cards tgd gets both atoms —
        // the shape of the paper's m1.
        let (s, t) = fargo_schemas();
        let corrs = figure_1_correspondences(&s, &t);
        let tgds = generate_st_tgds(&s, &t, &[], &[target_fk(&t)], &corrs).unwrap();
        let pool = ValuePool::new();
        let m1 = tgds
            .iter()
            .map(|g| crate::display::tgd_to_string(&pool, &s, &t, g))
            .find(|x| {
                x.starts_with("gen") && x.contains("Cards(cards_cardNo") && x.contains("Accounts(")
            })
            .expect("a Cards → Accounts & Clients tgd");
        assert!(m1.contains("& Clients("), "{m1}");
        // The buggy correspondence propagates: Clients.name gets the
        // maidenName variable.
        assert!(
            m1.contains("Clients(cards_ssn, cards_maidenName, cards_maidenName"),
            "{m1}"
        );
    }

    #[test]
    fn generated_mapping_is_well_formed() {
        let (s, t) = fargo_schemas();
        let corrs = figure_1_correspondences(&s, &t);
        let mapping = generate_mapping(&s, &t, &[], &[target_fk(&t)], &corrs).unwrap();
        assert!(!mapping.st_tgds().is_empty());
        assert_eq!(mapping.target_tgds().len(), 1);
        assert!(crate::acyclicity::is_weakly_acyclic(&mapping));
    }

    #[test]
    fn fk_cycles_terminate() {
        let mut s = Schema::new();
        let a = s.rel("A", &["id", "b_ref"]);
        let b = s.rel("B", &["id", "a_ref"]);
        let fks = [
            ForeignKey {
                name: "ab".into(),
                child: a,
                child_cols: vec![1],
                parent: b,
                parent_cols: vec![0],
            },
            ForeignKey {
                name: "ba".into(),
                child: b,
                child_cols: vec![1],
                parent: a,
                parent_cols: vec![0],
            },
        ];
        let assoc = association(&s, &fks, a);
        // Each fk applied once: A, B (via ab), A again (via ba).
        assert_eq!(assoc.atoms.len(), 3);
        assert_eq!(assoc.anchor, a);
    }
}
