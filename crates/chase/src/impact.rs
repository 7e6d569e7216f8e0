//! Mapping-edit impact analysis: how does changing the schema mapping
//! change the solution?
//!
//! The paper's Scenario 1 ends with "Ideally, we would also like to be able
//! to simultaneously demonstrate how the modification of `m1` to `m1'`
//! affects tuples in `J`. This is one of our future work." This module is
//! that feature: chase the source under both the original and the edited
//! mapping and diff the two solutions.
//!
//! Labeled nulls are invented fresh on every chase, so raw tuple equality
//! would call every null-carrying tuple "changed". The diff therefore
//! compares tuples by their **null-canonical skeleton**: nulls are renamed
//! `⊥0, ⊥1, ...` in order of first occurrence within the tuple, which
//! preserves intra-tuple equality patterns (`T(N, N)` ≠ `T(N, M)`) while
//! ignoring null identity. This is a per-tuple approximation of solution
//! isomorphism — cheap, deterministic, and exactly the granularity a
//! mapping designer inspects tuples at.

use std::collections::HashMap;

use routes_mapping::SchemaMapping;
use routes_model::{Instance, NullId, RelId, Schema, Value, ValuePool};

use crate::engine::{chase, ChaseOptions};
use crate::result::ChaseError;

/// A tuple rendered with canonically renamed nulls.
pub type Skeleton = (RelId, Box<[Value]>);

/// The effect of a mapping edit on the solution.
#[derive(Debug, Clone, Default)]
pub struct ImpactReport {
    /// Tuple skeletons present (more often) in the new solution, with
    /// multiplicity difference.
    pub added: Vec<(Skeleton, usize)>,
    /// Tuple skeletons present (more often) in the old solution.
    pub removed: Vec<(Skeleton, usize)>,
    /// Number of skeleton-identical tuples shared by both solutions.
    pub unchanged: usize,
    /// Total tuples in the old solution.
    pub old_total: usize,
    /// Total tuples in the new solution.
    pub new_total: usize,
}

impl ImpactReport {
    /// Whether the edit changed the solution at all (up to null renaming).
    pub fn is_noop(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Canonicalize a tuple's nulls to `⊥0, ⊥1, ...` in order of first
/// occurrence.
fn skeleton(values: &[Value]) -> Box<[Value]> {
    let mut mapping: HashMap<NullId, u32> = HashMap::new();
    values
        .iter()
        .map(|v| match v {
            Value::Null(n) => {
                let next = mapping.len() as u32;
                Value::Null(NullId(*mapping.entry(*n).or_insert(next)))
            }
            other => *other,
        })
        .collect()
}

/// Diff two solutions over the same target schema by null-canonical tuple
/// skeletons.
pub fn solution_diff(schema: &Schema, old: &Instance, new: &Instance) -> ImpactReport {
    let mut counts: HashMap<Skeleton, (usize, usize)> = HashMap::new();
    for (rel, _) in schema.iter() {
        for (_, values) in old.rel_tuples(rel) {
            counts.entry((rel, skeleton(&values))).or_default().0 += 1;
        }
        for (_, values) in new.rel_tuples(rel) {
            counts.entry((rel, skeleton(&values))).or_default().1 += 1;
        }
    }
    let mut report = ImpactReport {
        old_total: old.total_tuples(),
        new_total: new.total_tuples(),
        ..ImpactReport::default()
    };
    let mut entries: Vec<(Skeleton, (usize, usize))> = counts.into_iter().collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    for (skel, (old_n, new_n)) in entries {
        report.unchanged += old_n.min(new_n);
        if new_n > old_n {
            report.added.push((skel, new_n - old_n));
        } else if old_n > new_n {
            report.removed.push((skel, old_n - new_n));
        }
    }
    report
}

/// Chase `source` under both mappings and report the solution difference.
///
/// Both mappings must share the same target schema (relation names and
/// arities); the source schemas may differ as long as `source` is valid for
/// both (editing tgds does not change schemas).
///
/// # Errors
/// Propagates a chase failure from either mapping (e.g. an egd conflict the
/// edit introduced — itself a useful debugging signal).
pub fn mapping_impact(
    old_mapping: &SchemaMapping,
    new_mapping: &SchemaMapping,
    source: &Instance,
    pool: &mut ValuePool,
    options: ChaseOptions,
) -> Result<ImpactReport, ChaseError> {
    let old = chase(old_mapping, source, pool, options)?;
    let new = chase(new_mapping, source, pool, options)?;
    Ok(solution_diff(
        new_mapping.target(),
        &old.target,
        &new.target,
    ))
}

/// Render an impact report as text (up to `limit` rows per direction).
pub fn impact_to_string(
    pool: &ValuePool,
    schema: &Schema,
    report: &ImpactReport,
    limit: usize,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "solution changed: {} tuple(s) -> {} tuple(s); {} unchanged, {} removed, {} added\n",
        report.old_total,
        report.new_total,
        report.unchanged,
        report.removed.len(),
        report.added.len(),
    ));
    let render = |out: &mut String, label: &str, rows: &[(Skeleton, usize)]| {
        for ((rel, values), count) in rows.iter().take(limit) {
            let rendered: Vec<String> = values
                .iter()
                .map(|v| match v {
                    Value::Null(n) => format!("_{}", n.0),
                    other => pool.value_to_string(*other),
                })
                .collect();
            let mult = if *count > 1 {
                format!(" (x{count})")
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  {label} {}({}){}\n",
                schema.relation(*rel).name(),
                rendered.join(", "),
                mult
            ));
        }
        if rows.len() > limit {
            out.push_str(&format!("  ... and {} more\n", rows.len() - limit));
        }
    };
    render(&mut out, "-", &report.removed);
    render(&mut out, "+", &report.added);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use routes_mapping::parse_st_tgd;

    #[test]
    fn skeleton_canonicalizes_null_patterns() {
        let mut pool = ValuePool::new();
        let n1 = pool.named_null("N1");
        let n2 = pool.named_null("N2");
        let n9 = pool.named_null("N9");
        // Same pattern, different null identities → same skeleton.
        assert_eq!(
            skeleton(&[n1, Value::Int(1), n1]),
            skeleton(&[n9, Value::Int(1), n9])
        );
        // Different patterns → different skeletons.
        assert_ne!(
            skeleton(&[n1, Value::Int(1), n1]),
            skeleton(&[n1, Value::Int(1), n2])
        );
    }

    /// The paper's Scenario 1 fix: m1 (maiden name copied into name, no
    /// address) edited to m1' (correct name, location mapped to address).
    #[test]
    fn scenario_1_edit_impact() {
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

        let mut old_m = SchemaMapping::new(s.clone(), t.clone());
        old_m
            .add_st_tgd(
                parse_st_tgd(
                    &s, &t, &mut pool,
                    "m1: Cards(cn,l,s,n,m,sal,loc) -> exists A: Accounts(cn,l,s) & Clients(s,m,m,sal,A)",
                )
                .unwrap(),
            )
            .unwrap();
        let mut new_m = SchemaMapping::new(s.clone(), t.clone());
        new_m
            .add_st_tgd(
                parse_st_tgd(
                    &s,
                    &t,
                    &mut pool,
                    "m1: Cards(cn,l,s,n,m,sal,loc) -> Accounts(cn,l,s) & Clients(s,n,m,sal,loc)",
                )
                .unwrap(),
            )
            .unwrap();

        let mut i = Instance::new(&s);
        let (jlong, smith, seattle) = (pool.str("J. Long"), pool.str("Smith"), pool.str("Seattle"));
        i.insert_ok(
            s.rel_id("Cards").unwrap(),
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

        let report = mapping_impact(&old_m, &new_m, &i, &mut pool, ChaseOptions::fresh()).unwrap();
        assert!(!report.is_noop());
        // Accounts unchanged; the Clients tuple is replaced.
        assert_eq!(report.unchanged, 1);
        assert_eq!(report.removed.len(), 1);
        assert_eq!(report.added.len(), 1);
        let ((_, removed), _) = &report.removed[0];
        assert_eq!(removed[1], smith); // old name = maiden name
        assert!(removed[4].is_null()); // old address = null
        let ((_, added), _) = &report.added[0];
        assert_eq!(added[1], jlong);
        assert_eq!(added[4], seattle);

        let text = impact_to_string(&pool, &t, &report, 10);
        assert!(text.contains("- Clients(434, Smith, Smith, 50, _0)"));
        assert!(text.contains("+ Clients(434, J. Long, Smith, 50, Seattle)"));
    }

    #[test]
    fn identical_mappings_are_noop() {
        let mut s = Schema::new();
        s.rel("S", &["a"]);
        let mut t = Schema::new();
        t.rel("T", &["a", "b"]);
        let mut pool = ValuePool::new();
        let mut m = SchemaMapping::new(s.clone(), t.clone());
        m.add_st_tgd(parse_st_tgd(&s, &t, &mut pool, "m: S(x) -> exists Y: T(x,Y)").unwrap())
            .unwrap();
        let mut i = Instance::new(&s);
        i.insert_ok(s.rel_id("S").unwrap(), &[Value::Int(1)]);
        // Two chases invent different nulls; the skeleton diff sees through
        // that.
        let report = mapping_impact(&m, &m, &i, &mut pool, ChaseOptions::fresh()).unwrap();
        assert!(report.is_noop());
        assert_eq!(report.unchanged, 1);
    }

    #[test]
    fn removed_tgd_drops_tuples() {
        let mut s = Schema::new();
        s.rel("S", &["a"]);
        let mut t = Schema::new();
        t.rel("T", &["a"]);
        t.rel("U", &["a"]);
        let mut pool = ValuePool::new();
        let mut old_m = SchemaMapping::new(s.clone(), t.clone());
        old_m
            .add_st_tgd(parse_st_tgd(&s, &t, &mut pool, "a: S(x) -> T(x)").unwrap())
            .unwrap();
        old_m
            .add_st_tgd(parse_st_tgd(&s, &t, &mut pool, "b: S(x) -> U(x)").unwrap())
            .unwrap();
        let mut new_m = SchemaMapping::new(s.clone(), t.clone());
        new_m
            .add_st_tgd(parse_st_tgd(&s, &t, &mut pool, "a: S(x) -> T(x)").unwrap())
            .unwrap();
        let mut i = Instance::new(&s);
        i.insert_ok(s.rel_id("S").unwrap(), &[Value::Int(1)]);
        i.insert_ok(s.rel_id("S").unwrap(), &[Value::Int(2)]);
        let report = mapping_impact(&old_m, &new_m, &i, &mut pool, ChaseOptions::fresh()).unwrap();
        assert_eq!(report.removed.len(), 2); // both U tuples gone
        assert!(report.added.is_empty());
        assert_eq!(report.unchanged, 2);
    }
}
