//! The scenario text editor: applying [`EditOp`] batches to a scenario file.
//!
//! The canonical state of a live session is its scenario **text** — exactly
//! what `load_scenario_str` parses. Every mutation is therefore expressed as
//! a text edit, and the edited text is re-parsed through the one loader the
//! whole workspace shares. That keeps the incremental path honest: whatever
//! the delta machinery computes must equal what a from-scratch load of the
//! edited text produces, byte for byte.
//!
//! Supported ops (see [`EditOp`]):
//!
//! * `InsertTuple` — appends a `source data:` section holding the new row at
//!   the end of the document. The loader processes source rows in document
//!   order across all `source data:` sections, so appending at the end is
//!   exactly "insert after every existing row".
//! * `DeleteTuple` — removes the `row`-th distinct tuple of `relation`
//!   (instance row ids equal first-occurrence order of distinct rows), along
//!   with every duplicate data line spelling the same tuple.
//! * `AddTgd` — appends a `dependencies:` section holding the new
//!   dependency. `InsertTuple` and `AddTgd` first check that their `line`
//!   is one data row or one complete dependency: never a section header or
//!   a continuation.
//! * `DropTgd` — removes the named dependency's logical unit, including its
//!   continuation lines.
//!
//! Sections, rows and dependency units are found through the loader's
//! grammar API ([`routes_cli::loader`]), so the editor reads every line
//! exactly as the re-parse will: two data lines name the same row iff
//! their classified value tokens are equal. The only rule owned here is
//! which sections reject edits — scenarios using xml sections or an
//! explicit `target data:` section, since edits require the solution to be
//! chase-derived so the delta machinery can replay it.

use std::collections::HashMap;
use std::fmt;

use routes_cli::loader::{
    classify_value, load_scenario_str, push_dependency_line, section_header, split_call,
    split_values, strip_comment, LoadedScenario, Section, ValueToken,
};
use routes_store::EditOp;

/// Why an edit batch was rejected. All variants map to a client error (the
/// scenario text is left untouched).
#[derive(Debug)]
pub enum EditError {
    /// The scenario uses a feature edits do not support (xml sections,
    /// explicit target data).
    Unsupported(String),
    /// `delete_tuple` named a relation with no source-data rows.
    UnknownRelation(String),
    /// `delete_tuple` row index past the relation's current row count.
    RowOutOfRange {
        /// The relation named by the op.
        relation: String,
        /// The requested row.
        row: u32,
        /// The relation's current distinct-row count.
        len: u32,
    },
    /// `drop_tgd` named a dependency that does not exist.
    UnknownTgd(String),
    /// The edited text no longer loads, or an inserted row or dependency is
    /// not exactly one line of its section.
    Invalid(String),
    /// The edited text loads but the re-chase failed (e.g. chase failure
    /// from an egd equating constants, or the round limit).
    Chase(String),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::Unsupported(m) => write!(f, "unsupported scenario for edits: {m}"),
            EditError::UnknownRelation(r) => write!(f, "no source data rows for relation `{r}`"),
            EditError::RowOutOfRange { relation, row, len } => {
                write!(f, "row {row} out of range for `{relation}` ({len} rows)")
            }
            EditError::UnknownTgd(n) => write!(f, "no dependency named `{n}`"),
            EditError::Invalid(m) => write!(f, "edited scenario does not load: {m}"),
            EditError::Chase(m) => write!(f, "chase of edited scenario failed: {m}"),
        }
    }
}

impl std::error::Error for EditError {}

/// The section a comment-stripped, trimmed line opens, by the loader's
/// grammar. Headers of sections whose solution is not chase-derived are
/// errors: edits replay the chase.
fn edit_section(line: &str) -> Result<Option<Section>, EditError> {
    match section_header(line) {
        Some(Section::SourceXmlSchema | Section::TargetXmlSchema | Section::SourceXmlData) => Err(
            EditError::Unsupported("xml scenarios cannot be edited".into()),
        ),
        Some(Section::TargetData) => Err(EditError::Unsupported(
            "scenarios with explicit target data cannot be edited (the solution must be chased)"
                .into(),
        )),
        other => Ok(other),
    }
}

/// The content lines of a document as `(physical index, section,
/// comment-stripped trimmed text)`: every line that is neither blank nor a
/// section header.
fn content_lines(lines: &[String]) -> Result<Vec<(usize, Section, &str)>, EditError> {
    let mut section = Section::None;
    let mut out = Vec::new();
    for (i, raw) in lines.iter().enumerate() {
        let text = strip_comment(raw).trim();
        if text.is_empty() {
            continue;
        }
        match edit_section(text)? {
            Some(opened) => section = opened,
            None => out.push((i, section, text)),
        }
    }
    Ok(out)
}

/// A source-data line's relation and row key: its value tokens as the
/// loader classifies them, so two lines share a key exactly when the
/// loader reads them as the same tuple. `None` when the line is not a
/// well-formed row (the final re-parse reports it).
fn row_key(line: &str) -> Option<(&str, Vec<ValueToken<'_>>)> {
    let (name, inner) = split_call(line)?;
    let values = split_values(inner)
        .into_iter()
        .map(classify_value)
        .collect::<Option<_>>()?;
    Some((name, values))
}

/// Check an op's `line` before it is appended: one line, not a section
/// header, whose text `fits` its section (one data row, or one dependency).
fn check_op_line(line: &str, what: &str, fits: impl Fn(&str) -> bool) -> Result<(), EditError> {
    let text = strip_comment(line).trim();
    if fits(text) && !line.contains(['\n', '\r']) && section_header(text).is_none() {
        return Ok(());
    }
    let line = line.escape_debug();
    Err(EditError::Invalid(format!("`{line}` is not one {what}")))
}

/// Whether a dependency line is one complete unit on its own: fed between
/// two complete units through the loader's grouping, it neither continues
/// the first nor leaves itself open for the second to continue.
fn is_one_unit(text: &str) -> bool {
    let mut units = Vec::new();
    for (i, unit) in ["a -> b", text, "a -> b"].into_iter().enumerate() {
        push_dependency_line(&mut units, unit, i);
    }
    units.len() == 3
}

/// Remove the given physical lines (ascending indices) from the document.
fn remove_lines(lines: &mut Vec<String>, doomed: &[usize]) {
    for &i in doomed.iter().rev() {
        lines.remove(i);
    }
}

/// Apply one op to the document (a vector of owned lines).
fn apply_one(lines: &mut Vec<String>, op: &EditOp) -> Result<(), EditError> {
    match op {
        EditOp::InsertTuple { line } => {
            check_op_line(line, "data row", |text| row_key(text).is_some())?;
            lines.push("source data:".to_owned());
            lines.push(format!("  {line}"));
            Ok(())
        }
        EditOp::AddTgd { line } => {
            check_op_line(line, "complete dependency", is_one_unit)?;
            lines.push("dependencies:".to_owned());
            lines.push(format!("  {line}"));
            Ok(())
        }
        EditOp::DeleteTuple { relation, row } => {
            // Distinct tuples of `relation` in first-occurrence order — the
            // loader's instance assigns row ids in exactly this order — each
            // with the lines spelling it.
            let mut distinct: Vec<Vec<usize>> = Vec::new();
            let mut by_key: HashMap<Vec<ValueToken<'_>>, usize> = HashMap::new();
            for (i, section, text) in content_lines(lines)? {
                if section != Section::SourceData {
                    continue;
                }
                let Some((rel, key)) = row_key(text) else {
                    continue;
                };
                if rel != relation.as_str() {
                    continue;
                }
                let k = *by_key.entry(key).or_insert_with(|| {
                    distinct.push(Vec::new());
                    distinct.len() - 1
                });
                distinct[k].push(i);
            }
            if distinct.is_empty() {
                return Err(EditError::UnknownRelation(relation.clone()));
            }
            let Some(victim) = distinct.get(*row as usize) else {
                return Err(EditError::RowOutOfRange {
                    relation: relation.clone(),
                    row: *row,
                    len: distinct.len() as u32,
                });
            };
            remove_lines(lines, victim);
            Ok(())
        }
        EditOp::DropTgd { name } => {
            let mut units = Vec::new();
            for (i, section, text) in content_lines(lines)? {
                if section == Section::Dependencies {
                    push_dependency_line(&mut units, text, i);
                }
            }
            let Some(unit) = units.into_iter().find(|unit| {
                unit.text
                    .split_once(':')
                    .is_some_and(|(n, _)| n.trim() == name)
            }) else {
                return Err(EditError::UnknownTgd(name.clone()));
            };
            remove_lines(lines, &unit.lines);
            Ok(())
        }
    }
}

/// Apply an op batch to scenario text. Returns the edited text and its
/// parse; the input text is untouched on error. The loaded scenario is
/// guaranteed to have no explicit target and no xml sections, so the
/// solution is always chase-derived.
pub fn apply_edits(text: &str, ops: &[EditOp]) -> Result<(String, LoadedScenario), EditError> {
    // Up-front structural gate (also catches unsupported sections the ops
    // never go near).
    let mut doc: Vec<String> = text.lines().map(str::to_owned).collect();
    content_lines(&doc)?;
    for op in ops {
        apply_one(&mut doc, op)?;
    }
    let mut new_text = doc.join("\n");
    new_text.push('\n');
    let loaded = load_scenario_str(&new_text).map_err(|e| EditError::Invalid(e.to_string()))?;
    debug_assert!(loaded.target.is_none(), "target data rejected by scan");
    Ok((new_text, loaded))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = "\
source schema:
  S(a, b)
  R(b, c)
target schema:
  T(a, c)
dependencies:
  m1: S(x, y) & R(y, z) -> T(x, z)
source data:
  S(1, 2)
  S(3, 4)   # a comment
  S(1, 2)   # duplicate of row 0
  R(2, 9)
";

    #[test]
    fn insert_appends_a_row_at_the_end() {
        let op = EditOp::InsertTuple {
            line: "S(7, 8)".into(),
        };
        let (text, loaded) = apply_edits(BASE, &[op]).unwrap();
        assert!(text.ends_with("source data:\n  S(7, 8)\n"));
        let s = loaded.mapping.source().rel_id("S").unwrap();
        assert_eq!(loaded.source.rel_len(s), 3);
        // The new row is the last one.
        let last = loaded
            .source
            .tuple(routes_model::TupleId { rel: s, row: 2 });
        assert_eq!(last[0], routes_model::Value::Int(7));
    }

    #[test]
    fn delete_removes_the_indexed_distinct_row_and_its_duplicates() {
        let op = EditOp::DeleteTuple {
            relation: "S".into(),
            row: 0,
        };
        let (text, loaded) = apply_edits(BASE, &[op]).unwrap();
        assert!(!text.contains("S(1, 2)"));
        assert!(text.contains("S(3, 4)"));
        let s = loaded.mapping.source().rel_id("S").unwrap();
        assert_eq!(loaded.source.rel_len(s), 1);
        // Row ids shift down: S(3, 4) is now row 0.
        let first = loaded
            .source
            .tuple(routes_model::TupleId { rel: s, row: 0 });
        assert_eq!(first[0], routes_model::Value::Int(3));
    }

    #[test]
    fn delete_errors_carry_context() {
        let err = apply_edits(
            BASE,
            &[EditOp::DeleteTuple {
                relation: "Nope".into(),
                row: 0,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, EditError::UnknownRelation(_)), "{err}");
        let err = apply_edits(
            BASE,
            &[EditOp::DeleteTuple {
                relation: "S".into(),
                row: 9,
            }],
        )
        .unwrap_err();
        assert!(
            matches!(err, EditError::RowOutOfRange { len: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn add_and_drop_tgd_round_trip() {
        let add = EditOp::AddTgd {
            line: "m2: S(x, y) -> T(x, y)".into(),
        };
        let (text, loaded) = apply_edits(BASE, &[add]).unwrap();
        assert_eq!(loaded.mapping.st_tgds().len(), 2);
        assert_eq!(loaded.mapping.st_tgds()[1].name(), "m2");

        let drop = EditOp::DropTgd { name: "m2".into() };
        let (_, loaded2) = apply_edits(&text, &[drop]).unwrap();
        assert_eq!(loaded2.mapping.st_tgds().len(), 1);

        let err = apply_edits(BASE, &[EditOp::DropTgd { name: "zz".into() }]).unwrap_err();
        assert!(matches!(err, EditError::UnknownTgd(_)), "{err}");
    }

    #[test]
    fn drop_tgd_removes_continuation_lines() {
        let text = "\
source schema:
  S(a, b)
target schema:
  T(a, b)
  U(a)
dependencies:
  m1: S(x, y) &
      S(y, x)
      -> T(x, y)
  m2: S(x, y) -> U(x)
source data:
  S(1, 1)
";
        let (edited, loaded) = apply_edits(text, &[EditOp::DropTgd { name: "m1".into() }]).unwrap();
        assert_eq!(loaded.mapping.st_tgds().len(), 1);
        assert_eq!(loaded.mapping.st_tgds()[0].name(), "m2");
        assert!(!edited.contains("T(x, y)"));
    }

    #[test]
    fn unsupported_scenarios_are_rejected() {
        let with_target = format!("{BASE}target data:\n  T(1, 9)\n");
        let err = apply_edits(&with_target, &[]).unwrap_err();
        assert!(matches!(err, EditError::Unsupported(_)), "{err}");

        let bad_insert = EditOp::InsertTuple {
            line: "S(1)".into(),
        };
        let err = apply_edits(BASE, &[bad_insert]).unwrap_err();
        assert!(matches!(err, EditError::Invalid(_)), "{err}");
    }

    #[test]
    fn ops_apply_sequentially_within_a_batch() {
        // Delete row 0, then row 0 again: the second delete names the row
        // that shifted down.
        let ops = vec![
            EditOp::DeleteTuple {
                relation: "S".into(),
                row: 0,
            },
            EditOp::DeleteTuple {
                relation: "S".into(),
                row: 0,
            },
        ];
        let (_, loaded) = apply_edits(BASE, &ops).unwrap();
        let s = loaded.mapping.source().rel_id("S").unwrap();
        assert_eq!(loaded.source.rel_len(s), 0);
    }

    #[test]
    fn delete_tells_apart_rows_whose_joined_values_alias() {
        let text = "source schema:\n  S(a, b)\ntarget schema:\n  T(a, b)\n\
                    dependencies:\n  m: S(x, y) -> T(x, y)\n\
                    source data:\n  S('a,s:b', 'c')\n  S('a', 'b,s:c')\n";
        let delete = |row| EditOp::DeleteTuple {
            relation: "S".into(),
            row,
        };
        let (edited, loaded) = apply_edits(text, &[delete(1)]).unwrap();
        assert!(edited.contains("S('a,s:b', 'c')") && !edited.contains("S('a', 'b,s:c')"));
        assert_eq!(loaded.source.total_tuples(), 1);
        let (edited, _) = apply_edits(text, &[delete(0)]).unwrap();
        assert!(!edited.contains("S('a,s:b', 'c')") && edited.contains("S('a', 'b,s:c')"));
    }

    #[test]
    fn canon_tags_prevent_type_aliasing() {
        assert_eq!(row_key("S(5)"), Some(("S", vec![ValueToken::Int(5)])));
        assert_eq!(row_key("S('5')"), Some(("S", vec![ValueToken::Str("5")])));
        assert_eq!(row_key("S(n5)"), Some(("S", vec![ValueToken::Null("n5")])));
        assert_ne!(row_key("S(5)"), row_key("S('5')"));
    }
}
