//! The scenario file format.
//!
//! ```text
//! # The paper's Figure 1/2 scenario.
//! source schema:
//!   Cards(cardNo, limit, ssn, name, maidenName, salary, location)
//! target schema:
//!   Accounts(accNo, limit, accHolder)
//! dependencies:
//!   m1: Cards(cn, l, s, n, m, sal, loc) -> exists A: Accounts(cn, l, s)
//! source data:
//!   Cards(6689, '15K', 434, 'J. Long', 'Smith', '50K', 'Seattle')
//! target data:            # optional; omit to chase instead
//!   Accounts(6689, '15K', 434)
//! ```
//!
//! Value syntax in data sections: integers are numeric literals, string
//! constants are quoted, and **bare identifiers are labeled nulls** (`N1`,
//! `A1` — exactly how the paper writes Figure 2's solution).
//!
//! ## Multi-stage pipeline scenarios
//!
//! A scenario file containing `stage <name>:` headers describes a **mapping
//! pipeline** `S → T₁ → … → Tₙ` ([`load_pipeline_str`]). Each stage block
//! declares its own `source schema:`, `target schema:`, and
//! `dependencies:`; consecutive stages must compose (a stage's source
//! schema is the previous stage's target schema). `source data:` is global
//! and feeds the first stage. An optional `pipeline:` section holds
//! per-session options — currently `core: on` to minimize every chased
//! instance to its core before the next hop:
//!
//! ```text
//! pipeline:
//!   core: on
//! stage clean:
//!   source schema:
//!     S(a, b)
//!   target schema:
//!     T(a, b)
//!   dependencies:
//!     m1: S(x, y) -> T(x, y)
//! stage publish:
//!   source schema:
//!     T(a, b)
//!   target schema:
//!     U(a)
//!   dependencies:
//!     m2: T(x, y) -> U(x)
//! source data:
//!   S(1, 2)
//! ```
//!
//! ## The grammar API
//!
//! This module is the one owner of the line grammar. Code that reads or
//! rewrites scenario text without loading it — `routes-incr`'s editor
//! finds data rows and dependency units this way — goes through the same
//! functions the loaders use: [`strip_comment`], [`section_header`],
//! [`split_call`], [`split_values`], [`classify_value`] and
//! [`push_dependency_line`].

use std::fmt;

use routes_mapping::{
    check_stage_compatibility, parse_dependency, parse_stage_header, MappingError, SchemaMapping,
};
use routes_model::{Instance, ModelError, Schema, Value, ValuePool};
use routes_nested::{encode_instance, encode_schema, NestedInstance, NestedSchema};
use routes_pipeline::{Pipeline, PipelineStage};

/// A parsed scenario: mapping, source instance, and optional explicit
/// target instance.
#[derive(Debug)]
pub struct LoadedScenario {
    /// The shared value pool.
    pub pool: ValuePool,
    /// The schema mapping.
    pub mapping: SchemaMapping,
    /// The source instance.
    pub source: Instance,
    /// The target instance, if the file supplied one (otherwise the caller
    /// chases).
    pub target: Option<Instance>,
    /// The nested source schema, when the file used `source xml schema:`
    /// (its record relations appear in the flat source schema with leading
    /// `self`/`parent` columns).
    pub nested_source: Option<NestedSchema>,
    /// The nested target schema, when the file used `target xml schema:`.
    pub nested_target: Option<NestedSchema>,
}

/// Loader failures, with 1-based line numbers.
#[derive(Debug)]
pub enum LoaderError {
    /// A line outside any section, or an unknown section header.
    Structure {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A dependency failed to parse or validate.
    Dependency {
        /// 1-based line number.
        line: usize,
        /// The underlying error.
        source: MappingError,
    },
    /// A data row failed to parse or insert.
    Data {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for LoaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoaderError::Structure { line, message } => write!(f, "line {line}: {message}"),
            LoaderError::Dependency { line, source } => write!(f, "line {line}: {source}"),
            LoaderError::Data { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for LoaderError {}

/// The section a line of a flat scenario belongs to, as named by the
/// header line that opened it ([`section_header`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Before any section header.
    None,
    /// `source schema:`
    SourceSchema,
    /// `target schema:`
    TargetSchema,
    /// `source xml schema:`
    SourceXmlSchema,
    /// `target xml schema:`
    TargetXmlSchema,
    /// `dependencies:`
    Dependencies,
    /// `source data:`
    SourceData,
    /// `source xml data:`
    SourceXmlData,
    /// `target data:`
    TargetData,
}

/// Parse a scenario from text.
pub fn load_scenario_str(text: &str) -> Result<LoadedScenario, LoaderError> {
    let mut pool = ValuePool::new();
    let mut source_schema = Schema::new();
    let mut target_schema = Schema::new();
    let mut dep_units: Vec<DependencyUnit> = Vec::new();
    let mut source_rows: Vec<(usize, String)> = Vec::new();
    let mut target_rows: Vec<(usize, String)> = Vec::new();
    // XML sections keep their indentation (it encodes nesting).
    let mut src_xml_schema_lines: Vec<(usize, usize, String)> = Vec::new();
    let mut dst_xml_schema_lines: Vec<(usize, usize, String)> = Vec::new();
    let mut src_xml_data_lines: Vec<(usize, usize, String)> = Vec::new();
    let mut section = Section::None;
    let mut saw_target_data = false;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let stripped = strip_comment(raw);
        let line = stripped.trim().to_owned();
        if line.is_empty() {
            continue;
        }
        let indent = stripped.len() - stripped.trim_start().len();
        if let Some(new_section) = section_header(&line) {
            section = new_section;
            if section == Section::TargetData {
                saw_target_data = true;
            }
            continue;
        }
        match section {
            Section::None => {
                return Err(LoaderError::Structure {
                    line: line_no,
                    message: format!("content before any section header: `{line}`"),
                })
            }
            Section::SourceSchema => {
                add_relation(&mut source_schema, &line, line_no)?;
            }
            Section::TargetSchema => {
                add_relation(&mut target_schema, &line, line_no)?;
            }
            Section::SourceXmlSchema => src_xml_schema_lines.push((line_no, indent, line)),
            Section::TargetXmlSchema => dst_xml_schema_lines.push((line_no, indent, line)),
            Section::Dependencies => push_dependency_line(&mut dep_units, &line, idx),
            Section::SourceData => source_rows.push((line_no, line)),
            Section::SourceXmlData => src_xml_data_lines.push((line_no, indent, line)),
            Section::TargetData => target_rows.push((line_no, line)),
        }
    }

    // XML schemas: nesting from indentation; their relational encodings are
    // merged into the flat schemas (dependencies then reference relations
    // whose first two columns are `self` and `parent`).
    let nested_source = if src_xml_schema_lines.is_empty() {
        None
    } else {
        Some(parse_nested_schema(&src_xml_schema_lines)?)
    };
    if let Some(ns) = &nested_source {
        merge_encoded_schema(ns, &mut source_schema)?;
    }
    let nested_target = if dst_xml_schema_lines.is_empty() {
        None
    } else {
        Some(parse_nested_schema(&dst_xml_schema_lines)?)
    };
    if let Some(nt) = &nested_target {
        merge_encoded_schema(nt, &mut target_schema)?;
    }

    let mapping = build_mapping(&source_schema, &target_schema, &dep_units, &mut pool)?;

    let mut source = Instance::new(&source_schema);
    for (line, text) in source_rows {
        insert_row(&mut source, &source_schema, &mut pool, &text, line)?;
    }
    if let Some(ns) = &nested_source {
        let tree = parse_nested_data(ns, &mut pool, &src_xml_data_lines)?;
        let enc_schema = encode_schema(ns);
        let encoded = encode_instance(ns, &enc_schema, &tree);
        for (rel_id, rel) in enc_schema.schema.iter() {
            let dst = source_schema
                .rel_id(rel.name())
                .expect("encoded relations were merged into the source schema");
            for (_, values) in encoded.instance.rel_tuples(rel_id) {
                source.insert(dst, &values).expect("same arity");
            }
        }
    } else if !src_xml_data_lines.is_empty() {
        return Err(LoaderError::Structure {
            line: src_xml_data_lines[0].0,
            message: "`source xml data:` requires a `source xml schema:` section".into(),
        });
    }
    let target = if saw_target_data {
        let mut t = Instance::new(&target_schema);
        for (line, text) in target_rows {
            insert_row(&mut t, &target_schema, &mut pool, &text, line)?;
        }
        Some(t)
    } else {
        None
    };

    Ok(LoadedScenario {
        pool,
        mapping,
        source,
        target,
        nested_source,
        nested_target,
    })
}

/// A parsed pipeline scenario: the validated stage chain and the first
/// hop's source instance.
#[derive(Debug)]
pub struct LoadedPipeline {
    /// The shared value pool.
    pub pool: ValuePool,
    /// The validated chain (carries the per-session core mode).
    pub pipeline: Pipeline,
    /// The source instance feeding the first stage.
    pub source: Instance,
}

/// Whether scenario text uses the multi-stage pipeline syntax (a `stage
/// <name>:` header or a `pipeline:` options section). Front-ends use this
/// to pick [`load_pipeline_str`] over [`load_scenario_str`].
pub fn is_pipeline_scenario(text: &str) -> bool {
    text.lines().any(|raw| {
        let lowered = strip_comment(raw).trim().to_ascii_lowercase();
        lowered == "pipeline:" || (is_stage_header(&lowered) && lowered.ends_with(':'))
    })
}

/// Whether a lowercased line starts like a `stage <name>:` header:
/// `stage`, then whitespace.
fn is_stage_header(lowered: &str) -> bool {
    lowered
        .strip_prefix("stage")
        .is_some_and(|rest| rest.starts_with(char::is_whitespace))
}

/// One stage block under construction.
struct RawStage {
    line: usize,
    name: String,
    source_schema: Schema,
    target_schema: Schema,
    dep_units: Vec<DependencyUnit>,
    saw_source_schema: bool,
    saw_target_schema: bool,
}

/// Parse a multi-stage pipeline scenario from text (see the module docs for
/// the syntax). Stage-chain violations — malformed headers, duplicate stage
/// names, schema/arity mismatches between consecutive stages — surface as
/// the typed [`MappingError`]s of `routes-mapping`, wrapped with the line
/// number of the offending stage header.
pub fn load_pipeline_str(text: &str) -> Result<LoadedPipeline, LoaderError> {
    let mut pool = ValuePool::new();
    let mut stages: Vec<RawStage> = Vec::new();
    let mut source_rows: Vec<(usize, String)> = Vec::new();
    let mut core_mode = false;
    // What the current content lines belong to: a section of the current
    // stage, the global data section, or the global options section.
    #[derive(PartialEq, Eq, Clone, Copy)]
    enum Where {
        None,
        StageBody,
        StageSection(Section),
        SourceData,
        Options,
    }
    let mut at = Where::None;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim().to_owned();
        if line.is_empty() {
            continue;
        }
        let lowered = line.to_ascii_lowercase();
        if is_stage_header(&lowered) {
            let name = parse_stage_header(&line).map_err(|source| LoaderError::Dependency {
                line: line_no,
                source,
            })?;
            if stages.iter().any(|s| s.name == name) {
                return Err(LoaderError::Dependency {
                    line: line_no,
                    source: MappingError::DuplicateStage { stage: name },
                });
            }
            stages.push(RawStage {
                line: line_no,
                name,
                source_schema: Schema::new(),
                target_schema: Schema::new(),
                dep_units: Vec::new(),
                saw_source_schema: false,
                saw_target_schema: false,
            });
            at = Where::StageBody;
            continue;
        }
        if lowered == "pipeline:" {
            at = Where::Options;
            continue;
        }
        if let Some(section) = section_header(&line) {
            at = match section {
                Section::SourceData => Where::SourceData,
                Section::SourceSchema | Section::TargetSchema | Section::Dependencies => {
                    if !matches!(at, Where::StageBody | Where::StageSection(_)) {
                        return Err(LoaderError::Structure {
                            line: line_no,
                            message: format!(
                                "`{line}` must appear inside a `stage <name>:` block in a \
                                 pipeline scenario"
                            ),
                        });
                    }
                    let stage = stages.last_mut().expect("inside a stage");
                    match section {
                        Section::SourceSchema => stage.saw_source_schema = true,
                        Section::TargetSchema => stage.saw_target_schema = true,
                        _ => {}
                    }
                    Where::StageSection(section)
                }
                _ => {
                    return Err(LoaderError::Structure {
                        line: line_no,
                        message: format!("`{line}` is not supported in pipeline scenarios"),
                    })
                }
            };
            continue;
        }
        match at {
            Where::None => {
                return Err(LoaderError::Structure {
                    line: line_no,
                    message: format!("content before any section header: `{line}`"),
                })
            }
            Where::StageBody => {
                return Err(LoaderError::Structure {
                    line: line_no,
                    message: format!("content before any section header in stage: `{line}`"),
                })
            }
            Where::Options => {
                let (key, value) = line.split_once(':').ok_or_else(|| LoaderError::Structure {
                    line: line_no,
                    message: format!("expected `option: value`, found `{line}`"),
                })?;
                match (
                    key.trim().to_ascii_lowercase().as_str(),
                    value.trim().to_ascii_lowercase().as_str(),
                ) {
                    ("core" | "core mode", "on" | "true") => core_mode = true,
                    ("core" | "core mode", "off" | "false") => core_mode = false,
                    ("core" | "core mode", other) => {
                        return Err(LoaderError::Structure {
                            line: line_no,
                            message: format!("`core` must be on or off, found `{other}`"),
                        })
                    }
                    (other, _) => {
                        return Err(LoaderError::Structure {
                            line: line_no,
                            message: format!("unknown pipeline option `{other}`"),
                        })
                    }
                }
            }
            Where::SourceData => source_rows.push((line_no, line)),
            Where::StageSection(section) => {
                let stage = stages.last_mut().expect("inside a stage");
                match section {
                    Section::SourceSchema => {
                        add_relation(&mut stage.source_schema, &line, line_no)?
                    }
                    Section::TargetSchema => {
                        add_relation(&mut stage.target_schema, &line, line_no)?
                    }
                    Section::Dependencies => push_dependency_line(&mut stage.dep_units, &line, idx),
                    _ => unreachable!("only stage-local sections reach here"),
                }
            }
        }
    }

    if stages.is_empty() {
        return Err(LoaderError::Structure {
            line: 1,
            message: "a pipeline scenario needs at least one `stage <name>:` block".into(),
        });
    }
    for stage in &stages {
        if !stage.saw_source_schema || !stage.saw_target_schema {
            return Err(LoaderError::Structure {
                line: stage.line,
                message: format!(
                    "stage `{}` needs both a `source schema:` and a `target schema:` section",
                    stage.name
                ),
            });
        }
    }
    for pair in stages.windows(2) {
        check_stage_compatibility(
            &pair[0].name,
            &pair[0].target_schema,
            &pair[1].name,
            &pair[1].source_schema,
        )
        .map_err(|source| LoaderError::Dependency {
            line: pair[1].line,
            source,
        })?;
    }

    let mut built: Vec<PipelineStage> = Vec::with_capacity(stages.len());
    for stage in &stages {
        built.push(PipelineStage {
            name: stage.name.clone(),
            mapping: build_mapping(
                &stage.source_schema,
                &stage.target_schema,
                &stage.dep_units,
                &mut pool,
            )?,
        });
    }
    let pipeline = Pipeline::new(built, core_mode).map_err(|e| LoaderError::Structure {
        line: stages[0].line,
        message: e.to_string(),
    })?;

    let first_schema = &stages[0].source_schema;
    let mut source = Instance::new(first_schema);
    for (line, text) in source_rows {
        insert_row(&mut source, first_schema, &mut pool, &text, line)?;
    }

    Ok(LoadedPipeline {
        pool,
        pipeline,
        source,
    })
}

/// One logical dependency of a `dependencies:` section, which may span
/// several physical lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyUnit {
    /// Its lines (comment-stripped and trimmed), joined by single spaces.
    pub text: String,
    /// 0-based indices of the physical lines it spans, ascending.
    pub lines: Vec<usize>,
}

/// Add one comment-stripped, trimmed dependency-section line, at 0-based
/// physical line `index`, to `units`. The line continues the last unit
/// when it starts with a connective or when the last unit is not yet a
/// complete implication; otherwise it starts a new unit.
pub fn push_dependency_line(units: &mut Vec<DependencyUnit>, line: &str, index: usize) {
    let starts_continuation = line.starts_with("->")
        || line.starts_with('→')
        || line.starts_with('&')
        || line.starts_with('∧');
    let prev_incomplete = units.last().is_some_and(|prev| {
        let prev = prev.text.trim_end();
        let no_arrow = !prev.contains("->") && !prev.contains('→');
        no_arrow
            || prev.ends_with('&')
            || prev.ends_with('∧')
            || prev.ends_with("->")
            || prev.ends_with('→')
            || prev.ends_with(',')
    });
    match units.last_mut() {
        Some(prev) if starts_continuation || prev_incomplete => {
            prev.text.push(' ');
            prev.text.push_str(line);
            prev.lines.push(index);
        }
        _ => units.push(DependencyUnit {
            text: line.to_owned(),
            lines: vec![index],
        }),
    }
}

/// Parse dependency units into a mapping over the two schemas; errors
/// carry the 1-based number of the unit's first line.
fn build_mapping(
    source: &Schema,
    target: &Schema,
    units: &[DependencyUnit],
    pool: &mut ValuePool,
) -> Result<SchemaMapping, LoaderError> {
    let mut mapping = SchemaMapping::new(source.clone(), target.clone());
    for unit in units {
        let line = unit.lines[0] + 1;
        let dep = parse_dependency(source, target, pool, &unit.text)
            .map_err(|source| LoaderError::Dependency { line, source })?;
        mapping
            .add_dependency(dep)
            .map_err(|source| LoaderError::Dependency { line, source })?;
    }
    Ok(mapping)
}

/// Parse an indentation-nested schema section:
///
/// ```text
/// Conference(name, acronym)
///   Edition(year, location)
///     Paper(title, pages)
/// ```
fn parse_nested_schema(lines: &[(usize, usize, String)]) -> Result<NestedSchema, LoaderError> {
    let mut schema = NestedSchema::new();
    // Stack of (indent, type id).
    let mut stack: Vec<(usize, routes_nested::NodeTypeId)> = Vec::new();
    for (line_no, indent, line) in lines {
        let (name, inner) = split_call(line).ok_or_else(|| LoaderError::Structure {
            line: *line_no,
            message: format!("expected `Record(attr, ...)`, found `{line}`"),
        })?;
        let attrs: Vec<&str> = if inner.trim().is_empty() {
            Vec::new()
        } else {
            inner.split(',').map(str::trim).collect()
        };
        if attrs.iter().any(|a| a.is_empty()) {
            return Err(LoaderError::Structure {
                line: *line_no,
                message: "empty attribute name".into(),
            });
        }
        if schema.type_by_name(name).is_some() {
            return Err(LoaderError::Structure {
                line: *line_no,
                message: format!("duplicate record type `{name}`"),
            });
        }
        while stack.last().is_some_and(|&(i, _)| i >= *indent) {
            stack.pop();
        }
        let ty = match stack.last() {
            Some(&(_, parent)) => schema.add_child(parent, name, &attrs),
            None => schema.add_root(name, &attrs),
        };
        stack.push((*indent, ty));
    }
    Ok(schema)
}

/// Merge a nested schema's relational encoding into a flat schema.
fn merge_encoded_schema(nested: &NestedSchema, flat: &mut Schema) -> Result<(), LoaderError> {
    let encoded = encode_schema(nested);
    for (_, rel) in encoded.schema.iter() {
        let attrs: Vec<&str> = rel.attrs().iter().map(String::as_str).collect();
        flat.add_relation(routes_model::Relation::new(rel.name(), &attrs))
            .map_err(|e| LoaderError::Structure {
                line: 0,
                message: format!("xml schema conflicts with flat schema: {e}"),
            })?;
    }
    Ok(())
}

/// Parse an indentation-nested data section into a tree.
fn parse_nested_data(
    schema: &NestedSchema,
    pool: &mut ValuePool,
    lines: &[(usize, usize, String)],
) -> Result<NestedInstance, LoaderError> {
    let mut tree = NestedInstance::new();
    let mut stack: Vec<(usize, routes_nested::NodeId)> = Vec::new();
    for (line_no, indent, line) in lines {
        let (name, inner) = split_call(line).ok_or_else(|| LoaderError::Data {
            line: *line_no,
            message: format!("expected `Record(v, ...)`, found `{line}`"),
        })?;
        let ty = schema.type_by_name(name).ok_or_else(|| LoaderError::Data {
            line: *line_no,
            message: format!("unknown record type `{name}`"),
        })?;
        let values = if inner.trim().is_empty() {
            Vec::new()
        } else {
            split_values(inner)
                .into_iter()
                .map(|v| parse_value(pool, v.trim(), *line_no))
                .collect::<Result<Vec<Value>, LoaderError>>()?
        };
        if values.len() != schema.node_type(ty).attrs().len() {
            return Err(LoaderError::Data {
                line: *line_no,
                message: format!(
                    "record `{name}` has {} attribute(s), found {} value(s)",
                    schema.node_type(ty).attrs().len(),
                    values.len()
                ),
            });
        }
        while stack.last().is_some_and(|&(i, _)| i >= *indent) {
            stack.pop();
        }
        let node = match (stack.last(), schema.node_type(ty).parent()) {
            (Some(&(_, parent)), Some(expected)) if tree.node(parent).ty == expected => {
                tree.add_child(schema, parent, ty, &values)
            }
            (None, None) => tree.add_root(schema, ty, &values),
            _ => {
                return Err(LoaderError::Data {
                    line: *line_no,
                    message: format!("record `{name}` is nested under the wrong parent type"),
                })
            }
        };
        stack.push((*indent, node));
    }
    Ok(tree)
}

/// `line` without its comment: `#` starts a comment unless inside a quoted
/// string.
pub fn strip_comment(line: &str) -> &str {
    let mut in_quote: Option<char> = None;
    for (i, c) in line.char_indices() {
        match (in_quote, c) {
            (Some(q), c) if c == q => in_quote = None,
            (None, '\'') | (None, '"') => in_quote = Some(c),
            (None, '#') => return &line[..i],
            _ => {}
        }
    }
    line
}

/// The section a comment-stripped, trimmed line opens, if it is a flat
/// scenario's section header (case-insensitive, ending in `:`).
pub fn section_header(line: &str) -> Option<Section> {
    let lowered = line.to_ascii_lowercase();
    match lowered.trim_end_matches(':') {
        "source schema" if lowered.ends_with(':') => Some(Section::SourceSchema),
        "target schema" if lowered.ends_with(':') => Some(Section::TargetSchema),
        "source xml schema" if lowered.ends_with(':') => Some(Section::SourceXmlSchema),
        "target xml schema" if lowered.ends_with(':') => Some(Section::TargetXmlSchema),
        "dependencies" if lowered.ends_with(':') => Some(Section::Dependencies),
        "source data" if lowered.ends_with(':') => Some(Section::SourceData),
        "source xml data" if lowered.ends_with(':') => Some(Section::SourceXmlData),
        "target data" if lowered.ends_with(':') => Some(Section::TargetData),
        _ => None,
    }
}

/// `Name(attr, attr, ...)`.
fn add_relation(schema: &mut Schema, line: &str, line_no: usize) -> Result<(), LoaderError> {
    let (name, inner) = split_call(line).ok_or_else(|| LoaderError::Structure {
        line: line_no,
        message: format!("expected `Relation(attr, ...)`, found `{line}`"),
    })?;
    let attrs: Vec<&str> = inner.split(',').map(str::trim).collect();
    if attrs.iter().any(|a| a.is_empty()) {
        return Err(LoaderError::Structure {
            line: line_no,
            message: "empty attribute name".into(),
        });
    }
    schema
        .add_relation(routes_model::Relation::new(name, &attrs))
        .map_err(|e| LoaderError::Structure {
            line: line_no,
            message: e.to_string(),
        })?;
    Ok(())
}

/// `Name(value, value, ...)` — values per the data syntax.
fn insert_row(
    inst: &mut Instance,
    schema: &Schema,
    pool: &mut ValuePool,
    line: &str,
    line_no: usize,
) -> Result<(), LoaderError> {
    let (name, inner) = split_call(line).ok_or_else(|| LoaderError::Data {
        line: line_no,
        message: format!("expected `Relation(v, ...)`, found `{line}`"),
    })?;
    let rel = schema.rel_id(name).ok_or_else(|| LoaderError::Data {
        line: line_no,
        message: format!("unknown relation `{name}`"),
    })?;
    let values = split_values(inner)
        .into_iter()
        .map(|v| parse_value(pool, v.trim(), line_no))
        .collect::<Result<Vec<Value>, LoaderError>>()?;
    inst.insert(rel, &values)
        .map(|_| ())
        .map_err(|e: ModelError| LoaderError::Data {
            line: line_no,
            message: e.to_string(),
        })
}

/// Split `Name( inner )` into the name and the text between the outermost
/// parentheses; `None` when the name is not an identifier or anything but
/// whitespace follows the closing paren.
pub fn split_call(line: &str) -> Option<(&str, &str)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open || !line[close + 1..].trim().is_empty() {
        return None;
    }
    let name = line[..open].trim();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return None;
    }
    Some((name, &line[open + 1..close]))
}

/// Split the inside of a call on commas outside quotes (tokens are not
/// trimmed).
pub fn split_values(inner: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut in_quote: Option<char> = None;
    for (i, c) in inner.char_indices() {
        match (in_quote, c) {
            (Some(q), c) if c == q => in_quote = None,
            (None, '\'') | (None, '"') => in_quote = Some(c),
            (None, ',') => {
                out.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&inner[start..]);
    out
}

/// One data-value token, classified by the value syntax of data sections.
/// Two tokens denote the same value exactly when they classify equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueToken<'a> {
    /// An integer literal.
    Int(i64),
    /// A quoted string constant: the text between the quotes.
    Str(&'a str),
    /// A bare identifier: a labeled null with this label.
    Null(&'a str),
}

/// Classify a data-value token (surrounding whitespace ignored); `None`
/// when it is neither an integer, a quoted string nor a bare identifier.
pub fn classify_value(token: &str) -> Option<ValueToken<'_>> {
    let token = token.trim();
    if let Ok(n) = token.parse::<i64>() {
        return Some(ValueToken::Int(n));
    }
    let first = token.chars().next()?;
    if (first == '\'' || first == '"') && token.len() >= 2 && token.ends_with(first) {
        return Some(ValueToken::Str(&token[1..token.len() - 1]));
    }
    if first.is_alphabetic() || first == '_' {
        // Bare identifier: a labeled null (Figure 2's N1, M1, A1 ...).
        return Some(ValueToken::Null(token));
    }
    None
}

fn parse_value(pool: &mut ValuePool, token: &str, line_no: usize) -> Result<Value, LoaderError> {
    match classify_value(token) {
        Some(ValueToken::Int(n)) => Ok(Value::Int(n)),
        Some(ValueToken::Str(s)) => Ok(pool.str(s)),
        Some(ValueToken::Null(label)) => Ok(pool.named_null(label)),
        None if token.is_empty() => Err(LoaderError::Data {
            line: line_no,
            message: "empty value".into(),
        }),
        None => Err(LoaderError::Data {
            line: line_no,
            message: format!("cannot parse value `{token}`"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCENARIO: &str = r#"
# comment line
source schema:
  S(a, b)
target schema:
  T(a, b)
dependencies:
  m1: S(x, y) -> exists Z: T(x, Z)
source data:
  S(1, 'hello')   # trailing comment
  S(2, 'a#b')
target data:
  T(1, N1)
  T(2, N2)
"#;

    #[test]
    fn loads_a_full_scenario() {
        let loaded = load_scenario_str(SCENARIO).unwrap();
        assert_eq!(loaded.mapping.st_tgds().len(), 1);
        assert_eq!(loaded.source.total_tuples(), 2);
        let target = loaded.target.expect("target section present");
        assert_eq!(target.total_tuples(), 2);
        // Bare identifiers in data are labeled nulls.
        let t = loaded.mapping.target().rel_id("T").unwrap();
        let row = target.tuple(routes_model::TupleId { rel: t, row: 0 });
        assert!(row[1].is_null());
        // Quoted '#' is not a comment.
        let s = loaded.mapping.source().rel_id("S").unwrap();
        let row = loaded
            .source
            .tuple(routes_model::TupleId { rel: s, row: 1 });
        assert_eq!(loaded.pool.value_to_string(row[1]), "a#b");
    }

    #[test]
    fn value_tokens_classify_by_the_data_syntax() {
        assert_eq!(classify_value(" -7 "), Some(ValueToken::Int(-7)));
        assert_eq!(classify_value("'5'"), Some(ValueToken::Str("5")));
        assert_eq!(classify_value("\"a,b\""), Some(ValueToken::Str("a,b")));
        assert_eq!(classify_value("''"), Some(ValueToken::Str("")));
        assert_eq!(classify_value("n5"), Some(ValueToken::Null("n5")));
        assert_eq!(classify_value("_x"), Some(ValueToken::Null("_x")));
        for bad in ["", "'", "'a\"", "1x", "-"] {
            assert_eq!(classify_value(bad), None, "{bad:?}");
        }
        // Splitting respects quotes, so these two rows keep their values.
        let row = |line| {
            let (_, inner) = split_call(line).unwrap();
            split_values(inner)
                .into_iter()
                .map(classify_value)
                .collect::<Vec<_>>()
        };
        assert_ne!(row("S('a,s:b', 'c')"), row("S('a', 'b,s:c')"));
        let text = "source schema:\n S(a, b)\ntarget schema:\n T(a)\n\
                    source data:\n S('a,s:b', 'c')\n S('a', 'b,s:c')\n";
        assert_eq!(load_scenario_str(text).unwrap().source.total_tuples(), 2);
    }

    #[test]
    fn dependency_units_keep_their_physical_lines() {
        let mut units = Vec::new();
        for (index, line) in [
            (3, "m1: S(x, y) &"),
            (4, "S(y, x)"),
            (6, "-> T(x, y)"),
            (7, "m2: S(x, y) -> U(x)"),
        ] {
            push_dependency_line(&mut units, line, index);
        }
        assert_eq!(
            units,
            vec![
                DependencyUnit {
                    text: "m1: S(x, y) & S(y, x) -> T(x, y)".into(),
                    lines: vec![3, 4, 6],
                },
                DependencyUnit {
                    text: "m2: S(x, y) -> U(x)".into(),
                    lines: vec![7],
                },
            ]
        );
    }

    #[test]
    fn missing_target_section_means_chase() {
        let text = "source schema:\n S(a)\ntarget schema:\n T(a)\ndependencies:\n m: S(x) -> T(x)\nsource data:\n S(1)\n";
        let loaded = load_scenario_str(text).unwrap();
        assert!(loaded.target.is_none());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad_dep =
            "source schema:\n S(a)\ntarget schema:\n T(a)\ndependencies:\n m: Nope(x) -> T(x)\n";
        let err = load_scenario_str(bad_dep).unwrap_err();
        assert!(
            matches!(err, LoaderError::Dependency { line: 6, .. }),
            "{err}"
        );

        let bad_row = "source schema:\n S(a)\ntarget schema:\n T(a)\nsource data:\n S(1, 2)\n";
        let err = load_scenario_str(bad_row).unwrap_err();
        assert!(matches!(err, LoaderError::Data { line: 6, .. }), "{err}");

        let stray = "S(a)\n";
        let err = load_scenario_str(stray).unwrap_err();
        assert!(matches!(err, LoaderError::Structure { line: 1, .. }));
    }

    #[test]
    fn egds_and_target_tgds_load() {
        let text = "source schema:\n S(a)\ntarget schema:\n T(a, b)\n U(a)\ndependencies:\n \
                    m1: S(x) -> exists Y: T(x, Y)\n m2: T(x, y) -> U(x)\n \
                    k: T(x, y) & T(x, z) -> y = z\nsource data:\n S(1)\n";
        let loaded = load_scenario_str(text).unwrap();
        assert_eq!(loaded.mapping.st_tgds().len(), 1);
        assert_eq!(loaded.mapping.target_tgds().len(), 1);
        assert_eq!(loaded.mapping.egds().len(), 1);
    }

    const PIPELINE: &str = r#"
# two-hop pipeline from the module docs
pipeline:
  core: on
stage clean:
  source schema:
    S(a, b)
  target schema:
    T(a, b)
  dependencies:
    m1: S(x, y) -> T(x, y)
stage publish:
  source schema:
    T(a, b)
  target schema:
    U(a)
  dependencies:
    m2: T(x, y) -> U(x)
source data:
  S(1, 2)
  S(3, 4)
"#;

    #[test]
    fn pipeline_scenarios_are_detected() {
        assert!(is_pipeline_scenario(PIPELINE));
        assert!(is_pipeline_scenario("stage one:\n"));
        assert!(is_pipeline_scenario("pipeline:\n  core: off\n"));
        // Flat scenarios are not pipelines, even with suggestive content.
        assert!(!is_pipeline_scenario(SCENARIO));
        assert!(!is_pipeline_scenario("source data:\n Stage(1)\n"));
    }

    #[test]
    fn pipeline_round_trips() {
        let loaded = load_pipeline_str(PIPELINE).unwrap();
        assert_eq!(loaded.pipeline.hops(), 2);
        assert!(loaded.pipeline.core_mode());
        assert_eq!(loaded.pipeline.stages()[0].name, "clean");
        assert_eq!(loaded.pipeline.stages()[1].name, "publish");
        assert_eq!(loaded.source.total_tuples(), 2);
    }

    #[test]
    fn pipeline_core_defaults_off() {
        let text = PIPELINE.replace("pipeline:\n  core: on\n", "");
        let loaded = load_pipeline_str(&text).unwrap();
        assert!(!loaded.pipeline.core_mode());
        let explicit = PIPELINE.replace("core: on", "core: off");
        assert!(!load_pipeline_str(&explicit).unwrap().pipeline.core_mode());
    }

    #[test]
    fn malformed_stage_header_is_a_typed_error() {
        let text = PIPELINE.replace("stage publish:", "stage pub lish:");
        let err = load_pipeline_str(&text).unwrap_err();
        assert!(
            matches!(
                err,
                LoaderError::Dependency {
                    source: MappingError::MalformedStageHeader { .. },
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn duplicate_stage_name_is_a_typed_error() {
        let text = PIPELINE.replace("stage publish:", "stage clean:");
        let err = load_pipeline_str(&text).unwrap_err();
        assert!(
            matches!(
                err,
                LoaderError::Dependency {
                    line: 12,
                    source: MappingError::DuplicateStage { .. },
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn stage_arity_mismatch_is_a_typed_error() {
        let text = PIPELINE.replace(
            "    T(a, b)\n  target schema:\n    U(a)",
            "    T(a)\n  target schema:\n    U(a)",
        );
        let err = load_pipeline_str(&text).unwrap_err();
        match err {
            LoaderError::Dependency {
                line,
                source:
                    MappingError::StageSchemaMismatch {
                        stage,
                        previous,
                        relation,
                        ..
                    },
            } => {
                assert_eq!(line, 12);
                assert_eq!(stage, "publish");
                assert_eq!(previous, "clean");
                assert_eq!(relation, "T");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn pipeline_rejects_flat_only_sections() {
        let text = format!("{PIPELINE}target data:\n  U(1)\n");
        let err = load_pipeline_str(&text).unwrap_err();
        assert!(matches!(err, LoaderError::Structure { .. }), "{err}");

        let loose = "source schema:\n  S(a)\nstage one:\n  target schema:\n    T(a)\n";
        let err = load_pipeline_str(loose).unwrap_err();
        assert!(
            matches!(err, LoaderError::Structure { line: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn pipeline_needs_stages_and_complete_schemas() {
        let err = load_pipeline_str("pipeline:\n  core: on\n").unwrap_err();
        assert!(matches!(err, LoaderError::Structure { .. }));

        let incomplete = "stage one:\n  source schema:\n    S(a)\n";
        let err = load_pipeline_str(incomplete).unwrap_err();
        assert!(
            matches!(err, LoaderError::Structure { line: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn pipeline_rejects_unknown_options() {
        let text = PIPELINE.replace("core: on", "shiny: on");
        let err = load_pipeline_str(&text).unwrap_err();
        assert!(matches!(err, LoaderError::Structure { .. }), "{err}");
        let text = PIPELINE.replace("core: on", "core: maybe");
        assert!(load_pipeline_str(&text).is_err());
    }

    #[test]
    fn pipeline_dependency_continuations_work() {
        let text = PIPELINE.replace("    m2: T(x, y) -> U(x)", "    m2: T(x, y)\n      -> U(x)");
        let loaded = load_pipeline_str(&text).unwrap();
        assert_eq!(loaded.pipeline.stages()[1].mapping.st_tgds().len(), 1);
    }
}
