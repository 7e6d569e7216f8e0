//! Mapping pipelines: a chain of schema mappings `S → T₁ → … → Tₙ` treated
//! as one debuggable object.
//!
//! The paper debugs a single mapping; real data-exchange deployments are
//! multi-hop ETL chains. Following the composition literature
//! (Arenas–Fagin–Nash, *Composition with Target Constraints*), a pipeline
//! here is an explicit chain of stages, each a full `SchemaMapping` whose
//! source schema is the previous stage's target schema. The chain is chased
//! stage by stage with the deterministic engine of `routes-chase`, and a
//! route for a final-target tuple is *stitched* from per-stage routes
//! through the intermediate instances ([`stitch_route`]): the debugger can
//! show exactly which source tuple and which tgd at which hop produced any
//! final tuple.
//!
//! The crate also implements **core minimization** of chased instances
//! ([`core_minimize`]), after ten Cate–Chiticariu–Kolaitis–Tan, *Laconic
//! Schema Mappings*: one greedy pass removes each tuple `t` such that a
//! homomorphism `J → J∖{t}` exists, which for a finite instance reaches
//! exactly the core. Each candidate's search moves only the nulls of its
//! own block, the rows linked to it through nulls this hop invented
//! (Fagin–Kolaitis–Popa, *Data Exchange: Getting to the Core*), so it maps
//! that block's rows rather than the whole instance. With
//! [`Pipeline::core_mode`] on, every
//! intermediate instance is minimized before the next hop, shrinking the
//! data every downstream hot path touches. Values of surviving tuples are
//! never rewritten, so every route computed on the core replays verbatim on
//! the unminimized instance — the invariant the differential gate in
//! `tests/pipeline_routes.rs` enforces.

pub mod core;
pub mod stitch;

use std::fmt;
use std::time::{Duration, Instant};

use routes_chase::{chase_with_pool, ChaseError, ChaseOptions, ChaseStats, EgdLog};
use routes_core::RouteEnv;
use routes_mapping::{
    check_stage_compatibility, is_weakly_acyclic, validate_stage_names, MappingError, SchemaMapping,
};
use routes_model::{Instance, TupleId, ValuePool};
use routes_pool::Pool;

pub use crate::core::{core_minimize, frozen_nulls, CoreOutcome};
pub use crate::stitch::{stitch_route, StageRoute, StitchError, StitchedRoute};

/// One hop of a pipeline: a named schema mapping.
#[derive(Debug, Clone)]
pub struct PipelineStage {
    /// The stage name (unique within the pipeline).
    pub name: String,
    /// The mapping `Mₖ = (Tₖ₋₁, Tₖ, Σst ∪ Σt)` for this hop.
    pub mapping: SchemaMapping,
}

/// A validated chain of stages plus the per-session core-minimization mode.
#[derive(Debug, Clone)]
pub struct Pipeline {
    stages: Vec<PipelineStage>,
    core_mode: bool,
}

impl Pipeline {
    /// Validate and assemble a chain: stage names must be unique and each
    /// stage's source schema must match the previous stage's target schema
    /// (same relations and arities, in any declaration order).
    pub fn new(stages: Vec<PipelineStage>, core_mode: bool) -> Result<Pipeline, PipelineError> {
        if stages.is_empty() {
            return Err(PipelineError::Empty);
        }
        let names: Vec<&str> = stages.iter().map(|s| s.name.as_str()).collect();
        validate_stage_names(&names).map_err(PipelineError::Invalid)?;
        for pair in stages.windows(2) {
            check_stage_compatibility(
                &pair[0].name,
                pair[0].mapping.target(),
                &pair[1].name,
                pair[1].mapping.source(),
            )
            .map_err(PipelineError::Invalid)?;
        }
        Ok(Pipeline { stages, core_mode })
    }

    /// The stages, in hop order.
    pub fn stages(&self) -> &[PipelineStage] {
        &self.stages
    }

    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.stages.len()
    }

    /// Whether intermediate instances are minimized to their cores.
    pub fn core_mode(&self) -> bool {
        self.core_mode
    }
}

/// Why a pipeline could not be assembled or chased.
#[derive(Debug)]
pub enum PipelineError {
    /// A pipeline needs at least one stage.
    Empty,
    /// Stage names or schemas do not form a valid chain.
    Invalid(MappingError),
    /// The chase failed at a stage.
    Chase {
        /// The failing stage's name.
        stage: String,
        /// The underlying chase error.
        source: ChaseError,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Empty => write!(f, "pipeline has no stages"),
            PipelineError::Invalid(e) => write!(f, "invalid pipeline: {e}"),
            PipelineError::Chase { stage, source } => {
                write!(f, "chase failed at stage `{stage}`: {source}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// One chased hop: the instance the stage consumed, the solution it
/// produced (post-core when core mode is on), and the chase provenance.
#[derive(Debug, Clone)]
pub struct StageSolution {
    /// The stage name.
    pub name: String,
    /// The instance this stage chased from: the original source for hop 1,
    /// otherwise the previous hop's (possibly minimized) target rebound
    /// onto this stage's source schema.
    pub source: Instance,
    /// The solution this stage produced. When core mode is on this is the
    /// core; surviving tuples keep their values, only rows are dropped.
    pub target: Instance,
    /// Statistics of the materializing chase (pre-core).
    pub stats: ChaseStats,
    /// Egd merge provenance of the chase.
    pub egd_log: EgdLog,
    /// Target tuples before core minimization (equals the target size when
    /// core mode is off).
    pub tuples_before_core: usize,
    /// Tuples the core removed (0 when core mode is off).
    pub core_removed: usize,
    /// Wall time of this hop's chase, in microseconds. A measurement, not
    /// part of the deterministic result — never compare it across runs.
    pub chase_us: u64,
    /// Wall time of this hop's core minimization, in microseconds (0 when
    /// core mode is off).
    pub core_us: u64,
}

/// A fully chased pipeline: every intermediate instance materialized, ready
/// for stitched-route probes.
#[derive(Debug, Clone)]
pub struct PreparedPipeline {
    /// The validated chain.
    pub pipeline: Pipeline,
    /// The shared value pool (all stages invent nulls in one namespace, so
    /// values render consistently across hops).
    pub pool: ValuePool,
    /// Per-hop solutions, in hop order.
    pub stages: Vec<StageSolution>,
    /// Whether every stage's dependency set is weakly acyclic.
    pub weakly_acyclic: bool,
    /// Total wall time of all stage chases (and core minimizations).
    pub chase_wall: Duration,
}

impl PreparedPipeline {
    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.stages.len()
    }

    /// The final hop (its target is the pipeline's end-to-end solution).
    pub fn final_stage(&self) -> &StageSolution {
        self.stages.last().expect("pipelines are non-empty")
    }

    /// The route environment of hop `k`: `(Mₖ, source_k, target_k)`.
    pub fn stage_env(&self, k: usize) -> RouteEnv<'_> {
        let stage = &self.stages[k];
        RouteEnv::new(
            &self.pipeline.stages()[k].mapping,
            &stage.source,
            &stage.target,
        )
    }

    /// Total target tuples before and after core minimization, summed over
    /// all hops (equal when core mode is off).
    pub fn core_shrink(&self) -> (usize, usize) {
        let before: usize = self.stages.iter().map(|s| s.tuples_before_core).sum();
        let after: usize = self.stages.iter().map(|s| s.target.total_tuples()).sum();
        (before, after)
    }
}

/// Rebind an instance onto a schema declaring the same relations (possibly
/// in a different order): rows are copied per relation name, preserving row
/// order, so `TupleId { rel-by-name, row }` identities carry over.
fn rebind_instance(
    from: &Instance,
    from_schema: &SchemaRef<'_>,
    to_schema: &SchemaRef<'_>,
) -> Instance {
    let mut out = Instance::new(to_schema.0);
    for (to_rel, rel) in to_schema.0.iter() {
        let from_rel = from_schema
            .0
            .rel_id(rel.name())
            .expect("stage compatibility was validated");
        for (_, values) in from.rel_tuples(from_rel) {
            out.insert(to_rel, &values).expect("same arity");
        }
    }
    out
}

/// Newtype so `rebind_instance` reads clearly at call sites.
struct SchemaRef<'a>(&'a routes_model::Schema);

/// Map a tuple of a stage's source instance to the same tuple in the
/// previous stage's target instance (they differ only in relation
/// numbering). Used when stitching routes backwards through the chain.
pub fn source_tuple_upstream(
    source_schema: &routes_model::Schema,
    upstream_target: &routes_model::Schema,
    id: TupleId,
) -> TupleId {
    let name = source_schema.relation(id.rel).name();
    let rel = upstream_target
        .rel_id(name)
        .expect("stage compatibility was validated");
    TupleId { rel, row: id.row }
}

/// Chase a pipeline stage by stage. Each hop reuses the deterministic
/// engine in `routes-chase` (byte-identical output at every worker count);
/// with core mode on, each hop's solution is minimized before feeding the
/// next. The result is deterministic for a fixed input at any `workers`
/// size — core minimization is a sequential greedy pass.
pub fn chase_pipeline(
    pipeline: Pipeline,
    source: Instance,
    mut pool: ValuePool,
    options: ChaseOptions,
    workers: &Pool,
) -> Result<PreparedPipeline, PipelineError> {
    let started = Instant::now();
    let mut stages: Vec<StageSolution> = Vec::with_capacity(pipeline.hops());
    let mut source = Some(source);
    for (k, stage) in pipeline.stages().iter().enumerate() {
        // Hop k > 0 chases hop k - 1's stored target, rebound onto hop k's
        // source schema.
        let current = match source.take() {
            Some(source) => source,
            None => rebind_instance(
                &stages[k - 1].target,
                &SchemaRef(pipeline.stages()[k - 1].mapping.target()),
                &SchemaRef(stage.mapping.source()),
            ),
        };
        let chase_started = Instant::now();
        let result = chase_with_pool(&stage.mapping, &current, &mut pool, options, workers)
            .map_err(|source| PipelineError::Chase {
                stage: stage.name.clone(),
                source,
            })?;
        let chase_us = chase_started.elapsed().as_micros() as u64;
        let stats = result.stats();
        let before = result.target.total_tuples();
        let (target, core_removed, core_us) = if pipeline.core_mode() {
            let core_started = Instant::now();
            let frozen = core::frozen_nulls(&current);
            let outcome = core_minimize(stage.mapping.target(), &result.target, &frozen);
            let removed = outcome.removed;
            (
                outcome.instance,
                removed,
                core_started.elapsed().as_micros() as u64,
            )
        } else {
            (result.target, 0, 0)
        };
        stages.push(StageSolution {
            name: stage.name.clone(),
            source: current,
            target,
            stats,
            egd_log: result.egd_log,
            tuples_before_core: before,
            core_removed,
            chase_us,
            core_us,
        });
    }
    let weakly_acyclic = pipeline
        .stages()
        .iter()
        .all(|s| is_weakly_acyclic(&s.mapping));
    Ok(PreparedPipeline {
        pipeline,
        pool,
        stages,
        weakly_acyclic,
        chase_wall: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use routes_mapping::parse_dependency;
    use routes_model::{Schema, Value};

    fn stage(
        name: &str,
        src: &Schema,
        dst: &Schema,
        deps: &[&str],
        pool: &mut ValuePool,
    ) -> PipelineStage {
        let mut mapping = SchemaMapping::new(src.clone(), dst.clone());
        for dep in deps {
            let d = parse_dependency(src, dst, pool, dep).unwrap();
            mapping.add_dependency(d).unwrap();
        }
        PipelineStage {
            name: name.to_owned(),
            mapping,
        }
    }

    fn two_hop() -> (Pipeline, Instance, ValuePool) {
        let mut s = Schema::new();
        s.rel("S", &["a", "b"]);
        let mut t1 = Schema::new();
        t1.rel("T", &["a", "b"]);
        let mut t2 = Schema::new();
        t2.rel("U", &["a"]);
        let mut pool = ValuePool::new();
        let one = stage("one", &s, &t1, &["m1: S(x, y) -> T(x, y)"], &mut pool);
        let two = stage("two", &t1, &t2, &["m2: T(x, y) -> U(x)"], &mut pool);
        let pipeline = Pipeline::new(vec![one, two], false).unwrap();
        let mut source = Instance::new(&s);
        source.insert_ok(s.rel_id("S").unwrap(), &[Value::Int(1), Value::Int(2)]);
        (pipeline, source, pool)
    }

    #[test]
    fn chases_stage_by_stage() {
        let (pipeline, source, pool) = two_hop();
        let prepared = chase_pipeline(
            pipeline,
            source,
            pool,
            ChaseOptions::fresh(),
            &Pool::sequential(),
        )
        .unwrap();
        assert_eq!(prepared.hops(), 2);
        assert_eq!(prepared.stages[0].target.total_tuples(), 1);
        assert_eq!(prepared.final_stage().target.total_tuples(), 1);
        assert!(prepared.weakly_acyclic);
        // Hop 2 consumed hop 1's target, rebound by relation name.
        assert_eq!(prepared.stages[1].source.total_tuples(), 1);
    }

    #[test]
    fn incompatible_stages_are_rejected() {
        let mut s = Schema::new();
        s.rel("S", &["a"]);
        let mut t1 = Schema::new();
        t1.rel("T", &["a", "b"]);
        let mut t1_narrow = Schema::new();
        t1_narrow.rel("T", &["a"]);
        let mut t2 = Schema::new();
        t2.rel("U", &["a"]);
        let mut pool = ValuePool::new();
        let one = stage(
            "one",
            &s,
            &t1,
            &["m1: S(x) -> exists Y: T(x, Y)"],
            &mut pool,
        );
        let two = stage("two", &t1_narrow, &t2, &["m2: T(x) -> U(x)"], &mut pool);
        let err = Pipeline::new(vec![one, two], false).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::Invalid(MappingError::StageSchemaMismatch { .. })
        ));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let (pipeline, _, mut pool) = two_hop();
        let mut stages = pipeline.stages().to_vec();
        let dst = stages[1].mapping.target().clone();
        stages.push(stage("one", &dst, &dst, &[], &mut pool));
        let err = Pipeline::new(stages, false).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::Invalid(MappingError::DuplicateStage { .. })
        ));
    }
}
