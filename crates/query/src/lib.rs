//! Conjunctive-query evaluation over [`routes_model`] instances.
//!
//! This crate plays the role DB2's query engine played in the original
//! implementation of *Debugging Schema Mappings with Routes*: the `findHom`
//! procedure (paper Fig. 4) turns the left- and right-hand side of a tgd into
//! *selection queries with partial bindings* and fetches matching assignments
//! **one at a time** (paper §3.3). Accordingly the central API here is a lazy
//! matcher:
//!
//! * [`Bindings`] — a dense partial assignment of formula variables to values.
//! * [`MatchIter`] — an index-nested-loop backtracking join over a conjunction
//!   of atoms, resumable match by match.
//! * [`plan()`] — a greedy bound-variables-first atom ordering.
//! * [`mod@batch`] — a vectorized executor that pushes columnar
//!   [`BindingBatch`]es through the atom order for full-enumeration callers
//!   (the chase saturation loop, wave-parallel `computeAllRoutes`), yielding
//!   the byte-identical match sequence at a fraction of the per-binding cost.
//! * [`mod@reference`] — a deliberately naive evaluator used as a differential
//!   test oracle.
//!
//! Evaluation is read-only; the column indexes it probes are built lazily
//! inside [`routes_model::Instance`].

pub mod batch;
pub mod bindings;
pub mod eval;
pub mod plan;
pub mod reference;

pub use batch::{
    batch_all_matches, batch_matches_with_plan, batch_matches_with_plan_into, BatchOptions,
    BindingBatch,
};
pub use bindings::{unify_atom, Bindings};
pub use eval::{
    all_matches, anchored_plan, first_match, satisfiable, AnchoredPlan, EvalOptions, MatchIter,
};
pub use plan::{plan, plan_to_string, plan_with_bound};
