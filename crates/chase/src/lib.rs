//! The chase: a data-exchange engine producing solutions for a source
//! instance under a schema mapping.
//!
//! The original paper ran on top of Clio, whose generated transforms
//! materialize a target instance; the data-exchange literature's canonical
//! construction is the chase of Fagin, Kolaitis, Miller and Popa (“Data
//! Exchange: Semantics and Query Answering”), which this crate implements
//! from scratch:
//!
//! * [`chase`] — run the chase of `(I, ∅)` with `Σst ∪ Σt`, producing a
//!   target instance `J` such that `(I, J) ⊨ Σst ∪ Σt` (a *universal*
//!   solution in `Fresh` mode when it terminates).
//! * [`NullMode::Fresh`] — the standard chase: a tgd fires only when its RHS
//!   is not already satisfiable, inventing fresh labeled nulls. This is the
//!   textbook construction.
//! * [`NullMode::Skolem`] — the Skolemized (oblivious) chase: existential
//!   variables receive deterministic nulls keyed by the universal binding.
//!   This models how Clio-generated executables actually behave and is
//!   idempotent, which the benchmark generators rely on.
//! * Target egds are applied to fixpoint between tgd rounds, with proper
//!   chase-failure detection when two distinct constants are equated.
//! * [`hom::search`] — the workspace's one backtracking homomorphism
//!   search, with rigid nulls and excluded rows; core minimization calls it
//!   directly, and [`hom::find_homomorphism`] wraps it for the tests that
//!   verify universality of chase results.
//! * [`impact`] — mapping-edit impact: chase under the old and the edited
//!   mapping and diff the solutions by null-canonical tuple skeletons.
//!
//! Tgd application is *semi-naive*: after the first round, only matches
//! touching a tuple from the previous round's delta are re-derived.

pub mod egd_log;
pub mod engine;
pub mod hom;
pub mod impact;
pub mod result;
pub mod unify;

pub use egd_log::{history_to_string, merges_affecting, EgdLog, EgdMerge};
pub use engine::{
    chase, chase_with_pool, chase_with_st_matches, delta_matches, lhs_matches, ChaseOptions,
    NullMode,
};
pub use hom::find_homomorphism;
pub use impact::{impact_to_string, mapping_impact, solution_diff, ImpactReport};
pub use result::{ChaseError, ChaseResult, ChaseStats, TgdStats};
