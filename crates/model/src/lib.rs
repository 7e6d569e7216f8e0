//! Relational data model underlying the schema-mapping route debugger.
//!
//! This crate provides the storage substrate that the rest of the workspace
//! builds on. It corresponds to the role DB2 played in the original VLDB 2006
//! implementation of *Debugging Schema Mappings with Routes*:
//!
//! * [`Value`] — constants (interned strings and integers) and *labeled nulls*,
//!   the value domain of data exchange. Strings are interned in a [`ValuePool`]
//!   so values are `Copy` and cheap to hash and compare.
//! * [`Schema`] / [`Relation`] — named relations with named attributes.
//! * [`Instance`] — an append-only, duplicate-eliminating tuple store per
//!   relation. Row positions are stable, so a [`TupleId`] is a durable identity
//!   for a fact; routes are expressed in terms of these identities.
//! * [`HashIndex`] — lazily built single-column and composite hash indexes,
//!   caught up on demand (instances are append-only, so indexes never need
//!   invalidation), and [`Instance::candidates`], the one rule every join
//!   executor uses to pick an atom's candidate rows.
//! * [`Term`] / [`Atom`] — the syntactic building blocks shared by the
//!   conjunctive-query evaluator and the dependency (tgd/egd) types.
//!
//! Instances from both sides of a mapping coexist in route structures, so a
//! fact is globally identified by a [`Fact`]: a [`Side`] plus a [`TupleId`].

pub mod atom;
pub mod display;
pub mod error;
pub mod instance;
pub mod joinstats;
pub mod schema;
pub mod value;

pub use atom::{Atom, Term, Var};
pub use display::{fact_to_string, tuple_to_string, write_tuple};
pub use error::ModelError;
pub use instance::{Fact, HashIndex, IndexKey, Instance, Side, TupleId};
pub use joinstats::JoinSnapshot;
pub use schema::{RelId, Relation, Schema};
pub use value::{NullId, Symbol, Value, ValuePool};
