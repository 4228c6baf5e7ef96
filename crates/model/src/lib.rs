//! # rde-model
//!
//! Relational data model for reverse data exchange with nulls, following
//! Fagin, Kolaitis, Popa and Tan, *Reverse Data Exchange: Coping with
//! Nulls* (PODS 2009), Section 2.
//!
//! The model fixes an infinite set `Const` of constants and an infinite
//! set `Var` of labeled nulls disjoint from `Const`. An instance over a
//! schema assigns to every relation symbol a finite relation whose values
//! are drawn from `Const ∪ Var`. Crucially — and this is the point of the
//! paper — *both* source and target instances may contain nulls.
//!
//! The crate provides:
//!
//! * [`Value`], [`ConstId`], [`NullId`] — interned values;
//! * [`Vocabulary`] — the symbol table interning constant names, optional
//!   null names, and relation symbols with their arities;
//! * [`Schema`] — a finite set of relation symbols (a view onto the
//!   vocabulary), including the replica-schema construction of the paper;
//! * [`Fact`] and [`Instance`] — deduplicated fact sets, column-indexed
//!   on a column's first probe;
//! * [`RowSet`] — flat deduplicated rows of one width, the store behind
//!   every relation and the chase's trigger keys;
//! * [`enumerate`] — bounded enumeration of all instances over a schema
//!   (used to decide paper properties exactly on finite universes);
//! * [`generate`] — random instance generation for property-based testing;
//! * [`parse`]/[`display`] — a line-oriented text format for instances.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod display;
pub mod enumerate;
mod error;
mod fact;
pub mod fx;
pub mod generate;
mod instance;
pub mod parse;
mod rowset;
mod schema;
mod substitution;
mod value;
mod vocab;

pub use error::ModelError;
pub use fact::Fact;
pub use instance::{Instance, RelationData};
pub use rowset::RowSet;
pub use schema::{RelId, Schema};
pub use substitution::Substitution;
pub use value::{ConstId, NullId, Value};
pub use vocab::Vocabulary;
