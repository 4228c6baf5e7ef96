//! # rde-query
//!
//! Conjunctive queries and certain answers for reverse data exchange
//! (Section 6.2 of the PODS 2009 paper).
//!
//! * [`ConjunctiveQuery`] — `q(x̄) :- body`, parsed in a Datalog-ish
//!   syntax and evaluated by the premise-matching engine;
//! * [`evaluate`] / [`evaluate_null_free`] — `q(I)` and `q(I)↓` (the
//!   answers with no nulls);
//! * [`certain_answers_over`] — `(⋂_K q(K))↓` over a set of instances,
//!   the right-hand side of Theorem 6.5;
//! * [`forward_certain_answers`] — classic certain answers
//!   `certain_M(q, I)` for a target query, computed as
//!   `q(chase_M(I))↓` (Fagin–Kolaitis–Miller–Popa);
//! * [`reverse_certain_answers`] — the paper's reverse query answering
//!   (Theorem 6.5): answer a *source* query when only the exchanged
//!   target instance is available, via the disjunctive chase with a
//!   maximum extended recovery, chasing only the query's slice of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod answers;
pub mod containment;
mod cq;
mod reverse;
mod slice;

pub use answers::{drop_nulls, intersect_all, AnswerSet};
pub use containment::{contained_in, equivalent, minimize};
pub use cq::{evaluate, evaluate_null_free, ConjunctiveQuery};
pub use reverse::{
    certain_answers_over, forward_certain_answers, reverse_certain_answers,
    reverse_certain_answers_from_target,
};
