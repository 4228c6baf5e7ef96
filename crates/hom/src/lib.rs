//! # rde-hom
//!
//! The homomorphism engine for reverse data exchange.
//!
//! The whole PODS 2009 framework is built on the homomorphism relation
//! `I₁ → I₂` (Definition 3.1): a function on values that fixes every
//! constant, maps nulls anywhere, and maps facts to facts. The paper
//! systematically replaces the containment relation `⊆` of earlier work
//! by `→`; the extended identity mapping *is* `→`, extended solutions are
//! `→ ∘ M ∘ →`, and `→_M` compares chase results by `→`.
//!
//! Deciding `I₁ → I₂` is NP-complete in general (it subsumes graph
//! homomorphism), so this crate implements a CSP-style backtracking
//! search with:
//!
//! * per-column posting-list indexes from `rde-model` to enumerate
//!   candidate target tuples for a partially bound fact;
//! * dynamic fail-first fact ordering (cheapest-candidate-set next);
//! * node and wall-clock budgets and a cancel token, so every search is
//!   interruptible — exhaustion is a completion *status* on the
//!   returned [`SearchReport`], folded into a three-valued [`Verdict`]
//!   (`Holds` / `Fails` / `Unknown`) by the deciders, never a panic.
//!
//! Both optimizations can be disabled through [`HomConfig`]; the
//! differential tests hold the optimized search to those references.
//!
//! Each notion has one entry, and every entry takes a [`HomConfig`]:
//! [`exists_hom`] and [`find_hom`] (`I₁ → I₂`), [`hom_equivalent`],
//! [`find_iso`] (equality up to null renaming) and [`core_of`] (the
//! minimum retract, which canonicalizes instances up to homomorphic
//! equivalence — the right notion of "same instance" in the paper's
//! framework). The unbudgeted [`count_homs`], [`is_core`],
//! [`core_of_quadratic`] and [`for_each_hom`] are the oracles the tests
//! check the deciders against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core_min;
mod equivalence;
mod iso;
mod search;
mod verdict;

pub use core_min::{core_of, core_of_quadratic, is_core, CoreOutcome, CoreResult};
pub use equivalence::hom_equivalent;
pub use iso::find_iso;
pub use search::{
    count_homs, exists_hom, find_hom, for_each_hom, instance_pattern, CompiledPattern, HomConfig,
    HomStats, PatArg, PatternAtom, SearchReport,
};
pub use verdict::{Exhausted, Verdict};
