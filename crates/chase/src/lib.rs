//! # rde-chase
//!
//! Chase engines for reverse data exchange.
//!
//! * [`chase`] / [`chase_mapping`] — the standard chase with tgds
//!   (Beeri–Vardi, applied to data exchange by Fagin, Kolaitis, Miller
//!   and Popa). For a mapping `M` specified by s-t tgds, `chase_M(I)` is
//!   a canonical universal solution for `I`; Proposition 3.11 of the
//!   PODS 2009 paper upgrades it to an *extended* universal solution
//!   when sources contain nulls. Premises may carry `Constant(x)` guards
//!   and inequalities (needed to chase with inverses such as `M″` of
//!   Example 3.19).
//!
//! * [`disjunctive_chase`] — the disjunctive chase (Section 6 of the
//!   paper): each violated disjunctive tgd branches the instance, one
//!   child per disjunct, and the result is a *set* of instances. This is
//!   the procedural engine behind reverse data exchange with maximum
//!   extended recoveries (Definition 6.1, Theorems 6.2 and 6.5).
//!
//! * [`plan`] — the one matcher: a [`DependencyPlan`] compiles a
//!   dependency's premise ([`PremisePlan`]) and, per disjunct, its
//!   satisfaction check ([`SatisfactionPlan`]) and firing template
//!   ([`FiringTemplate`]) once per call into `rde_hom::CompiledPattern`
//!   slot form. Both chases run on it, and so do the solution checks
//!   (`(I, J) ⊨ Σ`) in `rde-core` and CQ evaluation in `rde-query`.
//!
//! [`ChaseOptions::variant`] is the one chase selector: a
//! [`ChaseVariant`] names the firing discipline (oblivious, or
//! restricted with a satisfaction check) together with the enumeration
//! schedule (naive or delta-driven rounds). Resource limits are
//! explicit and typed: each engine's hom-search budgets and its
//! execution context (cancellation, fault injection, scope label) ride
//! in one `rde_hom::HomConfig`, [`ChaseOptions::hom`] and
//! [`DisjunctiveChaseOptions::hom`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors, not panics; the
// seed-sweep suite in rde-faults depends on it. Test modules are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod checkpoint;
mod core_chase;
mod disjunctive;
mod error;
pub mod plan;
mod standard;

pub use checkpoint::CheckpointPolicy;
pub use core_chase::core_chase_mapping;
pub use disjunctive::{disjunctive_chase, DisjunctiveChaseOptions, DisjunctiveChaseResult};
pub use error::ChaseError;
pub use plan::{DependencyPlan, FiringTemplate, MatchReport, PremisePlan, SatisfactionPlan};
pub use standard::{
    chase, chase_mapping, ChaseOptions, ChaseResult, ChaseVariant, FiringRecord, RoundStats,
};
