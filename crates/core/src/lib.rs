//! # rde-core
//!
//! The contributions of *Reverse Data Exchange: Coping with Nulls*
//! (Fagin, Kolaitis, Popa, Tan; PODS 2009), implemented over the
//! substrate crates (`rde-model`, `rde-hom`, `rde-deps`, `rde-chase`,
//! `rde-query`):
//!
//! * [`semantics`] — satisfaction `(I, J) ⊨ Σ`, solutions, universal
//!   solutions (Section 2);
//! * [`extended`] — extended solutions, extended universal solutions
//!   and the homomorphic extension `e(M)` (Section 3, Definitions
//!   3.2–3.7; the extended identity `e(Id)` is `→` itself,
//!   `rde_hom::exists_hom`);
//! * [`invertibility`] — capturing functions, the homomorphism property,
//!   extended invertibility (Theorems 3.10 and 3.13);
//! * [`chase_inverse`] — chase-inverses and their equivalence with
//!   extended inverses for tgd-specified reverse mappings
//!   (Definition 3.16, Theorem 3.17);
//! * [`arrow`] — the relations `→_M` (Definition 4.6, Proposition 4.7)
//!   and `→_{M,g}` (Definition 4.18);
//! * [`recovery`] — extended recoveries, maximum extended recoveries,
//!   the canonical strong maximum extended recovery `M*` and the
//!   characterization `e(M) ∘ e(M′) = →_M` (Definitions 4.3–4.8,
//!   Theorems 4.10 and 4.13);
//! * [`loss`] — information loss `→_M \ →` and its bounded
//!   quantification (Definition 4.5, Corollaries 4.14–4.15);
//! * [`quasi_inverse`] — the quasi-inverse algorithm for full tgds,
//!   producing maximum extended recoveries as disjunctive tgds with
//!   inequalities (Theorem 5.1);
//! * [`faithful`] — universal-faithful reverse mappings
//!   (Definition 6.1, Theorem 6.2);
//! * [`compare`] — the "less lossy" order on schema mappings
//!   (Definition 6.6, Theorem 6.8);
//! * [`ground`] — the ground-instance baselines the paper generalizes:
//!   the identity mapping, inverses [Fagin, TODS 2007], the subset
//!   property [FKPT, TODS 2008], witness solutions and maximum
//!   recoveries [Arenas–Pérez–Riveros, PODS 2008] (Sections 2 and 4.2);
//! * [`compose`] — exact pointwise membership in compositions such as
//!   `M ∘ M′` and `e(M) ∘ e(M′)` via homomorphic-collapse enumeration;
//! * [`universe`] — bounded universes of instances over which the
//!   undecidable-in-general quantifications become exact finite checks.
//!
//! ## Exact vs bounded checks
//!
//! Several notions quantify over *all* instances (all, not just ground —
//! that is the point of the paper). Pointwise questions — "is `J` an
//! extended solution for `I`?", "does `(I₁, I₂) ∈ →_M` hold?" — are
//! decided exactly via the chase and the homomorphism engine. Universal
//! questions — "is `M` extended-invertible?", "is `M′` a maximum
//! extended recovery?" — are decided exactly *relative to a
//! [`universe::Universe`]*: a counterexample found is a real
//! counterexample; "holds within the bound" is evidence, not proof, and
//! every such API says so in its name or docs.
//!
//! Every checker is budgeted: its one entry takes a [`HomConfig`] and
//! threads it into every chase, arrow cache and hom search it runs. A
//! search cut by a budget or a cancellation makes the answer `Unknown`,
//! never a silent `Holds` or `Fails`; callers that want no bound pass
//! `&HomConfig::default()`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors, not panics; the
// seed-sweep suite in rde-faults depends on it. Test modules are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod arrow;
pub mod chase_inverse;
pub mod compare;
pub mod compose;
mod error;
pub mod extended;
pub mod faithful;
pub mod ground;
pub mod invertibility;
pub mod loss;
pub mod mstar;
pub mod quasi_inverse;
pub mod recovery;
pub mod retry;
pub mod semantics;
pub mod unfold;
pub mod universe;

pub use error::CoreError;
pub use universe::Universe;

use std::borrow::Borrow;

use rde_chase::{ChaseOptions, DisjunctiveChaseOptions};
use rde_deps::SchemaMapping;
use rde_hom::{exists_hom, HomConfig, HomStats, Verdict};
use rde_model::{Instance, Vocabulary};

/// Options for every chase a checker runs: `config`'s time budget and
/// context, but not its node budget. Premise matching is strict (a cut
/// enumeration is an error, not a degraded answer), and the node budget
/// is meant for the checker's hom decisions.
pub(crate) fn chase_options(config: &HomConfig) -> ChaseOptions {
    ChaseOptions {
        hom: HomConfig { node_budget: None, ..config.clone() },
        ..ChaseOptions::default()
    }
}

/// [`chase_options`] for the disjunctive chase.
pub(crate) fn disjunctive_options(config: &HomConfig) -> DisjunctiveChaseOptions {
    DisjunctiveChaseOptions { hom: chase_options(config).hom, ..DisjunctiveChaseOptions::default() }
}

/// Every instance of `universe` over `mapping`'s source schema.
pub(crate) fn source_family(
    mapping: &SchemaMapping,
    universe: &Universe,
    vocab: &Vocabulary,
) -> Result<Vec<Instance>, CoreError> {
    universe
        .collect_instances(vocab, &mapping.source)
        .map_err(|_| CoreError::UnsupportedMapping { required: "an enumerable source schema" })
}

/// Does some instance of `sources` map into `target`? The Kleene
/// disjunction of the searches, stopped at the first hit.
pub(crate) fn some_maps_into(
    sources: impl IntoIterator<Item = impl Borrow<Instance>>,
    target: &Instance,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Verdict {
    let mut verdict = Verdict::Fails;
    for source in sources {
        verdict = verdict.or(exists_hom(source.borrow(), target, config, stats));
        if verdict.holds() {
            break;
        }
    }
    verdict
}
