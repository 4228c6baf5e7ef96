//! The part of a dependency set that a reader of some relations can
//! observe. Self-contained (it names no `crate::` item), so the
//! differential test compiles this very file.

use rde_deps::Dependency;
use rde_model::RelId;

/// The dependencies of `deps` whose output a reader of `relations` can
/// see, in their original order, and the relations they touch (sorted,
/// including `relations`).
///
/// The set starts as `relations`. A dependency is kept when an atom of
/// any of its disjuncts uses a relation in the set; its premise and
/// conclusion relations then join the set, until the set stops
/// growing. So a dropped dependency writes only outside the final set,
/// and a kept one reads only inside it, in its premise and in its
/// satisfaction test alike. Every chase of the kept dependencies,
/// restricted to the set, is then the chase of all of them restricted
/// the same way, up to renaming of nulls: the dropped dependencies'
/// firings never change what a kept one matches or finds witnessed.
pub(crate) fn slice(deps: &[Dependency], relations: &[RelId]) -> (Vec<Dependency>, Vec<RelId>) {
    let mut seen = relations.to_vec();
    let mut kept = vec![false; deps.len()];
    let mut grew = true;
    while grew {
        grew = false;
        for (dep, keep) in deps.iter().zip(kept.iter_mut()) {
            if *keep || !conclusion_rels(dep).any(|r| seen.contains(&r)) {
                continue;
            }
            *keep = true;
            grew = true;
            for r in dep.premise.atoms.iter().map(|a| a.rel).chain(conclusion_rels(dep)) {
                if !seen.contains(&r) {
                    seen.push(r);
                }
            }
        }
    }
    seen.sort_unstable();
    seen.dedup();
    let deps = deps.iter().zip(kept).filter(|&(_, keep)| keep).map(|(d, _)| d.clone()).collect();
    (deps, seen)
}

fn conclusion_rels(dep: &Dependency) -> impl Iterator<Item = RelId> + '_ {
    dep.disjuncts.iter().flat_map(|d| d.atoms.iter().map(|a| a.rel))
}
