//! The semantic view of schema mappings: satisfaction, solutions,
//! universal solutions (Section 2).

use rde_chase::{chase_mapping, DependencyPlan};
use rde_deps::{Dependency, SchemaMapping};
use rde_hom::{exists_hom, Exhausted, HomConfig, HomStats, Verdict};
use rde_model::{Instance, Vocabulary};

use crate::{chase_options, CoreError};

/// Does the pair `(source, target)` satisfy a single dependency?
///
/// For every premise match in `source` whose guards hold, some disjunct
/// must be witnessed in `target` (extending the premise assignment on
/// the existentials).
pub fn satisfies_dependency(source: &Instance, target: &Instance, dep: &Dependency) -> bool {
    let mut stats = HomStats::default();
    satisfies_dependency_budgeted(source, target, dep, &HomConfig::default(), &mut stats).holds()
}

/// Budgeted form of [`satisfies_dependency`]: premise enumeration and
/// disjunct-witness searches obey `config`. A single trigger whose
/// disjuncts all *definitely* fail refutes the dependency outright even
/// under a budget; cut searches that leave a trigger unwitnessed (or a
/// truncated premise enumeration) degrade the verdict to
/// [`Verdict::Unknown`].
pub fn satisfies_dependency_budgeted(
    source: &Instance,
    target: &Instance,
    dep: &Dependency,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Verdict {
    let plan = DependencyPlan::compile(dep);
    let mut violated = false;
    let mut unknown: Option<Exhausted> = None;
    let report = plan.premise().for_each_match(source, config, |vals| {
        match plan.witnessed(target, vals, config, stats) {
            Verdict::Holds => true,
            Verdict::Fails => {
                violated = true;
                false
            }
            Verdict::Unknown { budget } => {
                unknown.get_or_insert(budget);
                true
            }
        }
    });
    *stats += report.stats;
    if violated {
        return Verdict::Fails;
    }
    match unknown.or(report.exhausted) {
        Some(budget) => Verdict::Unknown { budget },
        None => Verdict::Holds,
    }
}

/// `(I, J) ⊨ Σ`: the pair satisfies every dependency of the mapping.
/// This is the paper's semantic view — `(I, J) ∈ M`.
pub fn satisfies(source: &Instance, target: &Instance, mapping: &SchemaMapping) -> bool {
    mapping.dependencies.iter().all(|d| satisfies_dependency(source, target, d))
}

/// Budgeted form of [`satisfies`]: Kleene conjunction over the
/// dependencies — a definite violation short-circuits to
/// [`Verdict::Fails`]; otherwise any cut search taints the conjunction
/// to [`Verdict::Unknown`].
pub fn satisfies_budgeted(
    source: &Instance,
    target: &Instance,
    mapping: &SchemaMapping,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Verdict {
    let mut acc = Verdict::Holds;
    for dep in &mapping.dependencies {
        let v = satisfies_dependency_budgeted(source, target, dep, config, stats);
        if v.fails() {
            return Verdict::Fails;
        }
        acc = acc.and(v);
    }
    acc
}

/// Is `J` a **universal** solution for `I` w.r.t. a tgd-specified `M`?
///
/// `chase_M(I)` is universal and homomorphically maps into every
/// solution, so `J` is universal iff it is a solution (`(I, J) ∈ M`,
/// Section 2) and `J → chase_M(I)` (then `J → J′` for every solution
/// `J′` by composition). Both checks obey `config` and combine by
/// Kleene conjunction; a definite non-solution skips the chase.
pub fn is_universal_solution(
    source: &Instance,
    target: &Instance,
    mapping: &SchemaMapping,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<Verdict, CoreError> {
    let solution = satisfies_budgeted(source, target, mapping, config, stats);
    if solution.fails() {
        return Ok(Verdict::Fails);
    }
    let canonical = chase_mapping(source, mapping, vocab, &chase_options(config))?;
    Ok(solution.and(exists_hom(target, &canonical, config, stats)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rde_chase::ChaseOptions;
    use rde_deps::parse_mapping;
    use rde_model::parse::parse_instance;

    fn decomposition(v: &mut Vocabulary) -> SchemaMapping {
        parse_mapping(v, "source: P/3\ntarget: Q/2, R/2\nP(x,y,z) -> Q(x,y) & R(y,z)").unwrap()
    }

    #[test]
    fn satisfaction_of_full_tgds() {
        let mut v = Vocabulary::new();
        let m = decomposition(&mut v);
        let i = parse_instance(&mut v, "P(a,b,c)").unwrap();
        let good = parse_instance(&mut v, "Q(a,b)\nR(b,c)").unwrap();
        let bigger = parse_instance(&mut v, "Q(a,b)\nR(b,c)\nQ(z,z)").unwrap();
        let missing = parse_instance(&mut v, "Q(a,b)").unwrap();
        assert!(satisfies(&i, &good, &m));
        assert!(satisfies(&i, &bigger, &m)); // open-world: supersets are solutions
        assert!(!satisfies(&i, &missing, &m));
        assert!(satisfies(&Instance::new(), &Instance::new(), &m));
    }

    #[test]
    fn satisfaction_with_existentials() {
        let mut v = Vocabulary::new();
        let m =
            parse_mapping(&mut v, "source: P/1\ntarget: Q/2\nP(x) -> exists y . Q(x, y)").unwrap();
        let i = parse_instance(&mut v, "P(a)").unwrap();
        assert!(satisfies(&i, &parse_instance(&mut v, "Q(a, b)").unwrap(), &m));
        assert!(satisfies(&i, &parse_instance(&mut v, "Q(a, ?n)").unwrap(), &m));
        assert!(!satisfies(&i, &parse_instance(&mut v, "Q(b, a)").unwrap(), &m));
    }

    /// Example 3.3: U = {Q(a,b), R(b,c)} is NOT a solution for
    /// V = {P(a,b,Z), P(X,b,c)} w.r.t. the decomposition mapping,
    /// because solutions for V must contain R(b, Z′) and Q(X′, b)
    /// witnesses for the null-carrying facts.
    #[test]
    fn example_3_3_not_a_solution() {
        let mut v = Vocabulary::new();
        let m = decomposition(&mut v);
        let vi = parse_instance(&mut v, "P(a, b, ?z)\nP(?x, b, c)").unwrap();
        let u = parse_instance(&mut v, "Q(a,b)\nR(b,c)").unwrap();
        assert!(!satisfies(&vi, &u, &m));
        // U′ of Example 3.3 is a solution for V.
        let u_prime = parse_instance(&mut v, "Q(a,b)\nQ(?x,b)\nR(b,c)\nR(b,?z)").unwrap();
        assert!(satisfies(&vi, &u_prime, &m));
    }

    #[test]
    fn universal_solutions() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(
            &mut v,
            "source: P/2\ntarget: Q/2\nP(x, y) -> exists z . Q(x, z) & Q(z, y)",
        )
        .unwrap();
        let i = parse_instance(&mut v, "P(a, b)").unwrap();
        let universal = |v: &mut Vocabulary, j: &Instance| {
            is_universal_solution(&i, j, &m, v, &HomConfig::default(), &mut HomStats::default())
                .unwrap()
        };
        // The canonical chase result is universal.
        let canon = chase_mapping(&i, &m, &mut v, &ChaseOptions::default()).unwrap();
        assert!(universal(&mut v, &canon).holds());
        // A ground completion is a solution but NOT universal.
        let ground = parse_instance(&mut v, "Q(a, c)\nQ(c, b)").unwrap();
        assert!(satisfies(&i, &ground, &m));
        assert!(universal(&mut v, &ground).fails());
        // A padded variant of the canonical solution is still universal.
        let mut padded = canon.clone();
        for f in parse_instance(&mut v, "Q(?extra1, ?extra2)").unwrap().facts() {
            padded.insert(f);
        }
        assert!(universal(&mut v, &padded).holds());
        // Not a solution at all: refuted before any chase.
        assert!(universal(&mut v, &Instance::new()).fails());
    }

    #[test]
    fn budgeted_satisfaction_is_three_valued() {
        let mut v = Vocabulary::new();
        let m = decomposition(&mut v);
        let i = parse_instance(&mut v, "P(a,b,c)").unwrap();
        let good = parse_instance(&mut v, "Q(a,b)\nR(b,c)").unwrap();
        let missing = parse_instance(&mut v, "Q(a,b)").unwrap();
        // Unbounded budgets agree with the boolean check.
        let mut stats = HomStats::default();
        let cfg = HomConfig::default();
        assert!(satisfies_budgeted(&i, &good, &m, &cfg, &mut stats).holds());
        assert!(satisfies_budgeted(&i, &missing, &m, &cfg, &mut stats).fails());
        assert!(stats.nodes > 0);
        // A zero budget cannot even enumerate the premise: Unknown.
        let tight = HomConfig { node_budget: Some(0), ..HomConfig::default() };
        let mut stats = HomStats::default();
        let verdict = satisfies_budgeted(&i, &good, &m, &tight, &mut stats);
        assert!(verdict.is_unknown(), "got {verdict:?}");
    }

    #[test]
    fn guards_participate_in_satisfaction() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(
            &mut v,
            "source: R/2\ntarget: P/1\nR(x, y) & Constant(x) & x != y -> P(x)",
        )
        .unwrap();
        let i = parse_instance(&mut v, "R(a, b)\nR(?n, b)\nR(c, c)").unwrap();
        let j_ok = parse_instance(&mut v, "P(a)").unwrap();
        assert!(satisfies(&i, &j_ok, &m));
        assert!(!satisfies(&i, &Instance::new(), &m));
    }
}
