//! # rde-bench
//!
//! Shared workload generators for the Criterion benchmarks and the
//! `paper_experiments` binary. The paper has no empirical section; the
//! workloads here are the canonical mapping families its theory is
//! stated over (copy, projection, union, decomposition, two-step
//! composition) scaled by instance size, plus random instance
//! generators over their source schemas.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Write a bench binary's JSON baseline to `path`. An unwritable path
/// is a one-line error and exit status 1, not a panic.
pub fn write_baseline(path: &str, json: &str) {
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}

pub mod workloads {
    //! Mapping families and instance generators.

    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rde_deps::{parse_mapping, SchemaMapping};
    use rde_model::generate::{random_instance, RandomInstanceConfig};
    use rde_model::{Instance, Vocabulary};

    /// A named forward/reverse mapping pair over a shared vocabulary.
    pub struct Workload {
        /// Display name (used as the Criterion benchmark id).
        pub name: &'static str,
        /// The forward mapping `M`.
        pub mapping: SchemaMapping,
        /// A reverse mapping (extended inverse or maximum extended
        /// recovery, per the paper's analysis of the family).
        pub reverse: SchemaMapping,
    }

    /// `P(x,y) → P′(x,y)` with its copy-back (lossless).
    pub fn copy(vocab: &mut Vocabulary) -> Workload {
        let mapping = parse_mapping(vocab, "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)").unwrap();
        let reverse = parse_mapping(vocab, "source: Pp/2\ntarget: P/2\nPp(x,y) -> P(x,y)").unwrap();
        Workload { name: "copy", mapping, reverse }
    }

    /// Example 1.1's decomposition with its tgd recovery.
    pub fn decomposition(vocab: &mut Vocabulary) -> Workload {
        let mapping =
            parse_mapping(vocab, "source: P/3\ntarget: Q/2, R/2\nP(x,y,z) -> Q(x,y) & R(y,z)")
                .unwrap();
        let reverse = parse_mapping(
            vocab,
            "source: Q/2, R/2\ntarget: P/3\nQ(x,y) -> exists z . P(x,y,z)\nR(y,z) -> exists x . P(x,y,z)",
        )
        .unwrap();
        Workload { name: "decomposition", mapping, reverse }
    }

    /// Example 3.18's two-step path mapping with its chase-inverse.
    pub fn two_step(vocab: &mut Vocabulary) -> Workload {
        let mapping =
            parse_mapping(vocab, "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)")
                .unwrap();
        let reverse =
            parse_mapping(vocab, "source: Q/2\ntarget: P/2\nQ(x,z) & Q(z,y) -> P(x,y)").unwrap();
        Workload { name: "two_step", mapping, reverse }
    }

    /// The union mapping (Example 3.14) with its disjunctive recovery.
    pub fn union(vocab: &mut Vocabulary) -> Workload {
        let mapping =
            parse_mapping(vocab, "source: A/1, B/1\ntarget: R/1\nA(x) -> R(x)\nB(x) -> R(x)")
                .unwrap();
        let reverse =
            parse_mapping(vocab, "source: R/1\ntarget: A/1, B/1\nR(x) -> A(x) | B(x)").unwrap();
        Workload { name: "union", mapping, reverse }
    }

    /// A `k`-armed union `A1 … Ak → R` with its `k`-way disjunctive
    /// recovery — the disjunctive-chase stress family.
    pub fn union_k(vocab: &mut Vocabulary, k: usize) -> Workload {
        let mut src = String::from("source: ");
        let mut fwd = String::new();
        let mut disjuncts = Vec::new();
        for i in 0..k {
            if i > 0 {
                src.push_str(", ");
            }
            src.push_str(&format!("U{i}/1"));
            fwd.push_str(&format!("U{i}(x) -> R(x)\n"));
            disjuncts.push(format!("U{i}(x)"));
        }
        let mapping = parse_mapping(vocab, &format!("{src}\ntarget: R/1\n{fwd}")).unwrap();
        let rev_text =
            format!("source: R/1\ntarget: {}\nR(x) -> {}", &src[8..], disjuncts.join(" | "));
        let reverse = parse_mapping(vocab, &rev_text).unwrap();
        Workload { name: "union_k", mapping, reverse }
    }

    /// The projection `P(x,y) → Q(x)` with its existential recovery.
    pub fn projection(vocab: &mut Vocabulary) -> Workload {
        let mapping = parse_mapping(vocab, "source: P/2\ntarget: Q/1\nP(x,y) -> Q(x)").unwrap();
        let reverse =
            parse_mapping(vocab, "source: Q/1\ntarget: P/2\nQ(x) -> exists y . P(x, y)").unwrap();
        Workload { name: "projection", mapping, reverse }
    }

    /// A same-schema recursive dependency set: copy `E` into `T`, close
    /// `T` with the *linear* recursion `T(x,y) ∧ E(y,z) → T(x,z)`, and
    /// add `extra` side-output rules `T → Aᵢ`. Linear (rather than
    /// doubling) recursion chases for as many rounds as the longest
    /// `E`-path, the regime the semi-naive delta rounds target; `extra`
    /// scales the dependency count for the parallel collection sweep.
    pub fn recursive_deps(vocab: &mut Vocabulary, extra: usize) -> Vec<rde_deps::Dependency> {
        let mut deps = vec![
            rde_deps::parse_dependency(vocab, "E(x, y) -> T(x, y)").unwrap(),
            rde_deps::parse_dependency(vocab, "T(x, y) & E(y, z) -> T(x, z)").unwrap(),
        ];
        for i in 0..extra {
            deps.push(
                rde_deps::parse_dependency(vocab, &format!("T(x, y) -> A{i}(x, y)")).unwrap(),
            );
        }
        deps
    }

    /// [`recursive_deps`] plus a triangle-listing rule whose third
    /// premise atom arrives fully bound. The hom searcher answers that
    /// atom with one membership probe instead of walking a posting
    /// list, so the rule stresses probe cost rather than unification.
    pub fn triangle_deps(vocab: &mut Vocabulary, extra: usize) -> Vec<rde_deps::Dependency> {
        let mut deps = recursive_deps(vocab, extra);
        deps.push(
            rde_deps::parse_dependency(vocab, "T(x, y) & E(y, z) & T(x, z) -> W(x, y, z)").unwrap(),
        );
        deps
    }

    /// A deterministic edge relation `E` over `nodes` vertices: a
    /// Hamiltonian cycle backbone (diameter `nodes − 1`, so
    /// [`recursive_deps`] chases for that many rounds) plus
    /// `edges − nodes` random chords.
    pub fn random_graph(vocab: &mut Vocabulary, nodes: usize, edges: usize, seed: u64) -> Instance {
        use rand::Rng;
        let e = vocab.relation("E", 2).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let name = |i: u64| format!("v{i}");
        let cycle = (0..nodes as u64).map(|i| (i, (i + 1) % nodes as u64));
        let chords: Vec<(u64, u64)> = (0..edges.saturating_sub(nodes))
            .map(|_| (rng.gen_range(0..nodes as u64), rng.gen_range(0..nodes as u64)))
            .collect();
        cycle
            .chain(chords)
            .map(|(a, b)| {
                let va = vocab.const_value(&name(a));
                let vb = vocab.const_value(&name(b));
                rde_model::Fact::new(e, vec![va, vb])
            })
            .collect()
    }

    /// [`random_graph`] with labeled-null chords: the same constant
    /// cycle backbone plus `chords` chord edges that each connect a
    /// random cycle vertex to a fresh labeled null (alternating which
    /// endpoint is the null). Nulls are the paper's setting — reverse
    /// mappings chase instances that carry them — and the closure `T`
    /// then mixes nulls and constants in both columns.
    pub fn random_graph_nulls(
        vocab: &mut Vocabulary,
        nodes: usize,
        chords: usize,
        seed: u64,
    ) -> Instance {
        use rand::Rng;
        let e = vocab.relation("E", 2).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let cycle: Vec<(rde_model::Value, rde_model::Value)> = (0..nodes as u64)
            .map(|i| {
                let a = vocab.const_value(&format!("v{i}"));
                let b = vocab.const_value(&format!("v{}", (i + 1) % nodes as u64));
                (a, b)
            })
            .collect();
        let chords: Vec<(rde_model::Value, rde_model::Value)> = (0..chords)
            .map(|i| {
                let c = vocab.const_value(&format!("v{}", rng.gen_range(0..nodes as u64)));
                let n = vocab.null_value(&format!("u{i}"));
                if i % 2 == 0 {
                    (c, n)
                } else {
                    (n, c)
                }
            })
            .collect();
        cycle.into_iter().chain(chords).map(|(a, b)| rde_model::Fact::new(e, vec![a, b])).collect()
    }

    /// A deterministic random source instance over the workload's
    /// source schema: `facts` insertion attempts over `consts`
    /// constants and `nulls` named nulls.
    pub fn source_instance(
        vocab: &mut Vocabulary,
        mapping: &SchemaMapping,
        facts: usize,
        consts: usize,
        nulls: usize,
        null_probability: f64,
        seed: u64,
    ) -> Instance {
        let cfg = RandomInstanceConfig::with_pools(vocab, facts, consts, nulls, null_probability);
        let mut rng = SmallRng::seed_from_u64(seed);
        random_instance(&mut rng, vocab, &mapping.source, &cfg).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::workloads;
    use rde_model::Vocabulary;

    #[test]
    fn workloads_build_and_generate() {
        // Each workload gets its own vocabulary: `copy` and
        // `decomposition` declare `P` with different arities.
        type Builder = fn(&mut Vocabulary) -> workloads::Workload;
        let builders: [Builder; 5] = [
            workloads::copy,
            workloads::decomposition,
            workloads::two_step,
            workloads::union,
            workloads::projection,
        ];
        for build in builders {
            let mut v = Vocabulary::new();
            let w = build(&mut v);
            let i = workloads::source_instance(&mut v, &w.mapping, 20, 5, 3, 0.3, 42);
            assert!(!i.is_empty(), "{} produced an empty instance", w.name);
            w.mapping.validate(&v).unwrap();
            w.reverse.validate(&v).unwrap();
        }
    }

    #[test]
    fn null_graph_and_triangle_deps_build() {
        let mut v = Vocabulary::new();
        let deps = workloads::triangle_deps(&mut v, 1);
        assert_eq!(deps.len(), 4, "closure pair + one side output + triangle rule");
        let g = workloads::random_graph_nulls(&mut v, 8, 4, 7);
        assert_eq!(g.len(), 12, "cycle edges plus chords");
        let null_edges = g.facts().filter(|f| f.args().iter().any(|a| a.is_null())).count();
        assert_eq!(null_edges, 4, "every chord carries exactly one labeled null");
    }

    #[test]
    fn union_k_scales() {
        let mut v = Vocabulary::new();
        let w = workloads::union_k(&mut v, 4);
        assert_eq!(w.mapping.dependencies.len(), 4);
        assert_eq!(w.reverse.dependencies[0].disjuncts.len(), 4);
        w.mapping.validate(&v).unwrap();
        w.reverse.validate(&v).unwrap();
    }
}
