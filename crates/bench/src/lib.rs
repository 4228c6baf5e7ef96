//! # rde-bench
//!
//! Workload generators shared by the single-shot timing bins
//! (`chase_scaling`, `hom_baseline`) and the repository benchmark
//! (`perfbench`), plus the `paper_experiments` and `loss_census`
//! binaries. The paper has no empirical section; the workloads are
//! the two-step composition mapping its theory is stated over and a
//! recursive dependency family chased over null-bearing graphs.

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
    use rde_model::{Instance, Vocabulary};

    /// Example 3.18's two-step path mapping.
    pub fn two_step(vocab: &mut Vocabulary) -> SchemaMapping {
        parse_mapping(vocab, "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)")
            .unwrap()
    }

    /// A same-schema recursive dependency set: copy `E` into `T`, close
    /// `T` with the *linear* recursion `T(x,y) ∧ E(y,z) → T(x,z)`, and
    /// add `extra` side-output rules `T → Aᵢ`. Linear (rather than
    /// doubling) recursion chases for as many rounds as the longest
    /// `E`-path, the regime the semi-naive delta rounds target; `extra`
    /// scales the dependency count.
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
    /// constant Hamiltonian cycle backbone (diameter `nodes − 1`, so
    /// [`recursive_deps`] chases for that many rounds) plus `chords`
    /// chord edges that each connect a random cycle vertex to a fresh
    /// labeled null (alternating which endpoint is the null). Nulls are the paper's setting — reverse
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
}

#[cfg(test)]
mod tests {
    use super::workloads;
    use rde_model::Vocabulary;

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
}
