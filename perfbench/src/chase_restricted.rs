//! `chase_restricted`: `rde_chase::chase` with the restricted variant
//! over the labeled-null chord graph — a 64-node constant cycle plus 32
//! chords to fresh labeled nulls — under the linear-closure, side-output
//! and triangle rules (`triangle_deps(extra = 4)`, 7 dependencies).
//! One op is one chase call: 66 rounds, 38 496 facts, about 3.5M hom
//! nodes. It exercises premise matching and satisfaction checks and
//! never touches `query`, `serve` or the journal.

use rde_bench::workloads;
use rde_chase::{chase, ChaseOptions, ChaseResult, ChaseVariant};
use rde_deps::Dependency;
use rde_model::{Fact, Instance, Vocabulary};

use crate::registry::Reading;
use crate::trace::{Span, Tracer};
use crate::{ms_since, per_op_median_ms, registry_layers, Batch, Layers};

const NODES: usize = 64;
const CHORDS: usize = 32;
const EXTRA_DEPS: usize = 4;

/// The result size, derived by hand from the graph's shape so the
/// reference does not rest on the code under test. Every constant
/// reaches every other round the cycle, so the closure `T` holds all
/// `n²` constant pairs; each of the `c/2` chords into a null adds that
/// null as a target of all `n` constants; each of the `c/2` chords out
/// of a null reaches every constant and every chord-target null. The
/// triangle rule's `W` gets one fact per edge `(y, z)` and source `x`
/// with `T(x, y)` and `T(x, z)`. Seed-independent: the seed only moves
/// chord endpoints around the cycle.
fn expected_facts(n: usize, c: usize, extra: usize) -> usize {
    let half = c / 2;
    let reach = n + half; // values every constant reaches
    let t = n * n + half * n + half * reach;
    let w = n * reach + half * reach;
    (n + c) + t * (1 + extra) + w
}

/// Counts summed over traced ops.
#[derive(Default)]
struct Totals {
    ops: u64,
    matches: u64,
    duplicates: u64,
    satisfied: u64,
    fired: u64,
    rounds: u64,
    facts: u64,
    hom_nodes: u64,
}

pub struct ChaseRestricted {
    vocab: Vocabulary,
    deps: Vec<Dependency>,
    input: Instance,
    options: ChaseOptions,
    reference: Vec<Fact>,
    reference_fired: u64,
    totals: Totals,
}

/// Build the inputs and the reference, and check the reference against
/// the hand-derived size and every dependency.
pub fn setup(seed: u64) -> Result<(ChaseRestricted, Vec<String>), String> {
    let mut vocab = Vocabulary::new();
    let deps = workloads::triangle_deps(&mut vocab, EXTRA_DEPS);
    let input = workloads::random_graph_nulls(&mut vocab, NODES, CHORDS, seed);
    let options = ChaseOptions::for_variant(ChaseVariant::Restricted);
    let mut v = vocab.clone();
    let result =
        chase(&input, &deps, &mut v, &options).map_err(|e| format!("reference chase: {e}"))?;
    let mut problems = Vec::new();
    let want = expected_facts(NODES, CHORDS, EXTRA_DEPS);
    if result.instance.len() != want {
        problems.push(format!("reference has {} facts, expected {want}", result.instance.len()));
    }
    // Every chase step adds one new fact: the restricted chase fires no
    // trigger whose conclusion is already there.
    let new_facts = (result.instance.len() - input.len()) as u64;
    if result.fired != new_facts {
        problems
            .push(format!("reference fired {} triggers for {new_facts} new facts", result.fired));
    }
    for (i, dep) in deps.iter().enumerate() {
        if !rde_core::semantics::satisfies_dependency(&result.instance, &result.instance, dep) {
            problems.push(format!("reference violates dependency {i}"));
        }
    }
    let batch = ChaseRestricted {
        reference: result.instance.facts().collect(),
        reference_fired: result.fired,
        vocab,
        deps,
        input,
        options,
        totals: Totals::default(),
    };
    Ok((batch, problems))
}

impl ChaseRestricted {
    fn check(&self, result: &ChaseResult) -> Result<(), String> {
        if result.fired != self.reference_fired {
            return Err(format!(
                "fired {} triggers, reference {}",
                result.fired, self.reference_fired
            ));
        }
        if result.instance.len() != self.reference.len() {
            return Err(format!(
                "{} facts, reference {}",
                result.instance.len(),
                self.reference.len()
            ));
        }
        if !result.instance.facts().eq(self.reference.iter().cloned()) {
            return Err("fact sequence differs from the reference".into());
        }
        Ok(())
    }
}

impl Batch for ChaseRestricted {
    fn op(&mut self) -> Result<f64, String> {
        let started = std::time::Instant::now();
        let mut vocab = self.vocab.clone();
        let result = chase(&self.input, &self.deps, &mut vocab, &self.options);
        let ms = ms_since(started);
        let result = result.map_err(|e| e.to_string())?;
        self.check(&result)?;
        Ok(ms)
    }

    fn op_traced(&mut self, tracer: &mut Tracer, op: u64) -> Result<f64, String> {
        let started = std::time::Instant::now();
        let span = tracer.open("chase_restricted.op", op);
        let mut vocab = tracer.span("model.vocab_clone", op, || self.vocab.clone());
        let result = tracer
            .span("chase.call", op, || chase(&self.input, &self.deps, &mut vocab, &self.options));
        tracer.close(span);
        let ms = ms_since(started);
        let result = result.map_err(|e| e.to_string())?;
        self.check(&result)?;
        let t = &mut self.totals;
        t.ops += 1;
        for r in &result.round_stats {
            t.matches += r.matches;
            t.duplicates += r.duplicates;
            t.satisfied += r.satisfied;
        }
        t.fired += result.fired;
        t.rounds += result.rounds;
        t.facts += result.instance.len() as u64;
        t.hom_nodes += result.hom.nodes;
        Ok(ms)
    }

    fn layers(
        &self,
        spans: &[Span],
        registry: &Reading,
        ops: u64,
        out: &mut Layers,
    ) -> Vec<String> {
        let t = &self.totals;
        let per_op = |v: u64| crate::stats::ratio(v as f64, t.ops as f64);
        out.insert("chase.call_ms", per_op_median_ms(spans, "chase.call"));
        out.insert("chase.matches", per_op(t.matches));
        out.insert("chase.duplicates", per_op(t.duplicates));
        out.insert("chase.satisfied", per_op(t.satisfied));
        out.insert("chase.fired", per_op(t.fired));
        out.insert("chase.fire_ratio", crate::stats::ratio(t.fired as f64, t.matches as f64));
        out.insert("chase.rounds", per_op(t.rounds));
        out.insert("model.result_facts", per_op(t.facts));
        registry_layers(registry, ops, out);
        // Every op does the same search, so the registry's per-op hom
        // nodes (flushed once per search) must equal the chase's own
        // HomStats per traced op.
        let from_result = per_op(t.hom_nodes);
        match out.get("hom.nodes") {
            Some(&from_registry) if from_registry == from_result => Vec::new(),
            other => {
                vec![format!("registry hom nodes/op {other:?} != HomStats nodes/op {from_result}")]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_derived_size_matches_the_chase() {
        // 4-node cycle, 2 chords, no side outputs: E = 6, T = 16 + 4 + 5,
        // W = 4·5 + 5.
        assert_eq!(expected_facts(4, 2, 0), 6 + 25 + 25);
        for (n, c, extra) in [(4, 2, 0), (8, 4, 1), (12, 6, 2)] {
            for seed in 1..4 {
                let mut vocab = Vocabulary::new();
                let deps = workloads::triangle_deps(&mut vocab, extra);
                let input = workloads::random_graph_nulls(&mut vocab, n, c, seed);
                let options = ChaseOptions::for_variant(ChaseVariant::Restricted);
                let result = chase(&input, &deps, &mut vocab, &options).unwrap();
                assert_eq!(result.instance.len(), expected_facts(n, c, extra), "{n}/{c}/{extra}");
            }
        }
    }
}
