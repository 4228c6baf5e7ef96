//! `reverse_certain`: reverse query answering by Theorem 6.5,
//! `rde_query::reverse_certain_answers`. The mapping decomposes
//! `P(x,y,z)` into `Q(x,y) & R(y,z)` and merges `A`, `B` into `T`; the
//! recovery undoes both, the union disjunctively (`T(x) -> A(x) | B(x)`).
//! The source holds 200 `P` facts (1 in 10 with a labeled null) and 5
//! `A`/`B` facts, so the disjunctive chase ends in 32 leaves; the query
//! is the join `ans(x,z) :- P(x,y,u) & P(w,y,z)` over every leaf. One op
//! is one call. It stresses the disjunctive chase and CQ evaluation and
//! bypasses restricted satisfaction checks, `serve` and the journal.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rde_chase::{chase_mapping, disjunctive_chase, ChaseOptions, DisjunctiveChaseOptions};
use rde_deps::{parse_mapping, SchemaMapping};
use rde_model::{Fact, Instance, Vocabulary};
use rde_query::{
    certain_answers_over, drop_nulls, evaluate, evaluate_null_free, intersect_all,
    reverse_certain_answers, AnswerSet, ConjunctiveQuery,
};

use crate::registry::Reading;
use crate::trace::{Span, Tracer};
use crate::{ms_since, per_op_median_ms, registry_layers, Batch, Layers};

const MAPPING: &str = "source: P/3, A/1, B/1\ntarget: Q/2, R/2, T/1\n\
                       P(x,y,z) -> Q(x,y) & R(y,z)\nA(x) -> T(x)\nB(x) -> T(x)";
const RECOVERY: &str = "source: Q/2, R/2, T/1\ntarget: P/3, A/1, B/1\n\
                        Q(x,y) -> exists z . P(x,y,z)\nR(y,z) -> exists x . P(x,y,z)\n\
                        T(x) -> A(x) | B(x)";
const QUERY: &str = "ans(x,z) :- P(x,y,u) & P(w,y,z)";
const P_FACTS: usize = 200;
/// Distinct join values: `y` is dealt round-robin so every seed joins
/// the same number of pairs; only `x`, `z` and the nulls move.
const JOIN_VALUES: usize = 40;
const ENDPOINT_VALUES: u64 = 160;
const UNION_FACTS: usize = 5;

/// The seeded source instance.
fn source(vocab: &mut Vocabulary, seed: u64) -> Result<Instance, String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let p = vocab.relation("P", 3).map_err(|e| e.to_string())?;
    let a = vocab.relation("A", 1).map_err(|e| e.to_string())?;
    let b = vocab.relation("B", 1).map_err(|e| e.to_string())?;
    let mut facts = Vec::new();
    for i in 0..P_FACTS {
        let mut args = vec![
            vocab.const_value(&format!("x{}", rng.gen_range(0..ENDPOINT_VALUES))),
            vocab.const_value(&format!("y{}", i % JOIN_VALUES)),
            vocab.const_value(&format!("z{}", rng.gen_range(0..ENDPOINT_VALUES))),
        ];
        if i % 10 == 0 {
            args[rng.gen_range(0..3) as usize] = vocab.null_value(&format!("n{i}"));
        }
        facts.push(Fact::new(p, args));
    }
    for i in 0..UNION_FACTS {
        let rel = if rng.gen_bool(0.5) { a } else { b };
        facts.push(Fact::new(rel, vec![vocab.const_value(&format!("u{i}"))]));
    }
    Ok(facts.into_iter().collect())
}

/// Counts summed over traced ops.
#[derive(Default)]
struct Totals {
    ops: u64,
    steps: u64,
    leaves: u64,
    pruned: u64,
    leaf_facts: u64,
    answers: u64,
}

pub struct ReverseCertain {
    vocab: Vocabulary,
    mapping: SchemaMapping,
    recovery: SchemaMapping,
    query: ConjunctiveQuery,
    input: Instance,
    options: DisjunctiveChaseOptions,
    reference: AnswerSet,
    totals: Totals,
}

/// Build the inputs and the reference answers along the composed path
/// `chase_mapping` → `disjunctive_chase` → `restrict_to` →
/// `certain_answers_over`, and gate them: non-empty, and contained in
/// `q(I)↓` (a recovery relates `I` to itself, so every certain answer
/// holds on `I`).
pub fn setup(seed: u64) -> Result<(ReverseCertain, Vec<String>), String> {
    let mut vocab = Vocabulary::new();
    let mapping = parse_mapping(&mut vocab, MAPPING).map_err(|e| e.to_string())?;
    let recovery = parse_mapping(&mut vocab, RECOVERY).map_err(|e| e.to_string())?;
    let query = ConjunctiveQuery::parse(&mut vocab, QUERY).map_err(|e| e.to_string())?;
    let input = source(&mut vocab, seed)?;
    let options = DisjunctiveChaseOptions::default();

    let mut v = vocab.clone();
    let target = chase_mapping(&input, &mapping, &mut v, &ChaseOptions::default())
        .map_err(|e| format!("reference forward chase: {e}"))?;
    let leaves = disjunctive_chase(&target, &recovery.dependencies, &mut v, &options)
        .map_err(|e| format!("reference disjunctive chase: {e}"))?
        .leaves;
    let worlds: Vec<Instance> = leaves.iter().map(|l| l.restrict_to(&mapping.source)).collect();
    let reference = certain_answers_over(&query, worlds.iter());

    let mut problems = Vec::new();
    if reference.is_empty() {
        problems.push("reference certain answers are empty".to_owned());
    }
    if leaves.len() != 1 << UNION_FACTS {
        problems.push(format!("{} leaves, expected {}", leaves.len(), 1 << UNION_FACTS));
    }
    let direct = evaluate_null_free(&query, &input);
    if !reference.is_subset(&direct) {
        problems.push("certain answers are not a subset of q(I)↓".to_owned());
    }
    let batch = ReverseCertain {
        vocab,
        mapping,
        recovery,
        query,
        input,
        options,
        reference,
        totals: Totals::default(),
    };
    Ok((batch, problems))
}

impl ReverseCertain {
    fn check(&self, answers: &AnswerSet) -> Result<(), String> {
        if *answers != self.reference {
            return Err(format!("{} answers, reference {}", answers.len(), self.reference.len()));
        }
        Ok(())
    }
}

impl Batch for ReverseCertain {
    fn op(&mut self) -> Result<f64, String> {
        let started = std::time::Instant::now();
        let mut vocab = self.vocab.clone();
        let answers = reverse_certain_answers(
            &self.query,
            &self.input,
            &self.mapping,
            &self.recovery,
            &mut vocab,
            &self.options,
        );
        let ms = ms_since(started);
        self.check(&answers.map_err(|e| e.to_string())?)?;
        Ok(ms)
    }

    /// The same pipeline as `reverse_certain_answers`, one public call
    /// at a time, so each layer gets its own span.
    fn op_traced(&mut self, tracer: &mut Tracer, op: u64) -> Result<f64, String> {
        let started = std::time::Instant::now();
        let root = tracer.open("reverse_certain.op", op);
        let mut vocab = tracer.span("model.vocab_clone", op, || self.vocab.clone());
        let target = tracer.span("chase.forward", op, || {
            chase_mapping(&self.input, &self.mapping, &mut vocab, &ChaseOptions::default())
        });
        let Ok(target) = target else {
            tracer.close(root);
            return Err("forward chase failed".into());
        };
        let result = tracer.span("chase.disjunctive", op, || {
            disjunctive_chase(&target, &self.recovery.dependencies, &mut vocab, &self.options)
        });
        let Ok(result) = result else {
            tracer.close(root);
            return Err("disjunctive chase failed".into());
        };
        let mut per_leaf = Vec::with_capacity(result.leaves.len());
        let mut leaf_facts = 0u64;
        for leaf in &result.leaves {
            let world =
                tracer.span("model.restrict", op, || leaf.restrict_to(&self.mapping.source));
            leaf_facts += world.len() as u64;
            per_leaf.push(tracer.span("query.evaluate", op, || evaluate(&self.query, &world)));
        }
        let answers = tracer.span("query.intersect", op, || drop_nulls(&intersect_all(per_leaf)));
        tracer.close(root);
        let ms = ms_since(started);
        self.check(&answers)?;
        let t = &mut self.totals;
        t.ops += 1;
        t.steps += result.steps;
        t.leaves += result.leaves.len() as u64;
        t.pruned += result.pruned as u64;
        t.leaf_facts += leaf_facts;
        t.answers += answers.len() as u64;
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
        out.insert("chase.forward_ms", per_op_median_ms(spans, "chase.forward"));
        out.insert("chase.disjunctive_ms", per_op_median_ms(spans, "chase.disjunctive"));
        out.insert("chase.disj_steps", per_op(t.steps));
        out.insert("chase.disj_leaves", per_op(t.leaves));
        out.insert("chase.disj_pruned", per_op(t.pruned));
        out.insert("model.restrict_ms", per_op_median_ms(spans, "model.restrict"));
        out.insert("model.leaf_facts", per_op(t.leaf_facts));
        out.insert("query.evaluate_ms", per_op_median_ms(spans, "query.evaluate"));
        out.insert("query.intersect_ms", per_op_median_ms(spans, "query.intersect"));
        out.insert("query.answers", per_op(t.answers));
        registry_layers(registry, ops, out);
        Vec::new()
    }
}
