//! The quasi-inverse algorithm for full tgds (Section 5).
//!
//! Theorem 5.1: for a schema mapping `M` specified by **full** s-t tgds,
//! the quasi-inverse algorithm of Fagin–Kolaitis–Popa–Tan (TODS 2008,
//! §4.2) produces a **maximum extended recovery** of `M`, specified by
//! disjunctive tgds with inequalities — and by Theorem 5.2 both
//! disjunction and inequalities are necessary.
//!
//! ## The construction
//!
//! For every tgd `φ(x) → ψ(x)` in `Σ` and every equality type `e` (a
//! partition of the **conclusion** variables):
//!
//! 1. collapse the conclusion by `e` and **freeze** its variables (one
//!    rigid value per class) into the witness pattern `ψ_e` — the exact
//!    shape a single trigger of this tgd leaves in the target;
//! 2. enumerate **blocks**: homomorphic images of any tgd premise of
//!    `Σ` onto the classes of `e` *and fresh existential slots*, whose
//!    own visible export (class-value facts of its chase) contributes
//!    at least one atom of `ψ_e`. Slots are essential: the pattern
//!    `T(x)` of `S(x,y) ∧ S(y,y) → T(x)` may be explained by
//!    `∃y (S(x,y) ∧ S(y,y))` with `y` outside the witness entirely;
//! 3. find the **minimal covers**: inclusion-minimal unions of blocks
//!    whose chase *covers* `ψ_e` on the class-visible facts (the
//!    identity image of `φ_e` always does, so covers exist). Each
//!    minimal cover becomes one disjunct; slot values become
//!    per-disjunct existentials;
//! 4. emit `ψ_e(x̄) ∧ ⋀_{i≠j} xᵢ ≠ xⱼ → ⋁ covers`, then merge rules
//!    with α-equivalent premises across `(tgd, e)` pairs, unioning
//!    their disjunct sets.
//!
//! The premise is the conclusion pattern — not the full chase footprint
//! of the collapsed premise. Footprint premises are wrong: `e(M)∘e(M′)`
//! ranges over homomorphic collapses of the exchanged instance, which
//! may exhibit a conclusion pattern *without* the interaction facts the
//! footprint would demand (e.g. `T(a,a)` without `U(a)` under
//! `S(x,y)→T(x,y), S(x,y)∧S(y,x)→U(x)`), and a footprint-keyed rule
//! then stays silent, leaking pairs into the composition.
//!
//! The inequalities pin the witness tuple to the exact equality type
//! (Theorem 5.2's `P′(x, y) ∧ x ≠ y → P(x, y)`); the disjunction ranges
//! over the genuinely different explanations (`P′(x, x) → T(x) ∨
//! P(x, x)`). The output is validated as a maximum extended recovery —
//! by the unit tests, experiments E10/E11, and a property-based stress
//! suite over random full-tgd mappings — rather than trusted blindly.

use rde_chase::chase;
use rde_deps::{Atom, Conjunct, Dependency, Premise, SchemaMapping, Term, VarId};
use rde_hom::HomConfig;
use rde_model::fx::{FxHashMap, FxHashSet};
use rde_model::{Instance, Value, Vocabulary};

use crate::{chase_options, CoreError};

/// Maximum premise variables per tgd (set partitions grow as Bell
/// numbers; `B(8) = 4140`).
pub const MAX_PREMISE_VARS: usize = 8;

/// Maximum number of candidate blocks per pattern.
pub const MAX_BLOCKS: usize = 4096;

/// Maximum size of a minimal cover (the identity cover has size 1, so
/// the algorithm always produces output; larger covers add alternative
/// explanations).
pub const MAX_COVER_SIZE: usize = 4;

/// Compute a maximum extended recovery of a **full-tgd** mapping as
/// disjunctive tgds with inequalities (Theorem 5.1).
///
/// The construction's chases run under `config`'s time budget and
/// context. The cancel token of `config.ctx` is also polled once per
/// `(tgd, equality type)` unit of work, and its fault injector drives
/// the `core.quasi.construct` point (and `hom.search.exhaust` in the
/// chases' searches).
pub fn maximum_extended_recovery_full(
    mapping: &SchemaMapping,
    vocab: &mut Vocabulary,
    config: &HomConfig,
) -> Result<SchemaMapping, CoreError> {
    if !mapping.is_full_tgd_mapping() {
        return Err(CoreError::UnsupportedMapping {
            required: "full s-t tgds (no existentials, guards or disjunctions)",
        });
    }
    let mut rules: Vec<Dependency> = Vec::new();

    for dep in &mapping.dependencies {
        let vars = dep.universal_vars();
        if vars.len() > MAX_PREMISE_VARS {
            return Err(CoreError::SearchLimitExceeded {
                what: "premise variables for equality-type enumeration",
                limit: MAX_PREMISE_VARS,
            });
        }
        // Slots: any block may use up to its own premise-variable count
        // of fresh existential values.
        let max_slots =
            mapping.dependencies.iter().map(|d| d.universal_vars().len()).max().unwrap_or(0);
        // Equality types range over the variables of the conclusion:
        // premise-only variables never reach the target pattern.
        let conclusion_atoms = &dep.disjuncts[0].atoms;
        let mut conclusion_vars: Vec<VarId> = Vec::new();
        for a in conclusion_atoms {
            for v in a.vars() {
                if !conclusion_vars.contains(&v) {
                    conclusion_vars.push(v);
                }
            }
        }
        if conclusion_atoms.is_empty() {
            continue;
        }
        for partition in set_partitions(conclusion_vars.len()) {
            // One (tgd, equality type) is the construction's natural
            // unit of work: poll cancellation — and the resilience
            // suite's `core.quasi.construct` point — between units.
            if config.ctx.should_inject("core.quasi.construct") || config.ctx.is_cancelled() {
                return Err(CoreError::Cancelled);
            }
            let n_classes = partition.iter().copied().max().map_or(0, |m| m + 1);
            let frozen = FrozenClasses::new(vocab, n_classes, max_slots);
            let var_to_class: FxHashMap<VarId, usize> =
                conclusion_vars.iter().copied().zip(partition.iter().copied()).collect();

            // Step 1: the witness pattern ψ_e (frozen conclusion).
            let pattern = freeze_dep_atoms(conclusion_atoms, &var_to_class, &frozen);

            // Step 2: blocks (premise images onto classes + fresh slots).
            let blocks = enumerate_blocks(mapping, n_classes, &frozen, &pattern, vocab, config)?;

            // Step 3: minimal covers of the pattern.
            let (covers, slot_values) =
                minimal_covers(&blocks, &pattern, mapping, &frozen, vocab, config)?;
            debug_assert!(!covers.is_empty(), "the identity premise image always covers");

            // Step 4: emit the rule.
            rules.push(emit_rule(&pattern, &covers, &slot_values, &frozen, vocab));
        }
    }
    // Step 5: merge rules with α-equivalent premises. Two equality
    // types (possibly of different tgds) can export the *same*
    // footprint — e.g. for `P(x,y) → Q(x)`, both the distinct and the
    // collapsed partition export just `Q(x)`. Their rules fire on the
    // same witnesses, so they must contribute alternative disjuncts to
    // ONE rule; emitting them separately would conjoin their
    // conclusions and over-constrain the recovery.
    let merged = merge_rules(rules, vocab);
    Ok(SchemaMapping::new(mapping.target.clone(), mapping.source.clone(), merged))
}

/// Rigid per-class values used to freeze variables, plus canonical
/// per-block "slot" values for existential positions. Frozen values are
/// private named nulls: the chase treats them as ordinary (distinct)
/// values, and instance comparison is exact on them.
struct FrozenClasses {
    values: Vec<Value>,
    /// Canonical slot values `__qsA0, __qsA1, …` used while a block is
    /// considered in isolation; covers re-freeze slots per block.
    canonical_slots: Vec<Value>,
}

impl FrozenClasses {
    fn new(vocab: &mut Vocabulary, n_classes: usize, max_slots: usize) -> Self {
        let values =
            (0..n_classes).map(|i| Value::Null(vocab.named_null(&format!("__qi{i}")))).collect();
        let canonical_slots =
            (0..max_slots).map(|i| Value::Null(vocab.named_null(&format!("__qsA{i}")))).collect();
        FrozenClasses { values, canonical_slots }
    }

    fn value(&self, class: usize) -> Value {
        self.values[class]
    }

    fn slot(&self, i: usize) -> Value {
        self.canonical_slots[i]
    }

    /// The class of a frozen value, if it is one.
    fn class_of(&self, v: Value) -> Option<usize> {
        self.values.iter().position(|&f| f == v)
    }

    /// The sub-instance of facts mentioning only class values and
    /// constants (no slots, no foreign values) — the part of an export
    /// that is visible on the witness tuple.
    fn class_only(&self, instance: &Instance) -> Instance {
        instance
            .facts()
            .filter(|f| {
                f.args().iter().all(|&v| match v {
                    Value::Const(_) => true,
                    Value::Null(_) => self.class_of(v).is_some(),
                })
            })
            .collect()
    }
}

fn freeze_dep_atoms(
    atoms: &[Atom],
    var_to_class: &FxHashMap<VarId, usize>,
    frozen: &FrozenClasses,
) -> Instance {
    atoms.iter().map(|a| a.instantiate(&|v: VarId| frozen.value(var_to_class[&v]))).collect()
}

/// Chase a block or cover into the target under the construction's
/// config, so a cancellation also stops the chase's searches.
fn chase_to_target(
    instance: &Instance,
    mapping: &SchemaMapping,
    vocab: &mut Vocabulary,
    config: &HomConfig,
) -> Result<Instance, CoreError> {
    let result = chase(instance, &mapping.dependencies, vocab, &chase_options(config))?;
    Ok(result.instance.restrict_to(&mapping.target))
}

/// A candidate explanation fragment: a premise image mapping each
/// variable to a witness class **or a fresh slot** (an existential
/// value beyond the witness tuple). The class-visible part of its own
/// export must be a non-empty subset of `C_e`.
///
/// Slots are essential for completeness: the footprint `T(a)` of
/// `S(x,y) ∧ S(y,y) → T(x)` may be explained by `∃y (S(a,y) ∧
/// S(y,y))` for a `y` that is *not* part of the witness at all.
#[derive(Debug, Clone)]
struct Block {
    /// Source atoms, frozen with canonical slot values.
    atoms: Instance,
    /// Number of canonical slots used.
    n_slots: usize,
}

fn enumerate_blocks(
    mapping: &SchemaMapping,
    n_classes: usize,
    frozen: &FrozenClasses,
    c_e: &Instance,
    vocab: &mut Vocabulary,
    config: &HomConfig,
) -> Result<Vec<Block>, CoreError> {
    let mut blocks = Vec::new();
    let mut seen: FxHashSet<Instance> = FxHashSet::default();
    for dep in &mapping.dependencies {
        let vars = dep.universal_vars();
        let m = vars.len();
        // Alphabet: classes 0..n_classes, then slots. Enumerate all
        // assignments, normalizing slot indices by first occurrence so
        // symmetric variants collide in `seen`.
        let alphabet = n_classes + m;
        let mut idx = vec![0usize; m];
        loop {
            // Normalize slot usage.
            let mut slot_rename: FxHashMap<usize, usize> = FxHashMap::default();
            let mut assignment: FxHashMap<VarId, Value> = FxHashMap::default();
            let mut n_slots = 0usize;
            for (var, &choice) in vars.iter().zip(&idx) {
                let value = if choice < n_classes {
                    frozen.value(choice)
                } else {
                    let raw = choice - n_classes;
                    let norm = *slot_rename.entry(raw).or_insert_with(|| {
                        let s = n_slots;
                        n_slots += 1;
                        s
                    });
                    frozen.slot(norm)
                };
                assignment.insert(*var, value);
            }
            let atoms: Instance = dep
                .premise
                .atoms
                .iter()
                .map(|a| a.instantiate(&|v: VarId| assignment[&v]))
                .collect();
            if seen.insert(atoms.clone()) {
                let export = chase_to_target(&atoms, mapping, vocab, config)?;
                let visible = frozen.class_only(&export);
                let contributes = visible.facts().any(|f| c_e.contains(&f));
                if contributes {
                    blocks.push(Block { atoms, n_slots });
                    if blocks.len() > MAX_BLOCKS {
                        return Err(CoreError::SearchLimitExceeded {
                            what: "candidate blocks",
                            limit: MAX_BLOCKS,
                        });
                    }
                }
            }
            // Odometer over assignments.
            let mut pos = m;
            loop {
                if pos == 0 {
                    idx.clear();
                    break;
                }
                pos -= 1;
                idx[pos] += 1;
                if idx[pos] < alphabet {
                    break;
                }
                idx[pos] = 0;
            }
            if idx.is_empty() || m == 0 {
                break;
            }
        }
    }
    Ok(blocks)
}

/// Inclusion-minimal unions of blocks whose combined chase, restricted
/// to the class-visible facts, equals `C_e` exactly. Each block's slots
/// are renamed apart before the union (private existentials). Returns
/// the unioned source instances together with the set of per-cover slot
/// values used (for unfreezing into existential variables).
fn minimal_covers(
    blocks: &[Block],
    c_e: &Instance,
    mapping: &SchemaMapping,
    frozen: &FrozenClasses,
    vocab: &mut Vocabulary,
    config: &HomConfig,
) -> Result<(Vec<Instance>, FxHashSet<Value>), CoreError> {
    // Rename each block's canonical slots to private per-block values.
    let mut slot_values: FxHashSet<Value> = FxHashSet::default();
    let renamed: Vec<Instance> = blocks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let mut map: FxHashMap<Value, Value> = FxHashMap::default();
            for j in 0..b.n_slots {
                let private = Value::Null(vocab.named_null(&format!("__qs{i}_{j}")));
                slot_values.insert(private);
                map.insert(frozen.slot(j), private);
            }
            b.atoms.map_values(|v| map.get(&v).copied().unwrap_or(v))
        })
        .collect();

    let mut cover_indices: Vec<Vec<usize>> = Vec::new();
    let mut covers: Vec<Instance> = Vec::new();
    let max_size = MAX_COVER_SIZE.min(blocks.len());
    let mut combo: Vec<usize> = Vec::new();
    for size in 1..=max_size {
        combo.clear();
        combo.extend(0..size);
        loop {
            let is_superset_of_cover =
                cover_indices.iter().any(|c| c.iter().all(|b| combo.contains(b)));
            if !is_superset_of_cover {
                let mut union = Instance::new();
                for &b in &combo {
                    union = union.union(&renamed[b]);
                }
                let export = chase_to_target(&union, mapping, vocab, config)?;
                if c_e.is_subset_of(&frozen.class_only(&export)) {
                    cover_indices.push(combo.clone());
                    covers.push(union);
                }
            }
            if !next_combination(&mut combo, blocks.len()) {
                break;
            }
        }
    }
    Ok((covers, slot_values))
}

fn next_combination(idx: &mut [usize], n: usize) -> bool {
    let k = idx.len();
    let mut i = k;
    loop {
        if i == 0 {
            return false;
        }
        i -= 1;
        if idx[i] < n - (k - i) {
            idx[i] += 1;
            for j in i + 1..k {
                idx[j] = idx[j - 1] + 1;
            }
            return true;
        }
    }
}

/// Un-freeze `C_e` and the covers into a disjunctive tgd with
/// inequalities. Class values become premise variables; slot values
/// become per-disjunct existentials; non-exported classes used by a
/// disjunct are existential too.
fn emit_rule(
    c_e: &Instance,
    covers: &[Instance],
    slot_values: &FxHashSet<Value>,
    frozen: &FrozenClasses,
    vocab: &Vocabulary,
) -> Dependency {
    // Classes exported by C_e become premise variables.
    let mut exported: Vec<usize> = Vec::new();
    for fact in c_e.canonical_facts() {
        for &v in fact.args() {
            if let Some(c) = frozen.class_of(v) {
                if !exported.contains(&c) {
                    exported.push(c);
                }
            }
        }
    }
    exported.sort_unstable();
    let n_classes = frozen.values.len();

    // Premise: C_e mentions only class values and constants.
    let mut premise_atoms: Vec<Atom> = Vec::new();
    for fact in c_e.canonical_facts() {
        let args = fact
            .args()
            .iter()
            .map(|&v| match frozen.class_of(v) {
                Some(c) => Term::Var(VarId(c as u32)),
                None => match v {
                    Value::Const(c) => Term::Const(c),
                    Value::Null(n) => unreachable!(
                        "unexpected foreign null {n:?} in footprint (vocab has {} nulls)",
                        vocab.null_count()
                    ),
                },
            })
            .collect();
        premise_atoms.push(Atom { rel: fact.relation(), args });
    }
    let mut inequalities = Vec::new();
    for (i, &a) in exported.iter().enumerate() {
        for &b in &exported[i + 1..] {
            inequalities.push((VarId(a as u32), VarId(b as u32)));
        }
    }

    let mut disjuncts: Vec<Conjunct> = Vec::new();
    let mut seen_disjuncts: FxHashSet<Vec<Atom>> = FxHashSet::default();
    let mut max_extra = 0usize;
    for cover in covers {
        let mut slot_map: FxHashMap<Value, VarId> = FxHashMap::default();
        let mut next = n_classes;
        let mut atoms: Vec<Atom> = Vec::new();
        for fact in cover.canonical_facts() {
            let mut args = Vec::with_capacity(fact.arity());
            for &v in fact.args() {
                let term = if let Some(c) = frozen.class_of(v) {
                    Term::Var(VarId(c as u32))
                } else if slot_values.contains(&v) {
                    let id = *slot_map.entry(v).or_insert_with(|| {
                        let id = VarId(next as u32);
                        next += 1;
                        id
                    });
                    Term::Var(id)
                } else {
                    match v {
                        Value::Const(c) => Term::Const(c),
                        Value::Null(n) => unreachable!(
                            "unexpected foreign null {n:?} in cover (vocab has {} nulls)",
                            vocab.null_count()
                        ),
                    }
                };
                args.push(term);
            }
            atoms.push(Atom { rel: fact.relation(), args });
        }
        if !seen_disjuncts.insert(atoms.clone()) {
            continue;
        }
        let mut existentials: Vec<VarId> = slot_map.values().copied().collect();
        existentials.sort_unstable();
        for a in &atoms {
            for v in a.vars() {
                let class = v.0 as usize;
                if class < n_classes && !exported.contains(&class) && !existentials.contains(&v) {
                    existentials.push(v);
                }
            }
        }
        max_extra = max_extra.max(next - n_classes);
        disjuncts.push(Conjunct { existentials, atoms });
    }

    let var_names: Vec<String> = (0..n_classes)
        .map(|i| format!("x{i}"))
        .chain((0..max_extra).map(|i| format!("y{i}")))
        .collect();
    Dependency::new(
        var_names,
        Premise { atoms: premise_atoms, constant_vars: vec![], inequalities },
        disjuncts,
    )
}

/// Rename the variables of an atom under a (total on its vars) map.
fn rename_atom(a: &Atom, map: &FxHashMap<VarId, VarId>) -> Atom {
    Atom {
        rel: a.rel,
        args: a
            .args
            .iter()
            .map(|t| match *t {
                Term::Var(v) => Term::Var(map[&v]),
                c => c,
            })
            .collect(),
    }
}

fn render_term(vocab: &Vocabulary, t: &Term) -> String {
    match *t {
        Term::Var(v) => format!("v{}", v.0),
        Term::Const(c) => format!("'{}'", vocab.constant_name(c)),
    }
}

fn render_atom(vocab: &Vocabulary, a: &Atom) -> String {
    let args: Vec<String> = a.args.iter().map(|t| render_term(vocab, t)).collect();
    format!("{}({})", vocab.relation_name(a.rel), args.join(","))
}

/// Canonical rendering of a premise under a given renaming of its
/// variables: sorted atom strings plus sorted inequality strings.
fn premise_key(vocab: &Vocabulary, premise: &Premise, map: &FxHashMap<VarId, VarId>) -> String {
    let mut atoms: Vec<String> =
        premise.atoms.iter().map(|a| render_atom(vocab, &rename_atom(a, map))).collect();
    atoms.sort();
    let mut ineqs: Vec<String> = premise
        .inequalities
        .iter()
        .map(|&(a, b)| {
            let mut pair = [map[&a].0, map[&b].0];
            pair.sort_unstable();
            format!("v{}!=v{}", pair[0], pair[1])
        })
        .collect();
    ineqs.sort();
    format!("{} % {}", atoms.join(" & "), ineqs.join(" & "))
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current: Vec<usize> = (0..n).collect();
    fn rec(k: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k == current.len() {
            out.push(current.clone());
            return;
        }
        for i in k..current.len() {
            current.swap(k, i);
            rec(k + 1, current, out);
            current.swap(k, i);
        }
    }
    rec(0, &mut current, &mut out);
    out
}

/// A rule in canonical form: premise variables renumbered `0..k` by the
/// lexicographically minimal rendering, existentials per disjunct
/// renumbered from `k`, disjuncts deduplicated and sorted.
struct CanonicalRule {
    key: String,
    premise: Premise,
    premise_vars: usize,
    /// (canonical rendering, conjunct) pairs, sorted by rendering.
    disjuncts: Vec<(String, Conjunct)>,
    max_existentials: usize,
}

fn canonicalize_rule(vocab: &Vocabulary, dep: &Dependency) -> CanonicalRule {
    let premise_vars = dep.premise.atom_vars();
    let k = premise_vars.len();
    // Pick the premise-variable order minimizing the rendering. Exported
    // footprints are small; cap the factorial search and fall back to
    // the given order beyond it (merging then degrades gracefully to
    // exact-match deduplication).
    let orders: Vec<Vec<usize>> = if k <= 6 { permutations(k) } else { vec![(0..k).collect()] };
    let mut best: Option<(String, FxHashMap<VarId, VarId>)> = None;
    for order in orders {
        let map: FxHashMap<VarId, VarId> = order
            .iter()
            .enumerate()
            .map(|(rank, &pos)| (premise_vars[pos], VarId(rank as u32)))
            .collect();
        let key = premise_key(vocab, &dep.premise, &map);
        if best.as_ref().is_none_or(|(b, _)| key < *b) {
            best = Some((key, map));
        }
    }
    // Invariant: even a zero-variable premise has one (empty) ordering,
    // so the loop above always runs at least once.
    #[allow(clippy::expect_used)]
    let (key, premise_map) = best.expect("at least one ordering");

    let premise = Premise {
        atoms: dep.premise.atoms.iter().map(|a| rename_atom(a, &premise_map)).collect(),
        constant_vars: Vec::new(),
        inequalities: dep
            .premise
            .inequalities
            .iter()
            .map(|&(a, b)| (premise_map[&a], premise_map[&b]))
            .collect(),
    };

    let mut disjuncts: Vec<(String, Conjunct)> = Vec::new();
    let mut max_existentials = 0usize;
    for d in &dep.disjuncts {
        // Pre-sort atoms with existentials blanked so the existential
        // numbering is insensitive to the input atom order.
        let mut atoms = d.atoms.clone();
        let blank_render = |a: &Atom| -> String {
            let tmp = Atom {
                rel: a.rel,
                args: a
                    .args
                    .iter()
                    .map(|t| match *t {
                        Term::Var(v) if !premise_map.contains_key(&v) => Term::Var(VarId(u32::MAX)),
                        Term::Var(v) => Term::Var(premise_map[&v]),
                        c => c,
                    })
                    .collect(),
            };
            render_atom(vocab, &tmp)
        };
        atoms.sort_by_key(&blank_render);
        let mut full_map = premise_map.clone();
        let mut existentials = Vec::new();
        for a in &atoms {
            for v in a.vars() {
                if let std::collections::hash_map::Entry::Vacant(slot) = full_map.entry(v) {
                    let id = VarId((k + existentials.len()) as u32);
                    slot.insert(id);
                    existentials.push(id);
                }
            }
        }
        max_existentials = max_existentials.max(existentials.len());
        let mut renamed: Vec<Atom> = atoms.iter().map(|a| rename_atom(a, &full_map)).collect();
        renamed.sort_by_key(|a| render_atom(vocab, a));
        let rendering =
            renamed.iter().map(|a| render_atom(vocab, a)).collect::<Vec<_>>().join(" & ");
        if !disjuncts.iter().any(|(r, _)| *r == rendering) {
            disjuncts.push((rendering, Conjunct { existentials, atoms: renamed }));
        }
    }
    disjuncts.sort_by(|a, b| a.0.cmp(&b.0));
    CanonicalRule { key, premise, premise_vars: k, disjuncts, max_existentials }
}

/// Merge canonicalized rules with identical premises, unioning their
/// disjunct sets.
fn merge_rules(rules: Vec<Dependency>, vocab: &Vocabulary) -> Vec<Dependency> {
    let mut order: Vec<String> = Vec::new();
    let mut merged: FxHashMap<String, CanonicalRule> = FxHashMap::default();
    for rule in &rules {
        let canon = canonicalize_rule(vocab, rule);
        match merged.get_mut(&canon.key) {
            None => {
                order.push(canon.key.clone());
                merged.insert(canon.key.clone(), canon);
            }
            Some(existing) => {
                existing.max_existentials = existing.max_existentials.max(canon.max_existentials);
                for (rendering, conjunct) in canon.disjuncts {
                    if !existing.disjuncts.iter().any(|(r, _)| *r == rendering) {
                        existing.disjuncts.push((rendering, conjunct));
                    }
                }
                existing.disjuncts.sort_by(|a, b| a.0.cmp(&b.0));
            }
        }
    }
    order
        .into_iter()
        .map(|key| {
            // Invariant: `order` only holds keys inserted into `merged`
            // above, and each key appears in `order` exactly once.
            #[allow(clippy::expect_used)]
            let rule = merged.remove(&key).expect("key recorded at insert");
            let mut var_names: Vec<String> =
                (0..rule.premise_vars).map(|i| format!("x{i}")).collect();
            var_names.extend((0..rule.max_existentials).map(|i| format!("y{i}")));
            Dependency::new(
                var_names,
                rule.premise,
                rule.disjuncts.into_iter().map(|(_, c)| c).collect(),
            )
        })
        .collect()
}

/// All set partitions of `{0, …, n-1}` as restricted-growth strings:
/// `partition[i]` is the class of element `i`, classes numbered by first
/// occurrence. `n = 0` yields the single empty partition.
pub fn set_partitions(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = vec![0usize; n];
    fn rec(i: usize, max_used: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if i == current.len() {
            out.push(current.clone());
            return;
        }
        for class in 0..=max_used + 1 {
            current[i] = class;
            rec(i + 1, max_used.max(class), current, out);
        }
    }
    if n == 0 {
        out.push(Vec::new());
        return out;
    }
    // First element is always class 0.
    current[0] = 0;
    rec(1, 0, &mut current, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::check_maximum_extended_recovery;
    use crate::Universe;
    use rde_deps::{parse_mapping, printer};
    use rde_hom::HomStats;

    fn synthesize(text: &str) -> (Vocabulary, SchemaMapping, SchemaMapping) {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, text).unwrap();
        let rec = maximum_extended_recovery_full(&m, &mut v, &HomConfig::default()).unwrap();
        (v, m, rec)
    }

    #[test]
    fn set_partition_counts_are_bell_numbers() {
        assert_eq!(set_partitions(0).len(), 1);
        assert_eq!(set_partitions(1).len(), 1);
        assert_eq!(set_partitions(2).len(), 2);
        assert_eq!(set_partitions(3).len(), 5);
        assert_eq!(set_partitions(4).len(), 15);
        assert_eq!(set_partitions(5).len(), 52);
        // Restricted growth: first element in class 0, classes contiguous.
        for p in set_partitions(4) {
            assert_eq!(p[0], 0);
            let max = *p.iter().max().unwrap();
            for c in 0..=max {
                assert!(p.contains(&c));
            }
        }
    }

    /// Theorem 5.2's mapping: the algorithm reproduces the paper's Σ*
    /// exactly (up to variable names):
    ///   P′(x, y) ∧ x ≠ y → P(x, y)
    ///   P′(x, x) → T(x) ∨ P(x, x)
    #[test]
    fn theorem_5_2_sigma_star() {
        let (v, _m, rec) =
            synthesize("source: P/2, T/1\ntarget: Pp/2\nP(x,y) -> Pp(x,y)\nT(x) -> Pp(x,x)");
        assert_eq!(rec.dependencies.len(), 2, "rules: {}", printer::mapping(&v, &rec));
        let rendered = printer::mapping(&v, &rec);
        // Distinct rule: one disjunct P(x,y) guarded by x != y.
        let distinct = rec
            .dependencies
            .iter()
            .find(|d| d.has_inequalities())
            .unwrap_or_else(|| panic!("no inequality rule in {rendered}"));
        assert_eq!(distinct.disjuncts.len(), 1);
        assert_eq!(distinct.premise.atoms.len(), 1);
        // Collapsed rule: two disjuncts T(x) | P(x,x).
        let collapsed = rec
            .dependencies
            .iter()
            .find(|d| !d.has_inequalities())
            .unwrap_or_else(|| panic!("no collapsed rule in {rendered}"));
        assert_eq!(collapsed.disjuncts.len(), 2, "rendered: {rendered}");
        // And it is a maximum extended recovery on a bounded universe.
        let mut v = v;
        let u = Universe::new(&mut v, 2, 1, 1);
        let verdict = check_maximum_extended_recovery(
            &_m,
            &rec,
            &u,
            &mut v,
            &HomConfig::default(),
            &mut HomStats::default(),
        )
        .unwrap();
        assert!(verdict.holds(), "verdict: {verdict:?}\n{rendered}");
    }

    /// The union mapping: R(x) → P(x) ∨ Q(x).
    #[test]
    fn union_mapping_recovery() {
        let (v, m, rec) = synthesize("source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)");
        assert_eq!(rec.dependencies.len(), 1, "{}", printer::mapping(&v, &rec));
        let rule = &rec.dependencies[0];
        assert_eq!(rule.disjuncts.len(), 2);
        assert!(rule.premise.inequalities.is_empty());
        let mut v = v;
        let u = Universe::new(&mut v, 1, 1, 2);
        let verdict = check_maximum_extended_recovery(
            &m,
            &rec,
            &u,
            &mut v,
            &HomConfig::default(),
            &mut HomStats::default(),
        )
        .unwrap();
        assert!(verdict.holds(), "verdict: {verdict:?}");
    }

    /// The copy mapping: copy-back rules (one per equality type).
    #[test]
    fn copy_mapping_recovery() {
        let (v, m, rec) = synthesize("source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)");
        let rendered = printer::mapping(&v, &rec);
        assert_eq!(rec.dependencies.len(), 2, "{rendered}");
        for rule in &rec.dependencies {
            assert_eq!(rule.disjuncts.len(), 1, "{rendered}");
        }
        let mut v = v;
        let u = Universe::small(&mut v);
        let verdict = check_maximum_extended_recovery(
            &m,
            &rec,
            &u,
            &mut v,
            &HomConfig::default(),
            &mut HomStats::default(),
        )
        .unwrap();
        assert!(verdict.holds(), "verdict: {verdict:?}\n{rendered}");
    }

    /// Multi-atom premises: P(x) ∧ Q(x) → S(x) plus P(x) → R(x). The
    /// recovery must use the combined footprint {R(x), S(x)} to justify
    /// re-asserting both P and Q.
    #[test]
    fn multi_atom_premise_interaction() {
        let (v, m, rec) =
            synthesize("source: P/1, Q/1\ntarget: R/1, S/1\nP(x) -> R(x)\nP(x) & Q(x) -> S(x)");
        let rendered = printer::mapping(&v, &rec);
        let mut v = v;
        let u = Universe::new(&mut v, 1, 1, 2);
        let verdict = check_maximum_extended_recovery(
            &m,
            &rec,
            &u,
            &mut v,
            &HomConfig::default(),
            &mut HomStats::default(),
        )
        .unwrap();
        assert!(verdict.holds(), "verdict: {verdict:?}\n{rendered}");
    }

    /// Self-join premises exercise existentials in disjuncts:
    /// E(x,y) ∧ E(y,z) → T(x,z) makes y existential in the reverse rule.
    #[test]
    fn projected_join_variable_becomes_existential() {
        let (v, _m, rec) = synthesize("source: E/2\ntarget: T/2\nE(x, y) & E(y, z) -> T(x, z)");
        let rendered = printer::mapping(&v, &rec);
        let has_existential =
            rec.dependencies.iter().any(|d| d.disjuncts.iter().any(|c| !c.existentials.is_empty()));
        assert!(has_existential, "expected an existential disjunct in {rendered}");
    }

    /// The projection `P(x,y) → Q(x)`: both equality types export the
    /// same footprint `{Q(x)}`, so their rules must be MERGED into one
    /// disjunctive rule `Q(x) → P(x,x) ∨ ∃y P(x,y)` — two separate
    /// rules would conjoin and force `P(x,x)` into every branch.
    #[test]
    fn projection_footprints_are_merged() {
        let (v, m, rec) = synthesize("source: P/2\ntarget: Q/1\nP(x,y) -> Q(x)");
        let rendered = printer::mapping(&v, &rec);
        assert_eq!(rec.dependencies.len(), 1, "{rendered}");
        assert_eq!(rec.dependencies[0].disjuncts.len(), 2, "{rendered}");
        let mut v = v;
        let u = Universe::new(&mut v, 2, 1, 2);
        let verdict = check_maximum_extended_recovery(
            &m,
            &rec,
            &u,
            &mut v,
            &HomConfig::default(),
            &mut HomStats::default(),
        )
        .unwrap();
        assert!(verdict.holds(), "verdict: {verdict:?}\n{rendered}");
        // In particular it IS an extended recovery at I = {P(a, b)}.
        let i = rde_model::parse::parse_instance(&mut v, "P(a, b)").unwrap();
        assert!(crate::recovery::recovers(
            &m,
            &rec,
            &i,
            &mut v,
            &HomConfig::default(),
            &mut HomStats::default()
        )
        .unwrap()
        .holds());
    }

    #[test]
    fn non_full_mappings_are_rejected() {
        let mut v = Vocabulary::new();
        let m =
            parse_mapping(&mut v, "source: P/1\ntarget: Q/2\nP(x) -> exists y . Q(x, y)").unwrap();
        let err = maximum_extended_recovery_full(&m, &mut v, &HomConfig::default()).unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedMapping { .. }));
    }

    /// The output language check for Theorem 5.1: disjunctive tgds with
    /// inequalities (no Constant guards).
    #[test]
    fn output_language_is_disjunctive_tgds_with_inequalities() {
        let (_, _, rec) =
            synthesize("source: P/2, T/1\ntarget: Pp/2\nP(x,y) -> Pp(x,y)\nT(x) -> Pp(x,x)");
        assert!(!rec.uses_constant_guards());
        for d in &rec.dependencies {
            assert!(!d.disjuncts.is_empty());
        }
    }
}
