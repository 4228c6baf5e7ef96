//! In-memory spans recorded by the benchmark around its calls into the
//! workspace's public functions. Nothing inside the program is
//! instrumented: a span covers one call as seen from outside.
//!
//! Every span carries the op it belongs to and a link to its parent,
//! so self time (duration minus the part covered by children) can be
//! computed per layer, and each op's children can be checked to lie
//! inside the op.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, such as `chase.disjunctive`.
    pub name: &'static str,
    /// The op (one library call or one request) this span belongs to.
    pub op: u64,
    /// Index of this span in its recorder.
    pub id: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Wall time covered, ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A single-threaded span recorder with an explicit open-span stack.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch` (share one epoch
    /// between threads so their spans can be merged).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span { name, op, id, parent, start, end: start });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        let end = self.now();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = end;
    }

    /// Run `f` inside a span named `name` under the current op.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, op);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans, consuming the recorder.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Append `more` (from another recorder with the same epoch) to `all`,
/// renumbering ids and parent links.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.id += base;
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span, ns: its duration minus the length of the
/// union of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(s.end));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration() - covered.min(s.duration())
        })
        .collect()
}

/// Check that every child span lies inside its parent and belongs to
/// the same op. Returns the first violation.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for s in spans {
        let Some(p) = s.parent else { continue };
        let parent = &spans[p];
        if s.op != parent.op {
            return Err(format!(
                "span {} ({}) is in op {} but its parent is in op {}",
                s.id, s.name, s.op, parent.op
            ));
        }
        if s.start < parent.start || s.end > parent.end {
            return Err(format!(
                "span {} ({}) [{}, {}] leaves its parent {} ({}) [{}, {}]",
                s.id, s.name, s.start, s.end, parent.id, parent.name, parent.start, parent.end
            ));
        }
    }
    Ok(())
}

/// Per span name: (count, total self time ns).
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    out
}

/// Spans as JSON lines: `{"id","parent","op","name","start_ns","end_ns","self_ns"}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, parent, s.op, s.name, s.start, s.end, own
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, op: u64, start: u64, end: u64) -> Span {
        Span { name: "t", op, id, parent, start, end }
    }

    #[test]
    fn self_time_subtracts_children() {
        // op [0,100] with children [10,30] and [50,90]: self = 100-20-40.
        let spans = vec![
            span(0, None, 1, 0, 100),
            span(1, Some(0), 1, 10, 30),
            span(2, Some(0), 1, 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn self_time_counts_overlap_once() {
        // Overlapping children (two threads under one op) cover the
        // union [10,60], not 30+40.
        let spans = vec![
            span(0, None, 1, 0, 100),
            span(1, Some(0), 1, 10, 40),
            span(2, Some(0), 1, 20, 60),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn self_time_only_subtracts_direct_children() {
        // A grandchild is part of its parent's time, not the root's
        // direct subtraction.
        let spans =
            vec![span(0, None, 1, 0, 100), span(1, Some(0), 1, 0, 60), span(2, Some(1), 1, 10, 50)];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn self_time_clips_children_and_never_underflows() {
        let spans = vec![span(0, None, 1, 10, 20), span(1, Some(0), 1, 0, 30)];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn nesting_check_catches_escapes_and_op_mixups() {
        let ok = vec![span(0, None, 1, 0, 100), span(1, Some(0), 1, 0, 100)];
        assert!(check_nesting(&ok).is_ok());
        let escapes = vec![span(0, None, 1, 0, 100), span(1, Some(0), 1, 50, 101)];
        assert!(check_nesting(&escapes).is_err());
        let wrong_op = vec![span(0, None, 1, 0, 100), span(1, Some(0), 2, 10, 20)];
        assert!(check_nesting(&wrong_op).is_err());
    }

    #[test]
    fn recorder_links_parents_and_merge_renumbers() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let op = t.open("op", 7);
        let inner = t.span("inner", 7, || 3);
        assert_eq!(inner, 3);
        t.close(op);
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(check_nesting(&spans).is_ok());

        let mut all = spans.clone();
        merge(&mut all, spans);
        assert_eq!(all[3].id, 3);
        assert_eq!(all[3].parent, Some(2));
        assert!(check_nesting(&all).is_ok());
        let by_name = self_time_by_name(&all);
        assert_eq!(by_name["op"].0, 2);
        assert_eq!(to_jsonl(&all).lines().count(), 4);
    }
}
