//! In-memory span recording around calls into the V-cal layers.
//!
//! Every span has a name, a start and end (nanoseconds from a shared
//! origin), an optional parent and the id of the op it belongs to. A
//! root span is either the op itself (`"op"`) or a `"probe"`: work the
//! traced run does after an op to time a layer function outside it
//! (cache-key hashing, the sequential oracle, a local warm execution).
//!
//! Spans are measured around public calls from the benchmark's own
//! code, except *placed* spans: durations the program reports for work
//! inside a call (the executor's per-node phase timings, the service's
//! queue wait) that carry no start time of their own. Those are laid
//! end to end from their parent's start and flagged `placed` in the
//! output, so only their durations are read as measured.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
    /// Work done inside the span, counted at the same boundary
    /// (elements updated for `exec.update`; 0 where not counted).
    pub work: u64,
    pub placed: bool,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span recorder. When off, every method is a no-op and no clock is
/// read, so the untraced run pays nothing for the calls.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    origin: Instant,
    op: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace {
            on: false,
            origin,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a root span (`"op"` or `"probe"`) for op `op`.
    pub fn root(&mut self, name: &'static str, op: u64) -> Option<usize> {
        self.op = op;
        self.stack.clear();
        self.begin(name)
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let t = self.now();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start: t,
            end: t,
            work: 0,
            placed: false,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Close span `id` (and anything left open inside it).
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let t = self.now();
        self.spans[id].end = t;
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Record the work done inside span `id`.
    pub fn set_work(&mut self, id: Option<usize>, work: u64) {
        if let Some(id) = id {
            self.spans[id].work = work;
        }
    }

    /// Time `f` as a span named `name`.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Add a placed child of `parent`: `dur` nanoseconds starting
    /// `offset` nanoseconds after the parent's start.
    pub fn placed(&mut self, parent: usize, name: &'static str, offset: u64, dur: u64, work: u64) {
        let start = self.spans[parent].start + offset;
        self.spans.push(Span {
            name,
            op: self.spans[parent].op,
            parent: Some(parent),
            start,
            end: start + dur,
            work,
            placed: true,
        });
    }

    /// Append another recorder's spans (a second client thread).
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Check the attribution invariants: every span lies inside its parent
/// (so inside its op), and the children of a span never sum to more
/// than the span. Returns the number of spans breaking either rule.
pub fn violations(spans: &[Span]) -> u64 {
    let mut child_sum = vec![0u64; spans.len()];
    let mut bad = 0;
    for s in spans {
        if s.end < s.start {
            bad += 1;
        }
        if let Some(p) = s.parent {
            let ps = &spans[p];
            if s.start < ps.start || s.end > ps.end || s.op != ps.op {
                bad += 1;
            }
            child_sum[p] += s.dur();
        }
    }
    for (s, sum) in spans.iter().zip(&child_sum) {
        if *sum > s.dur() {
            bad += 1;
        }
    }
    bad
}

/// Per-op sums over one op's spans: inclusive time and work by span
/// name, the op's own duration, and its unattributed remainder (op time
/// not covered by any leaf span inside it).
#[derive(Debug, Default)]
pub struct OpSums {
    pub op_ns: u64,
    pub unattributed_ns: u64,
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
}

impl OpSums {
    /// Inclusive nanoseconds in spans named `name`.
    pub fn ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |v| v.0)
    }

    /// Work counted in spans named `name`.
    pub fn work(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |v| v.1)
    }
}

/// Group spans by op. Only ops whose `"op"` root was recorded appear.
pub fn per_op(spans: &[Span]) -> Vec<OpSums> {
    let mut has_child = vec![false; spans.len()];
    let mut root_of = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            has_child[p] = true;
            root_of[i] = root_of[p];
        } else {
            root_of[i] = i;
        }
    }
    let mut ops: BTreeMap<u64, OpSums> = BTreeMap::new();
    for s in spans {
        if s.parent.is_none() && s.name == "op" {
            let e = ops.entry(s.op).or_default();
            e.op_ns = s.dur();
            e.unattributed_ns += s.dur();
        }
    }
    for (i, s) in spans.iter().enumerate() {
        let Some(e) = ops.get_mut(&s.op) else {
            continue;
        };
        let cell = e.by_name.entry(s.name).or_default();
        cell.0 += s.dur();
        cell.1 += s.work;
        let in_op = spans[root_of[i]].name == "op";
        if in_op && s.parent.is_some() && !has_child[i] {
            e.unattributed_ns = e.unattributed_ns.saturating_sub(s.dur());
        }
    }
    ops.into_values().collect()
}

/// Render spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"work\":{},\"placed\":{}}}",
            s.name, s.op, s.start, s.end, s.work, s.placed
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u64, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op,
            parent,
            start,
            end,
            work: 0,
            placed: false,
        }
    }

    #[test]
    fn unattributed_is_op_minus_leaves() {
        let spans = vec![
            span("op", 0, None, 0, 100),
            span("session.run_program", 0, Some(0), 5, 95),
            span("exec.send", 0, Some(1), 5, 25),
            span("exec.update", 0, Some(1), 25, 65),
            span("probe", 0, None, 100, 140),
            span("spmd.key", 0, Some(4), 100, 130),
        ];
        assert_eq!(violations(&spans), 0);
        let ops = per_op(&spans);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].op_ns, 100);
        assert_eq!(ops[0].unattributed_ns, 40);
        assert_eq!(ops[0].ns("spmd.key"), 30);
        assert_eq!(ops[0].ns("session.run_program"), 90);
    }

    #[test]
    fn violations_catch_escaping_and_overfull_spans() {
        let escaping = vec![span("op", 0, None, 10, 20), span("x", 0, Some(0), 5, 15)];
        assert_eq!(violations(&escaping), 1);
        let overfull = vec![
            span("op", 0, None, 0, 10),
            span("a", 0, Some(0), 0, 8),
            span("b", 0, Some(0), 2, 10),
        ];
        assert_eq!(violations(&overfull), 1);
    }
}
