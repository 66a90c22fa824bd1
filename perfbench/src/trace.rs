//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls
//! into each layer's public functions; nothing inside the library is
//! instrumented. A span holds a name, start and end (seconds since the
//! recorder's epoch), its parent span and the id of the operation
//! (pass, query, request, commit or batch) it belongs to. A disabled
//! recorder records nothing, so the untraced run pays one branch per
//! call site.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `sparse.spgemm.ata`.
    pub name: &'static str,
    /// Operation id shared by every span of one pass, query, request,
    /// commit or batch.
    pub op: u64,
    /// Recording lane: the thread or simulated rank that ran the span.
    pub lane: u32,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
}

impl Span {
    /// Wall-clock duration in seconds.
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// Handle returned by [`Recorder::begin`]; pass it to [`Recorder::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

/// Records nested spans on one thread or rank.
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Instant,
    lane: u32,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder on `lane` whose timestamps count from `epoch`.
    /// Recorders that will be merged must share the epoch.
    pub fn new(epoch: Instant, lane: u32, enabled: bool) -> Self {
        Recorder { epoch, lane, enabled, spans: Vec::new(), open: Vec::new() }
    }

    /// Open a span; its parent is the innermost span still open.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            op,
            lane: self.lane,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Close a span opened by [`Self::begin`]. Spans close in LIFO order.
    pub fn end(&mut self, id: SpanId) {
        if let Some(idx) = id.0 {
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
            self.spans[idx].end = self.epoch.elapsed().as_secs_f64();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Take the recorded spans out of the recorder.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
/// `spans` must carry parent indices into the same slice.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(cursor);
                let hi = hi.min(s.end);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            (s.duration() - covered).max(0.0)
        })
        .collect()
}

/// Self time per `(name, op)`, summed within each lane and then the
/// maximum taken over lanes — for simulated ranks, the slowest rank
/// sets the layer's time, as it sets the batch's.
pub fn self_time_by_op(spans: &[Span]) -> BTreeMap<(&'static str, u64), f64> {
    let selfs = self_times(spans);
    let mut per_lane: BTreeMap<(&'static str, u64, u32), f64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        *per_lane.entry((s.name, s.op, s.lane)).or_default() += t;
    }
    let mut out: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
    for ((name, op, _), t) in per_lane {
        let e = out.entry((name, op)).or_default();
        *e = e.max(t);
    }
    out
}

/// Append `other`'s spans to `into`, shifting parent indices.
pub fn merge(into: &mut Vec<Span>, other: Vec<Span>) {
    let base = into.len();
    into.extend(other.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        op: u64,
        lane: u32,
        parent: Option<usize>,
        start: f64,
        end: f64,
    ) -> Span {
        Span { name, op, lane, parent, start, end }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pass", 0, 0, None, 0.0, 10.0),
            span("a", 0, 0, Some(0), 1.0, 4.0),
            span("b", 0, 0, Some(0), 5.0, 6.5),
            span("a.inner", 0, 0, Some(1), 2.0, 3.0),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 5.5).abs() < 1e-12, "pass: 10 - 3 - 1.5");
        assert!((selfs[1] - 2.0).abs() < 1e-12, "a: 3 - 1");
        assert!((selfs[2] - 1.5).abs() < 1e-12);
        assert!((selfs[3] - 1.0).abs() < 1e-12);
        let total: f64 = selfs.iter().sum();
        assert!((total - 10.0).abs() < 1e-12, "self times tile the root span");
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 0, 0, None, 0.0, 4.0),
            span("x", 0, 0, Some(0), 1.0, 3.0),
            span("y", 0, 0, Some(0), 2.0, 5.0),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 1.0).abs() < 1e-12, "children cover [1, 4) of [0, 4)");
    }

    #[test]
    fn per_op_self_time_sums_in_lane_and_takes_the_slowest_lane() {
        let spans = vec![
            span("filter", 7, 0, None, 0.0, 1.0),
            span("filter", 7, 0, None, 2.0, 2.5),
            span("filter", 7, 1, None, 0.0, 2.0),
            span("filter", 8, 1, None, 0.0, 0.25),
        ];
        let by_op = self_time_by_op(&spans);
        assert!((by_op[&("filter", 7)] - 2.0).abs() < 1e-12);
        assert!((by_op[&("filter", 8)] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_merge_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, 0, true);
        let outer = a.begin("outer", 1);
        a.time("inner", 1, || std::hint::black_box(3 + 4));
        a.end(outer);
        let spans = a.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let mut all = vec![span("first", 0, 9, None, 0.0, 1.0)];
        merge(&mut all, spans);
        assert_eq!(all[2].parent, Some(1));
        let mut off = Recorder::new(epoch, 0, false);
        off.time("ignored", 0, || ());
        assert!(off.into_spans().is_empty());
    }
}
