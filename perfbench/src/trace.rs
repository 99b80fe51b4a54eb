//! In-memory span recorder and the per-layer self-time arithmetic.
//!
//! Spans are taken from outside the library: the benchmark opens one
//! around each call it makes into a layer's public API. Every span has
//! a name (the layer), a start and an end on a clock shared by all
//! threads of the run, the span that caused it, and the session it
//! belongs to. A layer's self time is its span's duration minus the
//! part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the run's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<SpanId>,
    /// The session this span worked for.
    pub session: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; every call is a no-op otherwise, so the
/// untraced run takes no clock readings on its behalf.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder timing against `origin` (share one origin between the
    /// recorders of one run).
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// `true` when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now. Returns `None` when disabled.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        session: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.record(name, now, now, parent, session)
    }

    /// Closes a span opened by [`open`](Tracer::open).
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Records a finished span with explicit bounds.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        session: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            session,
        });
        Some(self.spans.len() - 1)
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        session: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, session);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another recorder's spans (re-indexing their parents).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the recorder, keeping its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of `[lo, hi)` covered by the union of `intervals`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// The root each span descends from.
fn roots(spans: &[Span]) -> Vec<SpanId> {
    let mut root = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        let r = match s.parent {
            Some(p) => root[p],
            None => i,
        };
        root.push(r);
    }
    root
}

/// Per-layer tallies over a set of spans.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerStat {
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Spans recorded.
    pub count: u64,
}

/// Sums self and total time per layer name.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerStat> {
    let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.self_ns += self_ns;
        e.total_ns += s.duration_ns();
        e.count += 1;
    }
    out
}

/// For every root span named `root`: the summed self times of the
/// spans below it, as a share of its duration. A value of 1.0 means the
/// layers account for the whole session; the shortfall is glue between
/// the calls.
pub fn coverage(spans: &[Span], root: &str) -> Vec<f64> {
    let selfs = self_times(spans);
    let root_of = roots(spans);
    let mut below: BTreeMap<SpanId, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_some() {
            *below.entry(root_of[i]).or_default() += selfs[i];
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none() && s.name == root && s.duration_ns() > 0)
        .map(|(i, s)| below.get(&i).copied().unwrap_or(0) as f64 / s.duration_ns() as f64)
        .collect()
}

/// One JSON object per line, in recording order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"session\":{}}}",
            s.name, s.start_ns, s.end_ns, s.session
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            session: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_keeps_grandchildren_to_their_parent() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        // root loses a and b (30 + 40); a loses only its own child.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("b", 50, 90, Some(0)),
            span("c", 80, 95, Some(0)),
        ];
        // union of [50, 90) and [80, 95) is 45 ns
        assert_eq!(self_times(&spans)[0], 55);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 0, 50, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 50]);
    }

    #[test]
    fn layers_sum_self_and_total_time() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 0, 40, Some(0)),
            span("root", 100, 150, None),
            span("a", 100, 110, Some(2)),
        ];
        let layers = by_layer(&spans);
        assert_eq!(
            layers["root"],
            LayerStat {
                self_ns: 100,
                total_ns: 150,
                count: 2
            }
        );
        assert_eq!(layers["a"].self_ns, 50);
    }

    #[test]
    fn coverage_is_the_share_of_a_session_its_layers_account_for() {
        let spans = vec![
            span("e2e", 0, 100, None),
            span("engine", 0, 50, Some(0)),
            span("session", 50, 98, Some(0)),
            span("decode", 50, 70, Some(2)),
            span("replay", 200, 300, None),
        ];
        // engine 50 + session self 28 + decode 20 = 98 of 100
        let cov = coverage(&spans, "e2e");
        assert_eq!(cov.len(), 1);
        assert!((cov[0] - 0.98).abs() < 1e-12);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let id = t.open("x", None, 1);
        assert_eq!(id, None);
        t.close(id);
        assert_eq!(t.time("y", None, 1, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_reindexes_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin, true);
        a.record("r", 0, 10, None, 0);
        let mut b = Tracer::new(origin, true);
        let root = b.record("r", 20, 30, None, 1);
        b.record("c", 21, 29, root, 1);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(self_times(a.spans()), vec![10, 2, 8]);
    }

    #[test]
    fn open_and_close_measure_a_nested_interval() {
        let mut t = Tracer::new(Instant::now(), true);
        let root = t.open("r", None, 3);
        let child = t.open("c", root, 3);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(child);
        t.close(root);
        let s = t.spans();
        assert!(s[1].duration_ns() >= 2_000_000);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(to_jsonl(s).lines().count() == 2);
    }
}
