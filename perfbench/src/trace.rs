//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into the library's layers (spans
//! inside the library are a separate change). They are kept in memory and
//! written out once the run ends, so recording costs a clock read and a
//! push. A disabled tracer records nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: name, interval in nanoseconds since the tracer's
/// origin, the enclosing span, and the request it served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `serve.tick`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request (or sequence) the call served.
    pub request: Option<usize>,
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// Records spans when enabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: Option<usize>) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::begin`] (spans close innermost
    /// first).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.now();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end = now;
    }

    /// Closes a span under a name known only once the call returned
    /// (e.g. whether a serving tick admitted anything).
    pub fn end_named(&mut self, id: SpanId, name: &'static str) {
        if let Some(i) = id {
            self.spans[i].name = name;
        }
        self.end(id);
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    #[must_use]
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Total and self time per span name, in microseconds, sorted by name.
#[must_use]
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut rows: std::collections::BTreeMap<&'static str, (usize, u64, u64)> =
        std::collections::BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let row = rows.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.end - s.start;
        row.2 += own;
    }
    rows.into_iter()
        .map(|(name, (n, total, own))| (name, n, total as f64 / 1e3, own as f64 / 1e3))
        .collect()
}

/// The spans as a JSON array.
#[must_use]
pub fn spans_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("[");
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let opt = |v: Option<usize>| v.map_or("null".to_owned(), |v| v.to_string());
        let _ = write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{},\"request\":{}}}",
            s.name,
            s.start,
            s.end,
            opt(s.parent),
            opt(s.request)
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            start,
            end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(0, 100, None),    // 0: root
            span(10, 30, Some(0)), // 1
            span(40, 90, Some(0)), // 2
            span(50, 60, Some(2)), // 3: grandchild, not the root's child
            span(70, 80, Some(2)), // 4
            span(200, 210, None),  // 5: leaf
            span(20, 25, Some(1)), // 6
            span(300, 400, None),  // 7: children overlap each other
            span(310, 350, Some(7)),
            span(340, 360, Some(7)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 20 - 50);
        assert_eq!(selfs[1], 20 - 5);
        assert_eq!(selfs[2], 50 - 10 - 10);
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[5], 10);
        assert_eq!(selfs[7], 100 - 50, "overlap is covered once");
        let total_self: u64 = selfs.iter().sum();
        let roots: u64 = [0, 5, 7]
            .iter()
            .map(|&i| spans[i].end - spans[i].start)
            .sum();
        assert!(total_self >= roots, "self times cover every root interval");
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", Some(3));
        t.span("inner", Some(3), || ());
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(t.durations_us("inner").len(), 1);

        let mut off = Tracer::new(false);
        let id = off.begin("outer", None);
        off.end(id);
        assert!(off.spans().is_empty());
    }
}
