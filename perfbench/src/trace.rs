//! The traced run's span recorder.
//!
//! Spans are `{name, start, end, parent, request}` records kept in memory and
//! only ever opened around calls the benchmark itself makes into a layer's
//! public functions; no library code is instrumented. From them the run
//! derives each layer's self time (its duration minus its child spans) and
//! the share of each request's wall time that layer spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// The request (suite, served request or trial) the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Single-threaded recorder: spans nest by call order.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Close `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.now();
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name aggregate: number of spans, total and self nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time by span name: each span's duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.duration();
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let entry = out.entry(span.name).or_default();
        entry.calls += 1;
        entry.total_ns += span.duration();
        entry.self_ns += span.duration().saturating_sub(child_ns[i]);
    }
    out
}

/// For every root span named `root`, the share of its wall time covered by
/// its direct children (the layer spans). Returned in request order.
pub fn root_coverage(spans: &[Span], root: &str) -> Vec<f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.duration();
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none() && s.name == root)
        .map(|(i, s)| child_ns[i] as f64 / s.duration().max(1) as f64)
        .collect()
}

/// Durations (ns) of every span with the given name.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // suite [0,100) ⊃ eval [10,50) ⊃ engine [20,40); select [60,90).
        let spans = vec![
            span("suite", 0, 100, None),
            span("eval", 10, 50, Some(0)),
            span("engine", 20, 40, Some(1)),
            span("select", 60, 90, Some(0)),
            span("eval", 92, 97, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["suite"],
            SelfTime {
                calls: 1,
                total_ns: 100,
                self_ns: 100 - 40 - 30 - 5
            }
        );
        assert_eq!(
            t["eval"],
            SelfTime {
                calls: 2,
                total_ns: 45,
                self_ns: 20 + 5
            }
        );
        assert_eq!(t["engine"].self_ns, 20);
        assert_eq!(t["select"].self_ns, 30);
        // Self times partition the root's wall time.
        let sum: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(sum, 100);
        let cov = root_coverage(&spans, "suite");
        assert_eq!(cov.len(), 1);
        assert!((cov[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_spans_by_call_order() {
        let mut rec = Recorder::new();
        rec.span("suite", 3, || ());
        let root = rec.begin("suite", 4);
        let inner = rec.span("eval", 4, || 7);
        assert_eq!(inner, 7);
        rec.end(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].parent, None);
        assert_eq!(spans[2].request, 4);
        assert!(spans[1].start <= spans[2].start && spans[2].end <= spans[1].end);
        assert_eq!(durations(spans, "eval").len(), 1);
    }
}
