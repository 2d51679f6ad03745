//! In-memory spans around the calls into each layer, and the self-time
//! arithmetic over them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer the call belongs to.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the grid cell the call worked on; inherited from the
    /// parent span when not given.
    pub cell: Option<usize>,
}

/// Records nested spans in memory.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`, nested in the innermost open
    /// span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let cell = cell.or_else(|| parent.and_then(|p| self.spans[p].cell));
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            cell,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"cell\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.cell)
            );
        }
        out
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
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
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Calls and times of one layer within a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    /// Spans of this layer.
    pub calls: usize,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Each call's full duration, nanoseconds.
    pub durations_ns: Vec<u64>,
}

/// Groups by name the spans nested (at any depth) in span `root`, the
/// root included.
pub fn layers_under(spans: &[Span], root: usize) -> BTreeMap<&'static str, Layer> {
    // Parents precede their children, so one forward walk finds roots.
    let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        let r = s.parent.map_or(i, |p| root_of[p]);
        root_of.push(r);
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for ((s, own), r) in spans.iter().zip(self_times(spans)).zip(root_of) {
        if r != root {
            continue;
        }
        let layer = out.entry(s.name).or_default();
        layer.calls += 1;
        layer.self_ns += own;
        layer.durations_ns.push(s.end_ns - s.start_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("pass", 0, 100, None),
            span("cell", 10, 60, Some(0)),
            span("build", 15, 35, Some(1)),
            span("sim", 40, 55, Some(1)),
            span("compare", 70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), [40, 15, 20, 15, 10]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root");
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = [
            span("sweep", 0, 100, None),
            span("w", 10, 50, Some(0)),
            span("w", 30, 70, Some(0)),
            span("w", 90, 120, Some(0)),
        ];
        // Covered: [10, 70) and [90, 100).
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn layers_sum_calls_self_time_and_durations_under_one_root() {
        let spans = [
            span("sweep", 0, 10, None),
            span("pass", 10, 110, None),
            span("build", 10, 40, Some(1)),
            span("build", 40, 60, Some(1)),
            span("pass", 110, 120, None),
            span("build", 110, 111, Some(4)),
        ];
        let by_layer = layers_under(&spans, 1);
        assert!(!by_layer.contains_key("sweep"));
        assert_eq!(by_layer["pass"].self_ns, 50);
        assert_eq!(by_layer["build"].calls, 2);
        assert_eq!(by_layer["build"].self_ns, 50);
        assert_eq!(by_layer["build"].durations_ns, [30, 20]);
    }

    #[test]
    fn tracer_nests_spans_and_inherits_the_cell() {
        let mut t = Tracer::new();
        let x = t.span("pass", None, |t| {
            t.span("cell", Some(3), |t| t.span("sim", None, |_| 7))
        });
        assert_eq!(x, 7);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(1))
        );
        assert_eq!((s[0].cell, s[1].cell, s[2].cell), (None, Some(3), Some(3)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let lines = t.to_json_lines();
        assert_eq!(lines.lines().count(), 3);
        assert!(lines.contains("\"name\": \"sim\""), "{lines}");
    }
}
