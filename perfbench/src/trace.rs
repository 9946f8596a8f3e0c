//! In-memory spans for the traced run: name, start, end, parent and the
//! round or request id they belong to. Spans are kept in memory and
//! written out once the run ends; self time is a span's duration minus the
//! part of it its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's span list.
    pub parent: Option<usize>,
    /// Round, cell or request the span belongs to.
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another thread's spans in, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Durations in milliseconds of every span called `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                serde_json::to_string(&s.name).map_err(std::io::Error::other)?,
                s.start_ns,
                s.end_ns,
                s.id
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
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
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: call count, total time and total self time (ns).
pub fn self_time_table(spans: &[Span]) -> BTreeMap<String, (usize, u64, u64)> {
    let mut table = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let entry = table.entry(s.name.clone()).or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 += s.duration_ns();
        entry.2 += own;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("round", 0, 100, None),
            span("client", 10, 40, Some(0)),
            span("aggregate", 50, 90, Some(0)),
            span("kernel", 60, 70, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("cell", 100, 200, None),
            span("a", 90, 150, Some(0)),
            span("b", 120, 160, Some(0)),
            span("c", 190, 260, Some(0)),
        ];
        // Covered: [100,160) ∪ [190,200) = 70 of 100.
        assert_eq!(self_times_ns(&spans)[0], 30);
        let table = self_time_table(&spans);
        assert_eq!(table["cell"], (1, 100, 30));
        assert_eq!(table["a"], (1, 60, 60));
    }

    #[test]
    fn nested_recording_and_absorb() {
        let mut t = Tracer::new(clock::now());
        let v = t.span("outer", 7, |t| t.span("inner", 7, |_| 42));
        assert_eq!(v, 42);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].start_ns <= t.spans()[1].start_ns);
        assert!(t.spans()[1].end_ns <= t.spans()[0].end_ns);
        let mut other = Tracer::new(clock::now());
        other.span("x", 1, |t| t.span("y", 1, |_| ()));
        t.absorb(other);
        assert_eq!(t.spans()[3].parent, Some(2));
        assert_eq!(t.durations_ms("inner").len(), 1);
    }
}
