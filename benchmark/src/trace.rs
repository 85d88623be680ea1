//! Spans recorded by the benchmark's own code around calls into each
//! layer. They stay in memory until the run ends, then go to
//! `benchmark/out/trace_<workload>.jsonl`; the per-layer table is
//! aggregated from them.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The operation this span belongs to; spans of one request share it.
    pub op: u64,
    pub id: u32,
    /// The span that caused this one; 0 for a root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Units of work done inside (pairs compared, calls made); 1 for a
    /// single call.
    pub count: u64,
}

/// A per-thread span sink. Ids are unique across the run's recorders
/// as long as each gets its own `lane`.
pub struct Recorder {
    epoch: Instant,
    next_id: u32,
    spans: Vec<Span>,
}

impl Recorder {
    /// `epoch` is shared by all recorders of a run so their clocks line
    /// up; `lane` (< 256) keeps their ids apart.
    pub fn new(epoch: Instant, lane: u32) -> Self {
        Self {
            epoch,
            next_id: (lane << 24) + 1,
            spans: Vec::new(),
        }
    }

    /// A recorder on the same clock for another thread.
    pub fn fork(&self, lane: u32) -> Self {
        Self::new(self.epoch, lane)
    }

    /// Takes over the spans another recorder collected.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span of `count` work units and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u32,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            name,
            op,
            id,
            parent,
            start_ns,
            end_ns,
            count,
        });
        out
    }

    /// Opens a span whose children are recorded before it closes;
    /// returns its id (for the children's `parent`) and start time.
    pub fn open(&mut self) -> (u32, u64) {
        let id = self.next_id;
        self.next_id += 1;
        (id, self.now())
    }

    /// Closes a span opened with [`Recorder::open`].
    pub fn close(&mut self, name: &'static str, op: u64, parent: u32, opened: (u32, u64)) {
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            op,
            id: opened.0,
            parent,
            start_ns: opened.1,
            end_ns,
            count: 1,
        });
    }

    /// Duration of the span recorded last; 0 before the first.
    pub fn last_ns(&self) -> u64 {
        self.spans.last().map_or(0, |s| s.end_ns - s.start_ns)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Aggregate {
    pub spans: u64,
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each interval its child spans cover.
    pub self_ns: u64,
}

impl Aggregate {
    /// Mean nanoseconds per unit of work; 0 when nothing was recorded.
    pub fn ns_per_unit(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    pub fn ms_per_unit(&self) -> f64 {
        self.ns_per_unit() / 1e6
    }
}

/// Per-name totals, with self time = duration − Σ direct children.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Aggregate> {
    let mut covered: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
    for s in spans {
        let a = out.entry(s.name).or_default();
        let duration = s.end_ns - s.start_ns;
        a.spans += 1;
        a.count += s.count;
        a.total_ns += duration;
        a.self_ns += duration.saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"op\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.name, s.op, s.id, s.parent, s.start_ns, s.end_ns, s.count
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let span = |name, id, parent, start_ns, end_ns| Span {
            name,
            op: 7,
            id,
            parent,
            start_ns,
            end_ns,
            count: 1,
        };
        let spans = [
            span("request", 1, 0, 0, 100),
            span("write", 2, 1, 5, 15),
            span("wait", 3, 1, 15, 90),
            span("kernel", 4, 3, 20, 80),
        ];
        let agg = aggregate(&spans);
        assert_eq!(agg["request"].self_ns, 100 - 10 - 75);
        assert_eq!(agg["wait"].self_ns, 75 - 60);
        assert_eq!((agg["kernel"].self_ns, agg["kernel"].total_ns), (60, 60));
    }

    #[test]
    fn recorder_links_children_to_an_open_parent() {
        let mut rec = Recorder::new(Instant::now(), 3);
        let root = rec.open();
        let answer = rec.time("child", 9, root.0, 4, || 42);
        rec.close("root", 9, 0, root);
        let spans = rec.into_spans();
        assert_eq!(answer, 42);
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!((spans[0].count, spans[1].parent), (4, 0));
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
        assert_eq!(spans[1].id >> 24, 3);
    }
}
