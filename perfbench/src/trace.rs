//! The benchmark's own span recorder. Spans are recorded from the
//! benchmark's side of every call into a layer (the program itself is
//! not instrumented by this benchmark), kept in memory, and written out
//! when the run ends.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. `parent` indexes the span that caused it; spans
/// of one operation share `op_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

/// One thread's span buffer; buffers are merged after the threads join,
/// so recording takes no lock.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records a finished span and returns its index (a parent for later
    /// spans of this buffer).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op_id: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op_id,
        });
        self.spans.len() - 1
    }

    /// Appends another thread's buffer, keeping parent links intact.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of that interval
/// covered by its children (overlapping children are not counted twice,
/// and a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let start = s.start_ns.max(spans[p].start_ns);
            let end = s.end_ns.min(spans[p].end_ns);
            if start < end {
                children[p].push((start, end));
            }
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
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += self_ns;
    }
    out
}

/// Spans written to a trace file; the summary always covers all of them.
const MAX_WRITTEN_SPANS: usize = 50_000;

pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Value {
    let summary: Vec<Value> = by_name(spans)
        .into_iter()
        .map(|(name, (count, total_ns, self_ns))| {
            json!({"name": name, "count": count, "total_ns": total_ns, "self_ns": self_ns})
        })
        .collect();
    let written: Vec<Value> = spans
        .iter()
        .take(MAX_WRITTEN_SPANS)
        .map(|s| {
            json!({
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "parent": s.parent,
                "op_id": s.op_id,
            })
        })
        .collect();
    json!({
        "workload": workload,
        "seed": seed,
        "spans_recorded": spans.len(),
        "spans_written": written.len(),
        "by_name": summary,
        "spans": written,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),  // 20 covered
            span(20, 50, Some(0)),  // overlaps the previous: 20 more
            span(90, 120, Some(0)), // clipped to the parent: 10
            span(12, 18, Some(1)),  // grandchild only reduces its parent
            span(200, 260, None),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6, 60]);
    }

    #[test]
    fn absorbing_a_buffer_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let mut b = Tracer::new(epoch);
        let root = a.record("op", None, 1, epoch, epoch);
        a.record("call", Some(root), 1, epoch, epoch);
        let root = b.record("op", None, 2, epoch, epoch);
        b.record("call", Some(root), 2, epoch, epoch);
        a.absorb(b);
        let parents: Vec<_> = a.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
    }
}
