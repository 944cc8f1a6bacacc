//! Cluster-wide trace assembly: every process exports its retained
//! spans at `/_cpms/trace.json`; the lab scrapes those dumps during and
//! after the replay, merges them by `(trace, span)` — a span seen once
//! is kept even if the source collector later evicts it or the process
//! dies — and reconstructs per-trace span trees that cross process
//! boundaries (proxy → wire → broker, proxy → origin).
//!
//! Per trace the lab derives:
//!
//! - the **process set** — how many distinct processes contributed
//!   spans (the cross-process assertion's currency);
//! - **orphans** — spans whose parent id appears nowhere in the merged
//!   trace: evidence of a broken propagation hop or of span loss;
//! - the **critical path** — the greedy root-to-leaf descent that
//!   always follows the child with the largest inclusive duration;
//! - **time by class** — inclusive nanoseconds summed per span-name
//!   prefix (`proxy`, `wire`, `broker`, `origin`, `mgmt`), a coarse
//!   where-does-the-time-go breakdown.
//!
//! Everything here is pure over scraped JSON so it unit-tests without a
//! cluster; the harness owns the scraping.

use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One span scraped from a process's `/_cpms/trace.json` dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    /// Label of the process that recorded the span.
    pub process: String,
    /// 32-hex trace id.
    pub trace: String,
    /// 16-hex span id.
    pub span: String,
    /// Parent span id, `None` for trace roots.
    pub parent: Option<String>,
    /// Span name (`proxy.request`, `wire.call`, `broker.put`, `broker.get`, …).
    pub name: String,
    /// Free-form detail.
    pub detail: String,
    /// Wall-clock start.
    pub start_unix_micros: u64,
    /// Inclusive duration.
    pub duration_ns: u64,
    /// Whether the span ended in error.
    pub error: bool,
}

/// One hop on a trace's critical path.
#[derive(Debug, Clone)]
pub struct CriticalHop {
    /// Span name.
    pub name: String,
    /// Recording process.
    pub process: String,
    /// Inclusive duration.
    pub duration_ns: u64,
}

/// The derived shape of one merged trace.
#[derive(Debug)]
pub struct TraceSummary {
    /// 32-hex trace id.
    pub trace: String,
    /// Root span name, when the root was captured.
    pub root_name: Option<String>,
    /// Spans merged into this trace.
    pub span_count: usize,
    /// Distinct process labels that contributed spans.
    pub processes: BTreeSet<String>,
    /// Spans whose parent id is absent from the merged trace.
    pub orphans: usize,
    /// Whether any span ended in error.
    pub errored: bool,
    /// Root's inclusive duration (0 when the root is missing).
    pub duration_ns: u64,
    /// Greedy max-duration root-to-leaf descent.
    pub critical_path: Vec<CriticalHop>,
    /// Inclusive nanoseconds per span-name prefix (before the first `.`).
    pub time_by_class: BTreeMap<String, u64>,
}

/// Accumulates span dumps across processes and scrape cycles,
/// deduplicating by `(trace, span)`.
#[derive(Debug, Default)]
pub struct TraceStore {
    rows: HashMap<(String, String), SpanRow>,
}

impl TraceStore {
    /// Absorbs one `/_cpms/trace.json` document; returns how many spans
    /// were new. Malformed rows are skipped, not fatal — a half-written
    /// dump from a dying process must not sink the run.
    pub fn absorb(&mut self, doc: &Value) -> usize {
        let process = doc
            .get("process")
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string();
        let Some(spans) = doc.get("spans").and_then(Value::as_array) else {
            return 0;
        };
        let mut added = 0;
        for raw in spans {
            let Some(row) = parse_row(&process, raw) else {
                continue;
            };
            let key = (row.trace.clone(), row.span.clone());
            if self.rows.contains_key(&key) {
                continue;
            }
            self.rows.insert(key, row);
            added += 1;
        }
        added
    }

    /// Total merged spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether nothing has been absorbed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Derives every trace's summary, largest process set first.
    #[must_use]
    pub fn analyze(&self) -> Vec<TraceSummary> {
        let mut by_trace: BTreeMap<&str, Vec<&SpanRow>> = BTreeMap::new();
        for row in self.rows.values() {
            by_trace.entry(&row.trace).or_default().push(row);
        }
        let mut out: Vec<TraceSummary> = by_trace
            .into_iter()
            .map(|(trace, rows)| summarize(trace, &rows))
            .collect();
        out.sort_by(|a, b| {
            (b.processes.len(), b.span_count, &b.trace).cmp(&(
                a.processes.len(),
                a.span_count,
                &a.trace,
            ))
        });
        out
    }

    /// Renders the merged store as the lab's `traces.json` document:
    /// per-trace summaries (critical path included) plus the raw spans.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let traces: Vec<Value> = self
            .analyze()
            .iter()
            .map(|summary| {
                let mut spans: Vec<&SpanRow> = self
                    .rows
                    .values()
                    .filter(|r| r.trace == summary.trace)
                    .collect();
                spans.sort_by_key(|r| (r.start_unix_micros, r.span.clone()));
                let mut classes = serde_json::Map::new();
                for (class, ns) in &summary.time_by_class {
                    classes.insert(class.clone(), serde_json::json!(*ns));
                }
                serde_json::json!({
                    "trace": summary.trace,
                    "root": summary.root_name,
                    "span_count": summary.span_count,
                    "processes": summary.processes.iter().collect::<Vec<_>>(),
                    "orphan_spans": summary.orphans,
                    "errored": summary.errored,
                    "duration_ns": summary.duration_ns,
                    "critical_path": summary.critical_path.iter().map(|hop| {
                        serde_json::json!({
                            "name": hop.name,
                            "process": hop.process,
                            "duration_ns": hop.duration_ns,
                        })
                    }).collect::<Vec<_>>(),
                    "time_by_class_ns": Value::Object(classes),
                    "spans": spans.iter().map(|r| serde_json::json!({
                        "process": r.process,
                        "span": r.span,
                        "parent": r.parent,
                        "name": r.name,
                        "detail": r.detail,
                        "start_unix_micros": r.start_unix_micros,
                        "duration_ns": r.duration_ns,
                        "error": r.error,
                    })).collect::<Vec<_>>(),
                })
            })
            .collect();
        serde_json::json!({
            "total_spans": self.len(),
            "trace_count": traces.len(),
            "traces": traces,
        })
    }
}

fn parse_row(process: &str, raw: &Value) -> Option<SpanRow> {
    Some(SpanRow {
        process: process.to_string(),
        trace: raw.get("trace")?.as_str()?.to_string(),
        span: raw.get("span")?.as_str()?.to_string(),
        parent: raw
            .get("parent")
            .and_then(Value::as_str)
            .map(str::to_string),
        name: raw.get("name")?.as_str()?.to_string(),
        detail: raw
            .get("detail")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string(),
        start_unix_micros: raw.get("start_unix_micros")?.as_u64()?,
        duration_ns: raw.get("duration_ns")?.as_u64()?,
        error: raw.get("error").and_then(Value::as_bool).unwrap_or(false),
    })
}

fn summarize(trace: &str, rows: &[&SpanRow]) -> TraceSummary {
    let ids: BTreeSet<&str> = rows.iter().map(|r| r.span.as_str()).collect();
    let orphans = rows
        .iter()
        .filter(|r| matches!(&r.parent, Some(p) if !ids.contains(p.as_str())))
        .count();
    let root = rows
        .iter()
        .filter(|r| r.parent.is_none())
        .max_by_key(|r| r.duration_ns);
    let mut time_by_class: BTreeMap<String, u64> = BTreeMap::new();
    for row in rows {
        let class = row.name.split('.').next().unwrap_or(&row.name);
        *time_by_class.entry(class.to_string()).or_default() += row.duration_ns;
    }
    TraceSummary {
        trace: trace.to_string(),
        root_name: root.map(|r| r.name.clone()),
        span_count: rows.len(),
        processes: rows.iter().map(|r| r.process.clone()).collect(),
        orphans,
        errored: rows.iter().any(|r| r.error),
        duration_ns: root.map_or(0, |r| r.duration_ns),
        critical_path: critical_path(rows, root),
        time_by_class,
    }
}

/// Greedy critical path: from the root, repeatedly step into the child
/// with the largest inclusive duration until a leaf.
fn critical_path(rows: &[&SpanRow], root: Option<&&SpanRow>) -> Vec<CriticalHop> {
    let mut path = Vec::new();
    let Some(mut cursor) = root.copied() else {
        return path;
    };
    loop {
        path.push(CriticalHop {
            name: cursor.name.clone(),
            process: cursor.process.clone(),
            duration_ns: cursor.duration_ns,
        });
        let next = rows
            .iter()
            .filter(|r| r.parent.as_deref() == Some(cursor.span.as_str()))
            // Longest child wins; span id breaks duration ties so the
            // path is deterministic across runs of the same dump.
            .max_by(|a, b| {
                a.duration_ns
                    .cmp(&b.duration_ns)
                    .then_with(|| b.span.cmp(&a.span))
            });
        match next {
            // A cycle cannot occur: a child's parent pointer is unique
            // and we only ever descend, but cap the walk defensively.
            Some(child) if path.len() < 1024 => cursor = *child,
            _ => return path,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (trace, span, parent, name, start_ns, duration_ns, error)
    type SpanRow<'a> = (&'a str, &'a str, Option<&'a str>, &'a str, u64, u64, bool);

    fn dump(process: &str, spans: &[SpanRow<'_>]) -> Value {
        serde_json::json!({
            "process": process,
            "recorded": spans.len(),
            "dropped": 0,
            "spans": spans.iter().map(|(trace, span, parent, name, start, dur, error)| {
                serde_json::json!({
                    "trace": trace,
                    "span": span,
                    "parent": parent,
                    "name": name,
                    "detail": "",
                    "start_unix_micros": start,
                    "duration_ns": dur,
                    "error": error,
                })
            }).collect::<Vec<_>>(),
        })
    }

    const T: &str = "0123456789abcdef0123456789abcdef";

    #[test]
    fn absorb_merges_and_deduplicates_across_scrapes() {
        let mut store = TraceStore::default();
        let first = dump("proxy", &[(T, "aa", None, "proxy.request", 10, 900, false)]);
        assert_eq!(store.absorb(&first), 1);
        // Second scrape of the same process repeats the span and adds one.
        let second = dump(
            "proxy",
            &[
                (T, "aa", None, "proxy.request", 10, 900, false),
                (T, "bb", Some("aa"), "proxy.relay", 20, 700, false),
            ],
        );
        assert_eq!(store.absorb(&second), 1, "duplicate span not re-added");
        assert_eq!(store.len(), 2);
        // A different process contributes the third hop.
        let origin = dump(
            "broker-n1",
            &[(T, "cc", Some("bb"), "origin.request", 30, 500, false)],
        );
        assert_eq!(store.absorb(&origin), 1);
        let summaries = store.analyze();
        assert_eq!(summaries.len(), 1);
        let s = &summaries[0];
        assert_eq!(s.span_count, 3);
        assert_eq!(s.orphans, 0);
        assert_eq!(s.root_name.as_deref(), Some("proxy.request"));
        assert_eq!(s.processes.len(), 2, "proxy + broker-n1");
        assert_eq!(s.duration_ns, 900);
    }

    #[test]
    fn orphans_are_counted_when_a_parent_is_missing() {
        let mut store = TraceStore::default();
        let doc = dump(
            "broker-n0",
            &[
                (T, "aa", None, "mgmt.publish", 10, 900, false),
                // parent "zz" was never captured anywhere
                (T, "cc", Some("zz"), "broker.chunk", 30, 100, false),
            ],
        );
        store.absorb(&doc);
        let s = &store.analyze()[0];
        assert_eq!(s.orphans, 1);
        assert_eq!(s.span_count, 2);
    }

    #[test]
    fn critical_path_follows_the_slowest_child() {
        let mut store = TraceStore::default();
        let doc = dump(
            "proxy",
            &[
                (T, "aa", None, "mgmt.replicate", 0, 1000, false),
                (T, "b1", Some("aa"), "wire.call", 1, 300, false),
                (T, "b2", Some("aa"), "wire.call", 2, 600, false),
                (T, "c1", Some("b2"), "wire.attempt", 3, 550, true),
            ],
        );
        store.absorb(&doc);
        let s = &store.analyze()[0];
        let names: Vec<&str> = s.critical_path.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, vec!["mgmt.replicate", "wire.call", "wire.attempt"]);
        assert_eq!(s.critical_path[1].duration_ns, 600, "took the slower call");
        assert!(s.errored);
        assert_eq!(
            s.time_by_class.get("wire").copied(),
            Some(300 + 600 + 550),
            "{:?}",
            s.time_by_class
        );
        assert_eq!(s.time_by_class.get("mgmt").copied(), Some(1000));
    }

    #[test]
    fn malformed_rows_and_missing_spans_are_skipped() {
        let mut store = TraceStore::default();
        assert_eq!(store.absorb(&serde_json::json!({"process": "p"})), 0);
        let doc = serde_json::json!({
            "process": "p",
            "spans": [
                {"trace": T},                       // missing everything else
                {"not": "a span"},
                42,
            ],
        });
        assert_eq!(store.absorb(&doc), 0);
        assert!(store.is_empty());
    }

    #[test]
    fn traces_json_document_carries_summaries_and_spans() {
        let mut store = TraceStore::default();
        let doc = dump(
            "proxy",
            &[
                (T, "aa", None, "proxy.request", 10, 900, false),
                (T, "bb", Some("aa"), "proxy.relay", 20, 700, false),
            ],
        );
        store.absorb(&doc);
        let json = store.to_json();
        assert_eq!(json.get("total_spans").and_then(Value::as_u64), Some(2));
        assert_eq!(json.get("trace_count").and_then(Value::as_u64), Some(1));
        let trace = &json.get("traces").and_then(Value::as_array).unwrap()[0];
        assert_eq!(trace.get("trace").and_then(Value::as_str), Some(T));
        assert_eq!(trace.get("orphan_spans").and_then(Value::as_u64), Some(0));
        let path = trace
            .get("critical_path")
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(
            path[1].get("name").and_then(Value::as_str),
            Some("proxy.relay")
        );
        let spans = trace.get("spans").and_then(Value::as_array).unwrap();
        assert_eq!(spans.len(), 2);
    }
}
