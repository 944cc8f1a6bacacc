//! The administrator's remote console: a scriptable command shell over
//! the [`Controller`] — the CLI stand-in for the paper's Java-applet GUI
//! ("the administrator can download the remote console and interact with
//! it to perform management operations").
//!
//! The `cpms-console` binary feeds it stdin lines; a daemon's
//! [`admin::service`](crate::admin::service) feeds it the command lines
//! that arrive over the wire. Both
//! get the same [`AdminResponse`]: `ok` is `false` for a command error
//! (bad arguments, "no such node") *and* for a health command that
//! detected a problem, so scripts and CI turn either into a nonzero exit.
//!
//! ```text
//! publish <path> <kind> <size> <node>[,<node>...]   add content
//! replicate <path> <node>                           add a copy
//! offload <path> <node>                             remove a copy
//! rename <from> <to>                                move file or subtree
//! delete <path>                                     remove everywhere
//! touch <path>                                      push a content update
//! evict <node>                                      drop a dead node from routing
//! repair                                            anti-entropy repair pass
//! ls [prefix]                                       coherent tree view
//! status                                            per-node disk/file stats
//! nodes                                             per-node transport health
//! store                                             per-node content-store health
//! stats                                             metrics registry report
//! top                                               merged cluster activity view
//! health                                            SLO verdicts + reachability
//! trace [<id>]                                      retained traces / one span tree
//! audit                                             verify table vs brokers
//! help                                              this text
//! ```
//!
//! Health commands (`audit`, `status`, `store`, `repair`, `health`)
//! answer `ok: false` on drift, down nodes, failed repairs, or SLO
//! breaches.
//!
//! `top` and `health` read the controller registry's flight recorder
//! ([`cpms_obs::SeriesRecorder`]) and SLO watchdog
//! ([`cpms_obs::SloWatchdog`]) when installed; without a recorder they
//! still render node reachability, gauges, and stage latency from a
//! point-in-time snapshot.

use crate::admin::AdminResponse;
use crate::auditor::AntiEntropyAuditor;
use crate::controller::Controller;
use crate::monitor::{ClusterMonitor, NodeTransportHealth};
use cpms_model::{ContentId, ContentKind, NodeId, Priority, UrlPath};
use cpms_obs::{SloVerdict, SpanId, SpanRecord, TraceId};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Window `top` uses when deriving rates from the flight recorder.
const TOP_RATE_WINDOW: Duration = Duration::from_secs(10);

/// A stateful command shell over a [`Controller`].
#[derive(Debug)]
pub struct Shell {
    controller: Controller,
    monitor: ClusterMonitor,
    next_content: u32,
}

impl Shell {
    /// Wraps a controller. Content ids are auto-assigned per publish.
    pub fn new(controller: Controller) -> Self {
        let mut monitor = ClusterMonitor::new(controller.node_count(), 3);
        monitor.attach_metrics(controller.metrics());
        Shell {
            controller,
            monitor,
            next_content: 0,
        }
    }

    /// Consumes the shell, shutting the cluster down.
    pub fn shutdown(mut self) {
        self.controller.shutdown();
    }

    /// Parses and executes one command line. Errors never panic; they
    /// answer `ok: false` so a script can keep going and still fail.
    pub fn execute(&mut self, line: &str) -> AdminResponse {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return AdminResponse::ok(String::new());
        }
        let mut words = line.split_whitespace();
        let command = words.next().expect("nonempty line has a first word");
        let args: Vec<&str> = words.collect();
        self.dispatch(command, &args)
            .unwrap_or_else(AdminResponse::err)
    }

    fn dispatch(&mut self, command: &str, args: &[&str]) -> Result<AdminResponse, String> {
        match command {
            "publish" => {
                let [path, kind, size, nodes] = expect_args::<4>("publish", args)?;
                let path = parse_path(path)?;
                let kind = parse_kind(kind)?;
                let size: u64 = size.parse().map_err(|_| format!("bad size {size:?}"))?;
                let nodes = parse_nodes(nodes)?;
                let id = ContentId(self.next_content);
                self.controller
                    .publish(&path, id, kind, size, Priority::Normal, &nodes)
                    .map_err(|e| e.to_string())?;
                self.next_content += 1;
                Ok(AdminResponse::ok(format!("published {path} as {id}")))
            }
            "replicate" => {
                let [path, node] = expect_args::<2>("replicate", args)?;
                let path = parse_path(path)?;
                let node = parse_node(node)?;
                self.controller
                    .replicate(&path, node)
                    .map_err(|e| e.to_string())?;
                Ok(AdminResponse::ok(format!("replicated {path} to {node}")))
            }
            "offload" => {
                let [path, node] = expect_args::<2>("offload", args)?;
                let path = parse_path(path)?;
                let node = parse_node(node)?;
                self.controller
                    .offload(&path, node)
                    .map_err(|e| e.to_string())?;
                Ok(AdminResponse::ok(format!("offloaded {path} from {node}")))
            }
            "rename" => {
                let [from, to] = expect_args::<2>("rename", args)?;
                let from = parse_path(from)?;
                let to = parse_path(to)?;
                self.controller
                    .rename(&from, &to)
                    .map_err(|e| e.to_string())?;
                Ok(AdminResponse::ok(format!("renamed {from} -> {to}")))
            }
            "delete" => {
                let [path] = expect_args::<1>("delete", args)?;
                let path = parse_path(path)?;
                self.controller.delete(&path).map_err(|e| e.to_string())?;
                Ok(AdminResponse::ok(format!("deleted {path}")))
            }
            "touch" => {
                let [path] = expect_args::<1>("touch", args)?;
                let path = parse_path(path)?;
                let version = self
                    .controller
                    .update_content(&path)
                    .map_err(|e| e.to_string())?;
                Ok(AdminResponse::ok(format!(
                    "{path} now at version {version}"
                )))
            }
            "ls" => {
                // The single, coherent view of the document tree, sorted
                // by path: where each object physically lives is a column,
                // not a separate listing per node.
                let prefix = match args {
                    [] => UrlPath::root(),
                    [prefix] => parse_path(prefix)?,
                    _ => return Err("usage: ls [prefix]".to_string()),
                };
                let table = self.controller.table();
                let mut rows: Vec<_> = table.subtree(&prefix).collect();
                rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                let mut out = String::new();
                for (path, entry) in &rows {
                    let nodes: Vec<String> =
                        entry.locations().iter().map(|n| n.to_string()).collect();
                    let _ = writeln!(
                        out,
                        "{:<40} {:>7} {:>9}B {:<9} on {}",
                        path.to_string(),
                        entry.kind().to_string(),
                        entry.size_bytes(),
                        entry.priority().to_string(),
                        nodes.join(",")
                    );
                }
                let _ = write!(out, "{} object(s)", rows.len());
                Ok(AdminResponse::ok(out))
            }
            "status" => {
                let mut out = String::new();
                let mut down = 0usize;
                for (node, health) in self.monitor.poll_controller(&self.controller) {
                    match health.stats() {
                        Some(stats) => {
                            let _ = writeln!(
                                out,
                                "{node}: {} file(s), {}B used, {}B free",
                                stats.objects,
                                stats.committed_bytes,
                                stats.free_bytes()
                            );
                        }
                        None => {
                            // Evicted nodes are expected to be gone; only
                            // unplanned absences are a health failure.
                            if !self.controller.is_decommissioned(node) {
                                down += 1;
                            }
                            let _ = writeln!(out, "{node}: DOWN (no answer to its probe)");
                        }
                    }
                }
                Ok(AdminResponse {
                    ok: down == 0,
                    output: out.trim_end().to_string(),
                })
            }
            "evict" => {
                let [node] = expect_args::<1>("evict", args)?;
                let node = parse_node(node)?;
                let report = self.controller.evict(node).map_err(|e| e.to_string())?;
                Ok(AdminResponse::ok(report.to_string()))
            }
            "repair" => {
                if !args.is_empty() {
                    return Err("usage: repair".to_string());
                }
                let report = AntiEntropyAuditor::new().repair(&mut self.controller);
                let mut out = String::new();
                for (drift, reason) in &report.failed_repairs {
                    let _ = writeln!(out, "FAILED: {drift}: {reason}");
                }
                let _ = write!(out, "{}", report.summary());
                Ok(AdminResponse {
                    ok: report.failed_repairs.is_empty() && report.unreachable.is_empty(),
                    output: out,
                })
            }
            "nodes" => {
                if !args.is_empty() {
                    return Err("usage: nodes".to_string());
                }
                // Probe first so miss counters and RTTs are current.
                let verdicts = self.monitor.poll_controller(&self.controller);
                let rows = self.monitor.transport_health(self.controller.cluster());
                let mut out = String::new();
                let _ = writeln!(
                    out,
                    "{:<5} {:<8} {:<8} {:>10} {:>6} {:>6} {:>8} {:>9} {:>10} {:>10}",
                    "node",
                    "wire",
                    "state",
                    "last_rtt",
                    "miss",
                    "calls",
                    "retries",
                    "timeouts",
                    "reconnects",
                    "store"
                );
                for (row, (_, health)) in rows.iter().zip(&verdicts) {
                    let rtt = if row.last_rtt_ns == 0 {
                        "-".to_string()
                    } else {
                        format!("{:.1}us", row.last_rtt_ns as f64 / 1_000.0)
                    };
                    let store = match health.stats() {
                        Some(s) => format!("{}obj", s.objects),
                        None => "-".to_string(),
                    };
                    let _ = writeln!(
                        out,
                        "{:<5} {:<8} {:<8} {:>10} {:>6} {:>6} {:>8} {:>9} {:>10} {:>10}",
                        row.node.to_string(),
                        row.transport,
                        state_label(row),
                        rtt,
                        row.consecutive_misses,
                        row.calls,
                        row.retries,
                        row.timeouts,
                        row.reconnects,
                        store
                    );
                }
                Ok(AdminResponse::ok(out.trim_end().to_string()))
            }
            "store" => {
                if !args.is_empty() {
                    return Err("usage: store".to_string());
                }
                let verdicts = self.monitor.poll_controller(&self.controller);
                let report = AntiEntropyAuditor::new().audit(&self.controller);
                let mut drift_per_node: HashMap<NodeId, usize> = HashMap::new();
                for d in &report.drift {
                    *drift_per_node.entry(d.node()).or_default() += 1;
                }
                let mut out = String::new();
                let _ = writeln!(
                    out,
                    "{:<5} {:>8} {:>8} {:>12} {:>12} {:>7} {:>9} {:>6}",
                    "node", "objects", "chunks", "used", "capacity", "staged", "rejected", "drift"
                );
                for (node, health) in &verdicts {
                    match health.stats() {
                        Some(s) => {
                            let _ = writeln!(
                                out,
                                "{:<5} {:>8} {:>8} {:>11}B {:>11}B {:>7} {:>9} {:>6}",
                                node.to_string(),
                                s.objects,
                                s.chunks,
                                s.committed_bytes,
                                s.capacity_bytes,
                                s.staged_transfers,
                                s.rejected_chunks,
                                drift_per_node.get(node).copied().unwrap_or(0)
                            );
                        }
                        None => {
                            let _ = writeln!(out, "{:<5} unreachable", node.to_string());
                        }
                    }
                }
                // The shipper's own counts: a transfer is in flight until it
                // ends as one of `ship_transfers_total` (committed) or
                // `ship_failed_transfers_total`.
                let registry = self.controller.metrics();
                let inflight = u64::try_from(registry.gauge("ship_inflight").get()).unwrap_or(0);
                let committed = registry.counter("ship_transfers_total").get();
                let failed = registry.counter("ship_failed_transfers_total").get();
                let _ = writeln!(
                    out,
                    "transfers: {inflight} in flight, {} started total, {failed} failed",
                    inflight + committed + failed
                );
                let _ = write!(out, "{}", report.summary());
                Ok(AdminResponse {
                    ok: report.is_clean(),
                    output: out,
                })
            }
            "stats" => {
                if !args.is_empty() {
                    return Err("usage: stats".to_string());
                }
                Ok(AdminResponse::ok(self.controller.metrics_report()))
            }
            "audit" => {
                let report = AntiEntropyAuditor::new().audit(&self.controller);
                if report.is_clean() {
                    Ok(AdminResponse::ok(
                        "consistent: URL table and brokers agree".to_string(),
                    ))
                } else {
                    let mut out = String::new();
                    for d in &report.drift {
                        let _ = writeln!(out, "DRIFT: {d}");
                    }
                    for n in &report.unreachable {
                        let _ = writeln!(out, "UNREACHABLE: {n}");
                    }
                    Ok(AdminResponse::err(out.trim_end().to_string()))
                }
            }
            "top" => {
                if !args.is_empty() {
                    return Err("usage: top".to_string());
                }
                Ok(AdminResponse::ok(self.top_view()))
            }
            "health" => {
                if !args.is_empty() {
                    return Err("usage: health".to_string());
                }
                Ok(self.health_view())
            }
            "trace" => {
                let spans = self.controller.metrics().spans();
                match args {
                    [] => {
                        let mut roots: Vec<&SpanRecord> = Vec::new();
                        let snapshot = spans.snapshot();
                        let mut counts: HashMap<TraceId, usize> = HashMap::new();
                        for record in &snapshot {
                            *counts.entry(record.trace).or_default() += 1;
                            if record.parent.is_none() {
                                roots.push(record);
                            }
                        }
                        roots.sort_by_key(|r| r.start_unix_micros);
                        let mut out = String::new();
                        for root in &roots {
                            let _ = writeln!(
                                out,
                                "{} {:<14} {:>9.1}us {:>3} span(s) {}",
                                root.trace,
                                root.name,
                                root.duration_ns as f64 / 1_000.0,
                                counts.get(&root.trace).copied().unwrap_or(0),
                                root.detail
                            );
                        }
                        let _ = write!(out, "{} trace(s) retained", roots.len());
                        Ok(AdminResponse::ok(out))
                    }
                    [id] => {
                        let trace = TraceId::parse(id)
                            .ok_or_else(|| format!("bad trace id {id:?} (32 hex digits)"))?;
                        let records = spans.spans_of(trace);
                        if records.is_empty() {
                            return Ok(AdminResponse::ok(format!("no spans retained for {trace}")));
                        }
                        Ok(AdminResponse::ok(render_trace_tree(&records)))
                    }
                    _ => Err("usage: trace [<id>]".to_string()),
                }
            }
            "help" => Ok(AdminResponse::ok(HELP.trim().to_string())),
            other => Err(format!("unknown command {other:?}; try `help`")),
        }
    }

    /// The merged cluster activity view: per-node reachability and
    /// store occupancy, counter rates from the flight recorder (when
    /// one is installed), live gauges, and per-stage latency quantiles.
    fn top_view(&mut self) -> String {
        let verdicts = self.monitor.poll_controller(&self.controller);
        let rows = self.monitor.transport_health(self.controller.cluster());
        let registry = Arc::clone(self.controller.metrics());
        let snap = registry.snapshot();
        let recorder = registry.series();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "scrape_seq {}  uptime {:.1}s  recorder {}",
            snap.scrape_seq,
            snap.uptime_micros as f64 / 1e6,
            match &recorder {
                Some(r) => format!("{} sample(s)", r.samples_taken()),
                None => "off".to_string(),
            }
        );
        let _ = writeln!(
            out,
            "{:<5} {:<8} {:>8} {:>12} {:>12}",
            "node", "state", "objects", "used", "capacity"
        );
        for (row, (_, health)) in rows.iter().zip(&verdicts) {
            let state = state_label(row);
            match health.stats() {
                Some(s) => {
                    let _ = writeln!(
                        out,
                        "{:<5} {:<8} {:>8} {:>11}B {:>11}B",
                        row.node.to_string(),
                        state,
                        s.objects,
                        s.committed_bytes,
                        s.capacity_bytes
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "{:<5} {:<8} {:>8} {:>12} {:>12}",
                        row.node.to_string(),
                        state,
                        "-",
                        "-",
                        "-"
                    );
                }
            }
        }
        if let Some(rec) = &recorder {
            let mut rates: Vec<(String, f64)> = snap
                .counters
                .iter()
                .filter_map(|(name, _)| {
                    rec.rate_per_sec(name, TOP_RATE_WINDOW)
                        .filter(|r| *r > 0.0)
                        .map(|r| (name.clone(), r))
                })
                .collect();
            rates.sort_by(|a, b| b.1.total_cmp(&a.1));
            if !rates.is_empty() {
                let _ = writeln!(out, "-- rates (/s over {}s) --", TOP_RATE_WINDOW.as_secs());
                for (name, rate) in &rates {
                    let _ = writeln!(out, "{name:<40} {rate:>9.1}/s");
                }
            }
        }
        if !snap.gauges.is_empty() {
            let _ = writeln!(out, "-- gauges --");
            for (name, value) in &snap.gauges {
                let _ = writeln!(out, "{name:<40} {value:>9}");
            }
        }
        if !snap.histograms.is_empty() {
            let _ = writeln!(
                out,
                "-- stage latency -- {:>17} {:>11} {:>11} {:>11}",
                "count", "p50", "p99", "max"
            );
            for (name, h) in &snap.histograms {
                let _ = writeln!(
                    out,
                    "{:<37} {:>11} {:>11} {:>11} {:>11}",
                    name, h.count, h.p50, h.p99, h.max
                );
            }
        }
        out.trim_end().to_string()
    }

    /// SLO verdicts plus node reachability; `ok: false` when any rule
    /// is in breach or any non-decommissioned node is down, so scripts
    /// (and `cpms-console --watch`) can turn a sick cluster into a
    /// nonzero exit code.
    fn health_view(&mut self) -> AdminResponse {
        self.monitor.poll_controller(&self.controller);
        let rows = self.monitor.transport_health(self.controller.cluster());
        let down: Vec<String> = rows
            .iter()
            .filter(|r| r.down && !self.controller.is_decommissioned(r.node))
            .map(|r| r.node.to_string())
            .collect();
        let registry = Arc::clone(self.controller.metrics());
        let mut out = String::new();
        let mut breached = false;
        match (registry.watchdog(), registry.series()) {
            (Some(watchdog), Some(recorder)) => {
                watchdog.evaluate(&recorder);
                for (rule, verdict) in watchdog.report() {
                    if verdict == SloVerdict::Breach {
                        breached = true;
                    }
                    let _ = writeln!(out, "{:<7} {rule}", verdict.as_str());
                }
                let _ = writeln!(out, "slo breaches: {} total", watchdog.breaches_total());
            }
            (Some(_), None) => {
                let _ = writeln!(out, "slo: watchdog installed but no recorder is sampling");
            }
            _ => {
                let _ = writeln!(out, "slo: no rules installed");
            }
        }
        if down.is_empty() {
            let _ = writeln!(out, "nodes: all reachable");
        } else {
            let _ = writeln!(out, "nodes: {} DOWN ({})", down.len(), down.join(","));
        }
        AdminResponse {
            ok: !breached && down.is_empty(),
            output: out.trim_end().to_string(),
        }
    }
}

const HELP: &str = "
publish <path> <kind> <size> <node>[,<node>...]
replicate <path> <node>
offload <path> <node>
rename <from> <to>
delete <path>
touch <path>
evict <node>
repair
ls [prefix]
status
nodes
store
stats
top
health
trace [<id>]
audit
help
";

/// Renders one trace's spans as an indented tree. Spans whose parent was
/// evicted from the collector (or lives in another process) are rendered
/// at the top level with a `?` marker instead of being dropped.
fn render_trace_tree(records: &[SpanRecord]) -> String {
    let present: HashMap<SpanId, usize> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (r.span, i))
        .collect();
    let mut children: HashMap<Option<SpanId>, Vec<usize>> = HashMap::new();
    for (i, record) in records.iter().enumerate() {
        let key = match record.parent {
            Some(p) if present.contains_key(&p) => Some(p),
            _ => None,
        };
        children.entry(key).or_default().push(i);
    }
    let mut out = String::new();
    let mut stack: Vec<(usize, usize)> = children
        .get(&None)
        .map(|tops| tops.iter().rev().map(|&i| (i, 0)).collect())
        .unwrap_or_default();
    while let Some((i, depth)) = stack.pop() {
        let record = &records[i];
        let orphan = record.parent.is_some() && depth == 0;
        let _ = writeln!(
            out,
            "{}{}{:<20} {:>9.1}us span={}{} {}",
            "  ".repeat(depth),
            if orphan { "? " } else { "" },
            record.name,
            record.duration_ns as f64 / 1_000.0,
            record.span,
            if record.error { " ERROR" } else { "" },
            record.detail
        );
        if let Some(kids) = children.get(&Some(record.span)) {
            for &k in kids.iter().rev() {
                stack.push((k, depth + 1));
            }
        }
    }
    let _ = write!(
        out,
        "trace {} — {} span(s)",
        records[0].trace,
        records.len()
    );
    out
}

/// A node's reachability as `nodes` and `top` print it.
fn state_label(row: &NodeTransportHealth) -> &'static str {
    if row.down {
        "down"
    } else if row.consecutive_misses > 0 {
        "suspect"
    } else {
        "up"
    }
}

fn expect_args<'a, const N: usize>(
    command: &str,
    args: &[&'a str],
) -> Result<[&'a str; N], String> {
    <[&str; N]>::try_from(args.to_vec())
        .map_err(|_| format!("{command} takes {N} argument(s), got {}", args.len()))
}

fn parse_path(s: &str) -> Result<UrlPath, String> {
    s.parse().map_err(|e| format!("{e}"))
}

fn parse_kind(s: &str) -> Result<ContentKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "html" => Ok(ContentKind::StaticHtml),
        "image" | "img" => Ok(ContentKind::Image),
        "cgi" => Ok(ContentKind::Cgi),
        "asp" => Ok(ContentKind::Asp),
        "video" => Ok(ContentKind::Video),
        "static" | "other" => Ok(ContentKind::OtherStatic),
        other => Err(format!(
            "unknown kind {other:?} (html|image|cgi|asp|video|static)"
        )),
    }
}

/// Parses a `<node>` argument, `2` or `n2`.
///
/// # Errors
///
/// The message a command answers with when `s` names no node id.
pub fn parse_node(s: &str) -> Result<NodeId, String> {
    let raw = s.strip_prefix('n').unwrap_or(s);
    raw.parse::<u16>()
        .map(NodeId)
        .map_err(|_| format!("bad node {s:?} (use e.g. `2` or `n2`)"))
}

fn parse_nodes(s: &str) -> Result<Vec<NodeId>, String> {
    s.split(',').map(parse_node).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Cluster;
    use cpms_store::ShipRequest;

    fn shell() -> Shell {
        Shell::new(Controller::new(Cluster::start(3, 1 << 20)))
    }

    fn out(shell: &mut Shell, line: &str) -> String {
        let response = shell.execute(line);
        assert!(response.ok, "{line}: expected ok, got {response:?}");
        response.output
    }

    fn fail(shell: &mut Shell, line: &str) -> String {
        let response = shell.execute(line);
        assert!(!response.ok, "{line}: expected a failure, got {response:?}");
        response.output
    }

    #[test]
    fn full_admin_session() {
        let mut sh = shell();
        assert!(out(&mut sh, "publish /index.html html 2048 0,1").starts_with("published"));
        assert!(out(&mut sh, "publish /cgi-bin/q.cgi cgi 512 n2").starts_with("published"));
        assert!(out(&mut sh, "replicate /index.html 2").starts_with("replicated"));
        let listing = out(&mut sh, "ls");
        assert!(listing.contains("/index.html"));
        assert!(listing.contains("2 object(s)"));
        assert!(out(&mut sh, "rename /cgi-bin /scripts").starts_with("renamed"));
        assert!(out(&mut sh, "ls /scripts").contains("/scripts/q.cgi"));
        assert!(out(&mut sh, "touch /index.html").contains("version 1"));
        assert!(out(&mut sh, "offload /index.html n0").starts_with("offloaded"));
        assert!(out(&mut sh, "audit").starts_with("consistent"));
        let status = out(&mut sh, "status");
        assert!(status.contains("n0:") && status.contains("n2:"));
        assert!(out(&mut sh, "delete /index.html").starts_with("deleted"));
        sh.shutdown();
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut sh = shell();
        assert!(fail(&mut sh, "delete /nope").contains("no record for path /nope"));
        fail(&mut sh, "publish bad-path html 1 0");
        assert!(fail(&mut sh, "publish /x html 1 99").contains("no node n99"));
        assert!(fail(&mut sh, "publish /x html notasize 0").starts_with("bad size"));
        assert!(fail(&mut sh, "publish /x nonsense 1 0").starts_with("unknown kind"));
        assert!(fail(&mut sh, "replicate /x").contains("takes 2 argument(s)"));
        assert!(fail(&mut sh, "evict n99").contains("no node n99"));
        assert!(fail(&mut sh, "frobnicate").starts_with("unknown command"));
        // `quit` ends the `cpms-console` stdin loop; it is not a verb.
        assert!(fail(&mut sh, "quit").starts_with("unknown command"));
        // the shell survived all of it
        assert!(out(&mut sh, "ls").contains("0 object(s)"));
        sh.shutdown();
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let mut sh = shell();
        assert_eq!(out(&mut sh, ""), "");
        assert_eq!(out(&mut sh, "   "), "");
        assert_eq!(out(&mut sh, "# a comment"), "");
        sh.shutdown();
    }

    #[test]
    fn ls_lists_rows_sorted_by_path() {
        let mut sh = shell();
        out(&mut sh, "publish /b.html html 10 1");
        out(&mut sh, "publish /a.html html 10 0");
        let listing = out(&mut sh, "ls");
        let paths: Vec<&str> = listing
            .lines()
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(paths, ["/a.html", "/b.html", "2"], "{listing}");
        sh.shutdown();
    }

    #[test]
    fn ls_prefix_lists_one_subtree() {
        let mut sh = shell();
        for path in ["/img/a.gif", "/img/b.gif", "/doc/c.html"] {
            out(&mut sh, &format!("publish {path} image 5 0"));
        }
        assert!(out(&mut sh, "ls /img").ends_with("2 object(s)"));
        assert!(out(&mut sh, "ls /doc").ends_with("1 object(s)"));
        assert!(out(&mut sh, "ls /doc/c.html").ends_with("1 object(s)"));
        assert!(out(&mut sh, "ls /").ends_with("3 object(s)"));
        assert!(out(&mut sh, "ls /none").ends_with("0 object(s)"));
        assert!(fail(&mut sh, "ls /img /doc").starts_with("usage"));
        sh.shutdown();
    }

    #[test]
    fn node_syntax_variants() {
        assert_eq!(parse_node("3").unwrap(), NodeId(3));
        assert_eq!(parse_node("n3").unwrap(), NodeId(3));
        assert!(parse_node("x3").is_err());
        assert_eq!(
            parse_nodes("0,n1,2").unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn stats_renders_management_metrics() {
        let mut sh = shell();
        assert!(out(&mut sh, "publish /a.html html 64 0").starts_with("published"));
        fail(&mut sh, "delete /nope");
        let stats = out(&mut sh, "stats");
        assert!(stats.contains("mgmt_ops_total"), "{stats}");
        assert!(stats.contains("mgmt_op_errors_total"), "{stats}");
        assert!(stats.contains("mgmt_op_ns"), "{stats}");
        assert!(stats.contains("urltable_update_ns"), "{stats}");
        assert!(stats.contains("urltable_entries"), "{stats}");
        assert!(stats.contains("delete failed"), "{stats}");
        assert!(fail(&mut sh, "stats now").starts_with("usage"));
        sh.shutdown();
    }

    #[test]
    fn nodes_renders_transport_health() {
        let mut sh = shell();
        assert!(out(&mut sh, "publish /a.html html 64 0").starts_with("published"));
        let nodes = out(&mut sh, "nodes");
        assert!(nodes.contains("last_rtt"), "{nodes}");
        assert!(nodes.contains("inproc"), "{nodes}");
        for node in ["n0", "n1", "n2"] {
            assert!(nodes.contains(node), "{nodes}");
        }
        assert!(nodes.contains(" up"), "{nodes}");
        assert!(fail(&mut sh, "nodes please").starts_with("usage"));
        sh.shutdown();
    }

    #[test]
    fn nodes_shows_down_after_kill() {
        let mut sh = shell();
        sh.controller.kill_node(NodeId(1));
        // Threshold is 3: two polls leave n1 suspect, the third marks down.
        out(&mut sh, "nodes");
        out(&mut sh, "nodes");
        let nodes = out(&mut sh, "nodes");
        let n1_row = nodes
            .lines()
            .find(|l| l.starts_with("n1"))
            .expect("n1 row present");
        assert!(n1_row.contains("down"), "{nodes}");
        let stats = out(&mut sh, "stats");
        let down_total = ["mgmt_node_down_total", "1"];
        assert!(
            stats.lines().any(|l| l.split_whitespace().eq(down_total)),
            "{stats}"
        );
        sh.shutdown();
    }

    #[test]
    fn store_shows_per_node_health() {
        let mut sh = shell();
        assert!(out(&mut sh, "publish /a.html html 600 0,1").starts_with("published"));
        let store = out(&mut sh, "store");
        assert!(store.contains("objects"), "{store}");
        assert!(store.contains("audit clean"), "{store}");
        for node in ["n0", "n1", "n2"] {
            assert!(store.contains(node), "{store}");
        }
        // Two pushes committed, read from the shipper's metrics.
        assert!(
            store.contains("transfers: 0 in flight, 2 started total, 0 failed"),
            "{store}"
        );
        // n0 and n1 hold the object; 600 bytes committed on each.
        let n0 = store.lines().find(|l| l.starts_with("n0")).unwrap();
        assert!(n0.contains("600B"), "{store}");
        assert!(fail(&mut sh, "store now").starts_with("usage"));
        sh.shutdown();
    }

    #[test]
    fn nodes_renders_store_column() {
        let mut sh = shell();
        assert!(out(&mut sh, "publish /a.html html 64 0").starts_with("published"));
        let nodes = out(&mut sh, "nodes");
        assert!(nodes.contains("store"), "{nodes}");
        let n0 = nodes.lines().find(|l| l.starts_with("n0")).unwrap();
        assert!(n0.contains("1obj"), "{nodes}");
        sh.shutdown();
    }

    #[test]
    fn audit_fails_on_drift() {
        let mut sh = shell();
        assert!(out(&mut sh, "publish /a.html html 600 0,1").starts_with("published"));
        // Sabotage: delete node 1's copy behind the table's back.
        let handle = sh.controller.cluster().broker(NodeId(1)).unwrap();
        handle
            .dispatch(ShipRequest::Delete {
                path: "/a.html".parse().unwrap(),
            })
            .unwrap();
        let audit = fail(&mut sh, "audit");
        assert!(audit.contains("missing /a.html"), "{audit}");
        let store = fail(&mut sh, "store");
        assert!(store.contains("drift item(s)"), "{store}");
        // repair heals it through the controller's shipper, so the
        // re-shipped copy counts as a third transfer; the follow-up audit
        // is healthy again.
        let transfers = sh.controller.metrics().counter("ship_transfers_total");
        assert_eq!(transfers.get(), 2);
        assert!(out(&mut sh, "repair").contains("repaired"));
        assert_eq!(transfers.get(), 3);
        assert!(out(&mut sh, "audit").starts_with("consistent"));
        sh.shutdown();
    }

    /// The broker calls `line` costs each of the shell's 3 nodes.
    fn calls_per_node(sh: &mut Shell, line: &str) -> Vec<u64> {
        let calls = |sh: &Shell| -> Vec<u64> {
            let cluster = sh.controller.cluster();
            (0..3)
                .map(|n| cluster.broker(NodeId(n)).unwrap().transport_stats().calls)
                .collect()
        };
        let before = calls(sh);
        out(sh, line);
        calls(sh).iter().zip(&before).map(|(a, b)| a - b).collect()
    }

    #[test]
    fn audit_asks_each_node_for_one_inventory_and_one_verify_per_routed_copy() {
        let mut sh = shell();
        assert!(out(&mut sh, "publish /a.html html 600 0,1").starts_with("published"));
        assert!(out(&mut sh, "publish /b.html html 600 1").starts_with("published"));
        assert!(out(&mut sh, "publish /c.html html 600 0,1").starts_with("published"));
        // n0 is routed 2 copies, n1 3, n2 none.
        assert_eq!(
            calls_per_node(&mut sh, "audit"),
            [1 + 2, 1 + 3, 1],
            "one pass, no second listing"
        );
        sh.shutdown();
    }

    #[test]
    fn each_node_view_asks_each_node_for_one_stat() {
        let mut sh = shell();
        assert!(out(&mut sh, "publish /a.html html 600 0,1").starts_with("published"));
        assert!(out(&mut sh, "publish /b.html html 600 1").starts_with("published"));
        for view in ["nodes", "top", "status", "health"] {
            assert_eq!(calls_per_node(&mut sh, view), [1, 1, 1], "{view}");
        }
        // `store` adds the audit's calls: an `Inventory`, and a `Verify`
        // per routed copy (n0 has 1, n1 2, n2 none).
        assert_eq!(
            calls_per_node(&mut sh, "store"),
            [1 + 1 + 1, 1 + 1 + 2, 1 + 1],
            "store"
        );
        sh.shutdown();
    }

    #[test]
    fn status_fails_when_a_node_is_down() {
        let mut sh = shell();
        sh.controller.kill_node(NodeId(1));
        let status = fail(&mut sh, "status");
        assert!(status.contains("n1: DOWN"), "{status}");
        // Evicting the dead node makes its absence expected again.
        assert!(out(&mut sh, "evict n1").starts_with("evicted"));
        let status = out(&mut sh, "status");
        assert!(status.contains("n1: DOWN"), "{status}");
        sh.shutdown();
    }

    #[test]
    fn evict_then_repair_converges_after_kill() {
        let mut sh = shell();
        assert!(out(&mut sh, "publish /a.html html 600 0,1").starts_with("published"));
        sh.controller.kill_node(NodeId(0));
        // Dead node makes the audit fail until the operator evicts it.
        assert!(fail(&mut sh, "audit").contains("UNREACHABLE: n0"));
        assert!(out(&mut sh, "evict 0").contains("1 location(s) dropped"));
        assert!(out(&mut sh, "audit").starts_with("consistent"));
        sh.shutdown();
    }

    #[test]
    fn trace_lists_and_renders_span_trees() {
        let mut sh = shell();
        assert!(out(&mut sh, "publish /a.html html 64 0").starts_with("published"));
        assert!(out(&mut sh, "replicate /a.html 1").starts_with("replicated"));
        let listing = out(&mut sh, "trace");
        assert!(listing.contains("mgmt.publish"), "{listing}");
        assert!(listing.contains("mgmt.replicate"), "{listing}");
        assert!(listing.contains("trace(s) retained"), "{listing}");
        // Pull the replicate trace id out of the listing and render it.
        let id = listing
            .lines()
            .find(|l| l.contains("mgmt.replicate"))
            .and_then(|l| l.split_whitespace().next())
            .expect("replicate row has a trace id");
        let tree = out(&mut sh, &format!("trace {id}"));
        assert!(tree.contains("mgmt.replicate"), "{tree}");
        assert!(tree.contains("span(s)"), "{tree}");
        // Children are indented under the root management span.
        assert!(
            tree.lines().any(|l| l.starts_with("  ")),
            "expected an indented child span: {tree}"
        );
        assert!(fail(&mut sh, "trace nothex").starts_with("bad trace id"));
        let missing = format!("trace {}", "0".repeat(32));
        assert!(out(&mut sh, &missing).starts_with("no spans retained"));
        assert!(fail(&mut sh, "trace a b").starts_with("usage"));
        sh.shutdown();
    }

    #[test]
    fn top_renders_without_a_recorder() {
        let mut sh = shell();
        assert!(out(&mut sh, "publish /a.html html 600 0,1").starts_with("published"));
        let top = out(&mut sh, "top");
        assert!(top.contains("recorder off"), "{top}");
        assert!(top.contains("scrape_seq"), "{top}");
        for node in ["n0", "n1", "n2"] {
            assert!(top.contains(node), "{top}");
        }
        assert!(top.contains("600B"), "{top}");
        assert!(top.contains("-- stage latency --"), "{top}");
        assert!(top.contains("mgmt_op_ns"), "{top}");
        assert!(top.contains("urltable_update_ns"), "{top}");
        assert!(fail(&mut sh, "top now").starts_with("usage"));
        sh.shutdown();
    }

    #[test]
    fn top_renders_rates_from_an_installed_recorder() {
        use cpms_obs::SeriesRecorder;
        let mut sh = shell();
        let registry = Arc::clone(sh.controller.metrics());
        let recorder = Arc::new(SeriesRecorder::default());
        registry.set_series(Arc::clone(&recorder));
        recorder.sample(&registry.snapshot());
        assert!(out(&mut sh, "publish /a.html html 64 0").starts_with("published"));
        recorder.sample(&registry.snapshot());
        let top = out(&mut sh, "top");
        assert!(top.contains("recorder 2 sample(s)"), "{top}");
        assert!(top.contains("-- rates"), "{top}");
        assert!(top.contains("mgmt_ops_total"), "{top}");
        sh.shutdown();
    }

    #[test]
    fn health_without_rules_reports_reachability() {
        let mut sh = shell();
        let health = out(&mut sh, "health");
        assert!(health.contains("slo: no rules installed"), "{health}");
        assert!(health.contains("nodes: all reachable"), "{health}");
        assert!(fail(&mut sh, "health now").starts_with("usage"));
        sh.shutdown();
    }

    #[test]
    fn health_fails_when_a_node_goes_down() {
        let mut sh = shell();
        sh.controller.kill_node(NodeId(2));
        // Threshold is 3 consecutive misses before `down`.
        out(&mut sh, "health");
        out(&mut sh, "health");
        let health = fail(&mut sh, "health");
        assert!(health.contains("nodes: 1 DOWN (n2)"), "{health}");
        sh.shutdown();
    }

    #[test]
    fn health_renders_slo_verdicts_and_fails_on_breach() {
        use cpms_obs::{SeriesRecorder, SloRule, SloWatchdog};
        let mut sh = shell();
        let registry = Arc::clone(sh.controller.metrics());
        let recorder = Arc::new(SeriesRecorder::default());
        registry.set_series(Arc::clone(&recorder));
        SloWatchdog::install(
            &registry,
            vec![SloRule::parse("mgmt_op_errors_total rate <= 0 over 60s").unwrap()],
        );
        recorder.sample(&registry.snapshot());
        let healthy = out(&mut sh, "health");
        assert!(healthy.contains("ok"), "{healthy}");
        assert!(healthy.contains("mgmt_op_errors_total"), "{healthy}");
        // A failed management op drives the error-rate rule into breach.
        fail(&mut sh, "delete /nope");
        recorder.sample(&registry.snapshot());
        let sick = fail(&mut sh, "health");
        assert!(sick.contains("BREACH"), "{sick}");
        assert!(sick.contains("slo breaches: 1 total"), "{sick}");
        // Errors stop; once the breach window drains the verdict clears.
        // (60s window here, so force-clear by sampling a fresh recorder.)
        let fresh = Arc::new(SeriesRecorder::default());
        registry.set_series(Arc::clone(&fresh));
        fresh.sample(&registry.snapshot());
        fresh.sample(&registry.snapshot());
        let clear = out(&mut sh, "health");
        assert!(clear.contains("slo breaches: 1 total"), "{clear}");
        sh.shutdown();
    }

    #[test]
    fn help_lists_commands() {
        let mut sh = shell();
        let help = out(&mut sh, "help");
        for cmd in [
            "publish",
            "replicate",
            "offload",
            "rename",
            "delete",
            "audit",
        ] {
            assert!(help.contains(cmd), "help missing {cmd}");
        }
        sh.shutdown();
    }
}
