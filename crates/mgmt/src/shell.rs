//! A scriptable command shell over the remote console — the CLI stand-in
//! for the paper's Java-applet GUI ("the administrator can download the
//! remote console and interact with it to perform management operations").
//!
//! Used by the `cpms-console` binary; the command language is parsed and
//! executed here so it is unit-testable without a TTY.
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
//! audit                                             verify table vs brokers
//! help                                              this text
//! quit                                              exit
//! ```
//!
//! Health commands (`audit`, `status`, `store`, `repair`, `health`)
//! distinguish a healthy answer ([`ShellOutcome::Output`]) from a
//! detected problem ([`ShellOutcome::Failure`]) so scripts and CI can
//! turn drift, down nodes, or SLO breaches into a nonzero exit code.
//!
//! `top` and `health` read the controller registry's flight recorder
//! ([`cpms_obs::SeriesRecorder`]) and SLO watchdog
//! ([`cpms_obs::SloWatchdog`]) when installed; without a recorder they
//! still render node reachability, gauges, and stage latency from a
//! point-in-time snapshot.

use crate::auditor::AntiEntropyAuditor;
use crate::console::RemoteConsole;
use crate::monitor::{ClusterMonitor, NodeTransportHealth};
use cpms_model::{ContentId, ContentKind, NodeId, UrlPath};
use cpms_obs::{SloVerdict, SpanId, SpanRecord, TraceId};
use cpms_store::{ShipPort, ShipReply, ShipRequest, StoreStats};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Window `top` uses when deriving rates from the flight recorder.
const TOP_RATE_WINDOW: Duration = Duration::from_secs(10);

/// The outcome of executing one command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShellOutcome {
    /// Command executed; human-readable output to print.
    Output(String),
    /// Command executed and *detected a problem* (drift, down nodes,
    /// failed repairs). The text should be printed like output, but a
    /// script driving the shell must exit nonzero.
    Failure(String),
    /// The user asked to exit.
    Quit,
}

/// A stateful command shell over a [`RemoteConsole`].
#[derive(Debug)]
pub struct Shell {
    console: RemoteConsole,
    monitor: ClusterMonitor,
    next_content: u32,
}

impl Shell {
    /// Wraps a console. Content ids are auto-assigned per publish.
    pub fn new(console: RemoteConsole) -> Self {
        let nodes = console.controller().node_count();
        Shell {
            console,
            monitor: ClusterMonitor::new(nodes, 3),
            next_content: 0,
        }
    }

    /// Access to the wrapped console (for tests and embedding).
    pub fn console(&self) -> &RemoteConsole {
        &self.console
    }

    /// Consumes the shell, shutting the cluster down.
    pub fn shutdown(self) {
        self.console.shutdown();
    }

    /// Parses and executes one command line. Errors never panic; they are
    /// rendered into the output so a script can keep going.
    pub fn execute(&mut self, line: &str) -> ShellOutcome {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return ShellOutcome::Output(String::new());
        }
        let mut words = line.split_whitespace();
        let command = words.next().expect("nonempty line has a first word");
        let args: Vec<&str> = words.collect();
        match self.dispatch(command, &args) {
            Ok(ShellOutcome::Quit) => ShellOutcome::Quit,
            Ok(out) => out,
            Err(message) => ShellOutcome::Output(format!("error: {message}")),
        }
    }

    fn dispatch(&mut self, command: &str, args: &[&str]) -> Result<ShellOutcome, String> {
        match command {
            "publish" => {
                let [path, kind, size, nodes] = expect_args::<4>("publish", args)?;
                let path = parse_path(path)?;
                let kind = parse_kind(kind)?;
                let size: u64 = size.parse().map_err(|_| format!("bad size {size:?}"))?;
                let nodes = parse_nodes(nodes)?;
                let id = ContentId(self.next_content);
                self.console
                    .publish(&path, id, kind, size, &nodes)
                    .map_err(|e| e.to_string())?;
                self.next_content += 1;
                Ok(ShellOutcome::Output(format!("published {path} as {id}")))
            }
            "replicate" => {
                let [path, node] = expect_args::<2>("replicate", args)?;
                let path = parse_path(path)?;
                let node = parse_node(node)?;
                self.console
                    .replicate(&path, node)
                    .map_err(|e| e.to_string())?;
                Ok(ShellOutcome::Output(format!("replicated {path} to {node}")))
            }
            "offload" => {
                let [path, node] = expect_args::<2>("offload", args)?;
                let path = parse_path(path)?;
                let node = parse_node(node)?;
                self.console
                    .offload(&path, node)
                    .map_err(|e| e.to_string())?;
                Ok(ShellOutcome::Output(format!(
                    "offloaded {path} from {node}"
                )))
            }
            "rename" => {
                let [from, to] = expect_args::<2>("rename", args)?;
                let from = parse_path(from)?;
                let to = parse_path(to)?;
                self.console.rename(&from, &to).map_err(|e| e.to_string())?;
                Ok(ShellOutcome::Output(format!("renamed {from} -> {to}")))
            }
            "delete" => {
                let [path] = expect_args::<1>("delete", args)?;
                let path = parse_path(path)?;
                self.console.delete(&path).map_err(|e| e.to_string())?;
                Ok(ShellOutcome::Output(format!("deleted {path}")))
            }
            "touch" => {
                let [path] = expect_args::<1>("touch", args)?;
                let path = parse_path(path)?;
                let version = self
                    .console
                    .controller_mut()
                    .update_content(&path)
                    .map_err(|e| e.to_string())?;
                Ok(ShellOutcome::Output(format!(
                    "{path} now at version {version}"
                )))
            }
            "ls" => {
                let rows = match args {
                    [] => self.console.tree_view(),
                    [prefix] => self.console.list_dir(&parse_path(prefix)?),
                    _ => return Err("usage: ls [prefix]".to_string()),
                };
                let mut out = String::new();
                for row in &rows {
                    let nodes: Vec<String> = row.locations.iter().map(|n| n.to_string()).collect();
                    let _ = writeln!(
                        out,
                        "{:<40} {:>7} {:>9}B {:<9} hits={:<6} on {}",
                        row.path.to_string(),
                        row.kind.to_string(),
                        row.size,
                        row.priority.to_string(),
                        row.hits,
                        nodes.join(",")
                    );
                }
                let _ = write!(out, "{} object(s)", rows.len());
                Ok(ShellOutcome::Output(out))
            }
            "status" => {
                let mut out = String::new();
                let mut down = 0usize;
                for (node, status) in self.console.controller().status() {
                    match status {
                        Ok(crate::agent::AgentOutput::Status {
                            files,
                            used_bytes,
                            free_bytes,
                        }) => {
                            let _ = writeln!(
                                out,
                                "{node}: {files} file(s), {used_bytes}B used, {free_bytes}B free"
                            );
                        }
                        Ok(other) => {
                            let _ = writeln!(out, "{node}: unexpected reply {other:?}");
                        }
                        Err(e) => {
                            // Evicted nodes are expected to be gone; only
                            // unplanned absences are a health failure.
                            if !self.console.controller().is_decommissioned(node) {
                                down += 1;
                            }
                            let _ = writeln!(out, "{node}: DOWN ({e})");
                        }
                    }
                }
                let out = out.trim_end().to_string();
                if down > 0 {
                    Ok(ShellOutcome::Failure(out))
                } else {
                    Ok(ShellOutcome::Output(out))
                }
            }
            "evict" => {
                let [node] = expect_args::<1>("evict", args)?;
                let node = parse_node(node)?;
                let report = self
                    .console
                    .controller_mut()
                    .evict(node)
                    .map_err(|e| e.to_string())?;
                Ok(ShellOutcome::Output(report.to_string()))
            }
            "repair" => {
                if !args.is_empty() {
                    return Err("usage: repair".to_string());
                }
                let report = AntiEntropyAuditor::new().repair(self.console.controller_mut());
                let mut out = String::new();
                for (drift, reason) in &report.failed_repairs {
                    let _ = writeln!(out, "FAILED: {drift}: {reason}");
                }
                let _ = write!(out, "{}", report.summary());
                if report.failed_repairs.is_empty() && report.unreachable.is_empty() {
                    Ok(ShellOutcome::Output(out))
                } else {
                    Ok(ShellOutcome::Failure(out))
                }
            }
            "nodes" => {
                if !args.is_empty() {
                    return Err("usage: nodes".to_string());
                }
                // Probe first so miss counters and RTTs are current.
                self.monitor.poll_controller(self.console.controller());
                let rows = self
                    .monitor
                    .transport_health(self.console.controller().cluster());
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
                for row in &rows {
                    let rtt = if row.last_rtt_ns == 0 {
                        "-".to_string()
                    } else {
                        format!("{:.1}us", row.last_rtt_ns as f64 / 1_000.0)
                    };
                    let store = match self.store_stats(row.node) {
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
                Ok(ShellOutcome::Output(out.trim_end().to_string()))
            }
            "store" => {
                if !args.is_empty() {
                    return Err("usage: store".to_string());
                }
                let report = AntiEntropyAuditor::new().audit(self.console.controller());
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
                let controller = self.console.controller();
                for i in 0..controller.node_count() {
                    let node = NodeId(i as u16);
                    match self.store_stats(node) {
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
                                drift_per_node.get(&node).copied().unwrap_or(0)
                            );
                        }
                        None => {
                            let _ = writeln!(out, "{:<5} unreachable", node.to_string());
                        }
                    }
                }
                let sched = controller.scheduler();
                let _ = writeln!(
                    out,
                    "transfers: {} in flight, {} started total",
                    sched.inflight(),
                    sched.started_total()
                );
                let _ = write!(out, "{}", report.summary());
                if report.is_clean() {
                    Ok(ShellOutcome::Output(out))
                } else {
                    Ok(ShellOutcome::Failure(out))
                }
            }
            "stats" => {
                if !args.is_empty() {
                    return Err("usage: stats".to_string());
                }
                Ok(ShellOutcome::Output(
                    self.console.controller().metrics_report(),
                ))
            }
            "audit" => {
                let report = AntiEntropyAuditor::new().audit(self.console.controller());
                if report.is_clean() {
                    Ok(ShellOutcome::Output(
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
                    Ok(ShellOutcome::Failure(out.trim_end().to_string()))
                }
            }
            "top" => {
                if !args.is_empty() {
                    return Err("usage: top".to_string());
                }
                Ok(ShellOutcome::Output(self.top_view()))
            }
            "health" => {
                if !args.is_empty() {
                    return Err("usage: health".to_string());
                }
                Ok(self.health_view())
            }
            "trace" => {
                let spans = self.console.controller().metrics().spans();
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
                        Ok(ShellOutcome::Output(out))
                    }
                    [id] => {
                        let trace = TraceId::parse(id)
                            .ok_or_else(|| format!("bad trace id {id:?} (32 hex digits)"))?;
                        let records = spans.spans_of(trace);
                        if records.is_empty() {
                            return Ok(ShellOutcome::Output(format!(
                                "no spans retained for {trace}"
                            )));
                        }
                        Ok(ShellOutcome::Output(render_trace_tree(&records)))
                    }
                    _ => Err("usage: trace [<id>]".to_string()),
                }
            }
            "help" => Ok(ShellOutcome::Output(HELP.trim().to_string())),
            "quit" | "exit" => Ok(ShellOutcome::Quit),
            other => Err(format!("unknown command {other:?}; try `help`")),
        }
    }

    /// The merged cluster activity view: per-node reachability and
    /// store occupancy, counter rates from the flight recorder (when
    /// one is installed), live gauges, and per-stage latency quantiles.
    fn top_view(&mut self) -> String {
        self.monitor.poll_controller(self.console.controller());
        let rows = self
            .monitor
            .transport_health(self.console.controller().cluster());
        let registry = Arc::clone(self.console.controller().metrics());
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
        for row in &rows {
            let state = state_label(row);
            match self.store_stats(row.node) {
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

    /// SLO verdicts plus node reachability. A
    /// [`ShellOutcome::Failure`] when any rule is in breach or any
    /// non-decommissioned node is down, so scripts (and `cpms-console
    /// --watch`) can turn a sick cluster into a nonzero exit code.
    fn health_view(&mut self) -> ShellOutcome {
        self.monitor.poll_controller(self.console.controller());
        let rows = self
            .monitor
            .transport_health(self.console.controller().cluster());
        let down: Vec<String> = rows
            .iter()
            .filter(|r| r.down && !self.console.controller().is_decommissioned(r.node))
            .map(|r| r.node.to_string())
            .collect();
        let registry = Arc::clone(self.console.controller().metrics());
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
        let out = out.trim_end().to_string();
        if breached || !down.is_empty() {
            ShellOutcome::Failure(out)
        } else {
            ShellOutcome::Output(out)
        }
    }

    /// One node's content-store stats over the ship protocol, or `None`
    /// when the broker is unreachable or does not answer with stats.
    fn store_stats(&self, node: NodeId) -> Option<StoreStats> {
        let handle = self.console.controller().cluster().broker(node)?;
        match handle.ship(&ShipRequest::Stat) {
            Ok(ShipReply::Stats(stats)) => Some(stats),
            _ => None,
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
quit
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

fn parse_node(s: &str) -> Result<NodeId, String> {
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
    use crate::controller::{Cluster, Controller};

    fn shell() -> Shell {
        Shell::new(RemoteConsole::new(Controller::new(Cluster::start(
            3,
            1 << 20,
        ))))
    }

    fn out(shell: &mut Shell, line: &str) -> String {
        match shell.execute(line) {
            ShellOutcome::Output(s) => s,
            other => panic!("expected healthy output, got {other:?}"),
        }
    }

    fn fail(shell: &mut Shell, line: &str) -> String {
        match shell.execute(line) {
            ShellOutcome::Failure(s) => s,
            other => panic!("expected a detected failure, got {other:?}"),
        }
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
        assert_eq!(sh.execute("quit"), ShellOutcome::Quit);
        sh.shutdown();
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut sh = shell();
        assert!(out(&mut sh, "delete /nope").starts_with("error:"));
        assert!(out(&mut sh, "publish bad-path html 1 0").starts_with("error:"));
        assert!(out(&mut sh, "publish /x html 1 99").starts_with("error:"));
        assert!(out(&mut sh, "publish /x html notasize 0").starts_with("error:"));
        assert!(out(&mut sh, "publish /x nonsense 1 0").starts_with("error:"));
        assert!(out(&mut sh, "replicate /x").starts_with("error:"));
        assert!(out(&mut sh, "frobnicate").starts_with("error:"));
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
        assert!(out(&mut sh, "delete /nope").starts_with("error:"));
        let stats = out(&mut sh, "stats");
        assert!(stats.contains("mgmt_ops_total"), "{stats}");
        assert!(stats.contains("mgmt_op_errors_total"), "{stats}");
        assert!(stats.contains("mgmt_op_ns"), "{stats}");
        assert!(stats.contains("urltable_update_ns"), "{stats}");
        assert!(stats.contains("urltable_entries"), "{stats}");
        assert!(stats.contains("delete failed"), "{stats}");
        assert!(out(&mut sh, "stats now").starts_with("error: usage"));
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
        assert!(out(&mut sh, "nodes please").starts_with("error: usage"));
        sh.shutdown();
    }

    #[test]
    fn nodes_shows_down_after_kill() {
        let mut sh = shell();
        sh.console.controller_mut().kill_node(NodeId(1));
        // Threshold is 3: two polls leave n1 suspect, the third marks down.
        out(&mut sh, "nodes");
        out(&mut sh, "nodes");
        let nodes = out(&mut sh, "nodes");
        let n1_row = nodes
            .lines()
            .find(|l| l.starts_with("n1"))
            .expect("n1 row present");
        assert!(n1_row.contains("down"), "{nodes}");
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
        assert!(store.contains("in flight"), "{store}");
        // n0 and n1 hold the object; 600 bytes committed on each.
        let n0 = store.lines().find(|l| l.starts_with("n0")).unwrap();
        assert!(n0.contains("600B"), "{store}");
        assert!(out(&mut sh, "store now").starts_with("error: usage"));
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
        let handle = sh.console.controller().cluster().broker(NodeId(1)).unwrap();
        handle
            .ship(&ShipRequest::Delete {
                path: "/a.html".parse().unwrap(),
            })
            .unwrap();
        let audit = fail(&mut sh, "audit");
        assert!(audit.contains("missing /a.html"), "{audit}");
        let store = fail(&mut sh, "store");
        assert!(store.contains("drift item(s)"), "{store}");
        // repair heals it; the follow-up audit is healthy again.
        assert!(out(&mut sh, "repair").contains("repaired"));
        assert!(out(&mut sh, "audit").starts_with("consistent"));
        sh.shutdown();
    }

    #[test]
    fn audit_asks_each_node_for_one_inventory_and_one_verify_per_routed_copy() {
        let mut sh = shell();
        assert!(out(&mut sh, "publish /a.html html 600 0,1").starts_with("published"));
        assert!(out(&mut sh, "publish /b.html html 600 1").starts_with("published"));
        assert!(out(&mut sh, "publish /c.html html 600 0,1").starts_with("published"));
        let calls = |sh: &Shell| -> Vec<u64> {
            let cluster = sh.console.controller().cluster();
            (0..3)
                .map(|n| cluster.broker(NodeId(n)).unwrap().transport_stats().calls)
                .collect()
        };
        let before = calls(&sh);
        assert!(out(&mut sh, "audit").starts_with("consistent"));
        let cost: Vec<u64> = calls(&sh).iter().zip(&before).map(|(a, b)| a - b).collect();
        // n0 is routed 2 copies, n1 3, n2 none.
        assert_eq!(cost, [1 + 2, 1 + 3, 1], "one pass, no second listing");
        sh.shutdown();
    }

    #[test]
    fn status_fails_when_a_node_is_down() {
        let mut sh = shell();
        sh.console.controller_mut().kill_node(NodeId(1));
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
        sh.console.controller_mut().kill_node(NodeId(0));
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
        assert!(out(&mut sh, "trace nothex").starts_with("error: bad trace id"));
        let missing = format!("trace {}", "0".repeat(32));
        assert!(out(&mut sh, &missing).starts_with("no spans retained"));
        assert!(out(&mut sh, "trace a b").starts_with("error: usage"));
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
        assert!(out(&mut sh, "top now").starts_with("error: usage"));
        sh.shutdown();
    }

    #[test]
    fn top_renders_rates_from_an_installed_recorder() {
        use cpms_obs::SeriesRecorder;
        let mut sh = shell();
        let registry = Arc::clone(sh.console().controller().metrics());
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
        assert!(out(&mut sh, "health now").starts_with("error: usage"));
        sh.shutdown();
    }

    #[test]
    fn health_fails_when_a_node_goes_down() {
        let mut sh = shell();
        sh.console.controller_mut().kill_node(NodeId(2));
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
        let registry = Arc::clone(sh.console().controller().metrics());
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
        assert!(out(&mut sh, "delete /nope").starts_with("error:"));
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
