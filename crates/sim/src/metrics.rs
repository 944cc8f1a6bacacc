//! Measurement collection and reports.
//!
//! The paper's metric is WebBench's: requests served per second, reported
//! in aggregate (Figures 2 and 3) and per request class (Figure 4). We
//! additionally expose response-time percentiles, per-node utilizations,
//! and cache hit rates — the quantities that *explain* the headline
//! orderings.

use cpms_model::{LoadSample, NodeId, Priority, RequestClass, RequestOutcome, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-class results over a measurement window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassReport {
    /// The request class.
    pub class: RequestClass,
    /// Requests completed in the window.
    pub completed: u64,
    /// Completions per second.
    pub throughput_rps: f64,
    /// Mean response time in milliseconds.
    pub mean_response_ms: f64,
    /// Median response time in milliseconds.
    pub p50_response_ms: f64,
    /// 95th-percentile response time in milliseconds.
    pub p95_response_ms: f64,
}

/// Per-priority results over a measurement window (differentiated QoS,
/// §1.2: "provide differentiated QoS according to the variety of
/// content").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriorityReport {
    /// The priority band.
    pub priority: Priority,
    /// Requests completed in the window.
    pub completed: u64,
    /// Mean response time in milliseconds.
    pub mean_response_ms: f64,
    /// 95th-percentile response time in milliseconds.
    pub p95_response_ms: f64,
}

/// Per-node results over a measurement window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeReport {
    /// The node.
    pub node: NodeId,
    /// Requests this node served.
    pub requests: u64,
    /// CPU busy fraction.
    pub cpu_utilization: f64,
    /// Disk busy fraction.
    pub disk_utilization: f64,
    /// NIC busy fraction.
    pub nic_utilization: f64,
    /// File-cache hit rate (lifetime of the node).
    pub cache_hit_rate: f64,
}

/// NFS server results, present under shared-filesystem placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NfsReport {
    /// Remote fetches served in total.
    pub fetches: u64,
    /// Disk busy fraction.
    pub disk_utilization: f64,
    /// NIC busy fraction.
    pub nic_utilization: f64,
    /// Server buffer-cache hit rate.
    pub cache_hit_rate: f64,
}

/// The complete result of one measurement window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Length of the measurement window.
    pub window: SimDuration,
    /// Requests issued in the window.
    pub issued: u64,
    /// Requests completed in the window.
    pub completed: u64,
    /// Requests the router could not place (no location / all dead).
    pub unroutable: u64,
    /// Requests routed to a node that did not hold the content (possible
    /// with content-blind routing over partitioned placement).
    pub misroutes: u64,
    /// Requests still in flight when the window closed.
    pub in_flight_at_end: u64,
    /// Per-class breakdown (classes with zero traffic omitted).
    pub classes: Vec<ClassReport>,
    /// Per-priority breakdown (bands with zero traffic omitted).
    pub priorities: Vec<PriorityReport>,
    /// Per-node breakdown.
    pub nodes: Vec<NodeReport>,
    /// Dispatcher busy fraction.
    pub dispatcher_utilization: f64,
    /// NFS server report, if the run used shared-NFS placement.
    pub nfs: Option<NfsReport>,
    /// Raw per-request load samples (input to §3.3 auto-replication).
    pub load_samples: Vec<LoadSample>,
}

impl SimReport {
    /// Aggregate completions per second — the WebBench headline number.
    pub fn throughput_rps(&self) -> f64 {
        if self.window == SimDuration::ZERO {
            0.0
        } else {
            self.completed as f64 / self.window.as_secs_f64()
        }
    }

    /// The report for one class, if it saw traffic.
    pub fn class(&self, class: RequestClass) -> Option<&ClassReport> {
        self.classes.iter().find(|c| c.class == class)
    }

    /// The report for one priority band, if it saw traffic.
    pub fn priority(&self, priority: Priority) -> Option<&PriorityReport> {
        self.priorities.iter().find(|p| p.priority == priority)
    }

    /// Mean response time across all classes, in milliseconds.
    pub fn mean_response_ms(&self) -> f64 {
        let total: u64 = self.classes.iter().map(|c| c.completed).sum();
        if total == 0 {
            return 0.0;
        }
        self.classes
            .iter()
            .map(|c| c.mean_response_ms * c.completed as f64)
            .sum::<f64>()
            / total as f64
    }
}

impl std::fmt::Display for SimReport {
    /// Renders a compact human-readable summary: headline throughput, then
    /// per-class and per-node lines.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:.0} req/s over {} ({} completed, {} issued, {} unroutable, {} misroutes, {} in flight)",
            self.throughput_rps(),
            self.window,
            self.completed,
            self.issued,
            self.unroutable,
            self.misroutes,
            self.in_flight_at_end
        )?;
        for c in &self.classes {
            writeln!(
                f,
                "  {:>6}: {:>8.1} rps  mean {:>7.1}ms  p50 {:>7.1}ms  p95 {:>7.1}ms",
                c.class, c.throughput_rps, c.mean_response_ms, c.p50_response_ms, c.p95_response_ms
            )?;
        }
        for n in &self.nodes {
            writeln!(
                f,
                "  {:>6}: {:>6} reqs  cpu {:>4.0}%  disk {:>4.0}%  nic {:>4.0}%  cache hit {:>4.0}%",
                n.node,
                n.requests,
                n.cpu_utilization * 100.0,
                n.disk_utilization * 100.0,
                n.nic_utilization * 100.0,
                n.cache_hit_rate * 100.0
            )?;
        }
        if let Some(nfs) = &self.nfs {
            writeln!(
                f,
                "  nfs: {} fetches  disk {:.0}%  nic {:.0}%  cache hit {:.0}%",
                nfs.fetches,
                nfs.disk_utilization * 100.0,
                nfs.nic_utilization * 100.0,
                nfs.cache_hit_rate * 100.0
            )?;
        }
        write!(
            f,
            "  dispatcher {:.0}% busy",
            self.dispatcher_utilization * 100.0
        )
    }
}

/// Accumulates outcomes during a window; drained into a [`SimReport`].
#[derive(Debug, Default)]
pub struct Collector {
    issued: u64,
    completed: u64,
    unroutable: u64,
    misroutes: u64,
    response_micros: HashMap<RequestClass, Vec<u64>>,
    priority_micros: HashMap<Priority, Vec<u64>>,
    load_samples: Vec<LoadSample>,
}

impl Collector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Counts an issued request.
    pub fn on_issue(&mut self) {
        self.issued += 1;
    }

    /// Counts an unroutable request.
    pub fn on_unroutable(&mut self) {
        self.unroutable += 1;
    }

    /// Counts a misrouted request.
    pub fn on_misroute(&mut self) {
        self.misroutes += 1;
    }

    /// Records a completed request and its §3.3 load sample.
    pub fn on_complete(&mut self, outcome: &RequestOutcome, sample: LoadSample) {
        self.completed += 1;
        self.response_micros
            .entry(outcome.class)
            .or_default()
            .push(outcome.response_time().as_micros());
        self.priority_micros
            .entry(outcome.priority)
            .or_default()
            .push(outcome.response_time().as_micros());
        self.load_samples.push(sample);
    }

    /// Requests completed so far in this window.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Finalizes the window: produces class reports and the load samples,
    /// leaving the collector empty for the next window. Node/dispatcher/NFS
    /// figures are filled in by the simulation, which owns those resources.
    pub fn drain(&mut self, window: SimDuration, in_flight_at_end: u64) -> SimReport {
        let mut classes: Vec<ClassReport> = Vec::new();
        for class in RequestClass::ALL {
            let Some(mut times) = self.response_micros.remove(&class) else {
                continue;
            };
            if times.is_empty() {
                continue;
            }
            times.sort_unstable();
            let completed = times.len() as u64;
            let mean = times.iter().sum::<u64>() as f64 / times.len() as f64;
            classes.push(ClassReport {
                class,
                completed,
                throughput_rps: completed as f64 / window.as_secs_f64().max(f64::MIN_POSITIVE),
                mean_response_ms: mean / 1e3,
                p50_response_ms: percentile(&times, 0.50) / 1e3,
                p95_response_ms: percentile(&times, 0.95) / 1e3,
            });
        }
        let mut priorities: Vec<PriorityReport> = Vec::new();
        for priority in [Priority::Critical, Priority::Normal, Priority::Background] {
            let Some(mut times) = self.priority_micros.remove(&priority) else {
                continue;
            };
            if times.is_empty() {
                continue;
            }
            times.sort_unstable();
            let mean = times.iter().sum::<u64>() as f64 / times.len() as f64;
            priorities.push(PriorityReport {
                priority,
                completed: times.len() as u64,
                mean_response_ms: mean / 1e3,
                p95_response_ms: percentile(&times, 0.95) / 1e3,
            });
        }
        let report = SimReport {
            window,
            issued: self.issued,
            completed: self.completed,
            unroutable: self.unroutable,
            misroutes: self.misroutes,
            in_flight_at_end,
            classes,
            priorities,
            nodes: Vec::new(),
            dispatcher_utilization: 0.0,
            nfs: None,
            load_samples: std::mem::take(&mut self.load_samples),
        };
        self.issued = 0;
        self.completed = 0;
        self.unroutable = 0;
        self.misroutes = 0;
        self.response_micros.clear();
        self.priority_micros.clear();
        report
    }
}

/// Linear-interpolated percentile of a sorted slice (in the slice's units).
fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo] as f64
    } else {
        let frac = pos - lo as f64;
        sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpms_model::{ContentId, ContentKind, RequestId, SimTime};

    fn outcome(class: RequestClass, node: u16, micros: u64) -> (RequestOutcome, LoadSample) {
        (
            RequestOutcome {
                id: RequestId(0),
                class,
                served_by: NodeId(node),
                issued_at: SimTime::ZERO,
                completed_at: SimTime::from_micros(micros),
                cache_hit: false,
                size_bytes: 100,
                priority: Priority::Normal,
            },
            LoadSample {
                node: NodeId(node),
                content: ContentId(0),
                kind: ContentKind::StaticHtml,
                processing_time: SimDuration::from_micros(micros),
            },
        )
    }

    #[test]
    fn collects_and_drains() {
        let mut c = Collector::new();
        for _ in 0..3 {
            c.on_issue();
        }
        let (o, s) = outcome(RequestClass::Static, 0, 1_000);
        c.on_complete(&o, s);
        let (o, s) = outcome(RequestClass::Static, 0, 3_000);
        c.on_complete(&o, s);
        let (o, s) = outcome(RequestClass::Cgi, 1, 10_000);
        c.on_complete(&o, s);
        c.on_unroutable();

        let r = c.drain(SimDuration::from_secs(1), 0);
        assert_eq!(r.issued, 3);
        assert_eq!(r.completed, 3);
        assert_eq!(r.unroutable, 1);
        assert!((r.throughput_rps() - 3.0).abs() < 1e-9);
        let static_report = r.class(RequestClass::Static).unwrap();
        assert_eq!(static_report.completed, 2);
        assert!((static_report.mean_response_ms - 2.0).abs() < 1e-9);
        assert!(r.class(RequestClass::Asp).is_none());
        assert_eq!(r.load_samples.len(), 3);

        // drained: a second drain is empty
        let r2 = c.drain(SimDuration::from_secs(1), 0);
        assert_eq!(r2.completed, 0);
        assert!(r2.classes.is_empty());
    }

    #[test]
    fn percentile_interpolates() {
        let v = vec![10, 20, 30, 40];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert_eq!(percentile(&v, 0.5), 25.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7], 0.95), 7.0);
    }

    #[test]
    fn mean_response_weighted_by_class() {
        let mut c = Collector::new();
        let (o, s) = outcome(RequestClass::Static, 0, 1_000);
        c.on_complete(&o, s);
        let (o, s) = outcome(RequestClass::Cgi, 0, 3_000);
        c.on_complete(&o, s);
        let r = c.drain(SimDuration::from_secs(1), 0);
        assert!((r.mean_response_ms() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn display_summarizes_report() {
        let mut c = Collector::new();
        c.on_issue();
        let (o, s) = outcome(RequestClass::Static, 0, 2_000);
        c.on_complete(&o, s);
        let r = c.drain(SimDuration::from_secs(1), 0);
        let text = r.to_string();
        assert!(text.contains("1 req/s") || text.contains("1 completed"));
        assert!(text.contains("static"));
        assert!(text.contains("dispatcher"));
    }

    #[test]
    fn zero_window_throughput_is_zero() {
        let mut c = Collector::new();
        let r = c.drain(SimDuration::ZERO, 0);
        assert_eq!(r.throughput_rps(), 0.0);
        assert_eq!(r.mean_response_ms(), 0.0);
    }
}
