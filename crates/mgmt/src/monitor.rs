//! Broker health monitoring.
//!
//! §3.1: the broker daemon exists "to perform the administrative functions
//! and monitor the status (e.g., load situation, failure) of the managed
//! node". [`ClusterMonitor`] is the controller-side half: it polls every
//! broker with a `Stat` ([`crate::BrokerHandle::store_stats`]) — O(1),
//! from the store's running counters — and declares a node down
//! after a threshold of consecutive failed polls — the signal the
//! distributor uses to stop routing there and the auto-replicator uses to
//! exclude replication targets. A verdict on a node that answered carries
//! its [`StoreStats`], so one sweep is every per-node number the console
//! shows.
//!
//! Every health *transition* (healthy → suspect, suspect → down,
//! down → recovered) is also an observable event: with a metrics registry
//! attached, transitions land in the shared event log and counters, so
//! the stats surface shows not just the current verdicts but the history
//! that produced them.

use crate::controller::Cluster;
use cpms_model::NodeId;
use cpms_obs::MetricsRegistry;
use cpms_store::StoreStats;
use std::sync::Arc;

/// Health verdict for one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeHealth {
    /// The broker answered its probe with these store stats.
    Healthy(StoreStats),
    /// Probes are failing but the threshold has not been crossed yet.
    Suspect {
        /// Consecutive failed probes so far.
        misses: u32,
    },
    /// The miss threshold was crossed: treat the node as failed.
    Down,
    /// The broker answered again after having been declared down. The
    /// node is available, but the verdict is distinct from `Healthy` for
    /// exactly one poll so operators (and the auto-replicator) can see
    /// the comeback rather than silently absorbing it.
    Recovered(StoreStats),
}

impl NodeHealth {
    /// Whether the node should receive traffic and replicas.
    pub fn is_available(&self) -> bool {
        !matches!(self, NodeHealth::Down)
    }

    /// The store stats the probe answered with; `None` when it missed.
    pub fn stats(&self) -> Option<&StoreStats> {
        match self {
            NodeHealth::Healthy(stats) | NodeHealth::Recovered(stats) => Some(stats),
            NodeHealth::Suspect { .. } | NodeHealth::Down => None,
        }
    }
}

/// Polls brokers and tracks consecutive failures per node.
#[derive(Debug)]
pub struct ClusterMonitor {
    misses: Vec<u32>,
    down: Vec<bool>,
    threshold: u32,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl ClusterMonitor {
    /// Creates a monitor for `nodes` brokers declaring a node down after
    /// `threshold` consecutive failed probes.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is 0.
    pub fn new(nodes: usize, threshold: u32) -> Self {
        assert!(threshold > 0, "threshold must be at least 1");
        ClusterMonitor {
            misses: vec![0; nodes],
            down: vec![false; nodes],
            threshold,
            metrics: None,
        }
    }

    /// Attaches a metrics registry: every subsequent health transition is
    /// recorded as an event (`health` stage) and counted
    /// (`mgmt_node_down_total`, `mgmt_node_recoveries_total`,
    /// `mgmt_health_transitions_total`).
    pub fn attach_metrics(&mut self, registry: &Arc<MetricsRegistry>) {
        self.metrics = Some(Arc::clone(registry));
    }

    fn observe_transition(&self, node: NodeId, what: &str, counter: Option<&str>) {
        let Some(registry) = &self.metrics else {
            return;
        };
        registry.counter("mgmt_health_transitions_total").inc();
        if let Some(name) = counter {
            registry.counter(name).inc();
        }
        registry
            .events()
            .record("health", None, format!("node {} {what}", node.0));
    }

    /// Probes every broker once, updating failure counters, and returns
    /// each node's verdict.
    pub fn poll(&mut self, cluster: &Cluster) -> Vec<(NodeId, NodeHealth)> {
        (0..self.misses.len())
            .map(|i| {
                let node = NodeId(i as u16);
                let result = cluster.broker(node).map(|b| b.store_stats());
                let prev_misses = self.misses[i];
                let health = match result {
                    Some(Ok(stats)) => {
                        self.misses[i] = 0;
                        if self.down[i] {
                            self.down[i] = false;
                            self.observe_transition(
                                node,
                                "recovered from down",
                                Some("mgmt_node_recoveries_total"),
                            );
                            NodeHealth::Recovered(stats)
                        } else {
                            if prev_misses > 0 {
                                self.observe_transition(node, "suspect cleared", None);
                            }
                            NodeHealth::Healthy(stats)
                        }
                    }
                    _ => {
                        self.misses[i] = prev_misses.saturating_add(1);
                        if self.misses[i] >= self.threshold {
                            if !self.down[i] {
                                self.down[i] = true;
                                self.observe_transition(
                                    node,
                                    "declared down",
                                    Some("mgmt_node_down_total"),
                                );
                            }
                            NodeHealth::Down
                        } else {
                            if prev_misses == 0 {
                                self.observe_transition(node, "suspect (missed probe)", None);
                            }
                            NodeHealth::Suspect {
                                misses: self.misses[i],
                            }
                        }
                    }
                };
                (node, health)
            })
            .collect()
    }

    /// Convenience: polls through a controller's cluster.
    pub fn poll_controller(
        &mut self,
        controller: &crate::controller::Controller,
    ) -> Vec<(NodeId, NodeHealth)> {
        self.poll(controller.cluster())
    }

    /// Nodes currently past the miss threshold.
    pub fn down_nodes(&self) -> Vec<NodeId> {
        self.misses
            .iter()
            .enumerate()
            .filter(|(_, &m)| m >= self.threshold)
            .map(|(i, _)| NodeId(i as u16))
            .collect()
    }

    /// Per-node transport health: the monitor's miss counters joined with
    /// each broker client's wire statistics (RTT of the last RPC, retries,
    /// timeouts, reconnects). Backs the console `nodes` command.
    pub fn transport_health(&self, cluster: &Cluster) -> Vec<NodeTransportHealth> {
        (0..self.misses.len())
            .map(|i| {
                let node = NodeId(i as u16);
                let (kind, stats) = cluster
                    .broker(node)
                    .map(|b| (b.transport_kind(), b.transport_stats()))
                    .unwrap_or(("none", cpms_wire::ClientStats::default()));
                NodeTransportHealth {
                    node,
                    transport: kind,
                    down: i < self.down.len() && self.down[i],
                    consecutive_misses: self.misses[i],
                    calls: stats.calls,
                    last_rtt_ns: stats.last_rtt_ns,
                    retries: stats.retries,
                    timeouts: stats.timeouts,
                    reconnects: stats.reconnects,
                }
            })
            .collect()
    }
}

/// One node's control-plane transport health: monitor verdict state plus
/// the broker client's wire counters (see
/// [`ClusterMonitor::transport_health`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeTransportHealth {
    /// The node.
    pub node: NodeId,
    /// Transport kind serving this broker (`inproc`, `tcp`, `faulty`).
    pub transport: &'static str,
    /// Whether the monitor currently considers the node down.
    pub down: bool,
    /// Consecutive failed probes so far.
    pub consecutive_misses: u32,
    /// Total RPCs issued to this broker.
    pub calls: u64,
    /// Round-trip time of the most recent successful RPC, in nanoseconds
    /// (0 if none yet).
    pub last_rtt_ns: u64,
    /// RPC attempts beyond the first (retries after transient failures).
    pub retries: u64,
    /// RPC attempts that hit their deadline.
    pub timeouts: u64,
    /// TCP reconnects (always 0 for in-process transports).
    pub reconnects: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Cluster;

    #[test]
    fn healthy_cluster_reports_status() {
        let mut cluster = Cluster::start(3, 1 << 20);
        let mut monitor = ClusterMonitor::new(3, 2);
        let verdicts = monitor.poll(&cluster);
        assert_eq!(verdicts.len(), 3);
        for (_, health) in &verdicts {
            assert!(matches!(health, NodeHealth::Healthy(stats) if stats.objects == 0));
            assert!(health.is_available());
        }
        assert!(monitor.down_nodes().is_empty());
        cluster.shutdown();
    }

    #[test]
    fn failure_detected_after_threshold() {
        let mut cluster = Cluster::start(2, 1 << 20);
        let mut monitor = ClusterMonitor::new(2, 2);
        // Kill node 1's broker behind the monitor's back.
        cluster.kill_node(NodeId(1));

        let verdicts = monitor.poll(&cluster);
        assert!(matches!(verdicts[0].1, NodeHealth::Healthy(_)));
        assert_eq!(verdicts[1].1, NodeHealth::Suspect { misses: 1 });
        assert!(verdicts[1].1.is_available(), "grace period before Down");

        let verdicts = monitor.poll(&cluster);
        assert_eq!(verdicts[1].1, NodeHealth::Down);
        assert!(!verdicts[1].1.is_available());
        assert_eq!(monitor.down_nodes(), vec![NodeId(1)]);
        cluster.shutdown();
    }

    #[test]
    fn suspect_node_returns_plainly_to_healthy() {
        // Misses below the threshold clear without the Recovered verdict —
        // the node was never declared down, so there is nothing to recover
        // from.
        let mut cluster = Cluster::start(1, 1 << 20);
        let mut monitor = ClusterMonitor::new(1, 3);
        monitor.misses[0] = 2;
        let verdicts = monitor.poll(&cluster);
        assert!(matches!(verdicts[0].1, NodeHealth::Healthy(_)));
        assert!(monitor.down_nodes().is_empty());
        cluster.shutdown();
    }

    #[test]
    fn down_node_comes_back_as_recovered() {
        let mut cluster = Cluster::start(1, 1 << 20);
        let mut monitor = ClusterMonitor::new(1, 1);
        let registry = Arc::new(MetricsRegistry::new());
        monitor.attach_metrics(&registry);

        // Simulate the broker having been declared down, then answering
        // again: the monitor state says down, the cluster is healthy.
        monitor.misses[0] = 1;
        monitor.down[0] = true;
        let verdicts = monitor.poll(&cluster);
        assert!(
            matches!(verdicts[0].1, NodeHealth::Recovered(_)),
            "got {:?}",
            verdicts[0].1
        );
        assert!(verdicts[0].1.is_available());

        // The next poll is plain healthy again — Recovered is one-shot.
        let verdicts = monitor.poll(&cluster);
        assert!(matches!(verdicts[0].1, NodeHealth::Healthy(_)));

        let snap = registry.snapshot();
        assert_eq!(snap.counter("mgmt_node_recoveries_total"), Some(1));
        assert!(snap
            .events
            .iter()
            .any(|e| e.stage == "health" && e.detail.contains("recovered")));
        cluster.shutdown();
    }

    #[test]
    fn real_down_and_recovery_emit_transitions() {
        // End to end through broker death: kill, observe down, restart is
        // not possible for a killed broker, so assert the down transition
        // counters instead.
        let mut cluster = Cluster::start(2, 1 << 20);
        let mut monitor = ClusterMonitor::new(2, 2);
        let registry = Arc::new(MetricsRegistry::new());
        monitor.attach_metrics(&registry);
        cluster.kill_node(NodeId(1));

        monitor.poll(&cluster); // suspect
        monitor.poll(&cluster); // down
        monitor.poll(&cluster); // still down: no repeat transition

        let snap = registry.snapshot();
        assert_eq!(snap.counter("mgmt_node_down_total"), Some(1));
        assert_eq!(snap.counter("mgmt_health_transitions_total"), Some(2));
        assert!(snap
            .events
            .iter()
            .any(|e| e.detail.contains("declared down")));
        cluster.shutdown();
    }
}
