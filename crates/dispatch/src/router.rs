//! The routing-policy abstraction shared by the simulator and the live
//! proxy.

use cpms_model::{ContentKind, NodeId, SimDuration, UrlPath};
use cpms_urltable::UrlTable;

/// Live cluster information a router may consult: static capacity weights
/// and the current number of in-flight connections per node (what a TCP
/// connection router tracks in practice).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterState {
    weights: Vec<f64>,
    active: Vec<u32>,
    alive: Vec<bool>,
}

impl ClusterState {
    /// Creates state for nodes with the given capacity weights, all alive
    /// with zero connections.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or contains non-positive values.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "cluster must have at least one node");
        assert!(
            weights.iter().all(|w| *w > 0.0 && w.is_finite()),
            "weights must be positive and finite"
        );
        let n = weights.len();
        ClusterState {
            weights,
            active: vec![0; n],
            alive: vec![true; n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.weights.len()
    }

    /// Static capacity weight of `node`.
    pub fn weight(&self, node: NodeId) -> f64 {
        self.weights[node.index()]
    }

    /// Current in-flight connections on `node`.
    pub fn active_connections(&self, node: NodeId) -> u32 {
        self.active[node.index()]
    }

    /// Whether `node` is up.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    /// Marks a connection opened on `node`.
    pub fn connection_opened(&mut self, node: NodeId) {
        self.active[node.index()] += 1;
    }

    /// Marks a connection closed on `node`.
    ///
    /// # Panics
    ///
    /// Panics if no connection is open on `node` (accounting bug).
    pub fn connection_closed(&mut self, node: NodeId) {
        let a = &mut self.active[node.index()];
        *a = a.checked_sub(1).expect("connection count underflow");
    }

    /// Marks `node` up or down (failure injection).
    pub fn set_alive(&mut self, node: NodeId, alive: bool) {
        self.alive[node.index()] = alive;
    }

    /// The load figure WLC minimizes: `active / weight`.
    pub fn normalized_load(&self, node: NodeId) -> f64 {
        self.active[node.index()] as f64 / self.weights[node.index()]
    }

    /// Iterator over alive node ids.
    pub fn alive_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, a)| **a)
            .map(|(i, _)| NodeId(i as u16))
    }
}

/// What a router needs to know about one incoming request.
///
/// Content-blind (layer-4 / DNS) routers see only the client identity —
/// they decide *before* the HTTP request is readable (§2.1: "they determine
/// the target server before the client sends out the HTTP request").
/// Content-aware routers additionally use `path`/`kind`.
#[derive(Debug, Clone, Copy)]
pub struct RoutingRequest<'a> {
    /// Client identity (source address surrogate).
    pub client: u32,
    /// The requested URL path.
    pub path: &'a UrlPath,
    /// The content kind (derived from the path by classification).
    pub kind: ContentKind,
}

/// A routing decision: the chosen node plus the costs of getting the
/// request there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// The selected back-end node.
    pub node: NodeId,
    /// Dispatcher processing time for this request (decision + connection
    /// binding; §5.2 measured ~4.32 µs for the table lookup alone).
    pub cost: SimDuration,
    /// Extra client-visible latency this mechanism imposes before the
    /// request reaches the node (zero for spliced/L4 routing; two round
    /// trips for HTTP redirection).
    pub client_latency: SimDuration,
    /// Whether the response flows directly from the node to the client,
    /// bypassing the dispatcher's relay path (true for HTTP redirection
    /// and DNS routing; false for splicing/L4 rewriting).
    pub direct_response: bool,
}

impl RouteDecision {
    /// A spliced/relayed decision with no extra client latency.
    pub fn new(node: NodeId, cost: SimDuration) -> Self {
        RouteDecision {
            node,
            cost,
            client_latency: SimDuration::ZERO,
            direct_response: false,
        }
    }

    /// Adds client-visible mechanism latency (builder-style).
    #[must_use]
    pub fn with_client_latency(mut self, latency: SimDuration) -> Self {
        self.client_latency = latency;
        self
    }

    /// Marks the response as bypassing the dispatcher (builder-style).
    #[must_use]
    pub fn with_direct_response(mut self, direct: bool) -> Self {
        self.direct_response = direct;
        self
    }
}

/// A request-routing policy.
///
/// Implementations must be deterministic given their internal state; any
/// randomness comes from seeded RNGs owned by the policy.
pub trait Router: Send {
    /// The policy's display name for reports.
    fn name(&self) -> &'static str;

    /// Picks a node for `req`, or `None` if no routable node exists (no
    /// location in the table / all nodes down). Content-blind policies
    /// ignore `table`.
    fn route(
        &mut self,
        req: &RoutingRequest<'_>,
        state: &ClusterState,
        table: &UrlTable,
    ) -> Option<RouteDecision>;

    /// Notification that a request previously routed to `node` completed.
    /// Default: no-op; policies with internal accounting can override.
    fn on_complete(&mut self, _node: NodeId) {}
}

/// DNS-style round robin: each *client* is bound to one node (a DNS answer
/// cached by the client resolver); all its requests go there regardless of
/// load or content. §2.1 dismisses this approach as content-blind and
/// staleness-prone.
#[derive(Debug, Clone, Default)]
pub struct DnsRoundRobin {
    _priv: (),
}

impl DnsRoundRobin {
    /// Creates the policy.
    pub fn new() -> Self {
        DnsRoundRobin::default()
    }
}

impl Router for DnsRoundRobin {
    fn name(&self) -> &'static str {
        "dns-round-robin"
    }

    fn route(
        &mut self,
        req: &RoutingRequest<'_>,
        state: &ClusterState,
        _table: &UrlTable,
    ) -> Option<RouteDecision> {
        // Hash the client onto the node set; skip dead nodes by probing.
        let n = state.node_count();
        for probe in 0..n {
            let idx = (req.client as usize + probe) % n;
            let node = NodeId(idx as u16);
            if state.is_alive(node) {
                // DNS resolution happened out of band; per-request cost at
                // the cluster is nil, and traffic never touches a
                // dispatcher at all.
                return Some(
                    RouteDecision::new(node, SimDuration::ZERO).with_direct_response(true),
                );
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_state_accounting() {
        let mut s = ClusterState::new(vec![1.0, 2.0]);
        s.connection_opened(NodeId(0));
        s.connection_opened(NodeId(0));
        s.connection_opened(NodeId(1));
        assert_eq!(s.active_connections(NodeId(0)), 2);
        assert_eq!(s.normalized_load(NodeId(0)), 2.0);
        assert_eq!(s.normalized_load(NodeId(1)), 0.5);
        s.connection_closed(NodeId(0));
        assert_eq!(s.active_connections(NodeId(0)), 1);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn close_without_open_panics() {
        let mut s = ClusterState::new(vec![1.0]);
        s.connection_closed(NodeId(0));
    }

    #[test]
    fn alive_nodes_iteration() {
        let mut s = ClusterState::new(vec![1.0, 1.0, 1.0]);
        s.set_alive(NodeId(1), false);
        let alive: Vec<NodeId> = s.alive_nodes().collect();
        assert_eq!(alive, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn dns_rr_is_client_sticky() {
        let mut r = DnsRoundRobin::new();
        let s = ClusterState::new(vec![1.0; 4]);
        let table = UrlTable::new();
        let path: UrlPath = "/x.html".parse().unwrap();
        let req = |client| RoutingRequest {
            client,
            path: &path,
            kind: ContentKind::StaticHtml,
        };
        let d1 = r.route(&req(5), &s, &table).unwrap();
        let d2 = r.route(&req(5), &s, &table).unwrap();
        assert_eq!(d1.node, d2.node, "same client always lands on same node");
        assert_eq!(d1.node, NodeId(1));
    }

    #[test]
    fn dns_rr_skips_dead_nodes() {
        let mut r = DnsRoundRobin::new();
        let mut s = ClusterState::new(vec![1.0; 4]);
        s.set_alive(NodeId(1), false);
        let table = UrlTable::new();
        let path: UrlPath = "/x.html".parse().unwrap();
        let req = RoutingRequest {
            client: 5,
            path: &path,
            kind: ContentKind::StaticHtml,
        };
        assert_eq!(r.route(&req, &s, &table).unwrap().node, NodeId(2));
        // all dead -> None
        for i in 0..4 {
            s.set_alive(NodeId(i), false);
        }
        assert!(r.route(&req, &s, &table).is_none());
    }
}
