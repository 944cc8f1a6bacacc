//! Request routing for the simulated cluster — §2 of the paper: the
//! content-aware distributor (§2.2) and the baselines §2.1 compares it
//! against.
//!
//! [`Router`] is one enum. Each variant is one policy and carries the
//! state it keeps between requests. Content-blind (layer-4 / DNS) policies
//! see only the client — they decide *before* the HTTP request is readable
//! (§2.1: "they determine the target server before the client sends out
//! the HTTP request") — while the content-aware ones look the path up in
//! the URL table. The live proxy routes with `cpms_dispatch::LiveRouter`.
//!
//! ```
//! use cpms_model::{ContentId, ContentKind, NodeId, UrlPath};
//! use cpms_sim::routing::{ClusterState, Router, RoutingRequest};
//! use cpms_urltable::{UrlEntry, UrlTable};
//!
//! let mut table = UrlTable::new();
//! let path: UrlPath = "/a.html".parse().unwrap();
//! table.insert(
//!     path.clone(),
//!     UrlEntry::new(ContentId(0), ContentKind::StaticHtml, 100)
//!         .with_locations([NodeId(2)]),
//! ).unwrap();
//!
//! let state = ClusterState::new(vec![1.0; 4]);
//! let req = RoutingRequest { client: 0, path: &path };
//! let decision = Router::ContentAware.route(&req, &state, &table).unwrap();
//! assert_eq!(decision.node, NodeId(2));
//! ```

use cpms_model::{NodeId, SimDuration, UrlPath};
use cpms_urltable::UrlTable;

/// Per-request overhead of the content-aware distributor: TCP handshake
/// bookkeeping, HTTP request parse, URL-table lookup, connection binding.
/// The lookup alone was measured at ~4.32 µs in §5.2; the figure here is
/// the end-to-end per-request budget of the kernel module (\[24\] reports the
/// total forwarding overhead as "insignificant").
pub const CONTENT_AWARE_DECISION_COST: SimDuration = SimDuration::from_micros(35);

/// Per-request dispatcher overhead of a layer-4 router: rewriting one
/// connection's packets at kernel level. Cheaper than layer-7 since no HTTP
/// parse or table lookup happens.
pub const L4_DECISION_COST: SimDuration = SimDuration::from_micros(20);

/// Application-level processing of an HTTP redirect at the dispatcher:
/// user-space accept + parse + 302 serialization, rather than the kernel
/// module's in-stack handling.
pub const REDIRECT_DECISION_COST: SimDuration = SimDuration::from_micros(120);

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
#[derive(Debug, Clone, Copy)]
pub struct RoutingRequest<'a> {
    /// Client identity (source address surrogate).
    pub client: u32,
    /// The requested URL path.
    pub path: &'a UrlPath,
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
}

/// A request-routing policy. Routing is deterministic given the variant's
/// state; [`Router::Random`] carries its own seeded generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Router {
    /// The paper's layer-7 content-aware distributor (§2.2): looks the URL
    /// up and picks, among the nodes hosting the object, the one with the
    /// least normalized load — the natural refinement of the authors' WLC
    /// baseline.
    ContentAware,
    /// Layer-4 Weighted Least Connections: the alive node minimizing
    /// `active_connections / weight` — the TCP connection router of the
    /// authors' previous work \[2\], fronting configurations 1 and 2 of
    /// §5.3 ("we implemented 'Weight Least Connection' mechanism for load
    /// distribution").
    WeightedLeastConnections,
    /// Layer-4 round robin over alive nodes.
    RoundRobin {
        /// The node id the next probe starts at (0 to begin with).
        next: usize,
    },
    /// Layer-4 uniform random over alive nodes.
    Random {
        /// The xorshift64* state: the seed to begin with, then the last
        /// draw (0 acts as 1).
        state: u64,
    },
    /// DNS-style round robin: each *client* is bound to one node (a DNS
    /// answer cached by its resolver), whatever the load or content. §2.1
    /// dismisses this approach as content-blind and staleness-prone.
    DnsRoundRobin,
    /// Content-aware routing delivered by HTTP `302` redirects — the
    /// alternative §2.1 rejects as "quite heavy-weight". It makes
    /// [`Router::ContentAware`]'s choice, but the client receives a
    /// redirect, opens a **new** connection to the chosen node and resends
    /// the request: two extra round trips of client-visible latency, after
    /// which the response flows directly from the node.
    HttpRedirect {
        /// Client↔cluster round-trip time.
        client_rtt: SimDuration,
    },
}

impl Router {
    /// Picks a node for `req`, or `None` if no routable node exists (no
    /// location in the table / all nodes down). Content-blind policies
    /// ignore `table`.
    pub fn route(
        &mut self,
        req: &RoutingRequest<'_>,
        state: &ClusterState,
        table: &UrlTable,
    ) -> Option<RouteDecision> {
        match self {
            Router::ContentAware => {
                let node =
                    choose_replica(table.lookup(req.path)?.locations().iter().copied(), state)?;
                Some(RouteDecision::new(node, CONTENT_AWARE_DECISION_COST))
            }
            Router::WeightedLeastConnections => {
                let node = choose_replica(state.alive_nodes(), state)?;
                Some(RouteDecision::new(node, L4_DECISION_COST))
            }
            Router::RoundRobin { next } => {
                let n = state.node_count();
                let idx = (0..n)
                    .map(|probe| (*next + probe) % n)
                    .find(|&idx| state.is_alive(NodeId(idx as u16)))?;
                *next = (idx + 1) % n;
                Some(RouteDecision::new(NodeId(idx as u16), L4_DECISION_COST))
            }
            Router::Random { state: rng } => {
                let alive: Vec<NodeId> = state.alive_nodes().collect();
                if alive.is_empty() {
                    return None;
                }
                // xorshift64*
                let mut x = (*rng).max(1);
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                *rng = x;
                let pick = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % alive.len() as u64) as usize;
                Some(RouteDecision::new(alive[pick], L4_DECISION_COST))
            }
            Router::DnsRoundRobin => {
                // Hash the client onto the node set; skip dead nodes by
                // probing. Resolution happened out of band: the cluster
                // pays nothing per request, and traffic never touches a
                // dispatcher.
                let n = state.node_count();
                let node = (0..n)
                    .map(|probe| NodeId(((req.client as usize + probe) % n) as u16))
                    .find(|&node| state.is_alive(node))?;
                Some(RouteDecision {
                    direct_response: true,
                    ..RouteDecision::new(node, SimDuration::ZERO)
                })
            }
            Router::HttpRedirect { client_rtt } => {
                let node =
                    choose_replica(table.lookup(req.path)?.locations().iter().copied(), state)?;
                Some(RouteDecision {
                    node,
                    cost: REDIRECT_DECISION_COST,
                    client_latency: client_rtt.mul_f64(2.0),
                    direct_response: true,
                })
            }
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Router::ContentAware => "content-aware",
            Router::WeightedLeastConnections => "l4-wlc",
            Router::RoundRobin { .. } => "l4-rr",
            Router::Random { .. } => "l4-random",
            Router::DnsRoundRobin => "dns-rr",
            Router::HttpRedirect { .. } => "http-redirect",
        }
    }
}

impl std::fmt::Display for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Among `candidates`, the alive node with the least normalized load (the
/// first such node on a tie): the content-aware replica choice over an
/// object's locations, and WLC's over every node.
fn choose_replica(
    candidates: impl Iterator<Item = NodeId>,
    state: &ClusterState,
) -> Option<NodeId> {
    candidates.filter(|n| state.is_alive(*n)).min_by(|a, b| {
        state
            .normalized_load(*a)
            .partial_cmp(&state.normalized_load(*b))
            .expect("loads are finite")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpms_model::{ContentId, ContentKind};
    use cpms_urltable::UrlEntry;

    /// A CGI object on nodes 1 and 2 of four equal nodes.
    fn setup() -> (UrlTable, ClusterState, UrlPath) {
        let mut table = UrlTable::new();
        let path: UrlPath = "/shop/cart.cgi".parse().unwrap();
        table
            .insert(
                path.clone(),
                UrlEntry::new(ContentId(9), ContentKind::Cgi, 512)
                    .with_locations([NodeId(1), NodeId(2)]),
            )
            .unwrap();
        (table, ClusterState::new(vec![1.0; 4]), path)
    }

    fn req(path: &UrlPath) -> RoutingRequest<'_> {
        RoutingRequest { client: 0, path }
    }

    const REDIRECT: Router = Router::HttpRedirect {
        client_rtt: SimDuration::from_millis(1),
    };

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
    fn routes_only_to_hosting_nodes() {
        let (table, state, path) = setup();
        let mut r = Router::ContentAware;
        for _ in 0..10 {
            let d = r.route(&req(&path), &state, &table).unwrap();
            assert!(d.node == NodeId(1) || d.node == NodeId(2));
        }
    }

    #[test]
    fn picks_least_loaded_replica() {
        let (table, mut state, path) = setup();
        state.connection_opened(NodeId(1));
        state.connection_opened(NodeId(1));
        let d = Router::ContentAware
            .route(&req(&path), &state, &table)
            .unwrap();
        assert_eq!(d.node, NodeId(2));
    }

    /// Equal normalized loads go to the first listed live location
    /// (content-aware, redirect) or the lowest alive id (WLC).
    #[test]
    fn equal_loads_go_to_the_first_candidate() {
        let mut table = UrlTable::new();
        let path: UrlPath = "/tie.html".parse().unwrap();
        table
            .insert(
                path.clone(),
                UrlEntry::new(ContentId(1), ContentKind::StaticHtml, 100).with_locations([
                    NodeId(0),
                    NodeId(3),
                    NodeId(1),
                    NodeId(2),
                ]),
            )
            .unwrap();
        // Every node at load 1.0: one connection per unit of weight.
        let mut state = ClusterState::new(vec![1.0, 2.0, 1.0, 2.0]);
        for node in [0, 1, 1, 2, 3, 3] {
            state.connection_opened(NodeId(node));
        }
        state.set_alive(NodeId(0), false);
        for (mut router, want) in [
            (Router::ContentAware, NodeId(3)),
            (REDIRECT, NodeId(3)),
            (Router::WeightedLeastConnections, NodeId(1)),
        ] {
            let d = router.route(&req(&path), &state, &table).unwrap();
            assert_eq!(d.node, want, "{router}");
        }
    }

    #[test]
    fn unknown_path_is_unroutable() {
        let (table, state, _) = setup();
        let mut r = Router::ContentAware;
        let missing: UrlPath = "/nope.html".parse().unwrap();
        assert!(r.route(&req(&missing), &state, &table).is_none());
    }

    #[test]
    fn redirect_unknown_path_is_unroutable() {
        let (table, state, _) = setup();
        let mut r = REDIRECT;
        let missing: UrlPath = "/missing".parse().unwrap();
        assert!(r.route(&req(&missing), &state, &table).is_none());
    }

    #[test]
    fn dead_replicas_skipped() {
        let (table, mut state, path) = setup();
        let mut r = Router::ContentAware;
        state.set_alive(NodeId(1), false);
        assert_eq!(
            r.route(&req(&path), &state, &table).unwrap().node,
            NodeId(2)
        );
        state.set_alive(NodeId(2), false);
        assert!(r.route(&req(&path), &state, &table).is_none());
    }

    #[test]
    fn dead_nodes_not_redirected_to() {
        let (table, mut state, path) = setup();
        state.set_alive(NodeId(1), false);
        state.set_alive(NodeId(2), false);
        let mut r = REDIRECT;
        assert!(r.route(&req(&path), &state, &table).is_none());
    }

    #[test]
    fn sees_replication_changes() {
        let (mut table, mut state, path) = setup();
        let mut r = Router::ContentAware;
        r.route(&req(&path), &state, &table).unwrap();
        // auto-replication adds node 3 and the others get busy
        table.add_location(&path, NodeId(3)).unwrap();
        state.connection_opened(NodeId(1));
        state.connection_opened(NodeId(2));
        let d = r.route(&req(&path), &state, &table).unwrap();
        assert_eq!(d.node, NodeId(3), "the next lookup sees the new copy");
    }

    #[test]
    fn charges_the_constant_decision_cost() {
        let (table, state, path) = setup();
        let d = Router::ContentAware
            .route(&req(&path), &state, &table)
            .unwrap();
        assert_eq!(d.cost, CONTENT_AWARE_DECISION_COST);
    }

    #[test]
    fn charges_two_round_trips_to_the_client() {
        let (table, state, path) = setup();
        let mut r = Router::HttpRedirect {
            client_rtt: SimDuration::from_millis(40),
        };
        let d = r.route(&req(&path), &state, &table).unwrap();
        assert_eq!(d.node, NodeId(1));
        assert_eq!(d.client_latency, SimDuration::from_millis(80));
        assert!(d.direct_response, "response bypasses the dispatcher");
        assert_eq!(d.cost, REDIRECT_DECISION_COST);
    }

    #[test]
    fn round_robin_cycles() {
        let mut r = Router::RoundRobin { next: 0 };
        let s = ClusterState::new(vec![1.0; 3]);
        let t = UrlTable::new();
        let p: UrlPath = "/x".parse().unwrap();
        let picks: Vec<u16> = (0..6)
            .map(|_| r.route(&req(&p), &s, &t).unwrap().node.0)
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_dead() {
        let mut r = Router::RoundRobin { next: 0 };
        let mut s = ClusterState::new(vec![1.0; 3]);
        s.set_alive(NodeId(1), false);
        let t = UrlTable::new();
        let p: UrlPath = "/x".parse().unwrap();
        let picks: Vec<u16> = (0..4)
            .map(|_| r.route(&req(&p), &s, &t).unwrap().node.0)
            .collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn wlc_prefers_lightest_normalized() {
        let mut r = Router::WeightedLeastConnections;
        let mut s = ClusterState::new(vec![1.0, 2.0]);
        let t = UrlTable::new();
        let p: UrlPath = "/x".parse().unwrap();
        // node1 has 1 connection but weight 2 => load 0.5; node0 load 0.
        s.connection_opened(NodeId(1));
        assert_eq!(r.route(&req(&p), &s, &t).unwrap().node, NodeId(0));
        // now node0 has 2 connections (load 2.0) vs node1 load 0.5
        s.connection_opened(NodeId(0));
        s.connection_opened(NodeId(0));
        assert_eq!(r.route(&req(&p), &s, &t).unwrap().node, NodeId(1));
    }

    #[test]
    fn wlc_respects_weights_in_steady_state() {
        // Simulate: open connections via WLC without closing; distribution
        // should approach the weight ratio.
        let mut r = Router::WeightedLeastConnections;
        let mut s = ClusterState::new(vec![1.0, 3.0]);
        let t = UrlTable::new();
        let p: UrlPath = "/x".parse().unwrap();
        let mut counts = [0u32; 2];
        for _ in 0..400 {
            let d = r.route(&req(&p), &s, &t).unwrap();
            s.connection_opened(d.node);
            counts[d.node.index()] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn random_router_covers_all_alive() {
        let mut r = Router::Random { state: 7 };
        let mut s = ClusterState::new(vec![1.0; 4]);
        s.set_alive(NodeId(3), false);
        let t = UrlTable::new();
        let p: UrlPath = "/x".parse().unwrap();
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.route(&req(&p), &s, &t).unwrap().node.index()] = true;
        }
        assert_eq!(seen, [true, true, true, false]);
    }

    #[test]
    fn all_dead_returns_none() {
        let mut s = ClusterState::new(vec![1.0; 2]);
        s.set_alive(NodeId(0), false);
        s.set_alive(NodeId(1), false);
        let t = UrlTable::new();
        let p: UrlPath = "/x".parse().unwrap();
        for mut r in [
            Router::RoundRobin { next: 0 },
            Router::WeightedLeastConnections,
            Router::Random { state: 1 },
        ] {
            assert!(r.route(&req(&p), &s, &t).is_none(), "{r}");
        }
    }

    #[test]
    fn dns_rr_is_client_sticky() {
        let mut r = Router::DnsRoundRobin;
        let s = ClusterState::new(vec![1.0; 4]);
        let table = UrlTable::new();
        let path: UrlPath = "/x.html".parse().unwrap();
        let req = |client| RoutingRequest {
            client,
            path: &path,
        };
        let d1 = r.route(&req(5), &s, &table).unwrap();
        let d2 = r.route(&req(5), &s, &table).unwrap();
        assert_eq!(d1.node, d2.node, "same client always lands on same node");
        assert_eq!(d1.node, NodeId(1));
    }

    #[test]
    fn dns_rr_skips_dead_nodes() {
        let mut r = Router::DnsRoundRobin;
        let mut s = ClusterState::new(vec![1.0; 4]);
        s.set_alive(NodeId(1), false);
        let table = UrlTable::new();
        let path: UrlPath = "/x.html".parse().unwrap();
        let req = RoutingRequest {
            client: 5,
            path: &path,
        };
        assert_eq!(r.route(&req, &s, &table).unwrap().node, NodeId(2));
        // all dead -> None
        for i in 0..4 {
            s.set_alive(NodeId(i), false);
        }
        assert!(r.route(&req, &s, &table).is_none());
    }
}
