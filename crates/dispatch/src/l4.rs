//! Layer-4 (content-blind) routing policies.
//!
//! These model the TCP connection router of the authors' previous work \[2\],
//! which fronts configurations 1 and 2 in the §5.3 experiments. The paper:
//! "In the TCP connection router, we implemented 'Weight Least Connection'
//! mechanism for load distribution."

use crate::router::{ClusterState, RouteDecision, Router, RoutingRequest};
use cpms_model::{NodeId, SimDuration};
use cpms_urltable::UrlTable;

/// Per-request dispatcher overhead of a layer-4 router: rewriting one
/// connection's packets at kernel level. Cheaper than layer-7 since no HTTP
/// parse or table lookup happens.
pub const L4_DECISION_COST: SimDuration = SimDuration::from_micros(20);

/// Plain round robin over alive nodes.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Creates the policy.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl Router for RoundRobin {
    fn name(&self) -> &'static str {
        "l4-round-robin"
    }

    fn route(
        &mut self,
        _req: &RoutingRequest<'_>,
        state: &ClusterState,
        _table: &UrlTable,
    ) -> Option<RouteDecision> {
        let n = state.node_count();
        for probe in 0..n {
            let idx = (self.next + probe) % n;
            let node = NodeId(idx as u16);
            if state.is_alive(node) {
                self.next = (idx + 1) % n;
                return Some(RouteDecision::new(node, L4_DECISION_COST));
            }
        }
        None
    }
}

/// Weighted Least Connections: pick the alive node minimizing
/// `active_connections / weight` — the policy the paper's baseline TCP
/// connection router uses.
#[derive(Debug, Clone, Default)]
pub struct WeightedLeastConnections {
    _priv: (),
}

impl WeightedLeastConnections {
    /// Creates the policy.
    pub fn new() -> Self {
        WeightedLeastConnections::default()
    }
}

impl Router for WeightedLeastConnections {
    fn name(&self) -> &'static str {
        "l4-weighted-least-connections"
    }

    fn route(
        &mut self,
        _req: &RoutingRequest<'_>,
        state: &ClusterState,
        _table: &UrlTable,
    ) -> Option<RouteDecision> {
        state
            .alive_nodes()
            .min_by(|a, b| {
                state
                    .normalized_load(*a)
                    .partial_cmp(&state.normalized_load(*b))
                    .expect("loads are finite")
            })
            .map(|node| RouteDecision::new(node, L4_DECISION_COST))
    }
}

/// Uniform random over alive nodes, from a seeded LCG (kept dependency-free
/// so the policy is `Clone + Send` without RNG plumbing).
#[derive(Debug, Clone)]
pub struct RandomRouter {
    state: u64,
}

impl RandomRouter {
    /// Creates the policy with the given seed.
    pub fn new(seed: u64) -> Self {
        RandomRouter {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1),
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl Router for RandomRouter {
    fn name(&self) -> &'static str {
        "l4-random"
    }

    fn route(
        &mut self,
        _req: &RoutingRequest<'_>,
        state: &ClusterState,
        _table: &UrlTable,
    ) -> Option<RouteDecision> {
        let alive: Vec<NodeId> = state.alive_nodes().collect();
        if alive.is_empty() {
            return None;
        }
        let pick = (self.next_u64() % alive.len() as u64) as usize;
        Some(RouteDecision::new(alive[pick], L4_DECISION_COST))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpms_model::{ContentKind, UrlPath};

    fn req(path: &UrlPath) -> RoutingRequest<'_> {
        RoutingRequest {
            client: 0,
            path,
            kind: ContentKind::StaticHtml,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut r = RoundRobin::new();
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
        let mut r = RoundRobin::new();
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
        let mut r = WeightedLeastConnections::new();
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
        let mut r = WeightedLeastConnections::new();
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
        let mut r = RandomRouter::new(7);
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
        assert!(RoundRobin::new().route(&req(&p), &s, &t).is_none());
        assert!(WeightedLeastConnections::new()
            .route(&req(&p), &s, &t)
            .is_none());
        assert!(RandomRouter::new(1).route(&req(&p), &s, &t).is_none());
    }
}
