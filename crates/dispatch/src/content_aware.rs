//! The content-aware distributor's routing policy (§2.2).
//!
//! On each request the distributor parses the URL, consults the URL table
//! (through the recently-accessed-entry cache), and picks the best node
//! *among those hosting the object* — we use least normalized load, the
//! natural refinement of the authors' WLC baseline. The measured per-lookup
//! cost (§5.2: ~4.32 µs average at peak on a 350 MHz machine) plus HTTP
//! parse and connection-binding overhead is charged as the decision cost.

use crate::router::{ClusterState, RouteDecision, Router, RoutingRequest};
use cpms_model::SimDuration;
use cpms_urltable::{LookupCache, UrlTable};

/// Per-request overhead of the content-aware distributor: TCP handshake
/// bookkeeping, HTTP request parse, URL-table lookup, connection binding.
/// The lookup alone was measured at ~4.32 µs in §5.2; the figure here is
/// the end-to-end per-request budget of the kernel module (\[24\] reports the
/// total forwarding overhead as "insignificant").
pub const CONTENT_AWARE_DECISION_COST: SimDuration = SimDuration::from_micros(35);

/// The content-aware routing policy.
#[derive(Debug)]
pub struct ContentAwareRouter {
    cache: LookupCache,
    lookups: u64,
    misses: u64,
}

impl ContentAwareRouter {
    /// Creates the router with a lookup cache of `cache_entries` recent
    /// records (0 disables caching — the §5.2 ablation).
    pub fn new(cache_entries: u64) -> Self {
        ContentAwareRouter {
            cache: LookupCache::new(cache_entries),
            lookups: 0,
            misses: 0,
        }
    }

    /// Total routing lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups that found no record (unroutable requests).
    pub fn unroutable(&self) -> u64 {
        self.misses
    }

    /// Hit rate of the recently-accessed-entry cache.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }
}

impl Router for ContentAwareRouter {
    fn name(&self) -> &'static str {
        "content-aware"
    }

    fn route(
        &mut self,
        req: &RoutingRequest<'_>,
        state: &ClusterState,
        table: &UrlTable,
    ) -> Option<RouteDecision> {
        self.lookups += 1;
        let entry = match self.cache.lookup(table, req.path) {
            Some(e) => e,
            None => {
                self.misses += 1;
                return None;
            }
        };
        let node = entry
            .locations()
            .iter()
            .copied()
            .filter(|n| state.is_alive(*n))
            .min_by(|a, b| {
                state
                    .normalized_load(*a)
                    .partial_cmp(&state.normalized_load(*b))
                    .expect("loads are finite")
            })?;
        Some(RouteDecision::new(node, CONTENT_AWARE_DECISION_COST))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpms_model::{ContentId, ContentKind, NodeId, UrlPath};
    use cpms_urltable::UrlEntry;

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
        RoutingRequest {
            client: 0,
            path,
            kind: ContentKind::Cgi,
        }
    }

    #[test]
    fn routes_only_to_hosting_nodes() {
        let (table, state, path) = setup();
        let mut r = ContentAwareRouter::new(16);
        for _ in 0..10 {
            let d = r.route(&req(&path), &state, &table).unwrap();
            assert!(d.node == NodeId(1) || d.node == NodeId(2));
        }
    }

    #[test]
    fn picks_least_loaded_replica() {
        let (table, mut state, path) = setup();
        let mut r = ContentAwareRouter::new(16);
        state.connection_opened(NodeId(1));
        state.connection_opened(NodeId(1));
        let d = r.route(&req(&path), &state, &table).unwrap();
        assert_eq!(d.node, NodeId(2));
    }

    #[test]
    fn unknown_path_is_unroutable() {
        let (table, state, _) = setup();
        let mut r = ContentAwareRouter::new(16);
        let missing: UrlPath = "/nope.html".parse().unwrap();
        assert!(r.route(&req(&missing), &state, &table).is_none());
        assert_eq!(r.unroutable(), 1);
        assert_eq!(r.lookups(), 1);
    }

    #[test]
    fn dead_replicas_skipped() {
        let (table, mut state, path) = setup();
        let mut r = ContentAwareRouter::new(16);
        state.set_alive(NodeId(1), false);
        assert_eq!(
            r.route(&req(&path), &state, &table).unwrap().node,
            NodeId(2)
        );
        state.set_alive(NodeId(2), false);
        assert!(r.route(&req(&path), &state, &table).is_none());
    }

    #[test]
    fn sees_replication_changes() {
        let (mut table, mut state, path) = setup();
        let mut r = ContentAwareRouter::new(16);
        // warm the cache
        r.route(&req(&path), &state, &table).unwrap();
        // auto-replication adds node 3 and the others get busy
        table.add_location(&path, NodeId(3)).unwrap();
        state.connection_opened(NodeId(1));
        state.connection_opened(NodeId(2));
        let d = r.route(&req(&path), &state, &table).unwrap();
        assert_eq!(
            d.node,
            NodeId(3),
            "cache must observe table generation bump"
        );
    }

    #[test]
    fn cache_hit_rate_accumulates() {
        let (table, state, path) = setup();
        let mut r = ContentAwareRouter::new(16);
        for _ in 0..10 {
            r.route(&req(&path), &state, &table).unwrap();
        }
        assert!(r.cache_hit_rate() > 0.8);
    }

    #[test]
    fn charges_the_constant_decision_cost() {
        let (table, state, path) = setup();
        let mut r = ContentAwareRouter::new(16);
        let d = r.route(&req(&path), &state, &table).unwrap();
        assert_eq!(d.cost, CONTENT_AWARE_DECISION_COST);
    }
}
