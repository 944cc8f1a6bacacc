//! The HTTP-redirection alternative the paper rejects (§2.1).
//!
//! > "HTTP redirection might be used for content-aware routing. However,
//! > we do not prefer HTTP redirection because this mechanism is quite
//! > heavy-weight. Not only does it necessitate the use of one additional
//! > connection, which introduces an extra round-trip latency, but also
//! > the routing decision is performed at the application level…"
//!
//! [`HttpRedirectRouter`] makes the same content-aware decision as
//! [`crate::ContentAwareRouter`] but delivers it as a `302` instead of a
//! splice: the client receives the redirect, opens a **new** TCP
//! connection to the chosen node, and resends the request. The extra cost
//! is client-visible latency (two extra round trips: the redirect
//! response, then the fresh handshake) rather than dispatcher work — and
//! the response then flows directly from the node, bypassing the
//! dispatcher. This is exactly the trade the paper analyzes, packaged as
//! an ablation.

use crate::router::{ClusterState, RouteDecision, Router, RoutingRequest};
use cpms_model::SimDuration;
use cpms_urltable::{LookupCache, UrlTable};

/// Application-level processing of the redirect at the dispatcher:
/// user-space accept + parse + 302 serialization, rather than the kernel
/// module's in-stack handling.
pub const REDIRECT_DECISION_COST: SimDuration = SimDuration::from_micros(120);

/// Content-aware routing delivered by HTTP `302` redirects.
#[derive(Debug)]
pub struct HttpRedirectRouter {
    cache: LookupCache,
    client_rtt: SimDuration,
    lookups: u64,
    misses: u64,
}

impl HttpRedirectRouter {
    /// Creates the router. `client_rtt` is the client↔cluster round-trip
    /// time; redirection charges two extra round trips per request (the
    /// 302 itself, then the new connection's handshake).
    pub fn new(cache_entries: u64, client_rtt: SimDuration) -> Self {
        HttpRedirectRouter {
            cache: LookupCache::new(cache_entries),
            client_rtt,
            lookups: 0,
            misses: 0,
        }
    }

    /// Total routing lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups that found no record.
    pub fn unroutable(&self) -> u64 {
        self.misses
    }

    /// The extra client-visible latency each redirected request pays.
    pub fn redirect_latency(&self) -> SimDuration {
        self.client_rtt.mul_f64(2.0)
    }
}

impl Router for HttpRedirectRouter {
    fn name(&self) -> &'static str {
        "http-redirect"
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
        Some(
            RouteDecision::new(node, REDIRECT_DECISION_COST)
                .with_client_latency(self.redirect_latency())
                .with_direct_response(true),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpms_model::{ContentId, ContentKind, NodeId, UrlPath};
    use cpms_urltable::UrlEntry;

    fn setup() -> (UrlTable, ClusterState, UrlPath) {
        let mut table = UrlTable::new();
        let path: UrlPath = "/a.html".parse().unwrap();
        table
            .insert(
                path.clone(),
                UrlEntry::new(ContentId(0), ContentKind::StaticHtml, 100)
                    .with_locations([NodeId(1)]),
            )
            .unwrap();
        (table, ClusterState::new(vec![1.0; 3]), path)
    }

    #[test]
    fn charges_two_round_trips_to_the_client() {
        let (table, state, path) = setup();
        let mut r = HttpRedirectRouter::new(64, SimDuration::from_millis(40));
        let req = RoutingRequest {
            client: 0,
            path: &path,
            kind: ContentKind::StaticHtml,
        };
        let d = r.route(&req, &state, &table).unwrap();
        assert_eq!(d.node, NodeId(1));
        assert_eq!(d.client_latency, SimDuration::from_millis(80));
        assert!(d.direct_response, "response bypasses the dispatcher");
        assert_eq!(d.cost, REDIRECT_DECISION_COST);
    }

    #[test]
    fn counts_misses() {
        let (table, state, _) = setup();
        let mut r = HttpRedirectRouter::new(64, SimDuration::from_millis(1));
        let missing: UrlPath = "/missing".parse().unwrap();
        let req = RoutingRequest {
            client: 0,
            path: &missing,
            kind: ContentKind::StaticHtml,
        };
        assert!(r.route(&req, &state, &table).is_none());
        assert_eq!(r.unroutable(), 1);
        assert_eq!(r.lookups(), 1);
    }

    #[test]
    fn dead_nodes_not_redirected_to() {
        let (table, mut state, path) = setup();
        let mut r = HttpRedirectRouter::new(64, SimDuration::from_millis(1));
        state.set_alive(NodeId(1), false);
        let req = RoutingRequest {
            client: 0,
            path: &path,
            kind: ContentKind::StaticHtml,
        };
        assert!(r.route(&req, &state, &table).is_none());
    }
}
