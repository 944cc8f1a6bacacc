//! The content-aware routing policy against a *published snapshot* of the
//! URL table — what each worker thread of the live distributor runs.
//!
//! The simulator's `cpms_sim::routing::Router::ContentAware` runs in one
//! single-threaded event loop that owns the table and mutates it in
//! place. The live proxy (`cpms-httpd`) is multi-worker: the controller
//! publishes immutable table snapshots through a
//! [`TablePublisher`](cpms_urltable::TablePublisher) and every worker
//! consumes them through its own [`LiveRouter`], which pins a snapshot
//! and keeps a private [`LookupCache`](cpms_urltable::LookupCache) — no
//! shared mutable state on the per-request path.

use cpms_model::{NodeId, UrlPath};
use cpms_obs::{Counter, HistogramRecorder, MetricsRegistry};
use cpms_urltable::entry::UrlEntry;
use cpms_urltable::{SnapshotHandle, SnapshotReader};
use std::sync::Arc;
use std::time::Instant;

/// Metric handles a [`LiveRouter`] records through once attached —
/// resolved from the registry one time, then every route is atomics only
/// (the histogram shard is private to this router's worker).
#[derive(Debug)]
struct RouterMetrics {
    registry: Arc<MetricsRegistry>,
    route_ns: HistogramRecorder,
    lookup_ns: HistogramRecorder,
    requests: Arc<Counter>,
    unroutable: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    repins: Arc<Counter>,
    /// Per-backend selection counters, resolved lazily per node index.
    selections: Vec<Option<Arc<Counter>>>,
    /// Reader totals already folded into the shared counters, so each
    /// sync adds only the delta (counters stay aggregatable across
    /// workers).
    synced_hits: u64,
    synced_misses: u64,
    synced_repins: u64,
}

impl RouterMetrics {
    fn new(registry: &Arc<MetricsRegistry>, shard: usize) -> Self {
        RouterMetrics {
            route_ns: registry.histogram("dispatch_route_ns").recorder(shard),
            lookup_ns: registry.histogram("urltable_lookup_ns").recorder(shard),
            requests: registry.counter("dispatch_requests_total"),
            unroutable: registry.counter("dispatch_unroutable_total"),
            cache_hits: registry.counter("urltable_cache_hits_total"),
            cache_misses: registry.counter("urltable_cache_misses_total"),
            repins: registry.counter("urltable_repins_total"),
            selections: Vec::new(),
            synced_hits: 0,
            synced_misses: 0,
            synced_repins: 0,
            registry: Arc::clone(registry),
        }
    }

    fn selection(&mut self, node: NodeId) -> &Counter {
        let idx = node.index();
        if idx >= self.selections.len() {
            self.selections.resize(idx + 1, None);
        }
        self.selections[idx].get_or_insert_with(|| {
            self.registry
                .counter(&format!("dispatch_node{}_selections_total", node.0))
        })
    }

    fn sync_reader(&mut self, reader: &SnapshotReader) {
        let (hits, misses, repins) = (reader.cache_hits(), reader.cache_misses(), reader.repins());
        self.cache_hits.add(hits - self.synced_hits);
        self.cache_misses.add(misses - self.synced_misses);
        self.repins.add(repins - self.synced_repins);
        self.synced_hits = hits;
        self.synced_misses = misses;
        self.synced_repins = repins;
    }
}

/// A per-worker content-aware router over published table snapshots.
///
/// Each request costs one atomic generation load (staleness check), a
/// private-cache lookup, and a replica choice by the caller-supplied load
/// metric — the live twin of the simulator router's least-normalized-load
/// rule, with "load" supplied by the worker (e.g. in-flight request
/// counts).
#[derive(Debug)]
pub struct LiveRouter {
    reader: SnapshotReader,
    lookups: u64,
    misses: u64,
    metrics: Option<RouterMetrics>,
}

impl LiveRouter {
    /// Creates a worker router over `handle` with a private cache of
    /// `cache_entries` recent records.
    pub fn new(handle: &SnapshotHandle, cache_entries: u64) -> Self {
        LiveRouter {
            reader: handle.reader(cache_entries),
            lookups: 0,
            misses: 0,
            metrics: None,
        }
    }

    /// Attaches this router to a metrics registry: every subsequent
    /// route records the URL-table lookup latency (`urltable_lookup_ns`,
    /// the §5.2 measurement), the full routing-decision latency
    /// (`dispatch_route_ns`), per-backend selection counts, and the
    /// reader's cache-hit / re-pin counters. `shard` should be the
    /// worker index so histogram recording stays contention-free.
    pub fn attach_metrics(&mut self, registry: &Arc<MetricsRegistry>, shard: usize) {
        self.metrics = Some(RouterMetrics::new(registry, shard));
    }

    /// Routes `path`: looks the record up in the freshest published
    /// snapshot and picks the hosting node minimising `load_of`. Returns
    /// the node and the record (the caller still needs sizes/kind for
    /// relaying and accounting).
    ///
    /// `None` means unroutable — no record, or a record with no location
    /// the caller can serve from (`load_of` may return `u64::MAX` to veto
    /// a node, e.g. one whose backend address is unknown).
    pub fn route(
        &mut self,
        path: &UrlPath,
        load_of: impl Fn(NodeId) -> u64,
    ) -> Option<(NodeId, Arc<UrlEntry>)> {
        if self.metrics.is_some() {
            return self.route_instrumented(path, load_of);
        }
        self.lookups += 1;
        let Some(entry) = self.reader.lookup(path) else {
            self.misses += 1;
            return None;
        };
        Self::pick_replica(&entry, load_of).map(|node| (node, entry))
    }

    /// The instrumented twin of the plain path: identical decisions plus
    /// two span timings and a handful of relaxed atomic updates.
    fn route_instrumented(
        &mut self,
        path: &UrlPath,
        load_of: impl Fn(NodeId) -> u64,
    ) -> Option<(NodeId, Arc<UrlEntry>)> {
        self.lookups += 1;
        let start = Instant::now();
        let entry = self.reader.lookup(path);
        let lookup_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let metrics = self.metrics.as_mut().expect("checked by caller");
        metrics.lookup_ns.record(lookup_ns);
        metrics.requests.inc();
        metrics.sync_reader(&self.reader);
        let Some(entry) = entry else {
            self.misses += 1;
            metrics.unroutable.inc();
            return None;
        };
        let chosen = Self::pick_replica(&entry, load_of);
        metrics
            .route_ns
            .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        match chosen {
            Some(node) => {
                metrics.selection(node).inc();
                Some((node, entry))
            }
            None => {
                metrics.unroutable.inc();
                None
            }
        }
    }

    fn pick_replica(entry: &UrlEntry, load_of: impl Fn(NodeId) -> u64) -> Option<NodeId> {
        entry
            .locations()
            .iter()
            .copied()
            .map(|n| (load_of(n), n))
            .filter(|&(load, _)| load != u64::MAX)
            .min_by_key(|&(load, n)| (load, n.0))
            .map(|(_, node)| node)
    }

    /// Total routing lookups performed by this worker.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups that found no routable record.
    pub fn unroutable(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpms_model::{ContentId, ContentKind};
    use cpms_urltable::{TablePublisher, UrlTable};

    fn p(s: &str) -> UrlPath {
        s.parse().unwrap()
    }

    fn publisher() -> TablePublisher {
        let mut table = UrlTable::new();
        table
            .insert(
                p("/a"),
                UrlEntry::new(ContentId(1), ContentKind::StaticHtml, 64)
                    .with_locations([NodeId(0), NodeId(1)]),
            )
            .unwrap();
        TablePublisher::new(table)
    }

    #[test]
    fn routes_to_least_loaded_replica() {
        let publisher = publisher();
        let mut router = LiveRouter::new(&publisher.handle(), 16);
        let loads = [5u64, 2u64];
        let (node, entry) = router.route(&p("/a"), |n| loads[n.index()]).unwrap();
        assert_eq!(node, NodeId(1));
        assert_eq!(entry.content(), ContentId(1));
    }

    #[test]
    fn vetoed_nodes_are_skipped() {
        let publisher = publisher();
        let mut router = LiveRouter::new(&publisher.handle(), 16);
        let (node, _) = router
            .route(&p("/a"), |n| if n == NodeId(0) { u64::MAX } else { 9 })
            .unwrap();
        assert_eq!(node, NodeId(1));
        assert!(
            router.route(&p("/a"), |_| u64::MAX).is_none(),
            "all replicas vetoed"
        );
    }

    #[test]
    fn observes_publications_through_private_cache() {
        let publisher = publisher();
        let mut router = LiveRouter::new(&publisher.handle(), 16);
        router.route(&p("/a"), |_| 0).unwrap(); // warm the cache
        publisher.update(|t| {
            t.add_location(&p("/a"), NodeId(2)).unwrap();
            t.remove_location(&p("/a"), NodeId(0)).unwrap();
            t.remove_location(&p("/a"), NodeId(1)).unwrap();
        });
        let (node, _) = router.route(&p("/a"), |_| 0).unwrap();
        assert_eq!(node, NodeId(2), "stale cached locations must not win");
    }

    #[test]
    fn attached_metrics_record_latencies_and_selections() {
        let publisher = publisher();
        let registry = Arc::new(MetricsRegistry::new());
        let mut router = LiveRouter::new(&publisher.handle(), 16);
        router.attach_metrics(&registry, 0);

        for _ in 0..10 {
            router.route(&p("/a"), |n| n.0 as u64).unwrap(); // node 0 wins
        }
        assert!(router.route(&p("/missing"), |_| 0).is_none());
        publisher.update(|t| t.add_location(&p("/a"), NodeId(2)).unwrap());
        router.route(&p("/a"), |n| n.0 as u64).unwrap(); // forces a re-pin

        let snap = registry.snapshot();
        assert_eq!(snap.counter("dispatch_requests_total"), Some(12));
        assert_eq!(snap.counter("dispatch_unroutable_total"), Some(1));
        assert_eq!(snap.counter("dispatch_node0_selections_total"), Some(11));
        assert_eq!(snap.counter("urltable_repins_total"), Some(1));
        let hits = snap.counter("urltable_cache_hits_total").unwrap();
        let misses = snap.counter("urltable_cache_misses_total").unwrap();
        assert_eq!(hits + misses, 12, "every lookup is a hit or a miss");
        let lookup = snap.histogram("urltable_lookup_ns").unwrap();
        assert_eq!(lookup.count, 12);
        let route = snap.histogram("dispatch_route_ns").unwrap();
        assert_eq!(route.count, 11, "unroutable lookups end before routing");
        assert!(route.max >= lookup.p50 || route.max > 0);
    }

    #[test]
    fn counts_unroutable() {
        let publisher = publisher();
        let mut router = LiveRouter::new(&publisher.handle(), 16);
        assert!(router.route(&p("/missing"), |_| 0).is_none());
        assert_eq!(router.unroutable(), 1);
        assert_eq!(router.lookups(), 1);
    }
}
