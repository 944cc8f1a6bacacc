//! Content placement: building URL tables that realize the paper's
//! placement schemes over a corpus and a cluster.
//!
//! - [`replicate_everywhere`] — configuration 1 (§5.3): full replication.
//! - [`shared_nfs`] — configuration 2: everything on the NFS server; any
//!   web node can serve any object (by fetching it remotely).
//! - [`partition_by_type`] — configuration 3: the paper's content-aware
//!   partitioning ("We placed dynamic content (CGI scripts and ASP) on the
//!   servers with powerful CPU, plain html content on the nodes with slow
//!   processor and disk. We also separated large file (e.g., video file)
//!   on the server nodes with fast disk.")
//! - [`replicate_hot_content`] — partial replication: extra copies of the
//!   hottest objects, the state auto-replication converges to.
//!
//! [`PlacementPolicy`] is the experiment runner's menu of these schemes,
//! one entry per §5.3 configuration.

use cpms_model::{ContentKind, NodeId, NodeSpec, RequestClass};
use cpms_urltable::{TableError, UrlEntry, UrlTable};
use cpms_workload::Corpus;

/// Builds the full-replication table: every object on every node.
///
/// Every node gets every object — the paper's configuration 1. Note that a
/// content-blind router over this placement still sends ASP requests to
/// non-IIS nodes in a mixed cluster; use
/// [`replicate_everywhere_capable`] to model full replication that
/// respects software capabilities (ASP installed only on IIS nodes).
pub fn replicate_everywhere(corpus: &Corpus, node_count: usize) -> UrlTable {
    let all: Vec<NodeId> = (0..node_count).map(|i| NodeId(i as u16)).collect();
    build_table(corpus, |_, _| all.clone())
}

/// Full replication constrained by node capability: each object is
/// replicated on every node that *can serve it* — ASP pages exist only on
/// the IIS nodes, everything else everywhere.
///
/// This is the honest configuration-1 baseline for a heterogeneous
/// NT+Linux cluster (§5.1): ASP physically cannot run under Apache, and a
/// content-blind layer-4 router has no way to know that, so ASP requests
/// it sends to Linux nodes fail — "the content placement scheme
/// (full-replication) does not take the heterogeneity on the capability of
/// each node into consideration" (§5.3).
pub fn replicate_everywhere_capable(corpus: &Corpus, specs: &[NodeSpec]) -> UrlTable {
    build_table(corpus, |_, item| {
        (0..specs.len())
            .map(|i| NodeId(i as u16))
            .filter(|n| specs[n.index()].can_serve_kind(item.kind()))
            .collect()
    })
}

/// Builds the shared-NFS table: every node is listed as a location (any
/// node can serve any object by fetching it from the NFS server); the
/// simulation's NFS mode charges the remote fetch.
pub fn shared_nfs(corpus: &Corpus, node_count: usize) -> UrlTable {
    replicate_everywhere(corpus, node_count)
}

/// How [`partition_by_type`] treats static content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticSpread {
    /// Static content spread over **all** nodes by capacity (the Workload A
    /// experiment, where there is nothing else to segregate).
    AllNodes,
    /// Static content concentrated on nodes **not** hosting dynamic
    /// content (the Workload B experiment: segregation keeps short static
    /// requests from queueing behind long CGI/ASP runs). Dynamic hosts
    /// still take a small, heavily discounted share so their caches and
    /// NICs are not wasted — "plain html content on the nodes with slow
    /// processor and disk".
    SegregateDynamic,
}

/// Builds the content-partitioned table (configuration 3).
///
/// Assignment rules, from the paper's §5.3 description:
///
/// - CGI → the highest-clocked non-IIS nodes (top quartile by MHz, at
///   least one),
/// - ASP → the IIS nodes (falling back to the fastest nodes if the cluster
///   has none),
/// - video → the nodes with the largest disks (ties broken by disk speed),
/// - other static → per `spread`, balanced by node capacity weight.
///
/// Within each group, objects go to the group node with the least
/// accumulated `bytes / weight` — a static analogue of weighted least
/// connections.
pub fn partition_by_type(corpus: &Corpus, specs: &[NodeSpec], spread: StaticSpread) -> UrlTable {
    assert!(!specs.is_empty(), "cluster must have at least one node");
    let ids: Vec<NodeId> = (0..specs.len()).map(|i| NodeId(i as u16)).collect();

    // --- group selection
    let iis: Vec<NodeId> = ids
        .iter()
        .copied()
        .filter(|n| specs[n.index()].can_serve_kind(ContentKind::Asp))
        .collect();

    let mut by_cpu: Vec<NodeId> = ids.iter().copied().filter(|n| !iis.contains(n)).collect();
    by_cpu.sort_by(|a, b| specs[b.index()].cpu_mhz().cmp(&specs[a.index()].cpu_mhz()));
    let cgi_count = (by_cpu.len().div_ceil(2)).max(1).min(by_cpu.len().max(1));
    let cgi_hosts: Vec<NodeId> = if by_cpu.is_empty() {
        // Degenerate cluster of only IIS nodes: CGI runs there too.
        iis.clone()
    } else {
        by_cpu[..cgi_count].to_vec()
    };
    let asp_hosts: Vec<NodeId> = if iis.is_empty() {
        cgi_hosts.clone()
    } else {
        iis.clone()
    };

    let max_disk = specs
        .iter()
        .map(NodeSpec::disk_bytes)
        .max()
        .expect("nonempty");
    let video_hosts: Vec<NodeId> = ids
        .iter()
        .copied()
        .filter(|n| specs[n.index()].disk_bytes() == max_disk)
        .collect();

    let dynamic_hosts: Vec<NodeId> = {
        let mut v = cgi_hosts.clone();
        v.extend(asp_hosts.iter().copied());
        v.sort_unstable();
        v.dedup();
        v
    };
    // Static content uses the whole cluster in both modes; segregation is
    // expressed through the per-node weights below (dynamic hosts get a
    // strong discount so almost all static lands elsewhere).
    let static_hosts: Vec<NodeId> = ids.clone();

    // --- popularity-aware striping within groups
    //
    // Objects are assigned hottest-first (the corpus's per-class popularity
    // order), each to the group node with the least accumulated expected
    // request load per unit of capacity weight. This spreads the hot head
    // of the Zipf distribution across the group instead of letting one node
    // accumulate several hot objects — the administrator's "rough"
    // partition plus the first round of §3.3 rebalancing. Video balances by
    // bytes instead: its requests are rare but its transfers are huge.
    const POPULARITY_ALPHA: f64 = 0.8;
    // Video hosts spend much of their NIC and disk on multimedia
    // transfers, so they receive a reduced share of static content
    // ("plain html content on the nodes with slow processor and disk").
    const VIDEO_HOST_DISCOUNT: f64 = 0.7;
    // Under segregation, dynamic hosts take almost no static content so
    // short static requests don't queue behind CGI/ASP execution.
    const DYNAMIC_HOST_DISCOUNT: f64 = 0.5;
    let mut popularity_load = vec![0.0f64; specs.len()];
    let mut assigned_bytes = vec![0u64; specs.len()];
    let static_weight = |n: NodeId| {
        let mut w = specs[n.index()].weight();
        if video_hosts.contains(&n) {
            w *= VIDEO_HOST_DISCOUNT;
        }
        if spread == StaticSpread::SegregateDynamic && dynamic_hosts.contains(&n) {
            w *= DYNAMIC_HOST_DISCOUNT;
        }
        w
    };
    let mut assignment: std::collections::HashMap<cpms_model::ContentId, NodeId> =
        std::collections::HashMap::with_capacity(corpus.len());
    let mut assignment_multi: std::collections::HashMap<cpms_model::ContentId, Vec<NodeId>> =
        std::collections::HashMap::new();

    for class in RequestClass::ALL {
        for (rank, &id) in corpus.class_ids(class).iter().enumerate() {
            let item = corpus.get(id);
            let group = match item.kind() {
                ContentKind::Cgi => &cgi_hosts,
                ContentKind::Asp => &asp_hosts,
                ContentKind::Video => &video_hosts,
                _ => &static_hosts,
            };
            let node = if item.kind() == ContentKind::Video {
                let node = group
                    .iter()
                    .copied()
                    .min_by(|a, b| {
                        let la = assigned_bytes[a.index()] as f64 / specs[a.index()].weight();
                        let lb = assigned_bytes[b.index()] as f64 / specs[b.index()].weight();
                        la.partial_cmp(&lb).expect("finite")
                    })
                    .expect("groups are nonempty");
                assigned_bytes[node.index()] += item.size_bytes().max(1);
                node
            } else if item.kind().is_dynamic() && !item.is_mutable() {
                // Scripts are code, not data: they are installed on every
                // node of their group (app-server style), and the
                // content-aware distributor balances each invocation over
                // the group by least normalized load. Storage cost is
                // negligible and there is no consistency concern. Mutable
                // scripts are pinned to one node instead (§4: consistency
                // stays centralized).
                assignment_multi.insert(id, group.clone());
                continue;
            } else {
                let p = 1.0 / ((rank + 1) as f64).powf(POPULARITY_ALPHA);
                let node = group
                    .iter()
                    .copied()
                    .min_by(|a, b| {
                        let la = popularity_load[a.index()] / static_weight(*a);
                        let lb = popularity_load[b.index()] / static_weight(*b);
                        la.partial_cmp(&lb).expect("finite")
                    })
                    .expect("groups are nonempty");
                popularity_load[node.index()] += p;
                node
            };
            assignment.insert(id, node);
        }
    }

    build_table(corpus, |id, _| {
        assignment_multi
            .get(&id)
            .cloned()
            .unwrap_or_else(|| vec![assignment[&id]])
    })
}

/// Adds `copies − 1` extra replicas for the hottest `hot_fraction` of each
/// class's objects, spreading replicas over nodes not already hosting the
/// object (by capacity weight). Mutable objects are skipped: §4 keeps them
/// single-copy so consistency stays centralized.
///
/// # Panics
///
/// Panics if `hot_fraction` is outside `[0, 1]` or `copies` is 0.
pub fn replicate_hot_content(
    table: &mut UrlTable,
    corpus: &Corpus,
    specs: &[NodeSpec],
    hot_fraction: f64,
    copies: usize,
) {
    assert!((0.0..=1.0).contains(&hot_fraction), "hot_fraction in [0,1]");
    assert!(copies >= 1, "copies must be at least 1");
    for class in RequestClass::ALL {
        let ids = corpus.class_ids(class);
        let hot = (ids.len() as f64 * hot_fraction).round() as usize;
        for &id in &ids[..hot.min(ids.len())] {
            let item = corpus.get(id);
            if item.is_mutable() {
                continue;
            }
            // ASP can only be replicated onto IIS nodes.
            let eligible: Vec<NodeId> = (0..specs.len())
                .map(|i| NodeId(i as u16))
                .filter(|n| specs[n.index()].can_serve_kind(item.kind()))
                .collect();
            let path = item.path();
            let current: Vec<NodeId> = match table.lookup(path) {
                Some(e) => e.locations().to_vec(),
                None => continue,
            };
            let mut candidates: Vec<NodeId> = eligible
                .into_iter()
                .filter(|n| !current.contains(n))
                .collect();
            candidates.sort_by(|a, b| {
                specs[b.index()]
                    .weight()
                    .partial_cmp(&specs[a.index()].weight())
                    .expect("finite")
            });
            for n in candidates
                .into_iter()
                .take(copies.saturating_sub(current.len()))
            {
                table
                    .add_location(path, n)
                    .expect("entry exists: looked up above");
            }
        }
    }
}

/// Pins [`cpms_model::Priority::Critical`] content onto the most capable nodes and
/// replicates it `copies` ways — §1.2's differentiated QoS: "place critical
/// content on more powerful machines … provide differentiated QoS
/// according to the variety of content."
///
/// Existing placements for critical objects are *replaced*: the old
/// locations are dropped in favour of nodes drawn from the strongest
/// half of the capable nodes, rotating between objects so the (hot)
/// critical set does not all pile onto one fixed machine.
/// Mutable critical objects keep a single copy (§4).
///
/// # Panics
///
/// Panics if `copies` is 0.
pub fn pin_critical_content(
    table: &mut UrlTable,
    corpus: &Corpus,
    specs: &[NodeSpec],
    copies: usize,
) {
    use cpms_model::Priority;
    assert!(copies >= 1, "copies must be at least 1");
    let mut rotation = 0usize;
    for (id, item) in corpus.iter() {
        if item.priority() != Priority::Critical {
            continue;
        }
        let path = item.path();
        let Some(entry) = table.lookup(path) else {
            continue;
        };
        let _ = id;
        let old: Vec<NodeId> = entry.locations().to_vec();
        // Most capable nodes first, filtered by capability.
        let mut candidates: Vec<NodeId> = (0..specs.len())
            .map(|i| NodeId(i as u16))
            .filter(|n| specs[n.index()].can_serve_kind(item.kind()))
            .collect();
        candidates.sort_by(|a, b| {
            specs[b.index()]
                .weight()
                .partial_cmp(&specs[a.index()].weight())
                .expect("finite")
        });
        let target_copies = if item.is_mutable() { 1 } else { copies };
        // Critical content is the hottest content; spreading it across
        // the strong tier (rather than the same top nodes every time)
        // is what actually buys it better queueing behaviour.
        let pool = candidates
            .len()
            .min(candidates.len().div_ceil(2).max(target_copies));
        let new: Vec<NodeId> = (0..target_copies.min(pool))
            .map(|k| candidates[(rotation + k) % pool])
            .collect();
        rotation = rotation.wrapping_add(1);
        if new.is_empty() {
            continue;
        }
        for &n in &new {
            let _ = table.add_location(path, n);
        }
        for &n in &old {
            if !new.contains(&n) {
                let _ = table.remove_location(path, n);
            }
        }
    }
}

fn build_table<F>(corpus: &Corpus, mut locate: F) -> UrlTable
where
    F: FnMut(cpms_model::ContentId, &cpms_model::ContentItem) -> Vec<NodeId>,
{
    let mut table = UrlTable::new();
    for (id, item) in corpus.iter() {
        let locations = locate(id, item);
        let entry = UrlEntry::new(id, item.kind(), item.size_bytes())
            .with_priority(item.priority())
            .with_locations(locations);
        match table.insert(item.path().clone(), entry) {
            Ok(()) => {}
            Err(TableError::AlreadyExists { .. }) => {
                unreachable!("corpus paths are unique")
            }
            Err(e) => panic!("corpus produced an invalid table: {e}"),
        }
    }
    table
}

/// A content placement scheme, realized as a URL table over a corpus and
/// a cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum PlacementPolicy {
    /// Configuration 1: every object on every node.
    FullReplication,
    /// Configuration 1 for a mixed NT/Linux cluster: every object on every
    /// node *that can serve it* (ASP only on IIS nodes) — the honest
    /// baseline when the workload includes ASP.
    FullReplicationCapable,
    /// Configuration 2: all content behind a shared NFS server; any node
    /// can serve anything by fetching it remotely. Use together with
    /// [`crate::experiment::ExperimentBuilder::nfs_server`].
    SharedNfs,
    /// Configuration 3: partition by content type (CGI on fast CPUs, ASP
    /// on IIS, video on big disks, static striped by capacity weight).
    /// `segregate_dynamic` discounts dynamic hosts for static placement
    /// (the Workload B experiment).
    PartitionedByType {
        /// Keep static content mostly off dynamic-content hosts.
        segregate_dynamic: bool,
    },
    /// Partitioning plus extra replicas for the hottest fraction of every
    /// class.
    PartialReplication {
        /// Keep static content mostly off dynamic-content hosts.
        segregate_dynamic: bool,
        /// Fraction (0..=1) of each class's hottest objects to replicate.
        hot_fraction: f64,
        /// Target copy count for those hot objects.
        copies: usize,
    },
    /// Partitioning plus §1.2's differentiated QoS: critical-priority
    /// content is pinned (with `critical_copies` replicas) onto the most
    /// capable nodes.
    PartitionedWithQos {
        /// Keep static content mostly off dynamic-content hosts.
        segregate_dynamic: bool,
        /// Replicas for each critical object (mutable critical objects
        /// stay single-copy).
        critical_copies: usize,
    },
}

impl PlacementPolicy {
    /// Builds the URL table realizing this policy.
    pub fn build_table(&self, corpus: &Corpus, specs: &[NodeSpec]) -> UrlTable {
        match *self {
            PlacementPolicy::FullReplication => replicate_everywhere(corpus, specs.len()),
            PlacementPolicy::FullReplicationCapable => replicate_everywhere_capable(corpus, specs),
            PlacementPolicy::SharedNfs => shared_nfs(corpus, specs.len()),
            PlacementPolicy::PartitionedByType { segregate_dynamic } => {
                partition_by_type(corpus, specs, spread(segregate_dynamic))
            }
            PlacementPolicy::PartialReplication {
                segregate_dynamic,
                hot_fraction,
                copies,
            } => {
                let mut table = partition_by_type(corpus, specs, spread(segregate_dynamic));
                replicate_hot_content(&mut table, corpus, specs, hot_fraction, copies);
                table
            }
            PlacementPolicy::PartitionedWithQos {
                segregate_dynamic,
                critical_copies,
            } => {
                let mut table = partition_by_type(corpus, specs, spread(segregate_dynamic));
                pin_critical_content(&mut table, corpus, specs, critical_copies);
                table
            }
        }
    }

    /// Whether this policy needs the simulator's shared-NFS mode.
    pub fn needs_nfs(&self) -> bool {
        matches!(self, PlacementPolicy::SharedNfs)
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PlacementPolicy::FullReplication => "full-replication",
            PlacementPolicy::FullReplicationCapable => "full-replication-capable",
            PlacementPolicy::SharedNfs => "shared-nfs",
            PlacementPolicy::PartitionedByType { .. } => "partitioned",
            PlacementPolicy::PartialReplication { .. } => "partial-replication",
            PlacementPolicy::PartitionedWithQos { .. } => "partitioned-qos",
        }
    }
}

fn spread(segregate_dynamic: bool) -> StaticSpread {
    if segregate_dynamic {
        StaticSpread::SegregateDynamic
    } else {
        StaticSpread::AllNodes
    }
}

impl std::fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpms_workload::CorpusBuilder;

    fn corpus() -> Corpus {
        CorpusBuilder::small_site().seed(3).build()
    }

    #[test]
    fn full_replication_puts_everything_everywhere() {
        let c = corpus();
        let t = replicate_everywhere(&c, 4);
        assert_eq!(t.len(), c.len());
        for (_, e) in t.iter() {
            assert_eq!(e.replica_count(), 4);
        }
    }

    #[test]
    fn partition_assigns_single_locations_for_data() {
        let c = corpus();
        let specs = NodeSpec::paper_testbed();
        let t = partition_by_type(&c, &specs, StaticSpread::AllNodes);
        assert_eq!(t.len(), c.len());
        for (_, e) in t.iter() {
            if e.kind().is_dynamic() {
                // scripts are installed on their whole host group
                assert!(e.replica_count() >= 1);
            } else {
                assert_eq!(e.replica_count(), 1, "data objects are partitioned");
            }
        }
    }

    #[test]
    fn partition_respects_type_rules() {
        let c = corpus();
        let specs = NodeSpec::paper_testbed();
        let t = partition_by_type(&c, &specs, StaticSpread::SegregateDynamic);
        let max_disk = specs.iter().map(NodeSpec::disk_bytes).max().unwrap();
        for (path, e) in t.iter() {
            let node = e.locations()[0];
            let spec = &specs[node.index()];
            match e.kind() {
                ContentKind::Asp => {
                    assert!(
                        spec.can_serve_kind(ContentKind::Asp),
                        "ASP on IIS only: {path}"
                    )
                }
                ContentKind::Video => {
                    assert_eq!(spec.disk_bytes(), max_disk, "video on big disks: {path}")
                }
                ContentKind::Cgi => {
                    assert!(spec.cpu_mhz() >= 350, "CGI on fast CPUs: {path}")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn segregation_reduces_static_on_dynamic_hosts() {
        let c = CorpusBuilder::paper_site().seed(7).build();
        let specs = NodeSpec::paper_testbed();
        let spread_share = |spread: StaticSpread| -> f64 {
            let t = partition_by_type(&c, &specs, spread);
            let mut dynamic_hosts = std::collections::HashSet::new();
            for (_, e) in t.iter() {
                if e.kind().is_dynamic() {
                    dynamic_hosts.extend(e.locations().iter().copied());
                }
            }
            assert!(!dynamic_hosts.is_empty());
            let (mut on_dynamic, mut total) = (0usize, 0usize);
            for (_, e) in t.iter() {
                if matches!(
                    e.kind(),
                    ContentKind::StaticHtml | ContentKind::Image | ContentKind::OtherStatic
                ) {
                    total += 1;
                    if dynamic_hosts.contains(&e.locations()[0]) {
                        on_dynamic += 1;
                    }
                }
            }
            on_dynamic as f64 / total as f64
        };
        let all = spread_share(StaticSpread::AllNodes);
        let seg = spread_share(StaticSpread::SegregateDynamic);
        assert!(
            seg < all - 0.1,
            "segregation must shift static off dynamic hosts: {seg:.2} vs {all:.2}"
        );
    }

    #[test]
    fn all_nodes_spread_uses_whole_cluster_for_static() {
        let c = CorpusBuilder::paper_site().seed(4).build();
        let specs = NodeSpec::paper_testbed();
        let t = partition_by_type(&c, &specs, StaticSpread::AllNodes);
        let mut static_hosts = std::collections::HashSet::new();
        for (_, e) in t.iter() {
            if !e.kind().is_dynamic() && e.kind() != ContentKind::Video {
                static_hosts.insert(e.locations()[0]);
            }
        }
        assert_eq!(static_hosts.len(), specs.len(), "all nodes host static");
    }

    #[test]
    fn capacity_weighting_skews_assignment() {
        let c = CorpusBuilder::paper_site().seed(5).build();
        let specs = NodeSpec::paper_testbed();
        let t = partition_by_type(&c, &specs, StaticSpread::AllNodes);
        let mut bytes = vec![0u64; specs.len()];
        for (_, e) in t.iter() {
            if !e.kind().is_dynamic() && e.kind() != ContentKind::Video {
                bytes[e.locations()[0].index()] += e.size_bytes();
            }
        }
        // a 350 MHz SCSI node should carry more static bytes than a
        // 150 MHz IDE node
        assert!(bytes[5] > bytes[0], "{bytes:?}");
    }

    #[test]
    fn hot_replication_adds_copies() {
        let c = corpus();
        let specs = NodeSpec::paper_testbed();
        let mut t = partition_by_type(&c, &specs, StaticSpread::AllNodes);
        replicate_hot_content(&mut t, &c, &specs, 0.10, 3);
        let replicated = t.iter().filter(|(_, e)| e.replica_count() > 1).count();
        assert!(replicated > 0, "some objects gained replicas");
        // every ASP replica is on an IIS node
        for (_, e) in t.iter() {
            if e.kind() == ContentKind::Asp {
                for &n in e.locations() {
                    assert!(specs[n.index()].can_serve_kind(ContentKind::Asp));
                }
            }
        }
    }

    #[test]
    fn hot_replication_skips_mutable() {
        let c = CorpusBuilder::small_site()
            .seed(6)
            .mutable_fraction(1.0)
            .build();
        let specs = NodeSpec::paper_testbed();
        let mut t = partition_by_type(&c, &specs, StaticSpread::AllNodes);
        replicate_hot_content(&mut t, &c, &specs, 1.0, 4);
        for (path, e) in t.iter() {
            assert_eq!(
                e.replica_count(),
                1,
                "mutable objects stay single-copy: {path}"
            );
        }
    }

    #[test]
    fn critical_content_pinned_to_strongest_nodes() {
        use cpms_model::Priority;
        let c = CorpusBuilder::paper_site()
            .seed(9)
            .critical_fraction(0.05)
            .build();
        let specs = NodeSpec::paper_testbed();
        let mut t = partition_by_type(&c, &specs, StaticSpread::AllNodes);
        pin_critical_content(&mut t, &c, &specs, 2);
        let max_weight = specs.iter().map(NodeSpec::weight).fold(0.0f64, f64::max);
        let mut checked = 0;
        for (_, item) in c.iter() {
            if item.priority() != Priority::Critical || item.is_mutable() {
                continue;
            }
            let entry = t.lookup(item.path()).expect("present");
            assert_eq!(entry.replica_count(), 2, "critical gets two copies");
            for &n in entry.locations() {
                assert!(
                    specs[n.index()].weight() >= max_weight * 0.99
                        || specs[n.index()].can_serve_kind(item.kind()),
                    "critical copy on weak node {n}"
                );
            }
            checked += 1;
        }
        assert!(checked > 0, "corpus has critical objects");
    }

    #[test]
    fn critical_mutable_stays_single_copy() {
        use cpms_model::Priority;
        let c = CorpusBuilder::small_site()
            .seed(10)
            .critical_fraction(0.2)
            .mutable_fraction(0.2)
            .build();
        let specs = NodeSpec::paper_testbed();
        let mut t = partition_by_type(&c, &specs, StaticSpread::AllNodes);
        pin_critical_content(&mut t, &c, &specs, 3);
        for (_, item) in c.iter() {
            if item.priority() == Priority::Critical && item.is_mutable() {
                let entry = t.lookup(item.path()).expect("present");
                assert_eq!(entry.replica_count(), 1, "{}", item.path());
            }
        }
    }

    #[test]
    fn shared_nfs_equals_full_replication_locations() {
        let c = corpus();
        let a = shared_nfs(&c, 3);
        let b = replicate_everywhere(&c, 3);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn every_policy_builds_a_complete_table() {
        let corpus = CorpusBuilder::small_site().seed(1).build();
        let specs = NodeSpec::paper_testbed();
        for policy in [
            PlacementPolicy::FullReplication,
            PlacementPolicy::FullReplicationCapable,
            PlacementPolicy::SharedNfs,
            PlacementPolicy::PartitionedByType {
                segregate_dynamic: false,
            },
            PlacementPolicy::PartitionedByType {
                segregate_dynamic: true,
            },
            PlacementPolicy::PartialReplication {
                segregate_dynamic: true,
                hot_fraction: 0.1,
                copies: 2,
            },
            PlacementPolicy::PartitionedWithQos {
                segregate_dynamic: false,
                critical_copies: 2,
            },
        ] {
            let table = policy.build_table(&corpus, &specs);
            assert_eq!(
                table.len(),
                corpus.len(),
                "{policy}: every object has a record"
            );
            for (path, e) in table.iter() {
                assert!(e.replica_count() >= 1, "{policy}: {path} has a location");
            }
        }
    }

    #[test]
    fn partial_replication_increases_copies() {
        let corpus = CorpusBuilder::small_site().seed(2).build();
        let specs = NodeSpec::paper_testbed();
        let base = PlacementPolicy::PartitionedByType {
            segregate_dynamic: false,
        }
        .build_table(&corpus, &specs);
        let partial = PlacementPolicy::PartialReplication {
            segregate_dynamic: false,
            hot_fraction: 0.2,
            copies: 3,
        }
        .build_table(&corpus, &specs);
        let copies = |t: &UrlTable| t.iter().map(|(_, e)| e.replica_count()).sum::<usize>();
        assert!(copies(&partial) > copies(&base));
    }

    #[test]
    fn only_nfs_needs_nfs() {
        assert!(PlacementPolicy::SharedNfs.needs_nfs());
        assert!(!PlacementPolicy::FullReplication.needs_nfs());
        assert!(!PlacementPolicy::PartitionedByType {
            segregate_dynamic: false
        }
        .needs_nfs());
    }
}
