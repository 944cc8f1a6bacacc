//! The placement-policy menu: one entry per configuration in the paper's
//! §5.3 evaluation (plus partial replication, the state §3.3's
//! auto-replication converges to).

use cpms_model::NodeSpec;
use cpms_sim::placement as p;
use cpms_urltable::UrlTable;
use cpms_workload::Corpus;

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
            PlacementPolicy::FullReplication => p::replicate_everywhere(corpus, specs.len()),
            PlacementPolicy::FullReplicationCapable => {
                p::replicate_everywhere_capable(corpus, specs)
            }
            PlacementPolicy::SharedNfs => p::shared_nfs(corpus, specs.len()),
            PlacementPolicy::PartitionedByType { segregate_dynamic } => {
                p::partition_by_type(corpus, specs, spread(segregate_dynamic))
            }
            PlacementPolicy::PartialReplication {
                segregate_dynamic,
                hot_fraction,
                copies,
            } => {
                let mut table = p::partition_by_type(corpus, specs, spread(segregate_dynamic));
                p::replicate_hot_content(&mut table, corpus, specs, hot_fraction, copies);
                table
            }
            PlacementPolicy::PartitionedWithQos {
                segregate_dynamic,
                critical_copies,
            } => {
                let mut table = p::partition_by_type(corpus, specs, spread(segregate_dynamic));
                p::pin_critical_content(&mut table, corpus, specs, critical_copies);
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

fn spread(segregate_dynamic: bool) -> p::StaticSpread {
    if segregate_dynamic {
        p::StaticSpread::SegregateDynamic
    } else {
        p::StaticSpread::AllNodes
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
