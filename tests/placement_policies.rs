//! Cross-crate placement-policy tests: every policy produces a table the
//! whole stack (routing + simulation + management) can operate on, and
//! policies honor the paper's placement rules.

use cpms_model::ContentKind;
use cpms_model::NodeSpec;
use cpms_sim::PlacementPolicy;
use cpms_urltable::TableStats;
use cpms_workload::{Corpus, CorpusBuilder};

fn corpus() -> Corpus {
    CorpusBuilder::paper_site().seed(3).build()
}

fn all_policies() -> Vec<PlacementPolicy> {
    vec![
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
            hot_fraction: 0.05,
            copies: 3,
        },
    ]
}

#[test]
fn every_policy_covers_every_object() {
    let corpus = corpus();
    let specs = NodeSpec::paper_testbed();
    for policy in all_policies() {
        let table = policy.build_table(&corpus, &specs);
        assert_eq!(table.len(), corpus.len(), "{policy}");
        for (path, entry) in table.iter() {
            assert!(
                entry.replica_count() >= 1,
                "{policy}: {path} must have at least one location"
            );
            for &node in entry.locations() {
                assert!(
                    (node.index()) < specs.len(),
                    "{policy}: {path} placed on nonexistent node {node}"
                );
            }
        }
    }
}

#[test]
fn replication_factors_ordered_as_expected() {
    let corpus = corpus();
    let specs = NodeSpec::paper_testbed();
    let factor = |policy: PlacementPolicy| {
        TableStats::collect(&policy.build_table(&corpus, &specs)).mean_replication_factor
    };
    let full = factor(PlacementPolicy::FullReplication);
    let partitioned = factor(PlacementPolicy::PartitionedByType {
        segregate_dynamic: false,
    });
    let partial = factor(PlacementPolicy::PartialReplication {
        segregate_dynamic: false,
        hot_fraction: 0.1,
        copies: 3,
    });
    assert!((full - specs.len() as f64).abs() < 1e-9);
    assert!(partitioned < partial, "{partitioned} < {partial}");
    assert!(partial < full, "{partial} < {full}");
    // partitioning keeps data single-copy apart from group-installed scripts
    assert!(partitioned < 1.5, "partitioned factor {partitioned}");
}

#[test]
fn storage_footprint_partitioned_vs_replicated() {
    // The paper's §1.2 economics: full replication of large files is not
    // cost-effective. Compare per-node stored bytes.
    let corpus = corpus();
    let specs = NodeSpec::paper_testbed();
    let stored_bytes = |policy: PlacementPolicy| -> u64 {
        let table = policy.build_table(&corpus, &specs);
        table
            .iter()
            .map(|(_, e)| e.size_bytes() * e.replica_count() as u64)
            .sum()
    };
    let full = stored_bytes(PlacementPolicy::FullReplication);
    let partitioned = stored_bytes(PlacementPolicy::PartitionedByType {
        segregate_dynamic: false,
    });
    assert!(
        full > 6 * partitioned,
        "full replication stores {full} bytes vs partitioned {partitioned}"
    );
}

#[test]
fn capability_constraints_respected_everywhere() {
    let corpus = corpus();
    let specs = NodeSpec::paper_testbed();
    for policy in [
        PlacementPolicy::FullReplicationCapable,
        PlacementPolicy::PartitionedByType {
            segregate_dynamic: true,
        },
        PlacementPolicy::PartialReplication {
            segregate_dynamic: true,
            hot_fraction: 0.2,
            copies: 4,
        },
    ] {
        let table = policy.build_table(&corpus, &specs);
        for (path, entry) in table.iter() {
            if entry.kind() == ContentKind::Asp {
                for &node in entry.locations() {
                    assert!(
                        specs[node.index()].can_serve_kind(ContentKind::Asp),
                        "{policy}: ASP {path} on non-IIS node {node}"
                    );
                }
            }
        }
    }
}

#[test]
fn video_lands_on_big_disks_under_partitioning() {
    let corpus = corpus();
    let specs = NodeSpec::paper_testbed();
    let max_disk = specs.iter().map(NodeSpec::disk_bytes).max().unwrap();
    let table = PlacementPolicy::PartitionedByType {
        segregate_dynamic: false,
    }
    .build_table(&corpus, &specs);
    for (path, entry) in table.iter() {
        if entry.kind() == ContentKind::Video {
            for &node in entry.locations() {
                assert_eq!(
                    specs[node.index()].disk_bytes(),
                    max_disk,
                    "video {path} must sit on the largest disks"
                );
            }
        }
    }
}

#[test]
fn partitioned_static_is_balanced_by_capacity() {
    let corpus = corpus();
    let specs = NodeSpec::paper_testbed();
    let table = PlacementPolicy::PartitionedByType {
        segregate_dynamic: false,
    }
    .build_table(&corpus, &specs);
    let stats = TableStats::collect(&table);
    // every node hosts a meaningful share of objects (no starving, no
    // monopolizing)
    for (node, &count) in &stats.objects_per_node {
        let share = count as f64 / corpus.len() as f64;
        assert!(
            (0.02..0.5).contains(&share),
            "node {node} hosts share {share:.3}"
        );
    }
}
