//! Regression tests on the *shapes* of the paper's figures: orderings and
//! rough ratios must hold on reduced-size runs (the bench binaries run the
//! full-scale versions).

use cpms_model::{NodeSpec, SimDuration, WorkloadKind};
use cpms_sim::report::class_gains;
use cpms_sim::{Experiment, ExperimentBuilder, ExperimentResult, PlacementPolicy, Router};

const CLIENTS: [u32; 3] = [16, 48, 96];

fn base() -> ExperimentBuilder {
    Experiment::builder()
        .corpus_objects(8_700)
        .nodes(NodeSpec::paper_testbed())
        .windows(SimDuration::from_secs(5), SimDuration::from_secs(15))
        .seed(7)
}

/// Figure 2: partitioned + content-aware > full replication > shared NFS,
/// at every offered load, for the static workload.
#[test]
fn figure2_ordering_holds() {
    let full = base()
        .placement(PlacementPolicy::FullReplication)
        .router(Router::WeightedLeastConnections)
        .workload(WorkloadKind::A)
        .build()
        .sweep_clients(&CLIENTS);
    let nfs = base()
        .placement(PlacementPolicy::SharedNfs)
        .router(Router::WeightedLeastConnections)
        .workload(WorkloadKind::A)
        .build()
        .sweep_clients(&CLIENTS);
    let partitioned = base()
        .placement(PlacementPolicy::PartitionedByType {
            segregate_dynamic: false,
        })
        .router(Router::ContentAware)
        .workload(WorkloadKind::A)
        .build()
        .sweep_clients(&CLIENTS);

    for i in 0..CLIENTS.len() {
        let f = full[i].report.throughput_rps();
        let n = nfs[i].report.throughput_rps();
        let p = partitioned[i].report.throughput_rps();
        assert!(
            p > f,
            "clients={}: partitioned ({p:.0}) must beat full replication ({f:.0})",
            CLIENTS[i]
        );
        assert!(
            f > n,
            "clients={}: full replication ({f:.0}) must beat NFS ({n:.0})",
            CLIENTS[i]
        );
    }

    // NFS saturates early: its curve must be nearly flat at high load.
    let nfs_growth = nfs[2].report.throughput_rps() / nfs[0].report.throughput_rps();
    assert!(
        nfs_growth < 1.5,
        "NFS should be bottlenecked (growth {nfs_growth:.2})"
    );

    // The cache-hit mechanism: partitioned nodes must have much better hit
    // rates than fully replicated nodes.
    let hit = |r: &ExperimentResult| {
        r.report.nodes.iter().map(|n| n.cache_hit_rate).sum::<f64>() / r.report.nodes.len() as f64
    };
    assert!(
        hit(&partitioned[2]) > hit(&full[2]) + 0.2,
        "partitioned hit {:.2} vs full {:.2}",
        hit(&partitioned[2]),
        hit(&full[2])
    );
}

/// Figure 3: the proposed system beats full replication under Workload B
/// at every offered load.
#[test]
fn figure3_proposed_system_wins_workload_b() {
    let full = base()
        .placement(PlacementPolicy::FullReplicationCapable)
        .router(Router::WeightedLeastConnections)
        .workload(WorkloadKind::B)
        .build()
        .sweep_clients(&CLIENTS);
    let proposed = base()
        .placement(PlacementPolicy::PartitionedByType {
            segregate_dynamic: true,
        })
        .router(Router::ContentAware)
        .workload(WorkloadKind::B)
        .build()
        .sweep_clients(&CLIENTS);

    for i in 0..CLIENTS.len() {
        let f = full[i].report.throughput_rps();
        let p = proposed[i].report.throughput_rps();
        assert!(
            p > f,
            "clients={}: proposed ({p:.0}) must beat full replication ({f:.0})",
            CLIENTS[i]
        );
    }
}

/// Figure 4: at saturation, every class (static, CGI, ASP) gains under
/// content segregation.
#[test]
fn figure4_every_class_gains_at_saturation() {
    let clients = 96;
    let baseline = base()
        .placement(PlacementPolicy::FullReplicationCapable)
        .router(Router::WeightedLeastConnections)
        .workload(WorkloadKind::B)
        .clients(clients)
        .build()
        .run();
    let proposed = base()
        .placement(PlacementPolicy::PartitionedByType {
            segregate_dynamic: true,
        })
        .router(Router::ContentAware)
        .workload(WorkloadKind::B)
        .clients(clients)
        .build()
        .run();

    let gains = class_gains(&baseline, &proposed);
    for class in ["static", "cgi", "asp"] {
        let row = gains
            .iter()
            .find(|r| r.class == class)
            .unwrap_or_else(|| panic!("{class} row present"));
        assert!(
            row.gain > 0.0,
            "{class} should gain under segregation, got {:+.0}%",
            row.gain * 100.0
        );
    }
}

/// §5.2: the URL table at paper scale is small and fast.
#[test]
fn sec52_urltable_scale() {
    use cpms_sim::placement;
    use cpms_urltable::TableStats;
    use cpms_workload::CorpusBuilder;

    let corpus = CorpusBuilder::paper_site().seed(1).build();
    let table = placement::partition_by_type(
        &corpus,
        &NodeSpec::paper_testbed(),
        placement::StaticSpread::AllNodes,
    );
    let stats = TableStats::collect(&table);
    assert_eq!(stats.entries, 8_700);
    // Same order of magnitude as the paper's 260 KB (our Rust records are
    // richer than the authors' C structs; stay under ~8x).
    assert!(
        stats.memory_bytes < 8 * 260 * 1024,
        "table memory {} bytes",
        stats.memory_bytes
    );

    // Lookup cost: average well under 10 µs per lookup even in a debug-ish
    // environment would be flaky to assert; assert correctness volume
    // instead and leave timing to the bench binary.
    let mut hits = 0;
    for (path, _) in table.iter().take(1_000) {
        if table.lookup(&path).is_some() {
            hits += 1;
        }
    }
    assert_eq!(hits, 1_000);
}
