//! Quickstart: build a small heterogeneous cluster, compare the paper's
//! three placement schemes on a static workload, and print the result.
//!
//! Run with: `cargo run --release -p cpms-sim --example quickstart`

use cpms_model::{NodeSpec, SimDuration, WorkloadKind};
use cpms_sim::report::{render_throughput_table, FigureSeries};
use cpms_sim::{Experiment, ExperimentResult, PlacementPolicy, RouterChoice};

fn main() {
    // A small corpus keeps the example fast; the bench binaries use the
    // paper's full 8 700-object site.
    let base = || {
        Experiment::builder()
            .corpus_objects(2_000)
            .nodes(NodeSpec::paper_testbed())
            .workload(WorkloadKind::A)
            .windows(SimDuration::from_secs(5), SimDuration::from_secs(15))
            .seed(7)
    };
    let clients = [8u32, 32, 64];

    println!("CPMS quickstart: three placement schemes, Workload A (static)\n");

    let full = base()
        .placement(PlacementPolicy::FullReplication)
        .router(RouterChoice::WeightedLeastConnections)
        .build()
        .sweep_clients(&clients);

    let nfs = base()
        .placement(PlacementPolicy::SharedNfs)
        .router(RouterChoice::WeightedLeastConnections)
        .build()
        .sweep_clients(&clients);

    let partitioned = base()
        .placement(PlacementPolicy::PartitionedByType {
            segregate_dynamic: false,
        })
        .router(RouterChoice::ContentAware)
        .build()
        .sweep_clients(&clients);

    let series = vec![
        FigureSeries::from_results("full replication + L4 WLC", &full),
        FigureSeries::from_results("shared NFS + L4 WLC", &nfs),
        FigureSeries::from_results("partitioned + content-aware", &partitioned),
    ];
    println!("{}", render_throughput_table(&series));

    // Cache hit rates explain the ordering (the paper's §5.3 argument).
    let hit = |results: &[ExperimentResult]| {
        let r = &results.last().expect("nonempty sweep").report;
        r.nodes.iter().map(|n| n.cache_hit_rate).sum::<f64>() / r.nodes.len() as f64
    };
    println!(
        "mean node cache hit rate at {} clients: full={:.2} nfs={:.2} partitioned={:.2}",
        clients.last().expect("nonempty"),
        hit(&full),
        hit(&nfs),
        hit(&partitioned),
    );
}
