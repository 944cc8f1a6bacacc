//! The paper's headline scenario end to end: the nine-machine
//! heterogeneous testbed under Workload B (CGI + ASP + static + video),
//! full replication vs content segregation, with §3.3 auto-replication
//! enabled for the proposed system.
//!
//! Run with:
//! `cargo run --release -p cpms-sim --example heterogeneous_cluster`

use cpms_model::{NodeSpec, SimDuration, WorkloadKind};
use cpms_sim::report::{class_gains, render_class_gains, render_throughput_table, FigureSeries};
use cpms_sim::{Experiment, PlacementPolicy, RebalanceConfig, Router};

fn main() {
    let clients = [16u32, 48, 96, 120];
    let base = || {
        Experiment::builder()
            .corpus_objects(8_700)
            .nodes(NodeSpec::paper_testbed())
            .workload(WorkloadKind::B)
            .windows(SimDuration::from_secs(10), SimDuration::from_secs(30))
            .seed(7)
    };

    println!("Heterogeneous cluster (3x150MHz IDE, 2x200MHz SCSI, 4x350MHz SCSI; 2 IIS nodes)");
    println!("Workload B: 75.8% static, 14% CGI, 10% ASP, 0.2% video\n");

    // Baseline: full replication (respecting that ASP only runs on IIS)
    // behind the content-blind WLC router.
    let baseline = base()
        .placement(PlacementPolicy::FullReplicationCapable)
        .router(Router::WeightedLeastConnections)
        .build()
        .sweep_clients(&clients);

    // Proposed system: content segregation + content-aware distributor +
    // auto-replication running between intervals.
    let proposed = base()
        .placement(PlacementPolicy::PartitionedByType {
            segregate_dynamic: true,
        })
        .router(Router::ContentAware)
        .rebalance(RebalanceConfig::default())
        .build()
        .sweep_clients(&clients);

    let series = vec![
        FigureSeries::from_results("full replication + L4 WLC", &baseline),
        FigureSeries::from_results("segregated + content-aware", &proposed),
    ];
    println!("{}", render_throughput_table(&series));

    let last = clients.len() - 1;
    println!("Per-class gains at saturation ({} clients):", clients[last]);
    let gains = class_gains(&baseline[last], &proposed[last]);
    println!("{}", render_class_gains(&gains));

    let rebalanced: usize = proposed.iter().map(|r| r.rebalance_actions).sum();
    println!("auto-replication actions applied across the sweep: {rebalanced}");
}
