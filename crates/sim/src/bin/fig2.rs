//! Figure 2 — "Benefit of content partition (Workload A)".
//!
//! Reproduces the first experiment of §5.3: WebBench Workload A (static
//! content) against three configurations of the nine-machine testbed:
//!
//! 1. full replication behind the layer-4 WLC connection router,
//! 2. everything on a shared NFS server behind the same router,
//! 3. the document set partitioned by content type behind the
//!    content-aware distributor.
//!
//! The paper's qualitative result to match: NFS performs very poorly
//! (the server becomes the bottleneck), and partitioning beats full
//! replication because smaller per-node working sets raise memory-cache
//! hit rates.
//!
//! Run with: `cargo run --release -p cpms-sim --bin fig2`

use cpms_model::{NodeSpec, SimDuration, WorkloadKind};
use cpms_sim::report::{render_throughput_table, FigureSeries};
use cpms_sim::{Experiment, PlacementPolicy, Router};

fn main() {
    let clients: Vec<u32> = vec![8, 16, 32, 48, 64, 96, 120];
    let base = || {
        Experiment::builder()
            .corpus_objects(8_700)
            .nodes(NodeSpec::paper_testbed())
            .workload(WorkloadKind::A)
            .windows(SimDuration::from_secs(10), SimDuration::from_secs(30))
            .seed(7)
    };

    eprintln!(
        "fig2: sweeping {} client counts x 3 configurations...",
        clients.len()
    );

    let full = base()
        .placement(PlacementPolicy::FullReplication)
        .router(Router::WeightedLeastConnections)
        .build()
        .sweep_clients(&clients);
    let nfs = base()
        .placement(PlacementPolicy::SharedNfs)
        .router(Router::WeightedLeastConnections)
        .build()
        .sweep_clients(&clients);
    let partitioned = base()
        .placement(PlacementPolicy::PartitionedByType {
            segregate_dynamic: false,
        })
        .router(Router::ContentAware)
        .build()
        .sweep_clients(&clients);

    let series = vec![
        FigureSeries::from_results("(1) full replication + L4 WLC", &full),
        FigureSeries::from_results("(2) shared NFS + L4 WLC", &nfs),
        FigureSeries::from_results("(3) partitioned + content-aware", &partitioned),
    ];

    println!("Figure 2 — Benefit of content partition (Workload A)\n");
    println!("{}", render_throughput_table(&series));

    let sat: Vec<f64> = series
        .iter()
        .map(FigureSeries::saturated_throughput)
        .collect();
    println!(
        "at saturation ({} clients):",
        clients.last().expect("nonempty")
    );
    println!(
        "  partitioned / full-replication = {:.2}x   (paper: consistently greater)",
        sat[2] / sat[0]
    );
    println!(
        "  partitioned / shared-NFS       = {:.2}x   (paper: NFS performs very poorly)",
        sat[2] / sat[1]
    );

    let json = serde_json::to_string_pretty(&series).expect("series serialize");
    let path = "bench_results/fig2.json";
    std::fs::create_dir_all("bench_results").expect("create bench_results dir");
    std::fs::write(path, json).expect("write results");
    eprintln!("wrote {path}");
}
