//! Figure 4 — "Benefit of content segregation".
//!
//! Reproduces the per-class comparison of §5.3 at saturation: "Figure 4
//! shows the throughput when the server was saturated by 120 concurrent
//! WebBench clients. In the content-aware router with content
//! segregation, the average CGI request, average ASP request, and average
//! static request … increased by 45 percent, 42 percent, and 58 percent
//! respectively."
//!
//! The qualitative result to match: every class gains under segregation,
//! "because the content segregation prevents short Web requests from
//! being delayed by long running request."
//!
//! Run with: `cargo run --release -p cpms-sim --bin fig4`

use cpms_model::{NodeSpec, SimDuration, WorkloadKind};
use cpms_sim::report::{class_gains, render_class_gains};
use cpms_sim::{Experiment, PlacementPolicy, Router};

fn main() {
    const SATURATION_CLIENTS: u32 = 120;
    let base = || {
        Experiment::builder()
            .corpus_objects(8_700)
            .nodes(NodeSpec::paper_testbed())
            .workload(WorkloadKind::B)
            .clients(SATURATION_CLIENTS)
            .windows(SimDuration::from_secs(10), SimDuration::from_secs(40))
            .seed(7)
    };

    eprintln!("fig4: running baseline and proposed system at {SATURATION_CLIENTS} clients...");

    let baseline = base()
        .placement(PlacementPolicy::FullReplicationCapable)
        .router(Router::WeightedLeastConnections)
        .build()
        .run();
    let proposed = base()
        .placement(PlacementPolicy::PartitionedByType {
            segregate_dynamic: true,
        })
        .router(Router::ContentAware)
        .build()
        .run();

    println!(
        "Figure 4 — Benefit of content segregation ({SATURATION_CLIENTS} concurrent WebBench clients)\n"
    );
    let gains = class_gains(&baseline, &proposed);
    println!("{}", render_class_gains(&gains));
    println!("paper reported: cgi +45%, asp +42%, static +58%");
    println!(
        "aggregate: baseline {:.0} rps -> proposed {:.0} rps ({:+.0}%)",
        baseline.report.throughput_rps(),
        proposed.report.throughput_rps(),
        (proposed.report.throughput_rps() / baseline.report.throughput_rps() - 1.0) * 100.0
    );

    std::fs::create_dir_all("bench_results").expect("create bench_results dir");
    std::fs::write(
        "bench_results/fig4.json",
        serde_json::to_string_pretty(&gains).expect("serialize"),
    )
    .expect("write results");
    eprintln!("wrote bench_results/fig4.json");
}
