//! Latency-vs-offered-load curves (open-loop Poisson arrivals).
//!
//! The paper reports closed-loop WebBench throughput; this companion
//! experiment shows the same placement comparison as response-time curves:
//! mean and p95 latency as offered load rises. The placement with the
//! larger usable capacity (partitioned + content-aware) keeps its knee
//! further to the right — the same Figure-2 story from the latency side.
//!
//! Run with: `cargo run --release -p cpms-sim --bin latency_curve`

use cpms_model::{NodeSpec, SimDuration};
use cpms_sim::{placement, Router, SimConfig, Simulation};
use cpms_workload::{CorpusBuilder, WorkloadSpec};

struct Point {
    offered: f64,
    completed: f64,
    mean_ms: f64,
    p95_ms: f64,
}

fn run(mode: &str, rate: f64, corpus: &cpms_workload::Corpus, specs: &[NodeSpec]) -> Point {
    let (table, router) = match mode {
        "full" => (
            placement::replicate_everywhere(corpus, specs.len()),
            Router::WeightedLeastConnections,
        ),
        _ => (
            placement::partition_by_type(corpus, specs, placement::StaticSpread::AllNodes),
            Router::ContentAware,
        ),
    };
    let mut config = SimConfig::builder();
    config.nodes(specs.to_vec()).open_loop(rate).seed(7);
    let mut sim = Simulation::new(
        config.build(),
        corpus,
        table,
        router,
        &WorkloadSpec::workload_a(),
    );
    let report = sim.run(SimDuration::from_secs(10), SimDuration::from_secs(30));
    let static_class = report
        .class(cpms_model::RequestClass::Static)
        .expect("static traffic");
    Point {
        offered: rate,
        completed: report.throughput_rps(),
        mean_ms: report.mean_response_ms(),
        p95_ms: static_class.p95_response_ms,
    }
}

fn main() {
    let corpus = CorpusBuilder::paper_site().seed(1).build();
    let specs = NodeSpec::paper_testbed();
    let rates = [200.0, 400.0, 600.0, 800.0, 1_000.0, 1_200.0];

    eprintln!("latency_curve: sweeping offered load (open loop)...");
    println!("Latency vs offered load (open-loop Poisson, Workload A)\n");
    println!(
        "{:>9} | {:>32} | {:>32}",
        "offered", "full replication + WLC", "partitioned + content-aware"
    );
    println!(
        "{:>9} | {:>10} {:>9} {:>10} | {:>10} {:>9} {:>10}",
        "rps", "served", "mean", "p95(stat)", "served", "mean", "p95(stat)"
    );
    println!("{}", "-".repeat(82));

    let mut rows = Vec::new();
    for &rate in &rates {
        let f = run("full", rate, &corpus, &specs);
        let p = run("part", rate, &corpus, &specs);
        println!(
            "{:>9.0} | {:>10.0} {:>7.1}ms {:>8.1}ms | {:>10.0} {:>7.1}ms {:>8.1}ms",
            rate, f.completed, f.mean_ms, f.p95_ms, p.completed, p.mean_ms, p.p95_ms
        );
        rows.push(serde_json::json!({
            "offered_rps": rate,
            "full": {"served": f.completed, "mean_ms": f.mean_ms, "p95_static_ms": f.p95_ms},
            "partitioned": {"served": p.completed, "mean_ms": p.mean_ms, "p95_static_ms": p.p95_ms},
        }));
        let _ = f.offered;
    }
    println!(
        "\nthe partitioned knee sits further right: it keeps serving the offered load\n\
         (and keeps latency flat) past the point where full replication saturates."
    );

    std::fs::create_dir_all("bench_results").expect("create bench_results dir");
    std::fs::write(
        "bench_results/latency_curve.json",
        serde_json::to_string_pretty(&rows).expect("serialize"),
    )
    .expect("write results");
    eprintln!("wrote bench_results/latency_curve.json");
}
