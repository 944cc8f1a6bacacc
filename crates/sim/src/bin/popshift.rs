//! §7 — "self-configure with respect to the change of content access
//! pattern".
//!
//! The cluster starts balanced (partial replication of the hot set). Then
//! the access pattern shifts: a previously cold slice of the corpus
//! becomes the new Zipf head (new content going viral). With the §3.3
//! loop running, the system sheds stale replicas and replicates the new
//! hot set; without it, the shifted load concentrates on whichever nodes
//! happen to host the new head.
//!
//! Run with: `cargo run --release -p cpms-sim --bin popshift`

use cpms_dispatch::ContentAwareRouter;
use cpms_model::{LoadTracker, NodeSpec, SimDuration};
use cpms_sim::{placement, SimConfig, Simulation};
use cpms_urltable::AutoReplicator;
use cpms_workload::{CorpusBuilder, RequestSampler, WorkloadSpec};

const INTERVALS_BEFORE: u32 = 3;
const INTERVALS_AFTER: u32 = 6;

struct Row {
    label: &'static str,
    imbalance: f64,
    throughput: f64,
}

fn run(rebalance: bool) -> Vec<Row> {
    let corpus = CorpusBuilder::paper_site().seed(1).build();
    let spec = WorkloadSpec::workload_a();
    let specs = vec![NodeSpec::testbed_350(); 6];
    let weights: Vec<f64> = specs.iter().map(NodeSpec::weight).collect();

    // Balanced start: partitioned + the initial hot set replicated.
    let mut table =
        placement::partition_by_type(&corpus, &specs, placement::StaticSpread::AllNodes);
    placement::replicate_hot_content(&mut table, &corpus, &specs, 0.02, 2);

    let mut config = SimConfig::builder();
    config.nodes(specs.clone()).clients(64).seed(9);
    let mut sim = Simulation::new(
        config.build(),
        &corpus,
        table,
        Box::new(ContentAwareRouter::new()),
        &spec,
    );
    let planner = AutoReplicator::new(0.15)
        .with_max_actions(24)
        .with_hot_candidates(12);
    let _ = sim.run_window(SimDuration::from_secs(5)); // warm-up

    let mut rows = Vec::new();
    let interval = |sim: &mut Simulation<'_>, label: &'static str, rebalance: bool| {
        let report = sim.run_window(SimDuration::from_secs(10));
        let mut tracker = LoadTracker::new(weights.clone());
        for s in &report.load_samples {
            tracker.record(*s);
        }
        let loads = tracker.node_loads();
        let avg = tracker.average_load();
        let max = loads.iter().map(|l| l.load).fold(0.0f64, f64::max);
        if rebalance {
            sim.rebalance(&planner, &tracker);
        }
        Row {
            label,
            imbalance: if avg > 0.0 { max / avg } else { 0.0 },
            throughput: report.throughput_rps(),
        }
    };

    for _ in 0..INTERVALS_BEFORE {
        rows.push(interval(&mut sim, "before shift", rebalance));
    }
    // The shift: a cold slice of the corpus becomes the new Zipf head.
    sim.replace_sampler(RequestSampler::with_rotated_popularity(
        &corpus, &spec, 9, 4_000,
    ));
    for _ in 0..INTERVALS_AFTER {
        rows.push(interval(&mut sim, "after shift", rebalance));
    }
    rows
}

fn main() {
    eprintln!("popshift: shifting the hot set mid-run, with and without §3.3...");
    let without = run(false);
    let with = run(true);

    println!("§7 — adapting to a change of content access pattern\n");
    println!(
        "{:>9} {:>13} | {:>22} | {:>22}",
        "interval", "phase", "static placement", "with auto-replication"
    );
    println!(
        "{:>9} {:>13} | {:>10} {:>11} | {:>10} {:>11}",
        "", "", "imbalance", "rps", "imbalance", "rps"
    );
    println!("{}", "-".repeat(78));
    for i in 0..without.len() {
        println!(
            "{:>9} {:>13} | {:>10.2} {:>11.0} | {:>10.2} {:>11.0}",
            i + 1,
            without[i].label,
            without[i].imbalance,
            without[i].throughput,
            with[i].imbalance,
            with[i].throughput
        );
    }

    let post = INTERVALS_BEFORE as usize..without.len();
    let mean = |rows: &[Row], f: fn(&Row) -> f64| {
        rows[post.clone()].iter().map(f).sum::<f64>() / post.len() as f64
    };
    println!(
        "\npost-shift means: static imbalance {:.2} / {:.0} rps  vs  \
         auto-replication imbalance {:.2} / {:.0} rps",
        mean(&without, |r| r.imbalance),
        mean(&without, |r| r.throughput),
        mean(&with, |r| r.imbalance),
        mean(&with, |r| r.throughput),
    );
    println!(
        "auto-replication re-absorbs the shifted hot set: imbalance {:+.0}%, throughput {:+.0}%",
        (mean(&with, |r| r.imbalance) / mean(&without, |r| r.imbalance) - 1.0) * 100.0,
        (mean(&with, |r| r.throughput) / mean(&without, |r| r.throughput) - 1.0) * 100.0
    );

    let json = serde_json::json!({
        "without": without.iter().map(|r| serde_json::json!({
            "phase": r.label, "imbalance": r.imbalance, "throughput_rps": r.throughput,
        })).collect::<Vec<_>>(),
        "with": with.iter().map(|r| serde_json::json!({
            "phase": r.label, "imbalance": r.imbalance, "throughput_rps": r.throughput,
        })).collect::<Vec<_>>(),
    });
    std::fs::create_dir_all("bench_results").expect("create bench_results dir");
    std::fs::write(
        "bench_results/popshift.json",
        serde_json::to_string_pretty(&json).expect("serialize"),
    )
    .expect("write results");
    eprintln!("wrote bench_results/popshift.json");
}
