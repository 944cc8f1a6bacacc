//! §3.3 — auto-replication behaviour (no figure number; the paper claims
//! the mechanism "could further ensure an even load distribution and
//! self-configure with respect to the change of content access pattern").
//!
//! Setup: a deliberately *bad* partition — each class's hottest objects
//! packed contiguously onto the first nodes, the way a naive
//! directory-based split lands when popularity is unknown. Then run the
//! cluster twice: once static, once with the auto-replication loop
//! planning and applying actions between intervals.
//!
//! Reported per interval: the paper's load metric `L_j` imbalance
//! (max/avg) and throughput. Expected shape: with auto-replication the
//! imbalance falls interval over interval and throughput rises; without
//! it both stay bad.
//!
//! Run with: `cargo run --release -p cpms-sim --bin autorep`

use cpms_model::{
    ContentKind, LoadSample, LoadTracker, NodeId, NodeSpec, RequestClass, SimDuration,
};
use cpms_sim::{Router, SimConfig, Simulation};
use cpms_urltable::{AutoReplicator, UrlEntry, UrlTable};
use cpms_workload::{Corpus, CorpusBuilder, WorkloadSpec};

/// The naive skewed partition: class ids are hottest-first, so contiguous
/// chunks put all the hot content on the first node of each chunk range.
fn skewed_partition(corpus: &Corpus, nodes: usize) -> UrlTable {
    let mut table = UrlTable::new();
    for class in RequestClass::ALL {
        let ids = corpus.class_ids(class);
        for (rank, &id) in ids.iter().enumerate() {
            let node = NodeId((rank * nodes / ids.len().max(1)) as u16);
            let item = corpus.get(id);
            table
                .insert(
                    item.path().clone(),
                    UrlEntry::new(id, item.kind(), item.size_bytes()).with_locations([node]),
                )
                .expect("corpus paths unique");
        }
    }
    table
}

struct IntervalRow {
    imbalance: f64,
    throughput: f64,
}

/// Which interval load metric drives the planner.
#[derive(Clone, Copy)]
enum Metric {
    /// No rebalancing at all.
    None,
    /// The paper's §3.3 metric: per-kind constants × processing time ×
    /// frequency / weight.
    Paper,
    /// A naive metric: request count / weight (every request weighs the
    /// same) — the ablation for the paper's "heuristic constants that make
    /// intuitive sense".
    NaiveCount,
}

fn run(metric: Metric, intervals: u32) -> Vec<IntervalRow> {
    let corpus = CorpusBuilder::paper_site().seed(1).build();
    let specs = vec![NodeSpec::testbed_350(); 6];
    let weights: Vec<f64> = specs.iter().map(NodeSpec::weight).collect();
    let table = skewed_partition(&corpus, specs.len());
    let mut config = SimConfig::builder();
    config.nodes(specs.clone()).clients(64).seed(5);
    let mut sim = Simulation::new(
        config.build(),
        &corpus,
        table,
        Router::ContentAware,
        &WorkloadSpec::workload_a(),
    );
    let planner = AutoReplicator::new(0.15)
        .with_max_actions(32)
        .with_hot_candidates(16);

    let _ = sim.run_window(SimDuration::from_secs(5)); // warm-up
    let mut rows = Vec::new();
    for _ in 0..intervals {
        let report = sim.run_window(SimDuration::from_secs(10));
        let mut tracker = LoadTracker::new(weights.clone());
        for s in &report.load_samples {
            tracker.record(*s);
        }
        let loads = tracker.node_loads();
        let avg = tracker.average_load();
        let max = loads.iter().map(|l| l.load).fold(0.0f64, f64::max);
        rows.push(IntervalRow {
            imbalance: if avg > 0.0 { max / avg } else { 0.0 },
            throughput: report.throughput_rps(),
        });
        // The planner consumes whichever tracker variant the metric
        // prescribes; imbalance above is always reported with the paper
        // metric so the rows are comparable.
        match metric {
            Metric::None => {}
            Metric::Paper => {
                sim.rebalance(&planner, &tracker);
            }
            Metric::NaiveCount => {
                let mut naive = LoadTracker::new(weights.clone());
                for s in &report.load_samples {
                    naive.record(LoadSample {
                        kind: ContentKind::StaticHtml,
                        processing_time: SimDuration::from_millis(10),
                        ..*s
                    });
                }
                sim.rebalance(&planner, &naive);
            }
        }
    }
    rows
}

fn main() {
    const INTERVALS: u32 = 8;
    eprintln!("autorep: running skewed cluster with and without auto-replication...");
    let without = run(Metric::None, INTERVALS);
    let with = run(Metric::Paper, INTERVALS);
    let naive = run(Metric::NaiveCount, INTERVALS);

    println!("§3.3 — auto-replication on a deliberately skewed partition\n");
    println!(
        "{:>9} | {:>24} | {:>24}",
        "interval", "static (no rebalance)", "with auto-replication"
    );
    println!(
        "{:>9} | {:>12} {:>11} | {:>12} {:>11}",
        "", "imbalance", "rps", "imbalance", "rps"
    );
    println!("{}", "-".repeat(64));
    for i in 0..INTERVALS as usize {
        println!(
            "{:>9} | {:>12.2} {:>11.0} | {:>12.2} {:>11.0}",
            i + 1,
            without[i].imbalance,
            without[i].throughput,
            with[i].imbalance,
            with[i].throughput
        );
    }

    let last = INTERVALS as usize - 1;
    println!(
        "\nfinal imbalance (max L_j / avg): {:.2} -> {:.2}",
        without[last].imbalance, with[last].imbalance
    );
    println!(
        "final throughput: {:.0} -> {:.0} rps ({:+.0}%)",
        without[last].throughput,
        with[last].throughput,
        (with[last].throughput / without[last].throughput - 1.0) * 100.0
    );

    // Ablation: the paper's weighted metric vs naive request counting.
    println!(
        "\nload-metric ablation (final interval): paper metric {:.0} rps vs naive count {:.0} rps",
        with[last].throughput, naive[last].throughput
    );
    println!(
        "imbalance: paper {:.2} vs naive {:.2}",
        with[last].imbalance, naive[last].imbalance
    );

    let report = serde_json::json!({
        "intervals": INTERVALS,
        "naive": naive.iter().map(|r| serde_json::json!({
            "imbalance": r.imbalance, "throughput_rps": r.throughput,
        })).collect::<Vec<_>>(),
        "without": without.iter().map(|r| serde_json::json!({
            "imbalance": r.imbalance, "throughput_rps": r.throughput,
        })).collect::<Vec<_>>(),
        "with": with.iter().map(|r| serde_json::json!({
            "imbalance": r.imbalance, "throughput_rps": r.throughput,
        })).collect::<Vec<_>>(),
    });
    std::fs::create_dir_all("bench_results").expect("create bench_results dir");
    std::fs::write(
        "bench_results/autorep.json",
        serde_json::to_string_pretty(&report).expect("serialize"),
    )
    .expect("write results");
    eprintln!("wrote bench_results/autorep.json");
}
