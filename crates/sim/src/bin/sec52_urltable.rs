//! §5.2 — "Overhead of Content-Aware Routing" (the in-text table).
//!
//! The paper measured, on their live site: "Our Web site contains about
//! 8700 Web objects. In such scale, the memory consumed by the URL table
//! is about 260k bytes. During the peak load, the average lookup time is
//! about 4.32 µsecs, which is insignificant."
//!
//! This binary builds a URL table over the same-sized synthetic corpus,
//! reports its memory footprint, and measures the average lookup time
//! under a Zipf-skewed request stream — with and without the
//! recently-accessed-entry cache (the paper's demultiplexing speedup).
//!
//! Run with: `cargo run --release -p cpms-sim --bin sec52_urltable`

use cpms_model::UrlPath;
use cpms_sim::placement;
use cpms_urltable::{LookupCache, TableStats};
use cpms_workload::{CorpusBuilder, RequestSampler, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let corpus = CorpusBuilder::paper_site().seed(1).build();
    let table = placement::partition_by_type(
        &corpus,
        &cpms_model::NodeSpec::paper_testbed(),
        placement::StaticSpread::AllNodes,
    );
    let stats = TableStats::collect(&table);

    println!("§5.2 — URL table overhead (paper-scale site)\n");
    println!("objects in table:        {}", stats.entries);
    println!(
        "table memory:            {} bytes ({:.0} KB; paper: ~260 KB in C)",
        stats.memory_bytes,
        stats.memory_bytes as f64 / 1024.0
    );
    println!(
        "mean replication factor: {:.2}",
        stats.mean_replication_factor
    );

    // A Zipf-skewed lookup stream, like peak-load routing traffic.
    let sampler = RequestSampler::new(&corpus, &WorkloadSpec::workload_b(), 3);
    let mut rng = StdRng::seed_from_u64(9);
    const LOOKUPS: usize = 1_000_000;
    let paths: Vec<UrlPath> = (0..LOOKUPS)
        .map(|_| corpus.get(sampler.sample_id(&mut rng)).path().clone())
        .collect();

    // Uncached lookups.
    let start = Instant::now();
    let mut found = 0usize;
    for path in &paths {
        if table.lookup(path).is_some() {
            found += 1;
        }
    }
    let uncached = start.elapsed();
    assert_eq!(found, LOOKUPS, "all corpus paths resolve");

    // Cached lookups (the paper's recently-accessed-entry cache).
    let mut cache = LookupCache::new(4096);
    // warm
    for path in paths.iter().take(100_000) {
        cache.lookup(&table, path);
    }
    let start = Instant::now();
    let mut cached_found = 0usize;
    for path in &paths {
        if cache.lookup(&table, path).is_some() {
            cached_found += 1;
        }
    }
    let cached = start.elapsed();
    assert_eq!(cached_found, LOOKUPS);

    let per = |d: std::time::Duration| d.as_nanos() as f64 / LOOKUPS as f64 / 1000.0;
    println!("\nlookups measured:        {LOOKUPS}");
    println!(
        "avg lookup (no cache):   {:.3} µs   (paper: ~4.32 µs on a 350 MHz CPU)",
        per(uncached)
    );
    println!(
        "avg lookup (cached):     {:.3} µs   cache hit rate {:.2}",
        per(cached),
        cache.hit_rate()
    );

    let report = serde_json::json!({
        "objects": stats.entries,
        "memory_bytes": stats.memory_bytes,
        "lookups": LOOKUPS,
        "avg_lookup_us_uncached": per(uncached),
        "avg_lookup_us_cached": per(cached),
        "cache_hit_rate": cache.hit_rate(),
        "paper_memory_bytes": 260_000,
        "paper_avg_lookup_us": 4.32,
    });
    std::fs::create_dir_all("bench_results").expect("create bench_results dir");
    std::fs::write(
        "bench_results/sec52_urltable.json",
        serde_json::to_string_pretty(&report).expect("serialize"),
    )
    .expect("write results");
    eprintln!("wrote bench_results/sec52_urltable.json");
}
