//! Criterion micro-benchmarks for the URL table (§5.2): the per-request
//! routing lookup, with and without the recently-accessed-entry cache, at
//! the paper's 8 700-object scale — plus a multi-threaded contended-lookup
//! comparison of the seed `Arc<RwLock<UrlTable>>` design against the
//! snapshot-publication design used by the live distributor, written to
//! `bench_results/urltable_concurrent.json`.

use cpms_model::{NodeId, NodeSpec, UrlPath};
use cpms_sim::placement;
use cpms_urltable::{LookupCache, TablePublisher, UrlTable};
use cpms_workload::{CorpusBuilder, RequestSampler, WorkloadSpec};
use criterion::{criterion_group, BatchSize, Criterion};
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn paper_table() -> (UrlTable, Vec<UrlPath>) {
    let corpus = CorpusBuilder::paper_site().seed(1).build();
    let table = placement::partition_by_type(
        &corpus,
        &NodeSpec::paper_testbed(),
        placement::StaticSpread::AllNodes,
    );
    // A Zipf-skewed probe stream, like live routing traffic.
    let sampler = RequestSampler::new(&corpus, &WorkloadSpec::workload_b(), 3);
    let mut rng = StdRng::seed_from_u64(4);
    let probes: Vec<UrlPath> = (0..8_192)
        .map(|_| corpus.get(sampler.sample_id(&mut rng)).path().clone())
        .collect();
    (table, probes)
}

fn bench_lookup(c: &mut Criterion) {
    let (table, probes) = paper_table();
    let mut group = c.benchmark_group("urltable");

    group.bench_function("lookup_uncached_8700_objects", |b| {
        let mut i = 0;
        b.iter(|| {
            let path = &probes[i % probes.len()];
            i += 1;
            black_box(table.lookup(path))
        });
    });

    group.bench_function("lookup_cached_8700_objects", |b| {
        let mut cache = LookupCache::new(4_096);
        // warm the cache
        for path in &probes {
            cache.lookup(&table, path);
        }
        let mut i = 0;
        b.iter(|| {
            let path = &probes[i % probes.len()];
            i += 1;
            black_box(cache.lookup(&table, path))
        });
    });

    group.bench_function("lookup_miss", |b| {
        let missing: UrlPath = "/definitely/not/present.html".parse().expect("valid");
        b.iter(|| black_box(table.lookup(&missing)));
    });

    group.bench_function("insert_remove", |b| {
        use cpms_model::{ContentId, ContentKind};
        use cpms_urltable::UrlEntry;
        let path: UrlPath = "/bench/new/object.html".parse().expect("valid");
        b.iter_batched(
            || table.clone(),
            |mut t| {
                t.insert(
                    path.clone(),
                    UrlEntry::new(ContentId(u32::MAX), ContentKind::StaticHtml, 100),
                )
                .expect("fresh path");
                t.remove(&path).expect("present");
                black_box(t.len())
            },
            BatchSize::LargeInput,
        );
    });

    group.finish();
}

// ---------------------------------------------------------------------------
// Contended lookups: the seed design (one `Arc<RwLock<UrlTable>>` shared by
// every worker, per-worker caches reading through the lock) against the
// snapshot design (generation-tagged `Arc<UrlTable>` swaps, wait-free
// reader pins). 1/2/4/8 reader threads, a management writer mutating the
// table 0/1/10 times per second.
// ---------------------------------------------------------------------------

const CELL_DURATION: Duration = Duration::from_millis(500);
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const MUTATION_RATES: [u32; 3] = [0, 1, 10];

/// Picks the replica-churn path used by the writer: an existing record, so
/// each mutation is a routing change that bumps the table generation and
/// invalidates every reader cache.
fn churn_path(table: &UrlTable) -> UrlPath {
    table.iter().next().expect("paper table is non-empty").0
}

/// Runs `readers` routing threads for [`CELL_DURATION`] against the seed
/// design and returns total lookups completed. This reproduces the seed
/// proxy's per-request routing step: every worker takes the *exclusive*
/// lock for its lookup (the seed bumped a per-record hit counter inline,
/// so even reads needed `write()`), with no cache in the request path.
fn run_rwlock_cell(table: &UrlTable, probes: &[UrlPath], readers: usize, rate: u32) -> u64 {
    let shared = Arc::new(RwLock::new(table.clone()));
    let churn = churn_path(table);
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        for t in 0..readers {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let total = Arc::clone(&total);
            scope.spawn(move || {
                let mut ops = 0u64;
                let mut i = t; // stagger probe phases across threads
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..64 {
                        let path = &probes[i % probes.len()];
                        i += 1;
                        let guard = shared.write();
                        black_box(guard.lookup(path));
                        ops += 1;
                    }
                }
                total.fetch_add(ops, Ordering::Relaxed);
            });
        }
        if rate > 0 {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let churn = churn.clone();
            scope.spawn(move || {
                let interval = Duration::from_secs(1) / rate;
                let mut flip = false;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval.min(Duration::from_millis(20)));
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let mut guard = shared.write();
                    if flip {
                        let _ = guard.remove_location(&churn, NodeId(999));
                    } else {
                        let _ = guard.add_location(&churn, NodeId(999));
                    }
                    flip = !flip;
                }
            });
        }
        std::thread::sleep(CELL_DURATION);
        stop.store(true, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed)
}

/// Same workload against the snapshot-publication design.
fn run_snapshot_cell(table: &UrlTable, probes: &[UrlPath], readers: usize, rate: u32) -> u64 {
    let publisher = TablePublisher::new(table.clone());
    let churn = churn_path(table);
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        for t in 0..readers {
            let handle = publisher.handle();
            let stop = Arc::clone(&stop);
            let total = Arc::clone(&total);
            scope.spawn(move || {
                let mut reader = handle.reader(4_096);
                let mut ops = 0u64;
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..64 {
                        let path = &probes[i % probes.len()];
                        i += 1;
                        black_box(reader.lookup(path));
                        ops += 1;
                    }
                }
                total.fetch_add(ops, Ordering::Relaxed);
            });
        }
        if rate > 0 {
            let publisher = &publisher;
            let stop = Arc::clone(&stop);
            let churn = churn.clone();
            scope.spawn(move || {
                let interval = Duration::from_secs(1) / rate;
                let mut flip = false;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval.min(Duration::from_millis(20)));
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if flip {
                        let _ = publisher.update(|u| u.remove_location(&churn, NodeId(999)));
                    } else {
                        let _ = publisher.update(|u| u.add_location(&churn, NodeId(999)));
                    }
                    flip = !flip;
                }
            });
        }
        std::thread::sleep(CELL_DURATION);
        stop.store(true, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed)
}

fn bench_contended() {
    let (table, probes) = paper_table();
    let mut cells = Vec::new();
    let secs = CELL_DURATION.as_secs_f64();

    println!(
        "\ncontended lookups ({}ms per cell):",
        CELL_DURATION.as_millis()
    );
    for &threads in &THREAD_COUNTS {
        for &rate in &MUTATION_RATES {
            let start = Instant::now();
            let rwlock_ops = run_rwlock_cell(&table, &probes, threads, rate);
            let snapshot_ops = run_snapshot_cell(&table, &probes, threads, rate);
            let speedup = snapshot_ops as f64 / rwlock_ops.max(1) as f64;
            println!(
                "  threads={threads} mut/s={rate:>2}  rwlock={:>10.0}/s  snapshot={:>10.0}/s  speedup={speedup:.2}x  ({:?})",
                rwlock_ops as f64 / secs,
                snapshot_ops as f64 / secs,
                start.elapsed(),
            );
            cells.push(serde_json::json!({
                "threads": threads,
                "mutations_per_sec": rate,
                "rwlock_lookups_per_sec": rwlock_ops as f64 / secs,
                "snapshot_lookups_per_sec": snapshot_ops as f64 / secs,
                "snapshot_speedup": speedup,
            }));
        }
    }

    let out = serde_json::json!({
        "bench": "urltable_concurrent",
        "table_objects": table.len(),
        "cell_duration_ms": CELL_DURATION.as_millis() as u64,
        "designs": {
            "rwlock": "seed: Arc<RwLock<UrlTable>>, write()+lookup per request (the seed's inline hit accounting forced the exclusive lock, no cache in the request path)",
            "snapshot": "TablePublisher snapshots, per-thread SnapshotReader (wait-free pinned reads through a private cache)",
        },
        "cells": cells,
    });
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench_results/urltable_concurrent.json"
    );
    std::fs::write(path, serde_json::to_string_pretty(&out).expect("serialize"))
        .expect("write bench_results/urltable_concurrent.json");
    println!("wrote bench_results/urltable_concurrent.json");
}

criterion_group!(benches, bench_lookup);

fn main() {
    benches();
    bench_contended();
}
