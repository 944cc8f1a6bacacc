//! Criterion benchmark of the discrete-event simulator's event throughput
//! (simulated seconds per wall-clock second at paper scale).

use cpms_model::{NodeSpec, SimDuration};
use cpms_sim::{placement, Router, SimConfig, Simulation};
use cpms_workload::{CorpusBuilder, WorkloadSpec};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn bench_sim(c: &mut Criterion) {
    let corpus = CorpusBuilder::paper_site().seed(1).build();
    let specs = NodeSpec::paper_testbed();

    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);

    group.bench_function("full_replication_5s_window", |b| {
        b.iter_batched(
            || {
                let table = placement::replicate_everywhere(&corpus, specs.len());
                let mut config = SimConfig::builder();
                config.nodes(specs.clone()).clients(64).seed(3);
                Simulation::new(
                    config.build(),
                    &corpus,
                    table,
                    Router::WeightedLeastConnections,
                    &WorkloadSpec::workload_a(),
                )
            },
            |mut sim| black_box(sim.run_window(SimDuration::from_secs(5)).completed),
            BatchSize::PerIteration,
        );
    });

    group.bench_function("partitioned_content_aware_5s_window", |b| {
        b.iter_batched(
            || {
                let table = placement::partition_by_type(
                    &corpus,
                    &specs,
                    placement::StaticSpread::AllNodes,
                );
                let mut config = SimConfig::builder();
                config.nodes(specs.clone()).clients(64).seed(3);
                Simulation::new(
                    config.build(),
                    &corpus,
                    table,
                    Router::ContentAware,
                    &WorkloadSpec::workload_a(),
                )
            },
            |mut sim| black_box(sim.run_window(SimDuration::from_secs(5)).completed),
            BatchSize::PerIteration,
        );
    });

    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
