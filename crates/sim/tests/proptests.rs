//! Property tests for the simulator: conservation, determinism, and
//! sanity of reports across randomized configurations.

use cpms_dispatch::{ContentAwareRouter, RoundRobin, WeightedLeastConnections};
use cpms_model::{NodeSpec, SimDuration};
use cpms_sim::{placement, SimConfig, Simulation};
use cpms_workload::{CorpusBuilder, WorkloadSpec};
use proptest::prelude::*;

fn specs_strategy() -> impl Strategy<Value = Vec<NodeSpec>> {
    prop::collection::vec(
        prop_oneof![
            Just(NodeSpec::testbed_150()),
            Just(NodeSpec::testbed_200()),
            Just(NodeSpec::testbed_350()),
        ],
        2..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Requests are conserved across windows for random clusters, client
    /// counts, seeds, and routers.
    #[test]
    fn request_conservation(
        specs in specs_strategy(),
        clients in 1u32..24,
        seed in 0u64..1000,
        router_pick in 0u8..3,
    ) {
        let corpus = CorpusBuilder::small_site().seed(seed).build();
        let table = placement::replicate_everywhere(&corpus, specs.len());
        let router: Box<dyn cpms_dispatch::Router> = match router_pick {
            0 => Box::new(WeightedLeastConnections::new()),
            1 => Box::new(RoundRobin::new()),
            _ => Box::new(ContentAwareRouter::new()),
        };
        let mut config = SimConfig::builder();
        config.nodes(specs).clients(clients).seed(seed);
        let mut sim = Simulation::new(
            config.build(),
            &corpus,
            table,
            router,
            &WorkloadSpec::workload_a(),
        );
        let mut carried = 0u64;
        for _ in 0..3 {
            let r = sim.run_window(SimDuration::from_secs(2));
            prop_assert_eq!(
                r.issued + carried,
                r.completed + r.misroutes + r.in_flight_at_end,
                "window conservation"
            );
            prop_assert!(r.in_flight_at_end <= clients as u64);
            carried = r.in_flight_at_end;
            // Sanity: utilizations in range.
            for n in &r.nodes {
                prop_assert!((0.0..=1.0).contains(&n.cpu_utilization));
                prop_assert!((0.0..=1.0).contains(&n.disk_utilization));
                prop_assert!((0.0..=1.0).contains(&n.nic_utilization));
                prop_assert!((0.0..=1.0).contains(&n.cache_hit_rate));
            }
            // Per-class completions sum to the total.
            let by_class: u64 = r.classes.iter().map(|c| c.completed).sum();
            prop_assert_eq!(by_class, r.completed);
            // Load samples cover completions exactly.
            prop_assert_eq!(r.load_samples.len() as u64, r.completed);
        }
    }

    /// Two simulations with identical inputs produce identical reports.
    #[test]
    fn determinism(seed in 0u64..500, clients in 1u32..16) {
        let corpus = CorpusBuilder::small_site().seed(3).build();
        let run = || {
            let table = placement::partition_by_type(
                &corpus,
                &NodeSpec::paper_testbed(),
                placement::StaticSpread::AllNodes,
            );
            let mut config = SimConfig::builder();
            config.nodes(NodeSpec::paper_testbed()).clients(clients).seed(seed);
            let mut sim = Simulation::new(
                config.build(),
                &corpus,
                table,
                Box::new(ContentAwareRouter::new()),
                &WorkloadSpec::workload_a(),
            );
            sim.run_window(SimDuration::from_secs(3))
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.issued, b.issued);
        prop_assert_eq!(&a.classes, &b.classes);
        prop_assert_eq!(&a.nodes, &b.nodes);
        prop_assert_eq!(a.load_samples.len(), b.load_samples.len());
    }

    /// Response times are strictly positive and mean <= p95 per class.
    #[test]
    fn response_time_sanity(seed in 0u64..200) {
        let corpus = CorpusBuilder::small_site().seed(seed).build();
        let table = placement::replicate_everywhere(&corpus, 3);
        let mut config = SimConfig::builder();
        config.nodes(vec![NodeSpec::testbed_350(); 3]).clients(6).seed(seed);
        let mut sim = Simulation::new(
            config.build(),
            &corpus,
            table,
            Box::new(WeightedLeastConnections::new()),
            &WorkloadSpec::workload_b(),
        );
        let r = sim.run_window(SimDuration::from_secs(4));
        for c in &r.classes {
            prop_assert!(c.mean_response_ms > 0.0, "{:?}", c);
            prop_assert!(c.p50_response_ms <= c.p95_response_ms + 1e-9);
            // mean can exceed p50 on skewed data, but never p95 by much
            // (p95 bounds all but the extreme tail).
            prop_assert!(
                c.mean_response_ms <= c.p95_response_ms * 2.0,
                "mean {} vs p95 {}",
                c.mean_response_ms,
                c.p95_response_ms
            );
        }
    }
}
