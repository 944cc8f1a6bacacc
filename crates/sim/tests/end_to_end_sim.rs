//! End-to-end simulation tests: full experiments through the public API,
//! checking system-level invariants rather than figure shapes (those live
//! in the root `tests/figure_shapes.rs`).

use cpms_model::{NodeId, NodeSpec, RequestClass, SimDuration, WorkloadKind};
use cpms_sim::{Experiment, ExperimentBuilder, PlacementPolicy, RebalanceConfig, RouterChoice};

fn quick() -> ExperimentBuilder {
    Experiment::builder()
        .corpus_objects(800)
        .nodes(NodeSpec::paper_testbed())
        .windows(SimDuration::from_secs(2), SimDuration::from_secs(8))
        .seed(7)
}

#[test]
fn every_placement_router_combo_that_should_work_works() {
    // (placement, router, workload) combos the system supports: all must
    // complete traffic without misroutes or unroutable requests.
    let combos = [
        (
            PlacementPolicy::FullReplication,
            RouterChoice::WeightedLeastConnections,
            WorkloadKind::A,
        ),
        (
            PlacementPolicy::FullReplication,
            RouterChoice::RoundRobin,
            WorkloadKind::A,
        ),
        (
            PlacementPolicy::FullReplication,
            RouterChoice::DnsRoundRobin,
            WorkloadKind::A,
        ),
        (
            PlacementPolicy::FullReplication,
            RouterChoice::Random { seed: 3 },
            WorkloadKind::A,
        ),
        (
            PlacementPolicy::SharedNfs,
            RouterChoice::WeightedLeastConnections,
            WorkloadKind::A,
        ),
        (
            PlacementPolicy::PartitionedByType {
                segregate_dynamic: false,
            },
            RouterChoice::ContentAware,
            WorkloadKind::A,
        ),
        (
            PlacementPolicy::PartitionedByType {
                segregate_dynamic: true,
            },
            RouterChoice::ContentAware,
            WorkloadKind::B,
        ),
        (
            PlacementPolicy::PartialReplication {
                segregate_dynamic: true,
                hot_fraction: 0.1,
                copies: 2,
            },
            RouterChoice::ContentAware,
            WorkloadKind::B,
        ),
    ];
    for (placement, router, workload) in combos {
        let result = quick()
            .placement(placement)
            .router(router)
            .workload(workload)
            .clients(12)
            .build()
            .run();
        assert!(
            result.report.throughput_rps() > 10.0,
            "{placement} + {router}: throughput {}",
            result.report.throughput_rps()
        );
        assert_eq!(
            result.report.misroutes, 0,
            "{placement} + {router}: misroutes"
        );
        assert_eq!(
            result.report.unroutable, 0,
            "{placement} + {router}: unroutable"
        );
    }
}

#[test]
fn request_conservation_across_windows() {
    let result = quick().clients(16).build().run();
    let r = &result.report;
    // Within the measured window: everything issued either completed,
    // misrouted, or is still in flight — modulo the in-flight carried in
    // from warm-up, which is bounded by the client count.
    let balance = r.issued as i64 + 16
        - (r.completed as i64 + r.misroutes as i64 + r.in_flight_at_end as i64);
    assert!(
        balance.unsigned_abs() <= 16,
        "request accounting out of balance by {balance}"
    );
}

#[test]
fn heterogeneous_nodes_show_heterogeneous_service() {
    // The same workload on the paper testbed: fast nodes must serve more
    // requests than slow nodes under WLC + full replication.
    let result = quick().clients(48).build().run();
    let nodes = &result.report.nodes;
    let slow: u64 = nodes[..3].iter().map(|n| n.requests).sum();
    let fast: u64 = nodes[5..].iter().map(|n| n.requests).sum();
    assert!(fast > slow, "fast {fast} vs slow {slow}");
}

#[test]
fn video_requests_are_rare_but_heavy() {
    let result = quick()
        .workload(WorkloadKind::B)
        .placement(PlacementPolicy::PartitionedByType {
            segregate_dynamic: true,
        })
        .router(RouterChoice::ContentAware)
        .clients(32)
        .windows(SimDuration::from_secs(2), SimDuration::from_secs(20))
        .build()
        .run();
    let report = &result.report;
    if let Some(video) = report.class(RequestClass::Video) {
        let static_class = report.class(RequestClass::Static).expect("static traffic");
        assert!(video.completed < static_class.completed / 20);
        assert!(
            video.mean_response_ms > 10.0 * static_class.mean_response_ms,
            "video {} vs static {}",
            video.mean_response_ms,
            static_class.mean_response_ms
        );
    }
}

#[test]
fn rebalancing_does_not_lose_content() {
    let exp = quick()
        .placement(PlacementPolicy::PartitionedByType {
            segregate_dynamic: false,
        })
        .router(RouterChoice::ContentAware)
        .clients(24)
        .rebalance(RebalanceConfig {
            threshold: 0.1,
            intervals: 4,
            interval: SimDuration::from_secs(2),
            max_actions: 16,
        })
        .build();
    let result = exp.run();
    // after all rebalancing the measured window still routes everything
    assert_eq!(result.report.unroutable, 0);
    assert_eq!(result.report.misroutes, 0);
    assert!(result.report.throughput_rps() > 10.0);
}

#[test]
fn dispatcher_utilization_is_reported_and_sane() {
    let result = quick().clients(32).build().run();
    let u = result.report.dispatcher_utilization;
    assert!((0.0..=1.0).contains(&u), "dispatcher utilization {u}");
    assert!(u > 0.0, "dispatcher did work");
}

#[test]
fn http_redirection_pays_round_trips() {
    // Same placement and decisions; only the delivery mechanism differs.
    // At WAN RTTs redirection's two extra round trips per request must
    // show up in response time and throughput (§2.1's argument).
    let placement = PlacementPolicy::PartitionedByType {
        segregate_dynamic: false,
    };
    let spliced = quick()
        .placement(placement)
        .router(RouterChoice::ContentAware)
        .clients(24)
        .build()
        .run();
    let redirected = quick()
        .placement(placement)
        .router(RouterChoice::HttpRedirect {
            client_rtt_micros: 40_000, // 40 ms WAN clients
        })
        .clients(24)
        .build()
        .run();
    assert_eq!(redirected.report.misroutes, 0, "redirect is content-aware");
    assert!(
        redirected.report.mean_response_ms() > spliced.report.mean_response_ms() + 50.0,
        "redirect {}ms vs spliced {}ms",
        redirected.report.mean_response_ms(),
        spliced.report.mean_response_ms()
    );
    assert!(redirected.report.throughput_rps() < spliced.report.throughput_rps());
}

#[test]
fn replication_provides_availability_under_node_failure() {
    // §1.2: "The administrator can replicate some critical content to
    // multiple nodes for achieving high availability." Single-copy
    // partitioning loses content when its node dies; partial replication
    // keeps the hot set reachable.
    use cpms_dispatch::ContentAwareRouter;
    use cpms_sim::{placement, SimConfig, Simulation};
    use cpms_workload::{CorpusBuilder, WorkloadSpec};

    // Mutable content is deliberately single-copy (§4) and so can never
    // survive its node; keep it out of an availability check that wants
    // two copies of *everything*.
    let corpus = CorpusBuilder::small_site()
        .seed(21)
        .mutable_fraction(0.0)
        .build();
    let specs = vec![NodeSpec::testbed_350(); 4];

    let run = |replicated: bool| {
        let table = if replicated {
            let mut t =
                placement::partition_by_type(&corpus, &specs, placement::StaticSpread::AllNodes);
            placement::replicate_hot_content(&mut t, &corpus, &specs, 1.0, 2);
            t
        } else {
            placement::partition_by_type(&corpus, &specs, placement::StaticSpread::AllNodes)
        };
        let mut config = SimConfig::builder();
        config.nodes(specs.clone()).clients(8).seed(5);
        let mut sim = Simulation::new(
            config.build(),
            &corpus,
            table,
            Box::new(ContentAwareRouter::new()),
            &WorkloadSpec::workload_a(),
        );
        let _ = sim.run_window(SimDuration::from_secs(2));
        sim.set_node_alive(NodeId(0), false); // kill a node
        sim.run_window(SimDuration::from_secs(6))
    };

    let single_copy = run(false);
    let replicated = run(true);
    assert!(
        single_copy.unroutable > 0,
        "single-copy placement must lose content with its node"
    );
    assert_eq!(
        replicated.unroutable, 0,
        "two copies of everything keep the site fully available"
    );
    assert!(replicated.throughput_rps() > single_copy.throughput_rps());
}
