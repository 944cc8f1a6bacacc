//! Differentiated QoS (§1.2/§4): critical content pinned to the most
//! capable nodes must get measurably better service, and the per-priority
//! reporting that proves it must be present.

use cpms_model::Priority;
use cpms_model::{NodeSpec, SimDuration, WorkloadKind};
use cpms_sim::{Experiment, ExperimentBuilder, PlacementPolicy, Router};

fn base() -> ExperimentBuilder {
    Experiment::builder()
        .corpus_objects(4_000)
        .nodes(NodeSpec::paper_testbed())
        .workload(WorkloadKind::A)
        .clients(64)
        .windows(SimDuration::from_secs(5), SimDuration::from_secs(20))
        .seed(13)
}

#[test]
fn per_priority_reports_are_emitted() {
    let result = base()
        .placement(PlacementPolicy::PartitionedByType {
            segregate_dynamic: false,
        })
        .router(Router::ContentAware)
        .build()
        .run();
    // The corpus marks ~2% of objects critical; both bands must appear.
    let critical = result.report.priority(Priority::Critical);
    let normal = result.report.priority(Priority::Normal);
    assert!(critical.is_some(), "critical traffic reported");
    assert!(normal.is_some(), "normal traffic reported");
    let total: u64 = result.report.priorities.iter().map(|p| p.completed).sum();
    assert_eq!(
        total, result.report.completed,
        "priority bands partition traffic"
    );
}

#[test]
fn qos_pinning_improves_critical_latency() {
    // Identical run except for the placement policy: with QoS pinning,
    // critical objects live (replicated) on the strongest nodes, so their
    // tail latency must improve relative to the unpinned partition.
    let unpinned = base()
        .placement(PlacementPolicy::PartitionedByType {
            segregate_dynamic: false,
        })
        .router(Router::ContentAware)
        .build()
        .run();
    let pinned = base()
        .placement(PlacementPolicy::PartitionedWithQos {
            segregate_dynamic: false,
            critical_copies: 2,
        })
        .router(Router::ContentAware)
        .build()
        .run();

    let crit_unpinned = unpinned
        .report
        .priority(Priority::Critical)
        .expect("critical traffic")
        .p95_response_ms;
    let crit_pinned = pinned
        .report
        .priority(Priority::Critical)
        .expect("critical traffic")
        .p95_response_ms;
    assert!(
        crit_pinned < crit_unpinned,
        "pinning must improve critical p95: {crit_pinned:.1}ms vs {crit_unpinned:.1}ms"
    );
    // and it must not break routing
    assert_eq!(pinned.report.misroutes, 0);
    assert_eq!(pinned.report.unroutable, 0);
}

#[test]
fn critical_beats_normal_under_pinning() {
    let pinned = base()
        .placement(PlacementPolicy::PartitionedWithQos {
            segregate_dynamic: false,
            critical_copies: 3,
        })
        .router(Router::ContentAware)
        .build()
        .run();
    let critical = pinned
        .report
        .priority(Priority::Critical)
        .expect("critical traffic");
    let normal = pinned
        .report
        .priority(Priority::Normal)
        .expect("normal traffic");
    assert!(
        critical.p95_response_ms < normal.p95_response_ms,
        "critical p95 {:.1}ms should beat normal p95 {:.1}ms",
        critical.p95_response_ms,
        normal.p95_response_ms
    );
}
