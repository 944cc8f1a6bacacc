//! The experiment runner: one declarative description per figure/table of
//! the paper's evaluation, executed on the simulator.
//!
//! ```
//! use cpms_model::{NodeSpec, WorkloadKind};
//! use cpms_sim::{Experiment, PlacementPolicy, Router};
//!
//! let result = Experiment::builder()
//!     .corpus_objects(500)
//!     .nodes(vec![NodeSpec::testbed_350(); 4])
//!     .placement(PlacementPolicy::PartitionedByType { segregate_dynamic: false })
//!     .router(Router::ContentAware)
//!     .workload(WorkloadKind::A)
//!     .clients(16)
//!     .seed(7)
//!     .build()
//!     .run();
//! assert!(result.report.throughput_rps() > 0.0);
//! ```

use crate::placement::PlacementPolicy;
use crate::routing::Router;
use crate::{SimConfig, SimReport, Simulation};
use cpms_model::{LoadTracker, NodeSpec, SimDuration, WorkloadKind};
use cpms_urltable::AutoReplicator;
use cpms_workload::{Corpus, CorpusBuilder, WorkloadSpec};

/// Seed of every experiment's generated corpus: runs that differ in their
/// request seed still serve the same site.
const CORPUS_SEED: u64 = 1;

/// Auto-replication settings for an experiment (§3.3 running between
/// measurement intervals).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Overload/underutilization threshold as a fraction of average load.
    pub threshold: f64,
    /// How many rebalancing intervals to run before the measured window.
    pub intervals: u32,
    /// Length of each rebalancing interval.
    pub interval: SimDuration,
    /// Maximum actions applied per interval.
    pub max_actions: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            threshold: 0.25,
            intervals: 4,
            interval: SimDuration::from_secs(10),
            max_actions: 16,
        }
    }
}

/// Builder for [`Experiment`].
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    corpus_objects: usize,
    nodes: Vec<NodeSpec>,
    placement: PlacementPolicy,
    router: Router,
    workload: WorkloadKind,
    clients: u32,
    warmup: SimDuration,
    measure: SimDuration,
    think_time: SimDuration,
    seed: u64,
    nfs_server: NodeSpec,
    rebalance: Option<RebalanceConfig>,
}

impl Default for ExperimentBuilder {
    fn default() -> Self {
        ExperimentBuilder {
            corpus_objects: 8_700,
            nodes: NodeSpec::paper_testbed(),
            placement: PlacementPolicy::FullReplication,
            router: Router::WeightedLeastConnections,
            workload: WorkloadKind::A,
            clients: 32,
            warmup: SimDuration::from_secs(10),
            measure: SimDuration::from_secs(30),
            think_time: SimDuration::from_millis(25),
            seed: 7,
            nfs_server: NodeSpec::testbed_350(),
            rebalance: None,
        }
    }
}

impl ExperimentBuilder {
    /// Sets the corpus size (default: the paper's ~8 700 objects).
    pub fn corpus_objects(mut self, n: usize) -> Self {
        self.corpus_objects = n;
        self
    }

    /// Sets the cluster hardware (default: the paper's nine machines).
    pub fn nodes(mut self, nodes: Vec<NodeSpec>) -> Self {
        self.nodes = nodes;
        self
    }

    /// Sets the placement policy.
    pub fn placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the routing policy.
    pub fn router(mut self, router: Router) -> Self {
        self.router = router;
        self
    }

    /// Sets the workload (A = static, B = with CGI/ASP).
    pub fn workload(mut self, workload: WorkloadKind) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the closed-loop client count.
    pub fn clients(mut self, clients: u32) -> Self {
        self.clients = clients;
        self
    }

    /// Sets warm-up and measurement window lengths.
    pub fn windows(mut self, warmup: SimDuration, measure: SimDuration) -> Self {
        self.warmup = warmup;
        self.measure = measure;
        self
    }

    /// Sets the client think time.
    pub fn think_time(mut self, think: SimDuration) -> Self {
        self.think_time = think;
        self
    }

    /// Sets the run seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the NFS server hardware used by [`PlacementPolicy::SharedNfs`].
    pub fn nfs_server(mut self, spec: NodeSpec) -> Self {
        self.nfs_server = spec;
        self
    }

    /// Enables §3.3 auto-replication intervals before the measured window.
    pub fn rebalance(mut self, config: RebalanceConfig) -> Self {
        self.rebalance = Some(config);
        self
    }

    /// Builds the experiment (generates the corpus).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (no nodes, zero clients,
    /// workload/corpus mismatch).
    pub fn build(self) -> Experiment {
        assert!(!self.nodes.is_empty(), "experiment needs nodes");
        assert!(self.clients > 0, "experiment needs clients");
        let corpus = CorpusBuilder::paper_site()
            .total_objects(self.corpus_objects)
            .seed(CORPUS_SEED)
            .build();
        Experiment {
            corpus,
            builder: self,
        }
    }
}

/// A fully specified experiment over a generated corpus.
#[derive(Debug)]
pub struct Experiment {
    corpus: Corpus,
    builder: ExperimentBuilder,
}

/// The outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The measured window's report.
    pub report: SimReport,
    /// Reports of the auto-replication intervals that preceded the
    /// measurement (empty without rebalancing).
    pub interval_reports: Vec<SimReport>,
    /// Total rebalance actions applied.
    pub rebalance_actions: usize,
    /// Placement label, for report rows.
    pub placement: &'static str,
    /// Router label.
    pub router: &'static str,
    /// Workload label.
    pub workload: &'static str,
    /// Client count.
    pub clients: u32,
}

impl Experiment {
    /// Starts building an experiment.
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::default()
    }

    /// The generated corpus (shared across runs/sweeps).
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Runs the experiment once at the configured client count.
    pub fn run(&self) -> ExperimentResult {
        self.run_with_clients(self.builder.clients)
    }

    /// Runs the experiment at a specific client count (used by sweeps).
    pub fn run_with_clients(&self, clients: u32) -> ExperimentResult {
        let b = &self.builder;
        let specs = b.nodes.clone();
        let table = b.placement.build_table(&self.corpus, &specs);
        let spec = workload_spec(b.workload);

        let mut config = SimConfig::builder();
        config
            .nodes(specs.clone())
            .clients(clients)
            .think_time(b.think_time)
            .seed(b.seed);
        if b.placement.needs_nfs() {
            config.nfs(b.nfs_server.clone());
        }
        let mut sim = Simulation::new(config.build(), &self.corpus, table, b.router, &spec);

        // Warm-up (discarded).
        let _ = sim.run_window(b.warmup);

        // Optional §3.3 auto-replication intervals.
        let mut interval_reports = Vec::new();
        let mut rebalance_actions = 0usize;
        if let Some(rb) = b.rebalance {
            let planner = AutoReplicator::new(rb.threshold).with_max_actions(rb.max_actions);
            let weights: Vec<f64> = specs.iter().map(NodeSpec::weight).collect();
            for _ in 0..rb.intervals {
                let report = sim.run_window(rb.interval);
                let mut tracker = LoadTracker::new(weights.clone());
                for sample in &report.load_samples {
                    tracker.record(*sample);
                }
                rebalance_actions += sim.rebalance(&planner, &tracker);
                interval_reports.push(report);
            }
        }

        // Measured window.
        let report = sim.run_window(b.measure);
        ExperimentResult {
            report,
            interval_reports,
            rebalance_actions,
            placement: b.placement.label(),
            router: b.router.label(),
            workload: b.workload.label(),
            clients,
        }
    }

    /// Runs the experiment at each client count, reusing the corpus.
    pub fn sweep_clients(&self, clients: &[u32]) -> Vec<ExperimentResult> {
        clients.iter().map(|&c| self.run_with_clients(c)).collect()
    }
}

fn workload_spec(kind: WorkloadKind) -> WorkloadSpec {
    match kind {
        WorkloadKind::A => WorkloadSpec::workload_a(),
        WorkloadKind::B => WorkloadSpec::workload_b(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpms_model::RequestClass;

    fn quick() -> ExperimentBuilder {
        Experiment::builder()
            .corpus_objects(400)
            .nodes(vec![NodeSpec::testbed_350(); 3])
            .clients(8)
            .windows(SimDuration::from_secs(1), SimDuration::from_secs(4))
    }

    #[test]
    fn basic_run_produces_traffic() {
        let result = quick().build().run();
        assert!(result.report.throughput_rps() > 10.0);
        assert_eq!(result.placement, "full-replication");
        assert_eq!(result.router, "l4-wlc");
        assert_eq!(result.workload, "workload-A");
    }

    #[test]
    fn sweep_is_monotone_at_low_load() {
        let exp = quick().build();
        let results = exp.sweep_clients(&[2, 16]);
        assert!(
            results[1].report.throughput_rps() > results[0].report.throughput_rps(),
            "more clients, more throughput below saturation"
        );
    }

    #[test]
    fn workload_b_reports_dynamic_classes() {
        let result = quick()
            .workload(WorkloadKind::B)
            .placement(PlacementPolicy::PartitionedByType {
                segregate_dynamic: true,
            })
            .router(Router::ContentAware)
            .build()
            .run();
        assert!(result.report.class(RequestClass::Cgi).is_some());
        assert!(result.report.class(RequestClass::Asp).is_some());
        assert_eq!(result.report.misroutes, 0);
    }

    #[test]
    fn nfs_policy_engages_nfs_server() {
        let result = quick().placement(PlacementPolicy::SharedNfs).build().run();
        let nfs = result.report.nfs.expect("nfs report present");
        assert!(nfs.fetches > 0);
    }

    #[test]
    fn rebalancing_applies_actions_on_skewed_placement() {
        // Partitioned placement + hot content: the planner should act.
        let result = quick()
            .placement(PlacementPolicy::PartitionedByType {
                segregate_dynamic: false,
            })
            .router(Router::ContentAware)
            .clients(24)
            .rebalance(RebalanceConfig {
                threshold: 0.10,
                intervals: 3,
                interval: SimDuration::from_secs(3),
                max_actions: 8,
            })
            .build()
            .run();
        assert_eq!(result.interval_reports.len(), 3);
        assert!(
            result.rebalance_actions > 0,
            "skewed single-copy placement should trigger replication"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || quick().seed(42).build().run().report;
        let a = run();
        let b = run();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.classes, b.classes);
    }
}
