//! # cpms-sim
//!
//! A discrete-event simulator for heterogeneous clustered web servers —
//! the substrate this reproduction uses in place of the paper's physical
//! 1999 testbed (nine PCs, 100 Mbps fast ethernet, WebBench load
//! generators).
//!
//! Modelled, per back-end node:
//!
//! - a **CPU** station (HTTP parsing plus CGI/ASP execution, scaled by the
//!   node's clock relative to the 350 MHz reference machine),
//! - a **disk** station (seek + transfer at IDE/SCSI rates),
//! - a byte-capacity **LRU memory cache** (the mechanism behind Figure 2's
//!   result: partitioning shrinks per-node working sets and raises hit
//!   rates),
//! - a **NIC** station (100 Mbps transfer of every response byte).
//!
//! Plus cluster-level components: the **dispatcher** as a serial station
//! (routing decision + relay overhead per request), an optional **NFS
//! server** (shared disk + NIC; configuration 2 of §5.3), a fixed-latency
//! LAN, and a population of **closed-loop clients** (WebBench semantics:
//! issue, wait for the full response, think, repeat).
//!
//! On top of it sits the evaluation's front end: [`Experiment`] runs one
//! declarative description per figure of §5.3 over the [`PlacementPolicy`]
//! and [`Router`] menus, [`report`] turns results into the figures'
//! rows, and the `fig2`, `fig3`, `fig4`, `redirect`, `latency_curve`,
//! `autorep` and `popshift` binaries regenerate each result. Between
//! windows, [`Simulation::rebalance`] runs §3.3's auto-replication round.
//!
//! # Example
//!
//! ```
//! use cpms_sim::{Router, SimConfig, Simulation};
//! use cpms_model::{NodeSpec, SimDuration};
//! use cpms_workload::{CorpusBuilder, WorkloadSpec};
//!
//! let corpus = CorpusBuilder::small_site().seed(1).build();
//! let table = cpms_sim::placement::replicate_everywhere(&corpus, 3);
//! let config = SimConfig::builder()
//!     .nodes(vec![NodeSpec::testbed_350(); 3])
//!     .clients(8)
//!     .seed(7)
//!     .build();
//! let mut sim = Simulation::new(
//!     config,
//!     &corpus,
//!     table,
//!     Router::WeightedLeastConnections,
//!     &WorkloadSpec::workload_a(),
//! );
//! let report = sim.run(SimDuration::from_secs(2), SimDuration::from_secs(10));
//! assert!(report.throughput_rps() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod experiment;
pub mod metrics;
pub mod nfs;
pub mod node;
pub mod placement;
pub mod report;
pub mod routing;
pub mod service;
pub mod sim;
pub mod station;

pub use experiment::{Experiment, ExperimentBuilder, ExperimentResult, RebalanceConfig};
pub use metrics::{ClassReport, NodeReport, PriorityReport, SimReport};
pub use placement::PlacementPolicy;
pub use routing::Router;
pub use service::ServiceModel;
pub use sim::{Arrival, SimConfig, SimConfigBuilder, Simulation};
pub use station::Station;
