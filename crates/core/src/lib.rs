//! # cpms-core
//!
//! The top-level API of **CPMS** — a Rust reproduction of Yang & Luo,
//! *"A Content Placement and Management System for Distributed Web-Server
//! Systems"* (ICDCS 2000).
//!
//! The paper's thesis: on a heterogeneous server cluster, **partitioning
//! content by type** (and partially replicating the hot part) beats both
//! full replication and a shared NFS volume — *if* the front end is
//! **content-aware** and a **management system** keeps placement coherent
//! and balanced. This workspace builds every part of that system:
//!
//! | Crate | Role |
//! |---|---|
//! | [`cpms_model`] | Domain types, the §3.3 load metric, testbed specs |
//! | [`cpms_urltable`] | The multi-level hash URL table + lookup cache |
//! | [`cpms_workload`] | WebBench-style corpus + request generation |
//! | [`cpms_dispatch`] | Routing policies + primary/backup heartbeats |
//! | [`cpms_sim`] | Discrete-event cluster simulator |
//! | [`cpms_mgmt`] | Controller / brokers / agents / auto-replication |
//! | [`cpms_httpd`] | Live socket origin server + content-aware proxy (§2.2's splicing) |
//!
//! This crate ties them into an [`experiment::Experiment`] runner that
//! regenerates each figure of the paper's evaluation, plus the
//! [`placement::PlacementPolicy`] and [`routing::RouterChoice`] menus.
//!
//! # Quick start
//!
//! ```
//! use cpms_core::prelude::*;
//!
//! let result = Experiment::builder()
//!     .corpus_objects(500)
//!     .nodes(vec![NodeSpec::testbed_350(); 4])
//!     .placement(PlacementPolicy::PartitionedByType { segregate_dynamic: false })
//!     .router(RouterChoice::ContentAware { cache_entries: 256 })
//!     .workload(WorkloadKind::A)
//!     .clients(16)
//!     .seed(7)
//!     .build()
//!     .run();
//! assert!(result.report.throughput_rps() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod placement;
pub mod report;
pub mod routing;

pub use experiment::{Experiment, ExperimentBuilder, ExperimentResult, RebalanceConfig};
pub use placement::PlacementPolicy;
pub use report::{FigurePoint, FigureSeries};
pub use routing::RouterChoice;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use crate::experiment::{Experiment, ExperimentResult, RebalanceConfig};
    pub use crate::placement::PlacementPolicy;
    pub use crate::report::{FigurePoint, FigureSeries};
    pub use crate::routing::RouterChoice;
    pub use cpms_model::{
        ContentId, ContentKind, NodeId, NodeSpec, Priority, RequestClass, SimDuration, SimTime,
        WorkloadKind,
    };
    pub use cpms_sim::SimReport;
    pub use cpms_workload::{Corpus, CorpusBuilder, WorkloadSpec};
}
