//! # cpms-mgmt
//!
//! The paper's **content management system** (§3): the layer that gives
//! the administrator a *single system image* of a document tree that is
//! physically partitioned across heterogeneous nodes, and that keeps the
//! cluster balanced automatically.
//!
//! Architecture, mirroring the paper's four components:
//!
//! - [`Broker`] — a daemon on each back-end node that executes management
//!   functions against that node's content store ([`BrokerState`], one
//!   [`cpms_store::ContentStore`] — the only record of what the node
//!   holds). The
//!   paper implements brokers in Java for portability; here each broker is
//!   the store's [`cpms_store::StoreService`] reachable over a
//!   [`cpms_wire`] transport — in process, run on the dispatching thread
//!   ([`Broker::spawn`], what [`Cluster::start`] hosts), or a real TCP
//!   daemon ([`Broker::bind`], the `cpms-broker` binary).
//! - [`agent`]s — a management function is one store verb, a
//!   [`cpms_store::ShipRequest`] sent to a broker as a serialized wire
//!   message ("mobile code"): delete, rename or touch a file, ship one
//!   in chunks, list or verify the node's objects, report status
//!   ([`BrokerHandle::dispatch`]). A new function is a request variant and
//!   one arm in [`cpms_store::apply_tail`], matching the paper's "can be
//!   tailored or extended … without requiring significant redesign".
//! - [`Controller`] — receives administrator operations, sends the
//!   corresponding store verbs to the affected brokers, and keeps the
//!   distributor's URL table in sync ("the controller will change the URL
//!   table to adapt to these changes").
//!   The controller *is* the file-manager API: insert, delete, rename,
//!   assign, and replicate, over one coherent document tree
//!   ([`Controller::table`]).
//! - The §3 remote console — [`shell::Shell`], one command language over
//!   the controller, driven from stdin by the `cpms-console` binary and
//!   through a daemon's [`admin`] wire service by the same lines.
//!
//! Plus §3.3's [`autorep::AutoReplicator`]: the load-balancing policy that
//! replicates popular content to underutilized nodes and sheds copies from
//! overloaded ones, driven by the paper's `l_i` / `L_j` metrics
//! ([`cpms_model::load`]).
//!
//! # Example
//!
//! ```
//! use cpms_mgmt::shell::Shell;
//! use cpms_mgmt::{Cluster, Controller};
//! use cpms_model::{ContentId, ContentKind, NodeId, Priority, UrlPath};
//!
//! // Three nodes with 1 GB of disk each.
//! let mut controller = Controller::new(Cluster::start(3, 1 << 30));
//!
//! let path: UrlPath = "/site/index.html".parse().unwrap();
//! let kind = ContentKind::StaticHtml;
//! controller.publish(&path, ContentId(0), kind, 2048, Priority::Normal, &[NodeId(0)])?;
//! controller.replicate(&path, NodeId(2))?;
//! let table = controller.table();
//! assert_eq!(table.lookup(&path).unwrap().locations(), [NodeId(0), NodeId(2)]);
//!
//! // The remote console speaks the same operations as command lines.
//! let mut console = Shell::new(controller);
//! assert!(console.execute("audit").ok);
//! assert!(!console.execute("delete /missing.html").ok);
//! # console.shutdown();
//! # Ok::<(), cpms_mgmt::MgmtError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod agent;
pub mod auditor;
pub mod autorep;
pub mod broker;
pub mod controller;
pub mod monitor;
pub mod shell;
pub mod store;

pub use admin::{AdminClient, AdminRequest, AdminResponse};
pub use agent::AgentError;
pub use auditor::{AntiEntropyAuditor, Drift, DriftReport};
pub use autorep::{AutoReplicator, RebalanceAction};
pub use broker::{Broker, BrokerHandle};
pub use controller::{Cluster, Controller, EvictReport, MgmtError};
pub use monitor::{ClusterMonitor, NodeHealth, NodeTransportHealth};
pub use store::BrokerState;
