//! # cpms-model
//!
//! Shared domain types for the CPMS (Content Placement and Management
//! System) reproduction of Yang & Luo, *"A Content Placement and Management
//! System for Distributed Web-Server Systems"* (ICDCS 2000).
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! - [`UrlPath`] — normalized, segment-indexed URL paths (the key space of
//!   the paper's multi-level URL table),
//! - [`ContentItem`] / [`ContentKind`] — web objects and their types
//!   (static HTML, images, CGI, ASP, multimedia, …),
//! - [`NodeSpec`] / [`NodeId`] — heterogeneous server-node descriptions,
//!   including presets for the paper's exact 1999 testbed,
//! - [`Request`] / [`RequestClass`] — client requests as routed by the
//!   distributor,
//! - [`load`] — the paper's §3.3 load metric
//!   (`l_i = (load_CPU + load_Disk) × processing_time`).
//!
//! # Example
//!
//! ```
//! use cpms_model::{ContentItem, ContentKind, UrlPath, NodeSpec};
//!
//! let path: UrlPath = "/products/list.cgi".parse().unwrap();
//! assert_eq!(path.depth(), 2);
//!
//! let item = ContentItem::new(path, ContentKind::Cgi, 2_048);
//! assert!(item.kind().is_dynamic());
//!
//! // One of the paper's testbed machines: 350 MHz, 128 MB, SCSI disk.
//! let node = NodeSpec::testbed_350();
//! assert!(node.weight() > NodeSpec::testbed_150().weight());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod content;
pub mod error;
pub mod load;
pub mod node;
pub mod path;
pub mod request;
pub mod time;

pub use config::WorkloadKind;
pub use content::{ContentId, ContentItem, ContentKind, Priority};
pub use error::ModelError;
pub use load::{LoadSample, LoadTracker, NodeLoad};
pub use node::{DiskKind, NodeId, NodeSpec};
pub use path::UrlPath;
pub use request::{Request, RequestClass, RequestId, RequestOutcome};
pub use time::{SimDuration, SimTime};
