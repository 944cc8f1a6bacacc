//! # cpms-urltable
//!
//! The paper's **URL table** (§2.2, §5.2): the data structure the
//! content-aware distributor consults on every HTTP request to find which
//! back-end nodes host the requested object.
//!
//! > "we implemented the URL table as a multi-level hash table, in which
//! > each level corresponds to a level in the content tree. Each item of
//! > content in the Web site has a record corresponding to it in the URL
//! > table. ... we also implemented a mechanism to cache recently accessed
//! > entries, which is a proven technique for demultiplexing speedup."
//!
//! This crate provides:
//!
//! - [`UrlTable`] — the multi-level hash table (a hash-trie keyed by path
//!   segments) with per-object records ([`UrlEntry`]: locations, size,
//!   priority, checksum; per-object access frequency is
//!   `cpms_model::LoadTracker`'s, per interval),
//! - [`LookupCache`] — the recently-accessed-entry cache, built on a
//!   generic O(1) [`lru::LruCache`],
//! - [`TablePublisher`] / [`SnapshotHandle`] / [`SnapshotReader`] — the
//!   copy-on-write snapshot protocol that lets many distributor workers
//!   read the table wait-free while the controller publishes mutations
//!   (see `snapshot`),
//! - memory-footprint accounting reproducing the §5.2 measurement
//!   (~8 700 objects ⇒ ~260 KB),
//! - [`AutoReplicator`] — §3.3's auto-replication planner, which reads a
//!   `cpms_model::LoadTracker` and writes table location edits
//!   ([`RebalanceAction`]).
//!
//! # Example
//!
//! ```
//! use cpms_model::{ContentId, ContentKind, NodeId, UrlPath};
//! use cpms_urltable::{UrlTable, UrlEntry};
//!
//! let mut table = UrlTable::new();
//! let path: UrlPath = "/images/logo.gif".parse().unwrap();
//! table.insert(
//!     path.clone(),
//!     UrlEntry::new(ContentId(0), ContentKind::Image, 4_096)
//!         .with_locations([NodeId(1), NodeId(3)]),
//! )?;
//!
//! let entry = table.lookup(&path).expect("present");
//! assert_eq!(entry.locations(), [NodeId(1), NodeId(3)]);
//! # Ok::<(), cpms_urltable::TableError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod entry;
pub mod lru;
pub mod rebalance;
pub mod snapshot;
pub mod stats;
pub mod table;

pub use cache::LookupCache;
pub use entry::UrlEntry;
pub use rebalance::{AutoReplicator, RebalanceAction};
pub use snapshot::{SnapshotHandle, SnapshotReader, TablePublisher};
pub use stats::TableStats;
pub use table::{TableError, UrlTable};
