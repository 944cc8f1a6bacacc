//! cpms-store: the per-node durable content store and the wire-streamed
//! content-shipping pipeline.
//!
//! The paper's management plane (§3) decides *where* content should live;
//! this crate is the machinery that makes those decisions true on disk.
//! Each web-server node hosts a [`ContentStore`] — a chunked object
//! repository with FNV-checksummed objects, an atomic
//! stage → commit → gc transfer lifecycle, an on-disk manifest, and
//! quota/disk-usage accounting. Between nodes, content moves over
//! `cpms-wire` through the ship protocol ([`ShipRequest`] /
//! [`ShipReply`]): resumable chunked transfers with per-chunk checksum
//! validation and bounded-retry resume after connection loss. A
//! [`Shipper`] pushes to one store per call; the controller pushes a
//! publication's targets one after another from its own thread, and its
//! transfer counts are the `ship_*` metrics [`ShipMetrics`] records.
//!
//! The load-bearing invariant the rest of the system builds on:
//! **commit before publish**. An object only becomes visible (readable,
//! inventoried, counted) after every chunk is staged and the whole-body
//! checksum verifies — so a URL-table generation that routes a lookup to
//! a node is only ever published after that node's store has committed
//! the bytes, and no lookup can resolve to a node lacking the content.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod object;
mod ship;
mod store;

pub use object::{fnv64, hex_decode, hex_encode, synthetic_body, ObjectMeta, DEFAULT_CHUNK_SIZE};
pub use ship::{
    apply, apply_tail, ShipError, ShipMetrics, ShipOutcome, ShipPort, ShipReply, ShipRequest,
    Shipper, StoreClient, StoreService, SHIP_DEADLINE,
};
pub use store::{ContentStore, StoreError, StoreStats};
