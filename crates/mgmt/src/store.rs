//! What a broker owns on its node: one [`cpms_store::ContentStore`].
//!
//! The content store is the only record of what the node holds — bytes,
//! sizes, versions, checksums and the disk quota all live in its
//! manifest. [`BrokerState`] hands that store to the agents; a
//! [`StoredFile`] is how the agent protocol describes a file to store.

use cpms_model::{ContentId, NodeId};
use cpms_store::ContentStore;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One file as the agent protocol describes it: the payload of a
/// [`crate::agent::StoreFile`]. What a node holds is reported by its
/// store's inventory ([`cpms_store::ShipRequest::Inventory`]), not in
/// these terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoredFile {
    /// Which content object this file is a copy of.
    pub content: ContentId,
    /// Size in bytes.
    pub size: u64,
    /// Monotone version, bumped on each update (mutable documents).
    pub version: u64,
}

/// The state agents execute against: the node's content store, shared
/// with whoever else serves from it (a co-located origin server).
#[derive(Debug)]
pub struct BrokerState {
    content: Arc<ContentStore>,
}

/// The name the frozen `perfbench/` spells [`BrokerState::new`] by.
pub type NodeStore = BrokerState;

impl BrokerState {
    /// Fresh state for `node`: an empty in-memory content store with a
    /// `capacity_bytes` quota.
    pub fn new(node: NodeId, capacity_bytes: u64) -> Self {
        BrokerState {
            content: Arc::new(ContentStore::in_memory(node, capacity_bytes)),
        }
    }

    /// Serves `content` instead — a disk-backed, pre-populated or shared
    /// store. Its node, quota and objects are the broker's from here on.
    #[must_use]
    pub fn with_content(self, content: Arc<ContentStore>) -> Self {
        BrokerState { content }
    }

    /// The node this state belongs to.
    pub fn node(&self) -> NodeId {
        self.content.node()
    }

    /// The content store (shared with origin servers that serve object
    /// bodies straight from it).
    pub fn content(&self) -> &Arc<ContentStore> {
        &self.content
    }
}
