//! What a broker owns on its node: one [`cpms_store::ContentStore`].
//!
//! The content store is the only record of what the node holds — bytes,
//! sizes, versions, checksums and the disk quota all live in its
//! manifest. [`BrokerState`] is that store as the broker serves it.

use cpms_model::NodeId;
use cpms_store::ContentStore;
use std::sync::Arc;

/// The state a broker serves: the node's content store, shared with
/// whoever else serves from it (a co-located origin server).
#[derive(Debug)]
pub struct BrokerState {
    pub(crate) content: Arc<ContentStore>,
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
