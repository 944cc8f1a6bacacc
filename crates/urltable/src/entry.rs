//! Per-object records of the URL table.

use cpms_model::{ContentId, ContentKind, NodeId, Priority};
use serde::{Deserialize, Serialize};

/// The record the URL table keeps per content object.
///
/// The paper (§2.2): "The URL table holds content-related information (e.g.,
/// location of the document, document sizes, priority, hits, etc.), which
/// helps the distributor to make the routing decisions." The record holds
/// the routing data only: per-object access frequency, which §3.3 weighs
/// load by, is counted per interval by `cpms_model::LoadTracker`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UrlEntry {
    content: ContentId,
    kind: ContentKind,
    size_bytes: u64,
    priority: Priority,
    locations: Vec<NodeId>,
    checksum: u64,
}

impl UrlEntry {
    /// Creates an entry with no locations and normal priority.
    pub fn new(content: ContentId, kind: ContentKind, size_bytes: u64) -> Self {
        UrlEntry {
            content,
            kind,
            size_bytes,
            priority: Priority::Normal,
            locations: Vec::new(),
            checksum: 0,
        }
    }

    /// Sets the hosting nodes (builder-style). Duplicates are removed,
    /// preserving first occurrence order.
    #[must_use]
    pub fn with_locations<I: IntoIterator<Item = NodeId>>(mut self, locations: I) -> Self {
        self.locations.clear();
        for n in locations {
            if !self.locations.contains(&n) {
                self.locations.push(n);
            }
        }
        self
    }

    /// Sets the priority (builder-style).
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the whole-object FNV-1a checksum recorded when the copy was
    /// committed to a node's content store (builder-style). `0` means
    /// "unknown" — entries published before any bytes were shipped.
    #[must_use]
    pub fn with_checksum(mut self, checksum: u64) -> Self {
        self.checksum = checksum;
        self
    }

    /// The identity of the content object.
    pub fn content(&self) -> ContentId {
        self.content
    }

    /// The content kind.
    pub fn kind(&self) -> ContentKind {
        self.kind
    }

    /// Document size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Administrative priority.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Nodes currently hosting a copy of the object, in insertion order.
    pub fn locations(&self) -> &[NodeId] {
        &self.locations
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.locations.len()
    }

    /// Whole-object checksum of the committed bytes, or `0` if unknown.
    /// The anti-entropy auditor compares this against each hosting
    /// node's store manifest to find stale copies.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Adds a replica location. Returns `false` if the node already hosted
    /// the object.
    pub fn add_location(&mut self, node: NodeId) -> bool {
        if self.locations.contains(&node) {
            false
        } else {
            self.locations.push(node);
            true
        }
    }

    /// Removes a replica location. Returns `false` if the node did not host
    /// the object. Callers that must preserve availability should check
    /// [`UrlEntry::replica_count`] first — the table itself permits dropping
    /// the last copy (e.g. when deleting content), the *management* layer
    /// enforces the never-drop-last-copy policy.
    pub fn remove_location(&mut self, node: NodeId) -> bool {
        if let Some(pos) = self.locations.iter().position(|n| *n == node) {
            self.locations.remove(pos);
            true
        } else {
            false
        }
    }

    /// Whether `node` hosts a copy.
    pub fn hosted_on(&self, node: NodeId) -> bool {
        self.locations.contains(&node)
    }

    /// Approximate in-memory footprint of this record in bytes, used for the
    /// §5.2 memory accounting. Counts the struct plus the location vector's
    /// heap allocation.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<UrlEntry>() + self.locations.capacity() * std::mem::size_of::<NodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> UrlEntry {
        UrlEntry::new(ContentId(1), ContentKind::StaticHtml, 2048)
    }

    #[test]
    fn with_locations_dedups() {
        let e = entry().with_locations([NodeId(1), NodeId(2), NodeId(1)]);
        assert_eq!(e.locations(), [NodeId(1), NodeId(2)]);
        assert_eq!(e.replica_count(), 2);
    }

    #[test]
    fn add_remove_location() {
        let mut e = entry();
        assert!(e.add_location(NodeId(1)));
        assert!(!e.add_location(NodeId(1)));
        assert!(e.hosted_on(NodeId(1)));
        assert!(e.remove_location(NodeId(1)));
        assert!(!e.remove_location(NodeId(1)));
        assert!(!e.hosted_on(NodeId(1)));
        assert_eq!(e.replica_count(), 0);
    }

    #[test]
    fn memory_accounting_grows_with_replicas() {
        let small = entry().with_locations([NodeId(1)]);
        let large = entry().with_locations((0..64).map(NodeId));
        assert!(large.memory_bytes() > small.memory_bytes());
        assert!(small.memory_bytes() >= std::mem::size_of::<UrlEntry>());
    }

    #[test]
    fn builder_priority() {
        let e = entry().with_priority(Priority::Critical);
        assert_eq!(e.priority(), Priority::Critical);
    }

    #[test]
    fn builder_checksum() {
        assert_eq!(entry().checksum(), 0, "unknown by default");
        let e = entry().with_checksum(0xDEAD_BEEF);
        assert_eq!(e.checksum(), 0xDEAD_BEEF);
    }
}
