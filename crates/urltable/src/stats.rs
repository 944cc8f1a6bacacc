//! Aggregate statistics over a URL table, used by the §5.2 reproduction and
//! management reports.

use crate::table::UrlTable;
use cpms_model::{ContentKind, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A snapshot of table-wide statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableStats {
    /// Number of content records.
    pub entries: usize,
    /// Approximate resident memory in bytes (§5.2 reports ~260 KB for
    /// ~8 700 objects).
    pub memory_bytes: usize,
    /// Records per content kind.
    pub entries_by_kind: HashMap<ContentKind, usize>,
    /// Replica count per node: how many objects each node hosts.
    pub objects_per_node: HashMap<NodeId, usize>,
    /// Mean replicas per object (1.0 = pure partitioning, n = full
    /// replication on an n-node cluster).
    pub mean_replication_factor: f64,
    /// Lookup-cache hits of the reader these stats were collected
    /// through (0 when collected directly from a table, see
    /// [`SnapshotReader::stats`](crate::SnapshotReader::stats)).
    pub cache_hits: u64,
    /// Lookup-cache misses of the collecting reader.
    pub cache_misses: u64,
    /// Snapshot re-pins performed by the collecting reader.
    pub repins: u64,
}

impl TableStats {
    /// Computes statistics for `table`.
    pub fn collect(table: &UrlTable) -> Self {
        let mut entries_by_kind: HashMap<ContentKind, usize> = HashMap::new();
        let mut objects_per_node: HashMap<NodeId, usize> = HashMap::new();
        let mut replica_sum = 0usize;
        let mut entries = 0usize;
        for (_, entry) in table.iter() {
            entries += 1;
            *entries_by_kind.entry(entry.kind()).or_insert(0) += 1;
            replica_sum += entry.replica_count();
            for &node in entry.locations() {
                *objects_per_node.entry(node).or_insert(0) += 1;
            }
        }
        TableStats {
            entries,
            memory_bytes: table.memory_bytes(),
            entries_by_kind,
            objects_per_node,
            mean_replication_factor: if entries == 0 {
                0.0
            } else {
                replica_sum as f64 / entries as f64
            },
            cache_hits: 0,
            cache_misses: 0,
            repins: 0,
        }
    }

    /// Hit ratio of the collecting reader's lookup cache (0.0 when the
    /// stats were collected without a reader).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::UrlEntry;
    use cpms_model::{ContentId, UrlPath};

    fn p(s: &str) -> UrlPath {
        s.parse().unwrap()
    }

    #[test]
    fn collects_counts() {
        let mut t = UrlTable::new();
        t.insert(
            p("/a.html"),
            UrlEntry::new(ContentId(0), ContentKind::StaticHtml, 10)
                .with_locations([NodeId(0), NodeId(1)]),
        )
        .unwrap();
        t.insert(
            p("/b.cgi"),
            UrlEntry::new(ContentId(1), ContentKind::Cgi, 10).with_locations([NodeId(1)]),
        )
        .unwrap();
        let s = TableStats::collect(&t);
        assert_eq!(s.entries, 2);
        assert_eq!(s.entries_by_kind[&ContentKind::StaticHtml], 1);
        assert_eq!(s.entries_by_kind[&ContentKind::Cgi], 1);
        assert_eq!(s.objects_per_node[&NodeId(1)], 2);
        assert_eq!(s.objects_per_node[&NodeId(0)], 1);
        assert!((s.mean_replication_factor - 1.5).abs() < 1e-12);
        assert!(s.memory_bytes > 0);
    }

    #[test]
    fn empty_table() {
        let s = TableStats::collect(&UrlTable::new());
        assert_eq!(s.entries, 0);
        assert_eq!(s.mean_replication_factor, 0.0);
    }
}
