//! Anti-entropy: reconciling each node's content store against the URL
//! table.
//!
//! The URL table is the single system image the distributor routes
//! from; the content stores are what nodes actually hold. Crashes,
//! partial transfers, operator mistakes, and disk corruption can make
//! the two drift. The [`AntiEntropyAuditor`] is the one judge of whether
//! they agree: it walks every node's store inventory (over the same ship
//! protocol replica bytes travel on), compares it against the table —
//! the content id, and the committed checksum recorded at publish time
//! against the bytes re-hashed on the node — and either reports the
//! drift or repairs it: missing copies are re-shipped from a healthy
//! replica, orphan objects are deleted, stale or corrupt copies are
//! overwritten with verified bytes.

use crate::broker::BrokerHandle;
use crate::controller::Controller;
use cpms_model::{NodeId, UrlPath};
use cpms_store::{ObjectMeta, ShipReply, ShipRequest, Shipper};
use std::collections::HashMap;
use std::fmt;

/// One observed divergence between the URL table and a node's content
/// store.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Drift {
    /// The table routes `path` to `node`, but the node's store has no
    /// committed object for it.
    MissingObject {
        /// The object's path.
        path: UrlPath,
        /// The node that should hold it.
        node: NodeId,
    },
    /// The node's store holds an object the table does not route to it.
    OrphanObject {
        /// The orphan's path.
        path: UrlPath,
        /// The node holding it.
        node: NodeId,
    },
    /// The node's copy is not the object the table routes to it: another
    /// content id, or bytes that do not hash to the checksum the table
    /// recorded at publish time (a stale or corrupt replica).
    StaleObject {
        /// The object's path.
        path: UrlPath,
        /// The node with the divergent copy.
        node: NodeId,
        /// What the table expects.
        expected: u64,
        /// What the store holds.
        got: u64,
    },
}

impl Drift {
    /// The node the divergence was observed on.
    #[must_use]
    pub fn node(&self) -> NodeId {
        match self {
            Drift::MissingObject { node, .. }
            | Drift::OrphanObject { node, .. }
            | Drift::StaleObject { node, .. } => *node,
        }
    }
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Drift::MissingObject { path, node } => write!(f, "{node} is missing {path}"),
            Drift::OrphanObject { path, node } => write!(f, "{node} holds orphan {path}"),
            Drift::StaleObject {
                path,
                node,
                expected,
                got,
            } => write!(
                f,
                "{node} holds stale {path} (checksum {got:#x}, table says {expected:#x})"
            ),
        }
    }
}

/// The outcome of one audit pass.
#[derive(Debug, Default)]
pub struct DriftReport {
    /// Every divergence found.
    pub drift: Vec<Drift>,
    /// Nodes whose inventory could not be fetched (their objects are
    /// not judged this pass).
    pub unreachable: Vec<NodeId>,
    /// Divergences repaired (repair mode only).
    pub repaired: usize,
    /// Divergences that could not be repaired, with the reason.
    pub failed_repairs: Vec<(Drift, String)>,
}

impl DriftReport {
    /// Whether every reachable node agreed with the table.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.drift.is_empty() && self.unreachable.is_empty()
    }

    /// Number of divergences found.
    #[must_use]
    pub fn drift_count(&self) -> usize {
        self.drift.len()
    }

    /// One-line console rendering.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.is_clean() {
            "audit clean: stores agree with the URL table".to_string()
        } else {
            format!(
                "audit found {} drift item(s) ({} repaired, {} failed, {} node(s) unreachable)",
                self.drift.len(),
                self.repaired,
                self.failed_repairs.len(),
                self.unreachable.len()
            )
        }
    }
}

/// Times a node's inventory fetch is attempted before the node is
/// reported unreachable.
const INVENTORY_ATTEMPTS: u32 = 3;

/// Walks node inventories and reconciles them with the URL table.
#[derive(Debug, Default)]
pub struct AntiEntropyAuditor {
    shipper: Shipper,
}

impl AntiEntropyAuditor {
    /// An auditor: 3 inventory attempts per node, every routed copy
    /// re-hashed on its node.
    #[must_use]
    pub fn new() -> Self {
        AntiEntropyAuditor::default()
    }

    /// Fetches one node's committed inventory with bounded retries.
    fn inventory(&self, broker: &BrokerHandle) -> Option<HashMap<UrlPath, ObjectMeta>> {
        for _ in 0..INVENTORY_ATTEMPTS {
            if let Ok(ShipReply::InventoryIs(listing)) = broker.dispatch(ShipRequest::Inventory) {
                return Some(listing.into_iter().collect());
            }
        }
        None
    }

    /// The checksum of `path`'s bytes as `broker`'s node re-hashes them
    /// — bit rot the manifest alone cannot show (a verify failure reports
    /// as a mismatching checksum).
    fn store_checksum(&self, broker: &BrokerHandle, path: &UrlPath, manifest: &ObjectMeta) -> u64 {
        match broker.dispatch(ShipRequest::Verify { path: path.clone() }) {
            Ok(ShipReply::Verified(meta)) => meta.checksum,
            // Corrupt on disk (or unreadable): force a mismatch so the
            // copy is treated as stale.
            _ => !manifest.checksum,
        }
    }

    /// One detection pass: every reachable node's inventory against the
    /// table. No repairs.
    #[must_use]
    pub fn audit(&self, controller: &Controller) -> DriftReport {
        let mut report = DriftReport::default();
        let table = controller.table();
        let cluster = controller.cluster();
        let mut inventories: Vec<Option<HashMap<UrlPath, ObjectMeta>>> = Vec::new();
        for i in 0..cluster.len() {
            let node = NodeId(i as u16);
            // Evicted nodes are out of the routing image by definition:
            // neither their absence (unreachable) nor any bytes still on
            // their disk (orphans) count as drift.
            if controller.is_decommissioned(node) {
                inventories.push(None);
                continue;
            }
            let handle = cluster.broker(node).expect("index in range");
            let inventory = self.inventory(handle);
            if inventory.is_none() {
                report.unreachable.push(node);
            }
            inventories.push(inventory);
        }
        // Table → stores: every routed location must hold a matching
        // committed object.
        for (path, entry) in table.iter() {
            for &node in entry.locations() {
                let Some(Some(inventory)) = inventories.get(node.index()) else {
                    continue; // unreachable: don't guess
                };
                match inventory.get(&path) {
                    None => report.drift.push(Drift::MissingObject {
                        path: path.clone(),
                        node,
                    }),
                    Some(object) => {
                        // Another object under the routed path is stale
                        // whatever its bytes hash to; the right one is
                        // stale when the bytes the node re-hashes are not
                        // the ones the table recorded.
                        let stale = if object.content != entry.content() {
                            Some(object.checksum)
                        } else if entry.checksum() == 0 {
                            None // published before checksums existed
                        } else {
                            let handle = cluster.broker(node).expect("index in range");
                            Some(self.store_checksum(handle, &path, object))
                                .filter(|&got| got != entry.checksum())
                        };
                        if let Some(got) = stale {
                            report.drift.push(Drift::StaleObject {
                                path: path.clone(),
                                node,
                                expected: entry.checksum(),
                                got,
                            });
                        }
                    }
                }
            }
        }
        // Stores → table: objects nobody routes to are orphans.
        for (i, inventory) in inventories.iter().enumerate() {
            let node = NodeId(i as u16);
            let Some(inventory) = inventory else { continue };
            for path in inventory.keys() {
                let routed = table
                    .lookup(path)
                    .map(|e| e.hosted_on(node))
                    .unwrap_or(false);
                if !routed {
                    report.drift.push(Drift::OrphanObject {
                        path: path.clone(),
                        node,
                    });
                }
            }
        }
        report
    }

    /// Detects drift and repairs it: missing copies are re-shipped from
    /// a healthy replica, orphans deleted, stale copies overwritten
    /// with verified bytes. Run [`AntiEntropyAuditor::audit`] again
    /// afterwards to confirm convergence.
    pub fn repair(&self, controller: &mut Controller) -> DriftReport {
        let mut report = self.audit(controller);
        let table = controller.table();
        for drift in report.drift.clone() {
            let outcome: Result<(), String> = match &drift {
                Drift::MissingObject { path, node } | Drift::StaleObject { path, node, .. } => {
                    match table.lookup(path) {
                        None => Err("no longer in the table".to_string()),
                        Some(entry) => controller
                            .pull_recorded(path, entry, Some(*node))
                            .map_err(|e| e.to_string())
                            .and_then(|(meta, sums, body)| {
                                let handle = controller
                                    .cluster()
                                    .broker(*node)
                                    .ok_or("node gone".to_string())?;
                                if matches!(drift, Drift::StaleObject { .. }) {
                                    // Drop the known-bad copy first: its
                                    // manifest may still claim the right
                                    // checksum (silent corruption), which
                                    // would let the re-ship short-circuit
                                    // as "already committed".
                                    handle.delete_copy(path).map_err(|e| e.to_string())?;
                                }
                                self.shipper
                                    .push_described(handle, path, meta, &sums, &body, true)
                                    .map(|_| ())
                                    .map_err(|e| e.to_string())
                            }),
                    }
                }
                Drift::OrphanObject { path, node } => controller
                    .cluster()
                    .broker(*node)
                    .ok_or("node gone".to_string())
                    .and_then(|handle| handle.delete_copy(path).map_err(|e| e.to_string())),
            };
            match outcome {
                Ok(()) => report.repaired += 1,
                Err(reason) => report.failed_repairs.push((drift, reason)),
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::tests::put_behind_the_table;
    use crate::controller::Cluster;
    use cpms_model::{ContentId, ContentKind, Priority};
    use cpms_urltable::UrlEntry;

    fn p(s: &str) -> UrlPath {
        s.parse().unwrap()
    }

    fn published_controller() -> Controller {
        let mut c = Controller::new(Cluster::start(3, 1 << 20));
        c.publish(
            &p("/a"),
            ContentId(1),
            ContentKind::StaticHtml,
            5000,
            Priority::Normal,
            &[NodeId(0), NodeId(1)],
        )
        .unwrap();
        c.publish(
            &p("/b"),
            ContentId(2),
            ContentKind::Image,
            2000,
            Priority::Normal,
            &[NodeId(2)],
        )
        .unwrap();
        c
    }

    #[test]
    fn clean_cluster_audits_clean() {
        let mut c = published_controller();
        let report = AntiEntropyAuditor::new().audit(&c);
        assert!(report.is_clean(), "{:?}", report.drift);
        assert_eq!(
            report.summary(),
            "audit clean: stores agree with the URL table"
        );
        c.shutdown();
    }

    /// `c` carries one injected drift item, on node 1: `repair` finds it
    /// (as `expected` says), heals it, and a second audit is clean.
    fn heals(mut c: Controller, expected: impl Fn(&Drift) -> bool) {
        let auditor = AntiEntropyAuditor::new();
        let report = auditor.repair(&mut c);
        assert_eq!(report.drift_count(), 1, "{:?}", report.drift);
        let found = &report.drift[0];
        assert!(expected(found) && found.node() == NodeId(1), "{found:?}");
        assert_eq!(report.repaired, 1, "{:?}", report.failed_repairs);
        let after = auditor.audit(&c);
        assert!(after.is_clean(), "drift converged to zero: {after:?}");
        c.shutdown();
    }

    #[test]
    fn missing_copy_is_found_and_reshipped() {
        let c = published_controller();
        // Inject drift: delete node 1's object behind the table's back.
        let handle = c.cluster().broker(NodeId(1)).unwrap();
        handle
            .dispatch(ShipRequest::Delete { path: p("/a") })
            .unwrap();
        heals(c, |d| matches!(d, Drift::MissingObject { .. }));
    }

    #[test]
    fn an_orphan_delete_answered_not_found_on_replay_is_still_a_repair() {
        use crate::{broker::spawn_redelivering, store::BrokerState};
        let handles = (0..2u16)
            .map(|n| spawn_redelivering(BrokerState::new(NodeId(n), 1 << 20)))
            .collect();
        let c = Controller::new(Cluster::from_handles(handles));
        put_behind_the_table(&c, 1, "/rogue", 9, 100);
        heals(c, |d| matches!(d, Drift::OrphanObject { .. }));
    }

    #[test]
    fn other_bytes_under_the_same_content_id_are_stale() {
        let c = published_controller();
        // The right id, committed and self-consistent — 4000 bytes where
        // the table recorded the checksum of 5000.
        put_behind_the_table(&c, 1, "/a", 1, 4000);
        heals(c, |d| matches!(d, Drift::StaleObject { .. }));
    }

    #[test]
    fn another_content_id_is_stale_even_where_the_table_has_no_checksum() {
        let c = published_controller();
        // An entry from before checksums existed, routed to two nodes —
        // and node 1 holds some other object under its path.
        put_behind_the_table(&c, 0, "/old", 7, 300);
        put_behind_the_table(&c, 1, "/old", 8, 300);
        c.publisher()
            .update(|t| {
                t.insert(
                    p("/old"),
                    UrlEntry::new(ContentId(7), ContentKind::StaticHtml, 300)
                        .with_locations([NodeId(0), NodeId(1)]),
                )
            })
            .unwrap();
        heals(c, |d| matches!(d, Drift::StaleObject { expected: 0, .. }));
    }

    #[test]
    fn dead_node_reports_unreachable_not_a_panic() {
        let mut c = published_controller();
        c.kill_node(NodeId(2));
        let report = AntiEntropyAuditor::new().audit(&c);
        assert_eq!(report.unreachable, vec![NodeId(2)]);
        assert!(!report.is_clean());
        c.shutdown();
    }

    #[test]
    fn evicted_node_converges_after_repair() {
        let mut c = published_controller();
        // Kill node 0 (one of /a's two replicas), evict it, and repair:
        // the audit must come back clean — the dead node is out of the
        // image, and /a still routes to its surviving copy on node 1.
        c.kill_node(NodeId(0));
        let report = c.evict(NodeId(0)).unwrap();
        assert_eq!(report.dropped_locations, 1);
        assert!(report.lost.is_empty());
        let auditor = AntiEntropyAuditor::new();
        auditor.repair(&mut c);
        let after = auditor.audit(&c);
        assert!(after.is_clean(), "{:?}", after);
        assert_eq!(c.table().lookup(&p("/a")).unwrap().locations(), [NodeId(1)]);
        c.shutdown();
    }
}
