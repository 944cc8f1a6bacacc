//! §3.3 auto-replication: the load-balancing policy.
//!
//! > "Periodically, the load metrics L is calculated by distributor … If
//! > the load of one node exceeds the average load by a threshold, the
//! > node is determined to be overloaded. Under such condition, the
//! > distributor will inform the controller, and then the controller will
//! > decrease the content copies of that server. Conversely, if the load
//! > of one node is below to the average load by a threshold, … The
//! > controller then sends several agents to automatically replicate some
//! > popular content to this underutilized server."
//!
//! [`AutoReplicator::plan`] turns one interval's [`LoadTracker`] state into
//! a list of [`RebalanceAction`]s, which are URL-table location edits. The
//! live cluster applies them through `cpms_mgmt::Controller::rebalance`,
//! whose agents move the bytes; the simulator applies them directly to its
//! table with [`AutoReplicator::apply_to_table`].

use crate::UrlTable;
use cpms_model::{ContentId, ContentKind, LoadTracker, NodeId, UrlPath};
use std::collections::HashSet;

/// One rebalancing step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RebalanceAction {
    /// Copy `path` onto `to` (popular content to an underutilized node).
    Replicate {
        /// Object to copy.
        path: UrlPath,
        /// Receiving node.
        to: NodeId,
    },
    /// Drop the copy of `path` held by `from` (decrease the copies of an
    /// overloaded server). Only planned when another copy exists.
    Offload {
        /// Object to shed.
        path: UrlPath,
        /// Overloaded node giving it up.
        from: NodeId,
    },
}

/// The auto-replication planner.
#[derive(Debug, Clone)]
pub struct AutoReplicator {
    threshold: f64,
    max_actions: usize,
    hot_candidates: usize,
}

impl AutoReplicator {
    /// Creates a planner with the given overload/underutilization
    /// threshold (fraction of the cluster-average load, e.g. `0.25`).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not positive and finite.
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold.is_finite(),
            "threshold must be positive"
        );
        AutoReplicator {
            threshold,
            max_actions: 16,
            hot_candidates: 8,
        }
    }

    /// Caps the number of actions per planning round (changes should be
    /// incremental; the next interval re-measures).
    #[must_use]
    pub fn with_max_actions(mut self, max_actions: usize) -> Self {
        self.max_actions = max_actions;
        self
    }

    /// How many of a node's hottest objects are considered per round.
    #[must_use]
    pub fn with_hot_candidates(mut self, hot_candidates: usize) -> Self {
        self.hot_candidates = hot_candidates;
        self
    }

    /// The configured threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Plans one round of rebalancing from the interval's load state.
    ///
    /// `resolve` maps a content id to its path (the tracker records ids;
    /// the table is keyed by path). `can_host` encodes capability
    /// constraints (e.g. ASP only on IIS nodes).
    pub fn plan(
        &self,
        tracker: &LoadTracker,
        table: &UrlTable,
        resolve: impl Fn(ContentId) -> Option<UrlPath>,
        can_host: impl Fn(NodeId, ContentKind) -> bool,
    ) -> Vec<RebalanceAction> {
        let loads = tracker.node_loads();
        if loads.len() < 2 {
            return Vec::new();
        }
        let avg = tracker.average_load();
        if avg <= 0.0 {
            return Vec::new();
        }
        let mut overloaded: Vec<_> = loads
            .iter()
            .filter(|l| l.load > avg * (1.0 + self.threshold))
            .collect();
        // Hottest node first.
        overloaded.sort_by(|a, b| b.load.partial_cmp(&a.load).expect("finite"));
        let mut underutilized: Vec<_> = loads
            .iter()
            .filter(|l| l.load < avg * (1.0 - self.threshold))
            .collect();
        // Coldest node first.
        underutilized.sort_by(|a, b| a.load.partial_cmp(&b.load).expect("finite"));

        let mut actions = Vec::new();
        let mut touched: HashSet<(UrlPath, NodeId)> = HashSet::new();
        // Track planned additions so the same cold node is not the target
        // of every replication this round.
        let mut planned_additions = vec![0usize; loads.len()];

        for hot in &overloaded {
            for (content, _) in tracker
                .hottest_content(hot.node)
                .into_iter()
                .take(self.hot_candidates)
            {
                if actions.len() >= self.max_actions {
                    return actions;
                }
                let Some(path) = resolve(content) else {
                    continue;
                };
                let Some(entry) = table.lookup(&path) else {
                    continue;
                };
                if !entry.hosted_on(hot.node) {
                    continue; // stale sample; placement already changed
                }
                if entry.replica_count() > 1 {
                    // Another copy exists: shed this node's copy so the
                    // distributor stops sending the traffic here.
                    if touched.insert((path.clone(), hot.node)) {
                        actions.push(RebalanceAction::Offload {
                            path,
                            from: hot.node,
                        });
                    }
                } else {
                    // Single copy: replicate to the coldest *eligible* node
                    // (capable, not already hosting, not the hot node, and
                    // least loaded by this round's planned additions).
                    let target = underutilized
                        .iter()
                        .filter(|l| {
                            let n = l.node;
                            n != hot.node && !entry.hosted_on(n) && can_host(n, entry.kind())
                        })
                        .min_by_key(|l| planned_additions[l.node.index()])
                        .map(|l| l.node);
                    if let Some(to) = target {
                        if touched.insert((path.clone(), to)) {
                            planned_additions[to.index()] += 1;
                            actions.push(RebalanceAction::Replicate { path, to });
                        }
                    }
                }
            }
        }
        actions
    }

    /// Applies actions directly to a URL table (the simulation path, where
    /// file movement is implicit) and returns the ones that took effect.
    /// Actions that no longer make sense (object gone, last copy) are
    /// skipped.
    pub fn apply_to_table<'a>(
        actions: &'a [RebalanceAction],
        table: &mut UrlTable,
    ) -> Vec<&'a RebalanceAction> {
        actions
            .iter()
            .filter(|action| match action {
                RebalanceAction::Replicate { path, to } => {
                    table.add_location(path, *to).unwrap_or(false)
                }
                RebalanceAction::Offload { path, from } => {
                    let safe = table
                        .lookup(path)
                        .is_some_and(|e| e.replica_count() > 1 && e.hosted_on(*from));
                    safe && table.remove_location(path, *from).unwrap_or(false)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UrlEntry;
    use cpms_model::{ContentKind, LoadSample, SimDuration};
    use std::collections::HashMap;

    fn p(s: &str) -> UrlPath {
        s.parse().unwrap()
    }

    /// Three nodes; node 0 hammered by content 1 (single copy), node 2 idle.
    fn skewed_state() -> (LoadTracker, UrlTable, HashMap<ContentId, UrlPath>) {
        let mut tracker = LoadTracker::new(vec![1.0, 1.0, 1.0]);
        for _ in 0..50 {
            tracker.record(LoadSample {
                node: NodeId(0),
                content: ContentId(1),
                kind: ContentKind::StaticHtml,
                processing_time: SimDuration::from_millis(20),
            });
        }
        for _ in 0..10 {
            tracker.record(LoadSample {
                node: NodeId(1),
                content: ContentId(2),
                kind: ContentKind::StaticHtml,
                processing_time: SimDuration::from_millis(10),
            });
        }
        let mut table = UrlTable::new();
        table
            .insert(
                p("/hot.html"),
                UrlEntry::new(ContentId(1), ContentKind::StaticHtml, 100)
                    .with_locations([NodeId(0)]),
            )
            .unwrap();
        table
            .insert(
                p("/warm.html"),
                UrlEntry::new(ContentId(2), ContentKind::StaticHtml, 100)
                    .with_locations([NodeId(1)]),
            )
            .unwrap();
        let mut resolve = HashMap::new();
        resolve.insert(ContentId(1), p("/hot.html"));
        resolve.insert(ContentId(2), p("/warm.html"));
        (tracker, table, resolve)
    }

    #[test]
    fn replicates_hot_single_copy_to_cold_node() {
        let (tracker, table, resolve) = skewed_state();
        let planner = AutoReplicator::new(0.25);
        let actions = planner.plan(
            &tracker,
            &table,
            |id| resolve.get(&id).cloned(),
            |_, _| true,
        );
        assert!(
            actions.contains(&RebalanceAction::Replicate {
                path: p("/hot.html"),
                to: NodeId(2),
            }),
            "{actions:?}"
        );
    }

    #[test]
    fn offloads_when_replica_exists_elsewhere() {
        let (tracker, mut table, resolve) = skewed_state();
        table.add_location(&p("/hot.html"), NodeId(2)).unwrap();
        let planner = AutoReplicator::new(0.25);
        let actions = planner.plan(
            &tracker,
            &table,
            |id| resolve.get(&id).cloned(),
            |_, _| true,
        );
        assert!(
            actions.contains(&RebalanceAction::Offload {
                path: p("/hot.html"),
                from: NodeId(0),
            }),
            "{actions:?}"
        );
    }

    #[test]
    fn balanced_cluster_plans_nothing() {
        let mut tracker = LoadTracker::new(vec![1.0, 1.0]);
        for node in [0u16, 1] {
            tracker.record(LoadSample {
                node: NodeId(node),
                content: ContentId(node as u32),
                kind: ContentKind::StaticHtml,
                processing_time: SimDuration::from_millis(10),
            });
        }
        let table = UrlTable::new();
        let planner = AutoReplicator::new(0.25);
        assert!(planner
            .plan(&tracker, &table, |_| None, |_, _| true)
            .is_empty());
    }

    #[test]
    fn respects_capability_constraints() {
        let (tracker, mut table, _) = skewed_state();
        // make the hot object an ASP page
        table.remove(&p("/hot.html")).unwrap();
        table
            .insert(
                p("/hot.asp"),
                UrlEntry::new(ContentId(1), ContentKind::Asp, 100).with_locations([NodeId(0)]),
            )
            .unwrap();
        let planner = AutoReplicator::new(0.25);

        // Node 2 (the coldest) cannot host ASP: the planner must fall back
        // to the next eligible cold node instead of giving up.
        let actions = planner.plan(
            &tracker,
            &table,
            |id| (id == ContentId(1)).then(|| p("/hot.asp")),
            |node, kind| !(kind == ContentKind::Asp && node == NodeId(2)),
        );
        assert!(
            actions.contains(&RebalanceAction::Replicate {
                path: p("/hot.asp"),
                to: NodeId(1),
            }),
            "falls back to the capable cold node: {actions:?}"
        );
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, RebalanceAction::Replicate { to: NodeId(2), .. })),
            "never targets the incapable node: {actions:?}"
        );

        // No capable cold node at all: nothing is planned.
        let actions = planner.plan(
            &tracker,
            &table,
            |id| (id == ContentId(1)).then(|| p("/hot.asp")),
            |node, kind| !(kind == ContentKind::Asp && node != NodeId(0)),
        );
        assert!(actions.is_empty(), "no capable target: {actions:?}");
    }

    #[test]
    fn apply_to_table_is_safe() {
        let (_, mut table, _) = skewed_state();
        let actions = vec![
            RebalanceAction::Replicate {
                path: p("/hot.html"),
                to: NodeId(2),
            },
            // bogus: offload the only remaining copy of /warm.html
            RebalanceAction::Offload {
                path: p("/warm.html"),
                from: NodeId(1),
            },
            // bogus: path that no longer exists
            RebalanceAction::Replicate {
                path: p("/gone.html"),
                to: NodeId(2),
            },
        ];
        let applied = AutoReplicator::apply_to_table(&actions, &mut table);
        assert_eq!(applied, [&actions[0]], "only the sound action applies");
        assert_eq!(table.lookup(&p("/hot.html")).unwrap().replica_count(), 2);
        assert_eq!(table.lookup(&p("/warm.html")).unwrap().replica_count(), 1);
    }

    #[test]
    fn max_actions_caps_plan() {
        let mut tracker = LoadTracker::new(vec![1.0, 1.0, 1.0]);
        let mut table = UrlTable::new();
        let mut resolve = HashMap::new();
        for i in 0..20u32 {
            let path = p(&format!("/hot{i}.html"));
            for _ in 0..20 {
                tracker.record(LoadSample {
                    node: NodeId(0),
                    content: ContentId(i),
                    kind: ContentKind::StaticHtml,
                    processing_time: SimDuration::from_millis(15),
                });
            }
            table
                .insert(
                    path.clone(),
                    UrlEntry::new(ContentId(i), ContentKind::StaticHtml, 10)
                        .with_locations([NodeId(0)]),
                )
                .unwrap();
            resolve.insert(ContentId(i), path);
        }
        let planner = AutoReplicator::new(0.1)
            .with_max_actions(3)
            .with_hot_candidates(20);
        let actions = planner.plan(
            &tracker,
            &table,
            |id| resolve.get(&id).cloned(),
            |_, _| true,
        );
        assert_eq!(actions.len(), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = AutoReplicator::new(0.0);
    }
}
