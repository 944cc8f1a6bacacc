//! The paper's §3.3 load metric.
//!
//! Per request to content *i*:
//!
//! ```text
//! l_i = (load_CPU + load_Disk) × processing_time
//! ```
//!
//! with heuristic constants: static content `load_CPU = 1, load_Disk = 9`
//! ("disk activity is the dominant factor"), dynamic content
//! `load_CPU = 10, load_Disk = 5`. Per node *j*:
//!
//! ```text
//! L_j = (Σ (l_i × access_frequency)) / Weight
//! ```
//!
//! where `Weight` is the static capacity weighting of the node. The
//! distributor computes `L` periodically over an interval; a node above the
//! cluster average by a threshold is *overloaded*, below it by a threshold
//! *underutilized* — those determinations drive auto-replication.

use crate::content::{ContentId, ContentKind};
use crate::node::NodeId;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The paper's heuristic load constants for a content kind.
///
/// Returns `(load_CPU, load_Disk)`.
pub const fn load_constants(kind: ContentKind) -> (f64, f64) {
    if kind.is_dynamic() {
        (10.0, 5.0)
    } else {
        (1.0, 9.0)
    }
}

/// Computes `l_i` for one request: `(load_CPU + load_Disk) × processing_time`.
///
/// Processing time is measured in seconds, matching the distributor's
/// start-to-finish measurement in the paper.
///
/// ```
/// use cpms_model::{load::request_load, ContentKind, SimDuration};
/// let l_static = request_load(ContentKind::StaticHtml, SimDuration::from_millis(10));
/// let l_dynamic = request_load(ContentKind::Cgi, SimDuration::from_millis(10));
/// // (1+9)*0.01 = 0.1 vs (10+5)*0.01 = 0.15
/// assert!(l_dynamic > l_static);
/// ```
pub fn request_load(kind: ContentKind, processing_time: SimDuration) -> f64 {
    let (cpu, disk) = load_constants(kind);
    (cpu + disk) * processing_time.as_secs_f64()
}

/// One observed request used for interval load accounting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadSample {
    /// Node that served the request.
    pub node: NodeId,
    /// Content served.
    pub content: ContentId,
    /// Kind of the content (fixes the load constants).
    pub kind: ContentKind,
    /// Start-to-finish processing time as measured by the distributor.
    pub processing_time: SimDuration,
}

/// Aggregated load state of one node over the current interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeLoad {
    /// The node.
    pub node: NodeId,
    /// `L_j` — weighted accumulated load for the interval.
    pub load: f64,
    /// Requests observed in the interval.
    pub requests: u64,
}

/// Accumulates [`LoadSample`]s over an interval and computes the paper's
/// per-node load metric, cluster average, and overload/underutilization
/// determinations.
///
/// The tracker also maintains per-`(node, content)` access frequencies: the
/// paper weights each content's load by its access frequency within the
/// interval, which is what makes *hot* content dominate `L_j`. They are
/// kept in content-id order, so every sum is taken in one order and every
/// ranking breaks its ties one way: the same samples give bit-identical
/// loads in every process, whatever order they arrived in.
#[derive(Debug, Clone)]
pub struct LoadTracker {
    weights: Vec<f64>,
    /// Per-node: content -> (kind, total processing time, hits) this interval.
    per_node: Vec<BTreeMap<ContentId, ContentLoadAcc>>,
}

#[derive(Debug, Clone, Copy)]
struct ContentLoadAcc {
    kind: ContentKind,
    total_time: SimDuration,
    hits: u64,
}

impl LoadTracker {
    /// Creates a tracker for nodes with the given static capacity weights
    /// (see [`crate::NodeSpec::weight`]).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or any weight is not strictly positive —
    /// a zero weight would divide by zero in `L_j`.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "LoadTracker needs at least one node");
        assert!(
            weights.iter().all(|w| *w > 0.0 && w.is_finite()),
            "node weights must be positive and finite"
        );
        let n = weights.len();
        LoadTracker {
            weights,
            per_node: vec![BTreeMap::new(); n],
        }
    }

    /// Number of tracked nodes.
    pub fn node_count(&self) -> usize {
        self.weights.len()
    }

    /// Records one served request.
    ///
    /// # Panics
    ///
    /// Panics if `sample.node` is out of range.
    pub fn record(&mut self, sample: LoadSample) {
        let acc = self.per_node[sample.node.index()]
            .entry(sample.content)
            .or_insert(ContentLoadAcc {
                kind: sample.kind,
                total_time: SimDuration::ZERO,
                hits: 0,
            });
        acc.total_time += sample.processing_time;
        acc.hits += 1;
    }

    /// Computes `L_j` for every node over the current interval.
    ///
    /// For each content `i` on node `j` we take the *mean* per-request load
    /// `l_i` (from the mean processing time) and weight it by the observed
    /// access frequency (hit count), per the paper's formula
    /// `L_j = Σ(l_i × frequency) / Weight`.
    pub fn node_loads(&self) -> Vec<NodeLoad> {
        self.per_node
            .iter()
            .enumerate()
            .map(|(j, contents)| {
                let mut sum = 0.0;
                let mut requests = 0;
                for acc in contents.values() {
                    let mean_time =
                        SimDuration::from_micros(acc.total_time.as_micros() / acc.hits.max(1));
                    let l_i = request_load(acc.kind, mean_time);
                    sum += l_i * acc.hits as f64;
                    requests += acc.hits;
                }
                NodeLoad {
                    node: NodeId(j as u16),
                    load: sum / self.weights[j],
                    requests,
                }
            })
            .collect()
    }

    /// The cluster-average `L` over the current interval.
    pub fn average_load(&self) -> f64 {
        let loads = self.node_loads();
        loads.iter().map(|l| l.load).sum::<f64>() / loads.len() as f64
    }

    /// Nodes whose load exceeds the average by more than
    /// `threshold_fraction` (e.g. `0.25` = 25 % above average).
    pub fn overloaded(&self, threshold_fraction: f64) -> Vec<NodeId> {
        let avg = self.average_load();
        self.node_loads()
            .into_iter()
            .filter(|l| l.load > avg * (1.0 + threshold_fraction))
            .map(|l| l.node)
            .collect()
    }

    /// Nodes whose load is below the average by more than
    /// `threshold_fraction`.
    pub fn underutilized(&self, threshold_fraction: f64) -> Vec<NodeId> {
        let avg = self.average_load();
        self.node_loads()
            .into_iter()
            .filter(|l| l.load < avg * (1.0 - threshold_fraction))
            .map(|l| l.node)
            .collect()
    }

    /// The contents served by `node` this interval, hottest (by accumulated
    /// weighted load) first, equal loads in content-id order.
    /// Auto-replication picks replication candidates from the front and
    /// offload candidates likewise.
    pub fn hottest_content(&self, node: NodeId) -> Vec<(ContentId, f64)> {
        let mut v: Vec<(ContentId, f64)> = self.per_node[node.index()]
            .iter()
            .map(|(id, acc)| {
                let mean_time =
                    SimDuration::from_micros(acc.total_time.as_micros() / acc.hits.max(1));
                (*id, request_load(acc.kind, mean_time) * acc.hits as f64)
            })
            .collect();
        // Stable, over the map's id order: equal loads stay in id order.
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("load values are finite"));
        v
    }

    /// Clears all samples, starting a new measurement interval.
    pub fn reset_interval(&mut self) {
        for m in &mut self.per_node {
            m.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(node: u16, content: u32, kind: ContentKind, ms: u64) -> LoadSample {
        LoadSample {
            node: NodeId(node),
            content: ContentId(content),
            kind,
            processing_time: SimDuration::from_millis(ms),
        }
    }

    #[test]
    fn constants_match_paper() {
        assert_eq!(load_constants(ContentKind::StaticHtml), (1.0, 9.0));
        assert_eq!(load_constants(ContentKind::Image), (1.0, 9.0));
        assert_eq!(load_constants(ContentKind::Video), (1.0, 9.0));
        assert_eq!(load_constants(ContentKind::Cgi), (10.0, 5.0));
        assert_eq!(load_constants(ContentKind::Asp), (10.0, 5.0));
    }

    #[test]
    fn request_load_formula() {
        // static 10ms: (1+9)*0.01 = 0.1
        let l = request_load(ContentKind::StaticHtml, SimDuration::from_millis(10));
        assert!((l - 0.1).abs() < 1e-12);
        // dynamic 10ms: (10+5)*0.01 = 0.15
        let l = request_load(ContentKind::Cgi, SimDuration::from_millis(10));
        assert!((l - 0.15).abs() < 1e-12);
    }

    #[test]
    fn node_load_divides_by_weight() {
        let mut t = LoadTracker::new(vec![1.0, 2.0]);
        t.record(sample(0, 1, ContentKind::StaticHtml, 10));
        t.record(sample(1, 1, ContentKind::StaticHtml, 10));
        let loads = t.node_loads();
        assert!((loads[0].load - 0.1).abs() < 1e-12);
        assert!((loads[1].load - 0.05).abs() < 1e-12);
    }

    #[test]
    fn frequency_weighting() {
        let mut t = LoadTracker::new(vec![1.0]);
        for _ in 0..5 {
            t.record(sample(0, 7, ContentKind::StaticHtml, 10));
        }
        // 5 hits of l=0.1 -> L = 0.5
        let loads = t.node_loads();
        assert!((loads[0].load - 0.5).abs() < 1e-12);
        assert_eq!(loads[0].requests, 5);
    }

    #[test]
    fn overloaded_and_underutilized() {
        let mut t = LoadTracker::new(vec![1.0, 1.0, 1.0]);
        // node 0 very hot, node 2 idle, node 1 middling
        for _ in 0..10 {
            t.record(sample(0, 1, ContentKind::Cgi, 50));
        }
        for _ in 0..3 {
            t.record(sample(1, 2, ContentKind::StaticHtml, 10));
        }
        let over = t.overloaded(0.25);
        let under = t.underutilized(0.25);
        assert_eq!(over, vec![NodeId(0)]);
        assert!(under.contains(&NodeId(2)));
        assert!(!under.contains(&NodeId(0)));
    }

    #[test]
    fn hottest_content_sorted() {
        let mut t = LoadTracker::new(vec![1.0]);
        for _ in 0..10 {
            t.record(sample(0, 1, ContentKind::StaticHtml, 10)); // 10*0.1 = 1.0
        }
        t.record(sample(0, 2, ContentKind::Cgi, 100)); // 1*1.5 = 1.5
        let hot = t.hottest_content(NodeId(0));
        assert_eq!(hot[0].0, ContentId(2));
        assert_eq!(hot[1].0, ContentId(1));
        assert!(hot[0].1 > hot[1].1);
    }

    #[test]
    fn loads_and_rankings_do_not_depend_on_arrival_order() {
        // Per-content loads whose float sum depends on the order it is
        // taken in, and two contents tied for hottest.
        let samples: Vec<LoadSample> = (1..=40)
            .flat_map(|id| {
                let ms = 1 + (id * 7) % 13;
                let kind = if id % 3 == 0 {
                    ContentKind::Cgi
                } else {
                    ContentKind::StaticHtml
                };
                let hits = if id == 9 || id == 12 { 30 } else { id % 4 + 1 };
                let ms = if id == 9 || id == 12 {
                    20
                } else {
                    u64::from(ms)
                };
                (0..hits).map(move |_| sample(0, id, kind, ms))
            })
            .collect();
        let mut forward = LoadTracker::new(vec![1.0]);
        let mut backward = LoadTracker::new(vec![1.0]);
        for s in &samples {
            forward.record(*s);
        }
        for s in samples.iter().rev() {
            backward.record(*s);
        }
        let bits = |t: &LoadTracker| -> Vec<(u64, u64)> {
            t.node_loads()
                .iter()
                .map(|l| (l.load.to_bits(), l.requests))
                .collect()
        };
        assert_eq!(bits(&forward), bits(&backward));
        let hot = forward.hottest_content(NodeId(0));
        assert_eq!(hot, backward.hottest_content(NodeId(0)));
        // Contents 9 and 12 tie at the top; the lower id goes first.
        assert_eq!((hot[0].0, hot[1].0), (ContentId(9), ContentId(12)));
        assert_eq!(hot[0].1.to_bits(), hot[1].1.to_bits());
    }

    #[test]
    fn reset_interval_clears() {
        let mut t = LoadTracker::new(vec![1.0]);
        t.record(sample(0, 1, ContentKind::StaticHtml, 10));
        t.reset_interval();
        assert_eq!(t.node_loads()[0].requests, 0);
        assert_eq!(t.node_loads()[0].load, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let _ = LoadTracker::new(vec![0.0]);
    }

    #[test]
    fn balanced_cluster_has_no_outliers() {
        let mut t = LoadTracker::new(vec![1.0, 1.0]);
        t.record(sample(0, 1, ContentKind::StaticHtml, 10));
        t.record(sample(1, 2, ContentKind::StaticHtml, 10));
        assert!(t.overloaded(0.1).is_empty());
        assert!(t.underutilized(0.1).is_empty());
    }
}
