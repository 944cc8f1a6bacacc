//! Declarative scenario files: the lab's entire run — topology, object
//! catalogue, workload shape, fault timeline, and pass/fail budgets — is
//! one JSON document, so a new chaos experiment is a config edit, not a
//! code change (the same philosophy as `configs/paper_testbed.json`).
//!
//! Optional knobs are `Option` fields: the vendored serde derive maps a
//! missing key to `None`, and the accessors below supply the defaults.

use cpms_workload::FlashSpec;
use serde::Deserialize;

/// A whole lab run, parsed from a scenario JSON file.
#[derive(Debug, Clone, Deserialize)]
pub struct Scenario {
    /// Scenario name, used for the lab's scratch directory and report.
    pub name: String,
    /// Master seed: the workload stream is deterministic per seed.
    pub seed: u64,
    /// One entry per backend node; each becomes a `cpms-broker` process.
    pub nodes: Vec<NodeSpec>,
    /// The object catalogue published before traffic starts.
    pub objects: ObjectSpec,
    /// The request stream replayed through the proxy.
    pub workload: WorkloadSpec,
    /// Faults injected at specific request indices (empty if absent).
    pub faults: Option<Vec<FaultSpec>>,
    /// Pass/fail budgets evaluated over the merged timeline.
    pub assertions: AssertionSpec,
}

/// One backend node: a `cpms-broker --http` child process.
#[derive(Debug, Clone, Deserialize)]
pub struct NodeSpec {
    /// Broker disk capacity in MB (default 64).
    pub disk_mb: Option<u64>,
    /// Run with `--store DIR` (durable on-disk content). Required for
    /// `corrupt_object` faults against this node. Default false.
    pub durable: Option<bool>,
}

impl NodeSpec {
    /// Disk capacity in MB.
    pub fn disk_mb(&self) -> u64 {
        self.disk_mb.unwrap_or(64)
    }

    /// Whether the broker keeps a durable on-disk store.
    pub fn durable(&self) -> bool {
        self.durable.unwrap_or(false)
    }
}

/// The object catalogue: `count` objects `/obj/<i>.html`, each
/// `size_bytes` long, placed on `replicas` nodes round-robin.
#[derive(Debug, Clone, Deserialize)]
pub struct ObjectSpec {
    /// Number of objects published.
    pub count: usize,
    /// Size of each object's synthetic body.
    pub size_bytes: u64,
    /// Copies per object (placed round-robin across nodes).
    pub replicas: usize,
}

/// The request stream: a Zipf base, optionally time-shaped.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadSpec {
    /// `"zipf"`, `"flash_crowd"`, or `"diurnal"`.
    pub shape: String,
    /// Total requests replayed through the proxy.
    pub requests: usize,
    /// Zipf skew of the base popularity distribution.
    pub alpha: f64,
    /// Flash crowd: request index where the burst begins (default 0).
    pub burst_start: Option<usize>,
    /// Flash crowd: burst duration in requests (default `requests / 4`).
    pub burst_len: Option<usize>,
    /// Flash crowd: size of the hot set (default 1).
    pub hot_set: Option<usize>,
    /// Flash crowd: in-burst probability of hitting the hot set
    /// (default 0.8).
    pub boost: Option<f64>,
    /// Diurnal: requests per phase (default `requests / 4`).
    pub period: Option<usize>,
    /// Diurnal: objects the hot set rotates by each phase (default 1).
    pub shift: Option<usize>,
}

/// A validated workload shape, ready to build a generator from.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Stationary Zipf popularity.
    Zipf,
    /// Zipf with a flash-crowd window.
    FlashCrowd(FlashSpec),
    /// Zipf whose hot set rotates every `period` requests by `shift`.
    Diurnal {
        /// Requests per phase.
        period: usize,
        /// Rotation distance per phase.
        shift: usize,
    },
}

impl WorkloadSpec {
    /// Resolves the shape string plus optional knobs into a [`Shape`].
    ///
    /// # Errors
    ///
    /// Unknown shape names.
    pub fn resolve(&self) -> Result<Shape, String> {
        match self.shape.as_str() {
            "zipf" => Ok(Shape::Zipf),
            "flash_crowd" => Ok(Shape::FlashCrowd(FlashSpec {
                burst_start: self.burst_start.unwrap_or(0),
                burst_len: self.burst_len.unwrap_or(self.requests / 4),
                hot_set: self.hot_set.unwrap_or(1),
                boost: self.boost.unwrap_or(0.8),
            })),
            "diurnal" => Ok(Shape::Diurnal {
                period: self.period.unwrap_or_else(|| (self.requests / 4).max(1)),
                shift: self.shift.unwrap_or(1),
            }),
            other => Err(format!(
                "unknown workload shape {other:?} (use zipf, flash_crowd, or diurnal)"
            )),
        }
    }
}

/// One fault on the timeline, fired just before request `at_request`.
#[derive(Debug, Clone, Deserialize)]
pub struct FaultSpec {
    /// Request index the fault fires before.
    pub at_request: usize,
    /// `"kill"`, `"wire_loss"`, `"wire_poison"`, `"partition"`,
    /// `"heal"`, or `"corrupt_object"`.
    pub action: String,
    /// Target node.
    pub node: u16,
    /// `wire_loss`: frame loss rate in `[0, 1]`.
    pub rate: Option<f64>,
    /// `corrupt_object`: index of the object to flip a byte in.
    pub object: Option<usize>,
}

/// A validated fault action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// SIGKILL the node's broker process.
    Kill,
    /// Arm frame loss on the controller's link to the node.
    WireLoss(f64),
    /// Arm frame truncation on the controller's link to the node.
    WirePoison,
    /// Cut the controller's link to the node entirely.
    Partition,
    /// Disarm faults and reconnect the node's link.
    Heal,
    /// Flip one byte of an object file in the node's durable store.
    CorruptObject(usize),
}

impl FaultSpec {
    /// Resolves the action string plus optional knobs.
    ///
    /// # Errors
    ///
    /// Unknown actions or missing required knobs.
    pub fn resolve(&self) -> Result<FaultAction, String> {
        match self.action.as_str() {
            "kill" => Ok(FaultAction::Kill),
            "wire_loss" => Ok(FaultAction::WireLoss(
                self.rate.ok_or("wire_loss needs a `rate`")?,
            )),
            "wire_poison" => Ok(FaultAction::WirePoison),
            "partition" => Ok(FaultAction::Partition),
            "heal" => Ok(FaultAction::Heal),
            "corrupt_object" => Ok(FaultAction::CorruptObject(
                self.object.ok_or("corrupt_object needs an `object`")?,
            )),
            other => Err(format!("unknown fault action {other:?}")),
        }
    }
}

/// Scripted pass/fail budgets. Misrouted requests (a 200 carrying a
/// *different* object's body) are always zero-tolerance — that is the
/// paper's correctness invariant — so they have no budget knob.
#[derive(Debug, Clone, Deserialize)]
pub struct AssertionSpec {
    /// Failed-request budget: 502/503/transport errors plus corrupt
    /// bodies served while a fault is live.
    pub max_failed_requests: usize,
    /// Anti-entropy must reach a clean audit within this long after the
    /// request stream ends.
    pub converge_within_ms: u64,
    /// Hard cap on the whole run; the watchdog aborts past it.
    pub wall_clock_cap_ms: u64,
    /// At least one merged trace must span this many distinct processes
    /// (default 2: the proxy plus one backend).
    pub min_trace_processes: Option<usize>,
    /// When true, the fault timeline must drive the proxy's SLO
    /// watchdog into breach (`slo_breach_total >= 1` by
    /// `converge_within_ms` after the stream ends) *and* every
    /// `slo_state_*` gauge must then return to Ok. Default false.
    pub expect_slo_breach: Option<bool>,
}

impl AssertionSpec {
    /// Cross-process floor for the `trace-cross-process` assertion.
    pub fn min_trace_processes(&self) -> usize {
        self.min_trace_processes.unwrap_or(2)
    }

    /// Whether the scenario scripts an SLO breach-then-clear check.
    pub fn expect_slo_breach(&self) -> bool {
        self.expect_slo_breach.unwrap_or(false)
    }
}

impl Scenario {
    /// Parses a scenario from JSON text.
    ///
    /// # Errors
    ///
    /// Malformed JSON, missing required fields, or invalid shape/fault
    /// specs.
    pub fn from_json(text: &str) -> Result<Scenario, String> {
        let scenario: Scenario =
            serde_json::from_str(text).map_err(|e| format!("scenario parse: {e}"))?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Loads and validates a scenario file.
    ///
    /// # Errors
    ///
    /// I/O failures or anything [`Scenario::from_json`] rejects.
    pub fn load(path: &std::path::Path) -> Result<Scenario, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Scenario::from_json(&text)
    }

    /// The fault timeline, sorted by firing index (empty when absent).
    pub fn faults(&self) -> Vec<FaultSpec> {
        let mut faults = self.faults.clone().unwrap_or_default();
        faults.sort_by_key(|f| f.at_request);
        faults
    }

    /// Cross-field validation beyond what deserialization enforces.
    fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("scenario needs at least one node".into());
        }
        if self.objects.count == 0 {
            return Err("scenario needs at least one object".into());
        }
        if self.objects.replicas == 0 || self.objects.replicas > self.nodes.len() {
            return Err(format!(
                "replicas must be in 1..={} (got {})",
                self.nodes.len(),
                self.objects.replicas
            ));
        }
        self.workload.resolve()?;
        for fault in self.faults.as_deref().unwrap_or(&[]) {
            let action = fault.resolve()?;
            let node = usize::from(fault.node);
            if node >= self.nodes.len() {
                return Err(format!("fault targets unknown node n{node}"));
            }
            if let FaultAction::CorruptObject(obj) = action {
                if !self.nodes[node].durable() {
                    return Err(format!("corrupt_object needs node n{node} to be durable"));
                }
                if obj >= self.objects.count {
                    return Err(format!("corrupt_object targets unknown object {obj}"));
                }
                // The lab places object i on nodes (i + k) % n round-robin;
                // corrupting a file the node does not host is a scenario bug.
                let hosted =
                    (0..self.objects.replicas).any(|k| (obj + k) % self.nodes.len() == node);
                if !hosted {
                    return Err(format!(
                        "corrupt_object: object {obj} is not placed on node n{node}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> String {
        r#"{
            "name": "t",
            "seed": 1,
            "nodes": [{}, {"disk_mb": 32, "durable": true}],
            "objects": {"count": 4, "size_bytes": 256, "replicas": 2},
            "workload": {"shape": "zipf", "requests": 10, "alpha": 0.8},
            "assertions": {
                "max_failed_requests": 0,
                "converge_within_ms": 1000,
                "wall_clock_cap_ms": 5000
            }
        }"#
        .to_string()
    }

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let s = Scenario::from_json(&minimal()).expect("minimal scenario");
        assert_eq!(s.nodes.len(), 2);
        assert_eq!(s.nodes[0].disk_mb(), 64, "default disk");
        assert!(!s.nodes[0].durable(), "default in-memory");
        assert!(s.nodes[1].durable());
        assert!(s.faults().is_empty());
        assert!(matches!(s.workload.resolve(), Ok(Shape::Zipf)));
        assert!(!s.assertions.expect_slo_breach(), "default no SLO check");
    }

    #[test]
    fn expect_slo_breach_parses_when_present() {
        let text = minimal().replace(
            "\"max_failed_requests\": 0,",
            "\"max_failed_requests\": 0,\n\"expect_slo_breach\": true,",
        );
        let s = Scenario::from_json(&text).expect("scenario with SLO check");
        assert!(s.assertions.expect_slo_breach());
    }

    #[test]
    fn faults_are_validated_and_sorted() {
        let text = minimal().replace(
            "\"assertions\"",
            r#""faults": [
                {"at_request": 9, "action": "heal", "node": 0},
                {"at_request": 2, "action": "corrupt_object", "node": 1, "object": 3},
                {"at_request": 5, "action": "wire_loss", "node": 0, "rate": 0.2}
            ],
            "assertions""#,
        );
        let s = Scenario::from_json(&text).expect("faulted scenario");
        let order: Vec<usize> = s.faults().iter().map(|f| f.at_request).collect();
        assert_eq!(order, vec![2, 5, 9]);
        assert_eq!(
            s.faults()[0].resolve().expect("valid action"),
            FaultAction::CorruptObject(3)
        );
    }

    #[test]
    fn bad_scenarios_are_rejected() {
        let too_many_replicas = minimal().replace("\"replicas\": 2", "\"replicas\": 3");
        assert!(Scenario::from_json(&too_many_replicas)
            .unwrap_err()
            .contains("replicas"));

        let unknown_shape = minimal().replace("\"zipf\"", "\"sawtooth\"");
        assert!(Scenario::from_json(&unknown_shape)
            .unwrap_err()
            .contains("sawtooth"));

        // corrupt_object against the in-memory node 0 is impossible.
        let corrupt_memory = minimal().replace(
            "\"assertions\"",
            r#""faults": [
                {"at_request": 1, "action": "corrupt_object", "node": 0, "object": 0}
            ],
            "assertions""#,
        );
        assert!(Scenario::from_json(&corrupt_memory)
            .unwrap_err()
            .contains("durable"));
    }
}
