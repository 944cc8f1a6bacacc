//! The controller: the management brain that lives on the distributor.
//!
//! > "One special daemon, called the controller, is responsible for
//! > receiving requests from the administrator and then invoking brokers
//! > to perform the delegated tasks by dispatching the corresponding
//! > agents. … Whenever the administrator changes the document tree, …
//! > the controller will change the URL table to adapt to these changes,
//! > and then send the agent that performs the content management function
//! > to propagate these changes to the whole system."
//!
//! Every mutating operation therefore has two halves, in order: dispatch
//! agents to the affected brokers, then update the URL table — so the
//! distributor only routes to copies that actually exist.

use crate::agent::{AgentError, AgentOutput, DeleteFile, RenameFile, StatusProbe, TouchFile};
use crate::broker::{Broker, BrokerHandle};
use crate::store::BrokerState;
use cpms_model::{ContentId, ContentKind, NodeId, Priority, UrlPath};
use cpms_obs::{Counter, Gauge, HistogramRecorder, MetricsRegistry, Span, TracedSpan};
use cpms_store::{ShipError, ShipMetrics, Shipper, TransferScheduler};
use cpms_urltable::{SnapshotHandle, TableError, TablePublisher, UrlEntry, UrlTable};
use cpms_wire::WireError;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Errors from controller operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum MgmtError {
    /// An agent failed on some broker.
    Agent(AgentError),
    /// The URL table rejected the change.
    Table(TableError),
    /// Offloading would drop the last copy of an object.
    LastCopy {
        /// The object's path.
        path: UrlPath,
    },
    /// The target node does not exist in the cluster.
    NoSuchNode(NodeId),
    /// The object is not hosted on the node the operation names.
    NotHostedOn {
        /// The object's path.
        path: UrlPath,
        /// The node named by the operation.
        node: NodeId,
    },
    /// The object is already hosted on the target node.
    AlreadyHostedOn {
        /// The object's path.
        path: UrlPath,
        /// The node named by the operation.
        node: NodeId,
    },
}

impl fmt::Display for MgmtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MgmtError::Agent(e) => write!(f, "agent failed: {e}"),
            MgmtError::Table(e) => write!(f, "URL table rejected change: {e}"),
            MgmtError::LastCopy { path } => {
                write!(f, "refusing to drop the last copy of {path}")
            }
            MgmtError::NoSuchNode(n) => write!(f, "no node {n} in the cluster"),
            MgmtError::NotHostedOn { path, node } => {
                write!(f, "{path} is not hosted on {node}")
            }
            MgmtError::AlreadyHostedOn { path, node } => {
                write!(f, "{path} is already hosted on {node}")
            }
        }
    }
}

impl std::error::Error for MgmtError {}

#[doc(hidden)]
impl From<AgentError> for MgmtError {
    fn from(e: AgentError) -> Self {
        MgmtError::Agent(e)
    }
}

#[doc(hidden)]
impl From<TableError> for MgmtError {
    fn from(e: TableError) -> Self {
        MgmtError::Table(e)
    }
}

/// Which transport a cluster's brokers are served over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireMode {
    /// In-process brokers, run on the controller's own thread (the
    /// original single-process control plane).
    #[default]
    InProc,
    /// Each broker is a TCP daemon on an ephemeral loopback port; every
    /// RPC crosses a real socket.
    Tcp,
}

/// A running set of brokers, one per node.
#[derive(Debug)]
pub struct Cluster {
    brokers: Vec<BrokerHandle>,
}

impl Cluster {
    /// Starts `nodes` brokers, each with `disk_capacity` bytes of store.
    pub fn start(nodes: usize, disk_capacity: u64) -> Self {
        Self::start_mode(WireMode::InProc, nodes, disk_capacity)
    }

    /// Starts `nodes` brokers over the given wire transport.
    ///
    /// # Panics
    ///
    /// In [`WireMode::Tcp`] if binding a loopback listener fails.
    pub fn start_mode(mode: WireMode, nodes: usize, disk_capacity: u64) -> Self {
        Cluster {
            brokers: (0..nodes)
                .map(|i| Self::host(mode, BrokerState::new(NodeId(i as u16), disk_capacity)))
                .collect(),
        }
    }

    /// Starts brokers with per-node disk capacities.
    pub fn start_with_capacities(capacities: &[u64]) -> Self {
        Cluster {
            brokers: capacities
                .iter()
                .enumerate()
                .map(|(i, &cap)| {
                    Self::host(WireMode::InProc, BrokerState::new(NodeId(i as u16), cap))
                })
                .collect(),
        }
    }

    fn host(mode: WireMode, state: BrokerState) -> BrokerHandle {
        match mode {
            WireMode::InProc => Broker::spawn(state),
            WireMode::Tcp => Broker::bind("127.0.0.1:0".parse().expect("literal addr"), state)
                .expect("bind ephemeral loopback broker"),
        }
    }

    /// Assembles a cluster from pre-built handles (brokers bound with
    /// custom state, fault-wrapped transports, or remote daemons). Node
    /// ids must match the handles' positions.
    pub fn from_handles(brokers: Vec<BrokerHandle>) -> Self {
        Cluster { brokers }
    }

    /// Folds every broker client's wire metrics into `registry`.
    pub fn attach_metrics(&self, registry: &Arc<MetricsRegistry>) {
        for b in &self.brokers {
            b.attach_metrics(registry);
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.brokers.len()
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.brokers.is_empty()
    }

    /// The broker handle for `node`.
    pub fn broker(&self, node: NodeId) -> Option<&BrokerHandle> {
        self.brokers.get(node.index())
    }

    /// Stops every broker.
    pub fn shutdown(&mut self) {
        for b in &mut self.brokers {
            b.shutdown();
        }
    }

    /// Kills one node's broker (failure injection for monitoring tests).
    pub fn kill_node(&mut self, node: NodeId) {
        if let Some(b) = self.brokers.get_mut(node.index()) {
            b.kill();
        }
    }
}

/// What [`Controller::evict`] did to the routing image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictReport {
    /// The evicted node.
    pub node: NodeId,
    /// Table entries that lost this node as a location but stay
    /// routable on surviving replicas.
    pub dropped_locations: usize,
    /// Entries removed outright because their only copy lived on the
    /// evicted node.
    pub lost: Vec<UrlPath>,
}

impl fmt::Display for EvictReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "evicted {}: {} location(s) dropped, {} object(s) lost",
            self.node,
            self.dropped_locations,
            self.lost.len()
        )
    }
}

/// Metric handles the controller records management operations through.
#[derive(Debug)]
struct ControllerMetrics {
    registry: Arc<MetricsRegistry>,
    ops: Arc<Counter>,
    errors: Arc<Counter>,
    op_ns: HistogramRecorder,
    table_update_ns: HistogramRecorder,
    generation: Arc<Gauge>,
}

impl ControllerMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> Self {
        ControllerMetrics {
            ops: registry.counter("mgmt_ops_total"),
            errors: registry.counter("mgmt_op_errors_total"),
            op_ns: registry.histogram_with_shards("mgmt_op_ns", 1).recorder(0),
            table_update_ns: registry
                .histogram_with_shards("urltable_update_ns", 1)
                .recorder(0),
            generation: registry.gauge("mgmt_table_generation"),
            registry,
        }
    }
}

/// The management controller: URL-table publisher + broker handles.
///
/// The table is never mutated in place: every management operation builds
/// and publishes a fresh immutable snapshot through a [`TablePublisher`],
/// which live distributor workers observe via [`Controller::handle`]
/// (§2.2's "the controller will change the URL table to adapt to these
/// changes").
///
/// Every mutating operation is observed: its latency lands in the
/// `mgmt_op_ns` histogram, its outcome in `mgmt_ops_total` /
/// `mgmt_op_errors_total` (plus a per-operation counter), and the
/// publication generation in the `mgmt_table_generation` gauge; the part
/// of it spent publishing to the URL table lands in `urltable_update_ns`. The
/// controller owns a private [`MetricsRegistry`] by default; hand it a
/// shared one with [`Controller::set_metrics`] to fold the management
/// plane into the same stats surface as the proxy.
#[derive(Debug)]
pub struct Controller {
    publisher: TablePublisher,
    cluster: Cluster,
    metrics: ControllerMetrics,
    shipper: Shipper,
    sched: TransferScheduler,
    decommissioned: HashSet<NodeId>,
}

impl Controller {
    /// Creates a controller over a running cluster with an empty URL table.
    pub fn new(cluster: Cluster) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        cluster.attach_metrics(&registry);
        let shipper = Shipper::new().with_metrics(ShipMetrics::attach(&registry));
        Controller {
            publisher: TablePublisher::default(),
            cluster,
            metrics: ControllerMetrics::new(registry),
            shipper,
            sched: TransferScheduler::default(),
            decommissioned: HashSet::new(),
        }
    }

    /// Redirects the controller's metrics into `registry` — the
    /// single-system-image wiring that puts management-plane metrics on
    /// the same surface as the request path (share the registry with
    /// [`ContentAwareProxy::start_with_config`][proxy]).
    ///
    /// [proxy]: https://docs.rs/cpms-httpd
    pub fn set_metrics(&mut self, registry: &Arc<MetricsRegistry>) {
        self.metrics = ControllerMetrics::new(Arc::clone(registry));
        // Broker RPC latency/retry/byte counters land on the same surface.
        self.cluster.attach_metrics(registry);
        // Transfer counters and latency too.
        self.shipper = Shipper::new().with_metrics(ShipMetrics::attach(registry));
    }

    /// The transfer scheduler (in-flight/lifetime transfer counts for
    /// the console).
    pub fn scheduler(&self) -> &TransferScheduler {
        &self.sched
    }

    /// The registry management operations are recorded into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics.registry
    }

    /// Samples the table gauges and renders the full registry as a
    /// human-readable report — the console `stats` command.
    pub fn metrics_report(&self) -> String {
        self.sample_gauges();
        self.metrics.registry.snapshot().to_console()
    }

    /// Refreshes the point-in-time gauges (table size/memory/generation)
    /// from the current snapshot.
    fn sample_gauges(&self) {
        let table = self.publisher.snapshot();
        let registry = &self.metrics.registry;
        registry
            .gauge("urltable_entries")
            .set(i64::try_from(table.len()).unwrap_or(i64::MAX));
        registry
            .gauge("urltable_memory_bytes")
            .set(i64::try_from(table.memory_bytes()).unwrap_or(i64::MAX));
        self.metrics
            .generation
            .set(i64::try_from(self.publisher.generation()).unwrap_or(i64::MAX));
    }

    /// Runs one management operation under observation: latency into
    /// `mgmt_op_ns`, outcome into the op counters, failures into the
    /// event log, and the post-op publication generation into the gauge.
    ///
    /// Each operation also roots a `mgmt.<op>` trace span and activates
    /// its context for the duration, so every broker RPC, ship frame, and
    /// event the operation causes — across every node it fans out to —
    /// hangs off one distributed trace.
    fn timed<T>(
        &mut self,
        op: &'static str,
        body: impl FnOnce(&mut Self) -> Result<T, MgmtError>,
    ) -> Result<T, MgmtError> {
        let start = Instant::now();
        let spans = Arc::clone(self.metrics.registry.spans());
        let mut span = TracedSpan::enter(&spans, format!("mgmt.{op}"));
        let result = body(self);
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.metrics.ops.inc();
        self.metrics
            .registry
            .counter(&format!("mgmt_{op}_total"))
            .inc();
        self.metrics.op_ns.record(elapsed);
        self.metrics
            .generation
            .set(i64::try_from(self.publisher.generation()).unwrap_or(i64::MAX));
        if let Err(e) = &result {
            self.metrics.errors.inc();
            span.set_error(true);
            span.set_detail(e.to_string());
            self.metrics
                .registry
                .events()
                .record("mgmt", None, format!("{op} failed: {e}"));
        }
        result
    }

    /// Publishes one table mutation through the publisher, recording the
    /// whole lock → clone → mutate → swap into `urltable_update_ns`: the
    /// share of a management operation that is the table, as opposed to
    /// broker RPCs and content shipping.
    fn update_table<T>(&self, mutate: impl FnOnce(&mut UrlTable) -> T) -> T {
        let _span = Span::enter("urltable_update", &self.metrics.table_update_ns);
        self.publisher.update(mutate)
    }

    /// The current URL-table snapshot (what the distributor routes from).
    pub fn table(&self) -> Arc<UrlTable> {
        self.publisher.snapshot()
    }

    /// The snapshot publisher the controller mutates through.
    pub fn publisher(&self) -> &TablePublisher {
        &self.publisher
    }

    /// A handle for distributor workers to observe table publications.
    pub fn handle(&self) -> SnapshotHandle {
        self.publisher.handle()
    }

    /// Number of nodes under management.
    pub fn node_count(&self) -> usize {
        self.cluster.len()
    }

    /// Shuts every broker down.
    pub fn shutdown(&mut self) {
        self.cluster.shutdown();
    }

    /// The underlying broker cluster (for monitoring).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Kills one node's broker (failure injection).
    pub fn kill_node(&mut self, node: NodeId) {
        self.cluster.kill_node(node);
    }

    /// Whether `node` has been evicted from the routing image (see
    /// [`Controller::evict`]). Auditors skip decommissioned nodes
    /// instead of reporting them unreachable forever.
    pub fn is_decommissioned(&self, node: NodeId) -> bool {
        self.decommissioned.contains(&node)
    }

    /// Evicts a dead node from the single system image: every table
    /// entry that still routes to it loses that location, entries whose
    /// *only* copy lived there are removed outright (and reported as
    /// lost), and the node is marked decommissioned so anti-entropy
    /// audits stop counting it as unreachable drift. This is the
    /// operator's response to a crashed backend: the distributor stops
    /// sending requests at it immediately, and a follow-up `repair`
    /// restores replication from the survivors.
    ///
    /// # Errors
    ///
    /// [`MgmtError::NoSuchNode`] if the node was never in the cluster.
    pub fn evict(&mut self, node: NodeId) -> Result<EvictReport, MgmtError> {
        self.timed("evict", |c| c.evict_impl(node))
    }

    fn evict_impl(&mut self, node: NodeId) -> Result<EvictReport, MgmtError> {
        if self.cluster.broker(node).is_none() {
            return Err(MgmtError::NoSuchNode(node));
        }
        let snapshot = self.table();
        let affected: Vec<(UrlPath, usize)> = snapshot
            .iter()
            .filter(|(_, entry)| entry.hosted_on(node))
            .map(|(path, entry)| (path, entry.replica_count()))
            .collect();
        let mut dropped_locations = 0usize;
        let mut lost: Vec<UrlPath> = Vec::new();
        self.update_table(|t| -> Result<(), TableError> {
            for (path, replicas) in &affected {
                if *replicas > 1 {
                    t.remove_location(path, node)?;
                    dropped_locations += 1;
                } else {
                    t.remove(path)?;
                    lost.push(path.clone());
                }
            }
            Ok(())
        })?;
        self.decommissioned.insert(node);
        Ok(EvictReport {
            node,
            dropped_locations,
            lost,
        })
    }

    fn broker(&self, node: NodeId) -> Result<&BrokerHandle, MgmtError> {
        self.cluster.broker(node).ok_or(MgmtError::NoSuchNode(node))
    }

    /// Maps a transfer failure against `node`'s broker onto the
    /// management-error taxonomy.
    fn ship_failure(node: NodeId, e: ShipError) -> MgmtError {
        match e {
            ShipError::Store(e) => MgmtError::Agent(AgentError::Store(e)),
            ShipError::Wire(w) => MgmtError::Agent(AgentError::from_wire(node, w)),
            ShipError::Protocol { detail } => MgmtError::Agent(AgentError::Transport {
                node,
                error: WireError::Codec { detail },
            }),
            other => MgmtError::Agent(AgentError::Transport {
                node,
                error: WireError::Io {
                    kind: "transfer".to_string(),
                    detail: other.to_string(),
                },
            }),
        }
    }

    /// Publishes a new object to the given nodes, synthesizing its
    /// deterministic body from `(content, size)` — how workload-spec
    /// objects (declared sizes, no payload) become real bytes.
    ///
    /// # Errors
    ///
    /// See [`Controller::publish_bytes`].
    pub fn publish(
        &mut self,
        path: &UrlPath,
        content: ContentId,
        kind: ContentKind,
        size: u64,
        priority: Priority,
        nodes: &[NodeId],
    ) -> Result<(), MgmtError> {
        let body = cpms_store::synthetic_body(content, size);
        self.timed("publish", |c| {
            c.publish_impl(path, content, kind, priority, nodes, &body)
        })
    }

    /// Publishes a new object with an explicit body: ships the bytes to
    /// each target broker's content store (concurrently, bounded by the
    /// transfer scheduler), and only after every copy has **committed**
    /// records the object in the URL table — so no published generation
    /// ever routes a lookup to a node lacking the content. The table
    /// entry's size and checksum come from the committed store object,
    /// not from what the caller declared. If any transfer fails, the
    /// copies already committed are rolled back.
    ///
    /// # Errors
    ///
    /// [`MgmtError::Agent`] on transfer/broker failure (after rollback),
    /// [`MgmtError::Table`] if the path is already published.
    pub fn publish_bytes(
        &mut self,
        path: &UrlPath,
        content: ContentId,
        kind: ContentKind,
        priority: Priority,
        nodes: &[NodeId],
        body: &[u8],
    ) -> Result<(), MgmtError> {
        self.timed("publish", |c| {
            c.publish_impl(path, content, kind, priority, nodes, body)
        })
    }

    fn publish_impl(
        &mut self,
        path: &UrlPath,
        content: ContentId,
        kind: ContentKind,
        priority: Priority,
        nodes: &[NodeId],
        body: &[u8],
    ) -> Result<(), MgmtError> {
        if self.table().lookup_exact(path).is_some() {
            return Err(MgmtError::Table(TableError::AlreadyExists {
                path: path.clone(),
            }));
        }
        let handles: Vec<&BrokerHandle> = nodes
            .iter()
            .map(|&n| self.broker(n))
            .collect::<Result<_, _>>()?;
        let shipper = &self.shipper;
        // One description of the body for every replica: the bytes are
        // hashed once per publication — whole-object checksum and chunk
        // sums in one walk — not once per copy.
        let (meta, sums) = shipper.describe(content, body, cpms_store::DEFAULT_CHUNK_SIZE, 0);
        let results = self.sched.run(handles, |_, handle| {
            shipper
                .push_described(handle, path, meta, &sums, body, false)
                .map(|outcome| (handle.node(), outcome))
        });
        let mut stored: Vec<NodeId> = Vec::new();
        let mut committed: Option<cpms_store::ObjectMeta> = None;
        let mut failure: Option<MgmtError> = None;
        for (i, result) in results.into_iter().enumerate() {
            match result {
                Ok((node, outcome)) => {
                    stored.push(node);
                    committed.get_or_insert(outcome.meta);
                }
                Err(e) => {
                    failure.get_or_insert(Self::ship_failure(nodes[i], e));
                }
            }
        }
        if let Some(e) = failure {
            // Roll back the copies that did commit.
            for &done in &stored {
                let _ = self
                    .broker(done)?
                    .dispatch(DeleteFile { path: path.clone() });
            }
            return Err(e);
        }
        // Entry size/checksum reflect the committed bytes, not the
        // caller's declaration.
        let committed = committed.unwrap_or(meta);
        let (size, checksum) = (committed.size, committed.checksum);
        self.update_table(|t| {
            t.insert(
                path.clone(),
                UrlEntry::new(content, kind, size)
                    .with_priority(priority)
                    .with_locations(stored)
                    .with_checksum(checksum),
            )
        })?;
        Ok(())
    }

    /// Deletes an object everywhere: agents to every hosting broker, then
    /// the table record.
    ///
    /// # Errors
    ///
    /// [`MgmtError::Table`] if unknown; broker failures are surfaced but
    /// the table record is still removed (the distributor must stop
    /// routing to a half-deleted object).
    pub fn delete(&mut self, path: &UrlPath) -> Result<(), MgmtError> {
        self.timed("delete", |c| c.delete_impl(path))
    }

    fn delete_impl(&mut self, path: &UrlPath) -> Result<(), MgmtError> {
        let locations = self
            .table()
            .lookup_exact(path)
            .ok_or_else(|| TableError::NotFound { path: path.clone() })?
            .locations()
            .to_vec();
        let mut first_err: Option<MgmtError> = None;
        for n in locations {
            if let Err(e) = self.broker(n)?.dispatch(DeleteFile { path: path.clone() }) {
                first_err.get_or_insert(e.into());
            }
        }
        self.update_table(|t| t.remove(path))?;
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Replicates an object onto `target` (the receiving half of §3.3's
    /// auto-replication, also exposed to the administrator for manual
    /// fault-tolerance placement). The copy is real data movement: the
    /// bytes are pulled — chunk-verified — from a healthy source replica
    /// and pushed to the target's content store; the table location is
    /// added only after the target has committed them.
    ///
    /// # Errors
    ///
    /// [`MgmtError::AlreadyHostedOn`] if the target already has a copy;
    /// [`MgmtError::Agent`] if the transfer fails (table untouched).
    pub fn replicate(&mut self, path: &UrlPath, target: NodeId) -> Result<(), MgmtError> {
        self.timed("replicate", |c| c.replicate_impl(path, target))
    }

    fn replicate_impl(&mut self, path: &UrlPath, target: NodeId) -> Result<(), MgmtError> {
        let snapshot = self.table();
        let entry = snapshot
            .lookup_exact(path)
            .ok_or_else(|| TableError::NotFound { path: path.clone() })?;
        if entry.hosted_on(target) {
            return Err(MgmtError::AlreadyHostedOn {
                path: path.clone(),
                node: target,
            });
        }
        self.broker(target)?;
        // Pull verified bytes from the first source replica that answers.
        let mut pulled = None;
        let mut last_err: Option<MgmtError> = None;
        for &source in entry.locations() {
            match self.broker(source) {
                Ok(handle) => match self.shipper.pull(handle, path) {
                    Ok(x) => {
                        pulled = Some(x);
                        break;
                    }
                    Err(e) => last_err = Some(Self::ship_failure(source, e)),
                },
                Err(e) => last_err = Some(e),
            }
        }
        let (meta, sums, body) = match pulled {
            Some(x) => x,
            None => {
                return Err(last_err.unwrap_or(MgmtError::Agent(AgentError::Store(
                    cpms_store::StoreError::NotFound { path: path.clone() },
                ))))
            }
        };
        // The pull verified these sums against these bytes: send them on
        // without hashing the body again.
        self.shipper
            .push_described(self.broker(target)?, path, meta, &sums, &body, false)
            .map_err(|e| Self::ship_failure(target, e))?;
        // Commit before publish: the location becomes routable only now.
        self.update_table(|t| t.add_location(path, target))?;
        Ok(())
    }

    /// Removes the copy of an object from `node` (offloading a server), but
    /// never the last copy.
    ///
    /// # Errors
    ///
    /// [`MgmtError::LastCopy`], [`MgmtError::NotHostedOn`], or agent
    /// failures.
    pub fn offload(&mut self, path: &UrlPath, node: NodeId) -> Result<(), MgmtError> {
        self.timed("offload", |c| c.offload_impl(path, node))
    }

    fn offload_impl(&mut self, path: &UrlPath, node: NodeId) -> Result<(), MgmtError> {
        let snapshot = self.table();
        let entry = snapshot
            .lookup_exact(path)
            .ok_or_else(|| TableError::NotFound { path: path.clone() })?;
        if !entry.hosted_on(node) {
            return Err(MgmtError::NotHostedOn {
                path: path.clone(),
                node,
            });
        }
        if entry.replica_count() <= 1 {
            return Err(MgmtError::LastCopy { path: path.clone() });
        }
        self.broker(node)?
            .dispatch(DeleteFile { path: path.clone() })?;
        self.update_table(|t| t.remove_location(path, node))?;
        Ok(())
    }

    /// Renames an object or a whole subtree, on every hosting node and in
    /// the table.
    ///
    /// # Errors
    ///
    /// Table errors (missing source, occupied destination) are checked
    /// before any agent is dispatched.
    pub fn rename(&mut self, from: &UrlPath, to: &UrlPath) -> Result<(), MgmtError> {
        self.timed("rename", |c| c.rename_impl(from, to))
    }

    fn rename_impl(&mut self, from: &UrlPath, to: &UrlPath) -> Result<(), MgmtError> {
        // Collect the affected records first (file or subtree).
        let moves: Vec<(UrlPath, UrlPath, Vec<NodeId>)> = self
            .table()
            .subtree(from)
            .map(|(path, entry)| {
                let suffix = &path.as_str()[from.as_str().len()..];
                let new_path: UrlPath = format!("{}{}", to.as_str(), suffix)
                    .parse()
                    .expect("concatenation of valid paths is valid");
                (path, new_path, entry.locations().to_vec())
            })
            .collect();
        if moves.is_empty() {
            return Err(MgmtError::Table(TableError::NotFound {
                path: from.clone(),
            }));
        }
        // Table first (it validates the destination atomically)…
        self.update_table(|t| t.rename(from, to))?;
        // …then propagate to brokers.
        let mut first_err: Option<MgmtError> = None;
        for (old, new, locations) in moves {
            for n in locations {
                if let Err(e) = self.broker(n)?.dispatch(RenameFile {
                    from: old.clone(),
                    to: new.clone(),
                }) {
                    first_err.get_or_insert(e.into());
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Pushes a content update to every copy of a mutable document,
    /// returning the new version. §4 recommends keeping mutable documents
    /// single-copy so this stays a one-node operation.
    ///
    /// # Errors
    ///
    /// Table or agent errors.
    pub fn update_content(&mut self, path: &UrlPath) -> Result<u64, MgmtError> {
        self.timed("update_content", |c| c.update_content_impl(path))
    }

    fn update_content_impl(&mut self, path: &UrlPath) -> Result<u64, MgmtError> {
        let locations = self
            .table()
            .lookup_exact(path)
            .ok_or_else(|| TableError::NotFound { path: path.clone() })?
            .locations()
            .to_vec();
        let mut version = 0;
        for n in locations {
            match self.broker(n)?.dispatch(TouchFile { path: path.clone() })? {
                AgentOutput::Version(v) => version = version.max(v),
                other => unreachable!("touch returns a version, got {other:?}"),
            }
        }
        Ok(version)
    }

    /// Probes every broker for its status.
    pub fn status(&self) -> Vec<(NodeId, Result<AgentOutput, AgentError>)> {
        (0..self.cluster.len())
            .map(|i| {
                let node = NodeId(i as u16);
                let result = self
                    .cluster
                    .broker(node)
                    .expect("index in range")
                    .dispatch(StatusProbe);
                (node, result)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auditor::AntiEntropyAuditor;

    fn p(s: &str) -> UrlPath {
        s.parse().unwrap()
    }

    fn controller(nodes: usize) -> Controller {
        Controller::new(Cluster::start(nodes, 1 << 20))
    }

    /// Table and stores agree, by the one judge of that.
    fn coherent(c: &Controller) -> bool {
        AntiEntropyAuditor::new().audit(c).is_clean()
    }

    fn publish(c: &mut Controller, path: &str, id: u32, nodes: &[u16]) {
        let nodes: Vec<NodeId> = nodes.iter().map(|&n| NodeId(n)).collect();
        c.publish(
            &p(path),
            ContentId(id),
            ContentKind::StaticHtml,
            100,
            Priority::Normal,
            &nodes,
        )
        .unwrap();
    }

    #[test]
    fn publish_reaches_brokers_and_table() {
        let mut c = controller(3);
        publish(&mut c, "/a/x.html", 1, &[0, 2]);
        let table = c.table();
        let entry = table.lookup(&p("/a/x.html")).unwrap();
        assert_eq!(entry.locations(), [NodeId(0), NodeId(2)]);
        assert!(coherent(&c));
        c.shutdown();
    }

    #[test]
    fn publish_duplicate_rejected() {
        let mut c = controller(2);
        publish(&mut c, "/a", 1, &[0]);
        let err = c
            .publish(
                &p("/a"),
                ContentId(2),
                ContentKind::StaticHtml,
                100,
                Priority::Normal,
                &[NodeId(1)],
            )
            .unwrap_err();
        assert!(matches!(
            err,
            MgmtError::Table(TableError::AlreadyExists { .. })
        ));
        assert!(coherent(&c), "failed publish left no orphans");
        c.shutdown();
    }

    #[test]
    fn publish_rolls_back_on_disk_full() {
        let mut c = Controller::new(Cluster::start_with_capacities(&[1 << 20, 50]));
        // node 1 has only 50 bytes: storing 100 fails after node 0 succeeded
        let err = c
            .publish(
                &p("/big"),
                ContentId(1),
                ContentKind::StaticHtml,
                100,
                Priority::Normal,
                &[NodeId(0), NodeId(1)],
            )
            .unwrap_err();
        assert!(matches!(err, MgmtError::Agent(_)));
        assert!(c.table().is_empty());
        assert!(coherent(&c), "rollback removed partial copies");
        c.shutdown();
    }

    #[test]
    fn replicate_and_offload() {
        let mut c = controller(3);
        publish(&mut c, "/a", 1, &[0]);
        c.replicate(&p("/a"), NodeId(1)).unwrap();
        assert_eq!(c.table().lookup(&p("/a")).unwrap().replica_count(), 2);
        assert!(coherent(&c));

        assert!(matches!(
            c.replicate(&p("/a"), NodeId(1)),
            Err(MgmtError::AlreadyHostedOn { .. })
        ));

        c.offload(&p("/a"), NodeId(0)).unwrap();
        assert_eq!(c.table().lookup(&p("/a")).unwrap().locations(), [NodeId(1)]);
        assert!(coherent(&c));

        // never drop the last copy
        assert!(matches!(
            c.offload(&p("/a"), NodeId(1)),
            Err(MgmtError::LastCopy { .. })
        ));
        // not hosted
        assert!(matches!(
            c.offload(&p("/a"), NodeId(2)),
            Err(MgmtError::NotHostedOn { .. })
        ));
        c.shutdown();
    }

    #[test]
    fn delete_everywhere() {
        let mut c = controller(3);
        publish(&mut c, "/a", 1, &[0, 1, 2]);
        c.delete(&p("/a")).unwrap();
        assert!(c.table().is_empty());
        assert!(coherent(&c));
        assert!(matches!(
            c.delete(&p("/a")),
            Err(MgmtError::Table(TableError::NotFound { .. }))
        ));
        c.shutdown();
    }

    #[test]
    fn rename_subtree_propagates() {
        let mut c = controller(2);
        publish(&mut c, "/img/a.gif", 1, &[0]);
        publish(&mut c, "/img/deep/b.gif", 2, &[1]);
        c.rename(&p("/img"), &p("/media")).unwrap();
        assert!(c.table().lookup(&p("/media/a.gif")).is_some());
        assert!(c.table().lookup(&p("/media/deep/b.gif")).is_some());
        assert!(coherent(&c));
        c.shutdown();
    }

    #[test]
    fn rename_carries_priority_and_replicas() {
        let mut c = controller(3);
        c.publish(
            &p("/shop/cart.asp"),
            ContentId(1),
            ContentKind::Asp,
            50,
            Priority::Critical,
            &[NodeId(0)],
        )
        .unwrap();
        c.replicate(&p("/shop/cart.asp"), NodeId(2)).unwrap();
        c.rename(&p("/shop"), &p("/store")).unwrap();
        let table = c.table();
        assert_eq!(table.len(), 1);
        let entry = table.lookup(&p("/store/cart.asp")).unwrap();
        assert_eq!(entry.priority(), Priority::Critical);
        assert_eq!(entry.locations(), [NodeId(0), NodeId(2)]);
        c.offload(&p("/store/cart.asp"), NodeId(0)).unwrap();
        c.delete(&p("/store/cart.asp")).unwrap();
        assert!(c.table().is_empty());
        assert!(coherent(&c));
        c.shutdown();
    }

    #[test]
    fn rename_missing_source() {
        let mut c = controller(1);
        assert!(matches!(
            c.rename(&p("/none"), &p("/x")),
            Err(MgmtError::Table(TableError::NotFound { .. }))
        ));
        c.shutdown();
    }

    #[test]
    fn update_content_bumps_versions() {
        let mut c = controller(2);
        publish(&mut c, "/mutable.html", 1, &[0, 1]);
        assert_eq!(c.update_content(&p("/mutable.html")).unwrap(), 1);
        assert_eq!(c.update_content(&p("/mutable.html")).unwrap(), 2);
        c.shutdown();
    }

    #[test]
    fn status_covers_all_nodes() {
        let mut c = controller(3);
        publish(&mut c, "/a", 1, &[1]);
        let status = c.status();
        assert_eq!(status.len(), 3);
        match &status[1].1 {
            Ok(AgentOutput::Status { files, .. }) => assert_eq!(*files, 1),
            other => panic!("{other:?}"),
        }
        c.shutdown();
    }

    #[test]
    fn operations_are_observed_in_the_registry() {
        let mut c = controller(2);
        let registry = Arc::new(cpms_obs::MetricsRegistry::new());
        c.set_metrics(&registry);

        publish(&mut c, "/a", 1, &[0]);
        c.replicate(&p("/a"), NodeId(1)).unwrap();
        assert!(c.replicate(&p("/a"), NodeId(1)).is_err()); // duplicate
        c.delete(&p("/a")).unwrap();

        let snap = registry.snapshot();
        assert_eq!(snap.counter("mgmt_ops_total"), Some(4));
        assert_eq!(snap.counter("mgmt_op_errors_total"), Some(1));
        assert_eq!(snap.counter("mgmt_publish_total"), Some(1));
        assert_eq!(snap.counter("mgmt_replicate_total"), Some(2));
        assert_eq!(snap.counter("mgmt_delete_total"), Some(1));
        let op_ns = snap.histogram("mgmt_op_ns").unwrap();
        assert_eq!(op_ns.count, 4);
        assert!(op_ns.max > 0, "operations take measurable time");
        // the three successful ops each published once; the table's share
        // of an operation is inside the operation
        let table_ns = snap.histogram("urltable_update_ns").unwrap();
        assert_eq!(table_ns.count, 3);
        assert!(table_ns.max > 0 && table_ns.sum < op_ns.sum);
        // publish, replicate, delete each published a generation
        assert_eq!(snap.gauge("mgmt_table_generation"), Some(3));
        assert!(snap
            .events
            .iter()
            .any(|e| e.stage == "mgmt" && e.detail.contains("replicate failed")));

        let report = c.metrics_report();
        assert!(report.contains("mgmt_ops_total"), "{report}");
        assert!(report.contains("urltable_memory_bytes"), "{report}");
        c.shutdown();
    }

    #[test]
    fn management_operations_trace_across_controller_and_brokers() {
        use cpms_obs::SpanCollector;

        // Each broker gets its own collector, standing in for a separate
        // process's trace surface.
        let broker_spans: Vec<Arc<SpanCollector>> =
            (0..2).map(|_| Arc::new(SpanCollector::default())).collect();
        let handles = broker_spans
            .iter()
            .enumerate()
            .map(|(i, spans)| {
                Broker::spawn_observed(
                    BrokerState::new(NodeId(i as u16), 1 << 20),
                    Arc::clone(spans),
                )
            })
            .collect();
        let mut c = Controller::new(Cluster::from_handles(handles));
        let registry = Arc::new(cpms_obs::MetricsRegistry::new());
        c.set_metrics(&registry);

        publish(&mut c, "/traced", 1, &[0]);
        c.replicate(&p("/traced"), NodeId(1)).unwrap();

        let ctrl = registry.spans().snapshot();
        let publish_root = ctrl.iter().find(|s| s.name == "mgmt.publish").unwrap();
        let replicate_root = ctrl.iter().find(|s| s.name == "mgmt.replicate").unwrap();
        assert_eq!(publish_root.parent, None);
        assert_ne!(
            publish_root.trace, replicate_root.trace,
            "each operation is its own trace"
        );
        // The controller's wire client hops hang off the operation roots.
        assert!(ctrl
            .iter()
            .any(|s| s.name == "wire.call" && s.trace == publish_root.trace));
        // The brokers — separate collectors, reached over the wire —
        // recorded their halves of the same traces.
        let b0 = broker_spans[0].snapshot();
        assert!(
            b0.iter()
                .any(|s| s.name == "broker.ship" && s.trace == publish_root.trace),
            "publish ship frames traced on node 0: {b0:?}"
        );
        assert!(
            b0.iter().any(|s| s.trace == replicate_root.trace),
            "replicate pulled from node 0 under its trace"
        );
        let b1 = broker_spans[1].snapshot();
        assert!(
            b1.iter()
                .any(|s| s.name == "broker.ship" && s.trace == replicate_root.trace),
            "replicate pushed to node 1 under its trace: {b1:?}"
        );
        // Every broker span has a recorded parent somewhere in the merged
        // set — no orphans.
        let mut known: std::collections::HashSet<u64> = ctrl.iter().map(|s| s.span.0).collect();
        known.extend(b0.iter().chain(b1.iter()).map(|s| s.span.0));
        for span in b0.iter().chain(b1.iter()) {
            let parent = span.parent.expect("broker spans always have parents");
            assert!(known.contains(&parent.0), "orphan broker span {span:?}");
        }
        c.shutdown();
    }

    #[test]
    fn evict_drops_locations_and_reports_lost() {
        let mut c = controller(3);
        publish(&mut c, "/shared", 1, &[0, 1]);
        publish(&mut c, "/solo", 2, &[1]);
        let report = c.evict(NodeId(1)).unwrap();
        assert_eq!(report.dropped_locations, 1);
        assert_eq!(report.lost, vec![p("/solo")]);
        assert!(c.is_decommissioned(NodeId(1)));
        // /shared still routable on node 0; /solo gone.
        let table = c.table();
        assert_eq!(
            table.lookup(&p("/shared")).unwrap().locations(),
            [NodeId(0)]
        );
        assert!(table.lookup(&p("/solo")).is_none());
        assert!(matches!(
            c.evict(NodeId(9)),
            Err(MgmtError::NoSuchNode(NodeId(9)))
        ));
        c.shutdown();
    }

    #[test]
    fn no_such_node() {
        let mut c = controller(1);
        let err = c
            .publish(
                &p("/a"),
                ContentId(1),
                ContentKind::StaticHtml,
                1,
                Priority::Normal,
                &[NodeId(9)],
            )
            .unwrap_err();
        assert!(matches!(err, MgmtError::NoSuchNode(NodeId(9))));
        c.shutdown();
    }
}
