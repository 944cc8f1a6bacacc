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
//! Every mutating operation therefore has two halves, ordered so the
//! distributor only routes to copies that actually exist: a copy is
//! shipped and committed before the URL table lists it (publish,
//! replicate), and unlisted before it is deleted (offload, delete).

use crate::agent::AgentError;
use crate::broker::{Broker, BrokerHandle};
use crate::store::BrokerState;
use cpms_model::{ContentId, ContentKind, NodeId, Priority, UrlPath};
use cpms_obs::{Counter, Gauge, HistogramRecorder, MetricsRegistry, Span, TracedSpan};
use cpms_store::{ObjectMeta, ShipError, ShipMetrics, ShipRequest, Shipper, StoreError};
use cpms_urltable::{
    RebalanceAction, SnapshotHandle, TableError, TablePublisher, UrlEntry, UrlTable,
};
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

/// A running set of brokers, one per node.
#[derive(Debug)]
pub struct Cluster {
    brokers: Vec<BrokerHandle>,
}

impl Cluster {
    /// Starts `nodes` in-process brokers (run on the controller's own
    /// thread), each with `disk_capacity` bytes of store.
    pub fn start(nodes: usize, disk_capacity: u64) -> Self {
        Self::start_with_capacities(&vec![disk_capacity; nodes])
    }

    /// Starts in-process brokers with per-node disk capacities.
    pub fn start_with_capacities(capacities: &[u64]) -> Self {
        Cluster {
            brokers: capacities
                .iter()
                .enumerate()
                .map(|(i, &cap)| Broker::spawn(BrokerState::new(NodeId(i as u16), cap)))
                .collect(),
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
    /// each target broker's content store, one target after another in
    /// `nodes` order from this thread (so under this operation's trace),
    /// and only after every copy has **committed** records the object in
    /// the URL table — so no published generation ever routes a lookup
    /// to a node lacking the content. The table entry's size and
    /// checksum come from the committed store object, not from what the
    /// caller declared. The first transfer that fails ends the
    /// publication: the copies already committed are rolled back, and
    /// the targets after it are never begun.
    ///
    /// # Errors
    ///
    /// [`MgmtError::Agent`] from the first transfer that failed (after
    /// rollback; a wire failure names its node), [`MgmtError::Table`] if
    /// the path is already published.
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
        if self.table().lookup(path).is_some() {
            return Err(MgmtError::Table(TableError::AlreadyExists {
                path: path.clone(),
            }));
        }
        let handles: Vec<&BrokerHandle> = nodes
            .iter()
            .map(|&n| self.broker(n))
            .collect::<Result<_, _>>()?;
        // One description of the body for every replica: the bytes are
        // hashed once per publication — whole-object checksum and chunk
        // sums in one walk — not once per copy.
        let (meta, sums) = self
            .shipper
            .describe(content, body, cpms_store::DEFAULT_CHUNK_SIZE, 0);
        // In `nodes` order, from this thread, so every RPC is a child of
        // the publication's span. The first failure ends the fan-out:
        // the copies already committed are rolled back and later targets
        // are never begun.
        let mut committed: Option<cpms_store::ObjectMeta> = None;
        for (i, (&node, &handle)) in nodes.iter().zip(&handles).enumerate() {
            match self
                .shipper
                .push_described(handle, path, meta, &sums, body, false)
            {
                Ok(outcome) => {
                    committed.get_or_insert(outcome.meta);
                }
                Err(e) => {
                    for done in &handles[..i] {
                        let _ = done.delete_copy(path);
                    }
                    return Err(Self::ship_failure(node, e));
                }
            }
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
                    .with_locations(nodes.iter().copied())
                    .with_checksum(checksum),
            )
        })?;
        Ok(())
    }

    /// Deletes an object everywhere: the table record first, then agents
    /// to every hosting broker.
    ///
    /// # Errors
    ///
    /// [`MgmtError::Table`] if unknown; broker failures are surfaced, but
    /// the table record is already gone, and a copy left behind is an
    /// orphan the audit's repair removes.
    pub fn delete(&mut self, path: &UrlPath) -> Result<(), MgmtError> {
        self.timed("delete", |c| c.delete_impl(path))
    }

    fn delete_impl(&mut self, path: &UrlPath) -> Result<(), MgmtError> {
        let locations = self
            .table()
            .lookup(path)
            .ok_or_else(|| TableError::NotFound { path: path.clone() })?
            .locations()
            .to_vec();
        // Unpublish before delete, as `offload` does.
        self.update_table(|t| t.remove(path))?;
        let mut first_err: Option<MgmtError> = None;
        for n in locations {
            if let Err(e) = self.broker(n)?.delete_copy(path) {
                first_err.get_or_insert(e.into());
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Replicates an object onto `target` (the receiving half of §3.3's
    /// auto-replication, also exposed to the administrator for manual
    /// fault-tolerance placement). The copy is real data movement: the
    /// bytes are pulled — chunk-verified — from a source replica whose
    /// copy is the one the table records, and pushed to the target's
    /// content store; the table location is added only after the target
    /// has committed them.
    ///
    /// # Errors
    ///
    /// [`MgmtError::AlreadyHostedOn`] if the target already has a copy;
    /// [`MgmtError::Agent`] if no source holds the recorded copy or the
    /// transfer fails (table untouched).
    pub fn replicate(&mut self, path: &UrlPath, target: NodeId) -> Result<(), MgmtError> {
        self.timed("replicate", |c| c.replicate_impl(path, target))
    }

    fn replicate_impl(&mut self, path: &UrlPath, target: NodeId) -> Result<(), MgmtError> {
        let snapshot = self.table();
        let entry = snapshot
            .lookup(path)
            .ok_or_else(|| TableError::NotFound { path: path.clone() })?;
        if entry.hosted_on(target) {
            return Err(MgmtError::AlreadyHostedOn {
                path: path.clone(),
                node: target,
            });
        }
        self.broker(target)?;
        let (meta, sums, body) = self.pull_recorded(path, entry, None)?;
        // The pull verified these sums against these bytes: send them on
        // without hashing the body again.
        self.shipper
            .push_described(self.broker(target)?, path, meta, &sums, &body, false)
            .map_err(|e| Self::ship_failure(target, e))?;
        // Commit before publish: the location becomes routable only now.
        self.update_table(|t| t.add_location(path, target))?;
        Ok(())
    }

    /// The shipper every transfer the controller starts goes through,
    /// recording into its `ship_*` metrics.
    pub(crate) fn shipper(&self) -> &Shipper {
        &self.shipper
    }

    /// Pulls `path`'s bytes, chunk-verified and with the sums they were
    /// verified against, from the first of `entry`'s locations other than
    /// `avoid` whose copy is the one `entry` records: its content id and,
    /// where the table has one, its checksum. A stale copy is passed over
    /// like an unreachable one, so it never spreads to another node.
    ///
    /// # Errors
    ///
    /// The last source's failure: its transfer error, or
    /// [`StoreError::ChecksumMismatch`] for a stale copy.
    pub(crate) fn pull_recorded(
        &self,
        path: &UrlPath,
        entry: &UrlEntry,
        avoid: Option<NodeId>,
    ) -> Result<(ObjectMeta, Vec<u64>, Vec<u8>), MgmtError> {
        let refused = |e: StoreError| MgmtError::Agent(AgentError::Store(e));
        let mut last = refused(StoreError::NotFound { path: path.clone() });
        for &source in entry.locations().iter().filter(|&&n| Some(n) != avoid) {
            let pulled = self.broker(source).and_then(|handle| {
                self.shipper
                    .pull(handle, path)
                    .map_err(|e| Self::ship_failure(source, e))
            });
            last = match pulled {
                Err(e) => e,
                Ok((meta, sums, body)) => {
                    if meta.content == entry.content()
                        && (entry.checksum() == 0 || meta.checksum == entry.checksum())
                    {
                        return Ok((meta, sums, body));
                    }
                    refused(StoreError::ChecksumMismatch {
                        path: path.clone(),
                        expected: entry.checksum(),
                        got: meta.checksum,
                    })
                }
            };
        }
        Err(last)
    }

    /// Removes the copy of an object from `node` (offloading a server), but
    /// never the last copy. The location leaves the table before the
    /// copy leaves the node.
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
            .lookup(path)
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
        // Unpublish, then delete: no generation routes to the node while
        // its copy goes away. A copy whose delete fails stays behind as
        // an orphan, which the audit's repair removes.
        let handle = self.broker(node)?;
        self.update_table(|t| t.remove_location(path, node))?;
        handle.delete_copy(path)?;
        Ok(())
    }

    /// Carries out one §3.3 auto-replication plan
    /// ([`cpms_urltable::AutoReplicator::plan`]): each action is a
    /// [`Controller::replicate`] or a [`Controller::offload`], so agents
    /// move the files. Returns per-action results.
    pub fn rebalance(&mut self, actions: &[RebalanceAction]) -> Vec<Result<(), MgmtError>> {
        actions
            .iter()
            .map(|action| match action {
                RebalanceAction::Replicate { path, to } => self.replicate(path, *to),
                RebalanceAction::Offload { path, from } => self.offload(path, *from),
            })
            .collect()
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
        let moves: Vec<(UrlPath, UrlPath, ContentId, Vec<NodeId>)> = self
            .table()
            .subtree(from)
            .map(|(path, entry)| {
                let suffix = &path.as_str()[from.as_str().len()..];
                let new_path: UrlPath = format!("{}{}", to.as_str(), suffix)
                    .parse()
                    .expect("concatenation of valid paths is valid");
                (path, new_path, entry.content(), entry.locations().to_vec())
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
        for (old, new, content, locations) in moves {
            for n in locations {
                if let Err(e) = self.broker(n)?.rename_copy(&old, &new, content) {
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
    /// returning the new version: one past the highest any copy holds,
    /// installed on all of them, so replicas converge on one version and
    /// a replayed update installs nothing more. §4 recommends keeping
    /// mutable documents single-copy so this stays a one-node operation.
    ///
    /// # Errors
    ///
    /// Table or broker errors.
    pub fn update_content(&mut self, path: &UrlPath) -> Result<u64, MgmtError> {
        self.timed("update_content", |c| c.update_content_impl(path))
    }

    fn update_content_impl(&mut self, path: &UrlPath) -> Result<u64, MgmtError> {
        let locations = self
            .table()
            .lookup(path)
            .ok_or_else(|| TableError::NotFound { path: path.clone() })?
            .locations()
            .to_vec();
        let mut highest = 0;
        for &n in &locations {
            let meta = ShipRequest::Meta { path: path.clone() };
            highest = highest.max(self.broker(n)?.record(meta)?.version);
        }
        let mut version = 0;
        for n in locations {
            let touch = ShipRequest::Touch {
                path: path.clone(),
                version: highest + 1,
            };
            version = version.max(self.broker(n)?.record(touch)?.version);
        }
        Ok(version)
    }
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// A link that shows every request it carries to `watch`, on the
    /// calling thread, before forwarding it.
    struct Watched {
        inner: Arc<dyn cpms_wire::Transport>,
        watch: Box<dyn Fn(&ShipRequest) + Send + Sync>,
    }

    impl fmt::Debug for Watched {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Watched")
        }
    }

    impl cpms_wire::Transport for Watched {
        fn call(
            &self,
            request: &[u8],
            deadline: std::time::Duration,
        ) -> Result<Vec<u8>, WireError> {
            let (head, _) = cpms_wire::split_tail(request);
            let text = std::str::from_utf8(head).expect("UTF-8 head");
            (self.watch)(&serde_json::from_str(text).expect("a ship request"));
            self.inner.call(request, deadline)
        }

        fn kind(&self) -> &'static str {
            "watched"
        }
    }

    fn watched(
        watch: impl Fn(&ShipRequest) + Send + Sync + 'static,
    ) -> impl FnOnce(Arc<dyn cpms_wire::Transport>) -> Arc<dyn cpms_wire::Transport> {
        move |inner| {
            Arc::new(Watched {
                inner,
                watch: Box::new(watch),
            })
        }
    }

    #[test]
    fn a_publication_pushes_every_replica_from_the_calling_thread() {
        let callers = Arc::new(std::sync::Mutex::new(HashSet::new()));
        let handles = (0..3u16)
            .map(|n| {
                let callers = Arc::clone(&callers);
                Broker::bind_wrapped(
                    "127.0.0.1:0".parse().unwrap(),
                    BrokerState::new(NodeId(n), 1 << 20),
                    watched(move |_| {
                        callers.lock().unwrap().insert(std::thread::current().id());
                    }),
                )
                .unwrap()
            })
            .collect();
        let mut c = Controller::new(Cluster::from_handles(handles));
        publish(&mut c, "/a.html", 1, &[0, 1, 2]);
        assert_eq!(
            *callers.lock().unwrap(),
            HashSet::from([std::thread::current().id()]),
            "every broker call came from the publishing thread"
        );
        assert!(coherent(&c));
        c.shutdown();
    }

    #[test]
    fn a_failed_push_ends_the_publication_before_later_targets() {
        // Node 1 has only 50 bytes: its push of 100 fails, so node 2's is
        // never begun.
        let mut c = Controller::new(Cluster::start_with_capacities(&[1 << 20, 50, 1 << 20]));
        let registry = Arc::new(MetricsRegistry::new());
        c.set_metrics(&registry);
        let err = c
            .publish(
                &p("/big"),
                ContentId(1),
                ContentKind::StaticHtml,
                100,
                Priority::Normal,
                &[NodeId(0), NodeId(1), NodeId(2)],
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                MgmtError::Agent(AgentError::Store(cpms_store::StoreError::DiskFull { .. }))
            ),
            "{err}"
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ship_transfers_total"), Some(1), "node 0 only");
        assert_eq!(snap.counter("ship_failed_transfers_total"), Some(1));
        assert!(c.table().is_empty());
        assert!(coherent(&c), "node 0's copy was rolled back");
        c.shutdown();
    }

    #[test]
    fn offload_and_delete_unpublish_before_deleting_the_copy() {
        // Node 0's link checks the published table as each `Delete`
        // crosses it: the path must no longer list node 0.
        let table = Arc::new(std::sync::OnceLock::<SnapshotHandle>::new());
        let listed_at_delete = Arc::new(std::sync::Mutex::new(Vec::new()));
        let node0 = {
            let (table, listed) = (Arc::clone(&table), Arc::clone(&listed_at_delete));
            Broker::spawn_wrapped(
                BrokerState::new(NodeId(0), 1 << 20),
                watched(move |request| {
                    if let ShipRequest::Delete { path } = request {
                        let hosted = table
                            .get()
                            .and_then(|h| h.load().lookup(path).map(|e| e.hosted_on(NodeId(0))))
                            .unwrap_or(false);
                        listed.lock().unwrap().push((path.clone(), hosted));
                    }
                }),
            )
        };
        let node1 = Broker::spawn(BrokerState::new(NodeId(1), 1 << 20));
        let mut c = Controller::new(Cluster::from_handles(vec![node0, node1]));
        table.set(c.handle()).unwrap();
        publish(&mut c, "/offloaded", 1, &[0, 1]);
        publish(&mut c, "/deleted", 2, &[0, 1]);

        c.offload(&p("/offloaded"), NodeId(0)).unwrap();
        c.delete(&p("/deleted")).unwrap();
        assert_eq!(
            *listed_at_delete.lock().unwrap(),
            [(p("/offloaded"), false), (p("/deleted"), false)],
            "each copy was deleted while the table still routed to it"
        );
        assert!(coherent(&c));
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

    /// Ships `(content, size)`'s synthetic bytes to `path` on `node`
    /// (overwriting), the table none the wiser.
    pub(crate) fn put_behind_the_table(
        c: &Controller,
        node: u16,
        path: &str,
        content: u32,
        size: u64,
    ) {
        let body = cpms_store::synthetic_body(ContentId(content), size);
        let broker = c.cluster().broker(NodeId(node)).unwrap();
        Shipper::new()
            .push(broker, &p(path), ContentId(content), 0, &body, true)
            .unwrap();
    }

    #[test]
    fn replicate_ships_only_the_copy_the_table_records() {
        let mut c = controller(4);
        publish(&mut c, "/a", 1, &[0, 1]);
        put_behind_the_table(&c, 0, "/a", 1, 80);
        c.replicate(&p("/a"), NodeId(2)).unwrap();
        let recorded = c.table().lookup(&p("/a")).unwrap().checksum();
        let target = c.broker(NodeId(2)).unwrap();
        let shipped = target.record(ShipRequest::Meta { path: p("/a") }).unwrap();
        assert_eq!(shipped.checksum, recorded, "n1's copy, not n0's");

        // Every source stale: nothing ships, nothing is published.
        publish(&mut c, "/b", 2, &[0, 1]);
        put_behind_the_table(&c, 0, "/b", 2, 80);
        put_behind_the_table(&c, 1, "/b", 7, 100);
        let before = c.table();
        let err = c.replicate(&p("/b"), NodeId(3)).unwrap_err();
        assert!(
            matches!(
                err,
                MgmtError::Agent(AgentError::Store(StoreError::ChecksumMismatch { .. }))
            ),
            "{err}"
        );
        let after = c.table();
        assert_eq!(after.generation(), before.generation());
        assert_eq!(after.lookup(&p("/b")), before.lookup(&p("/b")));
        let target = c.broker(NodeId(3)).unwrap();
        assert!(target.record(ShipRequest::Meta { path: p("/b") }).is_err());
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

    /// Two brokers behind links that deliver every request twice and lose
    /// the first reply.
    fn redelivering_controller() -> Controller {
        let handles = (0..2u16)
            .map(|n| crate::broker::spawn_redelivering(BrokerState::new(NodeId(n), 1 << 20)))
            .collect();
        Controller::new(Cluster::from_handles(handles))
    }

    #[test]
    fn offload_and_delete_survive_a_lost_delete_reply() {
        // Each delete's replay finds the copy already gone.
        let mut c = redelivering_controller();
        publish(&mut c, "/a.html", 1, &[0, 1]);

        c.offload(&p("/a.html"), NodeId(0)).unwrap();
        assert_eq!(
            c.table().lookup(&p("/a.html")).unwrap().locations(),
            [NodeId(1)]
        );
        assert!(coherent(&c), "{:?}", AntiEntropyAuditor::new().audit(&c));

        c.delete(&p("/a.html")).unwrap();
        assert!(c.table().is_empty());
        assert!(coherent(&c));
        c.shutdown();
    }

    #[test]
    fn rename_survives_a_lost_reply() {
        let mut c = redelivering_controller();
        publish(&mut c, "/a.html", 1, &[0, 1]);
        // Each rename's replay finds `to` taken by the copy it just moved.
        c.rename(&p("/a.html"), &p("/b.html")).unwrap();
        assert!(c.table().lookup(&p("/b.html")).is_some());
        assert!(coherent(&c), "{:?}", AntiEntropyAuditor::new().audit(&c));
        c.shutdown();
    }

    #[test]
    fn update_content_survives_a_lost_reply() {
        let mut c = redelivering_controller();
        publish(&mut c, "/mutable.html", 1, &[0, 1]);
        assert_eq!(c.update_content(&p("/mutable.html")).unwrap(), 1);
        assert_eq!(c.update_content(&p("/mutable.html")).unwrap(), 2);
        let versions: Vec<u64> = (0..2)
            .map(|n| {
                let broker = c.cluster().broker(NodeId(n)).unwrap();
                let meta = ShipRequest::Meta {
                    path: p("/mutable.html"),
                };
                broker.record(meta).unwrap().version
            })
            .collect();
        assert_eq!(versions, [2, 2], "replicas converge on one version");
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
        // The console's per-node view is one monitor sweep: a `Stat` per
        // broker, its answer carried in the verdict.
        let mut c = controller(3);
        publish(&mut c, "/a", 1, &[1]);
        let status = crate::ClusterMonitor::new(3, 1).poll_controller(&c);
        let objects: Vec<Option<u64>> = status
            .iter()
            .map(|(_, health)| health.stats().map(|s| s.objects))
            .collect();
        assert_eq!(objects, [Some(0), Some(1), Some(0)]);
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

        // Both nodes are pushed from the calling thread, one after the
        // other; both must land in the publication's trace.
        publish(&mut c, "/traced", 1, &[0, 1]);
        c.offload(&p("/traced"), NodeId(1)).unwrap();
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
        // recorded their halves of the same traces. The object is one
        // chunk, so each copy is one `Put` and the pull one `Get`.
        let b0 = broker_spans[0].snapshot();
        assert!(
            b0.iter()
                .any(|s| s.name == "broker.put" && s.trace == publish_root.trace),
            "publish ship frames traced on node 0: {b0:?}"
        );
        assert!(
            b0.iter()
                .any(|s| s.name == "broker.get" && s.trace == replicate_root.trace),
            "replicate pulled from node 0 under its trace: {b0:?}"
        );
        let b1 = broker_spans[1].snapshot();
        assert!(
            b1.iter()
                .any(|s| s.name == "broker.put" && s.trace == publish_root.trace),
            "publish ship frames traced on node 1, the second target: {b1:?}"
        );
        assert!(
            b1.iter()
                .any(|s| s.name == "broker.put" && s.trace == replicate_root.trace),
            "replicate pushed to node 1 under its trace: {b1:?}"
        );
        // A one-chunk publication to two nodes is one `Put` on each.
        let mut publish_spans: Vec<&str> = b0
            .iter()
            .chain(b1.iter())
            .filter(|s| s.trace == publish_root.trace)
            .map(|s| s.name.as_str())
            .collect();
        publish_spans.sort_unstable();
        assert_eq!(publish_spans, ["broker.put", "broker.put"]);
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
    fn a_one_chunk_copy_is_one_round_trip() {
        let mut c = controller(3);
        let registry = Arc::new(cpms_obs::MetricsRegistry::new());
        c.set_metrics(&registry);
        let rpcs = || registry.snapshot().counter("wire_rpc_total").unwrap_or(0);
        let nodes = [NodeId(0), NodeId(1)];
        let counted = |c: &mut Controller, op: &dyn Fn(&mut Controller)| {
            let before = rpcs();
            op(c);
            rpcs() - before
        };
        let chunk = u64::from(cpms_store::DEFAULT_CHUNK_SIZE);
        let publish = |path: &'static str, size: u64| {
            move |c: &mut Controller| {
                c.publish(
                    &p(path),
                    ContentId(1),
                    ContentKind::StaticHtml,
                    size,
                    Priority::Normal,
                    &nodes,
                )
                .unwrap();
            }
        };
        // A `Put` per replica.
        assert_eq!(counted(&mut c, &publish("/one", 1024)), 2);
        // A `Get` from the source, a `Put` to the target.
        assert_eq!(
            counted(&mut c, &|c| c.replicate(&p("/one"), NodeId(2)).unwrap()),
            2
        );
        // Two chunks: `Begin`, two `Chunk`s and `Commit` per replica.
        assert_eq!(counted(&mut c, &publish("/two", 2 * chunk)), 8);
        // Three chunks: `Begin`, three `Chunk`s and `Commit` per replica.
        assert_eq!(counted(&mut c, &publish("/three", 3 * chunk)), 10);
        // `Get`, two `Fetch`es; then `Begin`, three `Chunk`s, `Commit`.
        assert_eq!(
            counted(&mut c, &|c| c.replicate(&p("/three"), NodeId(2)).unwrap()),
            8
        );
        assert!(coherent(&c));
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

    #[test]
    fn end_to_end_through_controller() {
        use cpms_model::{LoadSample, LoadTracker, SimDuration};
        use cpms_urltable::AutoReplicator;
        let mut controller = controller(3);
        controller
            .publish(
                &p("/hot.html"),
                ContentId(1),
                ContentKind::StaticHtml,
                100,
                Priority::Normal,
                &[NodeId(0)],
            )
            .unwrap();

        let mut tracker = LoadTracker::new(vec![1.0, 1.0, 1.0]);
        for _ in 0..50 {
            tracker.record(LoadSample {
                node: NodeId(0),
                content: ContentId(1),
                kind: ContentKind::StaticHtml,
                processing_time: SimDuration::from_millis(20),
            });
        }
        tracker.record(LoadSample {
            node: NodeId(1),
            content: ContentId(1),
            kind: ContentKind::StaticHtml,
            processing_time: SimDuration::from_millis(1),
        });

        let planner = AutoReplicator::new(0.25);
        let actions = planner.plan(
            &tracker,
            &controller.table(),
            |id| (id == ContentId(1)).then(|| p("/hot.html")),
            |_, _| true,
        );
        let results = controller.rebalance(&actions);
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        assert!(
            controller
                .table()
                .lookup(&p("/hot.html"))
                .unwrap()
                .replica_count()
                > 1
        );
        assert!(coherent(&controller));
        controller.shutdown();
    }
}
