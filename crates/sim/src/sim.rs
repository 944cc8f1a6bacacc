//! The cluster simulation: closed-loop clients, dispatcher, back-end
//! nodes, optional NFS server, all advanced by a deterministic
//! discrete-event loop.

use crate::engine::EventQueue;
use crate::metrics::{Collector, NfsReport, NodeReport, SimReport};
use crate::nfs::NfsServer;
use crate::node::SimNode;
use crate::routing::{ClusterState, Router, RoutingRequest};
use crate::service::ServiceModel;
use crate::station::Station;
use cpms_model::{
    ContentId, ContentKind, LoadSample, LoadTracker, NodeId, NodeSpec, RequestClass, RequestId,
    RequestOutcome, SimDuration, SimTime,
};
use cpms_urltable::{AutoReplicator, RebalanceAction, UrlTable};
use cpms_workload::{Corpus, RequestSampler, Trace, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How requests arrive at the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// WebBench semantics: `clients` closed-loop clients, each issuing the
    /// next request `think_time` after receiving the previous response.
    ClosedLoop,
    /// Poisson arrivals at a fixed offered rate, independent of
    /// completions — for latency-vs-offered-load curves.
    OpenLoop {
        /// Offered load in requests/second.
        rate_rps: f64,
    },
}

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Back-end node hardware.
    pub nodes: Vec<NodeSpec>,
    /// Arrival process.
    pub arrival: Arrival,
    /// Closed-loop client population (WebBench clients); ignored under
    /// [`Arrival::OpenLoop`].
    pub clients: u32,
    /// Client think time between receiving a response and issuing the next
    /// request.
    pub think_time: SimDuration,
    /// `Some(spec)` switches on shared-NFS mode: static content is fetched
    /// from an NFS server with this hardware on every local cache miss.
    pub nfs: Option<NodeSpec>,
    /// Service-time model.
    pub service: ServiceModel,
    /// RNG seed (the run is fully deterministic given the seed).
    pub seed: u64,
    /// Client back-off after an unroutable or misrouted request.
    pub retry_delay: SimDuration,
}

impl SimConfig {
    /// Starts building a config.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        SimConfigBuilder {
            config: SimConfig {
                nodes: NodeSpec::paper_testbed(),
                arrival: Arrival::ClosedLoop,
                clients: 32,
                think_time: SimDuration::from_millis(25),
                nfs: None,
                service: ServiceModel::paper_defaults(),
                seed: 0,
                retry_delay: SimDuration::from_millis(100),
            },
        }
    }
}

impl SimConfigBuilder {
    /// Sets the back-end nodes.
    pub fn nodes(&mut self, nodes: Vec<NodeSpec>) -> &mut Self {
        self.config.nodes = nodes;
        self
    }

    /// Sets the closed-loop client count.
    pub fn clients(&mut self, clients: u32) -> &mut Self {
        self.config.clients = clients;
        self
    }

    /// Switches to open-loop Poisson arrivals at `rate_rps` offered
    /// requests/second.
    pub fn open_loop(&mut self, rate_rps: f64) -> &mut Self {
        assert!(
            rate_rps > 0.0 && rate_rps.is_finite(),
            "offered rate must be positive"
        );
        self.config.arrival = Arrival::OpenLoop { rate_rps };
        self
    }

    /// Sets the client think time.
    pub fn think_time(&mut self, think: SimDuration) -> &mut Self {
        self.config.think_time = think;
        self
    }

    /// Enables shared-NFS mode with the given server hardware.
    pub fn nfs(&mut self, spec: NodeSpec) -> &mut Self {
        self.config.nfs = Some(spec);
        self
    }

    /// Sets the service model.
    pub fn service(&mut self, service: ServiceModel) -> &mut Self {
        self.config.service = service;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.config.seed = seed;
        self
    }

    /// Builds the config.
    ///
    /// # Panics
    ///
    /// Panics if the node list is empty or the client count is zero.
    pub fn build(&self) -> SimConfig {
        assert!(!self.config.nodes.is_empty(), "at least one node required");
        assert!(self.config.clients > 0, "at least one client required");
        self.config.clone()
    }
}

#[derive(Debug, Clone)]
struct Job {
    id: RequestId,
    client: u32,
    content: ContentId,
    kind: ContentKind,
    size: u64,
    node: NodeId,
    issued_at: SimTime,
    dispatched_at: SimTime,
    cache_hit: bool,
    priority: cpms_model::Priority,
}

#[derive(Debug)]
enum Event {
    Issue {
        client: u32,
    },
    ArriveNode(Job),
    CpuDone(Job),
    /// One disk granule read; `remaining` bytes still to read.
    DiskChunk {
        job: Job,
        remaining: u64,
    },
    DataReady(Job),
    /// One NIC granule sent; `remaining` bytes still to send.
    NicChunk {
        job: Job,
        remaining: u64,
    },
    Done(Job),
}

/// The simulation: owns the cluster state, the URL table, the routing
/// policy, and the event loop.
///
/// Run it in windows: [`Simulation::run_window`] advances simulated time by
/// a fixed span and returns that window's [`SimReport`]; the convenience
/// [`Simulation::run`] does a discarded warm-up window followed by a
/// measured window. Between windows [`Simulation::rebalance`] may run a
/// §3.3 auto-replication round — the running system picks the changes up
/// exactly as the paper's distributor does.
pub struct Simulation<'c> {
    corpus: &'c Corpus,
    table: UrlTable,
    router: Router,
    sampler: RequestSampler,
    state: ClusterState,
    nodes: Vec<SimNode>,
    nfs: Option<NfsServer>,
    dispatcher: Station,
    queue: EventQueue<Event>,
    now: SimTime,
    collector: Collector,
    config: SimConfig,
    rng: StdRng,
    next_request: u64,
    in_flight: u64,
    started: bool,
    /// When set, requests come from this recorded trace instead of the
    /// sampler; clients stop issuing once it is exhausted.
    trace: Option<(Vec<ContentId>, usize)>,
}

impl<'c> Simulation<'c> {
    /// Creates a simulation over `corpus` with the given placement
    /// (`table`), routing policy, and workload.
    ///
    /// # Panics
    ///
    /// Panics if the workload spec requests classes the corpus lacks (see
    /// [`RequestSampler::new`]) or the config is inconsistent.
    pub fn new(
        config: SimConfig,
        corpus: &'c Corpus,
        table: UrlTable,
        router: Router,
        spec: &WorkloadSpec,
    ) -> Self {
        let weights: Vec<f64> = config.nodes.iter().map(NodeSpec::weight).collect();
        let nodes: Vec<SimNode> = config
            .nodes
            .iter()
            .map(|s| SimNode::new(s.clone(), &config.service))
            .collect();
        let nfs = config
            .nfs
            .as_ref()
            .map(|s| NfsServer::new(s.clone(), &config.service));
        let sampler = RequestSampler::new(corpus, spec, config.seed);
        let rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x00C0_FFEE));
        Simulation {
            corpus,
            table,
            router,
            sampler,
            state: ClusterState::new(weights),
            nodes,
            nfs,
            dispatcher: Station::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            collector: Collector::new(),
            config,
            rng,
            next_request: 0,
            in_flight: 0,
            started: false,
            trace: None,
        }
    }

    /// Switches the request source to a recorded [`Trace`]: clients replay
    /// its ids in order (interleaved across clients) and fall silent when
    /// it is exhausted — the exact same offered stream for every placement
    /// or routing policy under comparison.
    #[must_use]
    pub fn with_trace(mut self, trace: &Trace) -> Self {
        self.trace = Some((trace.ids().to_vec(), 0));
        self
    }

    /// Replaces the request sampler mid-run — models a shift in the access
    /// pattern (new content going viral). Takes effect on each client's
    /// next issued request.
    pub fn replace_sampler(&mut self, sampler: RequestSampler) {
        self.sampler = sampler;
    }

    /// How many trace entries remain unissued (`None` in sampling mode).
    pub fn trace_remaining(&self) -> Option<usize> {
        self.trace
            .as_ref()
            .map(|(ids, cursor)| ids.len().saturating_sub(*cursor))
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The URL table (placement).
    pub fn table(&self) -> &UrlTable {
        &self.table
    }

    /// Injects a node failure or recovery.
    pub fn set_node_alive(&mut self, node: NodeId, alive: bool) {
        self.state.set_alive(node, alive);
    }

    /// Runs one §3.3 auto-replication round between windows: `planner`
    /// plans from `tracker` over this simulation's table (resolving ids
    /// through its corpus, checking hostability against its node specs),
    /// the plan is applied to the table, and each applied offload drops the
    /// object from that node's memory cache. Returns how many actions were
    /// applied.
    pub fn rebalance(&mut self, planner: &AutoReplicator, tracker: &LoadTracker) -> usize {
        let corpus = self.corpus;
        let specs = &self.config.nodes;
        let actions = planner.plan(
            tracker,
            &self.table,
            |id| Some(corpus.get(id).path().clone()),
            |node, kind| specs[node.index()].can_serve_kind(kind),
        );
        let applied = AutoReplicator::apply_to_table(&actions, &mut self.table);
        for action in &applied {
            if let RebalanceAction::Offload { path, from } = action {
                if let Some(entry) = self.table.lookup(path) {
                    self.nodes[from.index()].cache_evict(entry.content());
                }
            }
        }
        applied.len()
    }

    /// Runs a discarded warm-up window then a measured window; returns the
    /// measured report.
    pub fn run(&mut self, warmup: SimDuration, measure: SimDuration) -> SimReport {
        let _ = self.run_window(warmup);
        self.run_window(measure)
    }

    /// Advances the simulation by `window` and returns that window's
    /// report. Client/cache/queue state carries over between windows.
    pub fn run_window(&mut self, window: SimDuration) -> SimReport {
        if !self.started {
            self.started = true;
            match self.config.arrival {
                Arrival::ClosedLoop => {
                    // Stagger client starts over the first few milliseconds
                    // so the dispatcher doesn't see one giant burst at t=0.
                    for client in 0..self.config.clients {
                        let offset = SimDuration::from_micros(50 * client as u64);
                        self.queue.push(self.now + offset, Event::Issue { client });
                    }
                }
                Arrival::OpenLoop { .. } => {
                    // One generator stream; each Issue schedules the next.
                    self.queue.push(self.now, Event::Issue { client: 0 });
                }
            }
        }
        let end = self.now + window;
        while let Some(t) = self.queue.peek_time() {
            if t > end {
                break;
            }
            let (t, event) = self.queue.pop().expect("peeked");
            self.now = t;
            self.handle(event);
        }
        self.now = end;
        self.finish_window(window)
    }

    fn finish_window(&mut self, window: SimDuration) -> SimReport {
        let mut report = self.collector.drain(window, self.in_flight);
        report.nodes = self
            .nodes
            .iter_mut()
            .enumerate()
            .map(|(i, n)| NodeReport {
                node: NodeId(i as u16),
                requests: n.cpu.jobs(),
                cpu_utilization: n.cpu.utilization(window),
                disk_utilization: n.disk.utilization(window),
                nic_utilization: n.nic.utilization(window),
                cache_hit_rate: n.window_cache_hit_rate(),
            })
            .collect();
        report.dispatcher_utilization = self.dispatcher.utilization(window);
        report.nfs = self.nfs.as_ref().map(|n| NfsReport {
            fetches: n.fetches(),
            disk_utilization: n.disk.utilization(window),
            nic_utilization: n.nic.utilization(window),
            cache_hit_rate: n.cache_hit_rate(),
        });
        // Reset per-window accounting (queue state persists).
        for n in &mut self.nodes {
            n.cpu.reset_accounting();
            n.disk.reset_accounting();
            n.nic.reset_accounting();
        }
        if let Some(nfs) = &mut self.nfs {
            nfs.disk.reset_accounting();
            nfs.nic.reset_accounting();
        }
        self.dispatcher.reset_accounting();
        report
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Issue { client } => self.handle_issue(client),
            Event::ArriveNode(job) => self.handle_arrive_node(job),
            Event::CpuDone(job) => self.handle_cpu_done(job),
            Event::DiskChunk { job, remaining } => self.handle_disk_chunk(job, remaining),
            Event::DataReady(job) => self.handle_data_ready(job),
            Event::NicChunk { job, remaining } => self.handle_nic_chunk(job, remaining),
            Event::Done(job) => self.handle_done(job),
        }
    }

    fn handle_issue(&mut self, client: u32) {
        if let Arrival::OpenLoop { rate_rps } = self.config.arrival {
            // Schedule the next arrival regardless of what happens to this
            // one (open loop: offered load is exogenous).
            use rand::Rng;
            let u: f64 = self.rng.gen::<f64>();
            let gap_secs = -(1.0 - u).ln() / rate_rps;
            self.queue.push(
                self.now + SimDuration::from_secs_f64(gap_secs),
                Event::Issue { client },
            );
        }
        let content = match &mut self.trace {
            Some((ids, cursor)) => {
                let Some(&id) = ids.get(*cursor) else {
                    return; // trace exhausted: this client falls silent
                };
                *cursor += 1;
                id
            }
            None => self.sampler.sample_id(&mut self.rng),
        };
        self.collector.on_issue();
        let item = self.corpus.get(content);
        let req = RoutingRequest {
            client,
            path: item.path(),
        };
        let decision = match self.router.route(&req, &self.state, &self.table) {
            Some(d) => d,
            None => {
                self.collector.on_unroutable();
                if self.config.arrival == Arrival::ClosedLoop {
                    self.queue
                        .push(self.now + self.config.retry_delay, Event::Issue { client });
                }
                return;
            }
        };
        let size = item.size_bytes();
        // Response bytes occupy the dispatcher only when they are relayed
        // through it (splicing / L4 rewriting). Redirected and DNS-routed
        // responses flow directly from the node.
        let dispatch_cost = if decision.direct_response {
            decision.cost
        } else {
            decision.cost + self.config.service.relay_cost(size)
        };
        let dispatched_at =
            self.dispatcher.schedule(self.now, dispatch_cost) + decision.client_latency;
        self.state.connection_opened(decision.node);
        self.in_flight += 1;
        let job = Job {
            id: RequestId(self.next_request),
            client,
            content,
            kind: item.kind(),
            size,
            node: decision.node,
            issued_at: self.now,
            dispatched_at,
            cache_hit: false,
            priority: item.priority(),
        };
        self.next_request += 1;
        self.queue.push(
            dispatched_at + self.config.service.lan_latency,
            Event::ArriveNode(job),
        );
    }

    fn handle_arrive_node(&mut self, job: Job) {
        // Does this node actually hold the content? Under shared NFS every
        // node can serve everything (by fetching). A content-blind router
        // over partitioned placement can get this wrong — that mismatch is
        // exactly why the paper needs content-aware routing (§1.2).
        if self.nfs.is_none() {
            let hosted = self
                .table
                .lookup(self.corpus.get(job.content).path())
                .map(|e| e.hosted_on(job.node))
                .unwrap_or(false);
            if !hosted {
                self.collector.on_misroute();
                self.finish_errored(job);
                return;
            }
        }
        let node = &mut self.nodes[job.node.index()];
        let service = node.parse_time(&self.config.service)
            + node.exec_time(job.kind, job.content, &self.config.service);
        let done = node.cpu.schedule(self.now, service);
        self.queue.push(done, Event::CpuDone(job));
    }

    fn handle_cpu_done(&mut self, mut job: Job) {
        if job.kind.is_dynamic() {
            // Response generated in memory; nothing to read.
            self.queue.push(self.now, Event::DataReady(job));
            return;
        }
        let node = &mut self.nodes[job.node.index()];
        if node.cache_lookup(job.content) {
            job.cache_hit = true;
            self.queue.push(self.now, Event::DataReady(job));
            return;
        }
        if let Some(nfs) = &mut self.nfs {
            // Remote fetch: LAN out, NFS server, LAN back; then cache the
            // file locally (NFS client caching).
            let at_server = self.now + self.config.service.lan_latency;
            let served = nfs.fetch(job.content, job.size, at_server, &self.config.service);
            let back = served + self.config.service.lan_latency;
            let node = &mut self.nodes[job.node.index()];
            node.cache_insert(job.content, job.size, &self.config.service);
            self.queue.push(back, Event::DataReady(job));
        } else {
            // Read the file in granules so concurrent requests interleave
            // at the disk instead of waiting behind a whole video.
            let chunk = job.size.min(crate::node::TRANSFER_CHUNK_BYTES);
            let remaining = job.size - chunk;
            let done = node.disk.schedule(
                self.now,
                node.disk_chunk_time(chunk, true, &self.config.service),
            );
            node.cache_insert(job.content, job.size, &self.config.service);
            self.queue.push(done, Event::DiskChunk { job, remaining });
        }
    }

    fn handle_disk_chunk(&mut self, job: Job, remaining: u64) {
        if remaining == 0 {
            self.queue.push(self.now, Event::DataReady(job));
            return;
        }
        let node = &mut self.nodes[job.node.index()];
        let chunk = remaining.min(crate::node::TRANSFER_CHUNK_BYTES);
        let done = node.disk.schedule(
            self.now,
            node.disk_chunk_time(chunk, false, &self.config.service),
        );
        self.queue.push(
            done,
            Event::DiskChunk {
                job,
                remaining: remaining - chunk,
            },
        );
    }

    fn handle_data_ready(&mut self, job: Job) {
        // Transmit in granules: TCP fair-shares the NIC among concurrent
        // responses, so short responses are not head-of-line blocked.
        let node = &mut self.nodes[job.node.index()];
        let chunk = job.size.min(crate::node::TRANSFER_CHUNK_BYTES);
        let remaining = job.size - chunk;
        let done = node.nic.schedule(self.now, node.nic_time(chunk));
        self.queue.push(done, Event::NicChunk { job, remaining });
    }

    fn handle_nic_chunk(&mut self, job: Job, remaining: u64) {
        if remaining == 0 {
            self.queue
                .push(self.now + self.config.service.lan_latency, Event::Done(job));
            return;
        }
        let node = &mut self.nodes[job.node.index()];
        let chunk = remaining.min(crate::node::TRANSFER_CHUNK_BYTES);
        let done = node.nic.schedule(self.now, node.nic_time(chunk));
        self.queue.push(
            done,
            Event::NicChunk {
                job,
                remaining: remaining - chunk,
            },
        );
    }

    fn handle_done(&mut self, job: Job) {
        self.state.connection_closed(job.node);
        self.in_flight -= 1;
        let outcome = RequestOutcome {
            id: job.id,
            class: RequestClass::from_kind(job.kind),
            served_by: job.node,
            issued_at: job.issued_at,
            completed_at: self.now,
            cache_hit: job.cache_hit,
            size_bytes: job.size,
            priority: job.priority,
        };
        let sample = LoadSample {
            node: job.node,
            content: job.content,
            kind: job.kind,
            processing_time: self.now.saturating_duration_since(job.dispatched_at),
        };
        self.collector.on_complete(&outcome, sample);
        if self.config.arrival == Arrival::ClosedLoop {
            self.queue.push(
                self.now + self.config.think_time,
                Event::Issue { client: job.client },
            );
        }
    }

    /// Completes a request in error (misroute): the client backs off and
    /// retries; no outcome is recorded.
    fn finish_errored(&mut self, job: Job) {
        self.state.connection_closed(job.node);
        self.in_flight -= 1;
        if self.config.arrival == Arrival::ClosedLoop {
            self.queue.push(
                self.now + self.config.retry_delay,
                Event::Issue { client: job.client },
            );
        }
    }
}

impl std::fmt::Debug for Simulation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("router", &self.router.label())
            .field("nodes", &self.nodes.len())
            .field("clients", &self.config.clients)
            .field("in_flight", &self.in_flight)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement;
    use cpms_workload::CorpusBuilder;

    fn small_corpus() -> Corpus {
        CorpusBuilder::small_site().seed(1).build()
    }

    fn config(clients: u32) -> SimConfig {
        SimConfig::builder()
            .nodes(vec![NodeSpec::testbed_350(); 4])
            .clients(clients)
            .seed(9)
            .build()
    }

    #[test]
    fn smoke_full_replication_wlc() {
        let corpus = small_corpus();
        let table = placement::replicate_everywhere(&corpus, 4);
        let mut sim = Simulation::new(
            config(16),
            &corpus,
            table,
            Router::WeightedLeastConnections,
            &WorkloadSpec::workload_a(),
        );
        let report = sim.run(SimDuration::from_secs(2), SimDuration::from_secs(10));
        assert!(
            report.throughput_rps() > 50.0,
            "{}",
            report.throughput_rps()
        );
        assert_eq!(report.misroutes, 0);
        assert_eq!(report.unroutable, 0);
        assert!(report.class(RequestClass::Static).is_some());
    }

    #[test]
    fn deterministic_given_seed() {
        let corpus = small_corpus();
        let run = || {
            let table = placement::replicate_everywhere(&corpus, 4);
            let mut sim = Simulation::new(
                config(8),
                &corpus,
                table,
                Router::WeightedLeastConnections,
                &WorkloadSpec::workload_a(),
            );
            sim.run(SimDuration::from_secs(1), SimDuration::from_secs(5))
        };
        let a = run();
        let b = run();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.classes, b.classes);
        assert_eq!(a.nodes, b.nodes);
    }

    #[test]
    fn warm_cache_beats_cold() {
        let corpus = small_corpus();
        let table = placement::replicate_everywhere(&corpus, 2);
        let mut sim = Simulation::new(
            SimConfig::builder()
                .nodes(vec![NodeSpec::testbed_350(); 2])
                .clients(8)
                .seed(3)
                .build(),
            &corpus,
            table,
            Router::WeightedLeastConnections,
            &WorkloadSpec::workload_a(),
        );
        let cold = sim.run_window(SimDuration::from_secs(5));
        let warm = sim.run_window(SimDuration::from_secs(5));
        assert!(
            warm.throughput_rps() > cold.throughput_rps(),
            "warm {} vs cold {}",
            warm.throughput_rps(),
            cold.throughput_rps()
        );
        let hit_rate = warm.nodes[0].cache_hit_rate;
        assert!(hit_rate > 0.5, "cache hit rate {hit_rate}");
    }

    #[test]
    fn content_blind_routing_over_partitioned_misroutes() {
        let corpus = small_corpus();
        let specs = vec![NodeSpec::testbed_350(); 4];
        let table =
            placement::partition_by_type(&corpus, &specs, placement::StaticSpread::AllNodes);
        let mut sim = Simulation::new(
            config(8),
            &corpus,
            table,
            Router::RoundRobin { next: 0 },
            &WorkloadSpec::workload_a(),
        );
        let report = sim.run(SimDuration::from_secs(1), SimDuration::from_secs(5));
        assert!(
            report.misroutes > 0,
            "an L4 router cannot honor partitioned placement"
        );
    }

    #[test]
    fn content_aware_routing_over_partitioned_never_misroutes() {
        let corpus = small_corpus();
        let specs = vec![NodeSpec::testbed_350(); 4];
        let table =
            placement::partition_by_type(&corpus, &specs, placement::StaticSpread::AllNodes);
        let mut sim = Simulation::new(
            config(8),
            &corpus,
            table,
            Router::ContentAware,
            &WorkloadSpec::workload_a(),
        );
        let report = sim.run(SimDuration::from_secs(1), SimDuration::from_secs(5));
        assert_eq!(report.misroutes, 0);
        assert_eq!(report.unroutable, 0);
        assert!(report.throughput_rps() > 50.0);
    }

    #[test]
    fn rebalance_evicts_only_applied_offloads() {
        // One object on nodes 0 and 1, both overloaded by it: the plan
        // offloads it from both, the table refuses the second offload (the
        // last copy), and only the node that gave its copy up loses it
        // from its cache.
        let corpus = small_corpus();
        let id = corpus.class_ids(RequestClass::Static)[0];
        let item = corpus.get(id);
        let mut table = UrlTable::new();
        table
            .insert(
                item.path().clone(),
                cpms_urltable::UrlEntry::new(id, item.kind(), item.size_bytes())
                    .with_locations([NodeId(0), NodeId(1)]),
            )
            .unwrap();
        let mut sim = Simulation::new(
            config(1),
            &corpus,
            table,
            Router::ContentAware,
            &WorkloadSpec::workload_a(),
        );
        let mut tracker = LoadTracker::new(vec![1.0; 4]);
        for node in [0, 1] {
            sim.nodes[node].cache_insert(id, item.size_bytes(), &sim.config.service);
            for _ in 0..10 {
                tracker.record(LoadSample {
                    node: NodeId(node as u16),
                    content: id,
                    kind: item.kind(),
                    processing_time: SimDuration::from_millis(10),
                });
            }
        }
        assert_eq!(sim.rebalance(&AutoReplicator::new(0.25), &tracker), 1);
        let entry = sim.table().lookup(item.path()).unwrap();
        assert_eq!(entry.locations(), [NodeId(1)]);
        assert!(!sim.nodes[0].cache_lookup(id), "the offloaded copy left");
        assert!(sim.nodes[1].cache_lookup(id), "the last copy stays warm");
    }

    #[test]
    fn empty_table_makes_content_aware_unroutable() {
        let corpus = small_corpus();
        let mut sim = Simulation::new(
            config(4),
            &corpus,
            UrlTable::new(),
            Router::ContentAware,
            &WorkloadSpec::workload_a(),
        );
        let report = sim.run_window(SimDuration::from_secs(2));
        assert_eq!(report.completed, 0);
        assert!(report.unroutable > 0);
        assert_eq!(report.in_flight_at_end, 0);
    }

    #[test]
    fn nfs_mode_slower_than_local_disk() {
        let corpus = CorpusBuilder::small_site()
            .seed(5)
            .total_objects(2_000)
            .build();
        let mk = |nfs: bool| {
            let mut b = SimConfig::builder();
            b.nodes(vec![NodeSpec::testbed_350(); 4])
                .clients(48)
                .seed(2);
            if nfs {
                b.nfs(NodeSpec::testbed_350());
            }
            let table = placement::replicate_everywhere(&corpus, 4);
            let mut sim = Simulation::new(
                b.build(),
                &corpus,
                table,
                Router::WeightedLeastConnections,
                &WorkloadSpec::workload_a(),
            );
            sim.run(SimDuration::from_secs(2), SimDuration::from_secs(10))
        };
        let local = mk(false);
        let nfs = mk(true);
        assert!(
            local.throughput_rps() > nfs.throughput_rps(),
            "local {} vs nfs {}",
            local.throughput_rps(),
            nfs.throughput_rps()
        );
        assert!(nfs.nfs.is_some());
        assert!(nfs.nfs.as_ref().unwrap().fetches > 0);
    }

    #[test]
    fn node_failure_shifts_traffic() {
        let corpus = small_corpus();
        let table = placement::replicate_everywhere(&corpus, 4);
        let mut sim = Simulation::new(
            config(8),
            &corpus,
            table,
            Router::WeightedLeastConnections,
            &WorkloadSpec::workload_a(),
        );
        let _ = sim.run_window(SimDuration::from_secs(2));
        sim.set_node_alive(NodeId(0), false);
        let report = sim.run_window(SimDuration::from_secs(5));
        // node 0 may finish residual work but receives (almost) nothing new
        let n0 = report.nodes[0].requests;
        let n1 = report.nodes[1].requests;
        assert!(n0 < n1 / 4, "dead node got {n0}, live node {n1}");
        assert!(report.throughput_rps() > 0.0);
    }

    #[test]
    fn load_samples_cover_completions() {
        let corpus = small_corpus();
        let table = placement::replicate_everywhere(&corpus, 2);
        let mut sim = Simulation::new(
            SimConfig::builder()
                .nodes(vec![NodeSpec::testbed_350(); 2])
                .clients(4)
                .seed(1)
                .build(),
            &corpus,
            table,
            Router::WeightedLeastConnections,
            &WorkloadSpec::workload_a(),
        );
        let report = sim.run_window(SimDuration::from_secs(3));
        assert_eq!(report.load_samples.len() as u64, report.completed);
        assert!(report
            .load_samples
            .iter()
            .all(|s| s.processing_time > SimDuration::ZERO));
    }

    #[test]
    fn conservation_of_requests() {
        let corpus = small_corpus();
        let table = placement::replicate_everywhere(&corpus, 3);
        let mut sim = Simulation::new(
            SimConfig::builder()
                .nodes(vec![NodeSpec::testbed_350(); 3])
                .clients(12)
                .seed(4)
                .build(),
            &corpus,
            table,
            Router::WeightedLeastConnections,
            &WorkloadSpec::workload_a(),
        );
        let mut prev_in_flight = 0u64;
        for _ in 0..4 {
            let r = sim.run_window(SimDuration::from_secs(2));
            // issued this window + carried-over in-flight
            //   = completed this window + in-flight at end
            assert_eq!(
                r.issued + prev_in_flight,
                r.completed + r.in_flight_at_end + r.misroutes,
                "request conservation"
            );
            prev_in_flight = r.in_flight_at_end;
        }
    }

    #[test]
    fn open_loop_offers_the_configured_rate() {
        let corpus = small_corpus();
        let table = placement::replicate_everywhere(&corpus, 4);
        let mut config = SimConfig::builder();
        config
            .nodes(vec![NodeSpec::testbed_350(); 4])
            .open_loop(200.0)
            .seed(3);
        let mut sim = Simulation::new(
            config.build(),
            &corpus,
            table,
            Router::WeightedLeastConnections,
            &WorkloadSpec::workload_a(),
        );
        let report = sim.run(SimDuration::from_secs(2), SimDuration::from_secs(20));
        let offered = report.issued as f64 / report.window.as_secs_f64();
        assert!(
            (offered - 200.0).abs() < 20.0,
            "offered {offered} rps, configured 200"
        );
        // Well below capacity: completions track arrivals.
        assert!(report.completed as f64 > report.issued as f64 * 0.95);
    }

    #[test]
    fn open_loop_latency_grows_with_offered_load() {
        let corpus = small_corpus();
        let run = |rate: f64| {
            let table = placement::replicate_everywhere(&corpus, 2);
            let mut config = SimConfig::builder();
            config
                .nodes(vec![NodeSpec::testbed_350(); 2])
                .open_loop(rate)
                .seed(3);
            let mut sim = Simulation::new(
                config.build(),
                &corpus,
                table,
                Router::WeightedLeastConnections,
                &WorkloadSpec::workload_a(),
            );
            sim.run(SimDuration::from_secs(2), SimDuration::from_secs(15))
                .mean_response_ms()
        };
        let light = run(50.0);
        let heavy = run(400.0);
        assert!(
            heavy > light * 1.5,
            "queueing delay must grow: {light:.1}ms at 50rps vs {heavy:.1}ms at 400rps"
        );
    }

    #[test]
    fn trace_replay_is_identical_across_policies() {
        use cpms_workload::{RequestSampler, Trace};
        let corpus = small_corpus();
        let mut sampler = RequestSampler::new(&corpus, &WorkloadSpec::workload_a(), 31);
        let trace = Trace::record(&mut sampler, 2_000);

        let run = |router: Router| {
            let table = placement::replicate_everywhere(&corpus, 3);
            let mut config = SimConfig::builder();
            config
                .nodes(vec![NodeSpec::testbed_350(); 3])
                .clients(8)
                .seed(2);
            let mut sim = Simulation::new(
                config.build(),
                &corpus,
                table,
                router,
                &WorkloadSpec::workload_a(),
            )
            .with_trace(&trace);
            // run long enough to drain the whole trace
            let mut total = 0u64;
            for _ in 0..50 {
                let r = sim.run_window(SimDuration::from_secs(5));
                total += r.completed;
                if sim.trace_remaining() == Some(0) && r.in_flight_at_end == 0 {
                    break;
                }
            }
            total
        };
        let wlc = run(Router::WeightedLeastConnections);
        let ca = run(Router::ContentAware);
        assert_eq!(wlc, trace.len() as u64, "every trace entry served");
        assert_eq!(ca, trace.len() as u64, "identical offered stream");
    }

    #[test]
    fn trace_remaining_reports_progress() {
        use cpms_model::ContentId;
        use cpms_workload::Trace;
        let corpus = small_corpus();
        let table = placement::replicate_everywhere(&corpus, 2);
        let trace = Trace::from_ids([ContentId(0), ContentId(1), ContentId(2)]);
        let mut config = SimConfig::builder();
        config
            .nodes(vec![NodeSpec::testbed_350(); 2])
            .clients(1)
            .seed(1);
        let mut sim = Simulation::new(
            config.build(),
            &corpus,
            table,
            Router::WeightedLeastConnections,
            &WorkloadSpec::workload_a(),
        )
        .with_trace(&trace);
        assert_eq!(sim.trace_remaining(), Some(3));
        let r = sim.run_window(SimDuration::from_secs(5));
        assert_eq!(r.completed, 3);
        assert_eq!(sim.trace_remaining(), Some(0));
    }

    #[test]
    fn heterogeneous_cluster_respects_weights() {
        let corpus = small_corpus();
        let specs = NodeSpec::paper_testbed();
        let table = placement::replicate_everywhere(&corpus, specs.len());
        let mut sim = Simulation::new(
            SimConfig::builder()
                .nodes(specs)
                .clients(64)
                .seed(8)
                .build(),
            &corpus,
            table,
            Router::WeightedLeastConnections,
            &WorkloadSpec::workload_a(),
        );
        let report = sim.run(SimDuration::from_secs(2), SimDuration::from_secs(10));
        // Fast nodes (5..) should serve more requests than slow ones (0..3)
        let slow: u64 = report.nodes[..3].iter().map(|n| n.requests).sum();
        let fast: u64 = report.nodes[5..].iter().map(|n| n.requests).sum();
        assert!(fast > slow, "fast {fast} vs slow {slow}");
    }
}
