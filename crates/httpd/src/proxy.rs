//! The content-aware distributor over real sockets.
//!
//! The socket-level equivalent of the paper's kernel module (§2.2): accept
//! the client connection, complete the handshake (done by the OS), read
//! the HTTP request, consult the URL table, bind the exchange to a
//! pre-forked persistent backend connection, and relay the response —
//! while the client sees a single ordinary HTTP server.
//!
//! The proxy is **event-driven**: one acceptor thread plus `workers`
//! event-loop workers, each built on the `cpms-reactor` epoll readiness
//! layer. The acceptor owns the listening socket, enforces the global
//! connection cap (shedding the excess with an immediate 503 rather than
//! letting it queue), and hands accepted sockets to workers round-robin
//! through bounded queues. Each worker then serves *all* of its
//! connections — thousands of keep-alive clients per thread — from one
//! poll loop of non-blocking state machines (see `conn.rs`); thread count
//! is fixed by configuration, not by concurrency.
//!
//! Workers never share mutable routing state — each owns a
//! [`cpms_dispatch::LiveRouter`] (pinned URL-table snapshot + private
//! lookup cache), a shard of the pre-forked connection pool and its own
//! histogram shards. The only cross-worker state is the shared in-flight
//! counters used for replica choice, the admission counters, the
//! registry's counters, and the snapshot publication protocol itself.
//!
//! Every response the proxy writes itself — a request it cannot or will
//! not relay, or a connection shed at accept — is one [`Failure`], which
//! fixes its status, body, counter and whether the connection survives.
//!
//! Management mutates the table through the proxy's [`TablePublisher`]:
//! each mutation publishes a fresh immutable snapshot, which workers pick
//! up on their next request via one atomic generation check — the live
//! analogue of the paper's controller updating the distributor's table.

use crate::conn::{worker_loop, Pooled, WorkerBoot};
use crate::failure::Failure;
use crate::pool::SocketPool;
use cpms_obs::{Counter, Gauge, MetricsRegistry, Sampler};
use cpms_reactor::{new_poller, waker_pair, Event, Interest, Token, Waker};
use cpms_urltable::{SnapshotHandle, TablePublisher, UrlTable};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Workers spawned by [`ContentAwareProxy::start`].
pub const DEFAULT_WORKERS: usize = 4;

/// Global concurrent-connection cap when none is configured.
pub const DEFAULT_MAX_CONNS: usize = 4096;

/// Admin path serving the registry in Prometheus text exposition format.
pub const METRICS_PATH: &str = "/_cpms/metrics";

/// Admin path serving the registry as JSON.
pub const METRICS_JSON_PATH: &str = "/_cpms/metrics.json";

/// Admin path serving this process's retained trace spans as JSON (see
/// [`cpms_obs::SpanCollector::to_json`]). `cpms-lab` scrapes this from
/// every process and merges the dumps into the cluster-wide
/// `traces.json`.
pub const TRACE_JSON_PATH: &str = "/_cpms/trace.json";

/// Admin path serving the flight recorder's retained time series as
/// JSON (see [`cpms_obs::SeriesRecorder::to_json`]). Empty until a
/// recorder is installed — set [`ProxyConfig::record_interval`] (or run
/// an external [`cpms_obs::Sampler`]) to populate it.
pub const SERIES_JSON_PATH: &str = "/_cpms/series.json";

/// Accepted connections an acceptor may park on one worker's handoff
/// queue before shedding instead — bounds the accept backlog a slow
/// worker can accumulate.
const HANDOFF_CAP: usize = 1024;

/// How long the acceptor parks a listener after a non-transient accept
/// failure (e.g. `EMFILE`) before re-arming it. Replaces the old
/// sleep-in-loop backoff: the thread keeps serving its waker and timers
/// while the listener rests.
const ACCEPT_REARM: Duration = Duration::from_millis(100);

/// Acceptor poll cap so the stop flag is re-checked even without events.
const ACCEPT_POLL_CAP: Duration = Duration::from_millis(500);

/// Listen backlog: sized for redial storms (thousands of churning
/// keep-alive clients reconnecting inside one acceptor scheduling
/// quantum), where std's default 128 drops SYNs.
const LISTEN_BACKLOG: u32 = 4096;

/// A per-tenant concurrent-connection cap: tenants are the leading path
/// segment (`/shop/...` → tenant `shop`), so one tenant's connection
/// storm degrades that tenant, not the cluster.
#[derive(Debug, Clone)]
pub struct TenantCap {
    /// Leading path segment identifying the tenant (no slashes).
    pub prefix: String,
    /// Concurrent connections the tenant may hold.
    pub max_conns: u32,
}

/// Data-plane tuning knobs for [`ContentAwareProxy::start_with_config`].
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Event-loop worker threads (≥ 1). Thread count is fixed at this
    /// regardless of connection count.
    pub workers: usize,
    /// Persistent connections pre-forked to each backend, sharded across
    /// workers.
    pub prefork: u32,
    /// Global concurrent-connection cap: connections beyond it are shed
    /// at accept time with an immediate 503.
    pub max_conns: usize,
    /// Per-tenant connection caps (see [`TenantCap`]).
    pub tenant_caps: Vec<TenantCap>,
    /// When set, the proxy installs a flight recorder on its registry
    /// and runs a background [`Sampler`] at this interval, populating
    /// [`SERIES_JSON_PATH`] and driving any installed SLO watchdog.
    /// `None` (the default) records nothing — the zero-overhead
    /// baseline.
    pub record_interval: Option<Duration>,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            workers: DEFAULT_WORKERS,
            prefork: 2,
            max_conns: DEFAULT_MAX_CONNS,
            tenant_caps: Vec::new(),
            record_interval: None,
        }
    }
}

/// Admission-control cell for one tenant, shared by all workers.
#[derive(Debug)]
pub(crate) struct TenantSlot {
    pub(crate) prefix: String,
    pub(crate) cap: u32,
    pub(crate) active: AtomicU32,
}

/// Bounded acceptor→worker connection handoff.
pub(crate) struct HandoffQueue {
    queue: Mutex<VecDeque<TcpStream>>,
    cap: usize,
}

impl HandoffQueue {
    fn new(cap: usize) -> HandoffQueue {
        HandoffQueue {
            queue: Mutex::new(VecDeque::new()),
            cap,
        }
    }

    /// Enqueues unless full; a full queue hands the stream back so the
    /// caller can shed it.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut queue = self.queue.lock();
        if queue.len() >= self.cap {
            return Err(stream);
        }
        queue.push_back(stream);
        Ok(())
    }

    /// Takes the oldest queued connection, if any.
    pub(crate) fn pop(&self) -> Option<TcpStream> {
        self.queue.lock().pop_front()
    }
}

/// A running content-aware reverse proxy.
pub struct ContentAwareProxy {
    addr: SocketAddr,
    publisher: TablePublisher,
    relayed: Arc<Counter>,
    failures: [Arc<Counter>; Failure::ALL.len()],
    pools: Arc<Vec<SocketPool<Pooled>>>,
    registry: Arc<MetricsRegistry>,
    stop: Arc<AtomicBool>,
    conn_active: Arc<Gauge>,
    wakers: Vec<Waker>,
    workers: Vec<JoinHandle<()>>,
    sampler: Option<Sampler>,
}

impl std::fmt::Debug for ContentAwareProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = f.debug_struct("ContentAwareProxy");
        out.field("addr", &self.addr)
            .field("workers", &self.worker_count())
            .field("relayed", &self.relayed());
        for failure in Failure::ALL {
            out.field(failure.token(), &self.failures(failure));
        }
        out.finish()
    }
}

impl ContentAwareProxy {
    /// Starts the proxy with [`DEFAULT_WORKERS`] worker threads:
    /// `backends[i]` is the address of `NodeId(i)`; `prefork` persistent
    /// connections are opened to each backend, sharded across workers.
    ///
    /// # Errors
    ///
    /// Bind or pre-fork connection failures.
    pub fn start(
        table: UrlTable,
        backends: Vec<SocketAddr>,
        prefork: u32,
    ) -> io::Result<ContentAwareProxy> {
        Self::start_with_config(
            TablePublisher::new(table),
            backends,
            Arc::new(MetricsRegistry::new()),
            ProxyConfig {
                prefork,
                ..ProxyConfig::default()
            },
        )
    }

    /// Starts the proxy with the full set of data-plane knobs: worker
    /// count, pre-fork depth, global connection cap, and per-tenant
    /// connection caps. Each worker runs one event loop serving all of
    /// its connections, so `config.workers` bounds CPU parallelism — not
    /// the number of concurrent clients.
    ///
    /// `publisher` and `registry` are the single-system-image wiring: a
    /// management controller shares one logical table with the proxy
    /// (`controller.publisher().share()`), so its mutations route live,
    /// and whatever else records into `registry` shows up on
    /// [`METRICS_PATH`] and in console reports beside the request path.
    ///
    /// # Errors
    ///
    /// Bind or pre-fork connection failures.
    pub fn start_with_config(
        publisher: TablePublisher,
        backends: Vec<SocketAddr>,
        registry: Arc<MetricsRegistry>,
        config: ProxyConfig,
    ) -> io::Result<ContentAwareProxy> {
        let workers = config.workers;
        assert!(workers >= 1, "a proxy needs at least one worker");
        // Each proxied connection costs up to four fds — client, pooled
        // backend, and the two ends of its body pipe (a worker's idle
        // pipes were each some connection's) — plus slack for idle pool
        // connections and admin; raise the soft nofile limit toward what
        // the configured cap implies.
        let _ = cpms_reactor::raise_nofile_limit(config.max_conns as u64 * 4 + 256);
        // Deep accept backlog: churning clients redial in bursts, and a
        // SYN dropped off std's default 128-slot backlog costs the client
        // a full retransmit timeout.
        let listener = cpms_reactor::listen_with_backlog(
            "127.0.0.1:0".parse().expect("literal addr"),
            LISTEN_BACKLOG,
        )?;
        let addr = listener.local_addr()?;

        // Shard the pre-forked connections: each worker owns a private
        // pool so checkouts never cross threads. A worker adopts its
        // shard's connections into its poller at start; the shared pools
        // hold them from then on, so any worker can report every shard.
        let per_worker = (config.prefork as usize).div_ceil(workers) as u32;
        let preforked = (0..workers)
            .map(|_| SocketPool::prefork(backends.clone(), per_worker))
            .collect::<io::Result<Vec<_>>>()?;
        let pools: Arc<Vec<SocketPool<Pooled>>> = Arc::new(
            (0..workers)
                .map(|_| SocketPool::empty(backends.clone()))
                .collect(),
        );
        let in_flight: Arc<Vec<AtomicU32>> =
            Arc::new((0..backends.len()).map(|_| AtomicU32::new(0)).collect());
        let stop = Arc::new(AtomicBool::new(false));
        let tenants: Arc<Vec<TenantSlot>> = Arc::new(
            config
                .tenant_caps
                .iter()
                .map(|t| TenantSlot {
                    prefix: t.prefix.clone(),
                    cap: t.max_conns,
                    active: AtomicU32::new(0),
                })
                .collect(),
        );

        // Surface the failure, shedding and sizing metrics from the start
        // so a scrape sees them at zero rather than absent.
        let failures = Failure::counters(&registry);
        registry.counter("reactor_accept_errors_total");
        let conn_active = registry.gauge("proxy_conn_active");
        registry
            .gauge("reactor_workers")
            .set(i64::try_from(workers).unwrap_or(i64::MAX));

        let mut wakers = Vec::with_capacity(workers + 1);
        let mut queues = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers + 1);
        for (idx, preforked) in preforked.into_iter().enumerate() {
            let (waker, wake_rx) = waker_pair()?;
            let queue = Arc::new(HandoffQueue::new(HANDOFF_CAP));
            let boot = WorkerBoot {
                idx,
                workers,
                handle: publisher.handle(),
                preforked,
                pools: Arc::clone(&pools),
                in_flight: Arc::clone(&in_flight),
                registry: Arc::clone(&registry),
                stop: Arc::clone(&stop),
                queue: Arc::clone(&queue),
                wake_rx,
                tenants: Arc::clone(&tenants),
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("cpms-proxy-{idx}"))
                    .spawn(move || worker_loop(boot))?,
            );
            wakers.push(waker);
            queues.push(queue);
        }

        let (accept_waker, accept_rx) = waker_pair()?;
        let acceptor = AcceptorBoot {
            listener,
            queues,
            worker_wakers: wakers.clone(),
            stop: Arc::clone(&stop),
            conn_active: Arc::clone(&conn_active),
            max_conns: config.max_conns,
            rejected: Arc::clone(&failures[Failure::Overloaded as usize]),
            accept_errors: registry.counter("reactor_accept_errors_total"),
            wake_rx: accept_rx,
        };
        handles.push(
            std::thread::Builder::new()
                .name("cpms-proxy-accept".to_string())
                .spawn(move || acceptor_loop(acceptor))?,
        );
        wakers.push(accept_waker);

        // Off the data plane entirely: the sampler thread snapshots the
        // registry on its own clock; workers never see it.
        let sampler = config
            .record_interval
            .map(|interval| Sampler::start(&registry, interval));

        Ok(ContentAwareProxy {
            addr,
            publisher,
            relayed: registry.counter("proxy_relayed_total"),
            failures,
            pools,
            registry,
            stop,
            conn_active,
            wakers,
            workers: handles,
            sampler,
        })
    }

    /// The proxy's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The URL-table publisher: management operations go through here and
    /// take effect on each worker's next request.
    pub fn publisher(&self) -> &TablePublisher {
        &self.publisher
    }

    /// A read-only handle to the published snapshot sequence.
    pub fn handle(&self) -> SnapshotHandle {
        self.publisher.handle()
    }

    /// Number of worker threads (the acceptor is not counted).
    pub fn worker_count(&self) -> usize {
        self.pools.len()
    }

    /// The metrics registry every worker records into: the one handed
    /// to [`ContentAwareProxy::start_with_config`], fresh for
    /// [`ContentAwareProxy::start`].
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Connections currently admitted (accepted and not yet closed): the
    /// registry's `proxy_conn_active`.
    pub fn active_connections(&self) -> u64 {
        u64::try_from(self.conn_active.get()).unwrap_or(0)
    }

    /// Requests relayed successfully: the registry's
    /// `proxy_relayed_total`.
    pub fn relayed(&self) -> u64 {
        self.relayed.get()
    }

    /// Occurrences of `failure`: the registry counter it names
    /// ([`Failure::counter`]).
    pub fn failures(&self, failure: Failure) -> u64 {
        self.failures[failure as usize].get()
    }

    /// Checkouts that had to open a fresh backend connection, summed over
    /// the per-worker pool shards.
    pub fn overflow_connects(&self) -> u64 {
        self.pools.iter().map(SocketPool::overflow_connects).sum()
    }

    /// Stops accepting new connections, closes every open one, and joins
    /// every thread.
    pub fn shutdown(&mut self) {
        if let Some(mut sampler) = self.sampler.take() {
            sampler.stop();
        }
        if self.workers.is_empty() {
            return;
        }
        self.stop.store(true, Ordering::Release);
        for waker in &self.wakers {
            waker.wake();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ContentAwareProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Everything the acceptor thread needs, moved into it at spawn.
struct AcceptorBoot {
    listener: TcpListener,
    queues: Vec<Arc<HandoffQueue>>,
    worker_wakers: Vec<Waker>,
    stop: Arc<AtomicBool>,
    /// `proxy_conn_active`: incremented here at admission, decremented by
    /// the worker that closes the connection.
    conn_active: Arc<Gauge>,
    max_conns: usize,
    rejected: Arc<Counter>,
    accept_errors: Arc<Counter>,
    wake_rx: cpms_reactor::WakeReceiver,
}

const LISTENER_TOKEN: Token = Token(0);
const ACCEPT_WAKER_TOKEN: Token = Token(1);

/// The acceptor thread: readiness-driven accept with overload shedding.
///
/// Accept failures (fd exhaustion, transient kernel errors) park the
/// listener on a timer instead of sleeping, so the thread stays
/// responsive to shutdown while the listener rests.
fn acceptor_loop(boot: AcceptorBoot) {
    if boot.listener.set_nonblocking(true).is_err() {
        return;
    }
    let Ok(mut poller) = new_poller() else {
        return;
    };
    if poller
        .register(boot.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
        .is_err()
        || poller
            .register(boot.wake_rx.fd(), ACCEPT_WAKER_TOKEN, Interest::READ)
            .is_err()
    {
        return;
    }
    let mut timers = cpms_reactor::TimerWheel::new(Duration::from_millis(25), 64);
    let mut parked = false;
    let mut next = 0usize;
    let mut events: Vec<Event> = Vec::with_capacity(8);

    loop {
        let timeout = timers
            .next_timeout(Instant::now())
            .map_or(ACCEPT_POLL_CAP, |t| t.min(ACCEPT_POLL_CAP));
        if poller.wait(&mut events, Some(timeout)).is_err() {
            return;
        }
        if boot.stop.load(Ordering::Acquire) {
            return;
        }
        let mut ready = false;
        for ev in &events {
            match ev.token {
                ACCEPT_WAKER_TOKEN => boot.wake_rx.drain(),
                LISTENER_TOKEN => ready = true,
                _ => {}
            }
        }
        let mut fired = Vec::new();
        timers.expire_into(Instant::now(), &mut fired);
        if !fired.is_empty() && parked {
            if poller
                .register(boot.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
                .is_ok()
            {
                parked = false;
                ready = true; // probe once: a backlog may have built up
            } else {
                timers.schedule_after(Instant::now(), ACCEPT_REARM);
            }
        }
        if ready && !parked {
            parked = accept_burst(&boot, &mut poller, &mut timers, &mut next);
        }
    }
}

/// Accepts until the listener runs dry. Returns `true` when an accept
/// error parked the listener.
fn accept_burst(
    boot: &AcceptorBoot,
    poller: &mut cpms_reactor::Poller,
    timers: &mut cpms_reactor::TimerWheel,
    next: &mut usize,
) -> bool {
    loop {
        match boot.listener.accept() {
            Ok((stream, _)) => {
                if boot.conn_active.get() >= boot.max_conns as i64 {
                    shed_overload(&boot.rejected, &stream);
                    continue;
                }
                boot.conn_active.add(1);
                let idx = *next % boot.queues.len();
                *next = next.wrapping_add(1);
                match boot.queues[idx].push(stream) {
                    Ok(()) => boot.worker_wakers[idx].wake(),
                    Err(stream) => {
                        boot.conn_active.sub(1);
                        shed_overload(&boot.rejected, &stream);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                boot.accept_errors.inc();
                let _ = poller.deregister(boot.listener.as_raw_fd());
                timers.schedule_after(Instant::now(), ACCEPT_REARM);
                return true;
            }
        }
    }
}

/// Refuses a connection that will not be admitted with
/// [`Failure::Overloaded`], counted on `rejected`. The accepted socket is
/// still blocking (accept does not inherit the listener's non-blocking
/// flag) and the response is far smaller than a socket buffer, but a
/// write timeout guards against a pathological peer stalling the acceptor
/// anyway.
fn shed_overload(rejected: &Counter, mut stream: &TcpStream) {
    rejected.inc();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let mut out = Vec::new();
    Failure::Overloaded.response_into(&mut out, false);
    let _ = stream.write_all(&out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use crate::origin::{OriginServer, SiteContent};
    use cpms_model::{ContentId, ContentKind, NodeId, UrlPath};
    use cpms_urltable::UrlEntry;

    fn start_origin(node: u16, files: &[(&str, &[u8])]) -> OriginServer {
        let mut site = SiteContent::new();
        for (path, body) in files {
            site.add_static(path, body.to_vec());
        }
        OriginServer::start(NodeId(node), site).unwrap()
    }

    fn entry(id: u32, nodes: &[u16]) -> UrlEntry {
        UrlEntry::new(ContentId(id), ContentKind::StaticHtml, 16)
            .with_locations(nodes.iter().map(|&n| NodeId(n)))
    }

    fn sized(prefork: u32, workers: usize) -> ProxyConfig {
        ProxyConfig {
            workers,
            prefork,
            ..ProxyConfig::default()
        }
    }

    #[test]
    fn routes_by_content() {
        // node 0 has /a only; node 1 has /b only — partitioned placement
        let o0 = start_origin(0, &[("/a", b"from-node-0")]);
        let o1 = start_origin(1, &[("/b", b"from-node-1")]);

        let mut table = UrlTable::new();
        table.insert("/a".parse().unwrap(), entry(0, &[0])).unwrap();
        table.insert("/b".parse().unwrap(), entry(1, &[1])).unwrap();

        let proxy = ContentAwareProxy::start(table, vec![o0.addr(), o1.addr()], 2).unwrap();
        let mut client = HttpClient::connect(proxy.addr()).unwrap();

        assert_eq!(client.get("/a").unwrap().body, b"from-node-0");
        assert_eq!(client.get("/b").unwrap().body, b"from-node-1");
        assert_eq!(proxy.relayed(), 2);
        assert_eq!(o0.served(), 1);
        assert_eq!(o1.served(), 1);
    }

    #[test]
    fn unroutable_paths_get_503() {
        let o0 = start_origin(0, &[("/a", b"x")]);
        let mut table = UrlTable::new();
        table.insert("/a".parse().unwrap(), entry(0, &[0])).unwrap();
        let proxy = ContentAwareProxy::start(table, vec![o0.addr()], 1).unwrap();
        let mut client = HttpClient::connect(proxy.addr()).unwrap();
        let resp = client.get("/unknown").unwrap();
        assert_eq!(resp.status, 503);
        // the connection survived the 503 (keep-alive)
        assert_eq!(client.get("/a").unwrap().status, 200);
        assert_eq!(client.reconnects(), 0);
    }

    #[test]
    fn live_table_updates_reroute() {
        let o0 = start_origin(0, &[("/page", b"old-node")]);
        let o1 = start_origin(1, &[("/page", b"new-node")]);
        let mut table = UrlTable::new();
        table
            .insert("/page".parse().unwrap(), entry(0, &[0]))
            .unwrap();
        let proxy = ContentAwareProxy::start(table, vec![o0.addr(), o1.addr()], 1).unwrap();
        let mut client = HttpClient::connect(proxy.addr()).unwrap();
        assert_eq!(client.get("/page").unwrap().body, b"old-node");

        // management migrates the page: one snapshot publication adds
        // node 1 and drops node 0 atomically — no worker can observe the
        // intermediate state.
        let path: UrlPath = "/page".parse().unwrap();
        proxy.publisher().update(|t| {
            t.add_location(&path, NodeId(1)).unwrap();
            t.remove_location(&path, NodeId(0)).unwrap();
        });
        assert_eq!(client.get("/page").unwrap().body, b"new-node");
    }

    #[test]
    fn shared_publisher_routes_external_mutations() {
        // The proxy runs over a publisher shared with an external writer
        // (standing in for the management controller): mutations through
        // the sibling publisher take effect on the proxy's next request.
        let o0 = start_origin(0, &[("/ext", b"ext-0")]);
        let o1 = start_origin(1, &[("/ext", b"ext-1")]);
        let controller_side = TablePublisher::new(UrlTable::new());
        let proxy = ContentAwareProxy::start_with_config(
            controller_side.share(),
            vec![o0.addr(), o1.addr()],
            Arc::new(MetricsRegistry::new()),
            sized(1, 1),
        )
        .unwrap();
        let mut client = HttpClient::connect(proxy.addr()).unwrap();
        assert_eq!(client.get("/ext").unwrap().status, 503, "not yet published");
        controller_side
            .update(|t| t.insert("/ext".parse().unwrap(), entry(0, &[0])))
            .unwrap();
        assert_eq!(client.get("/ext").unwrap().body, b"ext-0");
        controller_side.update(|t| {
            let path: UrlPath = "/ext".parse().unwrap();
            t.add_location(&path, NodeId(1)).unwrap();
            t.remove_location(&path, NodeId(0)).unwrap();
        });
        assert_eq!(client.get("/ext").unwrap().body, b"ext-1");
        assert_eq!(proxy.handle().generation(), controller_side.generation());
    }

    #[test]
    fn replicated_content_balances_by_in_flight() {
        let o0 = start_origin(0, &[("/r", b"r0")]);
        let o1 = start_origin(1, &[("/r", b"r1")]);
        let mut table = UrlTable::new();
        table
            .insert("/r".parse().unwrap(), entry(0, &[0, 1]))
            .unwrap();
        let proxy = ContentAwareProxy::start(table, vec![o0.addr(), o1.addr()], 2).unwrap();
        let addr = proxy.addr();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).unwrap();
                    for _ in 0..25 {
                        assert_eq!(client.get("/r").unwrap().status, 200);
                    }
                });
            }
        });
        // Both replicas served traffic.
        assert!(o0.served() > 0, "node 0 got {}", o0.served());
        assert!(o1.served() > 0, "node 1 got {}", o1.served());
        assert_eq!(o0.served() + o1.served(), 100);
    }

    #[test]
    fn workers_split_connections() {
        let o0 = start_origin(0, &[("/w", b"w")]);
        let mut table = UrlTable::new();
        table.insert("/w".parse().unwrap(), entry(0, &[0])).unwrap();
        let proxy = ContentAwareProxy::start_with_config(
            TablePublisher::new(table),
            vec![o0.addr()],
            Arc::new(MetricsRegistry::new()),
            sized(4, 4),
        )
        .unwrap();
        let addr = proxy.addr();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).unwrap();
                    for _ in 0..10 {
                        assert_eq!(client.get("/w").unwrap().status, 200);
                    }
                });
            }
        });
        assert_eq!(proxy.relayed(), 40);
        // Each worker's pool shard counts one checkout per request it
        // relayed: the acceptor hands the 4 connections round-robin to the
        // 4 workers.
        let per_worker: Vec<u64> = proxy.pools.iter().map(SocketPool::checkouts).collect();
        assert_eq!(per_worker, [10; 4]);
    }

    #[test]
    fn slow_request_heads_parse_across_packets() {
        // A client that trickles the request line and headers in separate
        // packets: the proxy must keep the partial parse alive across poll
        // rounds rather than time out mid-head and misread the remaining
        // header bytes as a fresh request line.
        let o0 = start_origin(0, &[("/slow", b"patient")]);
        let mut table = UrlTable::new();
        table
            .insert("/slow".parse().unwrap(), entry(0, &[0]))
            .unwrap();
        let proxy = ContentAwareProxy::start(table, vec![o0.addr()], 1).unwrap();

        use std::io::{Read, Write};
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        for chunk in [
            &b"GET /slow "[..],
            b"HTTP/1.1\r\n",
            b"Connection: close\r\n",
            b"\r\n",
        ] {
            stream.write_all(chunk).unwrap();
            std::thread::sleep(Duration::from_millis(80));
        }
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 200"), "slow client got: {text}");
        assert!(text.ends_with("patient"), "slow client got: {text}");
        assert_eq!(proxy.relayed(), 1);
    }

    #[test]
    fn malformed_requests_get_400() {
        let o0 = start_origin(0, &[("/a", b"x")]);
        let mut table = UrlTable::new();
        table.insert("/a".parse().unwrap(), entry(0, &[0])).unwrap();
        let proxy = ContentAwareProxy::start(table, vec![o0.addr()], 1).unwrap();

        use std::io::{Read, Write};
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        stream.write_all(b"GARBAGE\r\n\r\n").unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(
            text.starts_with("HTTP/1.1 400 Bad Request"),
            "malformed request got: {text}"
        );
    }

    #[test]
    fn backend_failure_yields_502() {
        // A "backend" that accepts connections and immediately drops them:
        // pre-forking succeeds, but every relayed exchange dies.
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let dead_addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                drop(conn);
            }
        });

        let mut table = UrlTable::new();
        table.insert("/a".parse().unwrap(), entry(0, &[0])).unwrap();
        let proxy = ContentAwareProxy::start(table, vec![dead_addr], 1).unwrap();
        let mut client = HttpClient::connect(proxy.addr()).unwrap();
        let resp = client.get("/a").unwrap();
        assert_eq!(resp.status, 502);
    }

    #[test]
    fn metrics_endpoint_reports_request_path_families() {
        let o0 = start_origin(0, &[("/a", b"x")]);
        let mut table = UrlTable::new();
        table.insert("/a".parse().unwrap(), entry(0, &[0])).unwrap();
        let proxy = ContentAwareProxy::start(table, vec![o0.addr()], 2).unwrap();
        let mut client = HttpClient::connect(proxy.addr()).unwrap();
        for _ in 0..3 {
            assert_eq!(client.get("/a").unwrap().status, 200);
        }
        assert_eq!(client.get("/unknown").unwrap().status, 503);

        let resp = client.get(METRICS_PATH).unwrap();
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        // Proxy family (request path), dispatch family (routing), the
        // urltable family (lookup latency + render-time memory gauge),
        // and the reactor family (data-plane internals) all surface on
        // the one endpoint.
        assert!(text.contains("proxy_relayed_total 3"), "{text}");
        assert!(text.contains("proxy_unroutable_total 1"), "{text}");
        assert!(text.contains("dispatch_requests_total 4"), "{text}");
        assert!(
            text.contains("urltable_lookup_ns{quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(text.contains("urltable_memory_bytes"), "{text}");
        assert!(text.contains("proxy_request_ns_count 4"), "{text}");
        assert!(text.contains("proxy_conn_active 1"), "{text}");
        assert!(text.contains("proxy_conn_rejected_total 0"), "{text}");
        assert!(text.contains("reactor_workers 4"), "{text}");
        assert!(text.contains("reactor_polls_total"), "{text}");

        let json = String::from_utf8(client.get(METRICS_JSON_PATH).unwrap().body).unwrap();
        assert!(json.contains("\"proxy_relayed_total\": 3"), "{json}");
        assert!(json.contains("\"histograms\""), "{json}");
        // The 503 left a post-mortem event correlated to its request id.
        assert!(json.contains("unroutable: /unknown: no location"), "{json}");
    }

    #[test]
    fn record_interval_populates_the_series_endpoint() {
        let o0 = start_origin(0, &[("/a", b"x")]);
        let mut table = UrlTable::new();
        table.insert("/a".parse().unwrap(), entry(0, &[0])).unwrap();
        let registry = Arc::new(MetricsRegistry::new());
        let mut proxy = ContentAwareProxy::start_with_config(
            TablePublisher::new(table),
            vec![o0.addr()],
            Arc::clone(&registry),
            ProxyConfig {
                workers: 1,
                record_interval: Some(Duration::from_millis(5)),
                ..ProxyConfig::default()
            },
        )
        .unwrap();
        let recorder = registry.series().expect("sampler installs a recorder");
        let mut client = HttpClient::connect(proxy.addr()).unwrap();
        assert_eq!(client.get("/a").unwrap().status, 200);
        let deadline = Instant::now() + Duration::from_secs(5);
        while recorder.samples_taken() < 3 {
            assert!(Instant::now() < deadline, "sampler never ran");
            std::thread::sleep(Duration::from_millis(2));
        }
        let body = String::from_utf8(client.get(SERIES_JSON_PATH).unwrap().body).unwrap();
        assert!(body.contains("\"scrape_seq\":"), "{body}");
        assert!(body.contains("\"proxy_relayed_total\":["), "{body}");
        // Shutdown stops the sampler thread with everything else.
        proxy.shutdown();
        let settled = recorder.samples_taken();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(recorder.samples_taken(), settled);
    }

    #[test]
    fn series_endpoint_without_a_recorder_serves_an_empty_document() {
        let o0 = start_origin(0, &[("/a", b"x")]);
        let mut table = UrlTable::new();
        table.insert("/a".parse().unwrap(), entry(0, &[0])).unwrap();
        let proxy = ContentAwareProxy::start(table, vec![o0.addr()], 1).unwrap();
        let mut client = HttpClient::connect(proxy.addr()).unwrap();
        let resp = client.get(SERIES_JSON_PATH).unwrap();
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"series\":{}"), "{body}");
    }

    /// Polls until `f` yields, because spans record when their guard
    /// drops — a hair after the response bytes reach the client.
    fn wait_for<T>(mut f: impl FnMut() -> Option<T>) -> T {
        for _ in 0..400 {
            if let Some(v) = f() {
                return v;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("condition not met within deadline");
    }

    #[test]
    fn relayed_requests_form_one_cross_process_trace() {
        let origin = start_origin(0, &[("/t", b"traced")]);
        let mut table = UrlTable::new();
        table.insert("/t".parse().unwrap(), entry(0, &[0])).unwrap();
        let proxy = ContentAwareProxy::start(table, vec![origin.addr()], 1).unwrap();
        let mut client = HttpClient::connect(proxy.addr()).unwrap();
        assert_eq!(client.get("/t").unwrap().status, 200);

        // The proxy rooted the trace and opened a relay hop under it.
        let (request, relay) = wait_for(|| {
            let spans = proxy.metrics().spans().snapshot();
            let request = spans.iter().find(|s| s.name == "proxy.request")?.clone();
            let relay = spans.iter().find(|s| s.name == "proxy.relay")?.clone();
            Some((request, relay))
        });
        assert_eq!(request.parent, None);
        assert_eq!(request.detail, "/t");
        assert_eq!(relay.trace, request.trace);
        assert_eq!(relay.parent, Some(request.span));

        // The origin — a separate "process" with its own registry —
        // recorded a span of the same trace, parented to the relay hop
        // carried over by the x-cpms-trace header.
        let served = wait_for(|| {
            let spans = origin.metrics().spans().snapshot();
            spans.iter().find(|s| s.name == "origin.request").cloned()
        });
        assert_eq!(served.trace, request.trace);
        assert_eq!(served.parent, Some(relay.span));
        assert!(!served.error);

        // Both halves export on their /_cpms/trace.json surfaces.
        let dump = String::from_utf8(client.get(TRACE_JSON_PATH).unwrap().body).unwrap();
        assert!(dump.contains(&request.trace.to_string()), "{dump}");
        assert!(dump.contains("proxy.relay"), "{dump}");
    }

    #[test]
    fn unroutable_requests_record_error_spans() {
        let o0 = start_origin(0, &[("/a", b"x")]);
        let mut table = UrlTable::new();
        table.insert("/a".parse().unwrap(), entry(0, &[0])).unwrap();
        let proxy = ContentAwareProxy::start(table, vec![o0.addr()], 1).unwrap();
        let mut client = HttpClient::connect(proxy.addr()).unwrap();
        assert_eq!(client.get("/missing").unwrap().status, 503);
        let span = wait_for(|| {
            let spans = proxy.metrics().spans().snapshot();
            spans.iter().find(|s| s.name == "proxy.request").cloned()
        });
        assert!(span.error, "503 must mark the request span failed");
        assert!(span.detail.contains("unroutable"), "{}", span.detail);
    }

    /// A one-worker proxy routing `/a` to a back end that accepts two
    /// connections, closes each without answering, and stops listening —
    /// started once its pre-forked connection has hung up and been
    /// discarded while idle, so the first request opens the second
    /// connection. Join the handle to know the listener is gone.
    fn proxy_over_unanswering_backend() -> (ContentAwareProxy, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let backend = std::thread::spawn(move || {
            for conn in listener.incoming().take(2) {
                drop(conn);
            }
        });
        let mut table = UrlTable::new();
        table.insert("/a".parse().unwrap(), entry(0, &[0])).unwrap();
        let proxy = ContentAwareProxy::start_with_config(
            TablePublisher::new(table),
            vec![addr],
            Arc::new(MetricsRegistry::new()),
            sized(1, 1),
        )
        .unwrap();
        wait_for(|| {
            let discards = proxy
                .metrics()
                .snapshot()
                .counter("proxy_pool_discards_total");
            (discards == Some(1)).then_some(())
        });
        (proxy, backend)
    }

    /// A request the head-sampling roll skipped still records its spans
    /// once it fails — with the same names, parents and details a sampled
    /// one carries, though tracing builds them only then.
    #[test]
    fn an_unsampled_request_ending_in_502_records_both_spans() {
        use cpms_obs::TraceContext;
        use std::io::{Read, Write};

        let (proxy, backend) = proxy_over_unanswering_backend();
        let inbound = TraceContext::root(false);
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        write!(
            stream,
            "GET /a HTTP/1.1\r\nx-cpms-trace: {}\r\nConnection: close\r\n\r\n",
            inbound.to_header()
        )
        .unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        assert!(raw.starts_with(b"HTTP/1.1 502"), "{raw:?}");
        backend.join().unwrap();

        let spans = wait_for(|| {
            let spans = proxy.metrics().spans().spans_of(inbound.trace);
            (spans.len() == 2).then_some(spans)
        });
        let request = spans.iter().find(|s| s.name == "proxy.request").unwrap();
        let relay = spans.iter().find(|s| s.name == "proxy.relay").unwrap();
        assert_eq!(request.parent, Some(inbound.span));
        assert!(
            request.detail.starts_with("backend_failed: /a: node 0: "),
            "{}",
            request.detail
        );
        assert!(request.error);
        assert_eq!(relay.parent, Some(request.span));
        assert_eq!(relay.detail, "node=0");
        assert!(relay.error);
    }

    #[test]
    fn debug_reports_every_aggregate() {
        let o0 = start_origin(0, &[("/a", b"x")]);
        let mut table = UrlTable::new();
        table.insert("/a".parse().unwrap(), entry(0, &[0])).unwrap();
        let proxy = ContentAwareProxy::start(table, vec![o0.addr()], 1).unwrap();
        let mut client = HttpClient::connect(proxy.addr()).unwrap();
        client.get("/a").unwrap();
        client.get("/missing").unwrap();
        let debug = format!("{proxy:?}");
        for field in [
            "workers: 4",
            "relayed: 1",
            "unroutable: 1",
            "backend_failed: 0",
            "backend_connect: 0",
        ] {
            assert!(debug.contains(field), "{field} missing from {debug}");
        }
    }
}
