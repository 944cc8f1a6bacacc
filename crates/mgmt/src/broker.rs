//! Brokers: the per-node management daemons.
//!
//! > "The broker is a standalone Java application, which executes as a
//! > daemon process on each backend server in order to perform the
//! > administrative functions and monitor the status … of the managed
//! > node."
//!
//! A broker is its node's content store served over the wire: a
//! [`StoreService`] over the [`BrokerState`]'s store, speaking one
//! protocol — [`ShipRequest`] in, [`ShipReply`] out. Every management
//! function the controller sends is one of its verbs (see
//! [`crate::agent`]). The same service runs in two deployments:
//!
//! - **in-process** ([`Broker::spawn`]) — a [`cpms_wire::InProcServer`],
//!   which runs the service on the dispatching thread, preserving the
//!   original single-process control plane;
//! - **TCP daemon** ([`Broker::bind`] / the `cpms-broker` binary) — a
//!   [`cpms_wire::TcpServer`] bound to a real socket, reachable from
//!   other processes and hosts ([`Broker::connect`]).
//!
//! Either way, the controller's end is a [`BrokerHandle`]: a retrying,
//! deadline-bounded [`cpms_wire::Client`] plus (for locally hosted
//! brokers) the server handle itself, so tests and the single-process
//! deployment can stop a broker and recover its final state.

use crate::agent::AgentError;
use crate::store::BrokerState;
use cpms_model::{ContentId, NodeId, UrlPath};
use cpms_obs::{MetricsRegistry, SpanCollector};
use cpms_store::{
    ObjectMeta, ShipPort, ShipReply, ShipRequest, StoreError, StoreService, StoreStats,
};
use cpms_wire::{
    Client, ClientStats, InProcServer, RetryPolicy, TcpServer, TcpTransport, Transport, WireError,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Default per-RPC deadline for broker calls.
pub const BROKER_DEADLINE: Duration = Duration::from_secs(2);

/// How a locally hosted broker is served.
#[derive(Debug)]
enum BrokerServer {
    InProc(InProcServer<StoreService>),
    Tcp(TcpServer<StoreService>),
}

/// The controller-side handle to one node's broker: a retrying wire
/// client, plus the server itself when this process hosts it.
#[derive(Debug)]
pub struct BrokerHandle {
    node: NodeId,
    client: Client,
    server: Option<BrokerServer>,
    /// True for daemons this process does not host ([`Broker::connect`]):
    /// their liveness is the monitor's job, not the handle's.
    remote: bool,
}

impl BrokerHandle {
    /// The node this broker manages.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The wire client (transport stats, metrics attachment).
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// Point-in-time transport counters for this broker's client.
    pub fn transport_stats(&self) -> ClientStats {
        self.client.stats()
    }

    /// The transport kind serving this broker (`"inproc"`, `"tcp"`,
    /// `"faulty"`).
    pub fn transport_kind(&self) -> &'static str {
        self.client.transport_kind()
    }

    /// Folds this broker's wire metrics into `registry`.
    pub fn attach_metrics(&self, registry: &Arc<MetricsRegistry>) {
        self.client.attach_metrics(registry);
    }

    /// The TCP address a locally hosted daemon is listening on (`None`
    /// for in-process brokers and remote handles).
    pub fn addr(&self) -> Option<SocketAddr> {
        match &self.server {
            Some(BrokerServer::Tcp(s)) => Some(s.addr()),
            _ => None,
        }
    }

    /// Whether the broker is still reachable. For locally hosted brokers
    /// this is whether the server still holds its service (it does not
    /// once stopped, or after a handler panicked); for remote daemons
    /// ([`Broker::connect`]) liveness is the monitor's job and this
    /// returns `true`.
    pub fn is_alive(&self) -> bool {
        match &self.server {
            Some(BrokerServer::InProc(s)) => s.is_running(),
            Some(BrokerServer::Tcp(s)) => s.is_running(),
            None => self.remote,
        }
    }

    /// Sends one request to the broker and waits for its reply — the call
    /// the controller, monitor, auditor and console make.
    ///
    /// # Errors
    ///
    /// [`AgentError::Store`] when the store refused ([`ShipReply::Err`]),
    /// [`AgentError::BrokerUnavailable`] if the broker is gone,
    /// [`AgentError::Transport`] on other wire failures (timeout,
    /// poisoned frame, retries exhausted).
    pub fn dispatch(&self, request: impl Into<ShipRequest>) -> Result<ShipReply, AgentError> {
        match self.ship(&request.into()) {
            Ok(ShipReply::Err(e)) => Err(AgentError::Store(e)),
            Ok(reply) => Ok(reply),
            Err(e) => Err(AgentError::from_wire(self.node, e)),
        }
    }

    /// The node's store accounting, with one `Stat`.
    ///
    /// # Errors
    ///
    /// See [`BrokerHandle::dispatch`]; a reply that is not `Stats` is an
    /// [`AgentError::Transport`] codec error.
    pub fn store_stats(&self) -> Result<StoreStats, AgentError> {
        match self.dispatch(ShipRequest::Stat)? {
            ShipReply::Stats(stats) => Ok(stats),
            other => Err(self.unexpected("stat", &other)),
        }
    }

    /// The object record a `Meta`, `Rename` or `Touch` answers with.
    pub(crate) fn record(&self, request: ShipRequest) -> Result<ObjectMeta, AgentError> {
        let verb = request.verb();
        match self.dispatch(request)? {
            ShipReply::MetaIs(meta) => Ok(meta),
            other => Err(self.unexpected(verb, &other)),
        }
    }

    fn unexpected(&self, verb: &str, reply: &ShipReply) -> AgentError {
        AgentError::Transport {
            node: self.node,
            error: WireError::Codec {
                detail: format!("broker answered {verb} with {reply:?}"),
            },
        }
    }

    /// Deletes this node's copy of `path` with one `Delete`. A delete
    /// retried after its reply was lost finds nothing left and is
    /// answered `NotFound`: gone is gone, so that answer is success too.
    pub(crate) fn delete_copy(&self, path: &UrlPath) -> Result<(), AgentError> {
        match self.dispatch(ShipRequest::Delete { path: path.clone() }) {
            Ok(_) | Err(AgentError::Store(StoreError::NotFound { .. })) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Moves this node's copy of `content` from `from` to `to` with one
    /// `Rename`. A rename retried after its reply was lost finds `to`
    /// taken and is refused; a copy whose `from` is gone and whose `to`
    /// holds `content` has moved, so that refusal is success too (two
    /// `Meta` reads judge it).
    pub(crate) fn rename_copy(
        &self,
        from: &UrlPath,
        to: &UrlPath,
        content: ContentId,
    ) -> Result<(), AgentError> {
        let meta = |path: &UrlPath| self.record(ShipRequest::Meta { path: path.clone() });
        let rename = ShipRequest::Rename {
            from: from.clone(),
            to: to.clone(),
        };
        match self.record(rename) {
            Err(AgentError::Store(_))
                if matches!(meta(to), Ok(m) if m.content == content)
                    && matches!(
                        meta(from),
                        Err(AgentError::Store(StoreError::NotFound { .. }))
                    ) =>
            {
                Ok(())
            }
            result => result.map(drop),
        }
    }

    /// Stops a locally hosted broker and returns its final state (for
    /// inspection or migration). Idempotent: returns `None` on repeated
    /// calls, if the broker already died, or if the broker is a remote
    /// daemon this process does not host.
    pub fn shutdown(&mut self) -> Option<BrokerState> {
        let service = match self.server.take()? {
            BrokerServer::InProc(mut s) => s.stop(),
            BrokerServer::Tcp(mut s) => s.stop(),
        }?;
        Some(BrokerState {
            content: Arc::clone(service.store()),
        })
    }

    /// Simulates a broker crash: the server stops without handing its
    /// state back (failure-injection for monitoring tests). The state is
    /// dropped.
    pub fn kill(&mut self) {
        let _ = self.shutdown();
    }
}

impl Drop for BrokerHandle {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

impl ShipPort for BrokerHandle {
    fn ship_tail(
        &self,
        request: &ShipRequest,
        tail: &[u8],
    ) -> Result<(ShipReply, Vec<u8>), WireError> {
        self.client.call_tail(request, tail)
    }

    fn peer(&self) -> String {
        format!("broker on {} over {}", self.node, self.transport_kind())
    }
}

/// The broker daemon. Construct with [`Broker::spawn`] (in-process),
/// [`Broker::bind`] (TCP daemon in this process), or
/// [`Broker::connect`] (client to a daemon elsewhere).
#[derive(Debug)]
pub struct Broker;

impl Broker {
    fn default_client(transport: Arc<dyn Transport>, node: NodeId) -> Client {
        Client::new(transport)
            .with_deadline(BROKER_DEADLINE)
            .with_retry(RetryPolicy {
                // Distinct deterministic jitter stream per node.
                seed: 0xB20_0000 + u64::from(node.0),
                ..RetryPolicy::default()
            })
    }

    /// Serves `service` in process; the client speaks through
    /// `wrap(transport)`.
    fn in_proc(
        service: StoreService,
        wrap: impl FnOnce(Arc<dyn Transport>) -> Arc<dyn Transport>,
    ) -> BrokerHandle {
        let node = service.store().node();
        let (transport, server) = InProcServer::spawn(service);
        BrokerHandle {
            node,
            client: Self::default_client(wrap(Arc::new(transport)), node),
            server: Some(BrokerServer::InProc(server)),
            remote: false,
        }
    }

    /// Serves `service` from a TCP listener on `addr`; the client speaks
    /// through `wrap(transport)`.
    fn tcp(
        addr: SocketAddr,
        service: StoreService,
        wrap: impl FnOnce(Arc<dyn Transport>) -> Arc<dyn Transport>,
    ) -> std::io::Result<BrokerHandle> {
        let node = service.store().node();
        let server = TcpServer::bind(addr, service)?;
        let transport = TcpTransport::new(server.addr());
        Ok(BrokerHandle {
            node,
            client: Self::default_client(wrap(Arc::new(transport)), node),
            server: Some(BrokerServer::Tcp(server)),
            remote: false,
        })
    }

    /// Starts an in-process broker over `state`, returning the
    /// controller-side handle.
    pub fn spawn(state: BrokerState) -> BrokerHandle {
        Self::in_proc(StoreService::new(state.content), |t| t)
    }

    /// [`Broker::spawn`] with the broker recording `broker.*` trace spans
    /// into `spans` — the single-process deployment's way of folding
    /// broker-side hops into one collector.
    pub fn spawn_observed(state: BrokerState, spans: Arc<SpanCollector>) -> BrokerHandle {
        Self::in_proc(
            StoreService::new(state.content).with_collector(spans),
            |t| t,
        )
    }

    /// [`Broker::spawn`] whose client speaks through `wrap(transport)` —
    /// the seam fault-injection tests use to put a
    /// [`cpms_wire::FaultyTransport`] between controller and broker.
    pub fn spawn_wrapped(
        state: BrokerState,
        wrap: impl FnOnce(Arc<dyn Transport>) -> Arc<dyn Transport>,
    ) -> BrokerHandle {
        Self::in_proc(StoreService::new(state.content), wrap)
    }

    /// Binds a TCP broker daemon over `state` on `addr` (port 0 for
    /// ephemeral) and returns a handle connected to it over
    /// loopback/network TCP.
    ///
    /// # Errors
    ///
    /// The bind failure, if any.
    pub fn bind(addr: SocketAddr, state: BrokerState) -> std::io::Result<BrokerHandle> {
        Self::tcp(addr, StoreService::new(state.content), |t| t)
    }

    /// [`Broker::bind`] with the client's transport passed through
    /// `wrap` — the seam that lets tests and smoke drills put a
    /// [`cpms_wire::FaultyTransport`] on a real TCP connection.
    ///
    /// # Errors
    ///
    /// The bind failure, if any.
    pub fn bind_wrapped(
        addr: SocketAddr,
        state: BrokerState,
        wrap: impl FnOnce(Arc<dyn Transport>) -> Arc<dyn Transport>,
    ) -> std::io::Result<BrokerHandle> {
        Self::tcp(addr, StoreService::new(state.content), wrap)
    }

    /// [`Broker::bind`] with the daemon recording `broker.*` trace spans
    /// into `spans` — how the `cpms-broker` binary exports its half of
    /// every distributed trace.
    ///
    /// # Errors
    ///
    /// The bind failure, if any.
    pub fn bind_observed(
        addr: SocketAddr,
        state: BrokerState,
        spans: Arc<SpanCollector>,
    ) -> std::io::Result<BrokerHandle> {
        let service = StoreService::new(state.content).with_collector(spans);
        Self::tcp(addr, service, |t| t)
    }

    /// A handle to a broker daemon running elsewhere (another process or
    /// host, e.g. the `cpms-broker` binary). No server is owned:
    /// [`BrokerHandle::shutdown`] returns `None` and the daemon's
    /// lifecycle belongs to whoever started it.
    #[must_use]
    pub fn connect(node: NodeId, addr: SocketAddr) -> BrokerHandle {
        Self::connect_wrapped(node, addr, |t| t)
    }

    /// [`Broker::connect`] with the client's transport passed through
    /// `wrap` — the seam a chaos orchestrator uses to put an armable
    /// [`cpms_wire::FaultSwitch`] on the link to a remote daemon.
    #[must_use]
    pub fn connect_wrapped(
        node: NodeId,
        addr: SocketAddr,
        wrap: impl FnOnce(Arc<dyn Transport>) -> Arc<dyn Transport>,
    ) -> BrokerHandle {
        BrokerHandle {
            node,
            client: Self::default_client(wrap(Arc::new(TcpTransport::new(addr))), node),
            server: None,
            remote: true,
        }
    }
}

/// [`Broker::spawn`] behind a link that delivers every request twice and
/// answers with the second reply: what a client sees whose first ack was
/// lost and whose retry arrived.
#[cfg(test)]
pub(crate) fn spawn_redelivering(state: BrokerState) -> BrokerHandle {
    #[derive(Debug)]
    struct Redelivering(Arc<dyn Transport>);

    impl Transport for Redelivering {
        fn call(&self, request: &[u8], deadline: Duration) -> Result<Vec<u8>, WireError> {
            self.0.call(request, deadline)?;
            self.0.call(request, deadline)
        }

        fn kind(&self) -> &'static str {
            "redelivering"
        }
    }

    Broker::spawn_wrapped(state, |inner| Arc::new(Redelivering(inner)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpms_store::{fnv64, synthetic_body, ContentStore, ShipError, Shipper, DEFAULT_CHUNK_SIZE};

    fn p(s: &str) -> UrlPath {
        s.parse().unwrap()
    }

    /// Ships `id`'s 10 synthetic bytes to `path`.
    fn put(h: &BrokerHandle, path: &str, id: u32) {
        let body = synthetic_body(ContentId(id), 10);
        Shipper::new()
            .push(h, &p(path), ContentId(id), 0, &body, false)
            .unwrap();
    }

    #[test]
    fn dispatch_roundtrip() {
        let mut h = Broker::spawn(BrokerState::new(NodeId(3), 1000));
        assert_eq!(h.node(), NodeId(3));
        assert!(h.is_alive());
        assert_eq!(h.transport_kind(), "inproc");
        put(&h, "/x", 1);
        assert_eq!(h.store_stats().unwrap().objects, 1);
        let stats = h.transport_stats();
        assert_eq!(stats.calls, 2, "put, stat");
        assert!(stats.last_rtt_ns > 0);
        let state = h.shutdown().expect("final state");
        assert!(state.content().contains(&p("/x")));
    }

    #[test]
    fn objects_put_into_the_shared_store_after_start_are_the_brokers_too() {
        // What an origin's backing store and the anti-entropy tests do:
        // write the node's store from outside the broker protocol.
        let shared = Arc::new(ContentStore::in_memory(NodeId(2), 1000));
        let h = Broker::spawn(BrokerState::new(NodeId(2), 1000).with_content(Arc::clone(&shared)));
        assert_eq!(h.node(), NodeId(2));
        shared
            .put(&p("/late"), ContentId(5), 3, &[1u8; 250], false)
            .unwrap();
        match h.dispatch(ShipRequest::Inventory).unwrap() {
            ShipReply::InventoryIs(l) => {
                assert_eq!(l.len(), 1);
                let (path, late) = &l[0];
                assert_eq!(
                    (path, late.content, late.size, late.version),
                    (&p("/late"), ContentId(5), 250, 3)
                );
            }
            other => panic!("{other:?}"),
        }
        let stats = h.store_stats().unwrap();
        assert_eq!(
            (stats.objects, stats.committed_bytes, stats.free_bytes()),
            (1, 250, 750)
        );
        h.dispatch(ShipRequest::Delete { path: p("/late") })
            .unwrap();
        assert!(!shared.contains(&p("/late")));
    }

    #[test]
    fn errors_propagate() {
        let mut h = Broker::spawn(BrokerState::new(NodeId(0), 1000));
        let err = h
            .dispatch(ShipRequest::Delete { path: p("/nope") })
            .unwrap_err();
        assert!(matches!(err, AgentError::Store(_)));
        h.shutdown();
    }

    #[test]
    fn dispatch_after_shutdown_fails() {
        let mut h = Broker::spawn(BrokerState::new(NodeId(0), 1000));
        h.shutdown();
        assert!(!h.is_alive());
        let err = h.dispatch(ShipRequest::Stat).unwrap_err();
        assert!(matches!(err, AgentError::BrokerUnavailable(NodeId(0))));
        assert!(h.shutdown().is_none(), "second shutdown is a no-op");
    }

    #[test]
    fn concurrent_dispatches_serialize() {
        let h = Broker::spawn(BrokerState::new(NodeId(0), 100_000));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..25 {
                        put(h, &format!("/t{t}/f{i}"), i);
                    }
                });
            }
        });
        assert_eq!(h.store_stats().unwrap().objects, 100);
    }

    #[test]
    fn tcp_daemon_roundtrip() {
        let mut h = Broker::bind(
            "127.0.0.1:0".parse().unwrap(),
            BrokerState::new(NodeId(7), 1000),
        )
        .unwrap();
        assert_eq!(h.transport_kind(), "tcp");
        assert!(h.is_alive());
        put(&h, "/net", 2);
        match h.dispatch(ShipRequest::Inventory).unwrap() {
            ShipReply::InventoryIs(l) => {
                assert_eq!(l.len(), 1);
                assert_eq!(l[0].0, p("/net"));
            }
            other => panic!("{other:?}"),
        }
        let state = h.shutdown().expect("final state over TCP too");
        assert!(state.content().contains(&p("/net")));
        assert!(!h.is_alive());
    }

    #[test]
    fn connect_handle_reaches_separately_hosted_daemon() {
        // Host the daemon through one handle, reach it through a second,
        // client-only handle — the two-process topology in one test.
        let mut host = Broker::bind(
            "127.0.0.1:0".parse().unwrap(),
            BrokerState::new(NodeId(4), 1000),
        )
        .unwrap();
        let addr = host.addr().expect("tcp daemon has an address");
        let mut remote = Broker::connect(NodeId(4), addr);
        put(&remote, "/r", 3);
        assert!(remote.shutdown().is_none(), "connect owns no server");
        let state = host.shutdown().expect("host owns the daemon");
        assert!(state.content().contains(&p("/r")), "remote write landed");
    }

    /// The typed refusal a broker answers a payload it cannot decode.
    fn undecodable(reply: &[u8]) -> bool {
        let reply: ShipReply = serde_json::from_str(std::str::from_utf8(reply).unwrap()).unwrap();
        matches!(reply, ShipReply::Err(StoreError::Io { detail }) if detail.starts_with("undecodable"))
    }

    #[test]
    fn garbage_payload_surfaces_codec_error_not_a_hang() {
        let h = Broker::spawn(BrokerState::new(NodeId(1), 1000));
        // Speak raw bytes past the typed dispatch layer: no request at
        // all, a lone separator, a tail with no head, a frame's worth of
        // zeros, and a request in the deleted agent spelling.
        let zeros = vec![0u8; 16 << 20];
        for payload in [
            &b"not a request"[..],
            &[0],
            b"\0headless",
            &zeros,
            br#"{"Status":null}"#,
        ] {
            assert!(undecodable(&h.client().call_raw(payload).unwrap()));
        }
    }

    #[test]
    fn a_broker_that_predates_tails_refuses_a_chunk_with_a_codec_error() {
        // A two-chunk body goes `Begin` (tail-free, so answered) and then
        // a tail-bearing `Chunk`; a one-chunk body is a tail-bearing `Put`.
        let two_chunks = vec![7u8; 2 * DEFAULT_CHUNK_SIZE as usize];
        for (body, verbs) in [
            (&two_chunks[..], &["begin", "chunk"][..]),
            (&[7u8; 5000][..], &["put"][..]),
        ] {
            // The service as it was: the whole payload goes to the decoder.
            let store = ContentStore::in_memory(NodeId(5), 1 << 20);
            let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
            let log = Arc::clone(&seen);
            let (transport, _server) = InProcServer::spawn(move |request: &[u8]| {
                let reply = match std::str::from_utf8(request)
                    .map_err(|e| e.to_string())
                    .and_then(|t| serde_json::from_str::<ShipRequest>(t).map_err(|e| e.to_string()))
                {
                    Ok(request) => {
                        log.lock().unwrap().push(request.verb());
                        cpms_store::apply(&store, &request)
                    }
                    Err(detail) => {
                        // Note which verb the refused payload's head names.
                        let head = request.split(|b| *b == 0).next().unwrap();
                        let verb = std::str::from_utf8(head)
                            .ok()
                            .and_then(|t| serde_json::from_str::<ShipRequest>(t).ok());
                        log.lock().unwrap().push(verb.map_or("?", |r| r.verb()));
                        ShipReply::Err(StoreError::Io {
                            detail: format!("undecodable ship request: {detail}"),
                        })
                    }
                };
                serde_json::to_string(&reply).unwrap().into_bytes()
            });
            let old = BrokerHandle {
                node: NodeId(5),
                client: Broker::default_client(Arc::new(transport), NodeId(5)),
                server: None,
                remote: true,
            };
            let err = Shipper::new()
                .push(&old, &p("/new"), ContentId(1), 0, body, false)
                .unwrap_err();
            match err {
                ShipError::Store(StoreError::Io { detail })
                    if detail.starts_with("undecodable") => {}
                other => panic!("{other:?}"),
            }
            assert_eq!(old.transport_stats().retries, 0, "refused once, for good");
            let seen = seen.lock().unwrap();
            assert_eq!(&seen[..], verbs, "{seen:?}");
        }
    }

    /// A store with something for every verb to act on: `/a` committed;
    /// `/idle` staged, then left idle across a sweep while `/s` (one of
    /// two chunks staged) and `/c` (both staged, uncommitted) began.
    fn busy_store() -> Arc<ContentStore> {
        let store = Arc::new(ContentStore::in_memory(NodeId(0), 1 << 20));
        store
            .put(
                &p("/a"),
                ContentId(1),
                0,
                &synthetic_body(ContentId(1), 100),
                false,
            )
            .unwrap();
        let idle = ObjectMeta::for_body(ContentId(3), &[3u8; 50], 64, 0);
        assert_eq!(store.begin(&p("/idle"), idle, false).unwrap().0, 1);
        assert_eq!(store.gc(), (0, 0));
        // Transfers 2 and 3: 200-byte objects in two chunks each.
        for (path, id, staged) in [("/s", 2, 1), ("/c", 5, 2)] {
            let body = synthetic_body(ContentId(id), 200);
            let meta = ObjectMeta::for_body(ContentId(id), &body, 128, 0);
            let (transfer, _) = store.begin(&p(path), meta, false).unwrap();
            for index in 0..staged {
                let chunk = &body[meta.chunk_range(index).unwrap()];
                store
                    .stage_chunk(transfer, index, chunk, fnv64(chunk))
                    .unwrap();
            }
        }
        store
    }

    /// What the verbs can change: the committed objects and the staged
    /// reservations.
    fn state(store: &ContentStore) -> (Vec<(UrlPath, ObjectMeta)>, u64, u64) {
        let stats = store.stats();
        (
            store.inventory(),
            stats.staged_transfers,
            stats.staged_bytes,
        )
    }

    #[test]
    fn every_verb_survives_redelivery() {
        type Call = Box<dyn Fn(&BrokerHandle) -> String>;
        fn send(request: ShipRequest, tail: Vec<u8>) -> Call {
            Box::new(move |h| format!("{:?}", h.ship_tail(&request, &tail)))
        }
        let s_body = synthetic_body(ContentId(2), 200);
        let c_body = synthetic_body(ContentId(5), 200);
        let put_body = synthetic_body(ContentId(6), 100);
        let verbs: Vec<(&str, Call)> = vec![
            (
                "put",
                send(
                    ShipRequest::Put {
                        path: p("/p"),
                        meta: ObjectMeta::for_body(ContentId(6), &put_body, 128, 0),
                        overwrite: false,
                    },
                    put_body.clone(),
                ),
            ),
            (
                "begin",
                send(
                    ShipRequest::Begin {
                        path: p("/b"),
                        meta: ObjectMeta::for_body(ContentId(4), &[4u8; 10], 64, 0),
                        overwrite: false,
                    },
                    Vec::new(),
                ),
            ),
            (
                "chunk",
                send(
                    ShipRequest::Chunk {
                        transfer: 2,
                        index: 1,
                        data: String::new(),
                        checksum: fnv64(&s_body[128..]),
                    },
                    s_body[128..].to_vec(),
                ),
            ),
            (
                "commit",
                send(
                    ShipRequest::Commit {
                        transfer: 3,
                        path: p("/c"),
                        checksum: fnv64(&c_body),
                    },
                    Vec::new(),
                ),
            ),
            (
                "abort",
                send(ShipRequest::Abort { transfer: 2 }, Vec::new()),
            ),
            (
                "fetch",
                send(
                    ShipRequest::Fetch {
                        path: p("/a"),
                        index: 0,
                    },
                    Vec::new(),
                ),
            ),
            ("get", send(ShipRequest::Get { path: p("/a") }, Vec::new())),
            (
                "meta",
                send(ShipRequest::Meta { path: p("/a") }, Vec::new()),
            ),
            (
                "verify",
                send(ShipRequest::Verify { path: p("/a") }, Vec::new()),
            ),
            ("inventory", send(ShipRequest::Inventory, Vec::new())),
            ("stat", send(ShipRequest::Stat, Vec::new())),
            ("gc", send(ShipRequest::Gc, Vec::new())),
            (
                "delete",
                send(ShipRequest::Delete { path: p("/a") }, Vec::new()),
            ),
            (
                "rename",
                // The controller's spelling: the replay rule is the handle's.
                Box::new(|h| format!("{:?}", h.rename_copy(&p("/a"), &p("/r"), ContentId(1)))),
            ),
            (
                "touch",
                send(
                    ShipRequest::Touch {
                        path: p("/a"),
                        version: 5,
                    },
                    Vec::new(),
                ),
            ),
        ];
        assert_eq!(verbs.len(), 15, "every verb of the broker protocol");
        for (verb, call) in &verbs {
            let once = busy_store();
            let twice = busy_store();
            let single = call(&Broker::spawn(
                BrokerState::new(NodeId(0), 0).with_content(Arc::clone(&once)),
            ));
            let replayed = call(&spawn_redelivering(
                BrokerState::new(NodeId(0), 0).with_content(Arc::clone(&twice)),
            ));
            assert!(!single.contains("Err"), "{verb} does its work: {single}");
            if *verb == "delete" {
                // Documented: gone is gone, and the replay says so.
                assert!(single.contains("Deleted"), "{single}");
                assert!(replayed.contains("NotFound"), "{replayed}");
            } else {
                assert_eq!(single, replayed, "{verb}: the caller sees one answer");
            }
            assert_eq!(
                state(&once),
                state(&twice),
                "{verb}: the store ends the same"
            );
        }
    }
}
