//! Brokers: the per-node management daemons.
//!
//! > "The broker is a standalone Java application, which executes as a
//! > daemon process on each backend server in order to perform the
//! > administrative functions and monitor the status … of the managed
//! > node."
//!
//! A broker is a [`cpms_wire::Service`]: it owns its node's
//! [`BrokerState`] — one content store — and executes serialized
//! [`AgentRequest`]s received over a wire transport against it, replying
//! with [`AgentReply`]s. The same service runs in two deployments:
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

use crate::agent::{AgentError, AgentOutput, AgentReply, AgentRequest, ShipAgent};
use crate::store::BrokerState;
use cpms_model::NodeId;
use cpms_obs::{MetricsRegistry, SpanCollector, TraceContext, TracedSpan};
use cpms_store::{ShipPort, ShipReply, ShipRequest};
use cpms_wire::{
    Client, ClientStats, InProcServer, RetryPolicy, TcpServer, TcpTransport, Transport, WireError,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Default per-RPC deadline for broker calls.
pub const BROKER_DEADLINE: Duration = Duration::from_secs(2);

/// The broker's wire service: one node's content store behind the agent
/// protocol. Requests are [`AgentRequest`] JSON payloads; responses are
/// [`AgentReply`] JSON payloads. A tunneled ship request's chunk bytes
/// ride behind either as the payload's raw tail
/// ([`cpms_wire::with_tail`]).
#[derive(Debug)]
pub struct BrokerService {
    state: BrokerState,
    spans: Option<Arc<SpanCollector>>,
}

impl BrokerService {
    /// Wraps a node's state as a wire service.
    #[must_use]
    pub fn new(state: BrokerState) -> Self {
        BrokerService { state, spans: None }
    }

    /// Records a `broker.<agent>` span into `spans` for every request
    /// executed under an inbound trace context (requests arriving
    /// untraced add nothing — a broker never roots traces of its own).
    #[must_use]
    pub fn with_collector(mut self, spans: Arc<SpanCollector>) -> Self {
        self.spans = Some(spans);
        self
    }

    /// The node this broker manages.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.state.node()
    }

    /// Unwraps the service back into its state (after the server that
    /// owned it stopped).
    #[must_use]
    pub fn into_state(self) -> BrokerState {
        self.state
    }
}

impl cpms_wire::Service for BrokerService {
    fn handle(&mut self, request: &[u8]) -> Vec<u8> {
        let (head, tail) = cpms_wire::split_tail(request);
        let mut reply_tail = Vec::new();
        let reply: AgentReply = match std::str::from_utf8(head)
            .map_err(|e| format!("payload is not UTF-8: {e}"))
            .and_then(|text| serde_json::from_str::<AgentRequest>(text).map_err(|e| e.to_string()))
        {
            Ok(agent) => {
                // The request's trace context (if any) is this thread's
                // current one — the server activated the frame's, or we
                // are on the caller's thread — so this span parents to
                // the caller's `wire.attempt` hop.
                let mut span = match (&self.spans, TraceContext::current()) {
                    (Some(spans), Some(_)) => {
                        let mut span = TracedSpan::enter(spans, format!("broker.{}", agent.name()));
                        span.set_detail(match &agent {
                            AgentRequest::Ship(s) => {
                                format!("node={} {}", self.state.node(), s.request.verb())
                            }
                            _ => format!("node={}", self.state.node()),
                        });
                        Some(span)
                    }
                    _ => None,
                };
                let result = match &agent {
                    AgentRequest::Ship(ship) => {
                        let (reply, bytes) =
                            cpms_store::apply_tail(self.state.content(), &ship.request, tail);
                        reply_tail = bytes;
                        Ok(AgentOutput::Ship(reply))
                    }
                    other => other.execute(&mut self.state),
                };
                if let (Some(span), Err(e)) = (span.as_mut(), &result) {
                    span.set_error(true);
                    span.set_detail(e.to_string());
                }
                result.into()
            }
            Err(detail) => AgentReply::Err(AgentError::Transport {
                node: self.state.node(),
                error: WireError::Codec { detail },
            }),
        };
        cpms_wire::with_tail(
            serde_json::to_string(&reply).expect("agent replies always serialize"),
            &reply_tail,
        )
    }
}

/// How a locally hosted broker is served.
#[derive(Debug)]
enum BrokerServer {
    InProc(InProcServer<BrokerService>),
    Tcp(TcpServer<BrokerService>),
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

    /// Ships an agent to the broker over the wire and waits for its
    /// result.
    ///
    /// # Errors
    ///
    /// [`AgentError::BrokerUnavailable`] if the broker is gone,
    /// [`AgentError::Transport`] on other wire failures (timeout,
    /// poisoned frame, retries exhausted), plus whatever the agent
    /// itself reports.
    pub fn dispatch(&self, agent: impl Into<AgentRequest>) -> Result<AgentOutput, AgentError> {
        self.dispatch_tail(agent.into(), &[])
            .map(|(output, _tail)| output)
    }

    /// [`BrokerHandle::dispatch`] with raw bytes riding behind the agent
    /// and behind its reply — a tunneled ship request's chunk.
    fn dispatch_tail(
        &self,
        request: AgentRequest,
        tail: &[u8],
    ) -> Result<(AgentOutput, Vec<u8>), AgentError> {
        let (reply, reply_tail): (AgentReply, Vec<u8>) = self
            .client
            .call_tail(&request, tail)
            .map_err(|e| AgentError::from_wire(self.node, e))?;
        Result::from(reply).map(|output| (output, reply_tail))
    }

    /// Stops a locally hosted broker and returns its final state (for
    /// inspection or migration). Idempotent: returns `None` on repeated
    /// calls, if the broker already died, or if the broker is a remote
    /// daemon this process does not host.
    pub fn shutdown(&mut self) -> Option<BrokerState> {
        match self.server.take()? {
            BrokerServer::InProc(mut s) => s.stop().map(BrokerService::into_state),
            BrokerServer::Tcp(mut s) => s.stop().map(BrokerService::into_state),
        }
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
    /// Content shipping rides the agent protocol: the request is
    /// tunneled as a [`ShipAgent`], so the same broker endpoint carries
    /// both management functions and replica bytes.
    fn ship_tail(
        &self,
        request: &ShipRequest,
        tail: &[u8],
    ) -> Result<(ShipReply, Vec<u8>), WireError> {
        let agent = ShipAgent {
            request: request.clone(),
        };
        match self.dispatch_tail(agent.into(), tail) {
            Ok((AgentOutput::Ship(reply), reply_tail)) => Ok((reply, reply_tail)),
            Ok((other, _)) => Err(WireError::Codec {
                detail: format!("broker answered a ship request with {other:?}"),
            }),
            Err(AgentError::Store(e)) => Ok((ShipReply::Err(e), Vec::new())),
            Err(AgentError::BrokerUnavailable(node)) => Err(WireError::Unavailable {
                detail: format!("broker on {node} unavailable"),
            }),
            Err(AgentError::Transport { error, .. }) => Err(error),
        }
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
        service: BrokerService,
        wrap: impl FnOnce(Arc<dyn Transport>) -> Arc<dyn Transport>,
    ) -> BrokerHandle {
        let node = service.node();
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
        service: BrokerService,
        wrap: impl FnOnce(Arc<dyn Transport>) -> Arc<dyn Transport>,
    ) -> std::io::Result<BrokerHandle> {
        let node = service.node();
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
        Self::in_proc(BrokerService::new(state), |t| t)
    }

    /// [`Broker::spawn`] with the broker recording `broker.*` trace spans
    /// into `spans` — the single-process deployment's way of folding
    /// broker-side hops into one collector.
    pub fn spawn_observed(state: BrokerState, spans: Arc<SpanCollector>) -> BrokerHandle {
        Self::in_proc(BrokerService::new(state).with_collector(spans), |t| t)
    }

    /// [`Broker::spawn`] whose client speaks through `wrap(transport)` —
    /// the seam fault-injection tests use to put a
    /// [`cpms_wire::FaultyTransport`] between controller and broker.
    pub fn spawn_wrapped(
        state: BrokerState,
        wrap: impl FnOnce(Arc<dyn Transport>) -> Arc<dyn Transport>,
    ) -> BrokerHandle {
        Self::in_proc(BrokerService::new(state), wrap)
    }

    /// Binds a TCP broker daemon over `state` on `addr` (port 0 for
    /// ephemeral) and returns a handle connected to it over
    /// loopback/network TCP.
    ///
    /// # Errors
    ///
    /// The bind failure, if any.
    pub fn bind(addr: SocketAddr, state: BrokerState) -> std::io::Result<BrokerHandle> {
        Self::tcp(addr, BrokerService::new(state), |t| t)
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
        Self::tcp(addr, BrokerService::new(state), wrap)
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
        Self::tcp(addr, BrokerService::new(state).with_collector(spans), |t| t)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{DeleteFile, StatusProbe, StoreFile};
    use crate::store::StoredFile;
    use cpms_model::{ContentId, UrlPath};

    fn p(s: &str) -> UrlPath {
        s.parse().unwrap()
    }

    fn file(id: u32) -> StoredFile {
        StoredFile {
            content: ContentId(id),
            size: 10,
            version: 0,
        }
    }

    #[test]
    fn dispatch_roundtrip() {
        let mut h = Broker::spawn(BrokerState::new(NodeId(3), 1000));
        assert_eq!(h.node(), NodeId(3));
        assert!(h.is_alive());
        assert_eq!(h.transport_kind(), "inproc");
        h.dispatch(StoreFile {
            path: p("/x"),
            file: file(1),
            overwrite: false,
        })
        .unwrap();
        match h.dispatch(StatusProbe).unwrap() {
            AgentOutput::Status { files, .. } => assert_eq!(files, 1),
            other => panic!("{other:?}"),
        }
        let stats = h.transport_stats();
        assert_eq!(stats.calls, 2);
        assert!(stats.last_rtt_ns > 0);
        let state = h.shutdown().expect("final state");
        assert!(state.content().contains(&p("/x")));
    }

    #[test]
    fn objects_put_into_the_shared_store_after_start_are_the_brokers_too() {
        // What an origin's backing store and the anti-entropy tests do:
        // write the node's store from outside the agent protocol.
        let shared = Arc::new(cpms_store::ContentStore::in_memory(NodeId(2), 1000));
        let h = Broker::spawn(BrokerState::new(NodeId(2), 1000).with_content(Arc::clone(&shared)));
        assert_eq!(h.node(), NodeId(2));
        shared
            .put(&p("/late"), ContentId(5), 3, &[1u8; 250], false)
            .unwrap();
        match h.ship(&ShipRequest::Inventory).unwrap() {
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
        assert_eq!(
            h.dispatch(StatusProbe).unwrap(),
            AgentOutput::Status {
                files: 1,
                used_bytes: 250,
                free_bytes: 750
            }
        );
        h.dispatch(DeleteFile { path: p("/late") }).unwrap();
        assert!(!shared.contains(&p("/late")));
    }

    #[test]
    fn errors_propagate() {
        let mut h = Broker::spawn(BrokerState::new(NodeId(0), 1000));
        let err = h.dispatch(DeleteFile { path: p("/nope") }).unwrap_err();
        assert!(matches!(err, AgentError::Store(_)));
        h.shutdown();
    }

    #[test]
    fn dispatch_after_shutdown_fails() {
        let mut h = Broker::spawn(BrokerState::new(NodeId(0), 1000));
        h.shutdown();
        assert!(!h.is_alive());
        let err = h.dispatch(StatusProbe).unwrap_err();
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
                        h.dispatch(StoreFile {
                            path: p(&format!("/t{t}/f{i}")),
                            file: file(i),
                            overwrite: false,
                        })
                        .unwrap();
                    }
                });
            }
        });
        match h.dispatch(StatusProbe).unwrap() {
            AgentOutput::Status { files, .. } => assert_eq!(files, 100),
            other => panic!("{other:?}"),
        }
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
        h.dispatch(StoreFile {
            path: p("/net"),
            file: file(2),
            overwrite: false,
        })
        .unwrap();
        match h.ship(&ShipRequest::Inventory).unwrap() {
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
        remote
            .dispatch(StoreFile {
                path: p("/r"),
                file: file(3),
                overwrite: false,
            })
            .unwrap();
        assert!(remote.shutdown().is_none(), "connect owns no server");
        let state = host.shutdown().expect("host owns the daemon");
        assert!(state.content().contains(&p("/r")), "remote write landed");
    }

    #[test]
    fn garbage_payload_surfaces_codec_error_not_a_hang() {
        let h = Broker::spawn(BrokerState::new(NodeId(1), 1000));
        // Speak raw bytes past the typed dispatch layer: no agent at all,
        // a lone separator, a tail with no head, a frame's worth of zeros.
        let zeros = vec![0u8; 16 << 20];
        for payload in [&b"not an agent"[..], &[0], b"\0headless", &zeros] {
            let reply = h.client().call_raw(payload).unwrap();
            let reply: AgentReply =
                serde_json::from_str(std::str::from_utf8(&reply).unwrap()).unwrap();
            match Result::from(reply) {
                Err(AgentError::Transport {
                    node,
                    error: WireError::Codec { .. },
                }) => assert_eq!(node, NodeId(1)),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn a_broker_that_predates_tails_refuses_a_chunk_with_a_codec_error() {
        use cpms_store::{ShipError, Shipper};
        // The service as it was: the whole payload goes to the decoder.
        let (transport, _server) = InProcServer::spawn(|request: &[u8]| {
            let reply = match std::str::from_utf8(request)
                .map_err(|e| e.to_string())
                .and_then(|t| serde_json::from_str::<AgentRequest>(t).map_err(|e| e.to_string()))
            {
                Ok(agent) => agent.execute(&mut BrokerState::new(NodeId(5), 1 << 20)),
                Err(detail) => Err(AgentError::Transport {
                    node: NodeId(5),
                    error: WireError::Codec { detail },
                }),
            };
            serde_json::to_string(&AgentReply::from(reply))
                .unwrap()
                .into_bytes()
        });
        let old = BrokerHandle {
            node: NodeId(5),
            client: Broker::default_client(Arc::new(transport), NodeId(5)),
            server: None,
            remote: true,
        };
        let err = Shipper::new()
            .push(&old, &p("/new"), ContentId(1), 0, &[7u8; 5000], false)
            .unwrap_err();
        match err {
            ShipError::Wire(WireError::Codec { .. }) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(old.transport_stats().retries, 0, "refused once, for good");
    }
}
