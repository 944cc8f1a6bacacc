//! The [`Transport`] abstraction and its two production implementations.
//!
//! A transport carries one request payload to a peer and returns its
//! response payload, under a per-call deadline. The two impls are:
//!
//! - [`InProcTransport`] — a direct call into a service hosted in the
//!   same process. This preserves the original all-in-process control
//!   plane: no sockets, but the same framing-level semantics (a deadline
//!   can expire, the server can be gone).
//! - [`TcpTransport`] — real loopback or cross-host TCP, with framed
//!   payloads ([`crate::frame`]), per-call read/write deadlines mapped to
//!   socket timeouts, and connection reuse across calls (reconnect on
//!   the next call after a failure).
//!
//! Servers implement [`Service`] (an `FnMut(&[u8]) -> Vec<u8>` works) and
//! are hosted by [`InProcServer`] or [`TcpServer`]. Both run the service
//! under one lock on the thread its request arrived on (the caller's, or
//! the connection's reader) — requests from concurrent clients serialize,
//! which is exactly the behavior a per-node broker wants.

use crate::error::WireError;
use crate::frame::{read_frame_ext_or_eof, write_frame, write_frame_ext, TracedFrameOrEof};
use cpms_obs::{ScopedTrace, TraceContext};
use std::collections::HashMap;
use std::fmt;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Carries one request to a peer and returns the response payload.
pub trait Transport: Send + Sync + fmt::Debug {
    /// One request/response exchange under `deadline`. No retries — that
    /// is [`Client`](crate::Client) policy layered above.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; see the failure taxonomy.
    fn call(&self, request: &[u8], deadline: Duration) -> Result<Vec<u8>, WireError>;

    /// Short label for metrics and reports (`"inproc"`, `"tcp"`, …).
    fn kind(&self) -> &'static str;

    /// Cumulative reconnections performed (transports without
    /// connections report 0).
    fn reconnects(&self) -> u64 {
        0
    }
}

/// A request handler owned by the server that hosts it.
pub trait Service: Send + 'static {
    /// Handles one decoded request payload, returning the response
    /// payload.
    fn handle(&mut self, request: &[u8]) -> Vec<u8>;
}

impl<F: FnMut(&[u8]) -> Vec<u8> + Send + 'static> Service for F {
    fn handle(&mut self, request: &[u8]) -> Vec<u8> {
        self(request)
    }
}

/// A hosted service — a `Mutex<Option<S>>`, `None` once stopped or after a
/// handler panicked — with its type erased, for [`InProcTransport`].
trait Host: Send + Sync {
    /// Runs the handler on the calling thread, under the lock and under
    /// that thread's current trace context. `Unavailable` once the
    /// service is gone; a handler's panic is not unwound into the caller
    /// but answered `Closed`, and drops the (maybe half-updated) service.
    fn run(&self, request: &[u8]) -> Result<Vec<u8>, WireError>;
}

impl<S: Service> Host for Mutex<Option<S>> {
    fn run(&self, request: &[u8]) -> Result<Vec<u8>, WireError> {
        let mut slot = self.lock().expect("handler panics are caught, not held");
        let service = slot.as_mut().ok_or_else(|| WireError::Unavailable {
            detail: "server is gone".to_string(),
        })?;
        catch_unwind(AssertUnwindSafe(|| service.handle(request))).map_err(|_| {
            *slot = None;
            WireError::Closed
        })
    }
}

/// Whether the service is still there. A held lock is a request in
/// flight, which counts, so this never waits for one.
fn is_hosted<S>(service: &Mutex<Option<S>>) -> bool {
    match service.try_lock() {
        Ok(slot) => slot.is_some(),
        Err(e) => matches!(e, TryLockError::WouldBlock),
    }
}

// ---------------------------------------------------------------- in-proc

/// Direct-call [`Transport`] to an [`InProcServer`] in this process.
#[derive(Clone)]
pub struct InProcTransport {
    host: Arc<dyn Host>,
}

impl fmt::Debug for InProcTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InProcTransport").finish()
    }
}

impl Transport for InProcTransport {
    fn call(&self, request: &[u8], deadline: Duration) -> Result<Vec<u8>, WireError> {
        let start = Instant::now();
        let response = self.host.run(request)?;
        // A late reply is discarded, as a remote peer's would be.
        if start.elapsed() > deadline {
            return Err(WireError::Timeout {
                deadline_ms: deadline.as_millis() as u64,
            });
        }
        Ok(response)
    }

    fn kind(&self) -> &'static str {
        "inproc"
    }
}

/// Hosts a [`Service`] for [`InProcTransport`]s, which run it on their
/// callers' threads: the server has no thread of its own.
#[derive(Debug)]
pub struct InProcServer<S> {
    service: Arc<Mutex<Option<S>>>,
}

impl<S: Service> InProcServer<S> {
    /// Hosts `service`; returns its client transport and server handle.
    pub fn spawn(service: S) -> (InProcTransport, InProcServer<S>) {
        let service = Arc::new(Mutex::new(Some(service)));
        let host: Arc<dyn Host> = service.clone();
        (InProcTransport { host }, InProcServer { service })
    }
}

impl<S> InProcServer<S> {
    /// Whether the service is still being served.
    #[must_use]
    pub fn is_running(&self) -> bool {
        is_hosted(&self.service)
    }

    /// Stops serving, once any in-flight request is done, and returns
    /// the service (its final state). Idempotent; `None` after the first
    /// call or a handler panic.
    pub fn stop(&mut self) -> Option<S> {
        self.service.lock().ok()?.take()
    }
}

impl<S> Drop for InProcServer<S> {
    fn drop(&mut self) {
        self.stop();
    }
}

// ------------------------------------------------------------------- tcp

/// Framed request/response [`Transport`] over a reused [`TcpStream`].
///
/// The connection is established lazily on first call and kept across
/// calls. On any failure the connection is dropped; the next call
/// reconnects (and [`Transport::reconnects`] counts it). Every request
/// carries the caller's current trace context, from the first call on.
#[derive(Debug)]
pub struct TcpTransport {
    addr: SocketAddr,
    conn: Mutex<Option<TcpStream>>,
    connected_once: AtomicBool,
    reconnects: AtomicU64,
}

impl TcpTransport {
    /// A transport to `addr`. Does not connect yet.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        TcpTransport {
            addr,
            conn: Mutex::new(None),
            connected_once: AtomicBool::new(false),
            reconnects: AtomicU64::new(0),
        }
    }

    /// The peer address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn connect(&self, deadline: Duration) -> Result<TcpStream, WireError> {
        let stream = TcpStream::connect_timeout(&self.addr, deadline)
            .map_err(|e| WireError::from_io(deadline.as_millis() as u64, &e))?;
        stream.set_nodelay(true).ok();
        if self.connected_once.swap(true, Ordering::Relaxed) {
            self.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        Ok(stream)
    }
}

impl Transport for TcpTransport {
    fn call(&self, request: &[u8], deadline: Duration) -> Result<Vec<u8>, WireError> {
        let deadline_ms = deadline.as_millis() as u64;
        let start = Instant::now();
        let mut guard = self.conn.lock().expect("tcp transport lock");
        let mut stream = match guard.take() {
            Some(s) => s,
            None => self.connect(deadline)?,
        };
        let remaining = deadline.saturating_sub(start.elapsed());
        if remaining.is_zero() {
            return Err(WireError::Timeout { deadline_ms });
        }
        stream
            .set_write_timeout(Some(remaining))
            .and_then(|()| stream.set_read_timeout(Some(remaining)))
            .map_err(|e| WireError::from_io(deadline_ms, &e))?;
        let result = write_frame_ext(&mut stream, request, TraceContext::current().as_ref())
            .and_then(|()| read_frame_ext_or_eof(&mut stream));
        match result {
            Ok(TracedFrameOrEof::Frame(frame)) => {
                *guard = Some(stream); // reuse the connection
                Ok(frame.payload)
            }
            Ok(TracedFrameOrEof::Eof) => {
                drop(stream);
                Err(WireError::Closed)
            }
            Err(e) => {
                // Drop the (possibly desynchronized) connection; the next
                // call reconnects.
                drop(stream);
                Err(match e {
                    WireError::Timeout { .. } => WireError::Timeout { deadline_ms },
                    other => other,
                })
            }
        }
    }

    fn kind(&self) -> &'static str {
        "tcp"
    }

    fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }
}

/// Hosts a [`Service`] behind a TCP listener: an acceptor thread and one
/// reader thread per connection, all blocked in the kernel while idle.
/// Each reader runs the service itself, under the service's lock
/// (concurrent clients serialize, preserving per-node ordering).
#[derive(Debug)]
pub struct TcpServer<S> {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    service: Arc<Mutex<Option<S>>>,
    // Clones of the live connections' streams, for `stop()` to shut
    // down: entered by the acceptor, removed by each reader as it ends.
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    acceptor: Option<JoinHandle<()>>,
}

impl<S: Service> TcpServer<S> {
    /// Binds `addr` (port 0 for an ephemeral port) and starts serving.
    ///
    /// # Errors
    ///
    /// The bind failure, if any.
    pub fn bind(addr: SocketAddr, service: S) -> std::io::Result<TcpServer<S>> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let service = Arc::new(Mutex::new(Some(service)));
        let conns = Arc::new(Mutex::new(HashMap::new()));
        let acceptor = {
            let (stop, service, conns) = (stop.clone(), service.clone(), conns.clone());
            std::thread::Builder::new()
                .name(format!("wire-accept-{addr}"))
                .spawn(move || {
                    for (id, conn) in (0u64..).zip(listener.incoming()) {
                        // Pairs with the Release store in `stop()`.
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok((conn, clone)) = conn.and_then(|c| Ok((c.try_clone()?, c))) else {
                            continue;
                        };
                        conns.lock().expect("conns lock").insert(id, clone);
                        let (service, conns) = (service.clone(), conns.clone());
                        let _ = std::thread::Builder::new()
                            .name("wire-conn".to_string())
                            .spawn(move || {
                                let _ = serve_connection(conn, &*service);
                                conns.lock().expect("conns lock").remove(&id);
                            });
                    }
                })?
        };
        Ok(TcpServer {
            addr,
            stop,
            service,
            conns,
            acceptor: Some(acceptor),
        })
    }
}

impl<S> TcpServer<S> {
    /// The bound address (with the real port when bound to port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the service is still being served.
    #[must_use]
    pub fn is_running(&self) -> bool {
        is_hosted(&self.service)
    }

    /// Stops accepting and serving, once any in-flight request is done,
    /// and returns the service's final state. Idempotent; `None` after
    /// the first call or a handler panic.
    pub fn stop(&mut self) -> Option<S> {
        if let Some(acceptor) = self.acceptor.take() {
            self.stop.store(true, Ordering::Release);
            // Unblock accept() with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = acceptor.join();
        }
        // No acceptor, so no connection is missing from the registry:
        // unblock every reader, wherever in a frame its peer left it.
        for conn in self.conns.lock().ok()?.values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        self.service.lock().ok()?.take()
    }
}

impl<S> Drop for TcpServer<S> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One connection's read-execute-write loop, until the client
/// disconnects, the service is gone, `stop()` shuts the socket down, or a
/// frame error desynchronizes the stream (the client maps the dropped
/// connection to `Closed` and may retry on a fresh one).
fn serve_connection(mut conn: TcpStream, service: &dyn Host) -> Result<(), WireError> {
    conn.set_nodelay(true).ok();
    while let TracedFrameOrEof::Frame(frame) = read_frame_ext_or_eof(&mut conn)? {
        // The frame's trace context, or explicitly none: nothing leaks
        // between unrelated requests.
        let _scope = match frame.trace {
            Some(ctx) => ScopedTrace::activate(ctx),
            None => ScopedTrace::clear(),
        };
        let response = service.run(&frame.payload)?;
        write_frame(&mut conn, &response)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_upper() -> impl Service {
        |req: &[u8]| req.to_ascii_uppercase()
    }

    #[test]
    fn inproc_round_trip_and_shutdown() {
        let (t, mut server) = InProcServer::spawn(echo_upper());
        assert!(server.is_running());
        let resp = t.call(b"abc", Duration::from_secs(1)).unwrap();
        assert_eq!(resp, b"ABC");
        server.stop().expect("service returned");
        assert!(!server.is_running());
        let err = t.call(b"x", Duration::from_millis(50)).unwrap_err();
        assert!(
            matches!(err, WireError::Unavailable { .. } | WireError::Closed),
            "{err:?}"
        );
    }

    #[test]
    fn inproc_deadline_expires() {
        let (t, mut server) = InProcServer::spawn(|req: &[u8]| {
            std::thread::sleep(Duration::from_millis(100));
            req.to_vec()
        });
        let err = t.call(b"slow", Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, WireError::Timeout { deadline_ms: 10 }));
        server.stop();
    }

    #[test]
    fn tcp_round_trip_reuses_connection() {
        let mut server = TcpServer::bind("127.0.0.1:0".parse().unwrap(), echo_upper()).unwrap();
        let t = TcpTransport::new(server.addr());
        for i in 0..10 {
            let req = format!("msg{i}");
            let resp = t.call(req.as_bytes(), Duration::from_secs(2)).unwrap();
            assert_eq!(resp, req.to_ascii_uppercase().into_bytes());
        }
        assert_eq!(t.reconnects(), 0, "one connection served all calls");
        server.stop().expect("service state returned");
    }

    #[test]
    fn tcp_concurrent_clients_serialize_on_one_service() {
        let counter = std::sync::Arc::new(AtomicU64::new(0));
        let c = std::sync::Arc::clone(&counter);
        let mut server = TcpServer::bind("127.0.0.1:0".parse().unwrap(), move |_req: &[u8]| {
            let n = c.fetch_add(1, Ordering::SeqCst);
            n.to_be_bytes().to_vec()
        })
        .unwrap();
        let addr = server.addr();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(move || {
                    let t = TcpTransport::new(addr);
                    for _ in 0..10 {
                        t.call(b"inc", Duration::from_secs(2)).unwrap();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 40);
        server.stop();
    }

    #[test]
    fn tcp_unavailable_and_reconnect_counting() {
        let mut server = TcpServer::bind("127.0.0.1:0".parse().unwrap(), echo_upper()).unwrap();
        let addr = server.addr();
        let t = TcpTransport::new(addr);
        t.call(b"a", Duration::from_secs(1)).unwrap();
        server.stop();
        // Server gone: the reused connection fails, then reconnects fail.
        let mut saw_failure = false;
        for _ in 0..3 {
            if t.call(b"b", Duration::from_millis(200)).is_err() {
                saw_failure = true;
                break;
            }
        }
        assert!(saw_failure, "calls to a stopped server eventually fail");
    }

    #[test]
    fn inproc_propagates_trace_context_to_the_handler() {
        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&seen);
        let (t, mut server) = InProcServer::spawn(move |_req: &[u8]| {
            sink.lock().unwrap().push(TraceContext::current());
            Vec::new()
        });
        let ctx = TraceContext::root(true);
        {
            let _scope = ScopedTrace::activate(ctx);
            t.call(b"traced", Duration::from_secs(1)).unwrap();
        }
        t.call(b"untraced", Duration::from_secs(1)).unwrap();
        server.stop();
        let seen = seen.lock().unwrap();
        assert_eq!(seen[0], Some(ctx), "the caller's context is the handler's");
        assert_eq!(seen[1], None, "no context leaks between requests");
    }

    #[test]
    fn tcp_propagates_context_from_the_first_call() {
        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&seen);
        let mut server = TcpServer::bind("127.0.0.1:0".parse().unwrap(), move |_req: &[u8]| {
            sink.lock().unwrap().push(TraceContext::current());
            Vec::new()
        })
        .unwrap();
        let t = TcpTransport::new(server.addr());
        let ctx = TraceContext::root(true);
        {
            let _scope = ScopedTrace::activate(ctx);
            t.call(b"first", Duration::from_secs(2)).unwrap();
        }
        t.call(b"untraced", Duration::from_secs(2)).unwrap();
        server.stop();
        let seen = seen.lock().unwrap();
        assert_eq!(
            *seen,
            [Some(ctx), None],
            "the first frame carries the caller's context; none leaks"
        );
    }

    #[test]
    fn tcp_deadline_against_stalled_server() {
        let mut server = TcpServer::bind("127.0.0.1:0".parse().unwrap(), |req: &[u8]| {
            std::thread::sleep(Duration::from_millis(200));
            req.to_vec()
        })
        .unwrap();
        let t = TcpTransport::new(server.addr());
        let start = Instant::now();
        let err = t.call(b"slow", Duration::from_millis(30)).unwrap_err();
        assert!(matches!(err, WireError::Timeout { .. }), "{err:?}");
        assert!(start.elapsed() < Duration::from_millis(150));
        server.stop();
    }

    /// Records the requests it handled, so a test can read them back
    /// from the final state `stop()` returns. `slow` takes 100 ms,
    /// `panic` panics; `entered` hears every request as it starts.
    struct Recorder {
        handled: Vec<Vec<u8>>,
        entered: std::sync::mpsc::Sender<()>,
    }

    impl Service for Recorder {
        fn handle(&mut self, request: &[u8]) -> Vec<u8> {
            let _ = self.entered.send(());
            match request {
                b"slow" => std::thread::sleep(Duration::from_millis(100)),
                b"panic" => panic!("handler panic under test"),
                _ => {}
            }
            self.handled.push(request.to_vec());
            request.to_ascii_uppercase()
        }
    }

    fn recorder() -> (Recorder, std::sync::mpsc::Receiver<()>) {
        let (entered, rx) = std::sync::mpsc::channel();
        let handled = Vec::new();
        (Recorder { handled, entered }, rx)
    }

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    #[test]
    fn tcp_stalled_partial_header_delays_neither_other_peers_nor_stop() {
        use std::io::Write as _;
        let (service, _entered) = recorder();
        let mut server = TcpServer::bind(loopback(), service).unwrap();
        let mut frame = Vec::new();
        write_frame(&mut frame, b"late").unwrap();
        let mut staller = TcpStream::connect(server.addr()).unwrap();
        staller
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();

        // 5 of the header's 12 bytes, then a stall.
        staller.write_all(&frame[..5]).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let other = TcpTransport::new(server.addr());
        let start = Instant::now();
        assert_eq!(other.call(b"abc", Duration::from_secs(2)).unwrap(), b"ABC");
        assert!(start.elapsed() < Duration::from_millis(200));
        // The slow peer loses nothing for being slow.
        staller.write_all(&frame[5..]).unwrap();
        match read_frame_ext_or_eof(&mut staller).unwrap() {
            TracedFrameOrEof::Frame(reply) => assert_eq!(reply.payload, b"LATE"),
            TracedFrameOrEof::Eof => panic!("the stalled frame was dropped"),
        }

        // Stalled mid-header again, this time across `stop()`.
        staller.write_all(&frame[..5]).unwrap();
        let start = Instant::now();
        let service = server.stop().expect("service returned");
        assert!(start.elapsed() < Duration::from_millis(200));
        assert_eq!(service.handled, [b"abc".to_vec(), b"late".to_vec()]);
        assert!(
            matches!(
                read_frame_ext_or_eof(&mut staller),
                Ok(TracedFrameOrEof::Eof) | Err(WireError::Closed | WireError::Io { .. })
            ),
            "stop() shut the stalled connection down"
        );
    }

    #[test]
    fn tcp_connection_churn_leaves_the_registry_empty() {
        let mut server = TcpServer::bind(loopback(), echo_upper()).unwrap();
        for _ in 0..200 {
            let t = TcpTransport::new(server.addr());
            assert_eq!(t.call(b"x", Duration::from_secs(2)).unwrap(), b"X");
        }
        // Each reader leaves on its own thread once it reads the EOF.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !server.conns.lock().unwrap().is_empty() {
            assert!(Instant::now() < deadline, "connections never left");
            std::thread::yield_now();
        }
        server.stop().expect("service returned");
    }

    #[test]
    fn stop_during_a_request_returns_state_that_includes_it() {
        let (service, entered) = recorder();
        let (t, mut inproc) = InProcServer::spawn(service);
        std::thread::scope(|scope| {
            let caller = scope.spawn(|| t.call(b"slow", Duration::from_secs(2)));
            entered.recv().unwrap();
            let service = inproc.stop().expect("service returned");
            assert_eq!(service.handled, [b"slow".to_vec()]);
            assert_eq!(caller.join().unwrap().unwrap(), b"SLOW");
        });

        let (service, entered) = recorder();
        let mut tcp = TcpServer::bind(loopback(), service).unwrap();
        let t = TcpTransport::new(tcp.addr());
        std::thread::scope(|scope| {
            scope.spawn(|| t.call(b"slow", Duration::from_secs(2)));
            entered.recv().unwrap();
            let service = tcp.stop().expect("service returned");
            assert_eq!(service.handled, [b"slow".to_vec()]);
        });
    }

    #[test]
    fn a_panicking_handler_closes_the_call_and_ends_the_server() {
        let (service, _entered) = recorder();
        let (t, mut inproc) = InProcServer::spawn(service);
        let err = t.call(b"panic", Duration::from_secs(2)).unwrap_err();
        assert!(matches!(err, WireError::Closed), "{err:?}");
        assert!(!inproc.is_running());
        let err = t.call(b"after", Duration::from_secs(2)).unwrap_err();
        assert!(matches!(err, WireError::Unavailable { .. }), "{err:?}");
        assert!(
            inproc.stop().is_none(),
            "a panicked service is not handed back"
        );

        let (service, _entered) = recorder();
        let mut tcp = TcpServer::bind(loopback(), service).unwrap();
        let t = TcpTransport::new(tcp.addr());
        for request in [&b"panic"[..], b"after"] {
            let err = t.call(request, Duration::from_secs(2)).unwrap_err();
            assert!(
                matches!(err, WireError::Closed | WireError::Unavailable { .. }),
                "{err:?}"
            );
        }
        assert!(!tcp.is_running());
        assert!(
            tcp.stop().is_none(),
            "a panicked service is not handed back"
        );
    }
}
