//! The proxy's event-driven data plane: one worker thread, many
//! connections.
//!
//! Each worker owns a reactor poller, a timer wheel, a slab of connection
//! state machines, a private [`LiveRouter`] (pinned snapshot + lookup
//! cache), a shard of the pre-forked backend pool, and reusable scratch
//! buffers. Connections are handed over from the acceptor thread through a
//! bounded queue; from then on every byte of the connection's life is
//! served by this worker without blocking:
//!
//! - **Request heads** accumulate in a per-connection read buffer and are
//!   scanned incrementally ([`crate::http::head_complete`]); a timer-wheel
//!   deadline bounds how long a client may trickle a head (slowloris
//!   defence), replacing the old blocking `SO_RCVTIMEO` dance.
//! - **Relays** are non-blocking state machines over a pooled backend
//!   connection: enqueue the request head, parse the response head
//!   incrementally, then stream the body through a reusable scratch buffer
//!   into the client's write ring.
//! - **Client writes** drain the ring with vectored I/O; a high-water mark
//!   on the ring pauses backend reads (backpressure) until the client
//!   catches up, so one slow client cannot balloon the proxy's memory.
//! - **Keep-alive** clients multiplex any number of requests over their
//!   connection, each bound to a pool connection only for the exchange —
//!   pipelined requests parse straight out of the read buffer without
//!   another poller round-trip.
//!
//! Tokens pack the slab key with a side bit (client vs backend fd), and
//! slab keys carry generations, so a stale readiness event for a recycled
//! slot misses harmlessly instead of touching the wrong connection.

use crate::http::{
    head_complete, parse_request_head, parse_response_head, request_head, response_head,
    ParseError, Request,
};
use crate::pool::SocketPool;
use crate::proxy::{
    HandoffQueue, ProxyStats, TenantSlot, METRICS_JSON_PATH, METRICS_PATH, SERIES_JSON_PATH,
    TRACE_JSON_PATH,
};
use cpms_dispatch::LiveRouter;
use cpms_model::UrlPath;
use cpms_obs::{
    Counter, Gauge, HistogramRecorder, MetricsRegistry, OwnedSpan, RequestId, SpanCollector,
};
use cpms_reactor::{
    new_poller, Event, Interest, Poller, Slab, SlabKey, TimerId, TimerWheel, Token, WakeReceiver,
};
use cpms_urltable::SnapshotHandle;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a client may take to deliver a request head once its first
/// byte has arrived. Generous enough for slow clients that trickle the
/// request line and headers in separate packets; bounded so a stalled
/// (or malicious slowloris) client holds nothing but one slab slot.
pub(crate) const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(2);

/// How long one backend exchange (request write + response head + body
/// stream) may take before the proxy gives up on the relay.
const RELAY_TIMEOUT: Duration = Duration::from_secs(10);

/// Requests slower end-to-end than this leave a post-mortem event even
/// when they succeed.
const SLOW_REQUEST: Duration = Duration::from_millis(250);

/// Upper bound on a request or response head.
const HEAD_CAP: usize = 16 * 1024;

/// Reusable per-worker read buffer size (also the relay's streaming
/// chunk size).
const SCRATCH: usize = 16 * 1024;

/// Client write-ring high-water mark: above this, backend reads pause.
const WBUF_HIGH: usize = 64 * 1024;

/// Client write-ring low-water mark: below this, paused backends resume.
const WBUF_LOW: usize = 16 * 1024;

/// Cap on the poller wait so a worker re-checks the stop flag even if no
/// event or timer arrives (wakers make shutdown prompt; this is a belt).
const POLL_CAP: Duration = Duration::from_millis(500);

/// Timer-wheel granularity. Deadlines here are seconds-scale, so a
/// coarse tick keeps the wheel sweep trivial.
const TIMER_TICK: Duration = Duration::from_millis(25);
const TIMER_SLOTS: usize = 256;

/// Poller token for the worker's waker pipe.
const WAKER_TOKEN: u64 = u64::MAX;

fn client_token(key: SlabKey) -> Token {
    Token(key << 1)
}

fn backend_token(key: SlabKey) -> Token {
    Token((key << 1) | 1)
}

/// Everything a worker thread needs, moved into it at spawn.
pub(crate) struct WorkerBoot {
    pub idx: usize,
    pub workers: usize,
    pub handle: SnapshotHandle,
    pub pools: Arc<Vec<SocketPool>>,
    pub in_flight: Arc<Vec<AtomicU32>>,
    pub stats: Arc<ProxyStats>,
    pub ledgers: Arc<Vec<Mutex<HashMap<UrlPath, u64>>>>,
    pub registry: Arc<MetricsRegistry>,
    pub stop: Arc<AtomicBool>,
    pub queue: Arc<HandoffQueue>,
    pub wake_rx: WakeReceiver,
    pub active: Arc<AtomicI64>,
    pub tenants: Arc<Vec<TenantSlot>>,
}

/// Per-worker metric handles: histogram recorders bound to this worker's
/// shard (recording is a few relaxed atomics, no lock) plus the shared
/// counters. Resolved once at worker start, off the request path.
struct WorkerMetrics {
    parse_ns: HistogramRecorder,
    relay_ns: HistogramRecorder,
    request_ns: HistogramRecorder,
    conn_lifetime_ns: HistogramRecorder,
    connections: Arc<Counter>,
    requests: Arc<Counter>,
    relayed: Arc<Counter>,
    unroutable: Arc<Counter>,
    backend_errors: Arc<Counter>,
    pool_failures: Arc<Counter>,
    malformed: Arc<Counter>,
    conn_active: Arc<Gauge>,
    conn_closed: Arc<Counter>,
    conn_tenant_rejected: Arc<Counter>,
    reactor_polls: Arc<Counter>,
    reactor_events: Arc<Counter>,
    reactor_wakeups: Arc<Counter>,
    reactor_timers_fired: Arc<Counter>,
    /// The registry's span collector, resolved once so opening a span
    /// on the request path costs no registry lookup.
    spans: Arc<SpanCollector>,
}

impl WorkerMetrics {
    fn new(registry: &MetricsRegistry, idx: usize, workers: usize) -> Self {
        let recorder = |name| registry.histogram_with_shards(name, workers).recorder(idx);
        WorkerMetrics {
            spans: Arc::clone(registry.spans()),
            parse_ns: recorder("proxy_parse_ns"),
            relay_ns: recorder("proxy_relay_ns"),
            request_ns: recorder("proxy_request_ns"),
            conn_lifetime_ns: recorder("proxy_conn_lifetime_ns"),
            connections: registry.counter("proxy_connections_total"),
            requests: registry.counter("proxy_requests_total"),
            relayed: registry.counter("proxy_relayed_total"),
            unroutable: registry.counter("proxy_unroutable_total"),
            backend_errors: registry.counter("proxy_backend_errors_total"),
            pool_failures: registry.counter("proxy_pool_failures_total"),
            malformed: registry.counter("proxy_malformed_total"),
            conn_active: registry.gauge("proxy_conn_active"),
            conn_closed: registry.counter("proxy_conn_closed_total"),
            conn_tenant_rejected: registry.counter("proxy_conn_tenant_rejected_total"),
            reactor_polls: registry.counter("reactor_polls_total"),
            reactor_events: registry.counter("reactor_events_total"),
            reactor_wakeups: registry.counter("reactor_wakeups_total"),
            reactor_timers_fired: registry.counter("reactor_timers_fired_total"),
        }
    }
}

/// Which deadline a connection's (single) pending timer represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerPurpose {
    /// The request head must complete before this fires.
    HeadDeadline,
    /// The backend exchange must complete before this fires.
    RelayDeadline,
}

/// What the event handler wants done with the connection afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Keep,
    Close,
}

/// Phase of one backend exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RelayPhase {
    /// Writing the request head to the backend.
    Send,
    /// Accumulating the response head.
    Head,
    /// Streaming `remaining` body bytes through to the client.
    Body,
}

/// One in-flight backend exchange, owned by the client connection it
/// serves.
struct Relay {
    stream: TcpStream,
    node: usize,
    /// Request-head bytes not yet written to the backend.
    out: VecDeque<u8>,
    /// Response-head accumulation.
    inbuf: Vec<u8>,
    phase: RelayPhase,
    /// Body bytes still to stream once the head is parsed.
    remaining: usize,
    started: Instant,
    /// Interest currently registered for the backend fd.
    interest: Interest,
    /// Backend reads paused by the client write-ring high-water mark.
    paused: bool,
    /// True once the client response head has been enqueued — after
    /// that, a backend failure can only truncate, not turn into a 502.
    head_sent: bool,
    span: Option<OwnedSpan>,
}

/// One client connection's full state.
struct Conn {
    key: SlabKey,
    stream: TcpStream,
    /// Bytes read from the client, scanned for request heads.
    rbuf: Vec<u8>,
    /// Bytes to write to the client (head + body of queued responses).
    wbuf: VecDeque<u8>,
    /// Interest currently registered for the client fd.
    interest: Interest,
    /// Close once `wbuf` drains.
    close_after_flush: bool,
    /// The client's write side reached EOF.
    client_eof: bool,
    timer: Option<(TimerId, TimerPurpose)>,
    /// Set while a request head is being accumulated or served.
    request_started: Option<Instant>,
    request_id: Option<RequestId>,
    /// The current request's keep-alive disposition.
    keep_alive: bool,
    /// The current request's path (for slow-request post-mortems).
    path: Option<UrlPath>,
    span: Option<OwnedSpan>,
    /// Index into the tenant table this connection counted into.
    tenant: Option<usize>,
    opened: Instant,
    relay: Option<Relay>,
}

impl Conn {
    fn new(stream: TcpStream, opened: Instant) -> Conn {
        Conn {
            key: 0,
            stream,
            rbuf: Vec::new(),
            wbuf: VecDeque::new(),
            interest: Interest::READ,
            close_after_flush: false,
            client_eof: false,
            timer: None,
            request_started: None,
            request_id: None,
            keep_alive: true,
            path: None,
            span: None,
            tenant: None,
            opened,
            relay: None,
        }
    }

    /// The client interest this connection's state calls for.
    fn desired_interest(&self) -> Interest {
        // Read while waiting for (more of) a request. While a relay is in
        // flight or the connection is draining to close, reads stop — with
        // level-triggered polling an unread pipelined request would spin
        // the loop. The poller re-fires readiness when interest returns.
        let read = self.relay.is_none()
            && !self.close_after_flush
            && !self.client_eof
            && self.rbuf.len() < HEAD_CAP;
        Interest {
            read,
            write: !self.wbuf.is_empty(),
        }
    }
}

/// The worker's non-connection state: poller, timers, router, metrics,
/// and every shared handle. Kept apart from the connection slab so event
/// handlers can hold `&mut Conn` and `&mut Cx` simultaneously.
struct Cx {
    idx: usize,
    handle: SnapshotHandle,
    pools: Arc<Vec<SocketPool>>,
    in_flight: Arc<Vec<AtomicU32>>,
    stats: Arc<ProxyStats>,
    ledgers: Arc<Vec<Mutex<HashMap<UrlPath, u64>>>>,
    registry: Arc<MetricsRegistry>,
    active: Arc<AtomicI64>,
    tenants: Arc<Vec<TenantSlot>>,
    router: LiveRouter,
    m: WorkerMetrics,
    poller: Box<dyn Poller>,
    timers: TimerWheel,
    timer_conns: HashMap<TimerId, SlabKey>,
    scratch: Vec<u8>,
}

/// The worker thread body.
pub(crate) fn worker_loop(boot: WorkerBoot) {
    let mut router = LiveRouter::new(&boot.handle, 1024);
    router.attach_metrics(&boot.registry, boot.idx);
    let m = WorkerMetrics::new(&boot.registry, boot.idx, boot.workers);
    let Ok(mut poller) = new_poller() else {
        return;
    };
    if poller
        .register(boot.wake_rx.fd(), Token(WAKER_TOKEN), Interest::READ)
        .is_err()
    {
        return;
    }
    let mut cx = Cx {
        idx: boot.idx,
        handle: boot.handle,
        pools: boot.pools,
        in_flight: boot.in_flight,
        stats: boot.stats,
        ledgers: boot.ledgers,
        registry: boot.registry,
        active: boot.active,
        tenants: boot.tenants,
        router,
        m,
        poller,
        timers: TimerWheel::new(TIMER_TICK, TIMER_SLOTS),
        timer_conns: HashMap::new(),
        scratch: vec![0u8; SCRATCH],
    };
    let mut conns: Slab<Conn> = Slab::new();
    let mut events: Vec<Event> = Vec::with_capacity(256);
    let mut fired: Vec<TimerId> = Vec::new();

    loop {
        let timeout = cx
            .timers
            .next_timeout(Instant::now())
            .map_or(POLL_CAP, |t| t.min(POLL_CAP));
        if cx.poller.wait(&mut events, Some(timeout)).is_err() {
            // A broken poller means the worker cannot continue; tear down.
            break;
        }
        cx.m.reactor_polls.inc();
        if boot.stop.load(Ordering::Acquire) {
            break;
        }
        cx.m.reactor_events.add(events.len() as u64);
        for &ev in &events {
            if ev.token.0 == WAKER_TOKEN {
                boot.wake_rx.drain();
                cx.m.reactor_wakeups.inc();
                continue;
            }
            dispatch(&mut cx, &mut conns, ev);
        }
        drain_handoff(&mut cx, &mut conns, &boot.queue);
        fired.clear();
        cx.timers.expire_into(Instant::now(), &mut fired);
        for &id in &fired {
            fire_timer(&mut cx, &mut conns, id);
        }
    }

    // Teardown: close every connection (and any not yet adopted) so the
    // global active count drops to zero.
    for key in conns.keys() {
        if let Some(conn) = conns.remove(key) {
            teardown(&mut cx, conn);
        }
    }
    while let Some(stream) = boot.queue.pop() {
        drop(stream);
        cx.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Adopts connections the acceptor queued for this worker.
fn drain_handoff(cx: &mut Cx, conns: &mut Slab<Conn>, queue: &HandoffQueue) {
    while let Some(stream) = queue.pop() {
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            cx.active.fetch_sub(1, Ordering::Relaxed);
            continue;
        }
        cx.stats
            .worker(cx.idx)
            .connections
            .fetch_add(1, Ordering::Relaxed);
        cx.m.connections.inc();
        cx.m.conn_active.add(1);
        let fd = stream.as_raw_fd();
        let key = conns.insert(Conn::new(stream, Instant::now()));
        if let Some(conn) = conns.get_mut(key) {
            conn.key = key;
        }
        if cx
            .poller
            .register(fd, client_token(key), Interest::READ)
            .is_err()
        {
            if let Some(conn) = conns.remove(key) {
                teardown(cx, conn);
            }
        }
    }
}

/// Routes one readiness event to the right connection and side.
fn dispatch(cx: &mut Cx, conns: &mut Slab<Conn>, ev: Event) {
    let key = ev.token.0 >> 1;
    let backend_side = ev.token.0 & 1 == 1;
    let Some(conn) = conns.get_mut(key) else {
        return; // stale token for a recycled slot
    };
    let verdict = if backend_side {
        on_backend_event(cx, conn, ev)
    } else {
        on_client_event(cx, conn, ev)
    };
    if verdict == Verdict::Close {
        if let Some(conn) = conns.remove(key) {
            teardown(cx, conn);
        }
    }
}

/// Handles a fired deadline.
fn fire_timer(cx: &mut Cx, conns: &mut Slab<Conn>, id: TimerId) {
    let Some(key) = cx.timer_conns.remove(&id) else {
        return;
    };
    let Some(conn) = conns.get_mut(key) else {
        return;
    };
    let Some((pending, purpose)) = conn.timer else {
        return;
    };
    if pending != id {
        return; // stale: the deadline was replaced
    }
    conn.timer = None;
    cx.m.reactor_timers_fired.inc();
    let verdict = match purpose {
        TimerPurpose::HeadDeadline => {
            // Client stalled mid-request-head: parse state is
            // unrecoverable, drop the connection (same contract as the
            // old blocking read timeout).
            cx.registry.events().record(
                "parse",
                conn.request_id,
                "client stalled mid-request-head".to_string(),
            );
            if let Some(span) = conn.span.as_mut() {
                span.set_error(true);
            }
            Verdict::Close
        }
        TimerPurpose::RelayDeadline => fail_relay(cx, conn, "backend relay timed out"),
    };
    if verdict == Verdict::Close {
        if let Some(conn) = conns.remove(key) {
            teardown(cx, conn);
        }
    }
}

/// Full close: cancel timers, unwind relay accounting, release fds, and
/// record connection-level metrics.
fn teardown(cx: &mut Cx, mut conn: Conn) {
    if let Some((id, _)) = conn.timer.take() {
        cx.timers.cancel(id);
        cx.timer_conns.remove(&id);
    }
    if let Some(mut relay) = conn.relay.take() {
        cx.in_flight[relay.node].fetch_sub(1, Ordering::Relaxed);
        if let Some(mut span) = relay.span.take() {
            span.set_error(true);
        }
        let _ = cx.poller.deregister(relay.stream.as_raw_fd());
        cx.pools[cx.idx].discard(relay.node, relay.stream);
        if let Some(span) = conn.span.as_mut() {
            span.set_error(true);
        }
    }
    if let Some(tenant) = conn.tenant.take() {
        cx.tenants[tenant].active.fetch_sub(1, Ordering::Relaxed);
    }
    let _ = cx.poller.deregister(conn.stream.as_raw_fd());
    cx.active.fetch_sub(1, Ordering::Relaxed);
    cx.m.conn_active.sub(1);
    cx.m.conn_closed.inc();
    cx.m.conn_lifetime_ns
        .record(u64::try_from(conn.opened.elapsed().as_nanos()).unwrap_or(u64::MAX));
}

/// (Re)arms the connection's single deadline timer.
fn set_conn_timer(cx: &mut Cx, conn: &mut Conn, purpose: TimerPurpose, after: Duration) {
    if let Some((old, _)) = conn.timer.take() {
        cx.timers.cancel(old);
        cx.timer_conns.remove(&old);
    }
    let id = cx.timers.schedule_after(Instant::now(), after);
    cx.timer_conns.insert(id, conn.key);
    conn.timer = Some((id, purpose));
}

fn clear_conn_timer(cx: &mut Cx, conn: &mut Conn) {
    if let Some((id, _)) = conn.timer.take() {
        cx.timers.cancel(id);
        cx.timer_conns.remove(&id);
    }
}

/// Re-registers the client fd if the connection's state changed what it
/// wants to hear about.
fn sync_client_interest(cx: &mut Cx, conn: &mut Conn) {
    let want = conn.desired_interest();
    if want != conn.interest {
        conn.interest = want;
        let _ = cx
            .poller
            .reregister(conn.stream.as_raw_fd(), client_token(conn.key), want);
    }
}

/// One readiness event on the client fd.
fn on_client_event(cx: &mut Cx, conn: &mut Conn, ev: Event) -> Verdict {
    if !conn.interest.read && !conn.interest.write {
        // A zero-interest registration (client parked while its relay
        // runs) can only be woken by an error or a full hangup — either
        // way the client is gone, and with level-triggered polling the
        // condition would re-fire every wait.
        return Verdict::Close;
    }
    if ev.writable && !conn.wbuf.is_empty() && flush_client(cx, conn) == Verdict::Close {
        return Verdict::Close;
    }
    if ev.readable && read_client(cx, conn) == Verdict::Close {
        return Verdict::Close;
    }
    settle(cx, conn)
}

/// Post-event epilogue: serve whatever is buffered, close once a
/// closing connection has drained, and re-sync poller interest.
fn settle(cx: &mut Cx, conn: &mut Conn) -> Verdict {
    if advance_requests(cx, conn) == Verdict::Close {
        return Verdict::Close;
    }
    if conn.close_after_flush && conn.wbuf.is_empty() {
        return Verdict::Close;
    }
    sync_client_interest(cx, conn);
    Verdict::Keep
}

/// Drains readable client bytes into `rbuf` (bounded), noting EOF.
fn read_client(cx: &mut Cx, conn: &mut Conn) -> Verdict {
    loop {
        if conn.rbuf.len() >= HEAD_CAP {
            // A head this large is handled (as malformed) by the parser;
            // during a relay it simply means the pipeline buffer is full
            // and the client can wait in the kernel's socket buffer.
            return Verdict::Keep;
        }
        match io::Read::read(&mut &conn.stream, &mut cx.scratch) {
            Ok(0) => {
                conn.client_eof = true;
                return Verdict::Keep;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&cx.scratch[..n]);
                if n < cx.scratch.len() {
                    return Verdict::Keep;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Verdict::Keep,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Verdict::Close,
        }
    }
}

/// Writes as much of the client ring as the socket accepts, with
/// vectored I/O across the ring's two segments; resumes a paused backend
/// once the ring drains below the low-water mark.
fn flush_client(cx: &mut Cx, conn: &mut Conn) -> Verdict {
    while !conn.wbuf.is_empty() {
        let (a, b) = conn.wbuf.as_slices();
        let bufs = [IoSlice::new(a), IoSlice::new(b)];
        let nbufs = if b.is_empty() { 1 } else { 2 };
        match (&conn.stream).write_vectored(&bufs[..nbufs]) {
            Ok(0) => return Verdict::Close,
            Ok(n) => {
                conn.wbuf.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Verdict::Close,
        }
    }
    if conn.wbuf.len() < WBUF_LOW {
        if let Some(relay) = conn.relay.as_mut() {
            if relay.paused {
                relay.paused = false;
                let want = Interest::READ;
                if relay.interest != want {
                    relay.interest = want;
                    let _ = cx.poller.reregister(
                        relay.stream.as_raw_fd(),
                        backend_token(conn.key),
                        want,
                    );
                }
            }
        }
    }
    Verdict::Keep
}

/// Appends a response to the client ring and flushes opportunistically.
fn enqueue_response(
    cx: &mut Cx,
    conn: &mut Conn,
    status: u16,
    body: &[u8],
    keep_alive: bool,
) -> Verdict {
    let head = response_head(status, body.len(), keep_alive);
    conn.wbuf.reserve(head.len() + body.len());
    conn.wbuf.extend(head.as_bytes());
    conn.wbuf.extend(body);
    if !keep_alive {
        conn.close_after_flush = true;
    }
    flush_client(cx, conn)
}

/// Serves every complete request already buffered (keep-alive clients
/// may pipeline several). Stops when a relay starts, the buffer runs
/// dry, or the connection is closing.
fn advance_requests(cx: &mut Cx, conn: &mut Conn) -> Verdict {
    loop {
        if conn.relay.is_some() || conn.close_after_flush {
            return Verdict::Keep;
        }
        if conn.rbuf.is_empty() && conn.request_started.is_none() {
            if conn.client_eof {
                // Clean EOF between requests.
                return if conn.wbuf.is_empty() {
                    Verdict::Close
                } else {
                    conn.close_after_flush = true;
                    Verdict::Keep
                };
            }
            return Verdict::Keep;
        }
        if conn.request_started.is_none() {
            // First byte of a fresh request: its clock, id, and head
            // deadline start here.
            conn.request_started = Some(Instant::now());
            conn.request_id = Some(cx.registry.next_request_id());
            cx.m.requests.inc();
            set_conn_timer(cx, conn, TimerPurpose::HeadDeadline, REQUEST_READ_TIMEOUT);
        }
        let Some(end) = head_complete(&conn.rbuf) else {
            if conn.rbuf.len() > HEAD_CAP {
                return respond_malformed(cx, conn, "head too large");
            }
            if conn.client_eof {
                // EOF mid-head: same 400 the blocking parser's
                // "eof in headers" produced.
                return respond_malformed(cx, conn, "eof in headers");
            }
            return Verdict::Keep; // more bytes needed
        };
        clear_conn_timer(cx, conn);
        let parsed = parse_request_head(&conn.rbuf[..end]);
        conn.rbuf.drain(..end);
        if let Some(started) = conn.request_started {
            cx.m.parse_ns
                .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        let request = match parsed {
            Ok(r) => r,
            Err(ParseError::Malformed(why)) => {
                return respond_malformed(cx, conn, why);
            }
            Err(_) => return Verdict::Close,
        };
        if handle_request(cx, conn, request) == Verdict::Close {
            return Verdict::Close;
        }
    }
}

/// 400s the client and closes, recording the parse failure.
fn respond_malformed(cx: &mut Cx, conn: &mut Conn, why: &str) -> Verdict {
    cx.m.malformed.inc();
    cx.registry.events().record(
        "parse",
        conn.request_id,
        format!("malformed request: {why}"),
    );
    finish_request(conn);
    enqueue_response(cx, conn, 400, b"bad request", false)
}

/// Clears per-request state once its response is fully enqueued.
fn finish_request(conn: &mut Conn) {
    conn.request_started = None;
    conn.request_id = None;
    conn.path = None;
    conn.span = None; // drop records the span
}

/// Records `proxy_request_ns` for a routed (non-admin) request and leaves
/// a post-mortem event when it was slow.
fn record_request_done(cx: &mut Cx, conn: &mut Conn) {
    let Some(started) = conn.request_started else {
        return;
    };
    let elapsed = started.elapsed();
    cx.m.request_ns
        .record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    if elapsed >= SLOW_REQUEST {
        let path = conn.path.as_ref().map_or("?", |p| p.as_str());
        cx.registry.events().record(
            "request",
            conn.request_id,
            format!("slow request {path} took {elapsed:?}"),
        );
    }
}

/// One parsed request: admin surface, tenant admission, routing, and
/// relay start.
fn handle_request(cx: &mut Cx, conn: &mut Conn, request: Request) -> Verdict {
    let keep_alive = request.keep_alive;
    conn.keep_alive = keep_alive;

    // --- admin surface: the stats endpoints are served by the proxy
    // itself, not routed to a backend, and stay out of request_ns and
    // the trace stream — scrapes are not traffic.
    let admin_body = match request.path.as_str() {
        METRICS_PATH => Some(render_metrics(cx, false)),
        METRICS_JSON_PATH => Some(render_metrics(cx, true)),
        TRACE_JSON_PATH => Some(cx.registry.spans().to_json()),
        SERIES_JSON_PATH => Some(cx.registry.series_json()),
        _ => None,
    };
    if let Some(body) = admin_body {
        finish_request(conn);
        return enqueue_response(cx, conn, 200, body.as_bytes(), keep_alive);
    }

    // --- trace root: the proxy is the cluster's entry point, so every
    // relayed request opens (or, when the client carried an
    // `x-cpms-trace` header, continues) a distributed trace here.
    let spans = Arc::clone(&cx.m.spans);
    let mut span = match request.trace {
        Some(inbound) => OwnedSpan::child_of(spans, inbound, "proxy.request"),
        None => OwnedSpan::root_head_sampled(spans, "proxy.request"),
    };
    span.set_detail(request.path.as_str().to_string());
    conn.path = Some(request.path.clone());

    // --- tenant admission: the first routed request binds the
    // connection to its tenant (leading path segment); a tenant at its
    // connection cap sheds with a fast 503 and the connection closes —
    // the cap is on connections, not requests.
    if conn.tenant.is_none() {
        if let Some(idx) = tenant_of(&cx.tenants, &request.path) {
            let slot = &cx.tenants[idx];
            let admitted = slot
                .active
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    (n < slot.cap).then_some(n + 1)
                })
                .is_ok();
            if admitted {
                conn.tenant = Some(idx);
            } else {
                cx.m.conn_tenant_rejected.inc();
                span.set_error(true);
                span.set_detail(format!("tenant {} over connection cap", slot.prefix));
                cx.registry.events().record(
                    "admission",
                    conn.request_id,
                    format!("tenant {} over connection cap", slot.prefix),
                );
                conn.span = Some(span);
                record_request_done(cx, conn);
                finish_request(conn);
                return enqueue_response(cx, conn, 503, b"tenant over capacity", false);
            }
        }
    }

    // --- routing decision: snapshot lookup + least in-flight replica.
    // Nodes without a configured backend address are vetoed.
    let in_flight = &cx.in_flight;
    let target = cx.router.route(&request.path, |n| {
        in_flight
            .get(n.index())
            .map_or(u64::MAX, |c| u64::from(c.load(Ordering::Relaxed)))
    });
    let Some((node, _entry)) = target else {
        cx.stats
            .worker(cx.idx)
            .unroutable
            .fetch_add(1, Ordering::Relaxed);
        cx.m.unroutable.inc();
        span.set_error(true);
        span.set_detail(format!("unroutable {}", request.path));
        cx.registry.events().record(
            "route",
            conn.request_id,
            format!("unroutable path {}", request.path),
        );
        conn.span = Some(span);
        let verdict = enqueue_response(cx, conn, 503, b"no location for path", keep_alive);
        record_request_done(cx, conn);
        finish_request(conn);
        return verdict;
    };
    *cx.ledgers[cx.idx]
        .lock()
        .entry(request.path.clone())
        .or_insert(0) += 1;

    // --- bind to a pre-forked connection and start the relay state
    // machine. The relay gets its own child span whose context rides the
    // backend request as an `x-cpms-trace` header, so the origin's span
    // parents to this hop.
    in_flight[node.index()].fetch_add(1, Ordering::Relaxed);
    let mut relay_span = span
        .context()
        .map(|ctx| OwnedSpan::child_of(Arc::clone(&cx.m.spans), ctx, "proxy.relay"));
    if let Some(rs) = relay_span.as_mut() {
        rs.set_detail(format!("node={}", node.0));
    }
    conn.span = Some(span);

    let backend = match cx.pools[cx.idx].checkout(node.index()) {
        Ok(stream) => stream,
        Err(e) => {
            in_flight[node.index()].fetch_sub(1, Ordering::Relaxed);
            cx.stats
                .worker(cx.idx)
                .pool_failures
                .fetch_add(1, Ordering::Relaxed);
            cx.m.pool_failures.inc();
            cx.registry.events().record(
                "pool",
                conn.request_id,
                format!("no connection to node {}: {e}", node.0),
            );
            if let Some(mut rs) = relay_span {
                rs.set_error(true);
            }
            if let Some(span) = conn.span.as_mut() {
                span.set_error(true);
            }
            let verdict = enqueue_response(cx, conn, 502, b"backend failure", keep_alive);
            record_request_done(cx, conn);
            finish_request(conn);
            return verdict;
        }
    };
    if backend.set_nonblocking(true).is_err() {
        in_flight[node.index()].fetch_sub(1, Ordering::Relaxed);
        cx.pools[cx.idx].discard(node.index(), backend);
        let verdict = enqueue_response(cx, conn, 502, b"backend failure", keep_alive);
        record_request_done(cx, conn);
        finish_request(conn);
        return verdict;
    }

    let relay_ctx = relay_span.as_ref().and_then(OwnedSpan::context);
    let head = request_head(&request.path, relay_ctx.as_ref());
    let mut relay = Relay {
        stream: backend,
        node: node.index(),
        out: head.into_bytes().into(),
        inbuf: Vec::new(),
        phase: RelayPhase::Send,
        remaining: 0,
        started: Instant::now(),
        interest: Interest::WRITE,
        paused: false,
        head_sent: false,
        span: relay_span,
    };
    // Optimistic first write: the request head almost always fits the
    // socket buffer, so most relays register straight into read interest
    // and cost a single registration.
    match write_pending(&relay.stream, &mut relay.out) {
        Ok(()) => {}
        Err(_) => {
            // The pooled connection is already dead; surface it as an
            // exchange failure like the blocking path did.
            in_flight[node.index()].fetch_sub(1, Ordering::Relaxed);
            cx.stats
                .worker(cx.idx)
                .backend_errors
                .fetch_add(1, Ordering::Relaxed);
            cx.m.backend_errors.inc();
            cx.registry.events().record(
                "relay",
                conn.request_id,
                format!(
                    "exchange with node {} failed: dead pooled connection",
                    node.0
                ),
            );
            if let Some(mut rs) = relay.span.take() {
                rs.set_error(true);
            }
            if let Some(span) = conn.span.as_mut() {
                span.set_error(true);
            }
            cx.pools[cx.idx].discard(node.index(), relay.stream);
            let verdict = enqueue_response(cx, conn, 502, b"backend failure", keep_alive);
            record_request_done(cx, conn);
            finish_request(conn);
            return verdict;
        }
    }
    if relay.out.is_empty() {
        relay.phase = RelayPhase::Head;
        relay.interest = Interest::READ;
    }
    let fd = relay.stream.as_raw_fd();
    let interest = relay.interest;
    conn.relay = Some(relay);
    if cx
        .poller
        .register(fd, backend_token(conn.key), interest)
        .is_err()
    {
        return fail_relay(cx, conn, "backend registration failed");
    }
    set_conn_timer(cx, conn, TimerPurpose::RelayDeadline, RELAY_TIMEOUT);
    Verdict::Keep
}

/// Finds the tenant slot for a path's leading segment.
fn tenant_of(tenants: &[TenantSlot], path: &UrlPath) -> Option<usize> {
    let first = path.as_str().trim_start_matches('/').split('/').next()?;
    tenants.iter().position(|t| t.prefix == first)
}

/// Writes as much of `out` to the backend as it accepts.
fn write_pending(mut stream: &TcpStream, out: &mut VecDeque<u8>) -> io::Result<()> {
    while !out.is_empty() {
        let (a, b) = out.as_slices();
        let bufs = [IoSlice::new(a), IoSlice::new(b)];
        let nbufs = if b.is_empty() { 1 } else { 2 };
        match stream.write_vectored(&bufs[..nbufs]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                out.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One readiness event on the backend fd of an in-flight relay.
fn on_backend_event(cx: &mut Cx, conn: &mut Conn, ev: Event) -> Verdict {
    if conn.relay.is_none() {
        return Verdict::Keep; // stale event for a finished relay
    }

    // Send phase: push the rest of the request head.
    if ev.writable {
        let relay = conn.relay.as_mut().expect("checked above");
        if relay.phase == RelayPhase::Send {
            if write_pending(&relay.stream, &mut relay.out).is_err() {
                return fail_relay(cx, conn, "request write failed");
            }
            let relay = conn.relay.as_mut().expect("still relaying");
            if relay.out.is_empty() {
                relay.phase = RelayPhase::Head;
                relay.interest = Interest::READ;
                let _ = cx.poller.reregister(
                    relay.stream.as_raw_fd(),
                    backend_token(conn.key),
                    Interest::READ,
                );
            }
        }
    }

    if ev.readable {
        loop {
            let relay = conn.relay.as_mut().expect("checked above");
            match relay.phase {
                RelayPhase::Send => break, // response can't precede the request
                RelayPhase::Head => {
                    let n = match io::Read::read(&mut &relay.stream, &mut cx.scratch) {
                        Ok(0) => return fail_relay(cx, conn, "backend closed before response"),
                        Ok(n) => n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => return fail_relay(cx, conn, "backend read failed"),
                    };
                    relay.inbuf.extend_from_slice(&cx.scratch[..n]);
                    match parse_response_head(&relay.inbuf) {
                        Ok(None) => {
                            if relay.inbuf.len() > HEAD_CAP {
                                return fail_relay(cx, conn, "backend response head too large");
                            }
                        }
                        Err(_) => return fail_relay(cx, conn, "malformed backend response"),
                        Ok(Some(rh)) => {
                            // Forward a fresh head carrying the client's
                            // keep-alive disposition, then whatever body
                            // bytes arrived with it.
                            let keep_alive = conn.keep_alive;
                            let head = response_head(rh.status, rh.content_length, keep_alive);
                            // The length is the backend's word: reserve
                            // no more than back-pressure lets the ring hold.
                            conn.wbuf
                                .reserve(head.len() + rh.content_length.min(WBUF_HIGH));
                            conn.wbuf.extend(head.as_bytes());
                            let relay = conn.relay.as_mut().expect("still relaying");
                            relay.head_sent = true;
                            let body_in = relay.inbuf.len() - rh.head_len;
                            let take = body_in.min(rh.content_length);
                            let body: Vec<u8> = relay
                                .inbuf
                                .drain(..rh.head_len + take)
                                .skip(rh.head_len)
                                .collect();
                            relay.remaining = rh.content_length - take;
                            relay.phase = RelayPhase::Body;
                            conn.wbuf.extend(body);
                            if conn.relay.as_ref().expect("still relaying").remaining == 0 {
                                return succeed_relay(cx, conn);
                            }
                        }
                    }
                }
                RelayPhase::Body => {
                    let want = relay.remaining.min(cx.scratch.len());
                    let n = match io::Read::read(&mut &relay.stream, &mut cx.scratch[..want]) {
                        Ok(0) => return fail_relay(cx, conn, "backend closed mid-body"),
                        Ok(n) => n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => return fail_relay(cx, conn, "backend read failed"),
                    };
                    relay.remaining -= n;
                    conn.wbuf.extend(&cx.scratch[..n]);
                    if conn.relay.as_ref().expect("still relaying").remaining == 0 {
                        return succeed_relay(cx, conn);
                    }
                }
            }
            // Backpressure: a client that cannot drain its ring pauses
            // the backend until the flush path brings the ring back
            // under the low-water mark.
            if conn.wbuf.len() > WBUF_HIGH {
                let relay = conn.relay.as_mut().expect("still relaying");
                if !relay.paused {
                    relay.paused = true;
                    relay.interest = Interest {
                        read: false,
                        write: false,
                    };
                    let _ = cx.poller.reregister(
                        relay.stream.as_raw_fd(),
                        backend_token(conn.key),
                        relay.interest,
                    );
                }
                break;
            }
        }
    }

    if flush_client(cx, conn) == Verdict::Close {
        return Verdict::Close;
    }
    if conn.close_after_flush && conn.wbuf.is_empty() {
        return Verdict::Close;
    }
    sync_client_interest(cx, conn);
    Verdict::Keep
}

/// Relay finished cleanly: return the pooled connection, close the spans,
/// record the request, and resume serving buffered requests.
fn succeed_relay(cx: &mut Cx, conn: &mut Conn) -> Verdict {
    let mut relay = conn.relay.take().expect("succeed without relay");
    clear_conn_timer(cx, conn);
    cx.in_flight[relay.node].fetch_sub(1, Ordering::Relaxed);
    cx.m.relay_ns
        .record(u64::try_from(relay.started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    let _ = cx.poller.deregister(relay.stream.as_raw_fd());
    cx.pools[cx.idx].release(relay.node, relay.stream);
    relay.span.take(); // drop records the relay span, un-errored
    cx.stats
        .worker(cx.idx)
        .relayed
        .fetch_add(1, Ordering::Relaxed);
    cx.m.relayed.inc();
    record_request_done(cx, conn);
    finish_request(conn);
    if !conn.keep_alive {
        conn.close_after_flush = true;
    }
    if flush_client(cx, conn) == Verdict::Close {
        return Verdict::Close;
    }
    // Pipelined requests may already be buffered; serve them now.
    settle(cx, conn)
}

/// Relay failed: discard the pooled connection and either 502 (head not
/// yet sent) or truncate by closing (mid-body — the client already has a
/// 200 head, so a short body is the only honest signal left).
fn fail_relay(cx: &mut Cx, conn: &mut Conn, why: &str) -> Verdict {
    let Some(mut relay) = conn.relay.take() else {
        return Verdict::Keep;
    };
    clear_conn_timer(cx, conn);
    cx.in_flight[relay.node].fetch_sub(1, Ordering::Relaxed);
    cx.m.relay_ns
        .record(u64::try_from(relay.started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    let _ = cx.poller.deregister(relay.stream.as_raw_fd());
    cx.pools[cx.idx].discard(relay.node, relay.stream);
    if let Some(mut span) = relay.span.take() {
        span.set_error(true);
    }
    if let Some(span) = conn.span.as_mut() {
        span.set_error(true);
    }
    cx.stats
        .worker(cx.idx)
        .backend_errors
        .fetch_add(1, Ordering::Relaxed);
    cx.m.backend_errors.inc();
    cx.registry.events().record(
        "relay",
        conn.request_id,
        format!("exchange with node {} failed: {why}", relay.node),
    );
    let verdict = if relay.head_sent {
        // Truncation: close out the partial body.
        conn.close_after_flush = true;
        flush_client(cx, conn)
    } else {
        let keep_alive = conn.keep_alive;
        enqueue_response(cx, conn, 502, b"backend failure", keep_alive)
    };
    record_request_done(cx, conn);
    finish_request(conn);
    if verdict == Verdict::Close {
        return Verdict::Close;
    }
    settle(cx, conn)
}

/// Samples the point-in-time gauges (table size and memory, snapshot
/// generation, pool occupancy, per-node in-flight) into the registry,
/// then renders the whole registry. Gauges are sampled at render time
/// because they are reads of existing state — putting them on the
/// request path would buy nothing.
fn render_metrics(cx: &Cx, json: bool) -> String {
    let registry = &cx.registry;
    let table = cx.handle.load();
    registry
        .gauge("urltable_entries")
        .set(i64::try_from(table.len()).unwrap_or(i64::MAX));
    registry
        .gauge("urltable_memory_bytes")
        .set(i64::try_from(table.memory_bytes()).unwrap_or(i64::MAX));
    registry
        .gauge("urltable_generation")
        .set(i64::try_from(cx.handle.generation()).unwrap_or(i64::MAX));
    let pools = &cx.pools;
    registry
        .gauge("proxy_pool_checkouts")
        .set(i64::try_from(pools.iter().map(SocketPool::checkouts).sum::<u64>()).unwrap_or(0));
    registry.gauge("proxy_pool_overflow_connects").set(
        i64::try_from(pools.iter().map(SocketPool::overflow_connects).sum::<u64>()).unwrap_or(0),
    );
    for (node, counter) in cx.in_flight.iter().enumerate() {
        let idle: usize = pools.iter().map(|p| p.idle_count(node)).sum();
        registry
            .gauge(&format!("proxy_node{node}_in_flight"))
            .set(i64::from(counter.load(Ordering::Relaxed)));
        registry
            .gauge(&format!("proxy_node{node}_pool_idle"))
            .set(i64::try_from(idle).unwrap_or(i64::MAX));
    }
    for tenant in cx.tenants.iter() {
        registry
            .gauge(&format!("proxy_tenant_{}_conns", tenant.prefix))
            .set(i64::from(tenant.active.load(Ordering::Relaxed)));
    }
    let snapshot = registry.snapshot();
    if json {
        snapshot.to_json()
    } else {
        snapshot.to_prometheus()
    }
}
