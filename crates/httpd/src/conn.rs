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
//!   scanned incrementally ([`crate::http::head_complete`]); a deadline
//!   bounds how long a client may trickle a head (slowloris defence).
//! - **Relays** are non-blocking state machines over a pooled backend
//!   connection: enqueue the request head, parse the response head
//!   incrementally, then move the rest of the body backend → pipe →
//!   client with `splice(2)`, so body bytes that did not arrive with the
//!   head never enter user space.
//! - **Client writes** drain the write ring with vectored I/O, then the
//!   body pipe. Backend reads pause while the pipe holds bytes
//!   (backpressure) and resume once it is empty, so one slow client holds
//!   one pipe's worth of kernel memory and the loop never spins on a full
//!   pipe.
//! - **Keep-alive** clients multiplex any number of requests over their
//!   connection, each bound to a pool connection only for the exchange —
//!   pipelined requests parse straight out of the read buffer without
//!   another poller round-trip.
//!
//! A relayed keep-alive GET costs the worker its socket calls and nothing
//! else per request:
//!
//! - **The poller is not touched.** Every pooled backend socket is
//!   registered once, when opened, under a token naming its entry in the
//!   worker's mapping table; binding it to a client is a write to that
//!   entry, as in the paper's distributor (§2.2). A client keeps read
//!   interest through its relay (pipelined bytes go to its read buffer,
//!   bounded by `HEAD_CAP`), so its interest changes only for write
//!   backpressure, EOF or a full buffer.
//! - **The wheel is not touched.** A connection has one deadline, stored
//!   on the connection; the wheel timer standing for it is re-armed lazily,
//!   so a deadline that moves later costs nothing until the timer fires.
//! - **Tracing formats nothing** for the requests it does not sample.
//!
//! Tokens pack a slab key with a side bit: a client connection's key, or a
//! pooled backend connection's key in the mapping table. Slab keys carry
//! generations, so a stale readiness event for a recycled slot misses
//! harmlessly instead of touching the wrong connection.

use crate::failure::Failure;
use crate::http::{
    head_complete, parse_request_head, parse_response_head, request_head_into, response_head_into,
    ParseError, Request, HEAD_CAP,
};
use crate::pool::SocketPool;
use crate::proxy::{
    HandoffQueue, TenantSlot, METRICS_JSON_PATH, METRICS_PATH, SERIES_JSON_PATH, TRACE_JSON_PATH,
};
use cpms_dispatch::LiveRouter;
use cpms_model::UrlPath;
use cpms_obs::{
    Counter, Gauge, HistogramRecorder, MetricsRegistry, OwnedSpan, RequestId, SpanCollector,
};
use cpms_reactor::{
    new_poller, Event, Interest, Pipe, Poller, Slab, SlabKey, TimerId, TimerWheel, Token,
    WakeReceiver,
};
use cpms_urltable::SnapshotHandle;
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
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

/// Bytes of a backend request head besides its path: the request line,
/// two headers and a trace header.
const REQUEST_HEAD_BYTES: usize = 160;

/// Reusable per-worker read buffer size. It also bounds the body bytes a
/// response carries through user space: only those that arrive with the
/// head, in the backend read that completes it.
const SCRATCH: usize = 16 * 1024;

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
    /// This worker's pre-forked backend connections, adopted at start.
    pub preforked: SocketPool,
    pub pools: Arc<Vec<SocketPool<Pooled>>>,
    pub in_flight: Arc<Vec<AtomicU32>>,
    pub registry: Arc<MetricsRegistry>,
    pub stop: Arc<AtomicBool>,
    pub queue: Arc<HandoffQueue>,
    pub wake_rx: WakeReceiver,
    pub tenants: Arc<Vec<TenantSlot>>,
}

/// An idle pooled backend connection, as a worker's pool shard holds it:
/// the stream, registered with the worker's poller under
/// [`backend_token`] of `key`, its entry in the worker's mapping table.
#[derive(Debug)]
pub(crate) struct Pooled {
    key: SlabKey,
    stream: TcpStream,
}

/// One pooled backend connection's entry in the worker's mapping table,
/// from the moment it is opened until it is discarded.
struct Binding {
    node: usize,
    /// The client connection whose relay the socket carries; `None` while
    /// it is idle in the pool.
    client: Option<SlabKey>,
}

/// Per-worker metric handles: histogram recorders bound to this worker's
/// shard (recording is a few relaxed atomics, no lock) plus the shared
/// counters, the failure counters indexed by [`Failure`]. Resolved once
/// at worker start, off the request path.
struct WorkerMetrics {
    parse_ns: HistogramRecorder,
    relay_ns: HistogramRecorder,
    request_ns: HistogramRecorder,
    conn_lifetime_ns: HistogramRecorder,
    connections: Arc<Counter>,
    requests: Arc<Counter>,
    relayed: Arc<Counter>,
    failures: [Arc<Counter>; Failure::ALL.len()],
    pool_discards: Arc<Counter>,
    body_spliced: Arc<Counter>,
    body_copied: Arc<Counter>,
    conn_active: Arc<Gauge>,
    conn_closed: Arc<Counter>,
    reactor_polls: Arc<Counter>,
    reactor_events: Arc<Counter>,
    reactor_wakeups: Arc<Counter>,
    reactor_timers_fired: Arc<Counter>,
    reactor_timer_arms: Arc<Counter>,
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
            failures: Failure::counters(registry),
            pool_discards: registry.counter("proxy_pool_discards_total"),
            body_spliced: registry.counter("proxy_body_spliced_bytes_total"),
            body_copied: registry.counter("proxy_body_copied_bytes_total"),
            conn_active: registry.gauge("proxy_conn_active"),
            conn_closed: registry.counter("proxy_conn_closed_total"),
            reactor_polls: registry.counter("reactor_polls_total"),
            reactor_events: registry.counter("reactor_events_total"),
            reactor_wakeups: registry.counter("reactor_wakeups_total"),
            reactor_timers_fired: registry.counter("reactor_timers_fired_total"),
            reactor_timer_arms: registry.counter("reactor_timer_arms_total"),
        }
    }
}

/// The worker's poller, counting every control call into
/// `reactor_ctl_total` — a relayed keep-alive request should make none.
struct CountedPoller {
    poller: Poller,
    calls: Arc<Counter>,
}

impl CountedPoller {
    fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.calls.inc();
        self.poller.register(fd, token, interest)
    }

    fn reregister(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.calls.inc();
        self.poller.reregister(fd, token, interest)
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.calls.inc();
        self.poller.deregister(fd)
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<usize> {
        self.poller.wait(events, Some(timeout))
    }
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
    /// Splicing `remaining` body bytes through the connection's pipe.
    Body,
}

/// One in-flight backend exchange, owned by the client connection it
/// serves.
struct Relay {
    stream: TcpStream,
    /// The pooled connection's key in the mapping table, which its poller
    /// token names.
    backend: SlabKey,
    node: usize,
    /// Request-head bytes not yet written to the backend.
    out: VecDeque<u8>,
    /// A response head split across backend reads, accumulated until it
    /// is whole. A head that arrives in one read never lands here.
    inbuf: Vec<u8>,
    phase: RelayPhase,
    /// Body bytes still to splice once the head is parsed.
    remaining: usize,
    started: Instant,
    /// Interest registered for the backend fd: read, except while the
    /// request head waits for socket space.
    interest: Interest,
    /// Backend deregistered until the connection's pipe drains.
    paused: bool,
    /// True once the client response head has been enqueued — after
    /// that, a backend failure can only truncate, not turn into a 502.
    head_sent: bool,
    /// Bytes the backend sent past the declared body in the read that
    /// completed the head; any bars the connection from the pool.
    stray: usize,
    /// The backend keeps the connection open after this response.
    reusable: bool,
    span: Option<OwnedSpan>,
}

/// One client connection's full state.
struct Conn {
    key: SlabKey,
    stream: TcpStream,
    /// Bytes read from the client, scanned for request heads.
    rbuf: Vec<u8>,
    /// Bytes to write to the client: response heads, whole small
    /// responses, and body bytes that arrived with a head.
    wbuf: VecDeque<u8>,
    /// Body bytes the client is owed after `wbuf`, spliced from the
    /// backend. Held from the head of a response with a body still to
    /// come until the pipe is empty again; it then goes back to the
    /// worker's stack.
    pipe: Option<Pipe>,
    /// Interest currently registered for the client fd.
    interest: Interest,
    /// Close once `wbuf` drains.
    close_after_flush: bool,
    /// The client's write side reached EOF.
    client_eof: bool,
    /// When the current wait — for the rest of a request head, or for the
    /// relay — must end.
    deadline: Option<Instant>,
    /// The wheel timer standing for `deadline`, and when it is due: never
    /// after `deadline`. See [`set_deadline`].
    armed: Option<(TimerId, Instant)>,
    /// Set while a request head is being accumulated or served.
    request_started: Option<Instant>,
    request_id: Option<RequestId>,
    /// The current request's keep-alive disposition.
    keep_alive: bool,
    /// The current request's path (for span details and slow-request
    /// post-mortems).
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
            pipe: None,
            interest: Interest::READ,
            close_after_flush: false,
            client_eof: false,
            deadline: None,
            armed: None,
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

    /// True when the client is owed nothing: the ring and the pipe are
    /// both empty.
    fn flushed(&self) -> bool {
        self.wbuf.is_empty() && self.pipe.as_ref().is_none_or(Pipe::is_empty)
    }

    /// The client interest this connection's state calls for.
    fn desired_interest(&self) -> Interest {
        // Read until the client is done or its buffer is full — through a
        // relay too: pipelined bytes wait in `rbuf`, which `advance_requests`
        // serves once the client is owed nothing. A buffer at `HEAD_CAP`
        // stops reading, so level-triggered readiness cannot spin the loop.
        let flushed = self.flushed();
        let read = !self.close_after_flush && !self.client_eof && self.rbuf.len() < HEAD_CAP;
        Interest {
            read,
            write: !flushed,
        }
    }
}

/// The worker's non-connection state: poller, timers, router, metrics,
/// and every shared handle. Kept apart from the connection slab so event
/// handlers can hold `&mut Conn` and `&mut Cx` simultaneously.
struct Cx {
    idx: usize,
    handle: SnapshotHandle,
    pools: Arc<Vec<SocketPool<Pooled>>>,
    /// The mapping table: every pooled backend connection this worker has
    /// open, and the client it is bound to.
    bindings: Slab<Binding>,
    in_flight: Arc<Vec<AtomicU32>>,
    registry: Arc<MetricsRegistry>,
    tenants: Arc<Vec<TenantSlot>>,
    router: LiveRouter,
    m: WorkerMetrics,
    poller: CountedPoller,
    timers: TimerWheel,
    timer_conns: HashMap<TimerId, SlabKey>,
    scratch: Vec<u8>,
    /// Empty body pipes, reused across relays.
    pipes: Vec<Pipe>,
}

/// The worker thread body.
pub(crate) fn worker_loop(boot: WorkerBoot) {
    let mut router = LiveRouter::new(&boot.handle, 1024);
    router.attach_metrics(&boot.registry, boot.idx);
    let m = WorkerMetrics::new(&boot.registry, boot.idx, boot.workers);
    let Ok(poller) = new_poller() else {
        return;
    };
    let mut poller = CountedPoller {
        poller,
        calls: boot.registry.counter("reactor_ctl_total"),
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
        bindings: Slab::new(),
        in_flight: boot.in_flight,
        registry: boot.registry,
        tenants: boot.tenants,
        router,
        m,
        poller,
        timers: TimerWheel::new(TIMER_TICK, TIMER_SLOTS),
        timer_conns: HashMap::new(),
        scratch: vec![0u8; SCRATCH],
        pipes: Vec::new(),
    };
    // A pre-forked connection that cannot be registered is dropped; the
    // first checkout that misses it opens another.
    for node in 0..boot.preforked.backend_count() {
        for stream in boot.preforked.take_idle(node) {
            if let Ok(pooled) = adopt_backend(&mut cx.poller, &mut cx.bindings, node, stream) {
                cx.pools[cx.idx].release(node, pooled);
            }
        }
    }
    let mut conns: Slab<Conn> = Slab::new();
    let mut events: Vec<Event> = Vec::with_capacity(256);
    let mut fired: Vec<TimerId> = Vec::new();

    loop {
        let timeout = cx
            .timers
            .next_timeout(Instant::now())
            .map_or(POLL_CAP, |t| t.min(POLL_CAP));
        if cx.poller.wait(&mut events, timeout).is_err() {
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

    // Teardown: close every connection (and any not yet adopted) so
    // `proxy_conn_active`, counted from admission, drops to zero.
    for key in conns.keys() {
        if let Some(conn) = conns.remove(key) {
            teardown(&mut cx, conn);
        }
    }
    while let Some(stream) = boot.queue.pop() {
        drop(stream);
        cx.m.conn_active.sub(1);
    }
}

/// Makes a freshly opened backend connection part of this worker's pool:
/// an entry in the mapping table, and its one poller registration, for
/// read — a socket that turns readable while idle has hung up or sent
/// bytes nobody asked for, and is discarded on the spot.
fn adopt_backend(
    poller: &mut CountedPoller,
    bindings: &mut Slab<Binding>,
    node: usize,
    stream: TcpStream,
) -> io::Result<Pooled> {
    let key = bindings.insert(Binding { node, client: None });
    if let Err(e) = poller.register(stream.as_raw_fd(), backend_token(key), Interest::READ) {
        bindings.remove(key);
        return Err(e);
    }
    Ok(Pooled { key, stream })
}

/// Adopts connections the acceptor queued for this worker.
fn drain_handoff(cx: &mut Cx, conns: &mut Slab<Conn>, queue: &HandoffQueue) {
    while let Some(stream) = queue.pop() {
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            cx.m.conn_active.sub(1);
            continue;
        }
        cx.m.connections.inc();
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

/// Routes one readiness event to the right connection and side. A
/// backend event reaches the client its socket is bound to through the
/// mapping table; one on an idle socket discards it.
fn dispatch(cx: &mut Cx, conns: &mut Slab<Conn>, ev: Event) {
    let key = ev.token.0 >> 1;
    let backend_side = ev.token.0 & 1 == 1;
    let conn_key = if backend_side {
        let Some(binding) = cx.bindings.get(key) else {
            return; // stale token for a discarded connection
        };
        match binding.client {
            Some(client) => client,
            None => {
                let node = binding.node;
                if let Some(idle) = cx.pools[cx.idx].remove_idle(node, |p| p.key == key) {
                    discard_backend(cx, idle.key, idle.stream);
                }
                return;
            }
        }
    } else {
        key
    };
    let Some(conn) = conns.get_mut(conn_key) else {
        return; // stale token for a recycled slot
    };
    let verdict = if backend_side {
        on_backend_event(cx, conn, ev)
    } else {
        on_client_event(cx, conn, ev)
    };
    if verdict == Verdict::Close {
        if let Some(conn) = conns.remove(conn_key) {
            teardown(cx, conn);
        }
    }
}

/// Sets the connection's one deadline. The wheel is touched only when no
/// timer is armed or the armed one would fire too late: a deadline that
/// moves later leaves its timer in place, and [`fire_timer`] re-arms it
/// at the real deadline if it fires first. Clearing a deadline is just
/// `conn.deadline = None`.
fn set_deadline(cx: &mut Cx, conn: &mut Conn, at: Instant) {
    conn.deadline = Some(at);
    if conn.armed.is_none_or(|(_, due)| due > at) {
        arm(cx, conn, at);
    }
}

fn arm(cx: &mut Cx, conn: &mut Conn, at: Instant) {
    disarm(cx, conn);
    let id = cx.timers.schedule_at(at);
    cx.timer_conns.insert(id, conn.key);
    conn.armed = Some((id, at));
    cx.m.reactor_timer_arms.inc();
}

fn disarm(cx: &mut Cx, conn: &mut Conn) {
    if let Some((id, _)) = conn.armed.take() {
        cx.timers.cancel(id);
        cx.timer_conns.remove(&id);
    }
}

/// Handles a fired wheel timer: nothing if the connection's deadline was
/// cleared since it was armed, a re-arm if the deadline moved later, and
/// otherwise the deadline's expiry — of the relay if one is in flight, of
/// the request head if not.
fn fire_timer(cx: &mut Cx, conns: &mut Slab<Conn>, id: TimerId) {
    let Some(key) = cx.timer_conns.remove(&id) else {
        return;
    };
    let Some(conn) = conns.get_mut(key) else {
        return;
    };
    if conn.armed.map(|(armed, _)| armed) != Some(id) {
        return;
    }
    conn.armed = None;
    let Some(deadline) = conn.deadline else {
        return;
    };
    if deadline > Instant::now() {
        arm(cx, conn, deadline);
        return;
    }
    conn.deadline = None;
    cx.m.reactor_timers_fired.inc();
    let verdict = if conn.relay.is_some() {
        fail_relay(cx, conn, "backend relay timed out")
    } else {
        // Client stalled mid-request-head: parse state is
        // unrecoverable, drop the connection.
        cx.registry.events().record(
            "parse",
            conn.request_id,
            "client stalled mid-request-head".to_string(),
        );
        if let Some(span) = conn.span.as_mut() {
            span.set_error(true);
        }
        Verdict::Close
    };
    if verdict == Verdict::Close {
        if let Some(conn) = conns.remove(key) {
            teardown(cx, conn);
        }
    }
}

/// Full close: cancel the timer, unwind relay accounting, release fds,
/// and record connection-level metrics. A body pipe still holding bytes
/// closes with the connection, so no other client can ever read them.
fn teardown(cx: &mut Cx, mut conn: Conn) {
    disarm(cx, &mut conn);
    if let Some(relay) = conn.relay.take() {
        cx.in_flight[relay.node].fetch_sub(1, Ordering::Relaxed);
        close_relay_span(relay.span, relay.node, true);
        discard_backend(cx, relay.backend, relay.stream);
        if let Some(span) = conn.span.as_mut() {
            span.set_error(true);
        }
    }
    finish_request(&mut conn);
    if let Some(tenant) = conn.tenant.take() {
        cx.tenants[tenant].active.fetch_sub(1, Ordering::Relaxed);
    }
    let _ = cx.poller.deregister(conn.stream.as_raw_fd());
    cx.m.conn_active.sub(1);
    cx.m.conn_closed.inc();
    cx.m.conn_lifetime_ns
        .record(u64::try_from(conn.opened.elapsed().as_nanos()).unwrap_or(u64::MAX));
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
        // A zero-interest registration (a client that half-closed or
        // filled its buffer, waiting on its relay) can only be woken by an
        // error or a full hangup — either way the client is gone, and with
        // level-triggered polling the condition would re-fire every wait.
        return Verdict::Close;
    }
    if ev.writable && !conn.flushed() && flush_client(cx, conn) == Verdict::Close {
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
    if conn.close_after_flush && conn.flushed() {
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

/// Writes what the client is owed, as far as the socket accepts: the ring
/// first (vectored I/O across its two segments), then the body pipe. An
/// emptied pipe resumes a paused backend, or goes back to the worker's
/// stack once its relay is done.
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
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Verdict::Keep,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Verdict::Close,
        }
    }
    let Some(pipe) = conn.pipe.as_mut() else {
        return Verdict::Keep;
    };
    while !pipe.is_empty() {
        match pipe.drain_into(&conn.stream, pipe.len()) {
            Ok(0) => return Verdict::Close,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Verdict::Keep,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Verdict::Close,
        }
    }
    match conn.relay.as_mut() {
        Some(relay) => resume_backend(cx, relay),
        None => cx.pipes.extend(conn.pipe.take()),
    }
    Verdict::Keep
}

/// Backpressure: while the pipe holds bytes the backend is deregistered,
/// so neither readiness nor a hangup wakes the loop for a fill that would
/// only answer `WouldBlock` (a full pipe and an empty socket say the
/// same). The pipe's drain re-arms it.
fn pause_backend(cx: &mut Cx, relay: &mut Relay) {
    if !relay.paused {
        relay.paused = true;
        let _ = cx.poller.deregister(relay.stream.as_raw_fd());
    }
}

fn resume_backend(cx: &mut Cx, relay: &mut Relay) {
    if relay.paused {
        relay.paused = false;
        let _ = cx.poller.register(
            relay.stream.as_raw_fd(),
            backend_token(relay.backend),
            relay.interest,
        );
    }
}

/// Binds a pooled connection to node `node` to the client `client`: an
/// idle one if there is one, else a freshly opened and adopted one. The
/// binding is one write to the mapping table; the poller is not touched.
fn checkout_backend(cx: &mut Cx, node: usize, client: SlabKey) -> io::Result<Pooled> {
    let pooled = cx.pools[cx.idx].checkout_with(node, |stream| {
        adopt_backend(&mut cx.poller, &mut cx.bindings, node, stream)
    })?;
    if let Some(binding) = cx.bindings.get_mut(pooled.key) {
        binding.client = Some(client);
    }
    Ok(pooled)
}

/// Returns a pooled connection to the pool, unbound and still registered.
fn release_backend(cx: &mut Cx, node: usize, key: SlabKey, stream: TcpStream) {
    if let Some(binding) = cx.bindings.get_mut(key) {
        binding.client = None;
    }
    cx.pools[cx.idx].release(node, Pooled { key, stream });
}

/// Drops a backend connection for good — off the poller, out of the
/// mapping table, closed — and counts it.
fn discard_backend(cx: &mut Cx, key: SlabKey, stream: TcpStream) {
    let _ = cx.poller.deregister(stream.as_raw_fd());
    cx.bindings.remove(key);
    cx.m.pool_discards.inc();
}

/// Closes a relay span. Its detail names the node, built only if the span
/// is recorded.
fn close_relay_span(span: Option<OwnedSpan>, node: usize, failed: bool) {
    if let Some(mut span) = span {
        span.set_error(failed);
        span.fill_detail(|| format!("node={node}"));
    }
}

/// Serves every complete request already buffered (keep-alive clients
/// may pipeline several). Stops when a relay starts, the client is owed
/// bytes (a response queued behind a pipe would overtake its body), the
/// buffer runs dry, or the connection is closing.
fn advance_requests(cx: &mut Cx, conn: &mut Conn) -> Verdict {
    loop {
        if conn.relay.is_some() || conn.close_after_flush || !conn.flushed() {
            return Verdict::Keep;
        }
        if conn.rbuf.is_empty() && conn.request_started.is_none() {
            // Clean EOF between requests closes; otherwise wait for more.
            return if conn.client_eof {
                Verdict::Close
            } else {
                Verdict::Keep
            };
        }
        let started = match conn.request_started {
            Some(started) => started,
            None => {
                // First byte of a fresh request: its clock and id start
                // here.
                let now = Instant::now();
                conn.request_started = Some(now);
                conn.request_id = Some(cx.registry.next_request_id());
                cx.m.requests.inc();
                now
            }
        };
        let Some(end) = head_complete(&conn.rbuf) else {
            if conn.rbuf.len() > HEAD_CAP {
                return refuse(cx, conn, Failure::Malformed, "head too large");
            }
            if conn.client_eof {
                // EOF mid-head: same 400 the blocking parser's
                // "eof in headers" produced.
                return refuse(cx, conn, Failure::Malformed, "eof in headers");
            }
            // More bytes needed, within the window that opened with the
            // head's first byte.
            set_deadline(cx, conn, started + REQUEST_READ_TIMEOUT);
            return Verdict::Keep;
        };
        conn.deadline = None;
        let parsed = parse_request_head(&conn.rbuf[..end]);
        conn.rbuf.drain(..end);
        cx.m.parse_ns
            .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        let request = match parsed {
            Ok(r) => r,
            Err(ParseError::Malformed(why)) => return refuse(cx, conn, Failure::Malformed, why),
            Err(_) => return Verdict::Close,
        };
        if handle_request(cx, conn, request) == Verdict::Close {
            return Verdict::Close;
        }
    }
}

/// Answers the current request with `failure`: the one exit for every
/// response the proxy makes itself. The connection stays open only if
/// the client asked and the failure allows it.
fn refuse(cx: &mut Cx, conn: &mut Conn, failure: Failure, detail: &str) -> Verdict {
    note_failure(cx, conn, failure, detail);
    if !failure.response_into(&mut conn.wbuf, conn.keep_alive) {
        conn.close_after_flush = true;
    }
    flush_client(cx, conn)
}

/// Counts `failure` once, records its event, marks the request span
/// failed with the same `token: path: detail` reason, and closes the
/// request.
fn note_failure(cx: &mut Cx, conn: &mut Conn, failure: Failure, detail: &str) {
    cx.m.failures[failure as usize].inc();
    let token = failure.token();
    let reason = match &conn.path {
        Some(path) => format!("{token}: {path}: {detail}"),
        None => format!("{token}: {detail}"),
    };
    if let Some(span) = conn.span.as_mut() {
        span.set_error(true);
        span.set_detail(reason.clone());
    }
    cx.registry.events().record(token, conn.request_id, reason);
    record_request_done(cx, conn);
    finish_request(conn);
}

/// Clears per-request state once its response is fully enqueued, closing
/// the request span. A span that ends without a detail gets the path,
/// built only if the span is recorded.
fn finish_request(conn: &mut Conn) {
    conn.request_started = None;
    conn.request_id = None;
    let path = conn.path.take();
    if let (Some(mut span), Some(path)) = (conn.span.take(), path) {
        span.fill_detail(|| path.into());
    }
}

/// Records `proxy_request_ns` for a routed request — one with a path, so
/// not an admin scrape or a malformed head — and leaves a post-mortem
/// event when it was slow.
fn record_request_done(cx: &mut Cx, conn: &Conn) {
    let (Some(started), Some(path)) = (conn.request_started, &conn.path) else {
        return;
    };
    let elapsed = started.elapsed();
    cx.m.request_ns
        .record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    if elapsed >= SLOW_REQUEST {
        cx.registry.events().record(
            "request",
            conn.request_id,
            format!("slow request {path} took {elapsed:?}"),
        );
    }
}

/// One parsed request: admin surface, method check, tenant admission,
/// routing, and relay start.
fn handle_request(cx: &mut Cx, conn: &mut Conn, request: Request) -> Verdict {
    let keep_alive = request.keep_alive;
    conn.keep_alive = keep_alive;
    // Only a GET without a body is served: a HEAD would be answered with
    // a body, and a request's body bytes would parse as the next request.
    let served = request.method == "GET" && !request.has_body;

    // --- admin surface: the stats endpoints are served by the proxy
    // itself, not routed to a backend, and stay out of request_ns and
    // the trace stream — scrapes are not traffic.
    let admin_body = match request.path.as_str() {
        _ if !served => None,
        METRICS_PATH => Some(render_metrics(cx, false)),
        METRICS_JSON_PATH => Some(render_metrics(cx, true)),
        TRACE_JSON_PATH => Some(cx.registry.spans().to_json()),
        SERIES_JSON_PATH => Some(cx.registry.series_json()),
        _ => None,
    };
    if let Some(body) = admin_body {
        finish_request(conn);
        response_head_into(&mut conn.wbuf, 200, body.len(), keep_alive);
        conn.wbuf.extend(body.as_bytes());
        conn.close_after_flush = !keep_alive;
        return flush_client(cx, conn);
    }

    // --- trace root: the proxy is the cluster's entry point, so every
    // routed request opens (or, when the client carried an
    // `x-cpms-trace` header, continues) a distributed trace here.
    let spans = Arc::clone(&cx.m.spans);
    let span = conn.span.insert(match request.trace {
        Some(inbound) => OwnedSpan::child_of(spans, inbound, "proxy.request"),
        None => OwnedSpan::root_head_sampled(spans, "proxy.request"),
    });
    let relay_ctx = span.context();
    let path: &UrlPath = conn.path.insert(request.path);
    if !served {
        let detail = if request.has_body {
            format!("{} with a body", request.method)
        } else {
            request.method
        };
        return refuse(cx, conn, Failure::Unsupported, &detail);
    }

    // --- tenant admission: the first routed request binds the
    // connection to its tenant (leading path segment); a tenant at its
    // connection cap sheds with a fast 503 and the connection closes —
    // the cap is on connections, not requests.
    if conn.tenant.is_none() {
        if let Some(idx) = tenant_of(&cx.tenants, path) {
            let slot = &cx.tenants[idx];
            let admitted = slot
                .active
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    (n < slot.cap).then_some(n + 1)
                })
                .is_ok();
            if !admitted {
                let detail = format!("tenant {} holds its {} connections", slot.prefix, slot.cap);
                return refuse(cx, conn, Failure::TenantOverCap, &detail);
            }
            conn.tenant = Some(idx);
        }
    }

    // --- routing decision: snapshot lookup + least in-flight replica.
    // Nodes without a configured backend address are vetoed.
    let in_flight = &cx.in_flight;
    let target = cx.router.route(path, |n| {
        in_flight
            .get(n.index())
            .map_or(u64::MAX, |c| u64::from(c.load(Ordering::Relaxed)))
    });
    let Some((node, _entry)) = target else {
        return refuse(cx, conn, Failure::Unroutable, "no location");
    };

    // --- bind to a pre-forked connection and start the relay state
    // machine. The relay gets its own child span whose context rides the
    // backend request as an `x-cpms-trace` header, so the origin's span
    // parents to this hop.
    let node = node.index();
    cx.in_flight[node].fetch_add(1, Ordering::Relaxed);
    let relay_span =
        relay_ctx.map(|ctx| OwnedSpan::child_of(Arc::clone(&cx.m.spans), ctx, "proxy.relay"));
    let mut out = VecDeque::with_capacity(REQUEST_HEAD_BYTES + path.as_str().len());
    request_head_into(
        &mut out,
        path,
        relay_span.as_ref().and_then(OwnedSpan::context).as_ref(),
    );

    let pooled = match checkout_backend(cx, node, conn.key) {
        Ok(pooled) => pooled,
        Err(e) => {
            cx.in_flight[node].fetch_sub(1, Ordering::Relaxed);
            close_relay_span(relay_span, node, true);
            return refuse(
                cx,
                conn,
                Failure::BackendConnect,
                &format!("node {node}: {e}"),
            );
        }
    };
    let started = Instant::now();
    let relay = conn.relay.insert(Relay {
        stream: pooled.stream,
        backend: pooled.key,
        node,
        out,
        inbuf: Vec::new(),
        phase: RelayPhase::Send,
        remaining: 0,
        started,
        interest: Interest::READ,
        paused: false,
        head_sent: false,
        stray: 0,
        reusable: true,
        span: relay_span,
    });
    // Optimistic first write: the request head almost always fits the
    // socket buffer, so the backend keeps the read interest it was
    // registered with.
    if write_pending(&relay.stream, &mut relay.out).is_err() {
        return fail_relay(cx, conn, "dead pooled connection");
    }
    if relay.out.is_empty() {
        relay.phase = RelayPhase::Head;
    } else {
        relay.interest = Interest::WRITE;
        let (fd, token) = (relay.stream.as_raw_fd(), backend_token(relay.backend));
        if cx.poller.reregister(fd, token, Interest::WRITE).is_err() {
            return fail_relay(cx, conn, "backend registration failed");
        }
    }
    set_deadline(cx, conn, started + RELAY_TIMEOUT);
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
                    backend_token(relay.backend),
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
                    // A head that arrives whole in one read — the usual
                    // case — is parsed where it landed.
                    let split = !relay.inbuf.is_empty();
                    if split {
                        relay.inbuf.extend_from_slice(&cx.scratch[..n]);
                    }
                    let got = if split {
                        &relay.inbuf[..]
                    } else {
                        &cx.scratch[..n]
                    };
                    let rh = match parse_response_head(got) {
                        Ok(Some(rh)) => rh,
                        Ok(None) => {
                            if !split {
                                relay.inbuf.extend_from_slice(&cx.scratch[..n]);
                            }
                            if relay.inbuf.len() > HEAD_CAP {
                                return fail_relay(cx, conn, "backend response head too large");
                            }
                            continue;
                        }
                        Err(_) => return fail_relay(cx, conn, "malformed backend response"),
                    };
                    let got_len = if split { relay.inbuf.len() } else { n };
                    let take = (got_len - rh.head_len).min(rh.content_length);
                    let remaining = rh.content_length - take;
                    // The rest of the body will need a pipe: take it
                    // before the client is promised a 200, so failing to
                    // get one is still an honest 502.
                    if remaining > 0 && conn.pipe.is_none() {
                        match cx.pipes.pop().map_or_else(Pipe::new, Ok) {
                            Ok(pipe) => conn.pipe = Some(pipe),
                            Err(_) => return fail_relay(cx, conn, "no pipe for the body"),
                        }
                    }
                    // Forward a fresh head carrying the client's
                    // keep-alive disposition, then whatever body bytes
                    // arrived with it.
                    let relay = conn.relay.as_mut().expect("still relaying");
                    let got = if split {
                        &relay.inbuf[..]
                    } else {
                        &cx.scratch[..n]
                    };
                    let body_end = rh.head_len + take;
                    response_head_into(
                        &mut conn.wbuf,
                        rh.status,
                        rh.content_length,
                        conn.keep_alive,
                    );
                    conn.wbuf.extend(&got[rh.head_len..body_end]);
                    relay.stray = got.len() - body_end;
                    relay.reusable = rh.keep_alive;
                    relay.head_sent = true;
                    relay.remaining = remaining;
                    relay.phase = RelayPhase::Body;
                    cx.m.body_copied.add(take as u64);
                    if remaining == 0 {
                        return succeed_relay(cx, conn);
                    }
                }
                RelayPhase::Body => {
                    // Fill only an empty pipe (a paused backend is not
                    // polled), so `WouldBlock` here means the socket is dry.
                    let pipe = conn.pipe.as_mut().expect("a body relay holds a pipe");
                    let n = match pipe.fill_from(&relay.stream, relay.remaining) {
                        Ok(0) => return fail_relay(cx, conn, "backend closed mid-body"),
                        Ok(n) => n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => return fail_relay(cx, conn, "backend read failed"),
                    };
                    relay.remaining -= n;
                    cx.m.body_spliced.add(n as u64);
                    if flush_client(cx, conn) == Verdict::Close {
                        return Verdict::Close;
                    }
                    if conn.relay.as_ref().expect("still relaying").remaining == 0 {
                        return succeed_relay(cx, conn);
                    }
                    // Bytes still owed: read no more until the pipe is
                    // empty again.
                    if !conn.flushed() {
                        pause_backend(cx, conn.relay.as_mut().expect("still relaying"));
                        break;
                    }
                }
            }
        }
    }

    if flush_client(cx, conn) == Verdict::Close {
        return Verdict::Close;
    }
    if conn.close_after_flush && conn.flushed() {
        return Verdict::Close;
    }
    sync_client_interest(cx, conn);
    Verdict::Keep
}

/// Relay finished cleanly: return the pooled connection (only if it sent
/// nothing past the body and stays open), close the spans, record the
/// request, and resume serving buffered requests once the client is owed
/// nothing.
fn succeed_relay(cx: &mut Cx, conn: &mut Conn) -> Verdict {
    let relay = conn.relay.take().expect("succeed without relay");
    conn.deadline = None;
    cx.in_flight[relay.node].fetch_sub(1, Ordering::Relaxed);
    cx.m.relay_ns
        .record(u64::try_from(relay.started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    close_relay_span(relay.span, relay.node, false);
    if relay.stray > 0 {
        // Bytes past the declared length would open the next exchange
        // on this connection: it can never be pooled again.
        cx.registry.events().record(
            "relay",
            conn.request_id,
            format!(
                "node {} sent {} bytes past the body; connection discarded",
                relay.node, relay.stray
            ),
        );
        discard_backend(cx, relay.backend, relay.stream);
    } else if !relay.reusable {
        // The backend is closing this connection (`Connection: close`, or
        // HTTP/1.0 without keep-alive): the next client bound to it would
        // get a 502.
        discard_backend(cx, relay.backend, relay.stream);
    } else {
        debug_assert!(!relay.paused, "a finished body leaves no pipe to wait on");
        release_backend(cx, relay.node, relay.backend, relay.stream);
    }
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

/// Relay failed: discard the pooled connection and either refuse with
/// [`Failure::BackendFailed`] (head not yet sent) or truncate by closing
/// (mid-body — the client already has a 200 head, so a short body,
/// whatever the ring and pipe still hold, is the only honest signal left).
fn fail_relay(cx: &mut Cx, conn: &mut Conn, why: &str) -> Verdict {
    let Some(relay) = conn.relay.take() else {
        return Verdict::Keep;
    };
    conn.deadline = None;
    cx.in_flight[relay.node].fetch_sub(1, Ordering::Relaxed);
    cx.m.relay_ns
        .record(u64::try_from(relay.started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    close_relay_span(relay.span, relay.node, true);
    discard_backend(cx, relay.backend, relay.stream);
    let detail = format!("node {}: {why}", relay.node);
    let verdict = if relay.head_sent {
        note_failure(cx, conn, Failure::BackendFailed, &detail);
        conn.close_after_flush = true;
        flush_client(cx, conn)
    } else {
        refuse(cx, conn, Failure::BackendFailed, &detail)
    };
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
