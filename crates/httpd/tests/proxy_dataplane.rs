//! Event-driven data-plane behaviours the thread-per-connection proxy
//! could not promise: slow clients cost a state machine (not a thread),
//! keep-alive connections multiplex many requests onto the pre-forked
//! pool, admission control sheds overload with immediate 503s, and
//! bodies spliced through a pipe arrive byte-exact, in order, and only
//! to the client they belong to.

use cpms_httpd::client::HttpClient;
use cpms_httpd::http::read_response;
use cpms_httpd::{ContentAwareProxy, Failure, OriginServer, ProxyConfig, SiteContent, TenantCap};
use cpms_model::{ContentId, ContentKind, NodeId, UrlPath};
use cpms_obs::MetricsRegistry;
use cpms_urltable::{TablePublisher, UrlEntry, UrlTable};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn p(s: &str) -> UrlPath {
    s.parse().unwrap()
}

/// One origin node serving `/a.html` and `/b.html`, and a table routing
/// both to it.
fn single_origin() -> (OriginServer, UrlTable) {
    let mut site = SiteContent::new();
    site.add_static("/a.html", b"alpha-body".to_vec());
    site.add_static("/b.html", b"bravo-body".to_vec());
    let origin = OriginServer::start(NodeId(0), site).unwrap();
    (origin, table_of(&["/a.html", "/b.html"]))
}

/// A slowloris-style client trickling its request head one byte at a
/// time must not stall anyone else: requests on other connections keep
/// completing while the trickle is still mid-head, because the worker
/// parks the slow connection in its state machine instead of blocking a
/// thread on it.
#[test]
fn trickled_request_head_does_not_block_other_connections() {
    let (origin, table) = single_origin();
    let proxy = ContentAwareProxy::start(table, vec![origin.addr()], 2).unwrap();

    let mut slow = TcpStream::connect(proxy.addr()).unwrap();
    slow.set_nodelay(true).unwrap();
    let head = b"GET /a.html HTTP/1.1\r\nHost: x\r\n\r\n";
    let (trickle, rest) = head.split_at(12);

    // Trickle the first bytes with real gaps, interleaving full fast
    // requests on another connection between every byte.
    let mut fast = HttpClient::connect(proxy.addr()).unwrap();
    let fast_started = Instant::now();
    for &byte in trickle {
        slow.write_all(&[byte]).unwrap();
        let resp = fast.get("/b.html").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"bravo-body");
    }
    assert!(
        fast_started.elapsed() < Duration::from_secs(5),
        "fast requests must not queue behind the slow head"
    );

    // Completing the head gets the trickler a normal response.
    slow.write_all(rest).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 1024];
    let n = slow.read(&mut buf).unwrap();
    let got = String::from_utf8_lossy(&buf[..n]);
    assert!(
        got.starts_with("HTTP/1.1 200"),
        "trickled request completes: {got:?}"
    );
    assert_eq!(proxy.relayed(), u64::try_from(trickle.len()).unwrap() + 1);
}

/// Two requests written back-to-back in one segment (pipelined) come
/// back as two correct, ordered responses on the same connection: the
/// parser must consume exactly one request head at a time from its
/// input buffer and keep the remainder for the next cycle.
#[test]
fn pipelined_keep_alive_requests_answer_in_order() {
    let (origin, table) = single_origin();
    let proxy = ContentAwareProxy::start(table, vec![origin.addr()], 2).unwrap();

    let mut conn = TcpStream::connect(proxy.addr()).unwrap();
    conn.set_nodelay(true).unwrap();
    conn.write_all(
        b"GET /a.html HTTP/1.1\r\nHost: x\r\n\r\nGET /b.html HTTP/1.1\r\nHost: x\r\n\r\n",
    )
    .unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // Both responses arrive on the same connection, in request order.
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    while got
        .windows(10)
        .filter(|w| w == b"alpha-body" || w == b"bravo-body")
        .count()
        < 2
    {
        assert!(Instant::now() < deadline, "responses incomplete: {got:?}");
        let mut buf = [0u8; 1024];
        match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => got.extend_from_slice(&buf[..n]),
            Err(e) => panic!("read failed mid-pipeline: {e}"),
        }
    }
    let text = String::from_utf8_lossy(&got);
    let a = text.find("alpha-body").expect("first response body");
    let b = text.find("bravo-body").expect("second response body");
    assert!(a < b, "responses must come back in request order: {text:?}");
    assert_eq!(proxy.relayed(), 2);
}

/// Gauge hygiene: `proxy_conn_active` must return to exactly zero after
/// every admission outcome the data plane has — a slowloris trickle that
/// completes normally, idle connections shed over the global cap, and a
/// tenant shed over its per-prefix cap. A leak here poisons every
/// aggregated `top`/`health` view and the flight recorder's history.
#[test]
fn conn_active_gauge_returns_to_zero_after_all_admission_paths() {
    let (origin, table) = single_origin();
    let registry = Arc::new(MetricsRegistry::new());
    let mut proxy = ContentAwareProxy::start_with_config(
        TablePublisher::new(table),
        vec![origin.addr()],
        Arc::clone(&registry),
        ProxyConfig {
            workers: 1,
            prefork: 2,
            max_conns: 4,
            tenant_caps: vec![TenantCap {
                prefix: "a.html".to_string(),
                max_conns: 2,
            }],
            ..ProxyConfig::default()
        },
    )
    .unwrap();
    let gauge = |registry: &MetricsRegistry| {
        registry
            .snapshot()
            .gauge("proxy_conn_active")
            .unwrap_or(i64::MIN)
    };

    // Path 1: a slowloris trickle that eventually completes and hangs up.
    let mut slow = TcpStream::connect(proxy.addr()).unwrap();
    slow.set_nodelay(true).unwrap();
    let head = b"GET /b.html HTTP/1.1\r\nHost: x\r\n\r\n";
    for chunk in head.chunks(7) {
        slow.write_all(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 1024];
    let n = slow.read(&mut buf).unwrap();
    assert!(String::from_utf8_lossy(&buf[..n]).starts_with("HTTP/1.1 200"));
    drop(slow);
    // Let the trickler's teardown finish so path 2 counts from zero.
    let deadline = Instant::now() + Duration::from_secs(5);
    while proxy.active_connections() > 0 {
        assert!(Instant::now() < deadline, "slowloris conn never released");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Path 2: fill the global cap with idle connections; the overflow
    // connection is shed with a 503 before adoption.
    let idle: Vec<TcpStream> = (0..4)
        .map(|_| TcpStream::connect(proxy.addr()).unwrap())
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while proxy.active_connections() < 4 {
        assert!(Instant::now() < deadline, "idle connections never adopted");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(gauge(&registry), 4, "all admitted connections counted");
    let mut over = TcpStream::connect(proxy.addr()).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut refusal = Vec::new();
    over.read_to_end(&mut refusal).unwrap();
    assert!(String::from_utf8_lossy(&refusal).starts_with("HTTP/1.1 503"));
    drop(over);
    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(5);
    while proxy.active_connections() > 0 {
        assert!(Instant::now() < deadline, "idle conns never released");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Path 3: the tenant cap sheds the third /a.html connection while
    // another tenant keeps flowing.
    let mut held = Vec::new();
    for _ in 0..2 {
        let mut client = HttpClient::connect(proxy.addr()).unwrap();
        assert_eq!(client.get("/a.html").unwrap().status, 200);
        held.push(client);
    }
    let mut third = HttpClient::connect(proxy.addr()).unwrap();
    assert_eq!(third.get("/a.html").unwrap().status, 503);
    let mut other = HttpClient::connect(proxy.addr()).unwrap();
    assert_eq!(other.get("/b.html").unwrap().status, 200);
    drop(third);
    drop(other);
    drop(held);

    // Every admission path unwound: the gauge must read exactly zero.
    let deadline = Instant::now() + Duration::from_secs(5);
    while gauge(&registry) != 0 {
        assert!(
            Instant::now() < deadline,
            "proxy_conn_active leaked: {} after every connection closed",
            gauge(&registry)
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(proxy.active_connections(), 0);
    proxy.shutdown();
    assert_eq!(gauge(&registry), 0, "shutdown must not unbalance the gauge");
}

/// Connections beyond `max_conns` are shed at accept with an immediate
/// 503 — no queueing behind the event loop — and counted on the
/// `proxy_conn_rejected_total` counter.
#[test]
fn connections_over_the_cap_shed_fast_503s() {
    let (origin, table) = single_origin();
    let registry = Arc::new(MetricsRegistry::new());
    let mut proxy = ContentAwareProxy::start_with_config(
        TablePublisher::new(table),
        vec![origin.addr()],
        Arc::clone(&registry),
        ProxyConfig {
            workers: 1,
            prefork: 2,
            max_conns: 8,
            ..ProxyConfig::default()
        },
    )
    .unwrap();

    // Fill the admission budget with idle keep-alive connections.
    let idle: Vec<TcpStream> = (0..8)
        .map(|_| TcpStream::connect(proxy.addr()).unwrap())
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while proxy.active_connections() < 8 {
        assert!(Instant::now() < deadline, "idle connections never adopted");
        std::thread::sleep(Duration::from_millis(2));
    }

    // The ninth is refused before it even sends a request.
    let mut over = TcpStream::connect(proxy.addr()).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let shed_at = Instant::now();
    let mut refusal = Vec::new();
    over.read_to_end(&mut refusal).unwrap();
    assert!(
        shed_at.elapsed() < Duration::from_secs(2),
        "overload shedding must be immediate"
    );
    let text = String::from_utf8_lossy(&refusal);
    assert!(text.starts_with("HTTP/1.1 503"), "shed with 503: {text:?}");

    let rejected = registry
        .snapshot()
        .counter("proxy_conn_rejected_total")
        .unwrap_or(0);
    assert!(rejected >= 1, "shed connection must be counted");

    // Shedding the excess never harms admitted connections.
    drop(idle);
    let free_deadline = Instant::now() + Duration::from_secs(5);
    while proxy.active_connections() > 0 {
        assert!(Instant::now() < free_deadline, "idle conns never released");
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    assert_eq!(client.get("/a.html").unwrap().status, 200);
    proxy.shutdown();
}

/// A backend's response head is outside input: one announcing a body no
/// allocator can hold must cost that exchange — a truncated 200 or a
/// 502 — and nothing else. The proxy process, its workers and every
/// other connection carry on.
#[test]
fn hostile_backend_content_length_costs_one_exchange_not_the_process() {
    // Node 1 answers every request with the hostile head, two body
    // bytes, and a close.
    let hostile_addr = scripted_backend(|_, stream| {
        let _ =
            stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 4611686018427387904\r\n\r\nxx");
        false
    });

    let (origin, mut table) = single_origin();
    table
        .insert(
            p("/evil.html"),
            UrlEntry::new(ContentId(9), ContentKind::StaticHtml, 16).with_locations([NodeId(1)]),
        )
        .unwrap();
    let mut proxy = ContentAwareProxy::start(table, vec![origin.addr(), hostile_addr], 2).unwrap();

    let mut victim = TcpStream::connect(proxy.addr()).unwrap();
    victim
        .write_all(b"GET /evil.html HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    victim
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut got = Vec::new();
    victim.read_to_end(&mut got).unwrap();
    let text = String::from_utf8_lossy(&got);
    assert!(
        text.starts_with("HTTP/1.1 200") && text.ends_with("\r\n\r\nxx")
            || text.starts_with("HTTP/1.1 502"),
        "a short 200 or a 502: {text:?}"
    );

    let mut fresh = HttpClient::connect(proxy.addr()).unwrap();
    let resp = fresh.get("/a.html").unwrap();
    assert_eq!((resp.status, &resp.body[..]), (200, &b"alpha-body"[..]));
    proxy.shutdown();
}

/// A back end that answers each request head it reads by calling
/// `reply(path, stream)`; the connection stays open while `reply`
/// returns true.
fn scripted_backend(
    reply: impl Fn(&str, &mut TcpStream) -> bool + Send + Sync + 'static,
) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let reply = Arc::new(reply);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            let reply = Arc::clone(&reply);
            std::thread::spawn(move || loop {
                let mut head = Vec::new();
                let mut byte = [0u8; 1];
                while !head.ends_with(b"\r\n\r\n") {
                    match stream.read(&mut byte) {
                        Ok(1) => head.push(byte[0]),
                        _ => return,
                    }
                }
                let text = String::from_utf8_lossy(&head);
                let path = text.split_whitespace().nth(1).unwrap_or("").to_string();
                if !reply(&path, &mut stream) {
                    return;
                }
            });
        }
    });
    addr
}

/// A table routing each path to node 0.
fn table_of(paths: &[&str]) -> UrlTable {
    let mut table = UrlTable::new();
    for (i, path) in paths.iter().enumerate() {
        table
            .insert(
                p(path),
                UrlEntry::new(ContentId(i as u32), ContentKind::StaticHtml, 16)
                    .with_locations([NodeId(0)]),
            )
            .unwrap();
    }
    table
}

/// A one-worker proxy (every connection shares one pipe stack) in front
/// of `backend`, and its registry.
fn one_worker_proxy(
    table: UrlTable,
    backend: SocketAddr,
    prefork: u32,
) -> (ContentAwareProxy, Arc<MetricsRegistry>) {
    let registry = Arc::new(MetricsRegistry::new());
    let proxy = ContentAwareProxy::start_with_config(
        TablePublisher::new(table),
        vec![backend],
        Arc::clone(&registry),
        ProxyConfig {
            workers: 1,
            prefork,
            ..ProxyConfig::default()
        },
    )
    .unwrap();
    (proxy, registry)
}

fn counter(registry: &MetricsRegistry, name: &str) -> u64 {
    registry.snapshot().counter(name).unwrap_or(0)
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Body sizes around the 16 KiB first backend read (the only body bytes
/// that pass through user space), around the 64 KiB default pipe, and
/// well past both.
const BODY_SIZES: [usize; 7] = [16_383, 16_384, 16_385, 65_536, 65_537, 1 << 20, HUGE];

const HUGE: usize = (4 << 20) + 7;

/// A body larger than what a loopback socket to an idle reader plus a
/// pipe of socket-buffer fragments hold together (≈4–5 MB under Linux's
/// default TCP buffer autotuning, 4 MiB send-buffer cap), so its relay
/// stalls with the back end still holding bytes.
const STALLER: usize = 8 << 20;

/// A body whose bytes depend on their offset and on the body's length,
/// so a shifted, dropped or foreign byte cannot pass for a right one.
fn pattern(len: usize) -> Vec<u8> {
    let mut x = len as u64 | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

fn big_path(len: usize) -> String {
    format!("/big/{len}.bin")
}

/// An origin serving a pattern body of every size in [`BODY_SIZES`],
/// [`STALLER`] and the small `/a.html`, behind a one-worker proxy.
fn big_bodies_proxy() -> (OriginServer, ContentAwareProxy, Arc<MetricsRegistry>) {
    let mut site = SiteContent::new();
    site.add_static("/a.html", b"alpha-body".to_vec());
    let mut paths = vec!["/a.html".to_string()];
    for len in BODY_SIZES.into_iter().chain([STALLER]) {
        site.add_static(&big_path(len), pattern(len));
        paths.push(big_path(len));
    }
    let origin = OriginServer::start(NodeId(0), site).unwrap();
    let paths: Vec<&str> = paths.iter().map(String::as_str).collect();
    let (proxy, registry) = one_worker_proxy(table_of(&paths), origin.addr(), 2);
    (origin, proxy, registry)
}

fn get_raw(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").into_bytes()
}

/// Every body size, three times over on one keep-alive connection,
/// arrives byte-exact, and each body byte is counted once: through user
/// space (at most what arrived with the head) or spliced.
#[test]
fn bodies_around_every_buffer_boundary_relay_byte_exact_on_one_connection() {
    let (_origin, proxy, registry) = big_bodies_proxy();
    let bodies: Vec<Vec<u8>> = BODY_SIZES.iter().map(|&len| pattern(len)).collect();
    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    for _ in 0..3 {
        for (len, body) in BODY_SIZES.iter().zip(&bodies) {
            let resp = client.get(&big_path(*len)).unwrap();
            assert_eq!(resp.status, 200);
            assert!(resp.body == *body, "the {len} B body arrived altered");
        }
    }
    assert_eq!(
        client.reconnects(),
        0,
        "one keep-alive connection throughout"
    );

    let responses = 3 * BODY_SIZES.len() as u64;
    let total = 3 * BODY_SIZES.iter().sum::<usize>() as u64;
    let copied = counter(&registry, "proxy_body_copied_bytes_total");
    let spliced = counter(&registry, "proxy_body_spliced_bytes_total");
    assert_eq!(copied + spliced, total, "every body byte counted once");
    assert!(
        copied <= responses * 16 * 1024,
        "{copied} B through user space for {responses} responses"
    );
}

/// Pipelined large, large, small on one connection come back in request
/// order — and so do 800 more pipelined behind them while the reader
/// pauses. The pause fills the socket to the client mid-pipeline, so
/// some 16,385 B response (whose body ends in one ~70 B fill) completes
/// its relay with its tail still owed: the next response must wait for
/// that tail, not overtake it.
#[test]
fn pipelined_large_large_small_answer_in_order() {
    let (_origin, proxy, _registry) = big_bodies_proxy();
    let (huge, odd, tailed) = (pattern(HUGE), pattern(65_537), pattern(16_385));
    let mut wants: Vec<(String, &[u8])> = vec![
        (big_path(HUGE), &huge),
        (big_path(65_537), &odd),
        ("/a.html".to_string(), b"alpha-body"),
    ];
    for _ in 0..400 {
        wants.push((big_path(16_385), &tailed));
        wants.push(("/a.html".to_string(), b"alpha-body"));
    }
    let conn = TcpStream::connect(proxy.addr()).unwrap();
    let requests: Vec<u8> = wants.iter().flat_map(|(path, _)| get_raw(path)).collect();
    (&conn).write_all(&requests).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(conn);
    for (i, (path, want)) in wants.iter().enumerate() {
        if i == 3 {
            std::thread::sleep(Duration::from_millis(200));
        }
        let resp =
            read_response(&mut reader).unwrap_or_else(|e| panic!("response {i} unreadable: {e:?}"));
        assert_eq!(resp.status, 200, "response {i}");
        assert!(
            resp.body == *want,
            "response {i} ({path}) out of order or altered"
        );
    }
}

/// Waits until no body byte has been spliced for 50 ms: a relay behind a
/// client that stopped reading has then filled the socket and its pipe.
fn wait_for_stall(registry: &MetricsRegistry) {
    let mut last = u64::MAX;
    wait_until("the relay stalls behind the unread client", || {
        let now = counter(registry, "proxy_body_spliced_bytes_total");
        std::thread::sleep(Duration::from_millis(50));
        std::mem::replace(&mut last, now) == now
    });
}

/// Takes at most 64 KiB per read, 2 ms apart.
struct Throttled(TcpStream);

impl Read for Throttled {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        std::thread::sleep(Duration::from_millis(2));
        let cap = buf.len().min(64 * 1024);
        self.0.read(&mut buf[..cap])
    }
}

/// A reader that stalls an 8 MiB body — its socket full, its pipe full,
/// the back end with bytes still to send — idles, and then drains it
/// slowly holds up no neighbour on the same worker, and the worker
/// sleeps while it waits: a back end left armed beside a full pipe
/// answers `WouldBlock` to every fill and spins the loop.
#[test]
fn a_slow_reader_neither_stalls_a_neighbour_nor_spins_the_loop() {
    let (_origin, proxy, registry) = big_bodies_proxy();
    let slow = TcpStream::connect(proxy.addr()).unwrap();
    (&slow).write_all(&get_raw(&big_path(STALLER))).unwrap();
    wait_for_stall(&registry);
    let polls_before = counter(&registry, "reactor_polls_total");
    std::thread::sleep(Duration::from_millis(200));

    let started = Instant::now();
    let mut neighbour = HttpClient::connect(proxy.addr()).unwrap();
    let mib = pattern(1 << 20);
    for _ in 0..20 {
        assert_eq!(neighbour.get("/a.html").unwrap().body, b"alpha-body");
    }
    for _ in 0..2 {
        assert!(neighbour.get(&big_path(1 << 20)).unwrap().body == mib);
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the neighbour waited on the stalled relay"
    );

    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let resp = read_response(&mut BufReader::with_capacity(64 * 1024, Throttled(slow)))
        .expect("slow reader's response");
    assert!(resp.body == pattern(STALLER), "slow reader's body altered");
    let polls = counter(&registry, "reactor_polls_total") - polls_before;
    assert!(
        polls < 5_000,
        "{polls} poller rounds while a slow reader held 8 MiB: the loop spun"
    );
}

/// A back end that closes mid-body leaves the client what it sent — the
/// 200 head and a short body, exact — then a close.
#[test]
fn a_backend_closing_mid_body_costs_a_short_body_and_a_close() {
    let sent = pattern(300_000);
    let backend = {
        let sent = sent.clone();
        scripted_backend(move |_, stream| {
            let mut out = b"HTTP/1.1 200 OK\r\nContent-Length: 1000000\r\n\r\n".to_vec();
            out.extend_from_slice(&sent);
            let _ = stream.write_all(&out);
            false
        })
    };
    let (proxy, registry) = one_worker_proxy(table_of(&["/cut.bin"]), backend, 1);
    let mut conn = TcpStream::connect(proxy.addr()).unwrap();
    conn.write_all(&get_raw("/cut.bin")).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut got = Vec::new();
    conn.read_to_end(&mut got).unwrap();
    let head_end = got
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("a response head")
        + 4;
    let head = String::from_utf8_lossy(&got[..head_end]);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("Content-Length: 1000000"), "{head}");
    assert!(
        got[head_end..] == sent[..],
        "short body: {} of {} B sent",
        got.len() - head_end,
        sent.len()
    );
    assert_eq!(counter(&registry, "proxy_backend_errors_total"), 1);
}

/// A client that vanishes mid-body (its pipe full of its body) frees its
/// connection, and the next client on that worker — who may well get
/// the same pipe — reads exactly its own bytes.
#[test]
fn a_client_vanishing_mid_body_leaves_no_bytes_for_the_next() {
    let (_origin, proxy, registry) = big_bodies_proxy();
    let gauge = || {
        registry
            .snapshot()
            .gauge("proxy_conn_active")
            .unwrap_or(i64::MIN)
    };
    let (huge, odd) = (pattern(HUGE), pattern(65_537));
    for _ in 0..3 {
        let mut gone = TcpStream::connect(proxy.addr()).unwrap();
        gone.write_all(&get_raw(&big_path(HUGE))).unwrap();
        gone.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = vec![0u8; 64 * 1024];
        let n = gone.read(&mut buf).unwrap();
        assert!(buf[..n].starts_with(b"HTTP/1.1 200"));
        wait_for_stall(&registry);
        drop(gone);
        wait_until("the vanished client is torn down", || {
            proxy.active_connections() == 0 && gauge() == 0
        });

        let mut next = HttpClient::connect(proxy.addr()).unwrap();
        assert!(next.get(&big_path(65_537)).unwrap().body == odd);
        assert_eq!(next.get("/a.html").unwrap().body, b"alpha-body");
        assert!(next.get(&big_path(HUGE)).unwrap().body == huge);
        drop(next);
        wait_until("the next client is torn down", || gauge() == 0);
    }
}

/// The paper's close sequence on live sockets: a client that sends one GET
/// and half-closes (`FIN_RECEIVED`) still gets its whole response, then
/// EOF (`HALF_CLOSED → CLOSED`), and "the pre-forked connection returns to
/// the available list" — for a small body and for a 1 MiB spliced one.
/// With one pre-forked connection, a request that found it missing would
/// open an overflow connection.
#[test]
fn a_half_closed_client_gets_its_whole_response_then_eof_and_the_backend_is_pooled() {
    let mib = pattern(1 << 20);
    let mut site = SiteContent::new();
    site.add_static("/a.html", b"alpha-body".to_vec());
    site.add_static(&big_path(1 << 20), mib.clone());
    let origin = OriginServer::start(NodeId(0), site).unwrap();
    let (proxy, registry) =
        one_worker_proxy(table_of(&["/a.html", &big_path(1 << 20)]), origin.addr(), 1);
    let gauge = || {
        registry
            .snapshot()
            .gauge("proxy_conn_active")
            .unwrap_or(i64::MIN)
    };

    for (path, want) in [
        ("/a.html".to_string(), &b"alpha-body"[..]),
        (big_path(1 << 20), &mib[..]),
    ] {
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.write_all(&get_raw(&path)).unwrap();
        conn.shutdown(Shutdown::Write).unwrap();
        let fin_sent = Instant::now();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut got = Vec::new();
        conn.read_to_end(&mut got)
            .unwrap_or_else(|e| panic!("{path}: no EOF after the FIN: {e}"));
        assert!(
            fin_sent.elapsed() < Duration::from_secs(5),
            "{path}: EOF took {:?}",
            fin_sent.elapsed()
        );
        let head_end = got
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("a response head")
            + 4;
        assert!(got.starts_with(b"HTTP/1.1 200"), "{path}");
        assert!(got[head_end..] == *want, "{path}: body altered or short");
        wait_until("the half-closed connection is torn down", || gauge() == 0);
    }
    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    assert_eq!(client.get("/a.html").unwrap().body, b"alpha-body");
    assert_eq!(counter(&registry, "proxy_pool_discards_total"), 0);
    assert_eq!(proxy.overflow_connects(), 0, "a backend left the pool");
    assert!(counter(&registry, "proxy_body_spliced_bytes_total") > 0);
}

/// A back end that sends bytes past the declared body has desynchronised
/// its connection: the proxy discards it (and counts the discard) instead
/// of pooling it, so the next client's exchange is clean.
#[test]
fn a_backend_connection_with_bytes_past_the_body_is_discarded() {
    let backend = scripted_backend(|path, stream| {
        let reply: &[u8] = if path == "/stray.html" {
            // A whole response, then the start of one nobody asked for;
            // its tail follows once the proxy has moved on.
            let _ = stream.write_all(
                b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfirstHTTP/1.1 200 OK\r\nContent-Len",
            );
            std::thread::sleep(Duration::from_millis(50));
            b"gth: 5\r\n\r\nWRONG"
        } else {
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nclean"
        };
        stream.write_all(reply).is_ok()
    });
    let (proxy, registry) = one_worker_proxy(table_of(&["/stray.html", "/clean.html"]), backend, 1);
    let mut first = HttpClient::connect(proxy.addr()).unwrap();
    let resp = first.get("/stray.html").unwrap();
    assert_eq!((resp.status, &resp.body[..]), (200, &b"first"[..]));
    let mut next = HttpClient::connect(proxy.addr()).unwrap();
    let resp = next.get("/clean.html").unwrap();
    assert_eq!((resp.status, &resp.body[..]), (200, &b"clean"[..]));
    assert_eq!(counter(&registry, "proxy_pool_discards_total"), 1);
}

/// A back end that answers `Connection: close` and hangs up has told the
/// proxy the connection is done: it is discarded, not pooled, so the next
/// client is not bound to a closing socket and handed a 502. Back to back,
/// with nothing between the requests to let the hangup be seen first.
#[test]
fn a_backend_connection_close_is_honoured_not_pooled() {
    let backend = scripted_backend(|_, stream| {
        let _ = stream
            .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbye!");
        false
    });
    let (proxy, registry) = one_worker_proxy(table_of(&["/close.html"]), backend, 1);
    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    let statuses: Vec<u16> = (0..3)
        .map(|_| client.get("/close.html").unwrap().status)
        .collect();
    assert_eq!(statuses, [200, 200, 200]);
    assert_eq!(counter(&registry, "proxy_pool_discards_total"), 3);
    assert_eq!(counter(&registry, "proxy_backend_errors_total"), 0);
}

/// A pooled connection is watched while idle: when its back end hangs up,
/// or sends bytes nobody asked for, the proxy discards it on the spot (and
/// counts it), and the next request is served on another connection —
/// never fed the stray bytes as its response.
#[test]
fn an_idle_pooled_connection_that_hangs_up_or_babbles_is_discarded() {
    use std::sync::{mpsc, Mutex};

    // Each connection answers with its own name (the proxy's port). On
    // `/babble.html` it then waits for the test's word and sends the start
    // of a response nobody asked for; on `/hangup.html` it hangs up once
    // it has answered.
    let (babble_tx, babble_rx) = mpsc::channel::<()>();
    let babble_rx = Mutex::new(babble_rx);
    let backend = scripted_backend(move |path, stream| {
        let body = format!("conn-{:05}", stream.peer_addr().unwrap().port());
        let reply = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        if stream.write_all(reply.as_bytes()).is_err() {
            return false;
        }
        match path {
            "/babble.html" => {
                babble_rx.lock().unwrap().recv().unwrap();
                stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Len").is_ok()
            }
            "/hangup.html" => false,
            _ => true,
        }
    });
    let (proxy, registry) = one_worker_proxy(
        table_of(&["/babble.html", "/hangup.html", "/next.html"]),
        backend,
        1,
    );
    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    let discards = || counter(&registry, "proxy_pool_discards_total");

    // Round one babbles on the pre-forked connection; round two hangs up
    // on the one round one's `/next.html` opened and pooled.
    for (trigger, after) in [("/babble.html", 1), ("/hangup.html", 2)] {
        let first = client.get(trigger).unwrap();
        assert_eq!(first.status, 200);
        if trigger == "/babble.html" {
            babble_tx.send(()).unwrap();
        }
        wait_until("the idle connection is discarded", || discards() == after);
        let next = client.get("/next.html").unwrap();
        assert_eq!(next.status, 200);
        assert!(next.body.starts_with(b"conn-"), "{:?}", next.body);
        assert_ne!(next.body, first.body, "served on another connection");
        assert_eq!(counter(&registry, "proxy_backend_errors_total"), 0);
    }
}

/// Every response the proxy makes itself is one `Failure`, driven here
/// through a live proxy per variant: the variant's status with its token
/// as the body, one count on its own counter and none on any other, the
/// connection closed or kept as the variant says, and — for a request
/// that opened a span — the span failed with the token first in its
/// detail.
#[test]
fn every_failure_answers_its_status_and_token_and_counts_once() {
    let (origin, table) = single_origin();
    let refusing = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let hanging_up = scripted_backend(|_, _| false);
    for failure in Failure::ALL {
        let mut config = ProxyConfig {
            workers: 1,
            prefork: 1,
            ..ProxyConfig::default()
        };
        let mut backend = origin.addr();
        let mut request = "GET /a.html HTTP/1.1\r\nHost: x\r\n\r\n";
        match failure {
            Failure::Malformed => request = "GARBAGE\r\n\r\n",
            Failure::Unsupported => request = "HEAD /a.html HTTP/1.1\r\nHost: x\r\n\r\n",
            Failure::TenantOverCap => {
                config.tenant_caps = vec![TenantCap {
                    prefix: "a.html".to_string(),
                    max_conns: 0,
                }];
            }
            Failure::Unroutable => request = "GET /nowhere HTTP/1.1\r\nHost: x\r\n\r\n",
            Failure::BackendConnect => backend = refusing,
            Failure::BackendFailed => backend = hanging_up,
            // Shed at accept, before a request is read.
            Failure::Overloaded => (config.max_conns, request) = (0, ""),
        }
        let registry = Arc::new(MetricsRegistry::new());
        let proxy = ContentAwareProxy::start_with_config(
            TablePublisher::new(table.clone()),
            vec![backend],
            Arc::clone(&registry),
            config,
        )
        .unwrap();
        let conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut reader = BufReader::new(&conn);
        for round in 0..2 {
            (&conn).write_all(request.as_bytes()).unwrap();
            let resp = read_response(&mut reader).unwrap();
            assert_eq!(
                (resp.status, &resp.body[..]),
                (failure.status(), failure.token().as_bytes()),
                "{failure:?}"
            );
            if round == 0 {
                for other in Failure::ALL {
                    assert_eq!(
                        counter(&registry, other.counter()),
                        u64::from(other == failure),
                        "{failure:?} moved {}",
                        other.counter()
                    );
                }
            }
            if failure.closes() {
                let mut rest = Vec::new();
                reader.read_to_end(&mut rest).unwrap();
                assert!(rest.is_empty(), "{failure:?} closes: {rest:?}");
                break;
            }
            // Kept open: the same request again gets the same answer.
        }
        if !matches!(failure, Failure::Malformed | Failure::Overloaded) {
            let spans = || registry.spans().snapshot();
            wait_until("the request span is recorded", || {
                spans().iter().any(|s| s.name == "proxy.request")
            });
            let span = spans()
                .into_iter()
                .find(|s| s.name == "proxy.request")
                .unwrap();
            assert!(span.error, "{failure:?}");
            assert!(
                span.detail.starts_with(&format!("{}: /", failure.token())),
                "{failure:?}: {}",
                span.detail
            );
        }
    }
}

/// The proxy relays a GET without a body and refuses anything else with
/// one 501 and a close: a HEAD relayed as a GET gets a body its client
/// will not read, and a request body would parse as the next request —
/// here smuggling a GET past the client's framing.
#[test]
fn a_head_or_a_request_with_a_body_gets_one_501_and_a_close() {
    let (origin, table) = single_origin();
    let (proxy, registry) = one_worker_proxy(table, origin.addr(), 1);
    let smuggled = "GET /b.html HTTP/1.1\r\nHost: x\r\n\r\n";
    let with_body = |method: &str| {
        format!(
            "{method} /a.html HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{smuggled}",
            smuggled.len()
        )
    };
    for request in [
        "HEAD /a.html HTTP/1.1\r\nHost: x\r\n\r\n".to_string(),
        with_body("POST"),
        with_body("GET"),
    ] {
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.write_all(request.as_bytes()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut got = Vec::new();
        conn.read_to_end(&mut got).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&got),
            "HTTP/1.1 501 Not Implemented\r\nContent-Length: 11\r\nConnection: close\r\n\r\nunsupported",
            "{request:?}"
        );
    }
    assert_eq!(origin.served(), 0);
    assert_eq!(counter(&registry, "proxy_relayed_total"), 0);
}
