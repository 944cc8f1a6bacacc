//! Event-driven data-plane behaviours the thread-per-connection proxy
//! could not promise: slow clients cost a state machine (not a thread),
//! keep-alive connections multiplex many requests onto the pre-forked
//! pool, and admission control sheds overload with immediate 503s.

use cpms_httpd::client::HttpClient;
use cpms_httpd::{ContentAwareProxy, OriginServer, ProxyConfig, SiteContent};
use cpms_model::{ContentId, ContentKind, NodeId, UrlPath};
use cpms_obs::MetricsRegistry;
use cpms_urltable::{TablePublisher, UrlEntry, UrlTable};
use std::io::{Read, Write};
use std::net::TcpStream;
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
    let mut table = UrlTable::new();
    for (i, path) in ["/a.html", "/b.html"].iter().enumerate() {
        table
            .insert(
                p(path),
                UrlEntry::new(ContentId(i as u32), ContentKind::StaticHtml, 16)
                    .with_locations([NodeId(0)]),
            )
            .unwrap();
    }
    (origin, table)
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
            tenant_caps: vec![cpms_httpd::TenantCap {
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
    let hostile = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let hostile_addr = hostile.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in hostile.incoming() {
            let Ok(mut stream) = stream else { return };
            std::thread::spawn(move || {
                let mut head = Vec::new();
                let mut byte = [0u8; 1];
                while !head.ends_with(b"\r\n\r\n") {
                    match stream.read(&mut byte) {
                        Ok(1) => head.push(byte[0]),
                        _ => return,
                    }
                }
                let _ = stream
                    .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 4611686018427387904\r\n\r\nxx");
            });
        }
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
