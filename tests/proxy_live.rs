//! Live-socket integration: the content-aware proxy and a content-blind
//! layer-4 baseline fronting real origin servers, including a
//! management-driven migration while traffic flows.

use cpms_httpd::client::HttpClient;
use cpms_httpd::{ContentAwareProxy, OriginServer, SiteContent};
use cpms_model::{ContentId, ContentKind, NodeId, UrlPath};
use cpms_urltable::{UrlEntry, UrlTable};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

fn p(s: &str) -> UrlPath {
    s.parse().unwrap()
}

/// The layer-4 baseline: each accepted connection is bound to the next
/// back end round-robin before a byte of it is read, then piped both
/// ways. Blocking, two threads per connection. The threads are detached
/// and the listener lives until the test process exits, so a failing
/// client fails the test at once instead of waiting on them.
fn l4_round_robin(backends: Vec<SocketAddr>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for (client, backend) in listener.incoming().zip(backends.iter().cycle()) {
            let (Ok(client), Ok(server)) = (client, TcpStream::connect(backend)) else {
                continue;
            };
            pipe(client.try_clone().unwrap(), server.try_clone().unwrap());
            pipe(server, client);
        }
    });
    addr
}

/// Copies `from` into `to` on a thread of its own, passing EOF on.
fn pipe(mut from: TcpStream, mut to: TcpStream) {
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut from, &mut to);
        let _ = to.shutdown(Shutdown::Write);
    });
}

/// Partitioned site over three origin nodes.
fn partitioned_cluster() -> (Vec<OriginServer>, UrlTable) {
    let mut html = SiteContent::new();
    html.add_static("/index.html", b"<html>home</html>".to_vec());
    html.add_static("/about.html", b"<html>about</html>".to_vec());

    let mut img = SiteContent::new();
    img.add_static("/img/logo.gif", vec![0x47; 8 * 1024]);

    let mut cgi = SiteContent::new();
    cgi.add_dynamic("/cgi-bin/q.cgi", Duration::from_millis(4), 256);

    let origins = vec![
        OriginServer::start(NodeId(0), html).unwrap(),
        OriginServer::start(NodeId(1), img).unwrap(),
        OriginServer::start(NodeId(2), cgi).unwrap(),
    ];

    let mut table = UrlTable::new();
    let rows: [(&str, ContentKind, u16); 4] = [
        ("/index.html", ContentKind::StaticHtml, 0),
        ("/about.html", ContentKind::StaticHtml, 0),
        ("/img/logo.gif", ContentKind::Image, 1),
        ("/cgi-bin/q.cgi", ContentKind::Cgi, 2),
    ];
    for (i, (path, kind, node)) in rows.iter().enumerate() {
        table
            .insert(
                p(path),
                UrlEntry::new(ContentId(i as u32), *kind, 1024).with_locations([NodeId(*node)]),
            )
            .unwrap();
    }
    (origins, table)
}

#[test]
fn content_aware_proxy_serves_partitioned_site() {
    let (origins, table) = partitioned_cluster();
    let backends = origins.iter().map(|o| o.addr()).collect();
    let proxy = ContentAwareProxy::start(table, backends, 2).unwrap();

    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    assert_eq!(
        client.get("/index.html").unwrap().body,
        b"<html>home</html>"
    );
    assert_eq!(client.get("/img/logo.gif").unwrap().body.len(), 8 * 1024);
    let dynamic = client.get("/cgi-bin/q.cgi").unwrap();
    assert_eq!(dynamic.status, 200);
    assert_eq!(dynamic.body.len(), 256);

    // each request reached exactly the node hosting the content
    assert_eq!(origins[0].served(), 1);
    assert_eq!(origins[1].served(), 1);
    assert_eq!(origins[2].served(), 1);
    assert_eq!(proxy.relayed(), 3);
    assert_eq!(proxy.unroutable(), 0);
}

#[test]
fn l4_baseline_cannot_serve_partitioned_site() {
    let (origins, _table) = partitioned_cluster();
    let l4 = l4_round_robin(origins.iter().map(|o| o.addr()).collect());

    // The same path over nine connections: connection i lands on node
    // i mod 3, and only node 0 holds the page.
    let statuses: Vec<u16> = (0..9)
        .map(|_| {
            let mut client = HttpClient::connect(l4).unwrap();
            client.get("/index.html").unwrap().status
        })
        .collect();
    assert_eq!(
        statuses,
        [200, 404, 404, 200, 404, 404, 200, 404, 404],
        "content-blind routing serves 3 of 9 and misses the other 6"
    );
}

#[test]
fn migration_under_live_traffic() {
    let (origins, table) = partitioned_cluster();
    let backends = origins.iter().map(|o| o.addr()).collect();
    let proxy = ContentAwareProxy::start(table, backends, 2).unwrap();
    let addr = proxy.addr();
    let publisher = proxy.publisher();

    let stop = std::sync::atomic::AtomicBool::new(false);
    let failures = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        // Four clients hammer the page throughout the migration.
        for _ in 0..4 {
            scope.spawn(|| {
                let mut client = HttpClient::connect(addr).unwrap();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let resp = client.get("/index.html").unwrap();
                    if resp.status != 200 {
                        failures.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
        // Management migrates /index.html from node 0 to node 2 with a
        // copy-then-switch-then-drop sequence (replicate; update table;
        // offload) so there is no window without a copy.
        scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(30));
            origins[2].add_static("/index.html", b"<html>home</html>".to_vec());
            publisher
                .update(|t| t.add_location(&p("/index.html"), NodeId(2)))
                .unwrap();
            std::thread::sleep(Duration::from_millis(30));
            publisher
                .update(|t| t.remove_location(&p("/index.html"), NodeId(0)))
                .unwrap();
            // only after the table stops routing there is the copy deleted
            std::thread::sleep(Duration::from_millis(30));
            origins[0].remove(&p("/index.html"));
            std::thread::sleep(Duration::from_millis(30));
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
    });

    assert_eq!(
        failures.load(std::sync::atomic::Ordering::Relaxed),
        0,
        "copy-then-switch migration must be hitless"
    );
    assert!(origins[2].served() > 0, "traffic moved to the new node");
}

#[test]
fn proxy_prefers_less_loaded_replica() {
    // Two replicas, one of which is slow (dynamic with a delay standing in
    // for an overloaded node): in-flight balancing shifts traffic to the
    // fast one.
    let mut fast = SiteContent::new();
    fast.add_static("/page", b"fast".to_vec());
    let mut slow = SiteContent::new();
    slow.add_dynamic("/page", Duration::from_millis(30), 4);

    let fast_origin = OriginServer::start(NodeId(0), fast).unwrap();
    let slow_origin = OriginServer::start(NodeId(1), slow).unwrap();

    let mut table = UrlTable::new();
    table
        .insert(
            p("/page"),
            UrlEntry::new(ContentId(0), ContentKind::StaticHtml, 4)
                .with_locations([NodeId(0), NodeId(1)]),
        )
        .unwrap();
    let proxy =
        ContentAwareProxy::start(table, vec![fast_origin.addr(), slow_origin.addr()], 2).unwrap();
    let addr = proxy.addr();

    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for _ in 0..30 {
                    assert_eq!(client.get("/page").unwrap().status, 200);
                }
            });
        }
    });
    assert!(
        fast_origin.served() > slow_origin.served() * 2,
        "fast replica should take most traffic: fast={} slow={}",
        fast_origin.served(),
        slow_origin.served()
    );
}

#[test]
fn proxy_survives_many_sequential_connections() {
    let (origins, table) = partitioned_cluster();
    let backends = origins.iter().map(|o| o.addr()).collect();
    let proxy = ContentAwareProxy::start(table, backends, 2).unwrap();
    for _ in 0..50 {
        let mut client = HttpClient::connect(proxy.addr()).unwrap();
        assert_eq!(client.get("/about.html").unwrap().status, 200);
        // client dropped: proxy connection thread unwinds
    }
    assert_eq!(proxy.relayed(), 50);
}
