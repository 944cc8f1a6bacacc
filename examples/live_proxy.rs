//! The data plane over real sockets: three origin servers with partitioned
//! content, fronted by the content-aware proxy, with a live management
//! operation (replication) taking effect mid-run.
//!
//! Run with: `cargo run --release -p cpms-core --example live_proxy`

use cpms_httpd::client::HttpClient;
use cpms_httpd::{ContentAwareProxy, Failure, OriginServer, SiteContent};
use cpms_model::{ContentId, ContentKind, NodeId, UrlPath};
use cpms_urltable::{UrlEntry, UrlTable};
use std::time::{Duration, Instant};

fn main() -> std::io::Result<()> {
    // --- three origin nodes with partitioned content
    let mut html_site = SiteContent::new();
    html_site.add_static("/index.html", b"<html>welcome</html>".to_vec());
    html_site.add_static("/about.html", b"<html>about us</html>".to_vec());

    let mut img_site = SiteContent::new();
    img_site.add_static("/img/logo.gif", vec![0x47; 24 * 1024]);

    let mut cgi_site = SiteContent::new();
    cgi_site.add_dynamic("/cgi-bin/search.cgi", Duration::from_millis(8), 512);

    let origins = vec![
        OriginServer::start(NodeId(0), html_site)?,
        OriginServer::start(NodeId(1), img_site)?,
        OriginServer::start(NodeId(2), cgi_site)?,
    ];
    println!("origins listening:");
    for o in &origins {
        println!("  {} -> {}", o.node(), o.addr());
    }

    // --- the URL table routes each path to its hosting node
    let mut table = UrlTable::new();
    let entries: [(&str, ContentKind, u16); 4] = [
        ("/index.html", ContentKind::StaticHtml, 0),
        ("/about.html", ContentKind::StaticHtml, 0),
        ("/img/logo.gif", ContentKind::Image, 1),
        ("/cgi-bin/search.cgi", ContentKind::Cgi, 2),
    ];
    for (i, (path, kind, node)) in entries.iter().enumerate() {
        table
            .insert(
                path.parse().expect("valid path"),
                UrlEntry::new(ContentId(i as u32), *kind, 1024).with_locations([NodeId(*node)]),
            )
            .expect("fresh table");
    }

    let backends = origins.iter().map(|o| o.addr()).collect();
    let proxy = ContentAwareProxy::start(table, backends, 4)?;
    println!("content-aware proxy on {}\n", proxy.addr());

    // --- drive some traffic
    let mut client = HttpClient::connect(proxy.addr())?;
    for path in ["/index.html", "/img/logo.gif", "/cgi-bin/search.cgi"] {
        let start = Instant::now();
        let resp = client.get(path)?;
        println!(
            "GET {path} -> {} ({} bytes, {:?})",
            resp.status,
            resp.body.len(),
            start.elapsed()
        );
    }

    // --- live management: replicate the home page onto the image node,
    // published as a fresh table snapshot the workers pick up atomically
    println!("\nmanagement: replicating /index.html onto n1 (live)");
    origins[1].add_static("/index.html", b"<html>welcome</html>".to_vec());
    let path: UrlPath = "/index.html".parse().expect("valid");
    proxy
        .publisher()
        .update(|t| t.add_location(&path, NodeId(1)))
        .expect("entry exists");

    // Both replicas now serve traffic.
    for _ in 0..50 {
        assert_eq!(client.get("/index.html")?.status, 200);
    }
    println!(
        "after replication: n0 served {}, n1 served {} requests total",
        origins[0].served(),
        origins[1].served()
    );
    println!(
        "proxy relayed {} requests ({} unroutable, {} backend errors)",
        proxy.relayed(),
        proxy.failures(Failure::Unroutable),
        proxy.failures(Failure::BackendFailed)
    );
    Ok(())
}
