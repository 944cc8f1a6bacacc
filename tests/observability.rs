//! Single-system-image observability: one shared [`MetricsRegistry`]
//! collects the request path (proxy workers), routing (dispatch), the
//! URL table (lookup latency, cache behaviour, memory), and the
//! management plane (operation latencies, health transitions) — and the
//! whole registry is visible both through the proxy's `/_cpms/metrics`
//! admin endpoint and through the management console's `stats` report.

use cpms_httpd::client::HttpClient;
use cpms_httpd::{
    ContentAwareProxy, OriginServer, ProxyConfig, SiteContent, METRICS_JSON_PATH, METRICS_PATH,
};
use cpms_mgmt::{Cluster, ClusterMonitor, Controller, NodeHealth};
use cpms_model::{ContentId, ContentKind, NodeId, Priority, UrlPath};
use cpms_obs::MetricsRegistry;
use cpms_urltable::{TablePublisher, UrlEntry, UrlTable};
use std::sync::Arc;

fn p(s: &str) -> UrlPath {
    s.parse().unwrap()
}

fn origin(node: u16, files: &[(&str, &[u8])]) -> OriginServer {
    let mut site = SiteContent::new();
    for (path, body) in files {
        site.add_static(path, body.to_vec());
    }
    OriginServer::start(NodeId(node), site).unwrap()
}

#[test]
fn one_registry_surfaces_every_subsystem() {
    let registry = Arc::new(MetricsRegistry::new());

    // --- live side: proxy over two origins, recording into the registry.
    let o0 = origin(0, &[("/a", b"alpha"), ("/r", b"r0")]);
    let o1 = origin(1, &[("/r", b"r1")]);
    let mut table = UrlTable::new();
    table
        .insert(
            p("/a"),
            UrlEntry::new(ContentId(0), ContentKind::StaticHtml, 5).with_locations([NodeId(0)]),
        )
        .unwrap();
    table
        .insert(
            p("/r"),
            UrlEntry::new(ContentId(1), ContentKind::StaticHtml, 2)
                .with_locations([NodeId(0), NodeId(1)]),
        )
        .unwrap();
    let proxy = ContentAwareProxy::start_with_config(
        TablePublisher::new(table),
        vec![o0.addr(), o1.addr()],
        Arc::clone(&registry),
        ProxyConfig {
            workers: 2,
            prefork: 2,
            ..ProxyConfig::default()
        },
    )
    .unwrap();

    // --- management side: controller + monitor share the same registry.
    let mut controller = Controller::new(Cluster::start(2, 1 << 20));
    controller.set_metrics(&registry);
    controller
        .publish(
            &p("/a"),
            ContentId(0),
            ContentKind::StaticHtml,
            5,
            Priority::Normal,
            &[NodeId(0)],
        )
        .unwrap();
    assert!(controller.delete(&p("/missing")).is_err());

    let mut monitor = ClusterMonitor::new(2, 1);
    monitor.attach_metrics(&registry);
    controller.kill_node(NodeId(1));
    let verdicts = monitor.poll_controller(&controller);
    assert_eq!(verdicts[1].1, NodeHealth::Down);

    // --- traffic: routable, replicated, and unroutable requests.
    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    for _ in 0..5 {
        assert_eq!(client.get("/a").unwrap().body, b"alpha");
        assert_eq!(client.get("/r").unwrap().status, 200);
    }
    assert_eq!(client.get("/nowhere").unwrap().status, 503);

    // --- surface 1: Prometheus text over the proxy's admin endpoint.
    let scrape = client.get(METRICS_PATH).unwrap();
    assert_eq!(scrape.status, 200);
    let text = String::from_utf8(scrape.body).unwrap();
    for required in [
        "proxy_relayed_total 10",
        "proxy_unroutable_total 1",
        "proxy_request_ns_count 11",
        "dispatch_requests_total 11",
        "urltable_lookup_ns{quantile=\"0.5\"}",
        "urltable_memory_bytes",
        "mgmt_ops_total 2",
        "mgmt_op_errors_total 1",
        "mgmt_node_down_total 1",
        "wire_rpc_total",
        "wire_rpc_ns_count",
        "wire_retries_total",
    ] {
        assert!(
            text.contains(required),
            "{required:?} missing from:\n{text}"
        );
    }

    // --- surface 2: the same registry as JSON, machine-parseable.
    let json = String::from_utf8(client.get(METRICS_JSON_PATH).unwrap().body).unwrap();
    let value: serde_json::Value = serde_json::from_str(&json).expect("exporter emits valid JSON");
    let counter = |name: &str| {
        value
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64())
    };
    assert_eq!(counter("proxy_relayed_total"), Some(10));
    assert_eq!(counter("mgmt_ops_total"), Some(2));
    assert!(
        counter("wire_rpc_total").is_some_and(|v| v > 0),
        "broker RPCs land in the wire counters: {json}"
    );
    let p99 = value
        .get("histograms")
        .and_then(|h| h.get("proxy_request_ns"))
        .and_then(|h| h.get("p99"))
        .and_then(|v| v.as_u64());
    assert!(p99.is_some_and(|v| v > 0), "p99 present and nonzero");
    let events = value.get("events").and_then(|e| e.as_array()).unwrap();
    assert!(
        events
            .iter()
            .any(|e| e.get("stage").and_then(|s| s.as_str()) == Some("health")),
        "health transition event present: {json}"
    );

    // --- surface 3: the console report renders all four families too.
    let report = controller.metrics_report();
    for family in ["proxy_", "dispatch_", "urltable_", "mgmt_", "wire_"] {
        assert!(report.contains(family), "{family} missing from:\n{report}");
    }

    controller.shutdown();
}

#[test]
fn request_latency_histograms_cover_the_pipeline_stages() {
    let registry = Arc::new(MetricsRegistry::new());
    let o0 = origin(0, &[("/x", b"x")]);
    let mut table = UrlTable::new();
    table
        .insert(
            p("/x"),
            UrlEntry::new(ContentId(0), ContentKind::StaticHtml, 1).with_locations([NodeId(0)]),
        )
        .unwrap();
    let proxy = ContentAwareProxy::start_with_config(
        TablePublisher::new(table),
        vec![o0.addr()],
        Arc::clone(&registry),
        ProxyConfig {
            workers: 1,
            prefork: 1,
            ..ProxyConfig::default()
        },
    )
    .unwrap();
    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    for _ in 0..20 {
        client.get("/x").unwrap();
    }

    // The per-request histograms record just *after* the response bytes
    // go out, so the final request's samples can still be in flight
    // when the client returns — poll briefly instead of racing them.
    let mut snap = registry.snapshot();
    for _ in 0..200 {
        if ["proxy_parse_ns", "proxy_relay_ns", "proxy_request_ns"]
            .iter()
            .all(|h| snap.histogram(h).is_some_and(|s| s.count >= 20))
        {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        snap = registry.snapshot();
    }
    let parse = snap.histogram("proxy_parse_ns").unwrap();
    let relay = snap.histogram("proxy_relay_ns").unwrap();
    let request = snap.histogram("proxy_request_ns").unwrap();
    let lookup = snap.histogram("urltable_lookup_ns").unwrap();
    for (name, hist) in [
        ("parse", parse),
        ("relay", relay),
        ("request", request),
        ("lookup", lookup),
    ] {
        assert_eq!(hist.count, 20, "{name} recorded once per request");
        assert!(hist.p50 <= hist.p90 && hist.p90 <= hist.p99, "{name}");
        assert!(hist.max > 0, "{name} measured real time");
    }
    // Stage nesting: the whole request takes at least as long as its
    // relay stage, which dominates (network round trip to the origin).
    assert!(request.p50 >= relay.p50);
    // The sub-microsecond table lookup is far below the socket relay.
    assert!(lookup.p50 < relay.max);
}
