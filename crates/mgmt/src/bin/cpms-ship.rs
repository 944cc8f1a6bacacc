//! Content-shipping smoke: the store + ship pipeline end to end over
//! real TCP, through a lossy wire, with anti-entropy repair.
//!
//! Usage:
//!   cpms-ship --smoke
//!     First, over a clean wire, counts what shipping costs in bytes:
//!     two brokers, objects of 64 KiB and up, and the wire may carry at
//!     most 1.10 bytes per payload byte shipped — a count that repeats
//!     exactly, so chunk bytes spelled as text again fail it without a
//!     timing. Then binds three broker daemons on loopback whose client transports
//!     cross a fault-injecting wire at 20% frame loss, publishes a
//!     multi-chunk corpus through the controller's shipping pipeline,
//!     then injects three kinds of drift (a deleted replica, an orphan
//!     object, a stale copy) and proves the anti-entropy auditor
//!     repairs all of it. Exits 0 only if every byte arrived intact
//!     (zero checksum rejections) and the final audit is clean.

use cpms_mgmt::{AntiEntropyAuditor, Broker, BrokerState, Cluster, Controller};
use cpms_model::{ContentId, ContentKind, NodeId, Priority, UrlPath};
use cpms_store::{fnv64, synthetic_body, ObjectMeta, ShipPort, ShipReply, ShipRequest, Shipper};
use cpms_wire::{FaultPlan, FaultyTransport, Transport};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--smoke") => smoke(),
        _ => {
            eprintln!("usage: cpms-ship --smoke");
            std::process::exit(2);
        }
    }
}

fn path(s: &str) -> UrlPath {
    s.parse().expect("literal path")
}

const LOSS: f64 = 0.20;

/// Wire bytes the clean leg may send per payload byte shipped. Raw chunk
/// tails cost ~1.03 (frame header + a ~100-byte head per 4 KiB chunk);
/// hex inside JSON cost 2.03.
const WIRE_BYTES_PER_SHIPPED_BYTE: f64 = 1.10;

/// Publishes large objects over a lossless wire and holds the bytes the
/// wire carried against the bytes that were shipped.
fn clean_wire_leg() {
    let handles: Vec<_> = (0..2u16)
        .map(|n| {
            Broker::bind(
                "127.0.0.1:0".parse().expect("literal addr"),
                BrokerState::new(NodeId(n), 1 << 20),
            )
            .expect("bind clean broker")
        })
        .collect();
    let mut controller = Controller::new(Cluster::from_handles(handles));
    for (i, size) in [65_536_u64, 200_000].into_iter().enumerate() {
        controller
            .publish(
                &path(&format!("/bulk/{i}.bin")),
                ContentId(i as u32),
                ContentKind::OtherStatic,
                size,
                Priority::Normal,
                &[NodeId(0), NodeId(1)],
            )
            .expect("publish over a clean wire");
    }
    let snapshot = controller.metrics().snapshot();
    let wire = snapshot.counter("wire_tx_bytes_total").unwrap_or(0);
    let shipped = snapshot.counter("ship_bytes_total").unwrap_or(0);
    assert_eq!(shipped, 2 * (65_536 + 200_000), "every byte was shipped");
    let ratio = wire as f64 / shipped as f64;
    assert!(
        ratio <= WIRE_BYTES_PER_SHIPPED_BYTE,
        "wire carried {wire} B for {shipped} B shipped: {ratio:.3} > {WIRE_BYTES_PER_SHIPPED_BYTE}"
    );
    controller.shutdown();
    eprintln!("smoke: clean wire carried {ratio:.3} bytes per shipped byte");
}

fn smoke() {
    clean_wire_leg();

    // 1. Three TCP daemons; every controller-side frame crosses a lossy
    //    wire. Loss is injected client-side so the daemons themselves
    //    stay honest.
    let handles: Vec<_> = (0..3u16)
        .map(|n| bind_lossy_broker(n, BrokerState::new(NodeId(n), 1 << 20)))
        .collect();
    let mut controller = Controller::new(Cluster::from_handles(handles));
    eprintln!(
        "smoke: 3 TCP brokers up behind {}% frame loss",
        LOSS * 100.0
    );

    // 2. Publish a corpus through the shipping pipeline: multi-chunk
    //    bodies (4 KiB chunks), multiple replicas, all through the loss.
    let corpus: &[(&str, u64, &[u16])] = &[
        ("/site/index.html", 2_048, &[0, 1]),
        ("/site/logo.gif", 10_000, &[0, 1, 2]),
        ("/site/video/intro.mpg", 50_000, &[2]),
        ("/site/docs/paper.pdf", 17_000, &[1, 2]),
    ];
    for (i, (p, size, nodes)) in corpus.iter().enumerate() {
        let nodes: Vec<NodeId> = nodes.iter().map(|&n| NodeId(n)).collect();
        controller
            .publish(
                &path(p),
                ContentId(i as u32),
                ContentKind::StaticHtml,
                *size,
                Priority::Normal,
                &nodes,
            )
            .expect("publish through lossy wire");
    }
    controller
        .replicate(&path("/site/video/intro.mpg"), NodeId(0))
        .expect("replicate through lossy wire");
    eprintln!("smoke: corpus published (4 objects, 9 replicas)");

    // 3. Every committed byte must have survived the loss intact: the
    //    per-chunk checksums reject corruption, and plain loss only
    //    costs retries, never integrity.
    let mut rejected = 0_u64;
    for n in 0..3u16 {
        let handle = controller.cluster().broker(NodeId(n)).expect("node exists");
        match handle.ship(&ShipRequest::Stat).expect("stat over TCP") {
            ShipReply::Stats(s) => rejected += s.rejected_chunks,
            other => panic!("unexpected stat reply {other:?}"),
        }
    }
    assert_eq!(
        rejected, 0,
        "lossy (not corrupting) wire must reject nothing"
    );
    let auditor = AntiEntropyAuditor::new();
    let report = auditor.audit(&controller);
    assert!(
        report.is_clean(),
        "fresh corpus must audit clean: {report:?}"
    );
    eprintln!("smoke: audit clean after publish, 0 rejected chunks");

    // 4. Inject drift behind the URL table's back.
    //    a) n1 loses its copy of /site/index.html (missing object).
    let victim = path("/site/index.html");
    match controller
        .cluster()
        .broker(NodeId(1))
        .expect("n1 exists")
        .ship(&ShipRequest::Delete {
            path: victim.clone(),
        })
        .expect("delete over TCP")
    {
        ShipReply::Deleted(_) => {}
        other => panic!("unexpected delete reply {other:?}"),
    }
    //    b) n0 grows an object the table never routed to it (orphan).
    let shipper = Shipper::new();
    let orphan = path("/rogue/leftover.html");
    let orphan_body = synthetic_body(ContentId(99), 600);
    shipper
        .push(
            controller.cluster().broker(NodeId(0)).expect("n0 exists"),
            &orphan,
            ContentId(99),
            0,
            &orphan_body,
            false,
        )
        .expect("orphan ship");
    //    c) n2 ends up with different bytes than the table's checksum
    //       (a stale replica).
    let stale = path("/site/docs/paper.pdf");
    let wrong = synthetic_body(ContentId(77), 17_000);
    shipper
        .push_meta(
            controller.cluster().broker(NodeId(2)).expect("n2 exists"),
            &stale,
            ObjectMeta {
                content: ContentId(3),
                size: wrong.len() as u64,
                checksum: fnv64(&wrong),
                chunk_size: cpms_store::DEFAULT_CHUNK_SIZE,
                version: 0,
            },
            &wrong,
            true,
        )
        .expect("stale overwrite ship");
    let report = auditor.audit(&controller);
    assert_eq!(report.drift_count(), 3, "three injected faults: {report:?}");
    eprintln!("smoke: injected drift detected — {}", report.summary());

    // 5. Repair must converge: re-ship the missing copy from a healthy
    //    replica, delete the orphan, overwrite the stale bytes.
    let repaired = auditor.repair(&mut controller);
    assert_eq!(repaired.repaired, 3, "all drift repaired: {repaired:?}");
    let mut clean = false;
    for _ in 0..3 {
        if auditor.audit(&controller).is_clean() {
            clean = true;
            break;
        }
    }
    assert!(clean, "post-repair audit must converge to clean");
    eprintln!("smoke: anti-entropy repaired 3/3, audit converged clean");

    controller.shutdown();
    eprintln!("smoke: content shipping over lossy TCP PASSED");
}

/// Binds one TCP broker whose *client* transport is wrapped in a lossy
/// fault plan (distinct seed per node).
fn bind_lossy_broker(n: u16, state: BrokerState) -> cpms_mgmt::BrokerHandle {
    Broker::bind_wrapped(
        "127.0.0.1:0".parse().expect("literal addr"),
        state,
        |transport: Arc<dyn Transport>| {
            Arc::new(FaultyTransport::new(
                transport,
                FaultPlan::lossy(0x5E1F_0000 + u64::from(n), LOSS),
            )) as Arc<dyn Transport>
        },
    )
    .expect("bind lossy broker")
}
