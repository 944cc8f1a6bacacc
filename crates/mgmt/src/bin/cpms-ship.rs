//! Content-shipping smoke: the store + ship pipeline end to end over
//! real TCP, through a lossy wire, with anti-entropy repair.
//!
//! Usage:
//!   cpms-ship --smoke
//!     First, over a clean wire, counts what shipping costs: two
//!     brokers, objects of 64 KiB and up, and the wire may carry at most
//!     1.02 bytes, and sender and receivers together may run at most
//!     1.55 bytes through `fnv64`, per payload byte shipped — counts
//!     that repeat exactly, so chunk bytes spelled as text again, or a
//!     checksum pass creeping back in, fail it without a timing — the
//!     two publications must take exactly 14 RPCs (a one-chunk copy is
//!     one `Put`, a four-chunk one `Begin`, four `Chunk`s and `Commit`),
//!     and both stores must end with no transfer and no byte left staged,
//!     so every commit released its buffer and its reservation. Then
//!     binds three broker daemons on loopback whose client transports
//!     cross a fault-injecting wire at 20% frame loss, publishes a
//!     multi-chunk corpus through the controller's shipping pipeline,
//!     then injects three kinds of drift (a deleted replica, an orphan
//!     object, a stale copy) and proves the anti-entropy auditor
//!     repairs all of it. Exits 0 only if every byte arrived intact
//!     (zero checksum rejections), the final audit is clean, and the
//!     lossy leg slept at most 20 ms in retry backoff (it prints its
//!     retries and that sleep).

use cpms_mgmt::{AgentError, AntiEntropyAuditor, Broker, BrokerState, Cluster, Controller};
use cpms_model::{ContentId, ContentKind, NodeId, Priority, UrlPath};
use cpms_store::{
    fnv64, synthetic_body, ObjectMeta, ShipReply, ShipRequest, Shipper, StoreError, StoreStats,
};
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

/// Node `n`'s store accounting, asked for over its wire.
fn store_stats(controller: &Controller, n: u16) -> StoreStats {
    let handle = controller.cluster().broker(NodeId(n)).expect("node exists");
    handle.store_stats().expect("stat over TCP")
}

const LOSS: f64 = 0.20;

/// Backoff the lossy leg's clients may sleep, all together, in ms. The
/// seeded loss and jitter make it repeat exactly: 13.5 ms over 18
/// retries when each call's first retry goes at once, 104.6 ms when that
/// retry sleeps too.
const LOSSY_BACKOFF_SLEEP_MS: f64 = 20.0;

/// Wire bytes the clean leg may send per payload byte shipped. Raw chunk
/// tails cost ~1.004 (frame header + a ~100-byte head per 64 KiB chunk,
/// plus a `Begin` and a `Commit` per multi-chunk copy); hex inside JSON
/// cost 2.03.
const WIRE_BYTES_PER_SHIPPED_BYTE: f64 = 1.02;

/// Bytes the clean leg may run through `fnv64`, sender and receivers
/// together, per payload byte shipped. An object going to two replicas
/// is hashed once at the source and once by each receiver's
/// `stage_chunk`: exactly 1.5. (3.5 before the sender described once for
/// all replicas and `commit` folded what staging had already hashed.)
const HASHED_BYTES_PER_SHIPPED_BYTE: f64 = 1.55;

/// The clean leg's round trips: its 65,536 B object is one chunk, one
/// `Put` per replica; its 200,000 B object is four, so `Begin`, four
/// `Chunk`s and `Commit` per replica. Two replicas each.
const CLEAN_LEG_RPCS: u64 = 2 * (1 + (1 + 4 + 1));

/// Publishes large objects over a lossless wire and holds the bytes the
/// wire carried, and the bytes that were hashed, against the bytes that
/// were shipped, and the round trips against the frames each copy needs.
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
    let rpcs = snapshot.counter("wire_rpc_total").unwrap_or(0);
    assert_eq!(rpcs, CLEAN_LEG_RPCS, "round trips of the clean leg");
    let ratio = wire as f64 / shipped as f64;
    assert!(
        ratio <= WIRE_BYTES_PER_SHIPPED_BYTE,
        "wire carried {wire} B for {shipped} B shipped: {ratio:.3} > {WIRE_BYTES_PER_SHIPPED_BYTE}"
    );
    let stores: Vec<StoreStats> = (0..2).map(|n| store_stats(&controller, n)).collect();
    let hashed = snapshot.counter("ship_hashed_bytes_total").unwrap_or(0)
        + stores.iter().map(|s| s.hashed_bytes).sum::<u64>();
    let passes = hashed as f64 / shipped as f64;
    assert!(
        passes <= HASHED_BYTES_PER_SHIPPED_BYTE,
        "{hashed} B hashed for {shipped} B shipped: {passes:.3} > {HASHED_BYTES_PER_SHIPPED_BYTE}"
    );
    // Every commit released its staging buffer and its reservation.
    let staged_transfers: u64 = stores.iter().map(|s| s.staged_transfers).sum();
    let staged_bytes: u64 = stores.iter().map(|s| s.staged_bytes).sum();
    assert_eq!(
        (staged_transfers, staged_bytes),
        (0, 0),
        "transfers left staged: {stores:?}"
    );
    controller.shutdown();
    eprintln!(
        "smoke: clean wire carried {ratio:.3} bytes, fnv64 ran over {passes:.3} bytes, per shipped byte, \
         in {rpcs} RPCs; {staged_transfers} transfers and {staged_bytes} bytes left staged"
    );
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

    // 2. Publish a corpus through the shipping pipeline: one- and
    //    multi-chunk bodies (64 KiB chunks), multiple replicas, all
    //    through the loss.
    let corpus: &[(&str, u64, &[u16])] = &[
        ("/site/index.html", 2_048, &[0, 1]),
        ("/site/logo.gif", 100_000, &[0, 1, 2]),
        ("/site/video/intro.mpg", 300_000, &[2]),
        ("/site/docs/paper.pdf", 170_000, &[1, 2]),
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
    let rejected: u64 = (0..3)
        .map(|n| store_stats(&controller, n).rejected_chunks)
        .sum();
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
    //       Judged by the state it leaves, not by its reply: this wire
    //       loses acks, and a delete retried after a lost one is answered
    //       `NotFound`.
    let victim = path("/site/index.html");
    let n1 = controller.cluster().broker(NodeId(1)).expect("n1 exists");
    let not_found = |r: &Result<ShipReply, AgentError>| {
        matches!(r, Err(AgentError::Store(StoreError::NotFound { .. })))
    };
    let deleted = n1.dispatch(ShipRequest::Delete {
        path: victim.clone(),
    });
    assert!(
        matches!(deleted, Ok(ShipReply::Deleted(_))) || not_found(&deleted),
        "unexpected delete reply {deleted:?}"
    );
    let meta = n1.dispatch(ShipRequest::Meta {
        path: victim.clone(),
    });
    assert!(not_found(&meta), "n1 still answers for {victim}: {meta:?}");
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
    let wrong = synthetic_body(ContentId(77), 170_000);
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

    // 6. What the loss cost in sleep: a call's first retry goes at once.
    let snapshot = controller.metrics().snapshot();
    let retries = snapshot.counter("wire_retries_total").unwrap_or(0);
    let slept_ms = snapshot.counter("wire_backoff_sleep_ns_total").unwrap_or(0) as f64 / 1e6;
    eprintln!("smoke: lossy leg retried {retries} frames and slept {slept_ms:.1} ms in backoff");
    assert!(
        slept_ms <= LOSSY_BACKOFF_SLEEP_MS,
        "{slept_ms:.1} ms of backoff > {LOSSY_BACKOFF_SLEEP_MS} ms: does a first retry sleep?"
    );

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
