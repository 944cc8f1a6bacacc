//! End-to-end tests for the content store + shipping pipeline: real
//! bytes over real (and really hostile) wires, with the system's core
//! promise under test — a URL-table generation never routes to a node
//! whose store has not committed the bytes.

use cpms_mgmt::{
    AntiEntropyAuditor, Broker, BrokerHandle, BrokerState, Cluster, Controller, Drift,
};
use cpms_model::{ContentId, ContentKind, NodeId, Priority, UrlPath};
use cpms_store::{
    fnv64, synthetic_body, ContentStore, ObjectMeta, ShipPort, ShipReply, ShipRequest, Shipper,
    StoreClient, StoreService, DEFAULT_CHUNK_SIZE,
};
use cpms_wire::{FaultPlan, FaultyTransport, InProcServer, Transport, WireError};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

mod util;
use util::{retry, with_deadline};

/// Whole-test deadline: generous against slow CI, far under the harness
/// timeout, and it names the wedged test in the panic.
const TEST_DEADLINE: Duration = Duration::from_secs(90);

fn path(s: &str) -> UrlPath {
    s.parse().unwrap()
}

/// Scenario 1 — a multi-chunk corpus shipped through 15% frame loss over real TCP
/// completes, with zero checksum rejections: loss costs retries and
/// resumes, never integrity.
#[test]
fn lossy_tcp_shipping_preserves_integrity() {
    with_deadline("lossy_tcp_shipping", TEST_DEADLINE, || {
        let handles: Vec<BrokerHandle> = (0..3u16)
            .map(|n| {
                Broker::bind_wrapped(
                    "127.0.0.1:0".parse().unwrap(),
                    BrokerState::new(NodeId(n), 1 << 20),
                    move |t| {
                        Arc::new(FaultyTransport::new(
                            t,
                            FaultPlan::lossy(0x10_55 + u64::from(n), 0.15),
                        )) as Arc<dyn Transport>
                    },
                )
                .unwrap()
            })
            .collect();
        let mut controller = Controller::new(Cluster::from_handles(handles));

        // Five chunks per replica, whatever the default chunk size is.
        let size = 5 * u64::from(DEFAULT_CHUNK_SIZE);
        for (i, nodes) in [&[0u16, 1][..], &[1, 2], &[0, 1, 2]].iter().enumerate() {
            let nodes: Vec<NodeId> = nodes.iter().map(|&n| NodeId(n)).collect();
            // Publish rolls itself back on failure, so a budgeted retry is
            // safe — and the budget's diagnostics record every wire error
            // if the loss plan ever exhausts the client's own retries.
            retry(
                &format!("publish /lossy/{i}.bin through 15% loss"),
                3,
                || {
                    controller.publish(
                        &path(&format!("/lossy/{i}.bin")),
                        ContentId(i as u32),
                        ContentKind::OtherStatic,
                        size,
                        Priority::Normal,
                        &nodes,
                    )
                },
            );
        }

        let mut rejected = 0;
        for n in 0..3u16 {
            let handle = controller.cluster().broker(NodeId(n)).unwrap();
            rejected += handle.store_stats().unwrap().rejected_chunks;
        }
        assert_eq!(rejected, 0, "a lossy wire must never corrupt a chunk");
        let report = AntiEntropyAuditor::new().audit(&controller);
        assert!(report.is_clean(), "{report:?}");
        controller.shutdown();
    })
}

/// A port that corrupts the bytes of each chunk — a `Chunk`'s, or the
/// one a `Put` carries whole — the first time it crosses, leaving the
/// announced checksum honest — so the receiver must detect the mismatch
/// and reject the chunk. It sits above the wire: the frame that carries
/// the flipped byte checksums clean.
struct CorruptingPort<P> {
    inner: P,
    poisoned_once: Mutex<HashSet<u32>>,
}

impl<P: ShipPort> ShipPort for CorruptingPort<P> {
    fn ship_tail(
        &self,
        request: &ShipRequest,
        tail: &[u8],
    ) -> Result<(ShipReply, Vec<u8>), WireError> {
        let index = match request {
            ShipRequest::Chunk { index, .. } => Some(*index),
            ShipRequest::Put { .. } => Some(0),
            _ => None,
        };
        if let Some(index) = index {
            if self.poisoned_once.lock().unwrap().insert(index) {
                let mut bad = tail.to_vec();
                bad[0] ^= 0xFF;
                return self.inner.ship_tail(request, &bad);
            }
        }
        self.inner.ship_tail(request, tail)
    }
}

/// Scenario 2 — poisoned chunks are rejected by the per-chunk checksum and
/// re-sent; the committed object is byte-identical and verifies. A
/// one-chunk object is one `Put`, rejected and re-sent whole.
#[test]
fn poisoned_chunks_are_rejected_and_resent() {
    with_deadline("poisoned_chunks", TEST_DEADLINE, || {
        // 18,000 B in 4 KiB chunks: 5 chunks, the last one short; and
        // 3,000 B in one.
        for (size, chunk_size, chunks) in [(18_000, 4096, 5), (3000, DEFAULT_CHUNK_SIZE, 1)] {
            let store = Arc::new(ContentStore::in_memory(NodeId(0), 1 << 20));
            let (transport, server) = InProcServer::spawn(StoreService::new(Arc::clone(&store)));
            std::mem::forget(server);
            let port = CorruptingPort {
                inner: StoreClient::new(Arc::new(transport)),
                poisoned_once: Mutex::new(HashSet::new()),
            };
            let body = synthetic_body(ContentId(9), size);
            let meta = ObjectMeta::for_body(ContentId(9), &body, chunk_size, 0);
            let target = path("/poisoned/payload.bin");
            let outcome = Shipper::new()
                .push_meta(&port, &target, meta, &body, false)
                .expect("every chunk heals on the second attempt");

            assert_eq!(outcome.chunks_sent, chunks);
            assert!(
                u64::from(outcome.chunk_retries) >= chunks,
                "each chunk was rejected once then re-sent: {outcome:?}"
            );
            let stats = store.stats();
            assert_eq!(
                stats.rejected_chunks, chunks,
                "receiver counted every poison"
            );
            assert_eq!(stats.committed_total, 1);
            assert_eq!(store.read(&target).unwrap(), body, "committed bytes honest");
            assert_eq!(store.verify(&target).unwrap().checksum, fnv64(&body));
        }
    })
}

/// Push then pull through one TCP broker: the chunks go out as request
/// tails and come back as reply tails, and the object that returns is
/// the object that left — every byte value, a short last chunk.
#[test]
fn push_then_pull_over_a_tcp_broker_is_byte_identical() {
    with_deadline("push_then_pull_tcp", TEST_DEADLINE, || {
        let mut handle = Broker::bind(
            "127.0.0.1:0".parse().unwrap(),
            BrokerState::new(NodeId(0), 1 << 20),
        )
        .unwrap();
        let mut body = synthetic_body(ContentId(3), 70_001);
        // Whatever the generator drew, the bytes a text encoding trips on
        // are in there: the separator's value and invalid UTF-8.
        body[..4].copy_from_slice(&[0x00, 0xFF, 0x00, 0xC0]);
        body[4096] = 0x00;
        // 70,001 B in 4 KiB chunks: 18 chunks, the second starting with
        // the separator's value and the last one a single byte.
        let described = ObjectMeta::for_body(ContentId(3), &body, 4096, 0);
        let target = path("/roundtrip/blob.bin");
        let shipper = Shipper::new();
        let outcome = shipper
            .push_meta(&handle, &target, described, &body, false)
            .unwrap();
        assert_eq!(outcome.chunks_sent, 18);
        assert_eq!(outcome.chunk_retries, 0);
        let (meta, _sums, pulled) = shipper.pull(&handle, &target).unwrap();
        assert_eq!(meta, outcome.meta);
        assert_eq!(pulled, body);
        // 18 chunks out, 18 back, and neither direction paid a text
        // encoding: well under the 2x a hex spelling costs.
        let stats = handle.transport_stats();
        for (direction, wire) in [("tx", stats.tx_bytes), ("rx", stats.rx_bytes)] {
            assert!(
                wire < body.len() as u64 * 11 / 10,
                "{direction}: {wire} wire bytes for {} shipped",
                body.len()
            );
        }
        handle.shutdown();
    })
}

/// Scenario 3 — anti-entropy converges injected drift — a deleted replica, an
/// orphan object, and a stale copy — back to zero.
#[test]
fn anti_entropy_repairs_injected_drift() {
    with_deadline("anti_entropy_repairs", TEST_DEADLINE, || {
        let stores: Vec<Arc<ContentStore>> = (0..3u16)
            .map(|n| Arc::new(ContentStore::in_memory(NodeId(n), 1 << 20)))
            .collect();
        let handles: Vec<BrokerHandle> = stores
            .iter()
            .enumerate()
            .map(|(n, store)| {
                Broker::spawn(
                    BrokerState::new(NodeId(n as u16), 1 << 20).with_content(Arc::clone(store)),
                )
            })
            .collect();
        let mut controller = Controller::new(Cluster::from_handles(handles));

        let all = [NodeId(0), NodeId(1), NodeId(2)];
        for (i, name) in ["/a.html", "/b.html", "/c.html"].iter().enumerate() {
            controller
                .publish(
                    &path(name),
                    ContentId(i as u32),
                    ContentKind::StaticHtml,
                    6_000,
                    Priority::Normal,
                    &all,
                )
                .unwrap();
        }
        let auditor = AntiEntropyAuditor::new();
        assert!(auditor.audit(&controller).is_clean());

        // Inject drift directly into the stores, behind the ledgers' and the
        // URL table's backs — the way crashes and bit rot would.
        stores[1].delete(&path("/a.html")).unwrap(); // missing replica
        stores[0]
            .put(
                &path("/zombie.html"),
                ContentId(99),
                0,
                b"left behind",
                false,
            )
            .unwrap(); // orphan
        stores[2].corrupt_for_test(&path("/b.html")).unwrap(); // stale copy

        let found = auditor.audit(&controller);
        assert_eq!(found.drift_count(), 3, "{found:?}");
        assert!(found
            .drift
            .iter()
            .any(|d| matches!(d, Drift::MissingObject { node, .. } if *node == NodeId(1))));
        assert!(found
            .drift
            .iter()
            .any(|d| matches!(d, Drift::OrphanObject { node, .. } if *node == NodeId(0))));
        assert!(found
            .drift
            .iter()
            .any(|d| matches!(d, Drift::StaleObject { node, .. } if *node == NodeId(2))));

        let repaired = auditor.repair(&mut controller);
        assert_eq!(repaired.repaired, 3, "{repaired:?}");
        assert!(repaired.failed_repairs.is_empty());
        assert!(auditor.audit(&controller).is_clean(), "drift converged");

        // The repairs restored real bytes, not just bookkeeping.
        assert_eq!(
            stores[1].read(&path("/a.html")).unwrap(),
            synthetic_body(ContentId(0), 6_000)
        );
        assert!(!stores[0].contains(&path("/zombie.html")));
        assert_eq!(
            stores[2].verify(&path("/b.html")).unwrap().checksum,
            fnv64(&synthetic_body(ContentId(1), 6_000))
        );
        controller.shutdown();
    })
}

/// A transport that lets traffic through until it has seen `kill_after`
/// chunk frames, then drops the connection — and stays dead until the
/// test heals it.
#[derive(Debug)]
struct GuillotineTransport {
    inner: Arc<dyn Transport>,
    armed: AtomicBool,
    dead: Arc<AtomicBool>,
    chunk_frames: AtomicU32,
    kill_after: u32,
}

impl Transport for GuillotineTransport {
    fn call(&self, request: &[u8], deadline: Duration) -> Result<Vec<u8>, WireError> {
        if self.dead.load(Ordering::Acquire) {
            return Err(WireError::Closed);
        }
        // Frames are length-prefixed JSON; a chunk upload is the only
        // frame whose body mentions the `Chunk` request variant.
        let is_chunk = request.windows(7).any(|w| w == b"\"Chunk\"");
        if is_chunk && self.armed.load(Ordering::Acquire) {
            let seen = self.chunk_frames.fetch_add(1, Ordering::AcqRel) + 1;
            if seen > self.kill_after {
                self.armed.store(false, Ordering::Release);
                self.dead.store(true, Ordering::Release);
                return Err(WireError::Closed);
            }
        }
        self.inner.call(request, deadline)
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

/// Scenario 4 — commit-before-publish: a transfer killed mid-flight leaves staged
/// bytes but no committed object, and **no URL-table generation ever
/// routes the path to the target** — verified by a concurrent snapshot
/// reader sampling throughout the failure and the subsequent recovery.
#[test]
fn killed_transfer_never_publishes_uncommitted_replica() {
    with_deadline("killed_transfer", TEST_DEADLINE, || {
        let target_store = Arc::new(ContentStore::in_memory(NodeId(1), 1 << 20));
        // 5 chunks: the guillotine (2 chunk frames) falls mid-stream.
        let size = 5 * u64::from(DEFAULT_CHUNK_SIZE);
        let dead = Arc::new(AtomicBool::new(false));
        let handles = vec![Broker::spawn(BrokerState::new(NodeId(0), 1 << 20)), {
            let dead = Arc::clone(&dead);
            Broker::bind_wrapped(
                "127.0.0.1:0".parse().unwrap(),
                BrokerState::new(NodeId(1), 1 << 20).with_content(Arc::clone(&target_store)),
                move |t| {
                    Arc::new(GuillotineTransport {
                        inner: t,
                        armed: AtomicBool::new(true),
                        dead,
                        chunk_frames: AtomicU32::new(0),
                        kill_after: 2,
                    }) as Arc<dyn Transport>
                },
            )
            .unwrap()
        }];
        let mut controller = Controller::new(Cluster::from_handles(handles));

        let object = path("/ship/payload.bin");
        controller
            .publish(
                &object,
                ContentId(0),
                ContentKind::OtherStatic,
                size,
                Priority::Normal,
                &[NodeId(0)],
            )
            .unwrap();

        // A concurrent reader: at every sampled generation, if the table
        // routes the object to n1 then n1's store must already hold the
        // committed bytes.
        let snapshots = controller.handle();
        let stop = Arc::new(AtomicBool::new(false));
        let violations = Arc::new(AtomicU32::new(0));
        let reader = {
            let store = Arc::clone(&target_store);
            let stop = Arc::clone(&stop);
            let violations = Arc::clone(&violations);
            let object = object.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let table = snapshots.load();
                    if let Some(entry) = table.lookup(&object) {
                        if entry.locations().contains(&NodeId(1)) && !store.contains(&object) {
                            violations.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    std::thread::yield_now();
                }
            })
        };

        // The replicate dies mid-transfer: two chunks land, then the wire
        // is cut for good (every resume hits the dead wire).
        let err = controller
            .replicate(&object, NodeId(1))
            .expect_err("guillotined transfer must fail");
        let _ = err; // typed MgmtError; the invariants below are the point
        assert!(
            !target_store.contains(&object),
            "no commit happened on the severed node"
        );
        assert!(
            target_store.staged_progress(&object).unwrap_or(0) > 0,
            "the kill was mid-flight: some chunks were staged"
        );
        let entry = controller.table().lookup(&object).cloned().unwrap();
        assert_eq!(entry.locations(), &[NodeId(0)], "table never saw n1");

        // Heal the wire; the retry resumes from the staged chunks and the
        // replica goes live only after its commit. Budgeted so a slow
        // reconnect leaves an attempt history instead of a bare unwrap.
        dead.store(false, Ordering::Release);
        retry("replicate over the healed wire", 3, || {
            controller.replicate(&object, NodeId(1))
        });
        assert!(target_store.contains(&object));
        let stats = target_store.stats();
        assert!(
            stats.resumed_transfers >= 1,
            "second attempt resumed the staged transfer: {stats:?}"
        );
        let entry = controller.table().lookup(&object).cloned().unwrap();
        assert!(entry.locations().contains(&NodeId(1)));

        stop.store(true, Ordering::Release);
        reader.join().unwrap();
        assert_eq!(
            violations.load(Ordering::Relaxed),
            0,
            "no generation ever routed to a node lacking committed bytes"
        );
        assert!(AntiEntropyAuditor::new().audit(&controller).is_clean());
        controller.shutdown();
    })
}
