//! Anti-entropy edge cases: the auditor and repair loop against the
//! degenerate stores the paper's management plane must survive — a
//! node wiped empty under a non-empty URL table, zero-length objects
//! (where "has the bytes" and "has no bytes" look identical), and a
//! manifest corrupted to contents that parse fine but lie about the
//! object they describe.

use cpms_mgmt::{
    AntiEntropyAuditor, Broker, BrokerHandle, BrokerState, Cluster, Controller, Drift,
};
use cpms_model::{ContentId, ContentKind, NodeId, Priority, UrlPath};
use cpms_store::{fnv64, synthetic_body, ContentStore};
use cpms_urltable::UrlEntry;
use std::sync::Arc;
use std::time::Duration;

// This target uses only the deadline half of the shared helpers.
#[allow(dead_code)]
mod util;
use util::with_deadline;

/// Whole-test deadline: generous against slow CI, far under the harness
/// timeout, and it names the wedged test in the panic.
const TEST_DEADLINE: Duration = Duration::from_secs(60);

fn path(s: &str) -> UrlPath {
    s.parse().unwrap()
}

/// Builds a 3-node cluster over caller-held in-memory stores so tests
/// can reach behind the brokers' backs.
fn cluster_with_stores() -> (Controller, Vec<Arc<ContentStore>>) {
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
    (Controller::new(Cluster::from_handles(handles)), stores)
}

/// A node whose store was wiped empty while the URL table still routes
/// every object to it: the auditor must report one missing copy per
/// object, and repair must re-ship all of them from healthy replicas.
#[test]
fn wiped_store_under_nonempty_table_is_fully_reshipped() {
    with_deadline("wiped_store", TEST_DEADLINE, || {
        let (mut controller, stores) = cluster_with_stores();
        let all = [NodeId(0), NodeId(1), NodeId(2)];
        for (i, name) in ["/w/a.html", "/w/b.html", "/w/c.html"].iter().enumerate() {
            controller
                .publish(
                    &path(name),
                    ContentId(i as u32),
                    ContentKind::StaticHtml,
                    4_000,
                    Priority::Normal,
                    &all,
                )
                .unwrap();
        }

        // Wipe n1 completely — a reprovisioned disk, an rm -rf, a fresh
        // container: the store is empty, the table has never heard.
        for (p, _) in stores[1].inventory() {
            stores[1].delete(&p).unwrap();
        }
        assert!(stores[1].inventory().is_empty());

        let auditor = AntiEntropyAuditor::new();
        let found = auditor.audit(&controller);
        assert_eq!(found.drift_count(), 3, "{found:?}");
        assert!(
            found
                .drift
                .iter()
                .all(|d| matches!(d, Drift::MissingObject { node, .. } if *node == NodeId(1))),
            "all drift is missing copies on the wiped node: {found:?}"
        );

        let repaired = auditor.repair(&mut controller);
        assert_eq!(repaired.repaired, 3, "{repaired:?}");
        assert!(repaired.failed_repairs.is_empty());
        assert!(auditor.audit(&controller).is_clean());
        for (i, name) in ["/w/a.html", "/w/b.html", "/w/c.html"].iter().enumerate() {
            assert_eq!(
                stores[1].read(&path(name)).unwrap(),
                synthetic_body(ContentId(i as u32), 4_000),
                "repair restored real bytes for {name}"
            );
        }
        controller.shutdown();
    })
}

/// Wiping the *only* copy is the unrepairable case: the auditor still
/// reports the drift, and repair records an explicit failure instead of
/// silently converging or fabricating bytes.
#[test]
fn wiping_the_last_copy_is_reported_not_papered_over() {
    with_deadline("last_copy_wipe", TEST_DEADLINE, || {
        let (mut controller, stores) = cluster_with_stores();
        controller
            .publish(
                &path("/solo.html"),
                ContentId(9),
                ContentKind::StaticHtml,
                2_000,
                Priority::Normal,
                &[NodeId(2)],
            )
            .unwrap();
        stores[2].delete(&path("/solo.html")).unwrap();

        let auditor = AntiEntropyAuditor::new();
        let found = auditor.audit(&controller);
        assert_eq!(found.drift_count(), 1, "{found:?}");

        let outcome = auditor.repair(&mut controller);
        assert_eq!(outcome.repaired, 0);
        assert_eq!(
            outcome.failed_repairs.len(),
            1,
            "no healthy source exists: {outcome:?}"
        );
        assert!(
            !auditor.audit(&controller).is_clean(),
            "unrepairable drift must keep the audit dirty"
        );
        controller.shutdown();
    })
}

/// Zero-length objects: an empty body must audit clean (absence of
/// bytes is not absence of the object), and growing one by a single
/// corrupt byte must be caught and repaired back to empty.
#[test]
fn zero_length_objects_audit_and_repair() {
    with_deadline("zero_length_objects", TEST_DEADLINE, || {
        let (mut controller, stores) = cluster_with_stores();
        let empty = path("/zero.bin");
        controller
            .publish_bytes(
                &empty,
                ContentId(0),
                ContentKind::OtherStatic,
                Priority::Normal,
                &[NodeId(0), NodeId(1)],
                b"",
            )
            .expect("zero-length objects publish like any other");
        assert_eq!(stores[0].read(&empty).unwrap(), b"");

        let auditor = AntiEntropyAuditor::new();
        assert!(
            auditor.audit(&controller).is_clean(),
            "an empty object is not drift"
        );

        // Corruption grows the empty object by one byte.
        stores[1].corrupt_for_test(&empty).unwrap();
        let found = auditor.audit(&controller);
        assert_eq!(found.drift_count(), 1, "{found:?}");
        assert!(
            found.drift.iter().all(|d| d.node() == NodeId(1)),
            "drift pinned to the corrupted replica: {found:?}"
        );

        let repaired = auditor.repair(&mut controller);
        assert_eq!(repaired.repaired, 1, "{repaired:?}");
        assert!(auditor.audit(&controller).is_clean());
        assert_eq!(
            stores[1].read(&empty).unwrap(),
            b"",
            "repair restored the zero-length body"
        );
        controller.shutdown();
    })
}

/// A manifest rewritten to valid-but-stale contents: it parses, its
/// record survives reopen (the object file's size still matches), but
/// its checksum lies. Deep verification must flag the copy as stale and
/// repair must re-ship it from the honest replica.
#[test]
fn stale_manifest_record_is_caught_by_deep_verify() {
    with_deadline("stale_manifest", TEST_DEADLINE, || {
        let dir = std::env::temp_dir().join(format!(
            "cpms-lab-test-stale-manifest-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let object = path("/m/stale.html");
        let body = synthetic_body(ContentId(7), 4_096);
        {
            let store = ContentStore::open(NodeId(0), &dir, 1 << 20).unwrap();
            store.put(&object, ContentId(7), 0, &body, false).unwrap();
        } // drop flushes the manifest

        // Corrupt the manifest to *valid* JSON with a wrong checksum —
        // the record still loads (size matches the object file), it
        // just no longer describes the bytes on disk.
        let manifest = dir.join("manifest.json");
        let honest = fnv64(&body);
        let text = std::fs::read_to_string(&manifest).unwrap();
        assert!(
            text.contains(&honest.to_string()),
            "manifest records the checksum"
        );
        let tampered = text.replace(&honest.to_string(), &(honest ^ 1).to_string());
        std::fs::write(&manifest, tampered).unwrap();

        let stale_store = Arc::new(ContentStore::open(NodeId(0), &dir, 1 << 20).unwrap());
        assert!(
            stale_store.contains(&object),
            "same-size records survive reopen — that is the trap"
        );

        // An honest replica elsewhere, and a table that knows the truth.
        let good_store = Arc::new(ContentStore::in_memory(NodeId(1), 1 << 20));
        good_store
            .put(&object, ContentId(7), 0, &body, false)
            .unwrap();
        let handles = vec![
            Broker::spawn(
                BrokerState::new(NodeId(0), 1 << 20).with_content(Arc::clone(&stale_store)),
            ),
            Broker::spawn(
                BrokerState::new(NodeId(1), 1 << 20).with_content(Arc::clone(&good_store)),
            ),
        ];
        let mut controller = Controller::new(Cluster::from_handles(handles));
        controller
            .publisher()
            .update(|t| {
                t.insert(
                    object.clone(),
                    UrlEntry::new(ContentId(7), ContentKind::StaticHtml, body.len() as u64)
                        .with_locations([NodeId(0), NodeId(1)])
                        .with_checksum(honest),
                )
            })
            .unwrap();

        let auditor = AntiEntropyAuditor::new();
        let found = auditor.audit(&controller);
        assert_eq!(found.drift_count(), 1, "{found:?}");
        assert!(
            found
                .drift
                .iter()
                .any(|d| matches!(d, Drift::StaleObject { node, .. } if *node == NodeId(0))),
            "the lying manifest reads as a stale copy: {found:?}"
        );

        let repaired = auditor.repair(&mut controller);
        assert_eq!(repaired.repaired, 1, "{repaired:?}");
        assert!(auditor.audit(&controller).is_clean());
        assert_eq!(
            stale_store.read(&object).unwrap(),
            body,
            "re-shipped bytes verify against the honest checksum"
        );
        assert_eq!(stale_store.verify(&object).unwrap().checksum, honest);

        controller.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    })
}
