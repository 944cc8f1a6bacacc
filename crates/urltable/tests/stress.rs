//! Concurrency stress tests for the snapshot-publication protocol:
//! reader threads with private per-thread caches race a writer that
//! publishes table mutations through [`TablePublisher`].
//!
//! The invariants checked here are the ones the multi-worker distributor
//! relies on:
//!
//! 1. **Generation monotonicity** — a reader's pinned generation never goes
//!    backwards, and the handle's published generation only advances.
//! 2. **Publication visibility** — once a delete has been *published*
//!    (`update` returned and the fact was made visible to the reader via a
//!    Release/Acquire flag), no subsequent lookup may still route the
//!    deleted path.
//! 3. **Snapshot atomicity** — mutations applied inside one `update`
//!    closure become visible together or not at all.

use cpms_model::{ContentId, ContentKind, NodeId, UrlPath};
use cpms_urltable::{TablePublisher, UrlEntry, UrlTable};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn p(s: &str) -> UrlPath {
    s.parse().unwrap()
}

fn stress_paths(n: usize) -> Vec<UrlPath> {
    (0..n).map(|i| p(&format!("/stress/obj{i}"))).collect()
}

/// Readers with small private caches hammer every path while the writer
/// churns replica sets and then deletes each record. After a delete has
/// been published, readers must never route the path again; pinned and
/// published generations must be monotone throughout.
#[test]
fn published_deletes_are_never_resurrected() {
    const PATHS: usize = 48;
    const READERS: usize = 4;

    let paths = stress_paths(PATHS);
    let mut table = UrlTable::new();
    for (i, path) in paths.iter().enumerate() {
        table
            .insert(
                path.clone(),
                UrlEntry::new(ContentId(i as u32), ContentKind::StaticHtml, 64)
                    .with_locations([NodeId(0)]),
            )
            .unwrap();
    }
    let publisher = TablePublisher::new(table);
    // Two flags per path bracket its delete: `delete_started` is raised
    // before the remove is applied, `deleted` after the remove has been
    // published. A lookup may miss only once the delete has started, and
    // may route only until it was published — comparing against a single
    // flag on both sides would race the flag read against the publication
    // and fail spuriously.
    let delete_started: Arc<Vec<AtomicBool>> =
        Arc::new((0..PATHS).map(|_| AtomicBool::new(false)).collect());
    let deleted: Arc<Vec<AtomicBool>> =
        Arc::new((0..PATHS).map(|_| AtomicBool::new(false)).collect());
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        for _ in 0..READERS {
            let handle = publisher.handle();
            let delete_started = Arc::clone(&delete_started);
            let deleted = Arc::clone(&deleted);
            let stop = Arc::clone(&stop);
            let paths = &paths;
            scope.spawn(move || {
                // A cache much smaller than the path set keeps evictions and
                // refills in play while snapshots swap underneath.
                let mut reader = handle.reader(16);
                let mut last_pinned = reader.pinned_generation();
                let mut last_published = handle.generation();
                while !stop.load(Ordering::Relaxed) {
                    for (i, path) in paths.iter().enumerate() {
                        let was_deleted = deleted[i].load(Ordering::Acquire);
                        let entry = reader.lookup(path);
                        let pinned = reader.pinned_generation();
                        assert!(
                            pinned >= last_pinned,
                            "pinned generation went backwards: {last_pinned} -> {pinned}"
                        );
                        last_pinned = pinned;
                        let published = handle.generation();
                        assert!(
                            published >= last_published,
                            "published generation went backwards"
                        );
                        last_published = published;
                        match entry {
                            Some(e) => {
                                assert!(
                                    !was_deleted,
                                    "lookup routed {path} after its delete was published"
                                );
                                assert_eq!(e.content(), ContentId(i as u32));
                                assert!(
                                    !e.locations().is_empty(),
                                    "published snapshots never have empty replica sets"
                                );
                            }
                            None => {
                                // The record is present from the initial
                                // table until its single delete, so a miss
                                // proves the remove's publication preceded
                                // this lookup — which requires the delete to
                                // have started. (Checked *after* the lookup;
                                // `deleted` may still lag the publication.)
                                assert!(
                                    delete_started[i].load(Ordering::Acquire),
                                    "lookup missed {path} before its delete began"
                                );
                            }
                        }
                    }
                }
            });
        }

        // Writer: churn each record's replica set, then delete it and only
        // afterwards raise the flag the readers check (Release pairs with
        // the readers' Acquire loads).
        for (i, path) in paths.iter().enumerate() {
            for round in 1u16..4 {
                publisher
                    .update(|t| t.add_location(path, NodeId(round)))
                    .unwrap();
                publisher
                    .update(|t| t.remove_location(path, NodeId(round)))
                    .unwrap();
            }
            delete_started[i].store(true, Ordering::Release);
            publisher.update(|t| t.remove(path)).unwrap();
            deleted[i].store(true, Ordering::Release);
            if i % 8 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Everything was deleted; the final snapshot agrees.
    assert_eq!(publisher.snapshot().len(), 0);
}

/// Mutations grouped in a single `update` closure are published as one
/// snapshot: readers pinning a table can never see the pair half-applied.
#[test]
fn multi_mutation_updates_are_atomic() {
    const CYCLES: usize = 400;
    const READERS: usize = 3;

    let a = p("/pair/a.html");
    let b = p("/pair/b.html");
    let publisher = TablePublisher::new(UrlTable::new());
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        for _ in 0..READERS {
            let handle = publisher.handle();
            let stop = Arc::clone(&stop);
            let (a, b) = (a.clone(), b.clone());
            scope.spawn(move || {
                let mut reader = handle.reader(8);
                while !stop.load(Ordering::Relaxed) {
                    // One pinned snapshot for both probes.
                    let table = reader.table();
                    let has_a = table.lookup(&a).is_some();
                    let has_b = table.lookup(&b).is_some();
                    assert_eq!(
                        has_a, has_b,
                        "insert/remove pair observed half-applied (a={has_a}, b={has_b})"
                    );
                }
            });
        }

        for i in 0..CYCLES {
            publisher
                .update(|t| {
                    t.insert(
                        a.clone(),
                        UrlEntry::new(ContentId(0), ContentKind::StaticHtml, 8)
                            .with_locations([NodeId(0)]),
                    )?;
                    t.insert(
                        b.clone(),
                        UrlEntry::new(ContentId(1), ContentKind::StaticHtml, 8)
                            .with_locations([NodeId(1)]),
                    )
                })
                .unwrap();
            publisher
                .update(|t| {
                    t.remove(&a)?;
                    t.remove(&b).map(|_| ())
                })
                .unwrap();
            if i % 64 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(publisher.snapshot().len(), 0);
    assert_eq!(publisher.generation(), publisher.handle().generation());
}

/// Concurrent writers going through `update` are serialized: the
/// clone → mutate → publish sequence of one writer can never discard a
/// mutation another writer already published. (With an unserialized
/// read-modify-write, two racing writers clone the same base snapshot and
/// the later publish silently drops the earlier insert.)
#[test]
fn concurrent_updates_are_never_lost() {
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 64;

    let publisher = TablePublisher::new(UrlTable::new());
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let publisher = &publisher;
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    publisher
                        .update(|t| {
                            t.insert(
                                p(&format!("/writer{w}/obj{i}")),
                                UrlEntry::new(
                                    ContentId((w * PER_WRITER + i) as u32),
                                    ContentKind::StaticHtml,
                                    8,
                                )
                                .with_locations([NodeId(w as u16)]),
                            )
                        })
                        .unwrap();
                }
            });
        }
    });
    assert_eq!(
        publisher.snapshot().len(),
        WRITERS * PER_WRITER,
        "a racing writer's published insert was discarded"
    );
}

/// Management deletes racing a second writer that keeps toggling a live
/// record's replica set through the same `update` path must stay deleted:
/// the toggler's copy-on-write publication may not resurrect a record
/// whose delete was already published.
#[test]
fn deletes_racing_replica_toggles_stay_deleted() {
    const PATHS: usize = 64;

    let paths = stress_paths(PATHS);
    let hot = p("/stress/hot.html");
    let mut table = UrlTable::new();
    for (i, path) in paths.iter().enumerate() {
        table
            .insert(
                path.clone(),
                UrlEntry::new(ContentId(i as u32), ContentKind::StaticHtml, 64)
                    .with_locations([NodeId(0)]),
            )
            .unwrap();
    }
    table
        .insert(
            hot.clone(),
            UrlEntry::new(ContentId(PATHS as u32), ContentKind::StaticHtml, 64)
                .with_locations([NodeId(0)]),
        )
        .unwrap();
    let publisher = TablePublisher::new(table);
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let toggler_stop = Arc::clone(&stop);
        let toggler_publisher = &publisher;
        let toggler_hot = hot.clone();
        scope.spawn(move || {
            while !toggler_stop.load(Ordering::Relaxed) {
                for add in [true, false] {
                    toggler_publisher
                        .update(|t| {
                            if add {
                                t.add_location(&toggler_hot, NodeId(1))
                            } else {
                                t.remove_location(&toggler_hot, NodeId(1))
                            }
                        })
                        .unwrap();
                }
            }
        });

        for path in &paths {
            publisher.update(|t| t.remove(path)).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });

    let last = publisher.snapshot();
    for path in &paths {
        assert!(
            last.lookup(path).is_none(),
            "replica toggle resurrected published delete of {path}"
        );
    }
    assert_eq!(
        last.lookup(&hot).map(UrlEntry::locations),
        Some(&[NodeId(0)][..]),
        "replica toggles lost the live record or left it half-toggled"
    );
}

/// A publication that changes no routing data — an `update` whose
/// mutation fails — does not advance the routing generation, so readers
/// keep their pins and caches; a routing mutation immediately afterwards
/// still re-pins them.
#[test]
fn publications_that_change_no_routing_data_do_not_repin() {
    let path = p("/hot/page.html");
    let mut table = UrlTable::new();
    table
        .insert(
            path.clone(),
            UrlEntry::new(ContentId(7), ContentKind::StaticHtml, 16).with_locations([NodeId(0)]),
        )
        .unwrap();
    let publisher = TablePublisher::new(table);
    let handle = publisher.handle();
    let mut reader = handle.reader(8);
    assert!(reader.lookup(&path).is_some());
    let pinned = reader.pinned_generation();

    // A failed mutation still publishes a snapshot, but not a routing change.
    assert!(publisher
        .update(|t| t.remove(&p("/hot/absent.html")))
        .is_err());
    assert!(reader.lookup(&path).is_some());
    assert_eq!(
        reader.pinned_generation(),
        pinned,
        "a publication without a routing change must not move the generation"
    );

    // A genuine routing mutation does re-pin, and the reader sees the new
    // replica.
    publisher
        .update(|t| t.add_location(&path, NodeId(3)))
        .unwrap();
    let entry = reader.lookup(&path).expect("record still routed");
    assert!(reader.pinned_generation() > pinned);
    assert_eq!(entry.locations(), [NodeId(0), NodeId(3)]);
}
