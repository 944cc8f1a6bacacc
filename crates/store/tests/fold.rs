//! The staging fold's sharp edges: `stage_chunk` folds the whole-object
//! checksum forward over chunks that arrive in order and `commit`
//! finishes it, so the sum `commit` compares must be a function of
//! exactly the bytes it installs — whatever order, however often and
//! with whatever replacements the chunks arrived.

use cpms_model::{ContentId, NodeId, UrlPath};
use cpms_store::{fnv64, synthetic_body, ContentStore, ObjectMeta, StoreError};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};

const CHUNK: u32 = 1000;

fn p(s: &str) -> UrlPath {
    s.parse().unwrap()
}

/// A store with one transfer open at `/t` for `body` in `CHUNK`-byte
/// chunks.
fn begun(body: &[u8]) -> (ContentStore, ObjectMeta, u64) {
    let store = ContentStore::in_memory(NodeId(0), 1 << 20);
    let meta = ObjectMeta::for_body(ContentId(1), body, CHUNK, 0);
    let (transfer, have) = store.begin(&p("/t"), meta, false).unwrap();
    assert!(have.is_empty());
    (store, meta, transfer)
}

/// Stages chunk `index` of `from` — honest about itself, whatever object
/// the transfer announced.
fn stage(store: &ContentStore, meta: &ObjectMeta, transfer: u64, index: u32, from: &[u8]) {
    let chunk = &from[meta.chunk_range(index).unwrap()];
    store
        .stage_chunk(transfer, index, chunk, fnv64(chunk))
        .unwrap();
}

#[test]
fn chunks_in_order_under_a_checksum_that_does_not_describe_them_are_refused_at_commit() {
    let announced = synthetic_body(ContentId(1), 4500);
    let arrived = synthetic_body(ContentId(2), 4500);
    let (store, meta, transfer) = begun(&announced);
    for index in 0..meta.chunk_count() {
        stage(&store, &meta, transfer, index, &arrived);
    }
    assert_eq!(
        store.commit(transfer, &p("/t"), meta.checksum),
        Err(StoreError::ChecksumMismatch {
            path: p("/t"),
            expected: meta.checksum,
            got: fnv64(&arrived),
        })
    );
    assert!(!store.contains(&p("/t")));
    let stats = store.stats();
    assert_eq!((stats.verify_failures, stats.staged_transfers), (1, 1));
    // The transfer is kept: the honest chunks replace the wrong ones and
    // the same commit goes through.
    assert_eq!(
        store.begin(&p("/t"), meta, false).unwrap(),
        (transfer, (0..meta.chunk_count()).collect::<Vec<_>>())
    );
    for index in 0..meta.chunk_count() {
        stage(&store, &meta, transfer, index, &announced);
    }
    assert_eq!(store.commit(transfer, &p("/t"), meta.checksum), Ok(meta));
    assert_eq!(store.read(&p("/t")).unwrap(), announced);
}

#[test]
fn any_arrival_order_commits_and_only_the_unfolded_remainder_is_hashed_again() {
    let body = synthetic_body(ContentId(3), 4500);
    let first = u64::from(CHUNK);
    let size = body.len() as u64;
    for (order, hashed) in [
        // In order: staging folds the whole object, commit hashes nothing.
        (vec![0, 1, 2, 3, 4], size),
        // Reversed: the fold moves only when chunk 0 lands, last.
        (vec![4, 3, 2, 1, 0], 2 * size - first),
        // Interleaved: the fold stops at the first gap (chunk 1).
        (vec![0, 2, 4, 1, 3], 2 * size - 2 * first),
        // A duplicate of a folded chunk is hashed, and changes nothing.
        (vec![0, 1, 1, 0, 2, 3, 4], size + 2 * first),
    ] {
        let (store, meta, transfer) = begun(&body);
        for &index in &order {
            stage(&store, &meta, transfer, index, &body);
        }
        assert_eq!(
            store.commit(transfer, &p("/t"), meta.checksum),
            Ok(meta),
            "{order:?}"
        );
        assert_eq!(store.read(&p("/t")).unwrap(), body, "{order:?}");
        assert_eq!(store.stats().hashed_bytes, hashed, "{order:?}");
    }
}

#[test]
fn a_folded_chunk_replaced_by_other_bytes_takes_the_fold_back() {
    let body = synthetic_body(ContentId(4), 4500);
    let other = synthetic_body(ContentId(5), 4500);
    let (store, meta, transfer) = begun(&body);
    for index in 0..meta.chunk_count() {
        stage(&store, &meta, transfer, index, &body);
    }
    // The fold now stands at the announced checksum. Chunk 1 is replaced
    // by bytes that carry their own valid sum: what commit would install
    // is no longer what was folded, and commit must say so.
    stage(&store, &meta, transfer, 1, &other);
    let mut assembled = body.clone();
    assembled[1000..2000].copy_from_slice(&other[1000..2000]);
    assert_eq!(
        store.commit(transfer, &p("/t"), meta.checksum),
        Err(StoreError::ChecksumMismatch {
            path: p("/t"),
            expected: meta.checksum,
            got: fnv64(&assembled),
        })
    );
    assert!(!store.contains(&p("/t")));
    stage(&store, &meta, transfer, 1, &body);
    assert_eq!(store.commit(transfer, &p("/t"), meta.checksum), Ok(meta));
    assert_eq!(store.read(&p("/t")).unwrap(), body);
}

#[test]
fn two_threads_staging_the_same_chunks_fold_them_once() {
    let body = Arc::new(synthetic_body(ContentId(6), 64 * 1000));
    for round in 0..20 {
        let (store, meta, transfer) = begun(&body);
        let store = Arc::new(store);
        let start = Arc::new(Barrier::new(2));
        let stagers: Vec<_> = (0..2)
            .map(|_| {
                let (store, body, start) =
                    (Arc::clone(&store), Arc::clone(&body), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for index in 0..meta.chunk_count() {
                        stage(&store, &meta, transfer, index, &body);
                    }
                })
            })
            .collect();
        for stager in stagers {
            stager.join().unwrap();
        }
        assert_eq!(
            store.commit(transfer, &p("/t"), meta.checksum),
            Ok(meta),
            "round {round}"
        );
        assert_eq!(store.read(&p("/t")).unwrap(), *body, "round {round}");
    }
}

#[test]
fn hashed_bytes_counts_every_pass_the_store_makes() {
    let store = ContentStore::in_memory(NodeId(0), 1 << 20);
    let body = synthetic_body(ContentId(7), 70_000);
    let meta = store.put(&p("/o"), ContentId(7), 0, &body, false).unwrap();
    assert_eq!(store.stats().hashed_bytes, 70_000, "put describes the body");
    store.verify(&p("/o")).unwrap();
    assert_eq!(store.stats().hashed_bytes, 140_000, "verify re-reads it");
    let (last, _) = store.read_chunk(&p("/o"), meta.chunk_count() - 1).unwrap();
    assert_eq!(store.stats().hashed_bytes, 140_000 + last.len() as u64);
    store.read(&p("/o")).unwrap();
    store.meta(&p("/o")).unwrap();
    assert_eq!(
        store.stats().hashed_bytes,
        140_000 + last.len() as u64,
        "reads and manifest look-ups hash nothing"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Chunks of the announced body (`true`) or of another one (`false`)
    /// arrive in any order, any number of times, each arrival replacing
    /// what its slot held: `commit` accepts exactly when the bytes it
    /// would install hash to the announced checksum, reports their real
    /// sum when they do not, and installs exactly them when they do.
    #[test]
    fn commit_accepts_iff_the_assembled_bytes_hash_to_the_announced_sum(
        arrivals in prop::collection::vec((0u32..4, prop_oneof![Just(true), Just(true), Just(false)]), 0..14),
    ) {
        let announced = synthetic_body(ContentId(8), 3500);
        let other = synthetic_body(ContentId(9), 3500);
        let (store, meta, transfer) = begun(&announced);
        let mut honest = [None; 4];
        for &(index, from_announced) in &arrivals {
            stage(&store, &meta, transfer, index, if from_announced { &announced } else { &other });
            honest[index as usize] = Some(from_announced);
        }
        let missing = honest.iter().filter(|slot| slot.is_none()).count() as u64;
        if missing > 0 {
            prop_assert_eq!(
                store.commit(transfer, &p("/t"), meta.checksum),
                Err(StoreError::Incomplete { path: p("/t"), missing })
            );
            return Ok(());
        }
        let mut assembled = Vec::new();
        for (index, from_announced) in honest.iter().enumerate() {
            let from = if *from_announced == Some(true) { &announced } else { &other };
            assembled.extend_from_slice(&from[meta.chunk_range(index as u32).unwrap()]);
        }
        let committed = store.commit(transfer, &p("/t"), meta.checksum);
        if fnv64(&assembled) == meta.checksum {
            prop_assert_eq!(committed, Ok(meta));
            prop_assert_eq!(store.read(&p("/t")).unwrap(), assembled);
        } else {
            prop_assert_eq!(
                committed,
                Err(StoreError::ChecksumMismatch {
                    path: p("/t"),
                    expected: meta.checksum,
                    got: fnv64(&assembled),
                })
            );
            prop_assert!(!store.contains(&p("/t")));
        }
    }
}
