//! Property-based tests for the URL table and LRU cache invariants.

use cpms_model::{ContentId, ContentKind, NodeId, UrlPath};
use cpms_urltable::lru::LruCache;
use cpms_urltable::{LookupCache, TableError, UrlEntry, UrlTable};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn segment_strategy() -> impl Strategy<Value = String> {
    "[a-z]{1,4}"
}

fn path_strategy() -> impl Strategy<Value = UrlPath> {
    prop::collection::vec(segment_strategy(), 1..5).prop_map(|segs| {
        let mut p = UrlPath::root();
        for s in segs {
            p = p.join(&s).expect("generated segments are valid");
        }
        p
    })
}

#[derive(Debug, Clone)]
enum Op {
    Insert(UrlPath, u32),
    Remove(UrlPath),
    AddLoc(UrlPath, u16),
    RemoveLoc(UrlPath, u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (path_strategy(), any::<u32>()).prop_map(|(p, id)| Op::Insert(p, id)),
        path_strategy().prop_map(Op::Remove),
        (path_strategy(), 0u16..8).prop_map(|(p, n)| Op::AddLoc(p, n)),
        (path_strategy(), 0u16..8).prop_map(|(p, n)| Op::RemoveLoc(p, n)),
    ]
}

proptest! {
    /// The table agrees with a flat HashMap model under arbitrary operation
    /// sequences (ignoring operations the table rejects).
    #[test]
    fn table_matches_flat_model(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut table = UrlTable::new();
        let mut model: HashMap<UrlPath, (u32, HashSet<u16>)> = HashMap::new();

        for op in ops {
            match op {
                Op::Insert(p, id) => {
                    let r = table.insert(
                        p.clone(),
                        UrlEntry::new(ContentId(id), ContentKind::StaticHtml, 64),
                    );
                    if r.is_ok() {
                        prop_assert!(!model.contains_key(&p));
                        model.insert(p, (id, HashSet::new()));
                    }
                }
                Op::Remove(p) => {
                    let r = table.remove(&p);
                    prop_assert_eq!(r.is_ok(), model.remove(&p).is_some());
                }
                Op::AddLoc(p, n) => {
                    let r = table.add_location(&p, NodeId(n));
                    match model.get_mut(&p) {
                        Some((_, locs)) => {
                            prop_assert_eq!(r.unwrap(), locs.insert(n));
                        }
                        None => prop_assert!(r.is_err()),
                    }
                }
                Op::RemoveLoc(p, n) => {
                    let r = table.remove_location(&p, NodeId(n));
                    match model.get_mut(&p) {
                        Some((_, locs)) => {
                            prop_assert_eq!(r.unwrap(), locs.remove(&n));
                        }
                        None => prop_assert!(r.is_err()),
                    }
                }
            }
        }

        // Final state equivalence.
        prop_assert_eq!(table.len(), model.len());
        for (p, (id, locs)) in &model {
            let entry = table.lookup(p).expect("model entry present in table");
            prop_assert_eq!(entry.content(), ContentId(*id));
            let table_locs: HashSet<u16> = entry.locations().iter().map(|n| n.0).collect();
            prop_assert_eq!(&table_locs, locs);
        }
        // And the iterator covers exactly the model keys.
        let iter_paths: HashSet<UrlPath> = table.iter().map(|(p, _)| p).collect();
        let model_paths: HashSet<UrlPath> = model.keys().cloned().collect();
        prop_assert_eq!(iter_paths, model_paths);
    }

    /// Renaming a subtree preserves record count and relocates every path.
    #[test]
    fn rename_preserves_records(
        files in prop::collection::hash_set("[a-z]{1,4}", 1..10),
    ) {
        let mut table = UrlTable::new();
        let src: UrlPath = "/src".parse().unwrap();
        for f in &files {
            let p = src.join(f).unwrap();
            table.insert(p, UrlEntry::new(ContentId(0), ContentKind::Image, 1)).unwrap();
        }
        let dst: UrlPath = "/dst/deep".parse().unwrap();
        table.rename(&src, &dst).unwrap();
        prop_assert_eq!(table.len(), files.len());
        for f in &files {
            prop_assert!(table.lookup(&dst.join(f).unwrap()).is_some());
            prop_assert!(table.lookup(&src.join(f).unwrap()).is_none());
        }
    }

    /// The LRU cache never exceeds its weight capacity and its length always
    /// matches the number of reachable (linked) entries.
    #[test]
    fn lru_respects_capacity(
        capacity in 1u64..100,
        ops in prop::collection::vec((0u32..50, 1u64..20, any::<bool>()), 1..300),
    ) {
        let mut cache: LruCache<u32, u32> = LruCache::new(capacity);
        for (key, weight, is_insert) in ops {
            if is_insert {
                let stored = cache.insert(key, key, weight);
                prop_assert_eq!(stored, weight <= capacity);
            } else {
                cache.remove(&key);
            }
            prop_assert!(cache.used_weight() <= capacity);
            prop_assert_eq!(cache.iter().count(), cache.len());
        }
    }

    /// A cached lookup always returns exactly what an uncached table lookup
    /// returns, under interleaved mutations (cache coherence).
    #[test]
    fn lookup_cache_is_coherent(
        ops in prop::collection::vec(op_strategy(), 1..150),
        probes in prop::collection::vec(path_strategy(), 1..50),
    ) {
        let mut table = UrlTable::new();
        let mut cache = LookupCache::new(8);
        let mut probe_iter = probes.into_iter().cycle();
        for op in ops {
            match op {
                Op::Insert(p, id) => {
                    let _ = table.insert(
                        p,
                        UrlEntry::new(ContentId(id), ContentKind::Cgi, 8),
                    );
                }
                Op::Remove(p) => { let _ = table.remove(&p); }
                Op::AddLoc(p, n) => { let _ = table.add_location(&p, NodeId(n)); }
                Op::RemoveLoc(p, n) => { let _ = table.remove_location(&p, NodeId(n)); }
            }
            // After every mutation, a probe through the cache must agree
            // with the table (for routing-relevant fields).
            let probe = probe_iter.next().unwrap();
            let via_cache = cache.lookup(&table, &probe);
            let via_table = table.lookup(&probe);
            match (via_cache, via_table) {
                (None, None) => {}
                (Some(c), Some(t)) => {
                    prop_assert_eq!(c.content(), t.content());
                    prop_assert_eq!(c.locations(), t.locations());
                    prop_assert_eq!(c.size_bytes(), t.size_bytes());
                }
                (c, t) => prop_assert!(false, "cache {:?} vs table {:?}", c.is_some(), t.is_some()),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Full mutation-op model: every public mutation (insert, remove, rename,
// add/remove_location), interleaved with lookups, against a flat reference
// model that also predicts the exact error variant, the generation counter
// and the table's directories.
// ---------------------------------------------------------------------------

/// Paths over a deliberately tiny alphabet so that collisions — and with
/// them the AlreadyExists / DestinationExists / NotADirectory / NotFound
/// error paths — occur constantly.
fn tight_path_strategy() -> impl Strategy<Value = UrlPath> {
    prop::collection::vec("[abc]", 1..4).prop_map(|segs| {
        let mut p = UrlPath::root();
        for s in segs {
            p = p.join(&s).expect("generated segments are valid");
        }
        p
    })
}

#[derive(Debug, Clone)]
enum FullOp {
    Insert(UrlPath, u32),
    Remove(UrlPath),
    Rename(UrlPath, UrlPath),
    AddLoc(UrlPath, u16),
    RemoveLoc(UrlPath, u16),
    Lookup(UrlPath),
}

fn full_op_strategy() -> impl Strategy<Value = FullOp> {
    prop_oneof![
        (tight_path_strategy(), any::<u32>()).prop_map(|(p, id)| FullOp::Insert(p, id)),
        tight_path_strategy().prop_map(FullOp::Remove),
        (tight_path_strategy(), tight_path_strategy()).prop_map(|(f, t)| FullOp::Rename(f, t)),
        (tight_path_strategy(), 0u16..8).prop_map(|(p, n)| FullOp::AddLoc(p, n)),
        (tight_path_strategy(), 0u16..8).prop_map(|(p, n)| FullOp::RemoveLoc(p, n)),
        tight_path_strategy().prop_map(FullOp::Lookup),
    ]
}

/// Every non-root strict prefix of `path`, shallowest first.
fn strict_prefixes(path: &UrlPath) -> Vec<UrlPath> {
    let segs: Vec<&str> = path.segments().collect();
    let mut out = Vec::new();
    let mut cur = UrlPath::root();
    for seg in &segs[..segs.len().saturating_sub(1)] {
        cur = cur.join(seg).expect("prefix of a valid path is valid");
        out.push(cur.clone());
    }
    out
}

/// `path` with the `from` prefix replaced by `to` (callers guarantee
/// `path.starts_with(from)`).
fn replace_prefix(path: &UrlPath, from: &UrlPath, to: &UrlPath) -> UrlPath {
    let mut out = to.clone();
    for seg in path.segments().skip(from.depth()) {
        out = out.join(seg).expect("segments of a valid path are valid");
    }
    out
}

#[derive(Debug, Clone)]
struct Rec {
    id: u32,
    locs: HashSet<u16>,
}

impl Rec {
    fn new(id: u32) -> Self {
        Rec {
            id,
            locs: HashSet::new(),
        }
    }
}

/// Flat reference model of the trie: the records, as one map. The table
/// holds no directory without a record below it, so its directories are
/// exactly the strict prefixes of the records.
#[derive(Debug, Default)]
struct RefModel {
    records: HashMap<UrlPath, Rec>,
}

impl RefModel {
    fn is_dir(&self, p: &UrlPath) -> bool {
        p.is_root() || self.records.keys().any(|r| r != p && r.starts_with(p))
    }

    fn node_exists(&self, p: &UrlPath) -> bool {
        self.records.contains_key(p) || self.is_dir(p)
    }
}

/// Every path `tight_path_strategy` can draw.
fn tight_paths() -> Vec<UrlPath> {
    let mut out = Vec::new();
    let mut level = vec![UrlPath::root()];
    for _ in 0..3 {
        level = level
            .iter()
            .flat_map(|dir| ["a", "b", "c"].map(|s| dir.join(s).expect("valid segment")))
            .collect();
        out.extend(level.iter().cloned());
    }
    out
}

proptest! {
    /// The table agrees with the reference model under arbitrary sequences
    /// of *all* public mutation ops — including the exact error variant for
    /// every rejected operation and the generation counter after every op.
    #[test]
    fn mutation_ops_match_reference_model(
        ops in prop::collection::vec(full_op_strategy(), 1..250),
    ) {
        let mut table = UrlTable::new();
        let mut model = RefModel::default();
        let all_paths = tight_paths();

        for op in ops {
            let g0 = table.generation();
            let mut bumped = false;
            match op {
                FullOp::Insert(p, id) => {
                    let r = table.insert(
                        p.clone(),
                        UrlEntry::new(ContentId(id), ContentKind::StaticHtml, 64),
                    );
                    if strict_prefixes(&p).iter().any(|q| model.records.contains_key(q)) {
                        prop_assert!(
                            matches!(r, Err(TableError::NotADirectory { .. })),
                            "insert {} through a file: {:?}", p, r
                        );
                    } else if model.node_exists(&p) {
                        prop_assert!(
                            matches!(r, Err(TableError::AlreadyExists { .. })),
                            "insert {} onto existing node: {:?}", p, r
                        );
                    } else {
                        prop_assert!(r.is_ok(), "insert {} should succeed: {:?}", p, r);
                        model.records.insert(p, Rec::new(id));
                        bumped = true;
                    }
                }
                FullOp::Remove(p) => {
                    let r = table.remove(&p);
                    match model.records.remove(&p) {
                        Some(rec) => {
                            let entry = r.expect("model says a record exists");
                            prop_assert_eq!(entry.content(), ContentId(rec.id));
                            bumped = true;
                        }
                        None => prop_assert!(
                            matches!(r, Err(TableError::NotFound { .. })),
                            "remove {}: {:?}", p, r
                        ),
                    }
                }
                FullOp::Rename(from, to) => {
                    let r = table.rename(&from, &to);
                    if model.node_exists(&to) {
                        prop_assert!(
                            matches!(r, Err(TableError::DestinationExists { .. })),
                            "rename {} -> {}: {:?}", from, to, r
                        );
                    } else if !model.node_exists(&from) {
                        prop_assert!(
                            matches!(r, Err(TableError::NotFound { .. })),
                            "rename {} -> {}: {:?}", from, to, r
                        );
                    } else if strict_prefixes(&to)
                        .iter()
                        .any(|q| model.records.contains_key(q) && !q.starts_with(&from))
                    {
                        // The attach walk runs on the post-detach tree, so
                        // leaves inside the moved subtree cannot block it.
                        prop_assert!(
                            matches!(r, Err(TableError::NotADirectory { .. })),
                            "rename {} -> {} through a file: {:?}", from, to, r
                        );
                    } else {
                        prop_assert!(r.is_ok(), "rename {} -> {} should succeed: {:?}", from, to, r);
                        model.records = model
                            .records
                            .drain()
                            .map(|(k, v)| {
                                if k.starts_with(&from) {
                                    (replace_prefix(&k, &from, &to), v)
                                } else {
                                    (k, v)
                                }
                            })
                            .collect();
                        bumped = true;
                    }
                }
                FullOp::AddLoc(p, n) => {
                    let r = table.add_location(&p, NodeId(n));
                    match model.records.get_mut(&p) {
                        Some(rec) => {
                            let changed = rec.locs.insert(n);
                            prop_assert_eq!(r.unwrap(), changed);
                            bumped = changed;
                        }
                        None => prop_assert!(
                            matches!(r, Err(TableError::NotFound { .. })),
                            "add_location {}: {:?}", p, r
                        ),
                    }
                }
                FullOp::RemoveLoc(p, n) => {
                    let r = table.remove_location(&p, NodeId(n));
                    match model.records.get_mut(&p) {
                        Some(rec) => {
                            let changed = rec.locs.remove(&n);
                            prop_assert_eq!(r.unwrap(), changed);
                            bumped = changed;
                        }
                        None => prop_assert!(
                            matches!(r, Err(TableError::NotFound { .. })),
                            "remove_location {}: {:?}", p, r
                        ),
                    }
                }
                FullOp::Lookup(p) => {
                    let got = table.lookup(&p).map(|e| e.content().0);
                    prop_assert_eq!(got, model.records.get(&p).map(|rec| rec.id), "lookup {}", p);
                }
            }
            prop_assert_eq!(
                table.generation(),
                g0 + u64::from(bumped),
                "generation after {:?}", (&bumped,)
            );
            // No directory outlives the last record below it.
            for q in &all_paths {
                prop_assert_eq!(table.is_dir(q), model.is_dir(q), "is_dir {}", q);
            }
        }

        // Final state equivalence: counts, every record, and the iterator's
        // view.
        prop_assert_eq!(table.len(), model.records.len());
        for (p, rec) in &model.records {
            let entry = table.lookup(p).expect("model record present in table");
            prop_assert_eq!(entry.content(), ContentId(rec.id));
            let locs: HashSet<u16> = entry.locations().iter().map(|n| n.0).collect();
            prop_assert_eq!(&locs, &rec.locs);
        }
        let iter_paths: HashSet<UrlPath> = table.iter().map(|(p, _)| p).collect();
        let model_paths: HashSet<UrlPath> = model.records.keys().cloned().collect();
        prop_assert_eq!(iter_paths, model_paths);
    }

    /// `insert` below a file always fails with NotADirectory and leaves the
    /// table untouched.
    #[test]
    fn paths_through_files_are_rejected(
        file in tight_path_strategy(),
        below in prop::collection::vec("[abc]", 1..3),
    ) {
        let mut table = UrlTable::new();
        table
            .insert(file.clone(), UrlEntry::new(ContentId(1), ContentKind::StaticHtml, 8))
            .unwrap();
        let mut deeper = file.clone();
        for seg in below {
            deeper = deeper.join(&seg).unwrap();
        }
        let g = table.generation();

        let r = table.insert(deeper.clone(), UrlEntry::new(ContentId(3), ContentKind::Cgi, 8));
        prop_assert!(matches!(r, Err(TableError::NotADirectory { .. })));

        prop_assert_eq!(table.generation(), g);
        prop_assert_eq!(table.len(), 1);
        prop_assert_eq!(table.lookup(&file).unwrap().content(), ContentId(1));
        prop_assert!(table.lookup(&deeper).is_none());
    }

    /// Renaming onto any existing node — record or directory — fails with
    /// DestinationExists and both subtrees survive unchanged.
    #[test]
    fn rename_onto_existing_node_is_rejected(
        src in tight_path_strategy(),
        dst_file in tight_path_strategy(),
        dst_child in "[abc]",
    ) {
        prop_assume!(!src.starts_with(&dst_file) && !dst_file.starts_with(&src));
        let mut table = UrlTable::new();
        table
            .insert(src.clone(), UrlEntry::new(ContentId(1), ContentKind::StaticHtml, 8))
            .unwrap();
        table
            .insert(
                dst_file.join(&dst_child).unwrap(),
                UrlEntry::new(ContentId(2), ContentKind::StaticHtml, 8),
            )
            .unwrap();
        let g = table.generation();

        // Destination is an existing record.
        let r = table.rename(&src, &dst_file.join(&dst_child).unwrap());
        prop_assert!(matches!(r, Err(TableError::DestinationExists { .. })));
        // Destination is an existing directory.
        let r = table.rename(&src, &dst_file);
        prop_assert!(matches!(r, Err(TableError::DestinationExists { .. })));

        prop_assert_eq!(table.generation(), g);
        prop_assert_eq!(table.lookup(&src).unwrap().content(), ContentId(1));
        prop_assert_eq!(
            table.lookup(&dst_file.join(&dst_child).unwrap()).unwrap().content(),
            ContentId(2)
        );
    }
}
