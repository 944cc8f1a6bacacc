//! Persistence of published snapshots: the table shares directory levels
//! between snapshots, so nothing a later mutation does may be visible
//! through an earlier `Arc<UrlTable>`.
//!
//! `proptests.rs` pins what each operation does to the table it is applied
//! to; this file pins what it must *not* do to the snapshots taken before
//! it. Each snapshot is flattened into an owned model when it is taken and
//! must flatten to the same model after every later operation has run.

use cpms_model::{ContentId, ContentKind, NodeId, UrlPath};
use cpms_urltable::{TablePublisher, UrlEntry, UrlTable};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Paths over a tiny alphabet, so operations keep landing on the same few
/// levels — shared ones included — and renames move whole subtrees.
fn path_strategy() -> impl Strategy<Value = UrlPath> {
    prop::collection::vec("[abc]", 1..4).prop_map(|segs| {
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
    Rename(UrlPath, UrlPath),
    AddLoc(UrlPath, u16),
    RemoveLoc(UrlPath, u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (path_strategy(), any::<u32>()).prop_map(|(p, id)| Op::Insert(p, id)),
        path_strategy().prop_map(Op::Remove),
        (path_strategy(), path_strategy()).prop_map(|(f, t)| Op::Rename(f, t)),
        (path_strategy(), 0u16..8).prop_map(|(p, n)| Op::AddLoc(p, n)),
        (path_strategy(), 0u16..8).prop_map(|(p, n)| Op::RemoveLoc(p, n)),
    ]
}

fn entry(id: u32) -> UrlEntry {
    UrlEntry::new(ContentId(id), ContentKind::StaticHtml, 64)
}

/// Applies `op`; rejected operations are part of the sequence too (they
/// walk, and may un-share, the same levels).
fn apply(table: &mut UrlTable, op: &Op) {
    match op {
        Op::Insert(p, id) => drop(table.insert(p.clone(), entry(*id))),
        Op::Remove(p) => drop(table.remove(p)),
        Op::Rename(from, to) => drop(table.rename(from, to)),
        Op::AddLoc(p, n) => drop(table.add_location(p, NodeId(*n))),
        Op::RemoveLoc(p, n) => drop(table.remove_location(p, NodeId(*n))),
    }
}

/// Everything observable about a table, owned: counters and every record
/// (locations included).
#[derive(Debug, PartialEq)]
struct Flat {
    len: usize,
    generation: u64,
    records: BTreeMap<String, UrlEntry>,
}

impl Flat {
    fn of(table: &UrlTable) -> Flat {
        Flat {
            len: table.len(),
            generation: table.generation(),
            records: table
                .iter()
                .map(|(path, entry)| (path.to_string(), entry.clone()))
                .collect(),
        }
    }
}

proptest! {
    /// Snapshots taken at random points of a random operation sequence
    /// still read exactly as they did when taken, after every later
    /// operation — subtree renames included — has run.
    #[test]
    fn later_mutations_never_show_through_earlier_snapshots(
        steps in prop::collection::vec((op_strategy(), any::<bool>()), 1..200),
    ) {
        let publisher = TablePublisher::default();
        let mut held: Vec<(Arc<UrlTable>, Flat)> = Vec::new();
        for (op, snapshot_after) in &steps {
            publisher.update(|t| apply(t, op));
            if *snapshot_after {
                let snapshot = publisher.snapshot();
                let flat = Flat::of(&snapshot);
                held.push((snapshot, flat));
            }
        }
        for (taken, (snapshot, flat)) in held.iter().enumerate() {
            prop_assert_eq!(&Flat::of(snapshot), flat, "snapshot #{} changed after it was taken", taken);
        }
    }
}
