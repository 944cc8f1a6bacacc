//! Copy-on-write snapshot publication of the URL table.
//!
//! The paper's distributor consults the URL table on *every* request
//! (§5.2 measures ~4.32 µs per lookup at peak), while the controller
//! mutates it only on management operations — a read-mostly workload
//! where a single `RwLock<UrlTable>` makes every worker's lookup contend
//! on one cache line. This module replaces the coarse lock with
//! immutable snapshots:
//!
//! * The [`TablePublisher`] (held by the controller) owns the only
//!   mutable path. Each management mutation clones the current table (a
//!   root-pointer bump: the table is a persistent tree), applies the
//!   change — which copies only the directory levels on the path it
//!   touches — and publishes the result as a fresh `Arc<UrlTable>` with a
//!   generation tag. Old and new snapshot share every other level, so a
//!   publication costs O(depth × fan-out of the touched levels) whatever
//!   the table size, and dropping an old snapshot frees only the levels
//!   the newer ones replaced.
//! * Any number of [`SnapshotHandle`]s (one per distributor worker)
//!   observe publications. The fast path is a single atomic generation
//!   load; only when the generation moved does a reader touch the lock
//!   to re-pin the new `Arc`.
//! * A [`SnapshotReader`] pins a snapshot and routes lookups through a
//!   **private** [`LookupCache`], so workers share no mutable state at
//!   all on the hot path — the cache's existing generation check
//!   doubles as the staleness detector across snapshots.
//!
//! Published snapshots are immutable: a reader mid-lookup keeps its
//! pinned `Arc` alive even if the publisher swaps and drops every other
//! reference, so readers are wait-free with respect to writers (they
//! never block a publication and a publication never invalidates a
//! borrow).

use crate::cache::LookupCache;
use crate::entry::UrlEntry;
use crate::table::UrlTable;
use cpms_model::UrlPath;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// State shared between the publisher and every handle: the current
/// snapshot plus its generation mirrored into an atomic so readers can
/// detect publications without touching the lock.
#[derive(Debug)]
struct Shared {
    current: RwLock<Arc<UrlTable>>,
    generation: AtomicU64,
}

/// The single writer: clones, mutates, and atomically publishes URL-table
/// snapshots. Held by the management controller ("the controller will
/// change the URL table to adapt to these changes").
#[derive(Debug)]
pub struct TablePublisher {
    shared: Arc<Shared>,
}

impl TablePublisher {
    /// Publishes `table` as the initial snapshot.
    pub fn new(table: UrlTable) -> Self {
        let generation = table.generation();
        TablePublisher {
            shared: Arc::new(Shared {
                current: RwLock::new(Arc::new(table)),
                generation: AtomicU64::new(generation),
            }),
        }
    }

    /// A handle for distributor workers to observe publications.
    pub fn handle(&self) -> SnapshotHandle {
        SnapshotHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A second publisher over the same shared snapshot state, so two
    /// writers (e.g. the management controller and a direct edit through
    /// the proxy's own publisher) can mutate one logical table. Safe
    /// because `update` holds the shared write lock across the whole
    /// clone → mutate → publish sequence: concurrent updates from sibling
    /// publishers serialize rather than losing whichever publishes first.
    pub fn share(&self) -> TablePublisher {
        TablePublisher {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The current snapshot.
    pub fn snapshot(&self) -> Arc<UrlTable> {
        Arc::clone(&self.shared.current.read())
    }

    /// The generation of the current snapshot.
    pub fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::Acquire)
    }

    /// Applies `mutate` copy-on-write: clones the current table (cheap:
    /// levels are shared until written), runs the closure on the clone,
    /// and publishes the result — swap first, then generation tag, so a
    /// reader that observes the new generation is guaranteed to load a
    /// snapshot at least that new.
    ///
    /// The closure's return value is passed through, so fallible table
    /// operations compose directly:
    /// `publisher.update(|t| t.insert(path, entry))?`. The new snapshot is
    /// published even if the closure returns an error, matching the
    /// in-place semantics this replaces (a partially applied management
    /// operation must still stop the distributor from routing to copies
    /// that no longer exist).
    ///
    /// The write lock is held across the whole clone → mutate → publish
    /// sequence, so concurrent `update` calls (e.g. a management delete
    /// racing a write through a sibling publisher) serialize instead of
    /// both cloning the same base and silently discarding whichever
    /// publishes first. As a consequence, `mutate` must not call back
    /// into this publisher.
    pub fn update<T>(&self, mutate: impl FnOnce(&mut UrlTable) -> T) -> T {
        let mut current = self.shared.current.write();
        let mut table = UrlTable::clone(&current);
        let result = mutate(&mut table);
        let generation = table.generation();
        *current = Arc::new(table);
        self.shared.generation.store(generation, Ordering::Release);
        result
    }

    /// Publishes a fully built table, replacing the current snapshot.
    pub fn publish(&self, table: UrlTable) {
        let generation = table.generation();
        let mut current = self.shared.current.write();
        *current = Arc::new(table);
        // Store the generation while still holding the lock so table and
        // generation updates from racing publishers cannot interleave.
        self.shared.generation.store(generation, Ordering::Release);
    }
}

impl Default for TablePublisher {
    fn default() -> Self {
        TablePublisher::new(UrlTable::new())
    }
}

/// A cloneable, read-only view of the published snapshot sequence. One
/// per distributor worker.
#[derive(Debug, Clone)]
pub struct SnapshotHandle {
    shared: Arc<Shared>,
}

impl SnapshotHandle {
    /// The current snapshot.
    pub fn load(&self) -> Arc<UrlTable> {
        Arc::clone(&self.shared.current.read())
    }

    /// The generation of the latest publication — a single atomic load,
    /// the only thing on a worker's per-request fast path.
    pub fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::Acquire)
    }

    /// A reader pinning the current snapshot, with a private lookup cache
    /// of `cache_entries` records.
    pub fn reader(&self, cache_entries: u64) -> SnapshotReader {
        // Generation first, then table (matching `refresh`): a publication
        // landing in between pins a too-new table under a too-old tag, so
        // the next refresh re-pins. The opposite order would tag a stale
        // table with the new generation and never notice.
        let pinned_generation = self.generation();
        SnapshotReader {
            pinned: self.load(),
            pinned_generation,
            handle: self.clone(),
            cache: LookupCache::new(cache_entries),
            repins: 0,
        }
    }
}

/// A distributor worker's view: a pinned snapshot plus a private
/// [`LookupCache`]. Lookups are wait-free against the publisher — the
/// per-request cost is one atomic generation load, and the lock is
/// touched only to re-pin after an actual publication.
#[derive(Debug)]
pub struct SnapshotReader {
    handle: SnapshotHandle,
    pinned: Arc<UrlTable>,
    pinned_generation: u64,
    cache: LookupCache,
    repins: u64,
}

impl SnapshotReader {
    /// Re-pins if a newer snapshot was published, then returns the pinned
    /// table.
    pub fn table(&mut self) -> &UrlTable {
        self.refresh();
        &self.pinned
    }

    /// Looks `path` up in the freshest published snapshot, through this
    /// reader's private cache. Stale cached records are detected by the
    /// table's own generation counter, exactly as with a directly mutated
    /// table.
    pub fn lookup(&mut self, path: &UrlPath) -> Option<Arc<UrlEntry>> {
        self.refresh();
        self.cache.lookup(&self.pinned, path)
    }

    /// The generation of the snapshot this reader currently pins.
    pub fn pinned_generation(&self) -> u64 {
        self.pinned_generation
    }

    /// Hit rate of the private lookup cache.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Raw hits of the private lookup cache (including hits on stale
    /// records that were then refreshed).
    pub fn cache_hits(&self) -> u64 {
        self.cache.raw_hits()
    }

    /// Raw misses of the private lookup cache.
    pub fn cache_misses(&self) -> u64 {
        self.cache.raw_misses()
    }

    /// Times this reader re-pinned because a newer generation had been
    /// published — the cost the snapshot protocol pays off the fast path.
    pub fn repins(&self) -> u64 {
        self.repins
    }

    /// Table-wide statistics for the (freshest) pinned snapshot, with
    /// this reader's cache-hit and re-pin observations folded in — the
    /// full §5.2 measurement set from one call.
    pub fn stats(&mut self) -> crate::stats::TableStats {
        self.refresh();
        let mut stats = crate::stats::TableStats::collect(&self.pinned);
        stats.cache_hits = self.cache.raw_hits();
        stats.cache_misses = self.cache.raw_misses();
        stats.repins = self.repins;
        stats
    }

    fn refresh(&mut self) {
        let generation = self.handle.generation();
        if generation != self.pinned_generation {
            self.pinned = self.handle.load();
            self.pinned_generation = generation;
            self.repins += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpms_model::{ContentId, ContentKind, NodeId};

    fn p(s: &str) -> UrlPath {
        s.parse().unwrap()
    }

    fn e(id: u32) -> UrlEntry {
        UrlEntry::new(ContentId(id), ContentKind::StaticHtml, 64).with_locations([NodeId(0)])
    }

    #[test]
    fn publish_is_visible_to_handles() {
        let publisher = TablePublisher::default();
        let handle = publisher.handle();
        assert!(handle.load().is_empty());
        publisher.update(|t| t.insert(p("/a"), e(1))).unwrap();
        assert_eq!(handle.load().len(), 1);
        assert!(handle.load().lookup(&p("/a")).is_some());
    }

    #[test]
    fn snapshots_are_immutable_views() {
        let publisher = TablePublisher::new(UrlTable::new());
        publisher.update(|t| t.insert(p("/a"), e(1))).unwrap();
        let before = publisher.snapshot();
        publisher.update(|t| t.remove(&p("/a"))).unwrap();
        // The old snapshot still routes /a; the new one does not.
        assert!(before.lookup(&p("/a")).is_some());
        assert!(publisher.snapshot().lookup(&p("/a")).is_none());
    }

    #[test]
    fn generation_tracks_publications() {
        let publisher = TablePublisher::default();
        let handle = publisher.handle();
        let g0 = handle.generation();
        publisher.update(|t| t.insert(p("/a"), e(1))).unwrap();
        let g1 = handle.generation();
        assert!(g1 > g0);
        // A publication that changes no routing data keeps the generation.
        assert!(!publisher
            .update(|t| t.add_location(&p("/a"), NodeId(0)))
            .unwrap());
        assert_eq!(handle.generation(), g1);
    }

    #[test]
    fn reader_repins_after_publication() {
        let publisher = TablePublisher::default();
        publisher.update(|t| t.insert(p("/a"), e(1))).unwrap();
        let mut reader = publisher.handle().reader(16);
        assert_eq!(reader.lookup(&p("/a")).unwrap().content(), ContentId(1));
        // warm cache, then republish with a different location set
        publisher
            .update(|t| t.add_location(&p("/a"), NodeId(7)))
            .unwrap();
        let entry = reader.lookup(&p("/a")).unwrap();
        assert_eq!(entry.locations(), [NodeId(0), NodeId(7)]);
        assert_eq!(reader.pinned_generation(), publisher.generation());
    }

    #[test]
    fn reader_survives_publisher_swapping_under_it() {
        let publisher = TablePublisher::default();
        publisher.update(|t| t.insert(p("/a"), e(1))).unwrap();
        let mut reader = publisher.handle().reader(16);
        let pinned = reader.lookup(&p("/a")).unwrap();
        for i in 0..10 {
            publisher
                .update(|t| t.insert(p(&format!("/x{i}")), e(i)))
                .unwrap();
        }
        // The entry obtained from the old pin is still valid.
        assert_eq!(pinned.content(), ContentId(1));
        // And the reader sees the newest snapshot on its next lookup.
        assert_eq!(reader.table().len(), 11);
    }

    #[test]
    fn update_passes_errors_through_but_still_publishes() {
        let publisher = TablePublisher::default();
        publisher.update(|t| t.insert(p("/a"), e(1))).unwrap();
        let err = publisher.update(|t| t.insert(p("/a"), e(2)));
        assert!(err.is_err());
        assert_eq!(
            publisher.snapshot().lookup(&p("/a")).unwrap().content(),
            ContentId(1),
            "failed insert left the record alone"
        );
    }

    #[test]
    fn reader_stats_fold_in_cache_and_repin_observations() {
        let publisher = TablePublisher::default();
        publisher.update(|t| t.insert(p("/a"), e(1))).unwrap();
        let mut reader = publisher.handle().reader(16);
        reader.lookup(&p("/a")); // miss, fill
        reader.lookup(&p("/a")); // hit
        publisher.update(|t| t.insert(p("/b"), e(2))).unwrap();
        reader.lookup(&p("/b")); // re-pin + miss

        assert_eq!(reader.cache_hits(), 1);
        assert_eq!(reader.cache_misses(), 2);
        assert_eq!(reader.repins(), 1);

        let stats = reader.stats();
        assert_eq!(stats.entries, 2, "stats cover the freshest snapshot");
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.repins, 1);
        assert!((stats.cache_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!(stats.memory_bytes > 0);
    }

    #[test]
    fn shared_publishers_mutate_one_table() {
        let publisher = TablePublisher::default();
        let sibling = publisher.share();
        let handle = publisher.handle();
        publisher.update(|t| t.insert(p("/a"), e(1))).unwrap();
        sibling.update(|t| t.insert(p("/b"), e(2))).unwrap();
        // Both writes landed in the same snapshot sequence.
        let table = handle.load();
        assert!(table.lookup(&p("/a")).is_some());
        assert!(table.lookup(&p("/b")).is_some());
        assert_eq!(publisher.generation(), sibling.generation());
    }

    #[test]
    fn handles_are_cloneable_and_agree() {
        let publisher = TablePublisher::default();
        let a = publisher.handle();
        let b = a.clone();
        publisher.update(|t| t.insert(p("/a"), e(1))).unwrap();
        assert_eq!(a.generation(), b.generation());
        assert!(Arc::ptr_eq(&a.load(), &b.load()));
    }
}
