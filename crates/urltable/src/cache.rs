//! The recently-accessed-entry cache in front of the URL table.
//!
//! §5.2: "we also implemented a mechanism to cache recently accessed
//! entries, which is a proven technique for demultiplexing speedup"
//! (citing Mogul's *network locality at the scale of processes*).
//!
//! Invalidation uses the table's generation counter: each cached record
//! remembers the generation at which it was cached; any routing-relevant
//! table mutation bumps the generation, so stale records are detected in
//! O(1) at lookup time without tracking which paths changed.

use crate::entry::UrlEntry;
use crate::lru::LruCache;
use crate::table::UrlTable;
use cpms_model::UrlPath;
use std::sync::Arc;

/// An LRU cache of recently routed URL-table records.
#[derive(Debug)]
pub struct LookupCache {
    cache: LruCache<UrlPath, (u64, Arc<UrlEntry>)>,
}

impl LookupCache {
    /// Creates a cache holding up to `max_entries` records.
    pub fn new(max_entries: u64) -> Self {
        LookupCache {
            cache: LruCache::new(max_entries),
        }
    }

    /// Looks up `path`, consulting the cache first and falling back to the
    /// table on miss or staleness. Returns a shared handle to the record
    /// (the distributor immediately uses it for a routing decision).
    ///
    /// Records are cached behind an `Arc`: a table miss deep-clones the
    /// record exactly once, and every subsequent cache hit is a pointer
    /// bump rather than a clone of the whole entry (locations vector
    /// included).
    ///
    /// Stale entries (cached before the table's current generation) are
    /// treated as misses and refreshed.
    pub fn lookup(&mut self, table: &UrlTable, path: &UrlPath) -> Option<Arc<UrlEntry>> {
        let generation = table.generation();
        if let Some((cached_gen, entry)) = self.cache.get(path) {
            if *cached_gen == generation {
                return Some(Arc::clone(entry));
            }
        }
        match table.lookup(path) {
            Some(entry) => {
                let entry = Arc::new(entry.clone());
                self.cache
                    .insert(path.clone(), (generation, Arc::clone(&entry)), 1);
                Some(entry)
            }
            None => {
                // Negative results are not cached: the paper's distributor
                // rejects unknown URLs outright and they are rare.
                self.cache.remove(path);
                None
            }
        }
    }

    /// Number of cached records (including possibly stale ones that will be
    /// refreshed on next touch).
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Raw cache hits (including hits on stale entries that were then
    /// refreshed).
    pub fn raw_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Raw cache misses.
    pub fn raw_misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Hit rate over all lookups so far.
    pub fn hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Drops every cached record.
    pub fn clear(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpms_model::{ContentId, ContentKind, NodeId};

    fn p(s: &str) -> UrlPath {
        s.parse().unwrap()
    }

    fn table_with(paths: &[&str]) -> UrlTable {
        let mut t = UrlTable::new();
        for (i, s) in paths.iter().enumerate() {
            t.insert(
                p(s),
                UrlEntry::new(ContentId(i as u32), ContentKind::StaticHtml, 100)
                    .with_locations([NodeId(0)]),
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn caches_and_hits() {
        let t = table_with(&["/a.html", "/b.html"]);
        let mut c = LookupCache::new(16);
        assert!(c.lookup(&t, &p("/a.html")).is_some()); // miss, fill
        assert!(c.lookup(&t, &p("/a.html")).is_some()); // hit
        assert_eq!(c.raw_hits(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn hits_share_one_allocation() {
        let t = table_with(&["/a.html"]);
        let mut c = LookupCache::new(16);
        let first = c.lookup(&t, &p("/a.html")).unwrap();
        let second = c.lookup(&t, &p("/a.html")).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "a hit returns the cached record, not a fresh clone"
        );
    }

    #[test]
    fn miss_on_absent_path() {
        let t = table_with(&["/a.html"]);
        let mut c = LookupCache::new(16);
        assert!(c.lookup(&t, &p("/zzz")).is_none());
        assert!(c.is_empty(), "negative results are not cached");
    }

    #[test]
    fn generation_invalidates() {
        let mut t = table_with(&["/a.html"]);
        let mut c = LookupCache::new(16);
        let before = c.lookup(&t, &p("/a.html")).unwrap();
        assert_eq!(before.locations(), [NodeId(0)]);

        // Replicate the object to node 7: routing data changed.
        t.add_location(&p("/a.html"), NodeId(7)).unwrap();
        let after = c.lookup(&t, &p("/a.html")).unwrap();
        assert_eq!(after.locations(), [NodeId(0), NodeId(7)]);
    }

    #[test]
    fn removal_invalidates() {
        let mut t = table_with(&["/a.html"]);
        let mut c = LookupCache::new(16);
        c.lookup(&t, &p("/a.html")).unwrap();
        t.remove(&p("/a.html")).unwrap();
        assert!(c.lookup(&t, &p("/a.html")).is_none());
    }

    #[test]
    fn no_op_mutations_do_not_invalidate() {
        let mut t = table_with(&["/a.html"]);
        let mut c = LookupCache::new(16);
        c.lookup(&t, &p("/a.html")).unwrap();
        assert!(!t.add_location(&p("/a.html"), NodeId(0)).unwrap());
        c.lookup(&t, &p("/a.html")).unwrap();
        assert_eq!(c.raw_hits(), 1, "second lookup is a (fresh) cache hit");
    }

    #[test]
    fn bounded_size() {
        let paths: Vec<String> = (0..100).map(|i| format!("/f{i}.html")).collect();
        let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
        let t = table_with(&refs);
        let mut c = LookupCache::new(10);
        for s in &paths {
            c.lookup(&t, &p(s));
        }
        assert!(c.len() <= 10);
    }
}
