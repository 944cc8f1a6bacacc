//! The multi-level hash URL table.
//!
//! Each level of the table is a hash map keyed by one path segment, so a
//! lookup for `/a/b/c.html` does exactly three hash probes — one per level
//! of the content tree, as described in §5.2 of the paper. Every content
//! object has exactly one record ([`UrlEntry`]); directories exist implicitly
//! as interior hash levels.
//!
//! The tree is *persistent*: every level sits behind an `Arc`, cloning a
//! table bumps the root pointer, and a mutation copies only the levels on
//! the path it touches (`Arc::make_mut`), sharing every other level with
//! the clones taken before it. That is what makes publishing one change to
//! a large table (see `snapshot`) cost O(depth × fan-out of the touched
//! levels) instead of O(table).

use crate::entry::UrlEntry;
use cpms_model::{NodeId, UrlPath};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Errors from URL-table operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TableError {
    /// The path has no record in the table.
    NotFound {
        /// The missing path.
        path: UrlPath,
    },
    /// Inserting over an existing record.
    AlreadyExists {
        /// The conflicting path.
        path: UrlPath,
    },
    /// An interior segment of the path is a content record, not a directory
    /// (e.g. inserting `/a/b` when `/a` is a file).
    NotADirectory {
        /// The path whose interior segment is a file.
        path: UrlPath,
    },
    /// The operation is meaningless on the root path.
    IsRoot,
    /// A rename destination is already occupied.
    DestinationExists {
        /// The occupied destination path.
        path: UrlPath,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::NotFound { path } => write!(f, "no record for path {path}"),
            TableError::AlreadyExists { path } => write!(f, "record already exists for {path}"),
            TableError::NotADirectory { path } => {
                write!(f, "interior segment of {path} is a file, not a directory")
            }
            TableError::IsRoot => write!(f, "operation not valid on the root path"),
            TableError::DestinationExists { path } => {
                write!(f, "rename destination {path} already exists")
            }
        }
    }
}

impl std::error::Error for TableError {}

#[derive(Debug, Clone)]
enum Child {
    Dir(Arc<Dir>),
    Leaf(UrlEntry),
}

#[derive(Debug, Clone, Default)]
struct Dir {
    children: HashMap<String, Child>,
}

impl Dir {
    /// Descends from `root` along `segments` for writing, creating missing
    /// levels and un-sharing each level on the way. `None` if a segment is
    /// a file.
    fn make_path<'a, 's>(
        root: &'a mut Arc<Dir>,
        segments: impl Iterator<Item = &'s str>,
    ) -> Option<&'a mut Dir> {
        let mut dir = Arc::make_mut(root);
        for seg in segments {
            dir = match dir
                .children
                .entry(seg.to_string())
                .or_insert_with(|| Child::Dir(Arc::default()))
            {
                Child::Dir(d) => Arc::make_mut(d),
                Child::Leaf(_) => return None,
            };
        }
        Some(dir)
    }
}

/// The content-aware distributor's URL table: a multi-level hash table with
/// one level per level of the content tree and one record per object.
/// Directories are only interior levels: they hold no record, and the
/// last record under one takes it out of the table.
///
/// Mutations bump an internal *generation* counter that lookup caches use
/// for O(1) invalidation; a call that changes nothing (a location the
/// record already has, say) leaves it alone.
#[derive(Debug, Clone, Default)]
pub struct UrlTable {
    root: Arc<Dir>,
    len: usize,
    generation: u64,
}

impl UrlTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        UrlTable::default()
    }

    /// Number of content records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current mutation generation. Changes whenever routing-relevant data
    /// (records, locations) change.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Inserts a record for `path`.
    ///
    /// # Errors
    ///
    /// - [`TableError::IsRoot`] if `path` is `/`,
    /// - [`TableError::AlreadyExists`] if the path already has a record or
    ///   is an interior directory,
    /// - [`TableError::NotADirectory`] if an interior segment is a file.
    pub fn insert(&mut self, path: UrlPath, entry: UrlEntry) -> Result<(), TableError> {
        if path.is_root() {
            return Err(TableError::IsRoot);
        }
        let segments: Vec<&str> = path.segments().collect();
        let (last, interior) = segments.split_last().expect("non-root path has segments");
        let Some(dir) = Dir::make_path(&mut self.root, interior.iter().copied()) else {
            return Err(TableError::NotADirectory { path });
        };
        match dir.children.get(*last) {
            Some(_) => Err(TableError::AlreadyExists { path }),
            None => {
                dir.children.insert((*last).to_string(), Child::Leaf(entry));
                self.len += 1;
                self.generation += 1;
                Ok(())
            }
        }
    }

    /// Looks up the record for `path`: one hash probe per level, `None`
    /// for the root, a directory, or a path that runs through a file.
    pub fn lookup(&self, path: &UrlPath) -> Option<&UrlEntry> {
        match self.find(path)? {
            Child::Leaf(e) => Some(e),
            Child::Dir(_) => None,
        }
    }

    /// The name the frozen `perfbench/` spells [`UrlTable::lookup`] by.
    #[doc(hidden)]
    pub fn lookup_exact(&self, path: &UrlPath) -> Option<&UrlEntry> {
        self.lookup(path)
    }

    /// Removes the record for `path`, pruning now-empty interior
    /// directories.
    ///
    /// # Errors
    ///
    /// [`TableError::NotFound`] if the path has no record.
    pub fn remove(&mut self, path: &UrlPath) -> Result<UrlEntry, TableError> {
        if path.is_root() {
            return Err(TableError::IsRoot);
        }
        if !matches!(self.find(path), Some(Child::Leaf(_))) {
            return Err(TableError::NotFound { path: path.clone() });
        }
        let segments: Vec<&str> = path.segments().collect();
        match Self::detach(Arc::make_mut(&mut self.root), &segments) {
            Some(Child::Leaf(entry)) => {
                self.len -= 1;
                self.generation += 1;
                Ok(entry)
            }
            _ => unreachable!("found a record at this path above"),
        }
    }

    /// Renames a record or an entire subtree from `from` to `to`.
    ///
    /// # Errors
    ///
    /// - [`TableError::NotFound`] if `from` does not exist (as record or
    ///   directory),
    /// - [`TableError::DestinationExists`] if `to` is occupied,
    /// - [`TableError::NotADirectory`] if `to`'s interior hits a file,
    /// - [`TableError::IsRoot`] for root source or destination.
    pub fn rename(&mut self, from: &UrlPath, to: &UrlPath) -> Result<(), TableError> {
        if from.is_root() || to.is_root() {
            return Err(TableError::IsRoot);
        }
        if self.find(to).is_some() {
            return Err(TableError::DestinationExists { path: to.clone() });
        }
        if self.find(from).is_none() {
            return Err(TableError::NotFound { path: from.clone() });
        }
        // Reject a destination that runs through a file before anything
        // moves. The walk sees the tree as it will be once the source is
        // detached, so it stops where it would enter the source itself.
        let to_segments: Vec<&str> = to.segments().collect();
        let (last, interior) = to_segments.split_last().expect("non-root");
        let enters_source_at = to.starts_with(from).then(|| from.depth());
        let mut dir = &*self.root;
        for (depth, seg) in interior.iter().enumerate() {
            if enters_source_at == Some(depth + 1) {
                break;
            }
            dir = match dir.children.get(*seg) {
                Some(Child::Dir(d)) => d,
                Some(Child::Leaf(_)) => return Err(TableError::NotADirectory { path: to.clone() }),
                None => break,
            };
        }
        let from_segments: Vec<&str> = from.segments().collect();
        let child = Self::detach(Arc::make_mut(&mut self.root), &from_segments)
            .expect("source found above");
        let dir = Dir::make_path(&mut self.root, interior.iter().copied())
            .expect("destination interior checked above");
        dir.children.insert((*last).to_string(), child);
        self.generation += 1;
        Ok(())
    }

    /// Removes and returns the child at `segments` (leaf or whole
    /// directory), pruning now-empty interior directories.
    fn detach(dir: &mut Dir, segments: &[&str]) -> Option<Child> {
        let (first, rest) = segments.split_first()?;
        if rest.is_empty() {
            return dir.children.remove(*first);
        }
        let sub = match dir.children.get_mut(*first)? {
            Child::Dir(d) => Arc::make_mut(d),
            Child::Leaf(_) => return None,
        };
        let detached = Self::detach(sub, rest)?;
        if sub.children.is_empty() {
            dir.children.remove(*first);
        }
        Some(detached)
    }

    /// Adds a replica location to `path`'s record. Returns whether the
    /// location set changed.
    ///
    /// # Errors
    ///
    /// [`TableError::NotFound`] if the path has no record.
    pub fn add_location(&mut self, path: &UrlPath, node: NodeId) -> Result<bool, TableError> {
        let entry = match self.find_mut(path) {
            Some(Child::Leaf(e)) => e,
            _ => return Err(TableError::NotFound { path: path.clone() }),
        };
        let changed = entry.add_location(node);
        if changed {
            self.generation += 1;
        }
        Ok(changed)
    }

    /// Removes a replica location from `path`'s record. Returns whether the
    /// location set changed.
    ///
    /// # Errors
    ///
    /// [`TableError::NotFound`] if the path has no record.
    pub fn remove_location(&mut self, path: &UrlPath, node: NodeId) -> Result<bool, TableError> {
        let entry = match self.find_mut(path) {
            Some(Child::Leaf(e)) => e,
            _ => return Err(TableError::NotFound { path: path.clone() }),
        };
        let changed = entry.remove_location(node);
        if changed {
            self.generation += 1;
        }
        Ok(changed)
    }

    /// Whether `path` exists as a directory (interior level) in the table.
    pub fn is_dir(&self, path: &UrlPath) -> bool {
        if path.is_root() {
            return true;
        }
        matches!(self.find(path), Some(Child::Dir(_)))
    }

    /// Iterates over every `(path, entry)` record, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (UrlPath, &UrlEntry)> {
        let mut out = Vec::with_capacity(self.len);
        Self::collect(&self.root, UrlPath::root(), &mut out);
        out.into_iter()
    }

    /// Iterates over records under `prefix` (inclusive), in unspecified
    /// order. An empty iterator if the prefix does not exist.
    pub fn subtree(&self, prefix: &UrlPath) -> impl Iterator<Item = (UrlPath, &UrlEntry)> {
        let mut out = Vec::new();
        if prefix.is_root() {
            Self::collect(&self.root, UrlPath::root(), &mut out);
        } else {
            match self.find(prefix) {
                Some(Child::Dir(d)) => Self::collect(d, prefix.clone(), &mut out),
                Some(Child::Leaf(e)) => out.push((prefix.clone(), e)),
                None => {}
            }
        }
        out.into_iter()
    }

    fn collect<'a>(dir: &'a Dir, base: UrlPath, out: &mut Vec<(UrlPath, &'a UrlEntry)>) {
        for (name, child) in &dir.children {
            let child_path = base.join(name).expect("table segments are valid");
            match child {
                Child::Leaf(e) => out.push((child_path, e)),
                Child::Dir(d) => Self::collect(d, child_path, out),
            }
        }
    }

    /// Approximate resident memory of the table in bytes: hash-level
    /// overhead, key strings, and entry records. This is the figure §5.2
    /// reports (~260 KB for ~8 700 objects in the authors' C
    /// implementation).
    pub fn memory_bytes(&self) -> usize {
        fn rec(dir: &Dir) -> usize {
            // Each level is its own `Arc` allocation: two counters, then the `Dir`.
            let mut total = 2 * std::mem::size_of::<usize>()
                + std::mem::size_of::<Dir>()
                + dir.children.capacity()
                    * (std::mem::size_of::<String>() + std::mem::size_of::<Child>());
            for (name, child) in &dir.children {
                total += name.len();
                match child {
                    Child::Leaf(e) => total += e.memory_bytes() - std::mem::size_of::<UrlEntry>(),
                    Child::Dir(d) => total += rec(d),
                }
            }
            total
        }
        std::mem::size_of::<UrlTable>() + rec(&self.root)
    }

    fn find(&self, path: &UrlPath) -> Option<&Child> {
        let mut dir = &*self.root;
        let mut segments = path.segments().peekable();
        loop {
            let seg = segments.next()?;
            let child = dir.children.get(seg)?;
            if segments.peek().is_none() {
                return Some(child);
            }
            match child {
                Child::Dir(d) => dir = d,
                Child::Leaf(_) => return None,
            }
        }
    }

    fn find_mut(&mut self, path: &UrlPath) -> Option<&mut Child> {
        let mut dir = Arc::make_mut(&mut self.root);
        let mut segments = path.segments().peekable();
        loop {
            let seg = segments.next()?;
            let child = dir.children.get_mut(seg)?;
            if segments.peek().is_none() {
                return Some(child);
            }
            match child {
                Child::Dir(d) => dir = Arc::make_mut(d),
                Child::Leaf(_) => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::TablePublisher;
    use cpms_model::{ContentId, ContentKind};
    use std::collections::HashSet;

    fn p(s: &str) -> UrlPath {
        s.parse().unwrap()
    }

    fn e(id: u32) -> UrlEntry {
        UrlEntry::new(ContentId(id), ContentKind::StaticHtml, 1024).with_locations([NodeId(0)])
    }

    #[test]
    fn insert_lookup_remove() {
        let mut t = UrlTable::new();
        t.insert(p("/a/b/c.html"), e(1)).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&p("/a/b/c.html")).unwrap().content(), ContentId(1));
        assert!(
            t.lookup(&p("/a/b")).is_none(),
            "directories are not records"
        );
        assert!(t.is_dir(&p("/a/b")));
        let removed = t.remove(&p("/a/b/c.html")).unwrap();
        assert_eq!(removed.content(), ContentId(1));
        assert!(t.is_empty());
        assert!(!t.is_dir(&p("/a")), "empty interior dirs are pruned");
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut t = UrlTable::new();
        t.insert(p("/x"), e(1)).unwrap();
        assert_eq!(
            t.insert(p("/x"), e(2)),
            Err(TableError::AlreadyExists { path: p("/x") })
        );
        assert_eq!(t.lookup(&p("/x")).unwrap().content(), ContentId(1));
    }

    #[test]
    fn file_blocks_interior() {
        let mut t = UrlTable::new();
        t.insert(p("/x"), e(1)).unwrap();
        assert_eq!(
            t.insert(p("/x/y"), e(2)),
            Err(TableError::NotADirectory { path: p("/x/y") })
        );
    }

    #[test]
    fn root_operations_rejected() {
        let mut t = UrlTable::new();
        assert_eq!(t.insert(UrlPath::root(), e(1)), Err(TableError::IsRoot));
        assert_eq!(t.remove(&UrlPath::root()), Err(TableError::IsRoot));
    }

    #[test]
    fn locations_update_generation() {
        let mut t = UrlTable::new();
        t.insert(p("/x"), e(1)).unwrap();
        let g = t.generation();
        assert!(t.add_location(&p("/x"), NodeId(5)).unwrap());
        assert_eq!(t.generation(), g + 1);
        assert!(!t.add_location(&p("/x"), NodeId(5)).unwrap());
        assert_eq!(t.generation(), g + 1, "no-op does not bump generation");
        assert!(t.remove_location(&p("/x"), NodeId(5)).unwrap());
        assert_eq!(t.generation(), g + 2);
        assert!(t.add_location(&p("/missing"), NodeId(1)).is_err());
    }

    #[test]
    fn rename_file() {
        let mut t = UrlTable::new();
        t.insert(p("/old/name.html"), e(1)).unwrap();
        t.rename(&p("/old/name.html"), &p("/new/dir/name.html"))
            .unwrap();
        assert!(t.lookup(&p("/old/name.html")).is_none());
        assert_eq!(
            t.lookup(&p("/new/dir/name.html")).unwrap().content(),
            ContentId(1)
        );
        assert!(!t.is_dir(&p("/old")), "source dir pruned");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn rename_subtree() {
        let mut t = UrlTable::new();
        t.insert(p("/img/a.gif"), e(1)).unwrap();
        t.insert(p("/img/sub/b.gif"), e(2)).unwrap();
        t.rename(&p("/img"), &p("/media")).unwrap();
        assert_eq!(
            t.lookup(&p("/media/a.gif")).unwrap().content(),
            ContentId(1)
        );
        assert_eq!(
            t.lookup(&p("/media/sub/b.gif")).unwrap().content(),
            ContentId(2)
        );
        assert!(t.lookup(&p("/img/a.gif")).is_none());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn rename_errors() {
        let mut t = UrlTable::new();
        t.insert(p("/a"), e(1)).unwrap();
        t.insert(p("/b"), e(2)).unwrap();
        assert_eq!(
            t.rename(&p("/a"), &p("/b")),
            Err(TableError::DestinationExists { path: p("/b") })
        );
        assert_eq!(
            t.rename(&p("/missing"), &p("/c")),
            Err(TableError::NotFound {
                path: p("/missing")
            })
        );
        assert_eq!(
            t.rename(&UrlPath::root(), &p("/c")),
            Err(TableError::IsRoot)
        );
    }

    #[test]
    fn rename_through_a_file_changes_nothing() {
        let mut t = UrlTable::new();
        t.insert(p("/src/only.html"), e(1)).unwrap();
        t.insert(p("/dst/file"), e(2)).unwrap();
        let state = |t: &UrlTable| {
            let mut records: Vec<(String, UrlEntry)> = t
                .iter()
                .map(|(path, entry)| (path.to_string(), entry.clone()))
                .collect();
            records.sort_by(|a, b| a.0.cmp(&b.0));
            (t.len(), t.generation(), records)
        };
        let before = state(&t);
        for from in ["/src/only.html", "/src"] {
            assert_eq!(
                t.rename(&p(from), &p("/dst/file/deeper/x")),
                Err(TableError::NotADirectory {
                    path: p("/dst/file/deeper/x")
                })
            );
            assert_eq!(state(&t), before, "failed rename of {from} moved something");
        }
        // A destination inside the source is not "through a file": the
        // source is detached before the destination is built.
        t.rename(&p("/dst/file"), &p("/dst/file/inner")).unwrap();
        assert_eq!(
            t.lookup(&p("/dst/file/inner")).unwrap().content(),
            ContentId(2)
        );
    }

    /// Every directory level of `t` by path (`""` is the root).
    fn levels(t: &UrlTable) -> HashMap<String, *const Dir> {
        fn rec(dir: &Arc<Dir>, path: String, out: &mut HashMap<String, *const Dir>) {
            for (name, child) in &dir.children {
                if let Child::Dir(d) = child {
                    rec(d, format!("{path}/{name}"), out);
                }
            }
            out.insert(path, Arc::as_ptr(dir));
        }
        let mut out = HashMap::new();
        rec(&t.root, String::new(), &mut out);
        out
    }

    #[test]
    fn update_copies_the_touched_path_and_shares_the_rest() {
        let publisher = TablePublisher::default();
        publisher.update(|t| {
            for i in 0..60u32 {
                let (top, sub) = (["a", "x", "y"][i as usize % 3], ["b", "q"][i as usize % 2]);
                t.insert(p(&format!("/{top}/{sub}/f{i}.html")), e(i))
                    .unwrap();
            }
        });
        let old = publisher.snapshot();
        publisher
            .update(|t| t.insert(p("/a/b/c.html"), e(99)))
            .unwrap();
        let new = publisher.snapshot();

        let (old_levels, new_levels) = (levels(&old), levels(&new));
        assert_eq!(new_levels.len(), 10, "root + 3 + 6 directories");
        assert_eq!(old_levels.len(), new_levels.len());
        for (path, level) in &new_levels {
            let touched = ["", "/a", "/a/b"].contains(&path.as_str());
            assert_eq!(
                old_levels[path] != *level,
                touched,
                "level {path:?}: copied iff on the touched path"
            );
        }
        assert!(old.lookup(&p("/a/b/c.html")).is_none());
        assert!(new.lookup(&p("/a/b/c.html")).is_some());
    }

    /// Levels one mutation allocated: those of the table after it that the
    /// clone taken before it does not hold.
    fn copied_levels(t: &mut UrlTable, mutate: impl FnOnce(&mut UrlTable)) -> usize {
        let before = t.clone();
        mutate(t);
        let old: HashSet<*const Dir> = levels(&before).into_values().collect();
        levels(t).values().filter(|l| !old.contains(*l)).count()
    }

    #[test]
    fn copies_per_mutation_do_not_depend_on_table_size() {
        // The benchmark's preloaded shape (perfbench `Rig::start`).
        let counts = |entries: u32| {
            let mut t = UrlTable::new();
            for i in 0..entries {
                let path = format!("/cold/a{}/b{}/c{i}.html", i % 40, (i / 40) % 50);
                t.insert(p(&path), e(i)).unwrap();
            }
            [
                copied_levels(&mut t, |t| {
                    t.insert(p("/cold/a3/b2/new.html"), e(7)).unwrap()
                }),
                copied_levels(&mut t, |t| {
                    drop(t.remove(&p("/cold/a3/b2/c83.html")).unwrap())
                }),
                copied_levels(&mut t, |t| {
                    assert!(t
                        .add_location(&p("/cold/a5/b1/c45.html"), NodeId(9))
                        .unwrap());
                }),
                copied_levels(&mut t, |t| {
                    t.rename(&p("/cold/a5/b1/c45.html"), &p("/cold/a5/b1/moved.html"))
                        .unwrap();
                }),
                // A subtree moves as one shared level, whatever it holds.
                copied_levels(&mut t, |t| {
                    t.rename(&p("/cold/a7"), &p("/cold/z7")).unwrap()
                }),
                copied_levels(&mut t, |t| {
                    assert!(t.lookup(&p("/cold/z7/b0/c7.html")).is_some())
                }),
            ]
        };
        let small = counts(1_000);
        assert_eq!(small, [4, 4, 4, 4, 2, 0]);
        assert_eq!(counts(100_000), small);
    }

    #[test]
    fn subtree_listing() {
        let mut t = UrlTable::new();
        t.insert(p("/img/a.gif"), e(1)).unwrap();
        t.insert(p("/img/b.gif"), e(2)).unwrap();
        t.insert(p("/doc/c.html"), e(3)).unwrap();
        let mut under_img: Vec<String> = t
            .subtree(&p("/img"))
            .map(|(path, _)| path.to_string())
            .collect();
        under_img.sort();
        assert_eq!(under_img, ["/img/a.gif", "/img/b.gif"]);
        assert_eq!(t.subtree(&UrlPath::root()).count(), 3);
        assert_eq!(t.subtree(&p("/missing")).count(), 0);
        // subtree of a file is the file itself
        assert_eq!(t.subtree(&p("/doc/c.html")).count(), 1);
    }

    #[test]
    fn iter_covers_all() {
        let mut t = UrlTable::new();
        for i in 0..50u32 {
            t.insert(p(&format!("/d{}/f{}.html", i % 5, i)), e(i))
                .unwrap();
        }
        assert_eq!(t.iter().count(), 50);
        let ids: std::collections::HashSet<u32> =
            t.iter().map(|(_, entry)| entry.content().0).collect();
        assert_eq!(ids.len(), 50);
    }

    #[test]
    fn memory_scales_with_entries() {
        let mut t = UrlTable::new();
        let m0 = t.memory_bytes();
        for i in 0..1000u32 {
            t.insert(p(&format!("/dir{}/file{}.html", i % 10, i)), e(i))
                .unwrap();
        }
        let m1 = t.memory_bytes();
        assert!(m1 > m0 + 1000 * std::mem::size_of::<UrlEntry>());
    }

    #[test]
    fn deep_paths() {
        let mut t = UrlTable::new();
        let deep = p("/a/b/c/d/e/f/g/h/i/j/file.html");
        t.insert(deep.clone(), e(1)).unwrap();
        assert!(t.lookup(&deep).is_some());
        t.remove(&deep).unwrap();
        assert!(t.is_empty());
        assert!(!t.is_dir(&p("/a")), "deep prune removes whole chain");
    }
}
