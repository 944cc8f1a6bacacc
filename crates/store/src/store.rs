//! The per-node content repository.
//!
//! A [`ContentStore`] holds one node's object bodies plus a manifest of
//! [`ObjectMeta`] records, with quota accounting and an atomic
//! **stage → commit → gc** ingest lifecycle:
//!
//! - [`ContentStore::begin`] opens (or resumes) a staged transfer and
//!   reports which chunks are already present, so an interrupted ship
//!   restarts where it left off instead of from byte zero;
//! - [`ContentStore::stage_chunk`] verifies each chunk's checksum before
//!   accepting it — a poisoned chunk is rejected, counted, and must be
//!   re-sent — and, in the same pass over the bytes, folds the
//!   whole-object checksum forward over the chunks that arrive in order;
//!   an accepted chunk is copied into its range of the transfer's one
//!   body buffer;
//! - [`ContentStore::commit`] finishes that fold over whatever chunks it
//!   has not covered, verifies the whole-object checksum, and only then
//!   hands that buffer to the medium and makes the object visible in the
//!   manifest (and durable, for disk-backed stores). Until commit, the
//!   object does not exist: readers never observe a partial body.
//! - [`ContentStore::gc`] sweeps staged transfers that made no progress
//!   since the previous sweep (abandoned mid-flight ships).
//!
//! An object of at most one chunk skips staging: [`ContentStore::put_whole`]
//! holds the whole body to the same geometry and checksum checks in one
//! pass and installs it through the same install step as `commit`.
//!
//! Two media: `in_memory` (tests, in-process clusters) and `open` (a real
//! directory: object files plus a `manifest.json` rewritten atomically
//! via tmp-file + rename).

use crate::object::{fnv64, fnv64_fold, ObjectMeta, DEFAULT_CHUNK_SIZE, FNV_BASIS};
use cpms_model::{ContentId, NodeId, UrlPath};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Errors from store and shipping operations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum StoreError {
    /// No committed object at the path.
    NotFound {
        /// The missing path.
        path: UrlPath,
    },
    /// Committing/staging would exceed the node's quota.
    DiskFull {
        /// The path being stored.
        path: UrlPath,
        /// Bytes that would be needed.
        needed: u64,
        /// Bytes actually free.
        free: u64,
    },
    /// An object already exists at the path (`overwrite = false`) with
    /// different content.
    AlreadyExists {
        /// The conflicting path.
        path: UrlPath,
    },
    /// A whole-object checksum did not match its manifest/announcement.
    ChecksumMismatch {
        /// The object's path.
        path: UrlPath,
        /// The checksum that was promised.
        expected: u64,
        /// The checksum actually computed over the bytes.
        got: u64,
    },
    /// A shipped chunk failed its per-chunk checksum and was rejected.
    ChunkRejected {
        /// The object's path.
        path: UrlPath,
        /// Which chunk.
        index: u32,
        /// The checksum the sender announced.
        expected: u64,
        /// The checksum of the bytes that arrived.
        got: u64,
    },
    /// A chunk was malformed (bad index, wrong length, undecodable hex).
    BadChunk {
        /// The object's path.
        path: UrlPath,
        /// Which chunk.
        index: u32,
        /// What was wrong.
        detail: String,
    },
    /// Commit was attempted before every chunk arrived.
    Incomplete {
        /// The object's path.
        path: UrlPath,
        /// Chunks still missing.
        missing: u64,
    },
    /// No staged transfer with that id (expired, swept, or never begun).
    NoSuchTransfer {
        /// The unknown transfer id.
        transfer: u64,
    },
    /// A storage failure: a filesystem call on a disk-backed store, or
    /// no memory for a transfer's body buffer.
    Io {
        /// What failed, rendered.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound { path } => write!(f, "no object at {path}"),
            StoreError::DiskFull { path, needed, free } => {
                write!(
                    f,
                    "quota exceeded staging {path}: need {needed}B, {free}B free"
                )
            }
            StoreError::AlreadyExists { path } => write!(f, "object already exists at {path}"),
            StoreError::ChecksumMismatch {
                path,
                expected,
                got,
            } => write!(
                f,
                "checksum mismatch on {path}: expected {expected:#018x}, got {got:#018x}"
            ),
            StoreError::ChunkRejected {
                path,
                index,
                expected,
                got,
            } => write!(
                f,
                "chunk {index} of {path} rejected: expected {expected:#018x}, got {got:#018x}"
            ),
            StoreError::BadChunk {
                path,
                index,
                detail,
            } => write!(f, "bad chunk {index} of {path}: {detail}"),
            StoreError::Incomplete { path, missing } => {
                write!(f, "commit of {path} with {missing} chunk(s) missing")
            }
            StoreError::NoSuchTransfer { transfer } => {
                write!(f, "no staged transfer {transfer}")
            }
            StoreError::Io { detail } => write!(f, "store I/O failed: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    fn io(e: &std::io::Error) -> Self {
        StoreError::Io {
            detail: e.to_string(),
        }
    }
}

/// Point-in-time store accounting (the console `store` command's row).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// The node this store belongs to.
    pub node: NodeId,
    /// Committed objects.
    pub objects: u64,
    /// Total chunks across committed objects.
    pub chunks: u64,
    /// Bytes committed.
    pub committed_bytes: u64,
    /// Quota in bytes.
    pub capacity_bytes: u64,
    /// In-flight staged transfers.
    pub staged_transfers: u64,
    /// Bytes reserved by staged transfers.
    pub staged_bytes: u64,
    /// Lifetime committed objects (including overwritten ones).
    pub committed_total: u64,
    /// Transfers that resumed from partially staged state.
    pub resumed_transfers: u64,
    /// Chunks rejected for checksum mismatch.
    pub rejected_chunks: u64,
    /// Whole-object verification failures (commit or audit).
    pub verify_failures: u64,
    /// Staged transfers swept by gc.
    pub gc_transfers: u64,
    /// Bytes released by gc.
    pub gc_bytes: u64,
    /// Every byte this store has run through `fnv64`: staged chunks, the
    /// part of a commit the staging fold had not covered, `verify`,
    /// `read_chunk` and `put`. Over the bytes shipped it is the
    /// receiving side's hash passes per byte.
    pub hashed_bytes: u64,
    /// Whether the store is disk-backed (survives restart).
    pub durable: bool,
}

impl StoreStats {
    /// Bytes free under the quota (committed + staged reservations).
    #[must_use]
    pub fn free_bytes(&self) -> u64 {
        self.capacity_bytes
            .saturating_sub(self.committed_bytes + self.staged_bytes)
    }
}

/// Where object bodies live.
#[derive(Debug)]
enum Medium {
    Memory(HashMap<UrlPath, Vec<u8>>),
    Disk { root: PathBuf },
}

impl Medium {
    fn object_file(root: &Path, path: &UrlPath) -> PathBuf {
        // Hex of the URL path: collision-free, filesystem-safe, reversible.
        root.join("objects")
            .join(crate::object::hex_encode(path.as_str().as_bytes()))
    }

    fn read(&self, path: &UrlPath) -> Result<Vec<u8>, StoreError> {
        match self {
            Medium::Memory(map) => map
                .get(path)
                .cloned()
                .ok_or_else(|| StoreError::NotFound { path: path.clone() }),
            Medium::Disk { root } => {
                std::fs::read(Self::object_file(root, path)).map_err(|e| match e.kind() {
                    std::io::ErrorKind::NotFound => StoreError::NotFound { path: path.clone() },
                    _ => StoreError::io(&e),
                })
            }
        }
    }

    /// Reads `range` of the object at `path` without touching the rest
    /// of it. An object that ends before `range.end` is an I/O error: the
    /// manifest promised those bytes.
    fn read_range(
        &self,
        path: &UrlPath,
        range: std::ops::Range<usize>,
    ) -> Result<Vec<u8>, StoreError> {
        let too_short = || StoreError::Io {
            detail: "object shorter than manifest size".to_string(),
        };
        match self {
            Medium::Memory(map) => map
                .get(path)
                .ok_or_else(|| StoreError::NotFound { path: path.clone() })?
                .get(range)
                .map(<[u8]>::to_vec)
                .ok_or_else(too_short),
            Medium::Disk { root } => {
                use std::io::{Read, Seek, SeekFrom};
                let mut file = std::fs::File::open(Self::object_file(root, path)).map_err(|e| {
                    match e.kind() {
                        std::io::ErrorKind::NotFound => StoreError::NotFound { path: path.clone() },
                        _ => StoreError::io(&e),
                    }
                })?;
                file.seek(SeekFrom::Start(range.start as u64))
                    .map_err(|e| StoreError::io(&e))?;
                let mut chunk = vec![0; range.len()];
                file.read_exact(&mut chunk).map_err(|e| match e.kind() {
                    std::io::ErrorKind::UnexpectedEof => too_short(),
                    _ => StoreError::io(&e),
                })?;
                Ok(chunk)
            }
        }
    }

    /// Stores `body` at `path`. Memory keeps an owned body as it is —
    /// a committed transfer's buffer becomes the object — and copies a
    /// borrowed one; disk writes either and renames.
    fn write(&mut self, path: &UrlPath, body: Cow<'_, [u8]>) -> Result<(), StoreError> {
        match self {
            Medium::Memory(map) => {
                map.insert(path.clone(), body.into_owned());
                Ok(())
            }
            Medium::Disk { root } => {
                let file = Self::object_file(root, path);
                let tmp = file.with_extension("tmp");
                std::fs::write(&tmp, &body).map_err(|e| StoreError::io(&e))?;
                std::fs::rename(&tmp, &file).map_err(|e| StoreError::io(&e))
            }
        }
    }

    fn remove(&mut self, path: &UrlPath) -> Result<(), StoreError> {
        match self {
            Medium::Memory(map) => {
                map.remove(path);
                Ok(())
            }
            Medium::Disk { root } => match std::fs::remove_file(Self::object_file(root, path)) {
                Ok(()) => Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
                Err(e) => Err(StoreError::io(&e)),
            },
        }
    }

    fn rename(&mut self, from: &UrlPath, to: &UrlPath) -> Result<(), StoreError> {
        match self {
            Medium::Memory(map) => {
                if let Some(body) = map.remove(from) {
                    map.insert(to.clone(), body);
                }
                Ok(())
            }
            Medium::Disk { root } => {
                match std::fs::rename(Self::object_file(root, from), Self::object_file(root, to)) {
                    Ok(()) => Ok(()),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
                    Err(e) => Err(StoreError::io(&e)),
                }
            }
        }
    }

    fn durable(&self) -> bool {
        matches!(self, Medium::Disk { .. })
    }
}

/// How far a staged transfer's whole-object checksum is folded:
/// `running` is the FNV-1a state over the staged bytes of chunks
/// `[0, folded)`, all of which are present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fold {
    folded: u32,
    running: u64,
}

impl Fold {
    /// Nothing folded yet.
    const START: Fold = Fold {
        folded: 0,
        running: FNV_BASIS,
    };
}

/// One in-flight staged transfer.
#[derive(Debug)]
struct Staged {
    path: UrlPath,
    meta: ObjectMeta,
    /// The object's bytes, each staged chunk in its own range: no memory
    /// until the first chunk lands (so a `begin` alone holds none), then
    /// `meta.size` bytes reserved once, and filled up to the furthest
    /// chunk staged. `commit` installs this buffer as the body.
    body: Vec<u8>,
    /// One bit per chunk, set once its range of `body` holds staged
    /// bytes; allocated with `body`.
    present: Vec<u64>,
    /// `stage_chunk` advances it when the chunk at `folded` arrives and
    /// resets it when a chunk below `folded` is replaced by different
    /// bytes; `commit` finishes it.
    fold: Fold,
    /// Bytes reserved against the quota (the full object size, reserved
    /// at `begin` so concurrent ships cannot jointly overshoot).
    reserved: u64,
    overwrite: bool,
    /// Progress flag for the two-phase gc: cleared by each sweep, set by
    /// any chunk/commit activity. A transfer idle across two sweeps (with
    /// staging work in between) is abandoned.
    touched: bool,
}

impl Staged {
    fn new(path: &UrlPath, meta: ObjectMeta, overwrite: bool) -> Self {
        Staged {
            path: path.clone(),
            meta,
            body: Vec::new(),
            present: Vec::new(),
            fold: Fold::START,
            reserved: meta.size,
            overwrite,
            touched: true,
        }
    }

    fn has(&self, index: u32) -> bool {
        self.present
            .get(index as usize / 64)
            .is_some_and(|word| word >> (index % 64) & 1 == 1)
    }

    /// Copies a verified `chunk` into its range of the body and keeps the
    /// fold true to the staged bytes. `seen` is the fold as the stager
    /// read it before hashing (with the store lock released) and
    /// `running` is `seen.running` continued over `chunk`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the body buffer, reserved by the first chunk
    /// to land, cannot be.
    fn land(
        &mut self,
        index: u32,
        chunk: &[u8],
        seen: Fold,
        running: u64,
    ) -> Result<(), StoreError> {
        if self.present.is_empty() {
            let no_memory = |detail: String| StoreError::Io {
                detail: format!("cannot stage {}: {detail}", self.path),
            };
            let size = usize::try_from(self.meta.size).map_err(|e| no_memory(e.to_string()))?;
            self.body
                .try_reserve_exact(size)
                .map_err(|e| no_memory(e.to_string()))?;
            self.present = vec![0; self.meta.chunk_count().div_ceil(64) as usize];
        }
        let range = self
            .meta
            .chunk_range(index)
            .expect("stage_chunk checked the index");
        if index < self.fold.folded {
            // Every chunk below the fold is staged. A replay of identical
            // bytes leaves the fold standing; other bytes take it back to
            // the start: it must describe exactly the bytes `commit` will
            // install.
            if self.body[range.clone()] != *chunk {
                self.fold = Fold::START;
            }
        } else if index == seen.folded && self.fold == seen {
            // `running` continued the fold as it still stands. Of two
            // racing stagers of this chunk one gets here and the other
            // finds the fold moved on and is a replay; a stager that
            // raced a replacement below it finds the fold reset and
            // leaves it so.
            self.fold = Fold {
                folded: index + 1,
                running,
            };
        }
        // The body's length is always a chunk boundary, so a chunk lies
        // wholly inside it or wholly past it. Past it, the chunk appends:
        // in order there is nothing to zero, and a chunk that overtook
        // its predecessors zero-fills the gap they will be copied into.
        // Either way the body stays inside the capacity reserved above.
        if range.start < self.body.len() {
            self.body[range].copy_from_slice(chunk);
        } else {
            self.body.resize(range.start, 0);
            self.body.extend_from_slice(chunk);
        }
        self.present[index as usize / 64] |= 1 << (index % 64);
        Ok(())
    }

    fn received(&self) -> u64 {
        (0..self.meta.chunk_count())
            .filter(|&i| self.has(i))
            .filter_map(|i| self.meta.chunk_len(i))
            .map(u64::from)
            .sum()
    }

    fn missing(&self) -> u64 {
        let landed: u32 = self.present.iter().map(|word| word.count_ones()).sum();
        u64::from(self.meta.chunk_count() - landed)
    }
}

#[derive(Debug)]
struct Inner {
    medium: Medium,
    manifest: BTreeMap<UrlPath, ObjectMeta>,
    staged: HashMap<u64, Staged>,
    next_transfer: u64,
    capacity: u64,
    committed_bytes: u64,
    /// Chunks across the manifest, kept beside `committed_bytes` so
    /// `stats()` never walks the manifest.
    committed_chunks: u64,
    staged_bytes: u64,
    committed_total: u64,
    resumed_transfers: u64,
    rejected_chunks: u64,
    verify_failures: u64,
    gc_transfers: u64,
    gc_bytes: u64,
    /// Whether any staging call (`begin`, `stage_chunk`, `commit`,
    /// `abort`) arrived since the last sweep, and what that sweep
    /// released: a sweep with no staging since is that sweep again.
    staged_since_sweep: bool,
    last_sweep: (u64, u64),
}

impl Inner {
    fn free(&self) -> u64 {
        self.capacity
            .saturating_sub(self.committed_bytes + self.staged_bytes)
    }

    fn persist_manifest(&self) -> Result<(), StoreError> {
        let Medium::Disk { root } = &self.medium else {
            return Ok(());
        };
        let records: Vec<(UrlPath, ObjectMeta)> =
            self.manifest.iter().map(|(p, m)| (p.clone(), *m)).collect();
        let json = serde_json::to_string(&records).expect("manifest always serializes");
        let file = root.join("manifest.json");
        let tmp = root.join("manifest.json.tmp");
        std::fs::write(&tmp, json).map_err(|e| StoreError::io(&e))?;
        std::fs::rename(&tmp, &file).map_err(|e| StoreError::io(&e))
    }

    /// Installs a fully verified body as the committed object at `path`.
    /// The single place committed state changes on ingest: callers have
    /// already verified the checksum.
    fn install(
        &mut self,
        path: &UrlPath,
        meta: ObjectMeta,
        body: Cow<'_, [u8]>,
    ) -> Result<(), StoreError> {
        self.medium.write(path, body)?;
        if let Some(replaced) = self.manifest.insert(path.clone(), meta) {
            self.uncount(&replaced);
        }
        self.committed_bytes += meta.size;
        self.committed_chunks += u64::from(meta.chunk_count());
        self.committed_total += 1;
        self.persist_manifest()
    }

    /// Installs a whole verified `body` under the overwrite and quota
    /// rules, and returns the record that then stands at `path`. An
    /// identical committed object (same size and checksum) is that
    /// record, installed again only if `reinstall_identical`.
    fn install_whole(
        &mut self,
        path: &UrlPath,
        meta: ObjectMeta,
        body: &[u8],
        overwrite: bool,
        reinstall_identical: bool,
    ) -> Result<ObjectMeta, StoreError> {
        let replaced = match self.manifest.get(path) {
            Some(m)
                if !reinstall_identical && m.checksum == meta.checksum && m.size == meta.size =>
            {
                return Ok(*m);
            }
            Some(_) if !overwrite => {
                return Err(StoreError::AlreadyExists { path: path.clone() });
            }
            Some(m) => m.size,
            None => 0,
        };
        let free = self.free() + replaced;
        if meta.size > free {
            return Err(StoreError::DiskFull {
                path: path.clone(),
                needed: meta.size,
                free,
            });
        }
        self.install(path, meta, Cow::Borrowed(body))?;
        Ok(meta)
    }

    /// Takes an object that left the manifest out of the accounting.
    fn uncount(&mut self, gone: &ObjectMeta) {
        self.committed_bytes -= gone.size;
        self.committed_chunks -= u64::from(gone.chunk_count());
    }
}

/// One node's content repository. Interior-locked: shared freely between
/// a broker service thread and an origin server.
#[derive(Debug)]
pub struct ContentStore {
    node: NodeId,
    inner: Mutex<Inner>,
    /// [`StoreStats::hashed_bytes`]; outside the lock because chunks are
    /// hashed with it released.
    hashed_bytes: AtomicU64,
}

impl ContentStore {
    /// An in-memory store for `node` with a byte quota.
    #[must_use]
    pub fn in_memory(node: NodeId, capacity: u64) -> Self {
        ContentStore {
            node,
            inner: Mutex::new(Inner {
                medium: Medium::Memory(HashMap::new()),
                manifest: BTreeMap::new(),
                staged: HashMap::new(),
                next_transfer: 1,
                capacity,
                committed_bytes: 0,
                committed_chunks: 0,
                staged_bytes: 0,
                committed_total: 0,
                resumed_transfers: 0,
                rejected_chunks: 0,
                verify_failures: 0,
                gc_transfers: 0,
                gc_bytes: 0,
                staged_since_sweep: false,
                last_sweep: (0, 0),
            }),
            hashed_bytes: AtomicU64::new(0),
        }
    }

    /// Opens (or creates) a disk-backed store rooted at `root`. Reloads
    /// the manifest if present; manifest records whose object file is
    /// missing or truncated are dropped (crash between body write and
    /// manifest rewrite loses at most the manifest record, never serves
    /// a partial body).
    ///
    /// # Errors
    ///
    /// Filesystem failures creating the layout or reading the manifest.
    pub fn open(node: NodeId, root: impl Into<PathBuf>, capacity: u64) -> Result<Self, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(root.join("objects")).map_err(|e| StoreError::io(&e))?;
        let mut manifest = BTreeMap::new();
        let mut committed_bytes = 0_u64;
        let mut committed_chunks = 0_u64;
        let manifest_file = root.join("manifest.json");
        if manifest_file.exists() {
            let json = std::fs::read_to_string(&manifest_file).map_err(|e| StoreError::io(&e))?;
            let records: Vec<(UrlPath, ObjectMeta)> =
                serde_json::from_str(&json).map_err(|e| StoreError::Io {
                    detail: format!("corrupt manifest: {e}"),
                })?;
            for (path, meta) in records {
                let ok = std::fs::metadata(Medium::object_file(&root, &path))
                    .map(|m| m.len() == meta.size)
                    .unwrap_or(false);
                if ok {
                    committed_bytes += meta.size;
                    committed_chunks += u64::from(meta.chunk_count());
                    manifest.insert(path, meta);
                }
            }
        }
        let store = ContentStore {
            node,
            inner: Mutex::new(Inner {
                medium: Medium::Disk { root },
                manifest,
                staged: HashMap::new(),
                next_transfer: 1,
                capacity,
                committed_bytes,
                committed_chunks,
                staged_bytes: 0,
                committed_total: 0,
                resumed_transfers: 0,
                rejected_chunks: 0,
                verify_failures: 0,
                gc_transfers: 0,
                gc_bytes: 0,
                staged_since_sweep: false,
                last_sweep: (0, 0),
            }),
            hashed_bytes: AtomicU64::new(0),
        };
        store.lock().persist_manifest()?;
        Ok(store)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("content store lock never poisoned")
    }

    fn count_hashed(&self, bytes: usize) {
        self.hashed_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// The node this store belongs to.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Opens a staged transfer for `path` described by `meta`, returning
    /// `(transfer_id, have)` where `have` lists chunk indices already
    /// staged. Three idempotent cases:
    ///
    /// - the identical object is already **committed** → transfer id `0`
    ///   (the committed sentinel) with every chunk reported present, so a
    ///   re-ship after a lost commit-ack sends nothing;
    /// - a staged transfer for the same path and checksum exists →
    ///   **resume**: the same transfer id and its progress are returned;
    /// - a staged transfer for the same path but different content exists
    ///   → it is aborted and a fresh transfer opened.
    ///
    /// # Errors
    ///
    /// [`StoreError::AlreadyExists`] for a different committed object
    /// without `overwrite`; [`StoreError::DiskFull`] if the reservation
    /// does not fit.
    pub fn begin(
        &self,
        path: &UrlPath,
        meta: ObjectMeta,
        overwrite: bool,
    ) -> Result<(u64, Vec<u32>), StoreError> {
        let mut inner = self.lock();
        inner.staged_since_sweep = true;
        if let Some(existing) = inner.manifest.get(path) {
            if existing.checksum == meta.checksum && existing.size == meta.size {
                return Ok((0, (0..meta.chunk_count()).collect()));
            }
            if !overwrite {
                return Err(StoreError::AlreadyExists { path: path.clone() });
            }
        }
        if let Some((&id, staged)) = inner.staged.iter().find(|(_, s)| &s.path == path) {
            if staged.meta.checksum == meta.checksum && staged.meta.size == meta.size {
                let have: Vec<u32> = (0..meta.chunk_count()).filter(|&i| staged.has(i)).collect();
                let resumed = !have.is_empty();
                let staged = inner.staged.get_mut(&id).expect("just found");
                staged.touched = true;
                staged.overwrite = overwrite;
                if resumed {
                    inner.resumed_transfers += 1;
                }
                return Ok((id, have));
            }
            let stale = inner.staged.remove(&id).expect("just found");
            inner.staged_bytes -= stale.reserved;
        }
        let replaced = if overwrite {
            inner.manifest.get(path).map(|m| m.size).unwrap_or(0)
        } else {
            0
        };
        let free = inner.free() + replaced;
        if meta.size > free {
            return Err(StoreError::DiskFull {
                path: path.clone(),
                needed: meta.size,
                free,
            });
        }
        let id = inner.next_transfer;
        inner.next_transfer += 1;
        inner.staged_bytes += meta.size;
        inner.staged.insert(id, Staged::new(path, meta, overwrite));
        Ok((id, Vec::new()))
    }

    /// Stages one chunk of an open transfer after verifying its checksum
    /// and length. Idempotent for re-sent chunks that match what is
    /// already staged. The pass that checks the chunk also continues the
    /// transfer's whole-object checksum over it when it is the next chunk
    /// in order, so [`ContentStore::commit`] has only the out-of-order
    /// remainder left to hash.
    ///
    /// # Errors
    ///
    /// [`StoreError::ChunkRejected`] on checksum mismatch (the chunk is
    /// discarded and counted — the sender must re-send);
    /// [`StoreError::BadChunk`] on bad index/length;
    /// [`StoreError::NoSuchTransfer`] if the transfer is gone (the sender
    /// should re-`begin` and resume).
    pub fn stage_chunk(
        &self,
        transfer: u64,
        index: u32,
        data: &[u8],
        checksum: u64,
    ) -> Result<(), StoreError> {
        let seen = {
            let mut inner = self.lock();
            inner.staged_since_sweep = true;
            let staged = inner
                .staged
                .get_mut(&transfer)
                .ok_or(StoreError::NoSuchTransfer { transfer })?;
            staged.touched = true;
            let Some(expected_len) = staged.meta.chunk_len(index) else {
                return Err(StoreError::BadChunk {
                    path: staged.path.clone(),
                    index,
                    detail: format!(
                        "index out of range (object has {})",
                        staged.meta.chunk_count()
                    ),
                });
            };
            if data.len() != expected_len as usize {
                return Err(StoreError::BadChunk {
                    path: staged.path.clone(),
                    index,
                    detail: format!("length {} != expected {expected_len}", data.len()),
                });
            }
            staged.fold
        };
        // Hash with the lock released: the node's origin reads through the
        // same lock. Transfer ids are never reused, so the geometry
        // checked above still holds if the id is still staged.
        let (got, running) = fnv64_fold(seen.running, data);
        self.count_hashed(data.len());
        let mut inner = self.lock();
        let staged = inner
            .staged
            .get_mut(&transfer)
            .ok_or(StoreError::NoSuchTransfer { transfer })?;
        if got != checksum {
            let path = staged.path.clone();
            inner.rejected_chunks += 1;
            return Err(StoreError::ChunkRejected {
                path,
                index,
                expected: checksum,
                got,
            });
        }
        staged.land(index, data, seen, running)
    }

    /// Commits a staged transfer: finishes the whole-object checksum the
    /// staging fold began (over every chunk the fold has not covered —
    /// none when they arrived in order), verifies it against both the
    /// staged meta and the caller-announced `checksum`, then atomically
    /// installs the staged body buffer, moved and not copied, as the
    /// object.
    /// Idempotent: committing a transfer that already committed (id `0`
    /// sentinel or a re-sent commit after a lost ack) succeeds if the
    /// committed object matches `checksum`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Incomplete`] with the missing-chunk count,
    /// [`StoreError::ChecksumMismatch`] (the staged transfer is kept so
    /// poisoned chunks can be re-sent — every staged chunk passed its own
    /// check, so this means the announcement itself was wrong),
    /// [`StoreError::NoSuchTransfer`] for an unknown id with no matching
    /// committed object.
    pub fn commit(
        &self,
        transfer: u64,
        path: &UrlPath,
        checksum: u64,
    ) -> Result<ObjectMeta, StoreError> {
        let mut inner = self.lock();
        inner.staged_since_sweep = true;
        let already = inner.manifest.get(path).copied();
        let Some(staged) = inner.staged.get_mut(&transfer) else {
            // Lost-ack replay or committed-sentinel commit.
            return match already {
                Some(meta) if meta.checksum == checksum => Ok(meta),
                _ => Err(StoreError::NoSuchTransfer { transfer }),
            };
        };
        if &staged.path != path {
            return Err(StoreError::BadChunk {
                path: path.clone(),
                index: 0,
                detail: format!("transfer {transfer} stages {}, not {path}", staged.path),
            });
        }
        staged.touched = true;
        let missing = staged.missing();
        if missing > 0 {
            return Err(StoreError::Incomplete {
                path: path.clone(),
                missing,
            });
        }
        if let Some(existing) = already {
            if !staged.overwrite {
                // The object appeared (e.g. a concurrent ship won) after
                // this transfer began; identical content is fine.
                if existing.checksum == staged.meta.checksum {
                    let reserved = staged.reserved;
                    inner.staged.remove(&transfer);
                    inner.staged_bytes -= reserved;
                    return Ok(existing);
                }
                return Err(StoreError::AlreadyExists { path: path.clone() });
            }
        }
        let unfolded = staged
            .meta
            .chunk_range(staged.fold.folded)
            .map_or(staged.body.len(), |range| range.start);
        let rest = &staged.body[unfolded..];
        let got = fnv64_fold(staged.fold.running, rest).1;
        self.count_hashed(rest.len());
        if got != checksum || got != staged.meta.checksum {
            inner.verify_failures += 1;
            return Err(StoreError::ChecksumMismatch {
                path: path.clone(),
                expected: checksum,
                got,
            });
        }
        let staged = inner.staged.remove(&transfer).expect("still held");
        inner.staged_bytes -= staged.reserved;
        inner.install(path, staged.meta, Cow::Owned(staged.body))?;
        Ok(staged.meta)
    }

    /// Drops a staged transfer, releasing its reservation. Returns whether
    /// `transfer` is an id this store opened — staged until now, or
    /// already committed, aborted or swept — so a replayed abort answers
    /// as the first did.
    pub fn abort(&self, transfer: u64) -> bool {
        let mut inner = self.lock();
        inner.staged_since_sweep = true;
        if let Some(s) = inner.staged.remove(&transfer) {
            inner.staged_bytes -= s.reserved;
        }
        (1..inner.next_transfer).contains(&transfer)
    }

    /// Stores a whole body locally in one step (the local fast path:
    /// publish on the same process, seeding tests). Same quota and
    /// overwrite rules as the staged path.
    ///
    /// # Errors
    ///
    /// [`StoreError::AlreadyExists`] / [`StoreError::DiskFull`] / I/O.
    pub fn put(
        &self,
        path: &UrlPath,
        content: ContentId,
        version: u64,
        body: &[u8],
        overwrite: bool,
    ) -> Result<ObjectMeta, StoreError> {
        let meta = ObjectMeta::for_body(content, body, DEFAULT_CHUNK_SIZE, version);
        self.count_hashed(body.len());
        // An overwriting put installs even identical bytes: its version
        // may be new.
        self.lock()
            .install_whole(path, meta, body, overwrite, overwrite)
    }

    /// Installs an object of at most one chunk that arrived whole (the
    /// receiving half of a one-frame `Put`), holding it to every check
    /// the staged path makes: `body` must be `meta.size` bytes, `meta`
    /// must describe at most one chunk of a positive chunk size, and
    /// `fnv64(body)` must be `meta.checksum` — the one hash pass on this
    /// side. The same overwrite and quota rules as [`ContentStore::put`]
    /// then apply, except that an identical committed object (same size
    /// and checksum) is answered as it stands whatever `overwrite` says,
    /// as [`ContentStore::begin`] answers it: a `Put` replayed after a
    /// lost ack installs nothing new.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadChunk`] on geometry, [`StoreError::ChunkRejected`]
    /// on a checksum mismatch (counted in `rejected_chunks`: the sender
    /// re-sends), [`StoreError::AlreadyExists`] / [`StoreError::DiskFull`]
    /// / I/O. A refused body leaves nothing installed or reserved.
    pub fn put_whole(
        &self,
        path: &UrlPath,
        meta: ObjectMeta,
        body: &[u8],
        overwrite: bool,
    ) -> Result<ObjectMeta, StoreError> {
        let bad = |detail: String| StoreError::BadChunk {
            path: path.clone(),
            index: 0,
            detail,
        };
        if meta.chunk_size == 0 {
            return Err(bad("chunk size 0".to_string()));
        }
        if meta.chunk_count() > 1 {
            return Err(bad(format!(
                "{} chunks announced, a whole put carries at most one",
                meta.chunk_count()
            )));
        }
        if body.len() as u64 != meta.size {
            return Err(bad(format!(
                "length {} != announced size {}",
                body.len(),
                meta.size
            )));
        }
        // Hash with the lock released, as `stage_chunk` does.
        let got = fnv64(body);
        self.count_hashed(body.len());
        let mut inner = self.lock();
        if got != meta.checksum {
            inner.rejected_chunks += 1;
            return Err(StoreError::ChunkRejected {
                path: path.clone(),
                index: 0,
                expected: meta.checksum,
                got,
            });
        }
        inner.install_whole(path, meta, body, overwrite, false)
    }

    /// Reads a committed object's body.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] / I/O.
    pub fn read(&self, path: &UrlPath) -> Result<Vec<u8>, StoreError> {
        let inner = self.lock();
        if !inner.manifest.contains_key(path) {
            return Err(StoreError::NotFound { path: path.clone() });
        }
        inner.medium.read(path)
    }

    /// Reads one chunk of a committed object, returning the bytes and
    /// their FNV checksum (the serving half of a pull-style fetch).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] / [`StoreError::BadChunk`] / I/O.
    pub fn read_chunk(&self, path: &UrlPath, index: u32) -> Result<(Vec<u8>, u64), StoreError> {
        self.read_part(path, |meta| {
            meta.chunk_range(index).ok_or_else(|| StoreError::BadChunk {
                path: path.clone(),
                index,
                detail: format!("index out of range (object has {})", meta.chunk_count()),
            })
        })
        .map(|(_meta, chunk, sum)| (chunk, sum))
    }

    /// Reads a committed object's manifest record with its first chunk
    /// (empty for a zero-byte object) and that chunk's FNV checksum, all
    /// under one lock so the three describe one object: the serving half
    /// of a `Get`, which opens every pull.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] / I/O.
    pub fn read_head(&self, path: &UrlPath) -> Result<(ObjectMeta, Vec<u8>, u64), StoreError> {
        self.read_part(path, |meta| Ok(meta.chunk_range(0).unwrap_or(0..0)))
    }

    /// Reads the part of the object at `path` that `range` picks from its
    /// record, and hashes it with the lock released.
    fn read_part(
        &self,
        path: &UrlPath,
        range: impl FnOnce(&ObjectMeta) -> Result<std::ops::Range<usize>, StoreError>,
    ) -> Result<(ObjectMeta, Vec<u8>, u64), StoreError> {
        let (meta, chunk) = {
            let inner = self.lock();
            let meta = *inner
                .manifest
                .get(path)
                .ok_or_else(|| StoreError::NotFound { path: path.clone() })?;
            let range = range(&meta)?;
            (meta, inner.medium.read_range(path, range)?)
        };
        let sum = fnv64(&chunk);
        self.count_hashed(chunk.len());
        Ok((meta, chunk, sum))
    }

    /// The manifest record for `path`, if committed.
    #[must_use]
    pub fn meta(&self, path: &UrlPath) -> Option<ObjectMeta> {
        self.lock().manifest.get(path).copied()
    }

    /// Whether a committed object exists at `path`.
    #[must_use]
    pub fn contains(&self, path: &UrlPath) -> bool {
        self.lock().manifest.contains_key(path)
    }

    /// Every committed object, sorted by path (the `Inventory` RPC body).
    #[must_use]
    pub fn inventory(&self) -> Vec<(UrlPath, ObjectMeta)> {
        self.lock()
            .manifest
            .iter()
            .map(|(p, m)| (p.clone(), *m))
            .collect()
    }

    /// Deletes a committed object.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] / I/O.
    pub fn delete(&self, path: &UrlPath) -> Result<ObjectMeta, StoreError> {
        let mut inner = self.lock();
        if !inner.manifest.contains_key(path) {
            return Err(StoreError::NotFound { path: path.clone() });
        }
        // Medium first: a failed removal leaves the object listed.
        inner.medium.remove(path)?;
        let meta = inner.manifest.remove(path).expect("checked above");
        inner.uncount(&meta);
        inner.persist_manifest()?;
        Ok(meta)
    }

    /// Renames a committed object, returning its record.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] / [`StoreError::AlreadyExists`] / I/O.
    pub fn rename(&self, from: &UrlPath, to: &UrlPath) -> Result<ObjectMeta, StoreError> {
        let mut inner = self.lock();
        if inner.manifest.contains_key(to) {
            return Err(StoreError::AlreadyExists { path: to.clone() });
        }
        if !inner.manifest.contains_key(from) {
            return Err(StoreError::NotFound { path: from.clone() });
        }
        // Medium first: a failed move leaves the object listed at `from`.
        inner.medium.rename(from, to)?;
        let meta = inner.manifest.remove(from).expect("checked above");
        inner.manifest.insert(to.clone(), meta);
        inner.persist_manifest()?;
        Ok(meta)
    }

    /// Raises a committed object's version to `version` (a content update
    /// that keeps the same bytes) and returns its record. A version at or
    /// below the current one changes nothing, so a replay is a no-op and
    /// replicas told the same version converge on it.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] / I/O.
    pub fn touch(&self, path: &UrlPath, version: u64) -> Result<ObjectMeta, StoreError> {
        let mut inner = self.lock();
        let meta = inner
            .manifest
            .get_mut(path)
            .ok_or_else(|| StoreError::NotFound { path: path.clone() })?;
        meta.version = meta.version.max(version);
        let meta = *meta;
        inner.persist_manifest()?;
        Ok(meta)
    }

    /// Re-reads a committed object and verifies its size and checksum
    /// against the manifest.
    ///
    /// # Errors
    ///
    /// [`StoreError::ChecksumMismatch`] on corruption (counted in
    /// `verify_failures`), [`StoreError::NotFound`] / I/O.
    pub fn verify(&self, path: &UrlPath) -> Result<ObjectMeta, StoreError> {
        let mut inner = self.lock();
        let meta = *inner
            .manifest
            .get(path)
            .ok_or_else(|| StoreError::NotFound { path: path.clone() })?;
        let body = inner.medium.read(path)?;
        let got = fnv64(&body);
        self.count_hashed(body.len());
        if body.len() as u64 != meta.size || got != meta.checksum {
            inner.verify_failures += 1;
            return Err(StoreError::ChecksumMismatch {
                path: path.clone(),
                expected: meta.checksum,
                got,
            });
        }
        Ok(meta)
    }

    /// Verifies every committed object, returning the failures.
    #[must_use]
    pub fn verify_all(&self) -> Vec<(UrlPath, StoreError)> {
        let paths: Vec<UrlPath> = self.lock().manifest.keys().cloned().collect();
        paths
            .into_iter()
            .filter_map(|p| self.verify(&p).err().map(|e| (p, e)))
            .collect()
    }

    /// Sweeps staged transfers that made no progress since the previous
    /// sweep (two-phase mark/sweep: no clocks). Returns `(transfers,
    /// bytes)` released. A sweep with no staging call since the previous
    /// one — a replay, or a store where nothing moved — is that sweep
    /// again: it releases nothing more and answers the same, so a
    /// transfer is abandoned only if it sat idle while the store did
    /// other staging work.
    pub fn gc(&self) -> (u64, u64) {
        let mut inner = self.lock();
        if !inner.staged_since_sweep {
            return inner.last_sweep;
        }
        inner.staged_since_sweep = false;
        let dead: Vec<u64> = inner
            .staged
            .iter()
            .filter_map(|(&id, s)| (!s.touched).then_some(id))
            .collect();
        let mut bytes = 0;
        for id in &dead {
            let s = inner.staged.remove(id).expect("collected above");
            inner.staged_bytes -= s.reserved;
            bytes += s.reserved;
        }
        for s in inner.staged.values_mut() {
            s.touched = false;
        }
        inner.gc_transfers += dead.len() as u64;
        inner.gc_bytes += bytes;
        inner.last_sweep = (dead.len() as u64, bytes);
        inner.last_sweep
    }

    /// Point-in-time accounting.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        StoreStats {
            node: self.node,
            objects: inner.manifest.len() as u64,
            chunks: inner.committed_chunks,
            committed_bytes: inner.committed_bytes,
            capacity_bytes: inner.capacity,
            staged_transfers: inner.staged.len() as u64,
            staged_bytes: inner.staged_bytes,
            committed_total: inner.committed_total,
            resumed_transfers: inner.resumed_transfers,
            rejected_chunks: inner.rejected_chunks,
            verify_failures: inner.verify_failures,
            gc_transfers: inner.gc_transfers,
            gc_bytes: inner.gc_bytes,
            hashed_bytes: self.hashed_bytes.load(Ordering::Relaxed),
            durable: inner.medium.durable(),
        }
    }

    /// Bytes staged so far for an in-flight transfer shipping `path`
    /// (observability: "how far along is the transfer?").
    #[must_use]
    pub fn staged_progress(&self, path: &UrlPath) -> Option<u64> {
        let inner = self.lock();
        inner
            .staged
            .values()
            .find(|s| &s.path == path)
            .map(Staged::received)
    }

    /// Corrupts a committed object's bytes in place (failure injection
    /// for audit tests; memory and disk media alike).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] / I/O.
    pub fn corrupt_for_test(&self, path: &UrlPath) -> Result<(), StoreError> {
        let mut inner = self.lock();
        if !inner.manifest.contains_key(path) {
            return Err(StoreError::NotFound { path: path.clone() });
        }
        let mut body = inner.medium.read(path)?;
        if body.is_empty() {
            body.push(0xEE);
        } else {
            body[0] ^= 0xFF;
        }
        inner.medium.write(path, Cow::Owned(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::synthetic_body;

    fn p(s: &str) -> UrlPath {
        s.parse().unwrap()
    }

    /// Stages every chunk of `from` into `transfer`, in order.
    fn stage_all(store: &ContentStore, transfer: u64, meta: &ObjectMeta, from: &[u8]) {
        for i in 0..meta.chunk_count() {
            let chunk = &from[meta.chunk_range(i).unwrap()];
            store.stage_chunk(transfer, i, chunk, fnv64(chunk)).unwrap();
        }
    }

    fn ship(store: &ContentStore, path: &UrlPath, meta: ObjectMeta, body: &[u8]) -> ObjectMeta {
        let (id, have) = store.begin(path, meta, false).unwrap();
        assert!(have.is_empty(), "ships into a store that has none of it");
        stage_all(store, id, &meta, body);
        store.commit(id, path, meta.checksum).unwrap()
    }

    #[test]
    fn stage_commit_read_roundtrip() {
        let store = ContentStore::in_memory(NodeId(0), 1 << 20);
        let body = synthetic_body(ContentId(1), 10_000);
        let meta = ObjectMeta::for_body(ContentId(1), &body, 1024, 0);
        let committed = ship(&store, &p("/a"), meta, &body);
        assert_eq!(committed, meta);
        assert_eq!(store.read(&p("/a")).unwrap(), body);
        assert_eq!(store.meta(&p("/a")), Some(meta));
        let stats = store.stats();
        assert_eq!(stats.objects, 1);
        assert_eq!(stats.committed_bytes, 10_000);
        assert_eq!(stats.staged_transfers, 0);
        assert_eq!(stats.staged_bytes, 0);
        assert_eq!(stats.rejected_chunks, 0);
    }

    #[test]
    fn poisoned_chunk_rejected_and_resendable() {
        let store = ContentStore::in_memory(NodeId(0), 1 << 20);
        let body = synthetic_body(ContentId(2), 3000);
        let meta = ObjectMeta::for_body(ContentId(2), &body, 1000, 0);
        let (id, _) = store.begin(&p("/x"), meta, false).unwrap();
        let chunk = &body[0..1000];
        let mut poisoned = chunk.to_vec();
        poisoned[5] ^= 0xFF;
        let err = store
            .stage_chunk(id, 0, &poisoned, fnv64(chunk))
            .unwrap_err();
        assert!(matches!(err, StoreError::ChunkRejected { index: 0, .. }));
        assert_eq!(store.stats().rejected_chunks, 1);
        // The honest re-send lands.
        store.stage_chunk(id, 0, chunk, fnv64(chunk)).unwrap();
        for i in 1..3 {
            let r = meta.chunk_range(i).unwrap();
            store
                .stage_chunk(id, i, &body[r], fnv64(&body[meta.chunk_range(i).unwrap()]))
                .unwrap();
        }
        store.commit(id, &p("/x"), meta.checksum).unwrap();
        assert_eq!(store.read(&p("/x")).unwrap(), body);
    }

    /// The interleaving the fold's compare-and-advance exists for, forced:
    /// a stager reads the fold, a replacement below it lands while it
    /// hashes, then it lands.
    #[test]
    fn a_stager_that_raced_a_replacement_below_it_does_not_advance_the_stale_fold() {
        let store = ContentStore::in_memory(NodeId(0), 1 << 20);
        let body = synthetic_body(ContentId(2), 4000);
        let other = synthetic_body(ContentId(3), 1000);
        let meta = ObjectMeta::for_body(ContentId(2), &body, 1000, 0);
        let (id, _) = store.begin(&p("/x"), meta, false).unwrap();
        for i in 0..2 {
            let chunk = &body[meta.chunk_range(i).unwrap()];
            store.stage_chunk(id, i, chunk, fnv64(chunk)).unwrap();
        }
        // Chunk 2's stager reads the fold (two chunks in) and goes off to
        // hash with the lock released...
        let seen = store.lock().staged[&id].fold;
        assert_eq!(seen.folded, 2);
        let chunk = &body[2000..3000];
        let (_, running) = fnv64_fold(seen.running, chunk);
        // ...chunk 0 is replaced by other bytes meanwhile...
        store.stage_chunk(id, 0, &other, fnv64(&other)).unwrap();
        // ...and chunk 2 lands with the state it read before that.
        let mut inner = store.lock();
        let staged = inner.staged.get_mut(&id).unwrap();
        staged.land(2, chunk, seen, running).unwrap();
        assert_eq!(staged.fold, Fold::START, "the stale state was not built on");
        drop(inner);
        let last = &body[3000..];
        store.stage_chunk(id, 3, last, fnv64(last)).unwrap();
        let mut assembled = body.clone();
        assembled[..1000].copy_from_slice(&other);
        assert_eq!(
            store.commit(id, &p("/x"), meta.checksum),
            Err(StoreError::ChecksumMismatch {
                path: p("/x"),
                expected: meta.checksum,
                got: fnv64(&assembled),
            })
        );
    }

    /// The body memory holds for `path`.
    fn memory_body(store: &ContentStore, path: &UrlPath) -> *const u8 {
        let inner = store.lock();
        let Medium::Memory(map) = &inner.medium else {
            panic!("an in-memory store");
        };
        map[path].as_ptr()
    }

    #[test]
    fn an_in_order_commit_installs_the_staging_buffer_itself() {
        let store = ContentStore::in_memory(NodeId(0), 1 << 20);
        let body = synthetic_body(ContentId(1), 10_000);
        let meta = ObjectMeta::for_body(ContentId(1), &body, 1024, 0);
        let (id, _) = store.begin(&p("/a"), meta, false).unwrap();
        stage_all(&store, id, &meta, &body);
        let staging = store.lock().staged[&id].body.as_ptr();
        store.commit(id, &p("/a"), meta.checksum).unwrap();
        assert_eq!(
            memory_body(&store, &p("/a")),
            staging,
            "the committed body is the buffer the chunks were staged into"
        );
        assert_eq!(store.read(&p("/a")).unwrap(), body);
    }

    #[test]
    fn a_begin_holds_no_body_until_a_chunk_lands() {
        let store = ContentStore::in_memory(NodeId(0), 1 << 20);
        let body = synthetic_body(ContentId(1), 10_000);
        let meta = ObjectMeta::for_body(ContentId(1), &body, 1024, 0);
        let (id, _) = store.begin(&p("/a"), meta, false).unwrap();
        let held = |store: &ContentStore| {
            let inner = store.lock();
            let staged = &inner.staged[&id];
            (staged.body.capacity(), staged.present.capacity())
        };
        assert_eq!(held(&store), (0, 0), "begin allocates nothing");
        assert_eq!(store.begin(&p("/a"), meta, false).unwrap(), (id, vec![]));
        assert_eq!(
            held(&store),
            (0, 0),
            "nor does a resume with nothing staged"
        );
        assert_eq!(store.stats().staged_bytes, 10_000, "the quota is reserved");
        let last = &body[9216..];
        store.stage_chunk(id, 9, last, fnv64(last)).unwrap();
        assert_eq!(
            held(&store).0,
            10_000,
            "the first chunk sizes the body once"
        );
    }

    #[test]
    fn a_replaced_chunk_resent_honestly_commits_the_honest_bytes() {
        let store = ContentStore::in_memory(NodeId(0), 1 << 20);
        let body = synthetic_body(ContentId(1), 4000);
        let other = synthetic_body(ContentId(2), 1000);
        let meta = ObjectMeta::for_body(ContentId(1), &body, 1000, 0);
        let (id, _) = store.begin(&p("/a"), meta, false).unwrap();
        stage_all(&store, id, &meta, &body);
        // Chunk 1 is overwritten by other bytes carrying their own sum:
        // the staging buffer holds them, and commit refuses them.
        store.stage_chunk(id, 1, &other, fnv64(&other)).unwrap();
        let mut replaced = body.clone();
        replaced[1000..2000].copy_from_slice(&other);
        assert_eq!(store.lock().staged[&id].body, replaced);
        assert_eq!(
            store.commit(id, &p("/a"), meta.checksum),
            Err(StoreError::ChecksumMismatch {
                path: p("/a"),
                expected: meta.checksum,
                got: fnv64(&replaced),
            })
        );
        // The honest re-send overwrites them in place.
        let honest = &body[1000..2000];
        store.stage_chunk(id, 1, honest, fnv64(honest)).unwrap();
        assert_eq!(store.commit(id, &p("/a"), meta.checksum), Ok(meta));
        assert_eq!(store.read(&p("/a")).unwrap(), body);
    }

    #[test]
    fn a_body_too_large_to_allocate_is_a_typed_error() {
        let store = ContentStore::in_memory(NodeId(0), u64::MAX);
        // More than `isize::MAX` bytes, whose last chunk is 10 bytes long.
        let chunk_size = u32::MAX;
        let size = (1_u64 << 31 | 1) * u64::from(chunk_size) + 10;
        let meta = ObjectMeta {
            content: ContentId(1),
            size,
            checksum: 0,
            chunk_size,
            version: 0,
        };
        let (id, _) = store.begin(&p("/huge"), meta, false).unwrap();
        let last = meta.chunk_count() - 1;
        assert_eq!(meta.chunk_len(last), Some(10));
        let err = store.stage_chunk(id, last, &[7; 10], fnv64(&[7; 10]));
        assert!(matches!(err, Err(StoreError::Io { .. })), "{err:?}");
        assert_eq!(store.stats().staged_transfers, 1, "the transfer stays open");
        assert!(store.abort(id));
        assert_eq!(store.stats().staged_bytes, 0);
    }

    #[test]
    fn commit_is_atomic_and_incomplete_rejected() {
        let store = ContentStore::in_memory(NodeId(0), 1 << 20);
        let body = synthetic_body(ContentId(3), 2048);
        let meta = ObjectMeta::for_body(ContentId(3), &body, 1024, 0);
        let (id, _) = store.begin(&p("/partial"), meta, false).unwrap();
        let r = meta.chunk_range(0).unwrap();
        store
            .stage_chunk(id, 0, &body[r], fnv64(&body[meta.chunk_range(0).unwrap()]))
            .unwrap();
        let err = store.commit(id, &p("/partial"), meta.checksum).unwrap_err();
        assert!(matches!(err, StoreError::Incomplete { missing: 1, .. }));
        // Uncommitted means invisible.
        assert!(!store.contains(&p("/partial")));
        assert!(store.read(&p("/partial")).is_err());
        assert_eq!(store.stats().staged_transfers, 1);
    }

    #[test]
    fn begin_resumes_partial_transfer() {
        let store = ContentStore::in_memory(NodeId(0), 1 << 20);
        let body = synthetic_body(ContentId(4), 4096);
        let meta = ObjectMeta::for_body(ContentId(4), &body, 1024, 0);
        let (id, have) = store.begin(&p("/r"), meta, false).unwrap();
        assert!(have.is_empty());
        for i in [0u32, 2] {
            let r = meta.chunk_range(i).unwrap();
            store
                .stage_chunk(id, i, &body[r.clone()], fnv64(&body[r]))
                .unwrap();
        }
        // "Connection lost": a fresh begin resumes the same transfer.
        let (id2, have2) = store.begin(&p("/r"), meta, false).unwrap();
        assert_eq!(id2, id);
        assert_eq!(have2, vec![0, 2]);
        assert_eq!(store.stats().resumed_transfers, 1);
        for i in [1u32, 3] {
            let r = meta.chunk_range(i).unwrap();
            store
                .stage_chunk(id, i, &body[r.clone()], fnv64(&body[r]))
                .unwrap();
        }
        store.commit(id, &p("/r"), meta.checksum).unwrap();
        assert_eq!(store.read(&p("/r")).unwrap(), body);
    }

    #[test]
    fn begin_of_committed_object_returns_sentinel() {
        let store = ContentStore::in_memory(NodeId(0), 1 << 20);
        let body = synthetic_body(ContentId(5), 100);
        let meta = ObjectMeta::for_body(ContentId(5), &body, 64, 0);
        ship(&store, &p("/done"), meta, &body);
        let (id, have) = store.begin(&p("/done"), meta, false).unwrap();
        assert_eq!(id, 0);
        assert_eq!(have.len(), meta.chunk_count() as usize);
        // Lost-ack commit replay succeeds.
        assert_eq!(store.commit(0, &p("/done"), meta.checksum).unwrap(), meta);
        // Different content without overwrite is refused.
        let other = ObjectMeta::for_body(ContentId(6), b"other", 64, 0);
        assert!(matches!(
            store.begin(&p("/done"), other, false),
            Err(StoreError::AlreadyExists { .. })
        ));
    }

    #[test]
    fn quota_reserved_at_begin() {
        let store = ContentStore::in_memory(NodeId(0), 1000);
        let a = ObjectMeta::for_body(ContentId(1), &[1u8; 600], 512, 0);
        let b = ObjectMeta::for_body(ContentId(2), &[2u8; 600], 512, 0);
        let (_, _) = store.begin(&p("/a"), a, false).unwrap();
        let err = store.begin(&p("/b"), b, false).unwrap_err();
        assert!(matches!(
            err,
            StoreError::DiskFull {
                needed: 600,
                free: 400,
                ..
            }
        ));
        // Aborting releases the reservation.
        assert!(store.abort(1));
        store.begin(&p("/b"), b, false).unwrap();
    }

    #[test]
    fn put_delete_rename_touch_accounting() {
        let store = ContentStore::in_memory(NodeId(0), 1000);
        let meta = store
            .put(&p("/a"), ContentId(1), 0, &[9u8; 300], false)
            .unwrap();
        assert_eq!(meta.size, 300);
        assert!(matches!(
            store.put(&p("/a"), ContentId(2), 0, &[1u8; 10], false),
            Err(StoreError::AlreadyExists { .. })
        ));
        assert!(matches!(
            store.put(&p("/b"), ContentId(3), 0, &[1u8; 800], false),
            Err(StoreError::DiskFull { .. })
        ));
        store.rename(&p("/a"), &p("/b")).unwrap();
        assert!(store.contains(&p("/b")) && !store.contains(&p("/a")));
        assert_eq!(store.touch(&p("/b"), 1).unwrap().version, 1);
        assert_eq!(store.meta(&p("/b")).unwrap().version, 1);
        store.delete(&p("/b")).unwrap();
        assert_eq!(store.stats().committed_bytes, 0);
        assert!(matches!(
            store.delete(&p("/b")),
            Err(StoreError::NotFound { .. })
        ));
    }

    #[test]
    fn store_and_accounting() {
        let store = ContentStore::in_memory(NodeId(0), 1000);
        let meta = ObjectMeta::for_body(ContentId(1), &[7u8; 400], 128, 0);
        ship(&store, &p("/a"), meta, &[7u8; 400]);
        let stats = store.stats();
        assert_eq!((stats.objects, stats.chunks), (1, 4));
        assert_eq!(stats.committed_bytes, 400);
        assert_eq!(stats.free_bytes(), 600);
        store.delete(&p("/a")).unwrap();
        let stats = store.stats();
        assert_eq!((stats.objects, stats.chunks), (0, 0));
        assert_eq!(stats.free_bytes(), 1000);
    }

    #[test]
    fn disk_full_rejected() {
        let store = ContentStore::in_memory(NodeId(0), 1000);
        store
            .put(&p("/a"), ContentId(1), 0, &[1u8; 800], false)
            .unwrap();
        let err = store
            .put(&p("/b"), ContentId(2), 0, &[2u8; 300], false)
            .unwrap_err();
        assert_eq!(
            err,
            StoreError::DiskFull {
                path: p("/b"),
                needed: 300,
                free: 200
            }
        );
        assert_eq!(
            store.stats().objects,
            1,
            "failed put leaves state unchanged"
        );
    }

    #[test]
    fn no_overwrite_flag() {
        let store = ContentStore::in_memory(NodeId(0), 1000);
        let first = store
            .put(&p("/a"), ContentId(1), 0, &[1u8; 10], false)
            .unwrap();
        // The identical object again is a replay, not a conflict.
        let replay = store
            .put(&p("/a"), ContentId(1), 0, &[1u8; 10], false)
            .unwrap();
        assert_eq!(replay, first);
        assert_eq!(store.stats().committed_total, 1, "replay installs nothing");
        assert_eq!(
            store.put(&p("/a"), ContentId(2), 0, &[2u8; 10], false),
            Err(StoreError::AlreadyExists { path: p("/a") })
        );
    }

    #[test]
    fn rename_moves_metadata() {
        let store = ContentStore::in_memory(NodeId(0), 1000);
        let meta = store
            .put(&p("/a"), ContentId(1), 0, &[1u8; 10], false)
            .unwrap();
        assert_eq!(store.rename(&p("/a"), &p("/b")), Ok(meta));
        assert!(!store.contains(&p("/a")));
        assert_eq!(store.meta(&p("/b")), Some(meta));
        assert_eq!(store.read(&p("/b")).unwrap(), [1u8; 10]);
        assert_eq!(
            store.rename(&p("/missing"), &p("/c")),
            Err(StoreError::NotFound {
                path: p("/missing")
            })
        );
        store
            .put(&p("/c"), ContentId(2), 0, &[2u8; 10], false)
            .unwrap();
        assert_eq!(
            store.rename(&p("/b"), &p("/c")),
            Err(StoreError::AlreadyExists { path: p("/c") })
        );
    }

    #[test]
    fn touch_bumps_version() {
        let store = ContentStore::in_memory(NodeId(0), 1000);
        store
            .put(&p("/a"), ContentId(1), 0, &[1u8; 10], false)
            .unwrap();
        let version = |v| store.touch(&p("/a"), v).unwrap().version;
        assert_eq!(version(1), 1);
        assert_eq!(version(1), 1, "a replay changes nothing");
        assert_eq!(version(0), 1, "never backwards");
        assert_eq!(version(2), 2);
        assert!(matches!(
            store.touch(&p("/zzz"), 1),
            Err(StoreError::NotFound { .. })
        ));
    }

    /// A fresh directory for one disk-backed test.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpms-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn failed_rename_and_delete_leave_the_manifest_unchanged() {
        let dir = scratch_dir("failed-rename");
        let store = ContentStore::open(NodeId(1), &dir, 1 << 20).unwrap();
        store
            .put(&p("/from"), ContentId(1), 0, &[5u8; 700], false)
            .unwrap();
        // A non-empty directory where the destination object file would
        // go: `fs::rename` of a file onto it fails.
        let blocker = Medium::object_file(&dir, &p("/to"));
        std::fs::create_dir_all(blocker.join("occupied")).unwrap();
        let err = store.rename(&p("/from"), &p("/to")).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err:?}");
        assert!(store.contains(&p("/from")) && !store.contains(&p("/to")));
        assert_eq!(store.stats().committed_bytes, 700);
        assert_eq!(store.read(&p("/from")).unwrap(), [5u8; 700]);

        // Same for delete: swap the object file for a directory so
        // `fs::remove_file` fails.
        let object = Medium::object_file(&dir, &p("/from"));
        std::fs::remove_file(&object).unwrap();
        std::fs::create_dir(&object).unwrap();
        let err = store.delete(&p("/from")).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err:?}");
        assert!(store.contains(&p("/from")));
        assert_eq!(store.stats().committed_bytes, 700);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overwrite_put_replaces_and_reaccounts() {
        let store = ContentStore::in_memory(NodeId(0), 1000);
        store
            .put(&p("/a"), ContentId(1), 0, &[1u8; 900], false)
            .unwrap();
        store
            .put(&p("/a"), ContentId(1), 1, &[2u8; 950], true)
            .unwrap();
        assert_eq!(store.stats().committed_bytes, 950);
        assert_eq!(store.stats().chunks, 1, "the replaced object's chunk left");
        // An overwrite of identical bytes installs them again, with the
        // version it names.
        let same = store
            .put(&p("/a"), ContentId(1), 2, &[2u8; 950], true)
            .unwrap();
        assert_eq!((same.version, store.stats().committed_total), (2, 3));
        assert!(matches!(
            store.put(&p("/a"), ContentId(1), 2, &[3u8; 1100], true),
            Err(StoreError::DiskFull { .. })
        ));
    }

    #[test]
    fn verify_detects_corruption() {
        let store = ContentStore::in_memory(NodeId(0), 1 << 20);
        store
            .put(&p("/ok"), ContentId(1), 0, b"healthy", false)
            .unwrap();
        store.verify(&p("/ok")).unwrap();
        store.corrupt_for_test(&p("/ok")).unwrap();
        let err = store.verify(&p("/ok")).unwrap_err();
        assert!(matches!(err, StoreError::ChecksumMismatch { .. }));
        assert_eq!(store.stats().verify_failures, 1);
        let failures = store.verify_all();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, p("/ok"));
    }

    #[test]
    fn gc_sweeps_only_idle_transfers() {
        let store = ContentStore::in_memory(NodeId(0), 1 << 20);
        let meta = ObjectMeta::for_body(ContentId(1), &[0u8; 100], 64, 0);
        let (id, _) = store.begin(&p("/idle"), meta, false).unwrap();
        // First sweep: the transfer was touched by begin → survives.
        assert_eq!(store.gc(), (0, 0));
        // No staging since: the same sweep again, as a replay must be.
        assert_eq!(store.gc(), (0, 0));
        // Another transfer moves while /idle does not → /idle is swept.
        let meta2 = ObjectMeta::for_body(ContentId(2), &[1u8; 128], 64, 0);
        let (id2, _) = store.begin(&p("/busy"), meta2, false).unwrap();
        assert_eq!(store.gc(), (1, 100));
        assert_eq!(store.gc(), (1, 100), "a replayed sweep answers the same");
        assert_eq!(store.stats().staged_bytes, 128);
        assert_eq!(store.stats().gc_transfers, 1);

        // An active transfer keeps surviving.
        store
            .stage_chunk(id2, 0, &[1u8; 64], fnv64(&[1u8; 64]))
            .unwrap();
        assert_eq!(store.gc(), (0, 0), "chunk activity marked it live");
        // Aborting a swept transfer is still an abort of a known id.
        assert!(store.abort(id));
        assert!(!store.abort(99), "never opened");
        // The aborts were staging calls; /busy sat through them idle.
        assert_eq!(store.gc(), (1, 128), "idle since last sweep");
        assert_eq!(store.stats().staged_bytes, 0);
    }

    #[test]
    fn disk_store_survives_reopen() {
        let dir = scratch_dir("reopen");
        let body = synthetic_body(ContentId(7), 5000);
        {
            let store = ContentStore::open(NodeId(1), &dir, 1 << 20).unwrap();
            let meta = ObjectMeta::for_body(ContentId(7), &body, 1024, 0);
            ship(&store, &p("/site/page.html"), meta, &body);
            assert!(store.stats().durable);
        }
        {
            let store = ContentStore::open(NodeId(1), &dir, 1 << 20).unwrap();
            assert_eq!(store.read(&p("/site/page.html")).unwrap(), body);
            assert_eq!(store.stats().objects, 1);
            assert_eq!(store.stats().committed_bytes, 5000);
            store.verify(&p("/site/page.html")).unwrap();
            // Truncate the object file behind the manifest's back: the
            // next open drops the record instead of serving a torso.
            store.delete(&p("/site/page.html")).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_chunk_reads_one_chunk_with_the_same_typed_errors() {
        let dir = scratch_dir("read-chunk");
        let body = synthetic_body(ContentId(8), 2500);
        let meta = ObjectMeta::for_body(ContentId(8), &body, 1000, 0);
        for store in [
            ContentStore::in_memory(NodeId(0), 1 << 20),
            ContentStore::open(NodeId(0), &dir, 1 << 20).unwrap(),
        ] {
            ship(&store, &p("/o"), meta, &body);
            for (index, expected) in [(0, &body[..1000]), (1, &body[1000..2000])] {
                let (chunk, sum) = store.read_chunk(&p("/o"), index).unwrap();
                assert_eq!((&chunk[..], sum), (expected, fnv64(expected)));
            }
            let (last, sum) = store.read_chunk(&p("/o"), 2).unwrap();
            assert_eq!((&last[..], sum), (&body[2000..], fnv64(&body[2000..])));
            assert!(matches!(
                store.read_chunk(&p("/o"), 3),
                Err(StoreError::BadChunk { index: 3, .. })
            ));
            assert_eq!(
                store.read_chunk(&p("/none"), 0),
                Err(StoreError::NotFound { path: p("/none") })
            );
        }
        // The object file truncated behind the manifest's back: the chunks
        // still on disk read, the ones cut off are an I/O error.
        let store = ContentStore::open(NodeId(0), &dir, 1 << 20).unwrap();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(Medium::object_file(&dir, &p("/o")))
            .unwrap();
        file.set_len(1500).unwrap();
        assert_eq!(store.read_chunk(&p("/o"), 0).unwrap().0, &body[..1000]);
        for cut in [1, 2] {
            assert_eq!(
                store.read_chunk(&p("/o"), cut),
                Err(StoreError::Io {
                    detail: "object shorter than manifest size".to_string()
                })
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_ships_respect_quota() {
        let store = std::sync::Arc::new(ContentStore::in_memory(NodeId(0), 10_000));
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let store = std::sync::Arc::clone(&store);
                scope.spawn(move || {
                    let body = synthetic_body(ContentId(t), 2000);
                    let meta = ObjectMeta::for_body(ContentId(t), &body, 512, 0);
                    let path: UrlPath = format!("/f{t}").parse().unwrap();
                    if let Ok((id, _)) = store.begin(&path, meta, false) {
                        for i in 0..meta.chunk_count() {
                            let r = meta.chunk_range(i).unwrap();
                            store
                                .stage_chunk(id, i, &body[r.clone()], fnv64(&body[r]))
                                .unwrap();
                        }
                        store.commit(id, &path, meta.checksum).unwrap();
                    }
                });
            }
        });
        let stats = store.stats();
        assert!(stats.committed_bytes <= 10_000, "quota held: {stats:?}");
        assert_eq!(stats.committed_bytes, stats.objects * 2000);
        assert_eq!(stats.objects, 5, "exactly floor(10000/2000) ships won");
    }
}
