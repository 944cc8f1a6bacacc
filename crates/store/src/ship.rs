//! The content-shipping protocol: resumable chunked transfer over
//! `cpms-wire`.
//!
//! The wire vocabulary is [`ShipRequest`] / [`ShipReply`], and it is a
//! broker's whole protocol: `Put` ships an object of at most one chunk
//! whole, verified and installed in one round trip; a larger one goes as
//! `Begin`, which opens (or resumes) a staged transfer, `Chunk`, which
//! ships one checksummed piece, and `Commit`, which verifies and
//! atomically installs; `Abort` drops a transfer, and a push that gives
//! up after its `Begin` sends one. On the pull side `Get` answers an
//! object's record with its first chunk, and `Fetch` each chunk after it
//! (`Meta` reads a record alone). `Verify` and `Inventory` serve the
//! anti-entropy auditor, `Stat` the monitor and the console, and
//! `Delete`/`Rename`/`Touch` the controller's file operations; `Gc`
//! sweeps idle staged transfers, and nothing in the tree sends it. A new verb is a variant and one arm in [`apply_tail`].
//! Every message leaves the same state however often it is delivered, so
//! the protocol is safe over an at-least-once lossy transport: a
//! duplicated `Chunk` re-stages identical bytes, a replayed `Begin`
//! resumes, a replayed `Commit` or `Put` after a lost ack finds the
//! identical committed object and succeeds, a replayed `Touch` installs
//! the version already installed, and a replayed `Gc` is the same sweep. Two
//! *replies* do differ on replay, and the object is gone or moved either
//! way: a `Delete` whose ack was lost is answered `Err(NotFound)` the
//! second time, and a `Rename` `Err(AlreadyExists)` — callers on a lossy
//! wire judge those by the state.
//!
//! Chunk bytes never ride as JSON text: `Chunk` and `Put` carry them as
//! the request payload's raw tail, and `Get` and `Fetch` are answered with
//! them as the reply's tail (`cpms_wire::with_tail`), a `data` field left
//! empty. The older form — the bytes hex-encoded into `data` — is still
//! decoded on receipt by [`apply`], and sent by nothing.
//!
//! The sending half is [`Shipper`]: it drives a [`ShipPort`] (any
//! request/reply funnel to a remote store — a [`StoreClient`] or a
//! broker handle), re-sends individual rejected chunks
//! (bounded per-chunk retries) and resumes whole transfers after
//! connection loss (bounded resume count, restarting from the receiver's
//! reported progress).

use crate::object::{
    fnv64_fold, hex_decode, hex_encode, ObjectMeta, DEFAULT_CHUNK_SIZE, FNV_BASIS,
};
use crate::store::{ContentStore, StoreError, StoreStats};
use cpms_model::{ContentId, UrlPath};
use cpms_obs::{
    Counter, Gauge, HistogramRecorder, MetricsRegistry, SpanCollector, TraceContext, TracedSpan,
};
use cpms_wire::{Client, RetryPolicy, Transport, WireError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default per-RPC deadline for store calls.
pub const SHIP_DEADLINE: Duration = Duration::from_secs(2);

/// One request to a remote content store.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ShipRequest {
    /// Open or resume a staged transfer.
    Begin {
        /// Destination path.
        path: UrlPath,
        /// The object being shipped.
        meta: ObjectMeta,
        /// Whether to replace an existing different object.
        overwrite: bool,
    },
    /// Ship one chunk of an open transfer.
    Chunk {
        /// The transfer id from `Begun`.
        transfer: u64,
        /// Chunk index.
        index: u32,
        /// Empty: the chunk bytes are the payload's tail. A legacy sender
        /// puts them here hex-encoded instead, which receivers still
        /// decode.
        data: String,
        /// FNV-1a 64 of the raw bytes.
        checksum: u64,
    },
    /// Verify and atomically install a fully staged transfer.
    Commit {
        /// The transfer id.
        transfer: u64,
        /// Destination path (cross-checked against the staging record).
        path: UrlPath,
        /// Whole-object checksum.
        checksum: u64,
    },
    /// Verify and install an object of at most one chunk in one step:
    /// the whole body is the payload's tail.
    Put {
        /// Destination path.
        path: UrlPath,
        /// The object being shipped.
        meta: ObjectMeta,
        /// Whether to replace an existing different object.
        overwrite: bool,
    },
    /// Drop a staged transfer.
    Abort {
        /// The transfer id.
        transfer: u64,
    },
    /// Read one chunk of a committed object (pull side).
    Fetch {
        /// The object's path.
        path: UrlPath,
        /// Chunk index.
        index: u32,
    },
    /// Open a pull: a committed object's manifest record, answered with
    /// its first chunk as the reply's tail.
    Get {
        /// The object's path.
        path: UrlPath,
    },
    /// Read a committed object's manifest record.
    Meta {
        /// The object's path.
        path: UrlPath,
    },
    /// Re-checksum a committed object against its manifest.
    Verify {
        /// The object's path.
        path: UrlPath,
    },
    /// List every committed object (the anti-entropy audit's raw data).
    Inventory,
    /// Report store accounting.
    Stat,
    /// Sweep abandoned staged transfers.
    Gc,
    /// Delete a committed object (the repair half of anti-entropy).
    Delete {
        /// The object's path.
        path: UrlPath,
    },
    /// Move a committed object to another path.
    Rename {
        /// Current path.
        from: UrlPath,
        /// New path.
        to: UrlPath,
    },
    /// Raise a committed object's version to at least `version` (a
    /// content-provider update).
    Touch {
        /// The object's path.
        path: UrlPath,
        /// The version to install if it is above the current one.
        version: u64,
    },
}

impl ShipRequest {
    /// The request's short verb — span names and log labels.
    #[must_use]
    pub fn verb(&self) -> &'static str {
        match self {
            ShipRequest::Begin { .. } => "begin",
            ShipRequest::Chunk { .. } => "chunk",
            ShipRequest::Commit { .. } => "commit",
            ShipRequest::Put { .. } => "put",
            ShipRequest::Abort { .. } => "abort",
            ShipRequest::Fetch { .. } => "fetch",
            ShipRequest::Get { .. } => "get",
            ShipRequest::Meta { .. } => "meta",
            ShipRequest::Verify { .. } => "verify",
            ShipRequest::Inventory => "inventory",
            ShipRequest::Stat => "stat",
            ShipRequest::Gc => "gc",
            ShipRequest::Delete { .. } => "delete",
            ShipRequest::Rename { .. } => "rename",
            ShipRequest::Touch { .. } => "touch",
        }
    }
}

/// A remote content store's reply.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ShipReply {
    /// Transfer opened/resumed: id plus already-staged chunk indices.
    Begun {
        /// Transfer id (`0` = the object is already committed).
        transfer: u64,
        /// Chunks the receiver already has.
        have: Vec<u32>,
    },
    /// Chunk staged.
    ChunkOk,
    /// Object committed (or already was, identically).
    Committed(ObjectMeta),
    /// Abort result: whether the id names a transfer the store opened
    /// (it is not staged afterwards either way).
    Aborted(bool),
    /// One chunk of a committed object.
    ChunkData {
        /// Empty: the chunk bytes are the reply payload's tail. Hex of
        /// the bytes only when [`apply`] answers a caller that cannot
        /// take a tail.
        data: String,
        /// FNV-1a 64 of the raw bytes.
        checksum: u64,
    },
    /// A `Get`'s answer: the object's record and its first chunk, whose
    /// bytes are the reply payload's tail.
    Got {
        /// The manifest record.
        meta: ObjectMeta,
        /// FNV-1a 64 of the first chunk's bytes.
        checksum: u64,
    },
    /// The manifest record (of a `Meta`, a `Rename`'s moved object or a
    /// `Touch`ed one).
    MetaIs(ObjectMeta),
    /// Verification passed.
    Verified(ObjectMeta),
    /// The full committed inventory.
    InventoryIs(Vec<(UrlPath, ObjectMeta)>),
    /// Store accounting.
    Stats(StoreStats),
    /// Gc result.
    Swept {
        /// Transfers released.
        transfers: u64,
        /// Bytes released.
        bytes: u64,
    },
    /// Object deleted.
    Deleted(ObjectMeta),
    /// The operation failed store-side.
    Err(StoreError),
}

/// Executes one ship request that arrived without a payload tail, for a
/// caller that cannot take one back: a `Chunk` must carry its bytes as
/// hex in `data` (the legacy form), and a `Fetch` is answered with hex
/// in `ChunkData::data`. `Put` and `Get` have no tailless form: a `Put`
/// here carries no body, and a `Got` loses its chunk. [`StoreService`]
/// uses [`apply_tail`] and never builds a hex string; this form exists
/// for the frozen benchmark's `store.ship_apply_us` probe and goes with
/// it.
#[must_use]
pub fn apply(store: &ContentStore, request: &ShipRequest) -> ShipReply {
    match apply_tail(store, request, &[]) {
        (ShipReply::ChunkData { checksum, .. }, bytes) => ShipReply::ChunkData {
            data: hex_encode(&bytes),
            checksum,
        },
        (reply, _) => reply,
    }
}

/// Executes one ship request against a local store — the one place each
/// verb is implemented: one arm per [`ShipRequest`] variant, each one
/// call on the store. `tail` is the raw tail the request payload carried
/// (a `Chunk`'s or a `Put`'s bytes); the returned bytes are the tail to
/// send behind the reply (a `Fetch`ed chunk, a `Get`'s first chunk),
/// empty for every other reply.
#[must_use]
pub fn apply_tail(
    store: &ContentStore,
    request: &ShipRequest,
    tail: &[u8],
) -> (ShipReply, Vec<u8>) {
    fn ok_or<T>(r: Result<T, StoreError>, f: impl FnOnce(T) -> ShipReply) -> ShipReply {
        match r {
            Ok(v) => f(v),
            Err(e) => ShipReply::Err(e),
        }
    }
    let mut reply_tail = Vec::new();
    let reply = match request {
        ShipRequest::Begin {
            path,
            meta,
            overwrite,
        } => ok_or(store.begin(path, *meta, *overwrite), |(transfer, have)| {
            ShipReply::Begun { transfer, have }
        }),
        ShipRequest::Chunk {
            transfer,
            index,
            data,
            checksum,
        } => {
            let stage = |bytes: &[u8]| {
                ok_or(
                    store.stage_chunk(*transfer, *index, bytes, *checksum),
                    |()| ShipReply::ChunkOk,
                )
            };
            if data.is_empty() {
                stage(tail)
            } else {
                // A legacy sender hexes the bytes into `data`.
                match hex_decode(data) {
                    Ok(bytes) => stage(&bytes),
                    Err(detail) => ShipReply::Err(StoreError::BadChunk {
                        path: "/".parse().expect("root path literal"),
                        index: *index,
                        detail,
                    }),
                }
            }
        }
        ShipRequest::Commit {
            transfer,
            path,
            checksum,
        } => ok_or(
            store.commit(*transfer, path, *checksum),
            ShipReply::Committed,
        ),
        ShipRequest::Put {
            path,
            meta,
            overwrite,
        } => ok_or(
            store.put_whole(path, *meta, tail, *overwrite),
            ShipReply::Committed,
        ),
        ShipRequest::Abort { transfer } => ShipReply::Aborted(store.abort(*transfer)),
        ShipRequest::Fetch { path, index } => {
            ok_or(store.read_chunk(path, *index), |(bytes, checksum)| {
                reply_tail = bytes;
                ShipReply::ChunkData {
                    data: String::new(),
                    checksum,
                }
            })
        }
        ShipRequest::Get { path } => ok_or(store.read_head(path), |(meta, bytes, checksum)| {
            reply_tail = bytes;
            ShipReply::Got { meta, checksum }
        }),
        ShipRequest::Meta { path } => match store.meta(path) {
            Some(meta) => ShipReply::MetaIs(meta),
            None => ShipReply::Err(StoreError::NotFound { path: path.clone() }),
        },
        ShipRequest::Verify { path } => ok_or(store.verify(path), ShipReply::Verified),
        ShipRequest::Inventory => ShipReply::InventoryIs(store.inventory()),
        ShipRequest::Stat => ShipReply::Stats(store.stats()),
        ShipRequest::Gc => {
            let (transfers, bytes) = store.gc();
            ShipReply::Swept { transfers, bytes }
        }
        ShipRequest::Delete { path } => ok_or(store.delete(path), ShipReply::Deleted),
        ShipRequest::Rename { from, to } => ok_or(store.rename(from, to), ShipReply::MetaIs),
        ShipRequest::Touch { path, version } => {
            ok_or(store.touch(path, *version), ShipReply::MetaIs)
        }
    };
    (reply, reply_tail)
}

/// The wire service hosting one content store: what a broker daemon
/// serves. Requests are [`ShipRequest`] JSON payloads, replies
/// [`ShipReply`] JSON payloads; chunk bytes ride behind either as the
/// payload's raw tail ([`cpms_wire::with_tail`]).
#[derive(Debug)]
pub struct StoreService {
    store: Arc<ContentStore>,
    spans: Option<Arc<SpanCollector>>,
}

impl StoreService {
    /// Serves `store` over the ship protocol.
    #[must_use]
    pub fn new(store: Arc<ContentStore>) -> Self {
        StoreService { store, spans: None }
    }

    /// Records a `broker.<verb>` span into `spans` for every request
    /// executed under an inbound trace context (requests arriving
    /// untraced add nothing — a broker never roots traces of its own).
    #[must_use]
    pub fn with_collector(mut self, spans: Arc<SpanCollector>) -> Self {
        self.spans = Some(spans);
        self
    }

    /// The served store.
    #[must_use]
    pub fn store(&self) -> &Arc<ContentStore> {
        &self.store
    }
}

impl cpms_wire::Service for StoreService {
    fn handle(&mut self, request: &[u8]) -> Vec<u8> {
        let (head, tail) = cpms_wire::split_tail(request);
        let (reply, reply_tail) = match std::str::from_utf8(head)
            .map_err(|e| format!("payload is not UTF-8: {e}"))
            .and_then(|text| serde_json::from_str::<ShipRequest>(text).map_err(|e| e.to_string()))
        {
            Ok(req) => {
                // The request's trace context (if any) is this thread's
                // current one — the server activated the frame's, or we
                // are on the caller's thread — so this span parents to
                // the caller's `wire.attempt` hop.
                let mut span = match (&self.spans, TraceContext::current()) {
                    (Some(spans), Some(_)) => {
                        let mut span = TracedSpan::enter(spans, format!("broker.{}", req.verb()));
                        span.set_detail(format!("node={}", self.store.node()));
                        Some(span)
                    }
                    _ => None,
                };
                let (reply, bytes) = apply_tail(&self.store, &req, tail);
                if let (Some(span), ShipReply::Err(e)) = (span.as_mut(), &reply) {
                    span.set_error(true);
                    span.set_detail(e.to_string());
                }
                (reply, bytes)
            }
            Err(detail) => (
                ShipReply::Err(StoreError::Io {
                    detail: format!("undecodable ship request: {detail}"),
                }),
                Vec::new(),
            ),
        };
        cpms_wire::with_tail(
            serde_json::to_string(&reply).expect("ship replies always serialize"),
            &reply_tail,
        )
    }
}

/// The sending side's funnel to one remote store: a single
/// request/response exchange. Implemented by [`StoreClient`] and by
/// broker handles — the same call over the same protocol.
pub trait ShipPort {
    /// Sends one ship request with `tail` riding behind it as raw bytes
    /// (a `Chunk`'s or a `Put`'s data; empty otherwise) and returns the
    /// remote store's reply with the tail that rode behind it (a `Fetch`ed
    /// chunk or a `Get`'s first chunk; empty otherwise).
    ///
    /// # Errors
    ///
    /// Transport-level failures only; store-level failures arrive as
    /// [`ShipReply::Err`].
    fn ship_tail(
        &self,
        request: &ShipRequest,
        tail: &[u8],
    ) -> Result<(ShipReply, Vec<u8>), WireError>;

    /// [`ShipPort::ship_tail`] for the requests that neither carry nor
    /// are answered with chunk bytes.
    ///
    /// # Errors
    ///
    /// See [`ShipPort::ship_tail`].
    fn ship(&self, request: &ShipRequest) -> Result<ShipReply, WireError> {
        self.ship_tail(request, &[]).map(|(reply, _tail)| reply)
    }

    /// The destination, for error labels.
    fn peer(&self) -> String {
        "store".to_string()
    }
}

/// A retrying wire client for a [`StoreService`].
#[derive(Debug)]
pub struct StoreClient {
    client: Client,
}

impl StoreClient {
    /// Wraps a transport with the default store deadline/retry policy.
    #[must_use]
    pub fn new(transport: Arc<dyn Transport>) -> Self {
        StoreClient {
            client: Client::new(transport)
                .with_deadline(SHIP_DEADLINE)
                .with_retry(RetryPolicy {
                    seed: 0x5704E_u64,
                    ..RetryPolicy::default()
                }),
        }
    }

    /// The wrapped wire client (stats, metrics attachment).
    #[must_use]
    pub fn client(&self) -> &Client {
        &self.client
    }
}

impl ShipPort for StoreClient {
    fn ship_tail(
        &self,
        request: &ShipRequest,
        tail: &[u8],
    ) -> Result<(ShipReply, Vec<u8>), WireError> {
        self.client.call_tail(request, tail)
    }

    fn peer(&self) -> String {
        format!("store over {}", self.client.transport_kind())
    }
}

/// Errors from driving a transfer end to end.
#[derive(Debug)]
#[non_exhaustive]
pub enum ShipError {
    /// The transport failed and resumes were exhausted.
    Wire(WireError),
    /// The remote store refused the operation.
    Store(StoreError),
    /// The remote answered with an unexpected reply variant.
    Protocol {
        /// What arrived.
        detail: String,
    },
    /// The transfer kept failing across the resume budget.
    Exhausted {
        /// The object being shipped.
        path: UrlPath,
        /// Resume attempts spent.
        resumes: u32,
        /// The last underlying failure, rendered.
        last: String,
    },
}

impl fmt::Display for ShipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShipError::Wire(e) => write!(f, "transfer transport failed: {e}"),
            ShipError::Store(e) => write!(f, "remote store refused: {e}"),
            ShipError::Protocol { detail } => write!(f, "ship protocol violation: {detail}"),
            ShipError::Exhausted {
                path,
                resumes,
                last,
            } => write!(
                f,
                "shipping {path} failed after {resumes} resume(s): {last}"
            ),
        }
    }
}

impl std::error::Error for ShipError {}

impl ShipError {
    /// Whether a fresh `Begin` (resume) could plausibly succeed: wire
    /// losses and vanished staging state are resumable; quota, conflict,
    /// and codec failures are not.
    #[must_use]
    pub fn is_resumable(&self) -> bool {
        match self {
            ShipError::Wire(e) => !matches!(e.root(), WireError::Codec { .. }),
            ShipError::Store(StoreError::NoSuchTransfer { .. }) => true,
            ShipError::Store(_) | ShipError::Protocol { .. } | ShipError::Exhausted { .. } => false,
        }
    }
}

/// Transfer-pipeline metric handles, recorded into a shared registry so
/// shipping shows up on the same stats surface as the proxy and the
/// management ops.
#[derive(Debug, Clone)]
pub struct ShipMetrics {
    bytes: Arc<Counter>,
    chunks: Arc<Counter>,
    chunk_retries: Arc<Counter>,
    hashed_bytes: Arc<Counter>,
    resumes: Arc<Counter>,
    transfers: Arc<Counter>,
    failed: Arc<Counter>,
    inflight: Arc<Gauge>,
    transfer_ns: HistogramRecorder,
}

impl ShipMetrics {
    /// Registers the shipping metric family in `registry`.
    #[must_use]
    pub fn attach(registry: &Arc<MetricsRegistry>) -> Self {
        ShipMetrics {
            bytes: registry.counter("ship_bytes_total"),
            chunks: registry.counter("ship_chunks_total"),
            chunk_retries: registry.counter("ship_chunk_retries_total"),
            hashed_bytes: registry.counter("ship_hashed_bytes_total"),
            resumes: registry.counter("ship_resumes_total"),
            transfers: registry.counter("ship_transfers_total"),
            failed: registry.counter("ship_failed_transfers_total"),
            inflight: registry.gauge("ship_inflight"),
            transfer_ns: registry
                .histogram_with_shards("ship_transfer_ns", 1)
                .recorder(0),
        }
    }
}

/// What one completed push looked like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShipOutcome {
    /// The committed object.
    pub meta: ObjectMeta,
    /// Chunks actually sent.
    pub chunks_sent: u64,
    /// Chunks skipped because the receiver already had them (resume).
    pub chunks_skipped: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Whole-transfer resumes.
    pub resumes: u32,
    /// Individual chunk re-sends (wire failure or rejection).
    pub chunk_retries: u32,
}

/// Per-chunk attempts before the whole transfer resumes.
const CHUNK_ATTEMPTS: u32 = 3;

/// Whole-transfer resume budget after connection loss.
const MAX_RESUMES: u32 = 8;

/// Drives push and pull transfers over a [`ShipPort`]: 3 attempts per
/// chunk, 8 whole-transfer resumes.
#[derive(Debug, Default)]
pub struct Shipper {
    metrics: Option<ShipMetrics>,
}

impl Shipper {
    /// A shipper that records no metrics.
    #[must_use]
    pub fn new() -> Self {
        Shipper::default()
    }

    /// Records transfer counters/latency into `metrics`.
    #[must_use]
    pub fn with_metrics(mut self, metrics: ShipMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Ships `body` to the remote store as `path`, resuming through
    /// connection loss and re-sending rejected chunks, until the remote
    /// store confirms a committed object with the right checksum. An
    /// object of at most one chunk goes as one `Put`; a larger one as
    /// `Begin`, its `Chunk`s and `Commit`.
    ///
    /// # Errors
    ///
    /// [`ShipError::Store`] for non-resumable remote refusals (quota,
    /// conflicts), [`ShipError::Exhausted`] when the resume budget runs
    /// out, [`ShipError::Protocol`] on nonsense replies.
    pub fn push(
        &self,
        port: &dyn ShipPort,
        path: &UrlPath,
        content: ContentId,
        version: u64,
        body: &[u8],
        overwrite: bool,
    ) -> Result<ShipOutcome, ShipError> {
        let (meta, sums) = self.describe(content, body, DEFAULT_CHUNK_SIZE, version);
        self.push_described(port, path, meta, &sums, body, overwrite)
    }

    /// [`ObjectMeta::describe`], counted: the sending side's one hash
    /// pass over a body (`ship_hashed_bytes_total`).
    ///
    /// # Panics
    ///
    /// If `chunk_size` is zero.
    #[must_use]
    pub fn describe(
        &self,
        content: ContentId,
        body: &[u8],
        chunk_size: u32,
        version: u64,
    ) -> (ObjectMeta, Vec<u64>) {
        if let Some(m) = &self.metrics {
            m.hashed_bytes.add(body.len() as u64);
        }
        ObjectMeta::describe(content, body, chunk_size, version)
    }

    /// [`Shipper::push`] with explicit chunk geometry, for a `meta` that
    /// came from somewhere else than `body` (a manifest, the URL table).
    ///
    /// # Errors
    ///
    /// See [`Shipper::push`].
    ///
    /// # Panics
    ///
    /// If `meta` does not describe `body`.
    pub fn push_meta(
        &self,
        port: &dyn ShipPort,
        path: &UrlPath,
        meta: ObjectMeta,
        body: &[u8],
        overwrite: bool,
    ) -> Result<ShipOutcome, ShipError> {
        let (described, sums) = self.describe(meta.content, body, meta.chunk_size, meta.version);
        assert_eq!(meta.checksum, described.checksum, "meta must describe body");
        self.push_described(port, path, meta, &sums, body, overwrite)
    }

    /// [`Shipper::push_meta`] for a `meta` and per-chunk `sums` the
    /// caller already holds for this very `body` — from
    /// [`Shipper::describe`] or a verified [`Shipper::pull`] — so one
    /// object going to several nodes is hashed once, not once more per
    /// replica. Nothing is hashed here: the sums were taken from the
    /// honest body before it met the port, so a chunk damaged on the way
    /// is refused by the receiver ([`StoreError::ChunkRejected`]), and a
    /// `meta` that does not describe the body by its commit
    /// ([`StoreError::ChecksumMismatch`]) — or, for a one-chunk `Put`,
    /// whose one check covers both, as a rejected chunk.
    ///
    /// # Errors
    ///
    /// See [`Shipper::push`].
    ///
    /// # Panics
    ///
    /// If `meta.size` is not the body's length, or `sums` is not one sum
    /// per chunk.
    pub fn push_described(
        &self,
        port: &dyn ShipPort,
        path: &UrlPath,
        meta: ObjectMeta,
        sums: &[u64],
        body: &[u8],
        overwrite: bool,
    ) -> Result<ShipOutcome, ShipError> {
        assert_eq!(meta.size, body.len() as u64, "meta must describe body");
        assert_eq!(sums.len(), meta.chunk_count() as usize, "one sum per chunk");
        let start = Instant::now();
        if let Some(m) = &self.metrics {
            m.inflight.add(1);
        }
        let mut outcome = ShipOutcome {
            meta,
            chunks_sent: 0,
            chunks_skipped: 0,
            bytes_sent: 0,
            resumes: 0,
            chunk_retries: 0,
        };
        let mut opened = None;
        let result = loop {
            match self.push_attempt(
                port,
                path,
                (meta, sums),
                body,
                overwrite,
                (&mut outcome, &mut opened),
            ) {
                Ok(committed) => {
                    outcome.meta = committed;
                    break Ok(());
                }
                Err(e) if e.is_resumable() && outcome.resumes < MAX_RESUMES => {
                    outcome.resumes += 1;
                    if let Some(m) = &self.metrics {
                        m.resumes.inc();
                    }
                }
                Err(e) if e.is_resumable() => {
                    break Err(ShipError::Exhausted {
                        path: path.clone(),
                        resumes: outcome.resumes,
                        last: e.to_string(),
                    });
                }
                Err(e) => break Err(e),
            }
        };
        if let (Err(_), Some(transfer)) = (&result, opened) {
            // Giving up: release what the receiver staged and reserved for
            // the transfer now, not whenever the path is begun again. Best
            // effort: the link may be what failed.
            let _ = port.ship(&ShipRequest::Abort { transfer });
        }
        if let Some(m) = &self.metrics {
            m.inflight.sub(1);
            m.transfer_ns
                .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            match &result {
                Ok(()) => m.transfers.inc(),
                Err(_) => m.failed.inc(),
            }
        }
        result.map(|()| outcome)
    }

    /// One full pass: an object of at most one chunk is one `Put`; a
    /// larger one is begin (resume), send missing chunks, commit. The
    /// transfer a `Begin` opened is left in `opened`.
    fn push_attempt(
        &self,
        port: &dyn ShipPort,
        path: &UrlPath,
        (meta, sums): (ObjectMeta, &[u64]),
        body: &[u8],
        overwrite: bool,
        (outcome, opened): (&mut ShipOutcome, &mut Option<u64>),
    ) -> Result<ObjectMeta, ShipError> {
        if meta.chunk_count() <= 1 {
            let put = ShipRequest::Put {
                path: path.clone(),
                meta,
                overwrite,
            };
            return self.send_chunk(port, &put, body, outcome, |reply| match reply {
                ShipReply::Committed(m) => Ok(m),
                other => Err(other),
            });
        }
        let begun = port
            .ship(&ShipRequest::Begin {
                path: path.clone(),
                meta,
                overwrite,
            })
            .map_err(ShipError::Wire)?;
        let (transfer, have) = match begun {
            ShipReply::Begun { transfer, have } => (transfer, have),
            ShipReply::Err(e) => return Err(ShipError::Store(e)),
            other => {
                return Err(ShipError::Protocol {
                    detail: format!("Begin answered {other:?} by {}", port.peer()),
                })
            }
        };
        *opened = Some(transfer);
        let have: std::collections::HashSet<u32> = have.into_iter().collect();
        for index in 0..meta.chunk_count() {
            if have.contains(&index) {
                outcome.chunks_skipped += 1;
                continue;
            }
            let range = meta.chunk_range(index).expect("index in range");
            let chunk = ShipRequest::Chunk {
                transfer,
                index,
                data: String::new(),
                checksum: sums[index as usize],
            };
            self.send_chunk(port, &chunk, &body[range], outcome, |reply| match reply {
                ShipReply::ChunkOk => Ok(()),
                other => Err(other),
            })?;
        }
        let committed = port
            .ship(&ShipRequest::Commit {
                transfer,
                path: path.clone(),
                checksum: meta.checksum,
            })
            .map_err(ShipError::Wire)?;
        match committed {
            ShipReply::Committed(m) => Ok(m),
            ShipReply::Err(e) => Err(ShipError::Store(e)),
            other => Err(ShipError::Protocol {
                detail: format!("Commit answered {other:?} by {}", port.peer()),
            }),
        }
    }

    /// Sends `request` with `chunk` as its tail — one `Chunk` of a staged
    /// transfer, or a whole object's `Put` — with bounded re-sends for
    /// wire failures and checksum rejections, and hands the reply that
    /// took the bytes to `accept`, which returns what it wanted from it or
    /// gives back a reply the verb has no business answering.
    fn send_chunk<T>(
        &self,
        port: &dyn ShipPort,
        request: &ShipRequest,
        chunk: &[u8],
        outcome: &mut ShipOutcome,
        accept: impl Fn(ShipReply) -> Result<T, ShipReply>,
    ) -> Result<T, ShipError> {
        let mut last: Option<ShipError> = None;
        for attempt in 0..CHUNK_ATTEMPTS {
            if attempt > 0 {
                outcome.chunk_retries += 1;
                if let Some(m) = &self.metrics {
                    m.chunk_retries.inc();
                }
            }
            match port.ship_tail(request, chunk).map(|(reply, _tail)| reply) {
                Ok(ShipReply::Err(e @ StoreError::ChunkRejected { .. })) => {
                    // Poisoned in flight: re-send the honest bytes.
                    last = Some(ShipError::Store(e));
                }
                Ok(ShipReply::Err(e)) => return Err(ShipError::Store(e)),
                Ok(reply) => {
                    let taken = accept(reply).map_err(|other| ShipError::Protocol {
                        detail: format!("{} answered {other:?} by {}", request.verb(), port.peer()),
                    })?;
                    outcome.chunks_sent += 1;
                    outcome.bytes_sent += chunk.len() as u64;
                    if let Some(m) = &self.metrics {
                        m.chunks.inc();
                        m.bytes.add(chunk.len() as u64);
                    }
                    return Ok(taken);
                }
                Err(wire) => {
                    let e = ShipError::Wire(wire);
                    if !e.is_resumable() {
                        return Err(e);
                    }
                    last = Some(e);
                }
            }
        }
        // Out of per-chunk attempts: surface the last failure. If it is
        // resumable the outer loop re-begins and skips staged progress.
        Err(last.unwrap_or(ShipError::Protocol {
            detail: format!("{} ran out of attempts", request.verb()),
        }))
    }

    /// Pulls a committed object from the remote store: a `Get` answers
    /// the manifest record with the first chunk, and a `Fetch` each chunk
    /// after it — so a one-chunk object is one round trip. Every chunk is
    /// verified and — folded in the same pass, since chunks arrive in
    /// order — the whole body. Corrupted chunks are re-fetched. Returns
    /// the manifest record, the per-chunk sums it verified (what
    /// [`Shipper::push_described`] needs to send the body on without
    /// hashing it again) and the body.
    ///
    /// # Errors
    ///
    /// [`ShipError::Store`] (e.g. not found), [`ShipError::Wire`] /
    /// [`ShipError::Exhausted`] on persistent transport failure,
    /// [`ShipError::Protocol`] when the announced size or chunk count
    /// cannot be allocated.
    pub fn pull(
        &self,
        port: &dyn ShipPort,
        path: &UrlPath,
    ) -> Result<(ObjectMeta, Vec<u64>, Vec<u8>), ShipError> {
        let (meta, first) = match port
            .ship_tail(&ShipRequest::Get { path: path.clone() }, &[])
            .map_err(ShipError::Wire)?
        {
            (ShipReply::Got { meta, checksum }, bytes) => (meta, (checksum, bytes)),
            (ShipReply::Err(e), _) => return Err(ShipError::Store(e)),
            (other, _) => {
                return Err(ShipError::Protocol {
                    detail: format!("Get answered {other:?} by {}", port.peer()),
                })
            }
        };
        // The peer's record sizes both buffers: reserve them fallibly, so
        // an absurd announcement costs this pull and not the process.
        let no_memory = |detail: String| ShipError::Protocol {
            detail: format!(
                "{} announced {} ({}B in {} chunk(s)) too large to pull: {detail}",
                port.peer(),
                path,
                meta.size,
                meta.chunk_count()
            ),
        };
        let size = usize::try_from(meta.size).map_err(|e| no_memory(e.to_string()))?;
        let mut body = Vec::new();
        body.try_reserve_exact(size)
            .map_err(|e| no_memory(e.to_string()))?;
        let mut sums = Vec::new();
        sums.try_reserve_exact(meta.chunk_count() as usize)
            .map_err(|e| no_memory(e.to_string()))?;
        let mut got = FNV_BASIS;
        let mut first = Some(first);
        for index in 0..meta.chunk_count() {
            let (bytes, sum, running) =
                self.fetch_chunk(port, path, &meta, index, got, first.take())?;
            body.extend_from_slice(&bytes);
            sums.push(sum);
            got = running;
        }
        if got != meta.checksum {
            return Err(ShipError::Store(StoreError::ChecksumMismatch {
                path: path.clone(),
                expected: meta.checksum,
                got,
            }));
        }
        Ok((meta, sums, body))
    }

    /// Fetches and verifies chunk `index`: its bytes, their sum, and
    /// `running` (the whole-object FNV state before this chunk)
    /// continued over them. `delivered` is the chunk's checksum and
    /// bytes when they already arrived (the first chunk rides on the
    /// `Get`): they are verified as a fetched chunk is, and fetched again
    /// if they fail.
    fn fetch_chunk(
        &self,
        port: &dyn ShipPort,
        path: &UrlPath,
        meta: &ObjectMeta,
        index: u32,
        running: u64,
        mut delivered: Option<(u64, Vec<u8>)>,
    ) -> Result<(Vec<u8>, u64, u64), ShipError> {
        let expected_len = meta.chunk_len(index).expect("index in range") as usize;
        let request = ShipRequest::Fetch {
            path: path.clone(),
            index,
        };
        let mut last: Option<ShipError> = None;
        let attempts = CHUNK_ATTEMPTS + MAX_RESUMES;
        for attempt in 0..attempts {
            if attempt > 0 {
                if let Some(m) = &self.metrics {
                    m.chunk_retries.inc();
                }
            }
            let (checksum, bytes) = match delivered.take() {
                Some(chunk) => chunk,
                None => match port.ship_tail(&request, &[]) {
                    Ok((ShipReply::ChunkData { data, .. }, _)) if !data.is_empty() => {
                        return Err(ShipError::Protocol {
                            detail: format!(
                                "Fetch answered hex chunk data by {}: it predates payload tails",
                                port.peer()
                            ),
                        })
                    }
                    Ok((ShipReply::ChunkData { checksum, .. }, bytes)) => (checksum, bytes),
                    Ok((ShipReply::Err(e), _)) => return Err(ShipError::Store(e)),
                    Ok((other, _)) => {
                        return Err(ShipError::Protocol {
                            detail: format!("Fetch answered {other:?} by {}", port.peer()),
                        })
                    }
                    Err(wire) => {
                        let e = ShipError::Wire(wire);
                        if !e.is_resumable() {
                            return Err(e);
                        }
                        last = Some(e);
                        continue;
                    }
                },
            };
            let (got, running) = fnv64_fold(running, &bytes);
            if let Some(m) = &self.metrics {
                m.hashed_bytes.add(bytes.len() as u64);
            }
            if bytes.len() != expected_len || got != checksum {
                // Corrupted in flight: re-fetch.
                last = Some(ShipError::Store(StoreError::ChunkRejected {
                    path: path.clone(),
                    index,
                    expected: checksum,
                    got,
                }));
                continue;
            }
            if let Some(m) = &self.metrics {
                m.chunks.inc();
                m.bytes.add(bytes.len() as u64);
            }
            return Ok((bytes, got, running));
        }
        Err(ShipError::Exhausted {
            path: path.clone(),
            resumes: attempts,
            last: last.map(|e| e.to_string()).unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{fnv64, synthetic_body};
    use cpms_model::NodeId;
    use cpms_wire::{FaultPlan, FaultyTransport, InProcServer};

    fn p(s: &str) -> UrlPath {
        s.parse().unwrap()
    }

    fn spawn_store(node: u16, capacity: u64) -> (Arc<ContentStore>, StoreClient) {
        let store = Arc::new(ContentStore::in_memory(NodeId(node), capacity));
        let (transport, server) = InProcServer::spawn(StoreService::new(Arc::clone(&store)));
        // Leak the server handle: test stores live for the test body.
        std::mem::forget(server);
        (store, StoreClient::new(Arc::new(transport)))
    }

    #[test]
    fn push_and_pull_roundtrip() {
        let (store, client) = spawn_store(0, 1 << 20);
        // Three chunks: `Begin`, `Chunk`s and `Commit`.
        let body = synthetic_body(ContentId(1), 150_000);
        let shipper = Shipper::new();
        let outcome = shipper
            .push(&client, &p("/obj"), ContentId(1), 0, &body, false)
            .unwrap();
        assert_eq!(outcome.meta.size, 150_000);
        assert_eq!(outcome.meta.chunk_count(), 3);
        assert_eq!(outcome.bytes_sent, 150_000);
        assert_eq!(outcome.resumes, 0);
        assert_eq!(store.read(&p("/obj")).unwrap(), body);

        let (meta, sums, pulled) = shipper.pull(&client, &p("/obj")).unwrap();
        assert_eq!(meta, outcome.meta);
        assert_eq!(pulled, body);
        assert_eq!(
            sums,
            ObjectMeta::describe(ContentId(1), &body, meta.chunk_size, 0).1,
            "pull hands back the chunk sums it verified"
        );

        // Idempotent re-push sends nothing.
        let again = shipper
            .push(&client, &p("/obj"), ContentId(1), 0, &body, false)
            .unwrap();
        assert_eq!(again.chunks_sent, 0);
        assert_eq!(again.chunks_skipped, outcome.chunks_sent);

        // One chunk is one `Put`, which carries its body every time: a
        // re-sent identical `Put` is answered with the committed object
        // and installs nothing new.
        let one = synthetic_body(ContentId(2), 50_000);
        let first = shipper
            .push(&client, &p("/one"), ContentId(2), 0, &one, false)
            .unwrap();
        let installed = store.stats().committed_total;
        let again = shipper
            .push(&client, &p("/one"), ContentId(2), 0, &one, false)
            .unwrap();
        assert_eq!(again.meta, first.meta);
        assert_eq!(store.stats().committed_total, installed);
        assert_eq!(store.stats().objects, 2);
        let (meta, sums, pulled) = shipper.pull(&client, &p("/one")).unwrap();
        assert_eq!((meta, sums, pulled), (first.meta, vec![fnv64(&one)], one));
    }

    #[test]
    fn push_survives_lossy_transport() {
        // One chunk goes as one `Put`; three as `Begin`, `Chunk`s and
        // `Commit`.
        for size in [40_000, 150_000] {
            let store = Arc::new(ContentStore::in_memory(NodeId(0), 1 << 20));
            let (transport, server) = InProcServer::spawn(StoreService::new(Arc::clone(&store)));
            std::mem::forget(server);
            let lossy = Arc::new(FaultyTransport::new(
                Arc::new(transport),
                FaultPlan::lossy(42, 0.15),
            ));
            let client = StoreClient::new(Arc::clone(&lossy) as Arc<dyn cpms_wire::Transport>);
            let body = synthetic_body(ContentId(2), size);
            Shipper::new()
                .push(&client, &p("/lossy"), ContentId(2), 0, &body, false)
                .unwrap();
            // This seed loses a reply after the store ran the request, so
            // the push lives through a replay.
            assert!(
                lossy.stats().dropped_responses >= 1,
                "{size} B: {:?}",
                lossy.stats()
            );
            assert_eq!(store.read(&p("/lossy")).unwrap(), body);
            let stats = store.stats();
            assert_eq!(stats.rejected_chunks, 0, "loss ≠ corruption");
            // Committed exactly once despite duplicates/replays.
            assert_eq!((stats.objects, stats.committed_total), (1, 1), "{size} B");
        }
    }

    /// Opens a transfer of `body` in 1000-byte chunks on a fresh store.
    fn begun(body: &[u8]) -> (ContentStore, ObjectMeta, u64) {
        let store = ContentStore::in_memory(NodeId(0), 1 << 20);
        let meta = ObjectMeta::for_body(ContentId(5), body, 1000, 0);
        let begin = ShipRequest::Begin {
            path: p("/t"),
            meta,
            overwrite: false,
        };
        match apply(&store, &begin) {
            ShipReply::Begun { transfer, .. } => (store, meta, transfer),
            other => panic!("{other:?}"),
        }
    }

    /// A current-form chunk message: no `data`, the bytes ride as tail.
    fn chunk_of(transfer: u64, index: u32, honest: &[u8]) -> ShipRequest {
        ShipRequest::Chunk {
            transfer,
            index,
            data: String::new(),
            checksum: fnv64(honest),
        }
    }

    #[test]
    fn tail_is_held_to_the_chunk_geometry_and_checksum() {
        let body = synthetic_body(ContentId(5), 2500);
        let (store, meta, transfer) = begun(&body);
        let first = &body[..1000];
        for wrong_len in [&body[..999], &body[..1001], &[][..]] {
            let (reply, _) = apply_tail(&store, &chunk_of(transfer, 0, first), wrong_len);
            assert!(
                matches!(reply, ShipReply::Err(StoreError::BadChunk { index: 0, .. })),
                "{} bytes: {reply:?}",
                wrong_len.len()
            );
        }
        let mut flipped = first.to_vec();
        flipped[7] ^= 0x01;
        let (reply, _) = apply_tail(&store, &chunk_of(transfer, 0, first), &flipped);
        assert!(
            matches!(
                reply,
                ShipReply::Err(StoreError::ChunkRejected { index: 0, .. })
            ),
            "{reply:?}"
        );
        assert_eq!(store.stats().rejected_chunks, 1);
        for index in 0..meta.chunk_count() {
            let bytes = &body[meta.chunk_range(index).unwrap()];
            let (reply, tail) = apply_tail(&store, &chunk_of(transfer, index, bytes), bytes);
            assert_eq!((reply, tail), (ShipReply::ChunkOk, Vec::new()));
        }
        let commit = ShipRequest::Commit {
            transfer,
            path: p("/t"),
            checksum: meta.checksum,
        };
        assert_eq!(apply(&store, &commit), ShipReply::Committed(meta));
        assert_eq!(store.read(&p("/t")).unwrap(), body);
    }

    #[test]
    fn commit_over_wrong_staged_bytes_is_checksum_mismatch() {
        let body = synthetic_body(ContentId(5), 2500);
        let (store, meta, transfer) = begun(&body);
        // Each chunk is honest about itself, none is the announced object.
        let other = synthetic_body(ContentId(6), 2500);
        for index in 0..meta.chunk_count() {
            let bytes = &other[meta.chunk_range(index).unwrap()];
            let (reply, _) = apply_tail(&store, &chunk_of(transfer, index, bytes), bytes);
            assert_eq!(reply, ShipReply::ChunkOk);
        }
        let commit = ShipRequest::Commit {
            transfer,
            path: p("/t"),
            checksum: meta.checksum,
        };
        assert!(matches!(
            apply(&store, &commit),
            ShipReply::Err(StoreError::ChecksumMismatch { .. })
        ));
        assert!(!store.contains(&p("/t")));
    }

    #[test]
    fn a_description_of_another_body_is_refused_by_the_receivers_commit() {
        let (store, client) = spawn_store(0, 1 << 20);
        let body = synthetic_body(ContentId(5), 2500);
        // Honest chunk sums in order under a whole-object checksum that
        // is some other object's: nothing is hashed on the sending side
        // to notice, so the receiver's commit has to.
        let (mut meta, sums) = ObjectMeta::describe(ContentId(5), &body, 1000, 0);
        meta.checksum = fnv64(&synthetic_body(ContentId(6), 2500));
        let err = Shipper::new()
            .push_described(&client, &p("/t"), meta, &sums, &body, false)
            .unwrap_err();
        assert!(
            matches!(
                &err,
                ShipError::Store(StoreError::ChecksumMismatch { expected, got, .. })
                    if (*expected, *got) == (meta.checksum, fnv64(&body))
            ),
            "{err:?}"
        );
        assert!(!store.contains(&p("/t")));
        assert_eq!(store.stats().verify_failures, 1);
    }

    #[test]
    fn legacy_hex_chunks_still_stage_and_a_tailless_fetch_answers_hex() {
        let body = synthetic_body(ContentId(5), 2500);
        let (store, meta, transfer) = begun(&body);
        let hexed = |index: u32, data: String| ShipRequest::Chunk {
            transfer,
            index,
            data,
            checksum: fnv64(&body[meta.chunk_range(index).unwrap()]),
        };
        assert!(matches!(
            apply(&store, &hexed(0, "not hex".to_string())),
            ShipReply::Err(StoreError::BadChunk { index: 0, .. })
        ));
        for index in 0..meta.chunk_count() {
            let data = hex_encode(&body[meta.chunk_range(index).unwrap()]);
            assert_eq!(apply(&store, &hexed(index, data)), ShipReply::ChunkOk);
        }
        let commit = ShipRequest::Commit {
            transfer,
            path: p("/t"),
            checksum: meta.checksum,
        };
        assert_eq!(apply(&store, &commit), ShipReply::Committed(meta));

        let last = &body[2000..];
        let fetch = ShipRequest::Fetch {
            path: p("/t"),
            index: 2,
        };
        assert_eq!(
            apply(&store, &fetch),
            ShipReply::ChunkData {
                data: hex_encode(last),
                checksum: fnv64(last),
            }
        );
        let (reply, tail) = apply_tail(&store, &fetch, &[]);
        assert_eq!(
            reply,
            ShipReply::ChunkData {
                data: String::new(),
                checksum: fnv64(last),
            }
        );
        assert_eq!(tail, last);
    }

    #[test]
    fn pull_from_a_peer_that_answers_hex_is_a_protocol_error() {
        /// A store served the way it was before payload tails.
        struct LegacyPort(ContentStore);
        impl ShipPort for LegacyPort {
            fn ship_tail(
                &self,
                request: &ShipRequest,
                _tail: &[u8],
            ) -> Result<(ShipReply, Vec<u8>), WireError> {
                Ok((apply(&self.0, request), Vec::new()))
            }
        }
        let port = LegacyPort(ContentStore::in_memory(NodeId(0), 1 << 20));
        // Several chunks, so the pull goes on past its `Get` to `Fetch`es.
        let body = synthetic_body(ContentId(7), 3 * u64::from(DEFAULT_CHUNK_SIZE));
        port.0
            .put(&p("/old"), ContentId(7), 0, &body, false)
            .unwrap();
        let err = Shipper::new().pull(&port, &p("/old")).unwrap_err();
        assert!(matches!(err, ShipError::Protocol { .. }), "{err:?}");
    }

    #[test]
    fn pull_of_an_absurd_announced_size_is_a_typed_error() {
        /// A peer whose every `Get` announces an object of 4 EiB.
        struct Boastful;
        impl ShipPort for Boastful {
            fn ship_tail(
                &self,
                request: &ShipRequest,
                _tail: &[u8],
            ) -> Result<(ShipReply, Vec<u8>), WireError> {
                let reply = match request {
                    ShipRequest::Get { .. } => ShipReply::Got {
                        meta: ObjectMeta {
                            content: ContentId(1),
                            size: 1 << 62,
                            checksum: 0,
                            chunk_size: DEFAULT_CHUNK_SIZE,
                            version: 0,
                        },
                        checksum: 0,
                    },
                    other => panic!("pull went on to {other:?}"),
                };
                Ok((reply, Vec::new()))
            }
        }
        let err = Shipper::new().pull(&Boastful, &p("/huge")).unwrap_err();
        assert!(matches!(err, ShipError::Protocol { .. }), "{err:?}");
    }

    #[test]
    fn hostile_puts_get_typed_refusals_and_leave_nothing_behind() {
        let store = ContentStore::in_memory(NodeId(0), 1 << 20);
        let body = synthetic_body(ContentId(5), 2500);
        let honest = ObjectMeta::for_body(ContentId(5), &body, DEFAULT_CHUNK_SIZE, 0);
        let put = |meta: ObjectMeta| ShipRequest::Put {
            path: p("/t"),
            meta,
            overwrite: false,
        };
        let bad_chunk: fn(&StoreError) -> bool =
            |e| matches!(e, StoreError::BadChunk { index: 0, .. });
        let rejected: fn(&StoreError) -> bool =
            |e| matches!(e, StoreError::ChunkRejected { index: 0, .. });
        let long = [&body[..], &[0]].concat();
        let cases = [
            ("short tail", honest, &body[..2499], bad_chunk),
            ("long tail", honest, &long[..], bad_chunk),
            (
                "two-chunk meta",
                ObjectMeta::for_body(ContentId(5), &body, 2000, 0),
                &body[..],
                bad_chunk,
            ),
            (
                "zero chunk size",
                ObjectMeta {
                    chunk_size: 0,
                    ..honest
                },
                &body[..],
                bad_chunk,
            ),
            (
                "checksum lie",
                ObjectMeta {
                    checksum: honest.checksum ^ 1,
                    ..honest
                },
                &body[..],
                rejected,
            ),
        ];
        let before = store.stats();
        for (case, meta, tail, refused) in cases {
            let (reply, reply_tail) = apply_tail(&store, &put(meta), tail);
            assert!(
                matches!(&reply, ShipReply::Err(e) if refused(e)),
                "{case}: {reply:?}"
            );
            assert!(reply_tail.is_empty());
            assert!(!store.contains(&p("/t")), "{case}: nothing installed");
            let stats = store.stats();
            assert_eq!(
                (
                    stats.staged_transfers,
                    stats.staged_bytes,
                    stats.free_bytes()
                ),
                (0, 0, before.free_bytes()),
                "{case}: nothing reserved"
            );
        }
        assert_eq!(store.stats().rejected_chunks, 1, "the lie was counted");
        // The honest `Put` of the same body installs it.
        let (reply, _) = apply_tail(&store, &put(honest), &body);
        assert_eq!(reply, ShipReply::Committed(honest));
        assert_eq!(store.read(&p("/t")).unwrap(), body);
    }

    #[test]
    fn a_put_keeps_the_overwrite_and_quota_rules_and_replays_safely() {
        let store = ContentStore::in_memory(NodeId(0), 5000);
        let put = |body: &[u8], overwrite: bool| {
            let meta = ObjectMeta::for_body(ContentId(5), body, DEFAULT_CHUNK_SIZE, 0);
            let request = ShipRequest::Put {
                path: p("/t"),
                meta,
                overwrite,
            };
            (meta, apply_tail(&store, &request, body).0)
        };
        let (meta, reply) = put(&[1; 3000], false);
        assert_eq!(reply, ShipReply::Committed(meta));
        // Replayed after a lost ack, with or without `overwrite`: the
        // committed object answers, and nothing is installed again.
        for overwrite in [false, true] {
            assert_eq!(put(&[1; 3000], overwrite).1, ShipReply::Committed(meta));
        }
        assert_eq!(store.stats().committed_total, 1);
        assert!(matches!(
            put(&[2; 3000], false).1,
            ShipReply::Err(StoreError::AlreadyExists { .. })
        ));
        // Replacing counts the old object's bytes as free: 4000 fits
        // where 3000 stood; 5001 does not fit at all.
        let (replacement, reply) = put(&[2; 4000], true);
        assert_eq!(reply, ShipReply::Committed(replacement));
        assert_eq!(store.stats().committed_bytes, 4000);
        assert!(matches!(
            put(&[3; 5001], true).1,
            ShipReply::Err(StoreError::DiskFull { needed: 5001, .. })
        ));
        assert_eq!(store.read(&p("/t")).unwrap(), [2; 4000]);
    }

    #[test]
    fn get_answers_the_record_with_the_first_chunk() {
        let (store, client) = spawn_store(0, 1 << 20);
        let missing = ShipRequest::Get { path: p("/none") };
        assert_eq!(
            apply_tail(&store, &missing, &[]),
            (
                ShipReply::Err(StoreError::NotFound { path: p("/none") }),
                Vec::new()
            )
        );
        let body = synthetic_body(ContentId(5), 2500);
        let meta = ObjectMeta::for_body(ContentId(5), &body, 1000, 0);
        store
            .put_whole(
                &p("/empty"),
                ObjectMeta::for_body(ContentId(6), &[], 1000, 0),
                &[],
                false,
            )
            .unwrap();
        let (transfer, _) = store.begin(&p("/t"), meta, false).unwrap();
        for index in 0..meta.chunk_count() {
            let bytes = &body[meta.chunk_range(index).unwrap()];
            store
                .stage_chunk(transfer, index, bytes, fnv64(bytes))
                .unwrap();
        }
        store.commit(transfer, &p("/t"), meta.checksum).unwrap();
        assert_eq!(
            apply_tail(&store, &ShipRequest::Get { path: p("/t") }, &[]),
            (
                ShipReply::Got {
                    meta,
                    checksum: fnv64(&body[..1000])
                },
                body[..1000].to_vec()
            )
        );
        // A zero-byte object's first chunk is empty.
        let (reply, tail) = apply_tail(&store, &ShipRequest::Get { path: p("/empty") }, &[]);
        assert!(
            matches!(reply, ShipReply::Got { meta, checksum } if meta.size == 0 && checksum == fnv64(&[])),
            "{reply:?}"
        );
        assert!(tail.is_empty());
        let (pulled, _, empty) = Shipper::new().pull(&client, &p("/empty")).unwrap();
        assert_eq!((pulled.size, empty), (0, Vec::new()));
        let err = Shipper::new().pull(&client, &p("/none")).unwrap_err();
        assert!(
            matches!(err, ShipError::Store(StoreError::NotFound { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn a_got_whose_chunk_arrives_short_is_fetched_again() {
        /// Cuts the first chunk short on its way back from the `Get`, and
        /// records every verb it carries.
        struct ShortGot<'a>(&'a ContentStore, std::sync::Mutex<Vec<&'static str>>);
        impl ShipPort for ShortGot<'_> {
            fn ship_tail(
                &self,
                request: &ShipRequest,
                tail: &[u8],
            ) -> Result<(ShipReply, Vec<u8>), WireError> {
                self.1.lock().unwrap().push(request.verb());
                let (reply, mut bytes) = apply_tail(self.0, request, tail);
                if matches!(request, ShipRequest::Get { .. }) {
                    bytes.pop();
                }
                Ok((reply, bytes))
            }
        }
        let registry = Arc::new(MetricsRegistry::new());
        let shipper = Shipper::new().with_metrics(ShipMetrics::attach(&registry));
        for size in [3000, 150_000] {
            let store = ContentStore::in_memory(NodeId(0), 1 << 20);
            let body = synthetic_body(ContentId(5), size);
            store.put(&p("/t"), ContentId(5), 0, &body, false).unwrap();
            let port = ShortGot(&store, std::sync::Mutex::new(Vec::new()));
            let (meta, _, pulled) = shipper.pull(&port, &p("/t")).unwrap();
            assert_eq!((meta.size, pulled), (size, body));
            let verbs = port.1.into_inner().unwrap();
            let fetches = meta.chunk_count() as usize;
            assert_eq!(verbs[0], "get");
            assert_eq!(
                verbs[1..],
                vec!["fetch"; fetches][..],
                "chunk 0 again, then the rest"
            );
        }
        assert_eq!(
            registry.snapshot().counter("ship_chunk_retries_total"),
            Some(2),
            "one re-fetch per pull"
        );
    }

    #[test]
    fn hostile_payloads_get_typed_refusals() {
        use cpms_wire::Service;
        let mut service = StoreService::new(Arc::new(ContentStore::in_memory(NodeId(0), 1 << 20)));
        let zeros = vec![0u8; 16 << 20];
        for payload in [&[][..], &[0], b"\0a tail and no head", b"{\"Stat\"", &zeros] {
            let reply = service.handle(payload);
            let reply: ShipReply =
                serde_json::from_str(std::str::from_utf8(&reply).unwrap()).unwrap();
            assert!(
                matches!(reply, ShipReply::Err(StoreError::Io { .. })),
                "{reply:?}"
            );
        }
    }

    #[test]
    fn quota_refusal_is_not_resumable() {
        let (_store, client) = spawn_store(0, 100);
        let body = synthetic_body(ContentId(3), 500);
        let err = Shipper::new()
            .push(&client, &p("/big"), ContentId(3), 0, &body, false)
            .unwrap_err();
        assert!(matches!(err, ShipError::Store(StoreError::DiskFull { .. })));
    }

    #[test]
    fn metrics_observe_transfer() {
        let (_store, client) = spawn_store(0, 1 << 20);
        let registry = Arc::new(MetricsRegistry::new());
        let shipper = Shipper::new().with_metrics(ShipMetrics::attach(&registry));
        let body = synthetic_body(ContentId(4), 20_000);
        shipper
            .push(&client, &p("/m"), ContentId(4), 0, &body, false)
            .unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ship_bytes_total"), Some(20_000));
        assert_eq!(snap.counter("ship_transfers_total"), Some(1));
        assert_eq!(snap.gauge("ship_inflight"), Some(0));
        assert_eq!(snap.histogram("ship_transfer_ns").unwrap().count, 1);
        // One hash pass on the sending side per push, one per pull.
        assert_eq!(snap.counter("ship_hashed_bytes_total"), Some(20_000));
        shipper.pull(&client, &p("/m")).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ship_hashed_bytes_total"), Some(40_000));
    }
}
