//! Distributed-trace context, propagation, and the span collector.
//!
//! A [`TraceContext`] identifies one position in one cluster-wide trace:
//! a 128-bit trace id shared by every span of the trace, a 64-bit span
//! id for this hop, the parent span id that caused it, and the head
//! sampling decision made at the trace root. The context rides three
//! carriers — a thread-local cell within a process (see
//! [`TraceContext::current`] / [`ScopedTrace`]), a versioned `cpms-wire`
//! frame extension between processes, and an `x-cpms-trace` HTTP header
//! on the proxy→origin relay — so one request or one management
//! operation yields a single causally-linked tree across the cluster.
//!
//! Finished spans land in the process-local [`SpanCollector`]: a
//! lock-sharded, bounded store with *tail sampling* — error spans are
//! always kept, the slowest spans displace the fastest once a shard is
//! full, and a small fraction of ordinary spans survive regardless so
//! the healthy baseline stays visible. The collector renders itself as
//! the `/_cpms/trace.json` surface that `cpms-lab` scrapes and merges
//! into the cluster-wide `traces.json`.

use std::borrow::Cow;
use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// The trace id shared by every span in one distributed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u128);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl TraceId {
    /// Parses the canonical 32-hex-digit rendering.
    #[must_use]
    pub fn parse(text: &str) -> Option<TraceId> {
        if text.len() != 32 {
            return None;
        }
        u128::from_str_radix(text, 16).ok().map(TraceId)
    }
}

/// One hop's span id within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The splitmix64 output for state `x`: the state advanced by one golden
/// gamma, then mixed. The tree's one copy — trace ids, sampling rolls,
/// wire jitter and fault plans, synthetic bodies and simulated script
/// costs all draw from it, so their streams replay from their seeds.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fresh, never-zero 64-bit id: a per-process random seed (time ×
/// pid, so concurrent lab processes diverge) mixed with a global
/// counter. Not cryptographic — unique enough for trace correlation.
fn fresh_u64() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default();
        let pid = u64::from(std::process::id());
        splitmix64(u64::try_from(now.as_nanos() & u128::from(u64::MAX)).unwrap_or(0) ^ (pid << 32))
    });
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    splitmix64(seed ^ n.wrapping_mul(0xD605_0B1C_9C3A_415B)).max(1)
}

/// Microseconds since the Unix epoch right now — the cross-process
/// clock the lab uses to causally order merged spans.
#[must_use]
pub fn unix_micros_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Bytes of the binary context encoding carried in wire-frame
/// extensions: trace (16) + span (8) + parent (8, zero = none) +
/// flags (1, bit 0 = sampled).
pub const CONTEXT_WIRE_LEN: usize = 33;

/// Bytes of the `x-cpms-trace` header value: 32 + 16 + 16 + 2 hex
/// digits and three dashes.
pub const CONTEXT_HEADER_LEN: usize = 69;

/// One position in a distributed trace, as carried between hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every span of this tree shares.
    pub trace: TraceId,
    /// This hop's span id.
    pub span: SpanId,
    /// The span that caused this hop (`None` at the trace root).
    pub parent: Option<SpanId>,
    /// Head sampling decision made at the root; children inherit it so
    /// trees are recorded whole or not at all.
    pub sampled: bool,
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

impl TraceContext {
    /// Starts a brand-new trace rooted here.
    #[must_use]
    pub fn root(sampled: bool) -> TraceContext {
        TraceContext {
            trace: TraceId((u128::from(fresh_u64()) << 64) | u128::from(fresh_u64())),
            span: SpanId(fresh_u64()),
            parent: None,
            sampled,
        }
    }

    /// A child context: same trace and sampling, fresh span id,
    /// parented by this context's span.
    #[must_use]
    pub fn child(&self) -> TraceContext {
        TraceContext {
            trace: self.trace,
            span: SpanId(fresh_u64()),
            parent: Some(self.span),
            sampled: self.sampled,
        }
    }

    /// The context active on this thread, if any.
    #[must_use]
    pub fn current() -> Option<TraceContext> {
        CURRENT.with(Cell::get)
    }

    /// Serializes to the fixed-size wire-extension encoding.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; CONTEXT_WIRE_LEN] {
        let mut out = [0u8; CONTEXT_WIRE_LEN];
        out[..16].copy_from_slice(&self.trace.0.to_be_bytes());
        out[16..24].copy_from_slice(&self.span.0.to_be_bytes());
        out[24..32].copy_from_slice(&self.parent.map_or(0, |p| p.0).to_be_bytes());
        out[32] = u8::from(self.sampled);
        out
    }

    /// Deserializes the wire-extension encoding. Returns `None` for
    /// semantically invalid contexts (zero trace or span id) so
    /// receivers degrade to untraced rather than building broken trees.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<TraceContext> {
        if bytes.len() != CONTEXT_WIRE_LEN {
            return None;
        }
        let trace = u128::from_be_bytes(bytes[..16].try_into().ok()?);
        let span = u64::from_be_bytes(bytes[16..24].try_into().ok()?);
        let parent = u64::from_be_bytes(bytes[24..32].try_into().ok()?);
        if trace == 0 || span == 0 {
            return None;
        }
        Some(TraceContext {
            trace: TraceId(trace),
            span: SpanId(span),
            parent: (parent != 0).then_some(SpanId(parent)),
            sampled: bytes[32] & 1 == 1,
        })
    }

    /// Renders the `x-cpms-trace` HTTP header value:
    /// `trace-span-parent-flags` in fixed-width hex (parent `0…0` at
    /// the root).
    #[must_use]
    pub fn to_header(&self) -> String {
        String::from_utf8(self.header_bytes().to_vec()).expect("hex digits are ASCII")
    }

    /// [`TraceContext::to_header`] as fixed-size bytes on the stack, for
    /// writers that put the header on every relayed request.
    #[must_use]
    pub fn header_bytes(&self) -> [u8; CONTEXT_HEADER_LEN] {
        fn hex(out: &mut [u8], value: u128) {
            const DIGITS: &[u8; 16] = b"0123456789abcdef";
            for (i, byte) in out.iter_mut().rev().enumerate() {
                *byte = DIGITS[((value >> (4 * i)) & 0xf) as usize];
            }
        }
        let mut out = [b'-'; CONTEXT_HEADER_LEN];
        hex(&mut out[..32], self.trace.0);
        hex(&mut out[33..49], u128::from(self.span.0));
        hex(&mut out[50..66], u128::from(self.parent.map_or(0, |p| p.0)));
        hex(&mut out[67..], u128::from(self.sampled));
        out
    }

    /// Parses the `x-cpms-trace` header value; malformed or
    /// semantically invalid values yield `None` (untraced), never an
    /// error — a bad header must not fail the request.
    #[must_use]
    pub fn from_header(text: &str) -> Option<TraceContext> {
        let mut parts = text.trim().split('-');
        let (t, s, p, f) = (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
        if parts.next().is_some() || t.len() != 32 || s.len() != 16 || p.len() != 16 {
            return None;
        }
        let trace = u128::from_str_radix(t, 16).ok()?;
        let span = u64::from_str_radix(s, 16).ok()?;
        let parent = u64::from_str_radix(p, 16).ok()?;
        let flags = u8::from_str_radix(f, 16).ok()?;
        if trace == 0 || span == 0 {
            return None;
        }
        Some(TraceContext {
            trace: TraceId(trace),
            span: SpanId(span),
            parent: (parent != 0).then_some(SpanId(parent)),
            sampled: flags & 1 == 1,
        })
    }
}

/// RAII activation of a [`TraceContext`] on the current thread; the
/// previous context (if any) is restored on drop. `!Send`: the guard
/// must drop on the thread that created it.
#[derive(Debug)]
pub struct ScopedTrace {
    prev: Option<TraceContext>,
    _not_send: PhantomData<*const ()>,
}

impl ScopedTrace {
    /// Makes `ctx` the current context for this thread until drop.
    #[must_use]
    pub fn activate(ctx: TraceContext) -> ScopedTrace {
        ScopedTrace {
            prev: CURRENT.with(|c| c.replace(Some(ctx))),
            _not_send: PhantomData,
        }
    }

    /// Clears the current context for this thread until drop — used by
    /// executors between requests so a context never leaks across
    /// unrelated work.
    #[must_use]
    pub fn clear() -> ScopedTrace {
        ScopedTrace {
            prev: CURRENT.with(|c| c.replace(None)),
            _not_send: PhantomData,
        }
    }
}

impl Drop for ScopedTrace {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// One finished span as stored and exported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// The causing span, if any.
    pub parent: Option<SpanId>,
    /// Stage name, e.g. `proxy.request` or `wire.attempt`.
    pub name: String,
    /// Free-form specifics (path, node, error text).
    pub detail: String,
    /// Wall-clock start, microseconds since the Unix epoch.
    pub start_unix_micros: u64,
    /// Elapsed nanoseconds.
    pub duration_ns: u64,
    /// Whether the spanned operation failed.
    pub error: bool,
}

/// How many shards a collector spreads its spans over.
const SPAN_SHARDS: usize = 8;
/// Default retained-span bound across all shards.
pub const DEFAULT_SPAN_CAPACITY: usize = 16_384;
/// One in this many unsampled-by-duration spans is kept anyway once a
/// shard is full, so the healthy fast path stays represented.
const TAIL_KEEP_ONE_IN: u64 = 16;
/// Default head-sampling rate for high-volume roots
/// ([`TracedSpan::enter_head_sampled`]): one request trace in this many
/// is sampled; error spans record regardless of the roll.
pub const DEFAULT_HEAD_SAMPLE_ONE_IN: u64 = 4;

/// A lock-sharded, bounded store of finished [`SpanRecord`]s with
/// tail sampling (see module docs). Shards are keyed by trace id so one
/// trace's spans age together.
#[derive(Debug)]
pub struct SpanCollector {
    shards: Vec<Mutex<Vec<SpanRecord>>>,
    per_shard: usize,
    enabled: AtomicBool,
    recorded: AtomicU64,
    dropped: AtomicU64,
    process: Mutex<String>,
    tiebreak: AtomicU64,
    head_one_in: AtomicU64,
    head_counter: AtomicU64,
    scrape_seq: AtomicU64,
    started: Instant,
}

impl Default for SpanCollector {
    fn default() -> Self {
        SpanCollector::new(DEFAULT_SPAN_CAPACITY)
    }
}

impl SpanCollector {
    /// A collector retaining at most `capacity` spans process-wide.
    #[must_use]
    pub fn new(capacity: usize) -> SpanCollector {
        let per_shard = capacity.div_ceil(SPAN_SHARDS).max(1);
        SpanCollector {
            shards: (0..SPAN_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            per_shard,
            enabled: AtomicBool::new(true),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            process: Mutex::new(String::from("proc")),
            tiebreak: AtomicU64::new(0),
            head_one_in: AtomicU64::new(DEFAULT_HEAD_SAMPLE_ONE_IN),
            head_counter: AtomicU64::new(0),
            scrape_seq: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Sets the head-sampling rate for [`TracedSpan::enter_head_sampled`]
    /// roots: 1 samples every request trace, `n` samples one in `n`
    /// (clamped to at least 1). Management-plane roots via
    /// [`TracedSpan::enter`] are always sampled and unaffected.
    pub fn set_head_sample_one_in(&self, n: u64) {
        self.head_one_in.store(n.max(1), Ordering::Relaxed);
    }

    /// The head-sampling decision for one fresh high-volume root.
    fn head_roll(&self) -> bool {
        let n = self.head_one_in.load(Ordering::Relaxed).max(1);
        self.head_counter
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(n)
    }

    /// Whether recording is on. Off means [`TracedSpan::enter`] is a
    /// no-op — the untraced baseline the latency bench compares against.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Labels this process in exports (`proxy`, `broker-n3`, …).
    pub fn set_process(&self, label: &str) {
        *self.process.lock().expect("span process lock") = label.to_string();
    }

    /// The process label.
    #[must_use]
    pub fn process(&self) -> String {
        self.process.lock().expect("span process lock").clone()
    }

    /// Spans accepted into shards (including later-evicted ones).
    #[must_use]
    pub fn recorded_total(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Spans rejected or evicted by tail sampling.
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Stores one finished span, applying tail sampling once the
    /// shard is full: errors always stay, slower spans displace the
    /// fastest non-error span of a bounded random probe set, and one in
    /// `TAIL_KEEP_ONE_IN` of the rest survives regardless.
    pub fn record(&self, record: SpanRecord) {
        if !self.is_enabled() {
            return;
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let shard_index =
            usize::try_from(splitmix64(record.trace.0 as u64)).unwrap_or(0) % self.shards.len();
        let mut shard = self.shards[shard_index].lock().expect("span shard lock");
        if shard.len() < self.per_shard {
            shard.push(record);
            return;
        }
        // Full shard: find a cheap victim (a fastest non-error span).
        // Scanning the whole shard for the exact minimum is O(shard)
        // *under the lock* — a convoy once the collector saturates on
        // the request path — so large shards probe a bounded random
        // sample instead and evict the fastest non-error span among the
        // probes; the probed minimum sits in the fast tail with high
        // probability, which is all tail sampling needs.
        const EVICTION_PROBES: usize = 8;
        let roll_base = splitmix64(self.tiebreak.fetch_add(1, Ordering::Relaxed));
        let probe = |j: usize| {
            if shard.len() <= EVICTION_PROBES * 2 {
                (j < shard.len()).then_some(j)
            } else {
                (j < EVICTION_PROBES).then(|| {
                    usize::try_from(
                        splitmix64(roll_base ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                            % shard.len() as u64,
                    )
                    .unwrap_or(0)
                })
            }
        };
        let probed: Vec<usize> = (0..).map_while(probe).collect();
        let victim = probed
            .iter()
            .map(|&i| (i, &shard[i]))
            .filter(|(_, r)| !r.error)
            .min_by_key(|(_, r)| r.duration_ns)
            .map(|(i, r)| (i, r.duration_ns));
        match victim {
            Some((i, fastest)) if record.error || record.duration_ns > fastest => {
                shard[i] = record;
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Some((i, _)) => {
                if roll_base.is_multiple_of(TAIL_KEEP_ONE_IN) {
                    shard[i] = record;
                }
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            // Every probed span is an error: drop the newcomer unless it
            // is an error too, in which case displace the fastest probed.
            None if record.error => {
                if let Some(&i) = probed.iter().min_by_key(|&&i| shard[i].duration_ns) {
                    shard[i] = record;
                }
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// All retained spans, in no particular order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().expect("span shard lock").iter().cloned());
        }
        out
    }

    /// Retained spans of one trace.
    #[must_use]
    pub fn spans_of(&self, trace: TraceId) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self
            .snapshot()
            .into_iter()
            .filter(|r| r.trace == trace)
            .collect();
        out.sort_by_key(|r| (r.start_unix_micros, r.span.0));
        out
    }

    /// Renders the `/_cpms/trace.json` document: the process label, a
    /// monotonic per-render `scrape_seq` plus collector uptime (so the
    /// lab orders scrapes without trusting its own clock), collector
    /// counters, and every retained span.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"process\":\"");
        out.push_str(&crate::export::json_escape(&self.process()));
        out.push_str("\",\"scrape_seq\":");
        out.push_str(&self.scrape_seq.fetch_add(1, Ordering::Relaxed).to_string());
        out.push_str(",\"uptime_micros\":");
        out.push_str(
            &u64::try_from(self.started.elapsed().as_micros())
                .unwrap_or(u64::MAX)
                .to_string(),
        );
        out.push_str(",\"recorded\":");
        out.push_str(&self.recorded_total().to_string());
        out.push_str(",\"dropped\":");
        out.push_str(&self.dropped_total().to_string());
        out.push_str(",\"spans\":[");
        let mut spans = self.snapshot();
        spans.sort_by_key(|r| (r.start_unix_micros, r.span.0));
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"trace\":\"");
            out.push_str(&s.trace.to_string());
            out.push_str("\",\"span\":\"");
            out.push_str(&s.span.to_string());
            out.push_str("\",\"parent\":");
            match s.parent {
                Some(p) => {
                    out.push('"');
                    out.push_str(&p.to_string());
                    out.push('"');
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"name\":\"");
            out.push_str(&crate::export::json_escape(&s.name));
            out.push_str("\",\"detail\":\"");
            out.push_str(&crate::export::json_escape(&s.detail));
            out.push_str("\",\"start_unix_micros\":");
            out.push_str(&s.start_unix_micros.to_string());
            out.push_str(",\"duration_ns\":");
            out.push_str(&s.duration_ns.to_string());
            out.push_str(",\"error\":");
            out.push_str(if s.error { "true" } else { "false" });
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// One span's state between open and record, shared by [`TracedSpan`]
/// and [`OwnedSpan`]. Opening one costs a clock read and nothing on the
/// heap: the name is usually static, the detail is built only for a
/// span that will be recorded (see [`TracedSpan::fill_detail`]), and the
/// wall-clock start is derived when the record is made.
#[derive(Debug)]
struct Open {
    ctx: TraceContext,
    name: Cow<'static, str>,
    detail: String,
    error: bool,
    started: Instant,
}

impl Open {
    fn new(ctx: TraceContext, name: Cow<'static, str>) -> Open {
        Open {
            ctx,
            name,
            detail: String::new(),
            error: false,
            started: Instant::now(),
        }
    }

    /// Sampled spans record, and failed ones even when the head sampling
    /// decision said no — failures are always worth keeping.
    fn records(&self) -> bool {
        self.ctx.sampled || self.error
    }

    fn fill_detail(&mut self, detail: impl FnOnce() -> String) {
        if self.detail.is_empty() && self.records() {
            self.detail = detail();
        }
    }

    fn record_into(self, collector: &SpanCollector) {
        if !self.records() {
            return;
        }
        let elapsed = self.started.elapsed();
        let elapsed_micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        collector.record(SpanRecord {
            trace: self.ctx.trace,
            span: self.ctx.span,
            parent: self.ctx.parent,
            name: self.name.into_owned(),
            detail: self.detail,
            start_unix_micros: unix_micros_now().saturating_sub(elapsed_micros),
            duration_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            error: self.error,
        });
    }
}

/// An RAII distributed span: on entry it derives a child of the
/// thread's current [`TraceContext`] (or roots a new trace) and makes
/// that child current; on drop it restores the previous context and
/// records a [`SpanRecord`] into the collector. When the collector is
/// disabled the whole thing is a no-op — no clock reads, no context.
#[derive(Debug)]
pub struct TracedSpan<'c> {
    collector: &'c SpanCollector,
    live: Option<(Open, ScopedTrace)>,
}

impl<'c> TracedSpan<'c> {
    /// Opens a span named `name`: a child of the current context, or a
    /// fresh sampled root when no trace is active on this thread.
    #[must_use]
    pub fn enter(
        collector: &'c SpanCollector,
        name: impl Into<Cow<'static, str>>,
    ) -> TracedSpan<'c> {
        TracedSpan::enter_rooting(collector, name, || TraceContext::root(true))
    }

    /// Like [`TracedSpan::enter`], but a fresh root's sampling flag
    /// comes from the collector's head-sampling roll instead of being
    /// unconditionally on — the entry point for high-volume roots (the
    /// proxy's per-request trace). Unsampled spans stay active as
    /// context (children inherit the decision across the cluster) and
    /// still record if they end in error; they just skip the collector
    /// on the happy path, which is what keeps tracing cheap at rate.
    #[must_use]
    pub fn enter_head_sampled(
        collector: &'c SpanCollector,
        name: impl Into<Cow<'static, str>>,
    ) -> TracedSpan<'c> {
        TracedSpan::enter_rooting(collector, name, || {
            TraceContext::root(collector.head_roll())
        })
    }

    fn enter_rooting(
        collector: &'c SpanCollector,
        name: impl Into<Cow<'static, str>>,
        root: impl FnOnce() -> TraceContext,
    ) -> TracedSpan<'c> {
        if !collector.is_enabled() {
            return TracedSpan {
                collector,
                live: None,
            };
        }
        let ctx = TraceContext::current().map_or_else(root, |c| c.child());
        TracedSpan {
            collector,
            live: Some((Open::new(ctx, name.into()), ScopedTrace::activate(ctx))),
        }
    }

    /// The context this span made current (`None` when disabled).
    #[must_use]
    pub fn context(&self) -> Option<TraceContext> {
        self.live.as_ref().map(|(open, _)| open.ctx)
    }

    /// Replaces the span's detail text.
    pub fn set_detail(&mut self, detail: impl Into<String>) {
        if let Some((open, _)) = self.live.as_mut() {
            open.detail = detail.into();
        }
    }

    /// Sets the detail text from `detail` if the span has none yet and
    /// will be recorded — sampled, or already marked failed. Call it once
    /// the outcome is known: an unsampled span that succeeds never builds
    /// its text.
    pub fn fill_detail(&mut self, detail: impl FnOnce() -> String) {
        if let Some((open, _)) = self.live.as_mut() {
            open.fill_detail(detail);
        }
    }

    /// Marks the span failed (error spans always survive sampling).
    pub fn set_error(&mut self, error: bool) {
        if let Some((open, _)) = self.live.as_mut() {
            open.error = error;
        }
    }
}

impl Drop for TracedSpan<'_> {
    fn drop(&mut self) {
        if let Some((open, scope)) = self.live.take() {
            drop(scope);
            open.record_into(self.collector);
        }
    }
}

/// A `Send` span for event-loop state machines.
///
/// [`TracedSpan`] is built around thread-local context propagation
/// (`ScopedTrace` pins it to one thread) and a borrow of the collector,
/// neither of which survives inside connection state stored across poller
/// wakeups. `OwnedSpan` drops both: it holds an `Arc` of the collector and
/// carries its [`TraceContext`] explicitly — callers thread the context to
/// children by hand (e.g. via the `x-cpms-trace` relay header) instead of
/// relying on the ambient thread-local. Recording semantics are identical to
/// [`TracedSpan`]: the record lands on drop (or [`OwnedSpan::finish`]) when
/// the context is sampled or the span errored.
#[derive(Debug)]
pub struct OwnedSpan {
    collector: Arc<SpanCollector>,
    live: Option<Open>,
}

impl OwnedSpan {
    fn open(collector: Arc<SpanCollector>, name: &'static str, ctx: TraceContext) -> OwnedSpan {
        OwnedSpan {
            collector,
            live: Some(Open::new(ctx, Cow::Borrowed(name))),
        }
    }

    /// Opens a fresh root whose sampling flag comes from the collector's
    /// head-sampling roll — the owned counterpart of
    /// [`TracedSpan::enter_head_sampled`]. A disabled collector yields an
    /// inert span (no clock reads, `context()` is `None`).
    #[must_use]
    pub fn root_head_sampled(collector: Arc<SpanCollector>, name: &'static str) -> OwnedSpan {
        if !collector.is_enabled() {
            return OwnedSpan {
                collector,
                live: None,
            };
        }
        let ctx = TraceContext::root(collector.head_roll());
        OwnedSpan::open(collector, name, ctx)
    }

    /// Opens a child of an explicit parent context (e.g. one recovered from
    /// an inbound `x-cpms-trace` header, or another span's `context()`).
    #[must_use]
    pub fn child_of(
        collector: Arc<SpanCollector>,
        parent: TraceContext,
        name: &'static str,
    ) -> OwnedSpan {
        if !collector.is_enabled() {
            return OwnedSpan {
                collector,
                live: None,
            };
        }
        OwnedSpan::open(collector, name, parent.child())
    }

    /// The span's own context, for parenting children or stamping onto the
    /// wire (`None` when the collector was disabled at open).
    #[must_use]
    pub fn context(&self) -> Option<TraceContext> {
        self.live.as_ref().map(|open| open.ctx)
    }

    /// Replaces the span's detail text.
    pub fn set_detail(&mut self, detail: impl Into<String>) {
        if let Some(open) = self.live.as_mut() {
            open.detail = detail.into();
        }
    }

    /// Sets the detail text from `detail` if the span has none yet and
    /// will be recorded; see [`TracedSpan::fill_detail`].
    pub fn fill_detail(&mut self, detail: impl FnOnce() -> String) {
        if let Some(open) = self.live.as_mut() {
            open.fill_detail(detail);
        }
    }

    /// Marks the span failed (error spans always survive sampling).
    pub fn set_error(&mut self, error: bool) {
        if let Some(open) = self.live.as_mut() {
            open.error = error;
        }
    }

    /// Closes the span now instead of at drop.
    pub fn finish(self) {}
}

impl Drop for OwnedSpan {
    fn drop(&mut self) {
        if let Some(open) = self.live.take() {
            open.record_into(&self.collector);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_binary_round_trip() {
        let root = TraceContext::root(true);
        let child = root.child();
        for ctx in [root, child] {
            let back = TraceContext::from_bytes(&ctx.to_bytes()).expect("valid bytes");
            assert_eq!(back, ctx);
        }
        assert_eq!(child.trace, root.trace);
        assert_eq!(child.parent, Some(root.span));
        assert!(child.sampled);
    }

    #[test]
    fn invalid_contexts_degrade_to_none() {
        assert_eq!(TraceContext::from_bytes(&[0u8; CONTEXT_WIRE_LEN]), None);
        assert_eq!(TraceContext::from_bytes(&[1u8; 7]), None);
        let mut zero_span = TraceContext::root(true).to_bytes();
        zero_span[16..24].copy_from_slice(&[0u8; 8]);
        assert_eq!(TraceContext::from_bytes(&zero_span), None);
    }

    #[test]
    fn header_round_trip_and_rejection() {
        let ctx = TraceContext::root(false).child();
        let header = ctx.to_header();
        assert_eq!(
            header,
            format!(
                "{:032x}-{:016x}-{:016x}-{:02x}",
                ctx.trace.0,
                ctx.span.0,
                ctx.parent.map_or(0, |p| p.0),
                0
            )
        );
        assert_eq!(TraceContext::from_header(&header), Some(ctx));
        assert_eq!(TraceContext::from_header("nonsense"), None);
        assert_eq!(TraceContext::from_header(""), None);
        let all_zero = format!("{:032x}-{:016x}-{:016x}-00", 0u128, 0u64, 0u64);
        assert_eq!(TraceContext::from_header(&all_zero), None);
    }

    #[test]
    fn scoped_activation_nests_and_restores() {
        assert_eq!(TraceContext::current(), None);
        let outer = TraceContext::root(true);
        {
            let _a = ScopedTrace::activate(outer);
            assert_eq!(TraceContext::current(), Some(outer));
            let inner = outer.child();
            {
                let _b = ScopedTrace::activate(inner);
                assert_eq!(TraceContext::current(), Some(inner));
            }
            assert_eq!(TraceContext::current(), Some(outer));
            {
                let _c = ScopedTrace::clear();
                assert_eq!(TraceContext::current(), None);
            }
            assert_eq!(TraceContext::current(), Some(outer));
        }
        assert_eq!(TraceContext::current(), None);
    }

    #[test]
    fn traced_spans_build_a_tree_in_the_collector() {
        let collector = SpanCollector::new(64);
        collector.set_process("test");
        let root_ctx;
        {
            let mut root = TracedSpan::enter(&collector, "proxy.request");
            root.set_detail("/index.html");
            root_ctx = root.context().expect("enabled");
            {
                let _child = TracedSpan::enter(&collector, "proxy.relay");
            }
        }
        let spans = collector.spans_of(root_ctx.trace);
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "proxy.request").unwrap();
        let child = spans.iter().find(|s| s.name == "proxy.relay").unwrap();
        assert_eq!(root.parent, None);
        assert_eq!(child.parent, Some(root.span));
        assert_eq!(root.detail, "/index.html");
        let json = collector.to_json();
        assert!(json.contains("\"process\":\"test\""));
        assert!(json.contains("proxy.relay"));
        assert!(json.contains("\"scrape_seq\":0"), "{json}");
        assert!(json.contains("\"uptime_micros\":"), "{json}");
        assert!(
            collector.to_json().contains("\"scrape_seq\":1"),
            "render seq advances"
        );
    }

    #[test]
    fn owned_spans_build_the_same_tree_without_thread_locals() {
        let collector = Arc::new(SpanCollector::new(64));
        collector.set_head_sample_one_in(1);
        let mut root = OwnedSpan::root_head_sampled(Arc::clone(&collector), "proxy.request");
        root.set_detail("/index.html");
        let root_ctx = root.context().expect("enabled");
        assert!(
            TraceContext::current().is_none(),
            "owned spans never touch the ambient thread-local"
        );
        let child = OwnedSpan::child_of(Arc::clone(&collector), root_ctx, "proxy.relay");
        let child_ctx = child.context().expect("enabled");
        assert_eq!(child_ctx.trace, root_ctx.trace);
        assert_eq!(child_ctx.parent, Some(root_ctx.span));
        child.finish();
        drop(root);

        let spans = collector.spans_of(root_ctx.trace);
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "proxy.request").unwrap();
        let relay = spans.iter().find(|s| s.name == "proxy.relay").unwrap();
        assert_eq!(root.parent, None);
        assert_eq!(relay.parent, Some(root.span));
        assert_eq!(root.detail, "/index.html");
    }

    #[test]
    fn owned_spans_respect_sampling_but_always_keep_errors() {
        let collector = Arc::new(SpanCollector::new(64));
        // Roll 1: sampled (counter starts at zero). Roll 2+: not sampled.
        collector.set_head_sample_one_in(1_000_000);
        let first = OwnedSpan::root_head_sampled(Arc::clone(&collector), "r");
        assert!(first.context().expect("enabled").sampled);
        drop(first);
        let quiet = OwnedSpan::root_head_sampled(Arc::clone(&collector), "r");
        let quiet_ctx = quiet.context().expect("enabled");
        assert!(!quiet_ctx.sampled);
        drop(quiet);
        assert!(collector.spans_of(quiet_ctx.trace).is_empty());

        let mut failed = OwnedSpan::root_head_sampled(Arc::clone(&collector), "r");
        let failed_ctx = failed.context().expect("enabled");
        assert!(!failed_ctx.sampled);
        failed.set_error(true);
        drop(failed);
        assert_eq!(collector.spans_of(failed_ctx.trace).len(), 1);

        let disabled = Arc::new(SpanCollector::new(64));
        disabled.set_enabled(false);
        let inert = OwnedSpan::root_head_sampled(Arc::clone(&disabled), "r");
        assert_eq!(inert.context(), None);
    }

    /// Detail text is built only for a span that will be recorded, and
    /// never over one already set; a recorded span's start is its open.
    #[test]
    fn details_are_built_only_for_recorded_spans() {
        let collector = Arc::new(SpanCollector::new(64));
        let unsampled = TraceContext::root(false);
        let mut quiet = OwnedSpan::child_of(Arc::clone(&collector), unsampled, "quiet");
        quiet.fill_detail(|| unreachable!("an unsampled, unfailed span formats nothing"));
        drop(quiet);
        assert!(collector.snapshot().is_empty());

        let before = unix_micros_now();
        let mut failed = OwnedSpan::child_of(Arc::clone(&collector), unsampled, "failed");
        failed.set_error(true);
        failed.fill_detail(|| "node=2".to_string());
        failed.fill_detail(|| unreachable!("a detail is filled once"));
        drop(failed);
        let sampled = TraceContext::root(true);
        {
            let _scope = ScopedTrace::activate(sampled);
            let mut span = TracedSpan::enter(&collector, "traced");
            span.set_detail("explicit");
            span.fill_detail(|| unreachable!("an explicit detail stands"));
        }
        let kept = collector.snapshot();
        let failed = kept.iter().find(|r| r.name == "failed").unwrap();
        assert_eq!(failed.detail, "node=2");
        let start = failed.start_unix_micros;
        assert!(start >= before && start <= unix_micros_now(), "{start}");
        let traced = kept.iter().find(|r| r.name == "traced").unwrap();
        assert_eq!(traced.detail, "explicit");
    }

    #[test]
    fn disabled_collector_records_nothing_and_sets_no_context() {
        let collector = SpanCollector::new(64);
        collector.set_enabled(false);
        {
            let span = TracedSpan::enter(&collector, "noop");
            assert_eq!(span.context(), None);
            assert_eq!(TraceContext::current(), None);
        }
        assert!(collector.snapshot().is_empty());
        assert_eq!(collector.recorded_total(), 0);
    }

    #[test]
    fn tail_sampling_keeps_errors_and_slow_spans() {
        let collector = SpanCollector::new(8);
        let make = |duration_ns: u64, error: bool| SpanRecord {
            trace: TraceId(u128::from(duration_ns) + 1),
            span: SpanId(duration_ns + 1),
            parent: None,
            name: "x".to_string(),
            detail: String::new(),
            start_unix_micros: 0,
            duration_ns,
            error,
        };
        // Overfill with fast spans, then add one slow and one error span.
        for i in 0..200 {
            collector.record(make(10 + i, false));
        }
        collector.record(make(1_000_000, false));
        collector.record(make(5, true));
        let kept = collector.snapshot();
        assert!(
            kept.iter().any(|r| r.duration_ns == 1_000_000),
            "slowest kept"
        );
        assert!(
            kept.iter().any(|r| r.error),
            "error span kept despite being fastest"
        );
        assert!(collector.dropped_total() > 0);
        assert!(kept.len() <= 8 * 2, "bounded (shard rounding tolerated)");
    }

    #[test]
    fn head_sampling_keeps_one_root_in_n() {
        let collector = SpanCollector::new(256);
        collector.set_head_sample_one_in(4);
        for _ in 0..16 {
            let _span = TracedSpan::enter_head_sampled(&collector, "proxy.request");
        }
        assert_eq!(collector.snapshot().len(), 4, "one in four roots kept");
        // The very first roll always samples, so single-request flows
        // (tests, quiet clusters) still produce a trace.
        let fresh = SpanCollector::new(256);
        fresh.set_head_sample_one_in(1000);
        {
            let span = TracedSpan::enter_head_sampled(&fresh, "proxy.request");
            assert!(span.context().expect("enabled").sampled);
        }
        assert_eq!(fresh.snapshot().len(), 1);
        // Inherited contexts bypass the roll entirely: the caller's
        // decision wins, sampled or not.
        let inherited = TraceContext::root(true);
        {
            let _scope = ScopedTrace::activate(inherited);
            let span = TracedSpan::enter_head_sampled(&fresh, "proxy.request");
            assert_eq!(span.context().map(|c| c.trace), Some(inherited.trace));
        }
        assert_eq!(fresh.snapshot().len(), 2);
    }

    #[test]
    fn unsampled_spans_are_recorded_only_on_error() {
        let collector = SpanCollector::new(64);
        let unsampled = TraceContext::root(false);
        {
            let _scope = ScopedTrace::activate(unsampled);
            {
                let _quiet = TracedSpan::enter(&collector, "quiet");
            }
            {
                let mut noisy = TracedSpan::enter(&collector, "noisy");
                noisy.set_error(true);
            }
        }
        let kept = collector.snapshot();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].name, "noisy");
        assert!(kept[0].error);
    }
}
