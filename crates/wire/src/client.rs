//! The [`Client`]: retry policy, typed calls, and wire-level metrics on
//! top of a raw [`Transport`].
//!
//! A transport carries exactly one request/response exchange; the client
//! is where *policy* lives: how long one call may take (deadline), how
//! many attempts a retryable failure earns, how attempts are spaced
//! (exponential backoff with deterministic jitter), and how every
//! exchange is observed (per-RPC latency histogram, retry/timeout/error
//! counters, on-the-wire byte counters) in a shared
//! [`MetricsRegistry`].

use crate::error::WireError;
use crate::frame::HEADER_LEN;
use crate::transport::Transport;
use cpms_obs::{Counter, Gauge, HistogramRecorder, MetricsRegistry, SpanCollector, TracedSpan};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How attempts of one RPC are spaced.
///
/// The first attempt runs immediately; each retryable failure earns the
/// next attempt after an exponentially growing backoff with deterministic
/// jitter (seeded, so tests reproduce exactly).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts allowed, including the first. 1 disables retry.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a factor
    /// drawn uniformly from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Seed for the jitter stream (deterministic per client).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(500),
            jitter: 0.5,
            seed: 0xC95E_ED01,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (heartbeats: the next beat supersedes
    /// a lost one, so retrying a stale beat is worse than useless).
    #[must_use]
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// Point-in-time counters for one client (see [`Client::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// RPCs issued (counting each call once, however many attempts).
    pub calls: u64,
    /// Retried attempts (attempts beyond each call's first).
    pub retries: u64,
    /// Attempts that ended in a deadline expiry.
    pub timeouts: u64,
    /// Calls that ultimately failed after exhausting policy.
    pub failures: u64,
    /// Round-trip time of the most recent successful call, in ns.
    pub last_rtt_ns: u64,
    /// Bytes written to the wire (framed request sizes).
    pub tx_bytes: u64,
    /// Bytes read from the wire (framed response sizes).
    pub rx_bytes: u64,
    /// Transport reconnections observed so far.
    pub reconnects: u64,
}

/// Metric handles wire activity is recorded through. Swappable at
/// runtime so a client created at cluster-start can later be folded into
/// the process-wide single-system-image registry.
#[derive(Debug)]
struct WireMetrics {
    rpcs: Arc<Counter>,
    errors: Arc<Counter>,
    retries: Arc<Counter>,
    timeouts: Arc<Counter>,
    tx_bytes: Arc<Counter>,
    rx_bytes: Arc<Counter>,
    reconnects: Arc<Gauge>,
    rpc_ns: HistogramRecorder,
    // Span recording is opt-in: only attached registries trace, so the
    // throwaway default registry never accumulates span memory.
    spans: Option<Arc<SpanCollector>>,
}

impl WireMetrics {
    fn new(registry: &Arc<MetricsRegistry>) -> Self {
        WireMetrics {
            rpcs: registry.counter("wire_rpc_total"),
            errors: registry.counter("wire_rpc_errors_total"),
            retries: registry.counter("wire_retries_total"),
            timeouts: registry.counter("wire_timeouts_total"),
            tx_bytes: registry.counter("wire_tx_bytes_total"),
            rx_bytes: registry.counter("wire_rx_bytes_total"),
            reconnects: registry.gauge("wire_reconnects"),
            rpc_ns: registry.histogram_with_shards("wire_rpc_ns", 1).recorder(0),
            spans: None,
        }
    }
}

/// Builds the payload `head ++ 0x00 ++ tail` — a serialized message with
/// raw bytes riding behind it. An empty `tail` adds nothing, so a message
/// without one is the bare JSON it always was.
///
/// The split is unambiguous because the JSON writer escapes every control
/// character: no serialized head contains a `0x00`, so the first one in a
/// payload can only be the separator. The tail may hold any bytes,
/// `0x00` and invalid UTF-8 included. The frame checksum covers the whole
/// payload, head and tail alike.
#[must_use]
pub fn with_tail(head: String, tail: &[u8]) -> Vec<u8> {
    let mut payload = head.into_bytes();
    if !tail.is_empty() {
        payload.reserve_exact(1 + tail.len());
        payload.push(0);
        payload.extend_from_slice(tail);
    }
    payload
}

/// Splits a payload at its first `0x00` into `(head, tail)`, both
/// borrowed; the tail is empty when the payload carries none. The
/// inverse of [`with_tail`]. A receiver that does not split hands the
/// whole payload to its JSON decoder, which refuses the `0x00` — a typed
/// error, never a misread byte.
#[must_use]
pub fn split_tail(payload: &[u8]) -> (&[u8], &[u8]) {
    match payload.iter().position(|&b| b == 0) {
        Some(at) => (&payload[..at], &payload[at + 1..]),
        None => (payload, &[]),
    }
}

/// A retrying, observable RPC client over any [`Transport`].
#[derive(Debug)]
pub struct Client {
    transport: Arc<dyn Transport>,
    deadline: Duration,
    retry: RetryPolicy,
    metrics: Mutex<WireMetrics>,
    jitter_state: AtomicU64,
    calls: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    failures: AtomicU64,
    last_rtt_ns: AtomicU64,
    tx_bytes: AtomicU64,
    rx_bytes: AtomicU64,
}

impl Client {
    /// A client over `transport` with a 2-second per-call deadline and the
    /// default retry policy.
    #[must_use]
    pub fn new(transport: Arc<dyn Transport>) -> Self {
        let retry = RetryPolicy::default();
        Client {
            jitter_state: AtomicU64::new(retry.seed),
            transport,
            deadline: Duration::from_secs(2),
            retry,
            metrics: Mutex::new(WireMetrics::new(&Arc::new(MetricsRegistry::new()))),
            calls: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            last_rtt_ns: AtomicU64::new(0),
            tx_bytes: AtomicU64::new(0),
            rx_bytes: AtomicU64::new(0),
        }
    }

    /// Sets the per-call deadline (spanning all attempts of a single
    /// transport exchange, not the whole retry sequence).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.jitter_state.store(retry.seed, Ordering::Relaxed);
        self.retry = retry;
        self
    }

    /// The per-call deadline.
    #[must_use]
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// The transport's short label (`"inproc"`, `"tcp"`, `"faulty"`).
    #[must_use]
    pub fn transport_kind(&self) -> &'static str {
        self.transport.kind()
    }

    /// Redirects this client's wire metrics into `registry` — the
    /// single-system-image wiring that puts per-RPC latency histograms
    /// and retry/timeout/byte counters on the same surface as the
    /// request path and the management plane.
    pub fn attach_metrics(&self, registry: &Arc<MetricsRegistry>) {
        let mut metrics = WireMetrics::new(registry);
        metrics.spans = Some(Arc::clone(registry.spans()));
        *self.metrics.lock().expect("wire metrics lock") = metrics;
    }

    /// Point-in-time counters for this client.
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            calls: self.calls.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            last_rtt_ns: self.last_rtt_ns.load(Ordering::Relaxed),
            tx_bytes: self.tx_bytes.load(Ordering::Relaxed),
            rx_bytes: self.rx_bytes.load(Ordering::Relaxed),
            reconnects: self.transport.reconnects(),
        }
    }

    /// One RPC: serialize `request`, exchange raw payloads under the
    /// deadline + retry policy, deserialize the response.
    ///
    /// # Errors
    ///
    /// [`WireError::Codec`] on (de)serialization failure (never retried);
    /// otherwise the transport's failure, wrapped in
    /// [`WireError::Exhausted`] when more than one attempt was made.
    pub fn call<Req, Resp>(&self, request: &Req) -> Result<Resp, WireError>
    where
        Req: Serialize,
        Resp: Deserialize,
    {
        self.call_tail(request, &[])
            .map(|(response, _tail)| response)
    }

    /// [`Client::call`] with raw bytes riding behind the typed messages:
    /// `tail` is appended to the serialized request (see [`with_tail`]),
    /// and whatever tail the response carries comes back beside the
    /// decoded reply (empty when it carries none). This is how bulk
    /// bytes cross the wire without being spelled as JSON text.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn call_tail<Req, Resp>(
        &self,
        request: &Req,
        tail: &[u8],
    ) -> Result<(Resp, Vec<u8>), WireError>
    where
        Req: Serialize,
        Resp: Deserialize,
    {
        let head = serde_json::to_string(request).map_err(|e| WireError::Codec {
            detail: format!("encode request: {e}"),
        })?;
        let mut response = self.call_raw(&with_tail(head, tail))?;
        let (head, tail) = split_tail(&response);
        let text = std::str::from_utf8(head).map_err(|e| WireError::Codec {
            detail: format!("response is not UTF-8: {e}"),
        })?;
        let reply = serde_json::from_str(text).map_err(|e| WireError::Codec {
            detail: format!("decode response: {e}"),
        })?;
        let tail_at = response.len() - tail.len();
        response.drain(..tail_at);
        Ok((reply, response))
    }

    /// One raw-payload RPC under the deadline + retry policy, with every
    /// attempt observed.
    ///
    /// # Errors
    ///
    /// The last attempt's [`WireError`], wrapped in
    /// [`WireError::Exhausted`] when more than one attempt was made.
    pub fn call_raw(&self, payload: &[u8]) -> Result<Vec<u8>, WireError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        // One *logical* span per RPC, however many attempts it takes:
        // retries hang per-attempt child spans under it instead of
        // double-counting. Frames carry the attempt's context, so
        // server-side spans parent to the attempt that reached them.
        let collector = self
            .metrics
            .lock()
            .expect("wire metrics lock")
            .spans
            .clone();
        let mut logical = collector
            .as_deref()
            .map(|c| TracedSpan::enter(c, "wire.call"));
        let mut attempt: u32 = 0;
        let mut backoff = self.retry.base_backoff;
        loop {
            attempt += 1;
            let start = Instant::now();
            let result = {
                let mut attempt_span = collector
                    .as_deref()
                    .map(|c| TracedSpan::enter(c, "wire.attempt"));
                let result = self.transport.call(payload, self.deadline);
                if let Some(span) = attempt_span.as_mut() {
                    span.set_error(result.is_err());
                    if let Err(e) = &result {
                        span.set_detail(e.to_string());
                    }
                }
                result
            };
            let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let framed_tx = (HEADER_LEN + payload.len()) as u64;
            {
                let metrics = self.metrics.lock().expect("wire metrics lock");
                metrics.rpcs.inc();
                metrics.rpc_ns.record(elapsed_ns);
                metrics.tx_bytes.add(framed_tx);
                metrics
                    .reconnects
                    .set(i64::try_from(self.transport.reconnects()).unwrap_or(i64::MAX));
                match &result {
                    Ok(response) => {
                        metrics.rx_bytes.add((HEADER_LEN + response.len()) as u64);
                    }
                    Err(e) => {
                        metrics.errors.inc();
                        if matches!(e, WireError::Timeout { .. }) {
                            metrics.timeouts.inc();
                        }
                    }
                }
            }
            self.tx_bytes.fetch_add(framed_tx, Ordering::Relaxed);
            match result {
                Ok(response) => {
                    self.last_rtt_ns.store(elapsed_ns, Ordering::Relaxed);
                    self.rx_bytes
                        .fetch_add((HEADER_LEN + response.len()) as u64, Ordering::Relaxed);
                    if let Some(span) = logical.as_mut() {
                        span.set_detail(format!("attempts={attempt}"));
                    }
                    return Ok(response);
                }
                Err(e) => {
                    if matches!(e, WireError::Timeout { .. }) {
                        self.timeouts.fetch_add(1, Ordering::Relaxed);
                    }
                    if !e.is_retryable() || attempt >= self.retry.max_attempts {
                        self.failures.fetch_add(1, Ordering::Relaxed);
                        if let Some(span) = logical.as_mut() {
                            span.set_error(true);
                            span.set_detail(format!("attempts={attempt} last={e}"));
                        }
                        return Err(if attempt > 1 {
                            WireError::Exhausted {
                                attempts: attempt,
                                last: Box::new(e),
                            }
                        } else {
                            e
                        });
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.metrics
                        .lock()
                        .expect("wire metrics lock")
                        .retries
                        .inc();
                    std::thread::sleep(self.jittered(backoff));
                    backoff = (backoff * 2).min(self.retry.max_backoff);
                }
            }
        }
    }

    /// Scales `backoff` by a deterministic jitter factor in
    /// `[1 - jitter, 1 + jitter]`.
    fn jittered(&self, backoff: Duration) -> Duration {
        if self.retry.jitter <= 0.0 {
            return backoff;
        }
        let unit = crate::splitmix_unit(&self.jitter_state);
        let factor = 1.0 + self.retry.jitter * (2.0 * unit - 1.0);
        backoff.mul_f64(factor.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcServer;
    use std::sync::atomic::AtomicU32;

    #[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
    struct Ping {
        n: u64,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
    struct Pong {
        n: u64,
        doubled: u64,
    }

    fn ping_service() -> impl crate::transport::Service {
        |req: &[u8]| {
            let ping: Ping = serde_json::from_str(std::str::from_utf8(req).unwrap()).unwrap();
            serde_json::to_string(&Pong {
                n: ping.n,
                doubled: ping.n * 2,
            })
            .unwrap()
            .into_bytes()
        }
    }

    #[test]
    fn typed_round_trip_with_stats() {
        let (transport, mut server) = InProcServer::spawn(ping_service());
        let client = Client::new(Arc::new(transport));
        for n in 0..5u64 {
            let pong: Pong = client.call(&Ping { n }).unwrap();
            assert_eq!(pong, Pong { n, doubled: n * 2 });
        }
        let stats = client.stats();
        assert_eq!(stats.calls, 5);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.failures, 0);
        assert!(stats.last_rtt_ns > 0);
        assert!(stats.tx_bytes > 5 * HEADER_LEN as u64);
        assert!(stats.rx_bytes > 5 * HEADER_LEN as u64);
        server.stop();
    }

    #[test]
    fn metrics_land_in_attached_registry() {
        let (transport, mut server) = InProcServer::spawn(ping_service());
        let client = Client::new(Arc::new(transport));
        let registry = Arc::new(MetricsRegistry::new());
        client.attach_metrics(&registry);
        for n in 0..3u64 {
            let _: Pong = client.call(&Ping { n }).unwrap();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("wire_rpc_total"), Some(3));
        assert_eq!(snap.counter("wire_rpc_errors_total"), Some(0));
        let hist = snap.histogram("wire_rpc_ns").unwrap();
        assert_eq!(hist.count, 3);
        assert!(hist.max > 0);
        assert!(snap.counter("wire_tx_bytes_total").unwrap() > 0);
        server.stop();
    }

    /// A transport whose first `fail` calls lose the connection, after
    /// which it answers — a deterministic transient failure.
    #[derive(Debug)]
    struct Flaky {
        remaining_failures: AtomicU32,
    }

    impl Transport for Flaky {
        fn call(&self, request: &[u8], _deadline: Duration) -> Result<Vec<u8>, WireError> {
            let before = self.remaining_failures.load(Ordering::SeqCst);
            if before > 0 {
                self.remaining_failures.store(before - 1, Ordering::SeqCst);
                return Err(WireError::Closed);
            }
            Ok(request.to_vec())
        }

        fn kind(&self) -> &'static str {
            "flaky"
        }
    }

    #[test]
    fn retry_recovers_from_transient_failures() {
        let client = Client::new(Arc::new(Flaky {
            remaining_failures: AtomicU32::new(2),
        }))
        .with_retry(RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            jitter: 0.5,
            seed: 7,
        });
        let response = client.call_raw(b"hello").unwrap();
        assert_eq!(response, b"hello");
        let stats = client.stats();
        assert_eq!(stats.calls, 1);
        assert_eq!(stats.retries, 2, "{stats:?}");
        assert_eq!(stats.failures, 0);
    }

    #[test]
    fn exhaustion_is_typed_and_counted() {
        let (transport, mut server) = InProcServer::spawn(|req: &[u8]| {
            std::thread::sleep(Duration::from_millis(50));
            req.to_vec()
        });
        let registry = Arc::new(MetricsRegistry::new());
        let client = Client::new(Arc::new(transport))
            .with_deadline(Duration::from_millis(5))
            .with_retry(RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                jitter: 0.0,
                seed: 1,
            });
        client.attach_metrics(&registry);
        let err = client.call_raw(b"x").unwrap_err();
        match &err {
            WireError::Exhausted { attempts: 3, last } => {
                assert!(matches!(**last, WireError::Timeout { .. }));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(err.root(), WireError::Timeout { .. }));
        let stats = client.stats();
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.retries, 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("wire_retries_total"), Some(2));
        assert_eq!(snap.counter("wire_timeouts_total"), Some(3));
        assert_eq!(snap.counter("wire_rpc_errors_total"), Some(3));
        server.stop();
    }

    #[test]
    fn retried_rpc_is_one_logical_span_with_attempt_children() {
        let registry = Arc::new(MetricsRegistry::new());
        let client = Client::new(Arc::new(Flaky {
            remaining_failures: AtomicU32::new(2),
        }))
        .with_retry(RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            jitter: 0.0,
            seed: 3,
        });
        client.attach_metrics(&registry);
        client.call_raw(b"one rpc").unwrap();
        let spans = registry.spans().snapshot();
        let calls: Vec<_> = spans.iter().filter(|s| s.name == "wire.call").collect();
        let attempts: Vec<_> = spans.iter().filter(|s| s.name == "wire.attempt").collect();
        assert_eq!(
            calls.len(),
            1,
            "one logical span despite retries: {spans:?}"
        );
        assert_eq!(attempts.len(), 3, "each attempt is a child span");
        for a in &attempts {
            assert_eq!(a.parent, Some(calls[0].span), "attempts parent to the call");
            assert_eq!(a.trace, calls[0].trace);
        }
        assert_eq!(
            attempts.iter().filter(|a| a.error).count(),
            2,
            "the two failed attempts are marked"
        );
        assert!(!calls[0].error, "the RPC succeeded overall");
    }

    #[test]
    fn codec_failures_are_not_retried() {
        let (transport, mut server) = InProcServer::spawn(|_req: &[u8]| b"not json".to_vec());
        let client = Client::new(Arc::new(transport));
        let err = client.call::<Ping, Pong>(&Ping { n: 1 }).unwrap_err();
        assert!(matches!(err, WireError::Codec { .. }), "{err:?}");
        assert_eq!(client.stats().retries, 0);
        server.stop();
    }

    /// Bytes no JSON string could hold unescaped: the separator's own
    /// value, a lone continuation byte, an overlong lead byte.
    const HOSTILE_TAIL: &[u8] = &[0x00, 0x00, b'{', 0xFF, 0x80, 0xC0, b'"', 0x00];

    #[test]
    fn tail_rides_behind_both_typed_messages() {
        // A tail-aware service: decodes the head, answers the tail reversed.
        let (transport, mut server) = InProcServer::spawn(|req: &[u8]| {
            let (head, tail) = split_tail(req);
            let ping: Ping = serde_json::from_str(std::str::from_utf8(head).unwrap()).unwrap();
            let reversed: Vec<u8> = tail.iter().rev().copied().collect();
            with_tail(
                serde_json::to_string(&Pong {
                    n: ping.n,
                    doubled: ping.n * 2,
                })
                .unwrap(),
                &reversed,
            )
        });
        let client = Client::new(Arc::new(transport));
        let (pong, tail): (Pong, Vec<u8>) =
            client.call_tail(&Ping { n: 21 }, HOSTILE_TAIL).unwrap();
        assert_eq!(pong, Pong { n: 21, doubled: 42 });
        let expected: Vec<u8> = HOSTILE_TAIL.iter().rev().copied().collect();
        assert_eq!(tail, expected);
        // The tail costs its own length plus the separator, nothing more.
        let head_len = serde_json::to_string(&Ping { n: 21 }).unwrap().len();
        assert_eq!(
            client.stats().tx_bytes,
            (HEADER_LEN + head_len + 1 + HOSTILE_TAIL.len()) as u64
        );
        // No tail either way is the plain typed call.
        let (pong, tail): (Pong, Vec<u8>) = client.call_tail(&Ping { n: 1 }, &[]).unwrap();
        assert_eq!((pong.doubled, tail), (2, Vec::new()));
        server.stop();
    }

    #[test]
    fn split_never_panics_on_hostile_payloads() {
        assert_eq!(split_tail(&[]), (&[][..], &[][..]));
        assert_eq!(split_tail(&[0]), (&[][..], &[][..]));
        assert_eq!(split_tail(b"\0tail"), (&[][..], &b"tail"[..]), "head-less");
        assert_eq!(split_tail(b"{}"), (&b"{}"[..], &[][..]));
        assert_eq!(split_tail(b"{}\0"), (&b"{}"[..], &[][..]));
        assert_eq!(with_tail("{}".to_string(), &[]), b"{}");
        // A full frame of zeros splits into borrowed halves: nothing is
        // allocated for it, whatever its size.
        let zeros = vec![0u8; usize::try_from(crate::frame::MAX_FRAME).unwrap()];
        let (head, tail) = split_tail(&zeros);
        assert_eq!((head.len(), tail.len()), (0, zeros.len() - 1));
    }

    #[test]
    fn frame_checksum_covers_the_tail() {
        let payload = with_tail("{\"n\":1}".to_string(), HOSTILE_TAIL);
        let mut frame = crate::frame::encode_frame(&payload);
        assert_eq!(
            crate::frame::read_frame(&mut &frame[..]).unwrap(),
            payload,
            "the frame carries head and tail verbatim"
        );
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        let err = crate::frame::read_frame(&mut &frame[..]).unwrap_err();
        assert!(matches!(err, WireError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let (t1, mut s1) = InProcServer::spawn(|req: &[u8]| req.to_vec());
        let (t2, mut s2) = InProcServer::spawn(|req: &[u8]| req.to_vec());
        let policy = RetryPolicy {
            seed: 42,
            ..RetryPolicy::default()
        };
        let a = Client::new(Arc::new(t1)).with_retry(policy.clone());
        let b = Client::new(Arc::new(t2)).with_retry(policy);
        let backoff = Duration::from_millis(100);
        for _ in 0..8 {
            assert_eq!(a.jittered(backoff), b.jittered(backoff));
        }
        s1.stop();
        s2.stop();
    }
}
