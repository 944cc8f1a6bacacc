//! # cpms-obs
//!
//! End-to-end observability for the CPMS runtime: a dependency-free
//! metrics registry ([`MetricsRegistry`]) of named counters, gauges, and
//! sharded log-scale latency histograms ([`Histogram`]), RAII span
//! timers and a bounded post-mortem event log ([`trace`]), and exporters
//! rendering a registry snapshot as JSON, Prometheus text, or a console
//! report ([`export`]).
//!
//! The design constraint is the same one that shaped PR 1's snapshot
//! URL table: **nothing on the request path may take a lock**. Counters
//! and gauges are single relaxed atomics; histograms are per-worker
//! shards (a record is a handful of relaxed atomics on a private cache
//! line) folded only when a snapshot is taken. The §5.2 measurements the
//! paper reports — per-lookup latency and URL-table memory — become a
//! histogram and a gauge in this registry, so every future PR can check
//! them release-over-release.
//!
//! # Example
//!
//! ```
//! use cpms_obs::{MetricsRegistry, Span};
//!
//! let registry = MetricsRegistry::new();
//! let requests = registry.counter("proxy_requests_total");
//! let latency = registry.histogram("proxy_request_ns").recorder(0);
//!
//! // per-request hot path: atomics only
//! requests.inc();
//! {
//!     let _span = Span::enter("request", &latency); // records on drop
//! }
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("proxy_requests_total"), Some(1));
//! assert_eq!(snap.histogram("proxy_request_ns").unwrap().count, 1);
//! println!("{}", snap.to_prometheus());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod hist;
pub mod registry;
pub mod series;
pub mod slo;
pub mod spans;
pub mod trace;

pub use hist::{Histogram, HistogramRecorder, HistogramSummary};
pub use registry::{Counter, Gauge, MetricsRegistry, RegistrySnapshot};
pub use series::{
    Sampler, SeriesPoint, SeriesRecorder, DEFAULT_MAX_SERIES, DEFAULT_RECORD_INTERVAL,
    DEFAULT_SERIES_CAPACITY,
};
pub use slo::{SloRule, SloVerdict, SloWatchdog};
pub use spans::{
    splitmix64, OwnedSpan, ScopedTrace, SpanCollector, SpanId, SpanRecord, TraceContext, TraceId,
    TracedSpan, CONTEXT_WIRE_LEN,
};
pub use trace::{Event, EventLog, RequestId, Span};
