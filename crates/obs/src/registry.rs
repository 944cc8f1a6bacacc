//! The metrics registry: named counters, gauges, and histograms with a
//! coherent point-in-time snapshot.
//!
//! Handles are `Arc`s resolved once (get-or-create under a short mutex)
//! and cached by the instrumented component; after that every update is
//! plain atomics. The registry mutex is therefore never on a request
//! path — it guards only name resolution and snapshotting.

use crate::hist::{Histogram, HistogramSummary};
use crate::series::SeriesRecorder;
use crate::slo::SloWatchdog;
use crate::spans::SpanCollector;
use crate::trace::{Event, EventLog, RequestId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (resident bytes, in-flight
/// requests, current generation).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via `sub`).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default shard count for histograms created without an explicit one —
/// enough that a typical worker pool records contention-free.
pub const DEFAULT_HISTOGRAM_SHARDS: usize = 8;

/// Default bounded capacity of the registry's event log.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

#[derive(Debug, Default)]
struct Families {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// The process-wide (or component-wide) metrics registry.
#[derive(Debug)]
pub struct MetricsRegistry {
    families: Mutex<Families>,
    events: EventLog,
    spans: Arc<SpanCollector>,
    next_request: AtomicU64,
    series: Mutex<Option<Arc<SeriesRecorder>>>,
    watchdog: Mutex<Option<Arc<SloWatchdog>>>,
    started: Instant,
    scrape_seq: AtomicU64,
}

impl MetricsRegistry {
    /// An empty registry with the default event-log capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An empty registry retaining at most `events` post-mortem events.
    #[must_use]
    pub fn with_event_capacity(events: usize) -> Self {
        MetricsRegistry {
            families: Mutex::new(Families::default()),
            events: EventLog::new(events),
            spans: Arc::new(SpanCollector::default()),
            next_request: AtomicU64::new(0),
            series: Mutex::new(None),
            watchdog: Mutex::new(None),
            started: Instant::now(),
            scrape_seq: AtomicU64::new(0),
        }
    }

    /// Get-or-create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut fam = self.families.lock().expect("registry lock");
        Arc::clone(
            fam.counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::default())),
        )
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut fam = self.families.lock().expect("registry lock");
        Arc::clone(
            fam.gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::default())),
        )
    }

    /// Get-or-create the histogram `name` with the default shard count.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with_shards(name, DEFAULT_HISTOGRAM_SHARDS)
    }

    /// Get-or-create the histogram `name`; `shards` applies only on
    /// creation (an existing histogram keeps its shard count).
    pub fn histogram_with_shards(&self, name: &str, shards: usize) -> Arc<Histogram> {
        let mut fam = self.families.lock().expect("registry lock");
        Arc::clone(
            fam.histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(shards))),
        )
    }

    /// The post-mortem event log.
    #[must_use]
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// The process-local distributed-span collector (the
    /// `/_cpms/trace.json` surface).
    #[must_use]
    pub fn spans(&self) -> &Arc<SpanCollector> {
        &self.spans
    }

    /// Allocates the next request id for pipeline tracing.
    #[must_use]
    pub fn next_request_id(&self) -> RequestId {
        RequestId(self.next_request.fetch_add(1, Ordering::Relaxed))
    }

    /// Installs `recorder` as this registry's flight recorder (the
    /// `/_cpms/series.json` surface; fed by [`crate::series::Sampler`]).
    pub fn set_series(&self, recorder: Arc<SeriesRecorder>) {
        *self.series.lock().expect("series slot lock") = Some(recorder);
    }

    /// The installed flight recorder, if any.
    #[must_use]
    pub fn series(&self) -> Option<Arc<SeriesRecorder>> {
        self.series.lock().expect("series slot lock").clone()
    }

    /// The `/_cpms/series.json` document: the installed recorder's
    /// ([`SeriesRecorder::to_json`]), or an empty one stamped zero when no
    /// recorder is installed, so scrapers parse one shape either way.
    #[must_use]
    pub fn series_json(&self) -> String {
        self.series().map_or_else(
            || "{\"scrape_seq\":0,\"uptime_micros\":0,\"samples\":0,\"series\":{}}".to_string(),
            |recorder| recorder.to_json(),
        )
    }

    /// Installs `watchdog` as this registry's SLO evaluator (normally
    /// via [`SloWatchdog::install`], which also registers its metrics).
    pub fn set_watchdog(&self, watchdog: Arc<SloWatchdog>) {
        *self.watchdog.lock().expect("watchdog slot lock") = Some(watchdog);
    }

    /// The installed SLO watchdog, if any.
    #[must_use]
    pub fn watchdog(&self) -> Option<Arc<SloWatchdog>> {
        self.watchdog.lock().expect("watchdog slot lock").clone()
    }

    /// Microseconds since this registry was created — the process
    /// uptime stamped onto every snapshot.
    #[must_use]
    pub fn uptime_micros(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// A coherent point-in-time snapshot of every registered metric plus
    /// the most recent events. Each snapshot draws a fresh monotonic
    /// `scrape_seq`, so consumers (the lab's merged timeline) can order
    /// payloads from one process without trusting their own clocks.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let fam = self.families.lock().expect("registry lock");
        RegistrySnapshot {
            scrape_seq: self.scrape_seq.fetch_add(1, Ordering::Relaxed),
            uptime_micros: self.uptime_micros(),
            counters: fam
                .counters
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: fam
                .gauges
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: fam
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.summary()))
                .collect(),
            events: self.events.recent(64),
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

/// A point-in-time view of the registry, ready for rendering (see
/// [`RegistrySnapshot::to_json`] and [`RegistrySnapshot::to_prometheus`]).
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    /// Monotonic snapshot sequence number within this process.
    pub scrape_seq: u64,
    /// Microseconds since the registry was created.
    pub uptime_micros: u64,
    /// Counter name → value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram name → folded summary, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Most recent post-mortem events, oldest first.
    pub events: Vec<Event>,
}

impl RegistrySnapshot {
    /// The value of counter `name`, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The value of gauge `name`, if registered.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The summary of histogram `name`, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_instrument() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("requests_total");
        let b = reg.counter("requests_total");
        a.inc();
        b.add(2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(reg.snapshot().counter("requests_total"), Some(3));
    }

    #[test]
    fn gauges_move_both_ways() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("in_flight");
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        g.set(-1);
        assert_eq!(reg.snapshot().gauge("in_flight"), Some(-1));
    }

    #[test]
    fn histogram_shard_count_is_fixed_at_creation() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_with_shards("lat", 4);
        let again = reg.histogram_with_shards("lat", 32);
        assert!(Arc::ptr_eq(&h, &again));
        assert_eq!(again.shard_count(), 4);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total").inc();
        reg.counter("a_total").inc();
        reg.gauge("g").set(7);
        reg.histogram("h").record(0, 42);
        reg.events().record("test", None, "hello".to_string());
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].0, "a_total");
        assert_eq!(snap.counters[1].0, "b_total");
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert_eq!(snap.events.len(), 1);
    }

    #[test]
    fn snapshots_carry_monotonic_scrape_seq_and_uptime() {
        let reg = MetricsRegistry::new();
        let first = reg.snapshot();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let second = reg.snapshot();
        assert_eq!(first.scrape_seq, 0);
        assert_eq!(second.scrape_seq, 1);
        assert!(second.uptime_micros > first.uptime_micros);
    }

    #[test]
    fn series_and_watchdog_slots_start_empty_and_install() {
        let reg = Arc::new(MetricsRegistry::new());
        assert!(reg.series().is_none());
        assert!(reg.watchdog().is_none());
        let recorder = Arc::new(crate::series::SeriesRecorder::default());
        reg.set_series(Arc::clone(&recorder));
        assert!(Arc::ptr_eq(&reg.series().unwrap(), &recorder));
    }

    #[test]
    fn request_ids_are_unique_and_increasing() {
        let reg = MetricsRegistry::new();
        let a = reg.next_request_id();
        let b = reg.next_request_id();
        assert!(b > a);
    }
}
