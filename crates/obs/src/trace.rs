//! Span timers and the bounded post-mortem event log.
//!
//! A [`Span`] is an RAII timer over one pipeline stage: enter it where
//! the stage starts and its elapsed nanoseconds are recorded into a
//! per-worker histogram shard when it drops (or explicitly via
//! [`Span::finish`] to also read the measurement).
//!
//! The [`EventLog`] is a fixed-capacity ring buffer of interesting
//! moments — failed or slow requests, health transitions, publication
//! anomalies — kept for post-mortem inspection through the stats
//! surface. It is deliberately off the hot path: the runtime only logs
//! events for the rare outcomes (errors, slowness, state changes), so a
//! mutex-guarded ring is fine, and the capacity bound means an error
//! storm degrades into overwritten history rather than unbounded memory.

use crate::hist::HistogramRecorder;
use crate::spans::{TraceContext, TraceId};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies one request as it moves through the pipeline, so the
/// events it leaves behind can be correlated. Allocated from
/// [`crate::MetricsRegistry::next_request_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One logged observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotone sequence number over the log's lifetime.
    pub seq: u64,
    /// Microseconds since the log (registry) was created.
    pub at_micros: u64,
    /// The request this event belongs to, when there is one.
    pub request: Option<RequestId>,
    /// The distributed trace active when the event was recorded, so the
    /// post-mortem ring and span trees cross-reference.
    pub trace: Option<TraceId>,
    /// The pipeline stage or subsystem that emitted the event.
    pub stage: &'static str,
    /// Human-readable specifics (path, node, error, timing breakdown).
    pub detail: String,
}

/// A bounded ring buffer of [`Event`]s.
#[derive(Debug)]
pub struct EventLog {
    ring: Mutex<VecDeque<Event>>,
    capacity: usize,
    next_seq: AtomicU64,
    dropped: AtomicU64,
    epoch: Instant,
}

impl EventLog {
    /// A log keeping the most recent `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        EventLog {
            ring: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            capacity: capacity.max(1),
            next_seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Appends an event, evicting the oldest once full. The thread's
    /// active [`TraceContext`], if any, stamps the event.
    pub fn record(&self, stage: &'static str, request: Option<RequestId>, detail: String) {
        let trace = TraceContext::current().map(|c| c.trace);
        // The sequence number is drawn under the ring lock, so ring order
        // is sequence order even between racing writers.
        let mut ring = self.ring.lock().expect("event log lock");
        let event = Event {
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            at_micros: u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX),
            request,
            trace,
            stage,
            detail,
        };
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// The most recent `n` events, oldest first.
    #[must_use]
    pub fn recent(&self, n: usize) -> Vec<Event> {
        let ring = self.ring.lock().expect("event log lock");
        ring.iter().rev().take(n).rev().cloned().collect()
    }

    /// Total events ever recorded (including evicted ones).
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Events evicted to make room.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Maximum events retained.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// An RAII timer over one pipeline stage. Records elapsed nanoseconds
/// into its histogram shard on drop.
#[derive(Debug)]
pub struct Span<'r> {
    name: &'static str,
    recorder: &'r HistogramRecorder,
    start: Instant,
    finished: bool,
}

impl<'r> Span<'r> {
    /// Starts timing `name`, to be recorded through `recorder`.
    #[must_use]
    pub fn enter(name: &'static str, recorder: &'r HistogramRecorder) -> Self {
        Span {
            name,
            recorder,
            start: Instant::now(),
            finished: false,
        }
    }

    /// The stage name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Nanoseconds elapsed so far (saturating at `u64::MAX`).
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Ends the span now, recording and returning the elapsed
    /// nanoseconds (instead of waiting for drop).
    pub fn finish(mut self) -> u64 {
        let elapsed = self.elapsed_ns();
        self.recorder.record(elapsed);
        self.finished = true;
        elapsed
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.recorder.record(self.elapsed_ns());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use std::sync::Arc;

    #[test]
    fn span_records_on_drop_and_on_finish() {
        let h = Arc::new(Histogram::new(1));
        let rec = h.recorder(0);
        {
            let _span = Span::enter("lookup", &rec);
        }
        let elapsed = Span::enter("relay", &rec).finish();
        let s = h.summary();
        assert_eq!(s.count, 2, "drop and finish each record exactly once");
        assert!(s.max >= elapsed.min(s.max));
    }

    #[test]
    fn event_log_is_bounded_and_ordered() {
        let log = EventLog::new(3);
        for i in 0..5 {
            log.record("test", Some(RequestId(i)), format!("event {i}"));
        }
        let recent = log.recent(10);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].request, Some(RequestId(2)), "oldest survivor");
        assert_eq!(recent[2].request, Some(RequestId(4)), "newest last");
        assert_eq!(log.total_recorded(), 5);
        assert_eq!(log.dropped(), 2);
        assert!(recent.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn request_ids_render_compactly() {
        assert_eq!(RequestId(17).to_string(), "r17");
    }

    #[test]
    fn events_are_stamped_with_the_active_trace() {
        use crate::spans::ScopedTrace;
        let log = EventLog::new(4);
        log.record("plain", None, "no trace active".to_string());
        let ctx = TraceContext::root(true);
        {
            let _scope = ScopedTrace::activate(ctx);
            log.record("traced", None, "inside the scope".to_string());
        }
        let events = log.recent(4);
        assert_eq!(events[0].trace, None);
        assert_eq!(events[1].trace, Some(ctx.trace));
    }
}
