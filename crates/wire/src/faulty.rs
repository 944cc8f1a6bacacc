//! Deterministic fault injection for robustness tests.
//!
//! [`FaultyTransport`] wraps any [`Transport`] and, per call, rolls a
//! seeded PRNG against the configured [`FaultPlan`] to decide whether to
//! drop the request (the peer never sees it), drop the response (the
//! peer executed but the answer is lost — the at-least-once hazard),
//! delay delivery, duplicate the request (the peer executes twice), or
//! truncate the frame (a typed [`WireError::Truncated`], the poisoned
//! frame case). The PRNG is split-mix over a counter, so a given seed
//! produces the same fault sequence on every run — failing tests
//! reproduce exactly.

use crate::error::WireError;
use crate::frame::{framed_len_of, HEADER_LEN};
use crate::transport::Transport;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-call fault probabilities (each in `[0, 1]`) plus the seed that
/// makes the stream deterministic.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Seed for the fault stream.
    pub seed: u64,
    /// Probability the request frame is lost (peer never executes; the
    /// caller sees a deadline expiry).
    pub drop_request: f64,
    /// Probability the response frame is lost (peer *did* execute; the
    /// caller sees a deadline expiry — exercises at-least-once hazards).
    pub drop_response: f64,
    /// Probability the exchange is delayed by [`FaultPlan::delay_ms`].
    pub delay: f64,
    /// Delay applied when the delay fault fires, in milliseconds. Delays
    /// at or beyond the call deadline surface as timeouts.
    pub delay_ms: u64,
    /// Probability the request is delivered (and executed) twice.
    pub duplicate: f64,
    /// Probability the frame is cut short: a typed
    /// [`WireError::Truncated`] with nothing delivered.
    pub truncate: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xFA_17,
            drop_request: 0.0,
            drop_response: 0.0,
            delay: 0.0,
            delay_ms: 0,
            duplicate: 0.0,
            truncate: 0.0,
        }
    }
}

impl FaultPlan {
    /// A plan that loses `rate` of all frames, split evenly between
    /// requests and responses.
    #[must_use]
    pub fn lossy(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            drop_request: rate / 2.0,
            drop_response: rate / 2.0,
            ..FaultPlan::default()
        }
    }

    /// A plan that truncates every frame — the poisoned-peer case.
    #[must_use]
    pub fn poisoned(seed: u64) -> Self {
        FaultPlan {
            seed,
            truncate: 1.0,
            ..FaultPlan::default()
        }
    }
}

/// Counts of faults actually injected (and calls passed through clean).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Requests dropped before reaching the peer.
    pub dropped_requests: u64,
    /// Responses dropped after the peer executed.
    pub dropped_responses: u64,
    /// Calls delayed.
    pub delayed: u64,
    /// Requests executed twice.
    pub duplicated: u64,
    /// Frames truncated.
    pub truncated: u64,
    /// Calls forwarded without any fault.
    pub clean: u64,
}

/// A [`Transport`] wrapper that injects deterministic faults.
pub struct FaultyTransport {
    inner: Arc<dyn Transport>,
    plan: FaultPlan,
    stream: AtomicU64,
    dropped_requests: AtomicU64,
    dropped_responses: AtomicU64,
    delayed: AtomicU64,
    duplicated: AtomicU64,
    truncated: AtomicU64,
    clean: AtomicU64,
}

impl fmt::Debug for FaultyTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyTransport")
            .field("plan", &self.plan)
            .field("stats", &self.stats())
            .finish()
    }
}

impl FaultyTransport {
    /// Wraps `inner`, injecting faults per `plan`.
    #[must_use]
    pub fn new(inner: Arc<dyn Transport>, plan: FaultPlan) -> Self {
        FaultyTransport {
            inner,
            stream: AtomicU64::new(plan.seed),
            plan,
            dropped_requests: AtomicU64::new(0),
            dropped_responses: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            clean: AtomicU64::new(0),
        }
    }

    /// Counts of faults injected so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            dropped_requests: self.dropped_requests.load(Ordering::Relaxed),
            dropped_responses: self.dropped_responses.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
            clean: self.clean.load(Ordering::Relaxed),
        }
    }

    /// One uniform draw in `[0, 1)` from the deterministic stream.
    fn unit(&self) -> f64 {
        crate::splitmix_unit(&self.stream)
    }
}

impl Transport for FaultyTransport {
    fn call(&self, request: &[u8], deadline: Duration) -> Result<Vec<u8>, WireError> {
        // Draw every category up front so the stream advances identically
        // whichever branch fires — determinism survives plan tweaks.
        let r_truncate = self.unit();
        let r_drop_request = self.unit();
        let r_delay = self.unit();
        let r_duplicate = self.unit();
        let r_drop_response = self.unit();
        let deadline_ms = deadline.as_millis() as u64;

        if r_truncate < self.plan.truncate {
            self.truncated.fetch_add(1, Ordering::Relaxed);
            let expected = framed_len_of(request.len());
            return Err(WireError::Truncated {
                expected,
                got: expected.saturating_sub(1).min(HEADER_LEN as u64),
            });
        }
        if r_drop_request < self.plan.drop_request {
            // Lost before delivery: the peer never executes; the caller's
            // deadline expires. Surfaced immediately to keep tests fast.
            self.dropped_requests.fetch_add(1, Ordering::Relaxed);
            return Err(WireError::Timeout { deadline_ms });
        }
        let mut remaining = deadline;
        if r_delay < self.plan.delay {
            self.delayed.fetch_add(1, Ordering::Relaxed);
            let delay = Duration::from_millis(self.plan.delay_ms);
            if delay >= deadline {
                return Err(WireError::Timeout { deadline_ms });
            }
            std::thread::sleep(delay);
            remaining = deadline - delay;
        }
        let response = self.inner.call(request, remaining)?;
        if r_duplicate < self.plan.duplicate {
            // The network delivered the request twice: the peer executes
            // again, and the caller sees the second answer.
            self.duplicated.fetch_add(1, Ordering::Relaxed);
            return self.inner.call(request, remaining);
        }
        if r_drop_response < self.plan.drop_response {
            // Executed, but the answer is lost: at-least-once hazard.
            self.dropped_responses.fetch_add(1, Ordering::Relaxed);
            return Err(WireError::Timeout { deadline_ms });
        }
        self.clean.fetch_add(1, Ordering::Relaxed);
        Ok(response)
    }

    fn kind(&self) -> &'static str {
        "faulty"
    }

    fn reconnects(&self) -> u64 {
        self.inner.reconnects()
    }
}

/// A [`Transport`] wrapper whose faults can be armed, re-armed, and
/// cleared at runtime — the process-level face of [`FaultyTransport`]
/// for chaos orchestration. A daemon installs one switch per peer link
/// at startup; an admin verb later arms a [`FaultPlan`] on it (loss,
/// poison) or hard-partitions the link, without restarting anything.
///
/// Partition takes precedence over any armed plan and surfaces as
/// [`WireError::Unavailable`], which the management layers above map to
/// "broker unreachable" — exactly what a severed network looks like.
pub struct FaultSwitch {
    inner: Arc<dyn Transport>,
    armed: std::sync::RwLock<Option<Arc<FaultyTransport>>>,
    partitioned: std::sync::atomic::AtomicBool,
}

impl fmt::Debug for FaultSwitch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultSwitch")
            .field("partitioned", &self.is_partitioned())
            .field("armed", &self.armed_stats().is_some())
            .finish()
    }
}

impl FaultSwitch {
    /// Wraps `inner` with no faults armed: calls pass straight through.
    #[must_use]
    pub fn new(inner: Arc<dyn Transport>) -> Self {
        FaultSwitch {
            inner,
            armed: std::sync::RwLock::new(None),
            partitioned: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Arms `plan` on this link, replacing any previous plan (and its
    /// fault stream — the new plan's seed restarts determinism).
    pub fn arm(&self, plan: FaultPlan) {
        let faulty = Arc::new(FaultyTransport::new(Arc::clone(&self.inner), plan));
        *self.armed.write().expect("fault switch lock") = Some(faulty);
    }

    /// Clears any armed plan; the partition flag is left alone.
    pub fn disarm(&self) {
        *self.armed.write().expect("fault switch lock") = None;
    }

    /// Severs (or restores) the link outright.
    pub fn set_partitioned(&self, on: bool) {
        self.partitioned.store(on, Ordering::Release);
    }

    /// Whether the link is currently severed.
    pub fn is_partitioned(&self) -> bool {
        self.partitioned.load(Ordering::Acquire)
    }

    /// Fault counts of the currently armed plan, if any.
    pub fn armed_stats(&self) -> Option<FaultStats> {
        self.armed
            .read()
            .expect("fault switch lock")
            .as_ref()
            .map(|f| f.stats())
    }
}

impl Transport for FaultSwitch {
    fn call(&self, request: &[u8], deadline: Duration) -> Result<Vec<u8>, WireError> {
        if self.is_partitioned() {
            return Err(WireError::Unavailable {
                detail: "link partitioned by fault switch".to_string(),
            });
        }
        let armed = self.armed.read().expect("fault switch lock").clone();
        match armed {
            Some(faulty) => faulty.call(request, deadline),
            None => self.inner.call(request, deadline),
        }
    }

    fn kind(&self) -> &'static str {
        "switch"
    }

    fn reconnects(&self) -> u64 {
        self.inner.reconnects()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, RetryPolicy};
    use crate::transport::InProcServer;
    use std::sync::atomic::AtomicU32;

    fn echo() -> impl crate::transport::Service {
        |req: &[u8]| req.to_vec()
    }

    #[test]
    fn clean_plan_passes_everything_through() {
        let (t, mut server) = InProcServer::spawn(echo());
        let faulty = FaultyTransport::new(Arc::new(t), FaultPlan::default());
        for _ in 0..20 {
            assert_eq!(
                faulty.call(b"ok", Duration::from_secs(1)).unwrap(),
                b"ok".to_vec()
            );
        }
        let stats = faulty.stats();
        assert_eq!(stats.clean, 20);
        assert_eq!(
            stats,
            FaultStats {
                clean: 20,
                ..FaultStats::default()
            }
        );
        server.stop();
    }

    #[test]
    fn fault_sequence_is_deterministic() {
        let (t1, mut s1) = InProcServer::spawn(echo());
        let (t2, mut s2) = InProcServer::spawn(echo());
        let plan = FaultPlan::lossy(99, 0.4);
        let a = FaultyTransport::new(Arc::new(t1), plan);
        let b = FaultyTransport::new(Arc::new(t2), plan);
        let outcomes_a: Vec<bool> = (0..50)
            .map(|_| a.call(b"x", Duration::from_millis(100)).is_ok())
            .collect();
        let outcomes_b: Vec<bool> = (0..50)
            .map(|_| b.call(b"x", Duration::from_millis(100)).is_ok())
            .collect();
        assert_eq!(outcomes_a, outcomes_b);
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().dropped_requests + a.stats().dropped_responses > 0);
        s1.stop();
        s2.stop();
    }

    #[test]
    fn truncation_is_typed_never_a_hang() {
        let (t, mut server) = InProcServer::spawn(echo());
        let faulty = FaultyTransport::new(Arc::new(t), FaultPlan::poisoned(1));
        let err = faulty.call(b"payload", Duration::from_secs(1)).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }), "{err:?}");
        assert!(err.is_retryable());
        server.stop();
    }

    #[test]
    fn duplicate_executes_twice() {
        let count = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&count);
        let (t, mut server) = InProcServer::spawn(move |req: &[u8]| {
            c.fetch_add(1, Ordering::SeqCst);
            req.to_vec()
        });
        let faulty = FaultyTransport::new(
            Arc::new(t),
            FaultPlan {
                duplicate: 1.0,
                ..FaultPlan::default()
            },
        );
        faulty.call(b"x", Duration::from_secs(1)).unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 2);
        assert_eq!(faulty.stats().duplicated, 1);
        server.stop();
    }

    #[test]
    fn client_retry_rides_through_loss() {
        let (t, mut server) = InProcServer::spawn(echo());
        let faulty = Arc::new(FaultyTransport::new(
            Arc::new(t),
            FaultPlan::lossy(0xBEEF, 0.3),
        ));
        let client = Client::new(Arc::clone(&faulty) as Arc<dyn Transport>)
            .with_deadline(Duration::from_millis(200))
            .with_retry(RetryPolicy {
                max_attempts: 8,
                base_backoff: Duration::from_micros(200),
                max_backoff: Duration::from_millis(2),
                jitter: 0.5,
                seed: 3,
            });
        for i in 0..100u32 {
            let req = i.to_be_bytes();
            let resp = client.call_raw(&req).unwrap();
            assert_eq!(resp, req);
        }
        let stats = client.stats();
        assert_eq!(stats.failures, 0, "{stats:?}");
        assert!(stats.retries > 0, "30% loss must have forced retries");
        let faults = faulty.stats();
        assert!(faults.dropped_requests + faults.dropped_responses > 10);
        server.stop();
    }

    #[test]
    fn fault_switch_arms_partitions_and_heals() {
        let (t, mut server) = InProcServer::spawn(echo());
        let switch = FaultSwitch::new(Arc::new(t));
        // Clean by default.
        assert_eq!(
            switch.call(b"a", Duration::from_secs(1)).unwrap(),
            b"a".to_vec()
        );
        assert!(switch.armed_stats().is_none());
        // Armed poison truncates every frame.
        switch.arm(FaultPlan::poisoned(7));
        let err = switch.call(b"b", Duration::from_secs(1)).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }), "{err:?}");
        assert_eq!(switch.armed_stats().unwrap().truncated, 1);
        // Partition wins over the armed plan and is typed Unavailable.
        switch.set_partitioned(true);
        let err = switch.call(b"c", Duration::from_secs(1)).unwrap_err();
        assert!(matches!(err, WireError::Unavailable { .. }), "{err:?}");
        // Healing restores clean passthrough.
        switch.set_partitioned(false);
        switch.disarm();
        assert_eq!(
            switch.call(b"d", Duration::from_secs(1)).unwrap(),
            b"d".to_vec()
        );
        server.stop();
    }

    #[test]
    fn delay_beyond_deadline_times_out() {
        let (t, mut server) = InProcServer::spawn(echo());
        let faulty = FaultyTransport::new(
            Arc::new(t),
            FaultPlan {
                delay: 1.0,
                delay_ms: 50,
                ..FaultPlan::default()
            },
        );
        let err = faulty.call(b"x", Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, WireError::Timeout { deadline_ms: 10 }));
        // Under a generous deadline the delayed call still succeeds.
        assert!(faulty.call(b"x", Duration::from_secs(1)).is_ok());
        assert_eq!(faulty.stats().delayed, 2);
        server.stop();
    }
}
