//! A bounded-concurrency transfer scheduler for the controller.
//!
//! Publishing to N nodes or rebalancing a batch of replicas fans out N
//! independent ship jobs; the [`TransferScheduler`] runs them on scoped
//! threads with a concurrency cap so a wide publish cannot open an
//! unbounded number of simultaneous transfers.

use cpms_obs::{ScopedTrace, TraceContext};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Runs transfer jobs with at most `limit` in flight at once.
#[derive(Debug)]
pub struct TransferScheduler {
    slots: Mutex<usize>,
    freed: Condvar,
    inflight: AtomicU64,
    started_total: AtomicU64,
}

impl TransferScheduler {
    /// A scheduler allowing `limit` concurrent transfers (min 1).
    #[must_use]
    pub fn new(limit: usize) -> Self {
        TransferScheduler {
            slots: Mutex::new(limit.max(1)),
            freed: Condvar::new(),
            inflight: AtomicU64::new(0),
            started_total: AtomicU64::new(0),
        }
    }

    /// Transfers running right now (the console's "in-flight" column).
    #[must_use]
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Transfers started over the scheduler's lifetime.
    #[must_use]
    pub fn started_total(&self) -> u64 {
        self.started_total.load(Ordering::Relaxed)
    }

    fn acquire(&self) {
        let mut slots = self.slots.lock().expect("scheduler lock never poisoned");
        while *slots == 0 {
            slots = self
                .freed
                .wait(slots)
                .expect("scheduler lock never poisoned");
        }
        *slots -= 1;
        self.inflight.fetch_add(1, Ordering::Relaxed);
        self.started_total.fetch_add(1, Ordering::Relaxed);
    }

    fn release(&self) {
        let mut slots = self.slots.lock().expect("scheduler lock never poisoned");
        *slots += 1;
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        self.freed.notify_one();
    }

    /// Runs `job` once per item concurrently (capped), returning results
    /// in item order. Blocks until every job finishes. The first job runs
    /// on the calling thread — which would otherwise only wait — and each
    /// further one on a scoped thread of its own, so a single-target op
    /// spawns nothing.
    pub fn run<T, R, F>(&self, items: Vec<T>, job: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let run_one = &|i, item| {
            self.acquire();
            let r = job(i, item);
            self.release();
            r
        };
        let mut items = items.into_iter().enumerate();
        let Some((_, first)) = items.next() else {
            return Vec::new();
        };
        // Worker threads start with an empty trace-context thread-local;
        // carry the caller's context across the spawn so fan-out RPCs
        // stay children of the publishing span instead of rooting their
        // own traces.
        let ctx = TraceContext::current();
        std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .map(|(i, item)| {
                    scope.spawn(move || {
                        let _trace = ctx.map(ScopedTrace::activate);
                        run_one(i, item)
                    })
                })
                .collect();
            std::iter::once(run_one(0, first))
                .chain(
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("transfer job panicked")),
                )
                .collect()
        })
    }
}

impl Default for TransferScheduler {
    /// Four concurrent transfers, matching a small management plane.
    fn default() -> Self {
        TransferScheduler::new(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn results_keep_item_order() {
        let sched = TransferScheduler::new(3);
        let out = sched.run((0..16).collect(), |i, item: u32| {
            // Later items finish first.
            std::thread::sleep(Duration::from_millis(u64::from(16 - item)));
            (i, item * 2)
        });
        for (i, (idx, doubled)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*doubled, (i as u32) * 2);
        }
        assert_eq!(sched.started_total(), 16);
        assert_eq!(sched.inflight(), 0);
    }

    #[test]
    fn concurrency_is_capped() {
        let sched = TransferScheduler::new(2);
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        sched.run((0..12).collect::<Vec<u32>>(), |_, _| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(5));
            running.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "cap held");
    }

    #[test]
    fn single_item_runs_inline() {
        let sched = TransferScheduler::new(4);
        let here = std::thread::current().id();
        let out = sched.run(vec![7u32], |_, item| (std::thread::current().id(), item));
        assert_eq!(out[0].0, here);
        assert_eq!(out[0].1, 7);
    }

    #[test]
    fn first_job_runs_on_the_calling_thread() {
        let sched = TransferScheduler::new(4);
        let here = std::thread::current().id();
        let out = sched.run(vec![10u32, 11, 12], |i, item| {
            (i, item, std::thread::current().id())
        });
        assert_eq!(out[0], (0, 10, here));
        for (i, (idx, item, thread)) in out.iter().enumerate().skip(1) {
            assert_eq!((*idx, *item), (i, 10 + i as u32), "results keep item order");
            assert_ne!(*thread, here, "job {i} got a thread of its own");
        }
        assert_eq!(sched.started_total(), 3);
        assert!(sched.run(Vec::<u32>::new(), |_, item| item).is_empty());
    }

    #[test]
    fn fanout_workers_inherit_trace_context() {
        let sched = TransferScheduler::new(4);
        let ctx = TraceContext::root(true);
        let _trace = ScopedTrace::activate(ctx);
        let seen = sched.run((0..6).collect::<Vec<u32>>(), |_, _| TraceContext::current());
        for worker_ctx in seen {
            assert_eq!(worker_ctx.map(|c| c.trace), Some(ctx.trace));
        }
    }
}
