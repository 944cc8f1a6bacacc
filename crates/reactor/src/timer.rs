//! Hashed timer wheel for coarse connection deadlines.
//!
//! Deadlines hash into `nslots` buckets by absolute tick; each bucket holds
//! entries from any wheel revolution, so insert is O(1) and a sweep only
//! touches the buckets whose turn has come. Cancellation is eager: the live
//! map remembers each timer's bucket so `cancel` removes the entry on the
//! spot, and buckets hold only live timers.
//!
//! The wheel caches its earliest live deadline, so [`TimerWheel::next_timeout`]
//! — asked on every reactor loop turn — answers exactly in O(1), even for a
//! deadline more than one revolution away, and a sweep with nothing due
//! touches no bucket. The cache is refreshed only when the earliest timer
//! fires or is cancelled, by scanning forward from it.
//! The wheel never calls `Instant::now` itself — callers pass `now` in,
//! which keeps expiry deterministic in tests.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Identifies a scheduled timer for cancellation.
pub type TimerId = u64;

struct WheelEntry {
    id: TimerId,
    /// Absolute deadline in ticks since the wheel's start instant.
    deadline: u64,
}

/// A hashed timer wheel; see the module docs for the design.
pub struct TimerWheel {
    start: Instant,
    tick: Duration,
    slots: Vec<Vec<WheelEntry>>,
    /// Ids scheduled and not yet fired or cancelled, with the slot each
    /// one's entry lives in (so cancel can remove the entry eagerly).
    live: HashMap<TimerId, usize>,
    next_id: TimerId,
    /// First tick not yet swept by `expire_into`; every live deadline is
    /// at or past it.
    cursor: u64,
    /// The earliest live deadline, `None` when no timer is live.
    earliest: Option<u64>,
}

impl TimerWheel {
    /// Build a wheel with the given tick granularity and bucket count.
    ///
    /// `tick` bounds expiry precision (a deadline fires within one tick after
    /// it elapses); `nslots` bounds the per-sweep scan.
    pub fn new(tick: Duration, nslots: usize) -> TimerWheel {
        assert!(!tick.is_zero(), "timer tick must be non-zero");
        assert!(nslots > 0, "timer wheel needs at least one slot");
        TimerWheel {
            start: Instant::now(),
            tick,
            slots: (0..nslots).map(|_| Vec::new()).collect(),
            live: HashMap::new(),
            next_id: 1,
            cursor: 0,
            earliest: None,
        }
    }

    fn tick_of(&self, when: Instant) -> u64 {
        let since = when.saturating_duration_since(self.start).as_nanos();
        let tick = self.tick.as_nanos();
        // Round up: a deadline mid-tick belongs to the following tick so it
        // never fires early.
        since.div_ceil(tick) as u64
    }

    fn slot_of(&self, tick: u64) -> usize {
        (tick % self.slots.len() as u64) as usize
    }

    /// Schedule a timer at an absolute instant; returns its id.
    pub fn schedule_at(&mut self, when: Instant) -> TimerId {
        let id = self.next_id;
        self.next_id += 1;
        let deadline = self.tick_of(when).max(self.cursor);
        let slot = self.slot_of(deadline);
        self.slots[slot].push(WheelEntry { id, deadline });
        self.live.insert(id, slot);
        self.earliest = Some(self.earliest.map_or(deadline, |e| e.min(deadline)));
        id
    }

    /// Schedule a timer `after` from now; returns its id.
    pub fn schedule_after(&mut self, now: Instant, after: Duration) -> TimerId {
        self.schedule_at(now + after)
    }

    /// Cancel a pending timer, removing its wheel entry immediately.
    /// Returns false if it already fired or was cancelled before.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        let Some(slot) = self.live.remove(&id) else {
            return false;
        };
        let bucket = &mut self.slots[slot];
        if let Some(j) = bucket.iter().position(|e| e.id == id) {
            let gone = bucket.swap_remove(j);
            if Some(gone.deadline) == self.earliest {
                self.earliest = self.earliest_from(gone.deadline);
            }
        }
        true
    }

    /// Number of timers scheduled and not yet fired or cancelled.
    pub fn pending(&self) -> usize {
        self.live.len()
    }

    /// Sweep every bucket whose turn has come and push the fired ids into
    /// `out` (which is not cleared). Entries from a later wheel revolution
    /// are kept for their round.
    pub fn expire_into(&mut self, now: Instant, out: &mut Vec<TimerId>) {
        let now_tick = self.tick_of(now);
        if now_tick < self.cursor {
            return;
        }
        self.cursor = now_tick + 1;
        let Some(first) = self.earliest.filter(|&e| e <= now_tick) else {
            return; // nothing due: no bucket to look at
        };
        let nslots = self.slots.len() as u64;
        // Due deadlines lie in first..=now_tick; past a whole revolution
        // every bucket is due exactly once.
        let sweep = (now_tick - first + 1).min(nslots);
        for t in first..first + sweep {
            let slot = self.slot_of(t);
            let bucket = &mut self.slots[slot];
            let mut j = 0;
            while j < bucket.len() {
                let entry = &bucket[j];
                if entry.deadline <= now_tick {
                    self.live.remove(&entry.id);
                    out.push(entry.id);
                    bucket.swap_remove(j);
                } else {
                    j += 1;
                }
            }
        }
        self.earliest = self.earliest_from(self.cursor);
    }

    /// The earliest live deadline, given that none is before `from`. The
    /// first tick `t` from `from` on whose bucket holds a deadline of
    /// exactly `t` is it: any earlier deadline would have been found in its
    /// own bucket first. A deadline past one revolution falls back to a
    /// scan of every entry.
    fn earliest_from(&self, from: u64) -> Option<u64> {
        if self.live.is_empty() {
            return None;
        }
        let nslots = self.slots.len() as u64;
        (from..from + nslots)
            .find(|&t| self.slots[self.slot_of(t)].iter().any(|e| e.deadline == t))
            .or_else(|| self.slots.iter().flatten().map(|e| e.deadline).min())
    }

    /// How long from `now` until the earliest live timer is due (zero if it
    /// already is), or `None` when no timer is live. Exact to the tick, at
    /// any distance, in O(1).
    pub fn next_timeout(&self, now: Instant) -> Option<Duration> {
        let tick_ns = u64::try_from(self.tick.as_nanos()).unwrap_or(u64::MAX);
        self.earliest.map(|t| {
            let due = self.start + Duration::from_nanos(tick_ns.saturating_mul(t));
            due.saturating_duration_since(now)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: cancellation must scrub the wheel entry, not just the
    /// live set. A schedule-and-cancel-per-request workload once left
    /// thousands of stale entries rotting in the buckets for a whole
    /// revolution, turning every `next_timeout` call into an O(garbage)
    /// crawl that dominated the proxy's per-request cost.
    #[test]
    fn cancel_scrubs_bucket_entries_immediately() {
        let mut wheel = TimerWheel::new(Duration::from_millis(1), 8);
        let now = Instant::now();
        let churned: Vec<TimerId> = (0..10_000)
            .map(|i| wheel.schedule_after(now, Duration::from_millis(i % 7)))
            .collect();
        let survivor = wheel.schedule_after(now, Duration::from_millis(3));
        for id in churned {
            assert!(wheel.cancel(id));
        }

        assert_eq!(wheel.pending(), 1);
        let held: usize = wheel.slots.iter().map(Vec::len).sum();
        assert_eq!(
            held, 1,
            "cancelled entries must leave the buckets on the spot"
        );

        // The survivor is unharmed: it still bounds the poll wait and fires.
        assert!(wheel.next_timeout(now).expect("survivor is live") <= Duration::from_millis(4));
        let mut fired = Vec::new();
        wheel.expire_into(now + Duration::from_millis(10), &mut fired);
        assert_eq!(fired, vec![survivor]);
        assert_eq!(wheel.pending(), 0);
    }

    /// The proxy's wheel is 25 ms × 256 slots, one 6.4 s revolution, and its
    /// relay deadline is 10 s: a bucket scan once answered 3.6 s for it (the
    /// bucket the deadline wraps into), waking the loop for nothing.
    #[test]
    fn a_deadline_past_one_revolution_reads_exactly() {
        let tick = Duration::from_millis(25);
        let mut wheel = TimerWheel::new(tick, 256);
        let now = Instant::now();
        wheel.schedule_after(now, Duration::from_secs(10));
        let wait = wheel.next_timeout(now).expect("a timer is live");
        assert!(
            wait >= Duration::from_secs(10) && wait <= Duration::from_secs(10) + tick,
            "a 10 s deadline reads as {wait:?}"
        );
    }

    #[test]
    fn cancelling_the_earliest_timer_exposes_the_next() {
        let tick = Duration::from_millis(25);
        let mut wheel = TimerWheel::new(tick, 256);
        let now = Instant::now();
        let near = wheel.schedule_after(now, Duration::from_secs(2));
        let far = wheel.schedule_after(now, Duration::from_secs(10));
        let mid = wheel.schedule_after(now, Duration::from_secs(7));
        let reads = |wheel: &TimerWheel, want: u64| {
            let wait = wheel.next_timeout(now).expect("a timer is live");
            let want = Duration::from_secs(want);
            assert!(wait >= want && wait <= want + tick, "{wait:?} for {want:?}");
        };
        reads(&wheel, 2);
        assert!(wheel.cancel(near));
        reads(&wheel, 7);
        assert!(wheel.cancel(mid));
        reads(&wheel, 10);

        // Firing the earliest exposes the next one too.
        let soon = wheel.schedule_after(now, Duration::from_secs(1));
        let mut fired = Vec::new();
        wheel.expire_into(now + Duration::from_millis(1100), &mut fired);
        assert_eq!(fired, vec![soon]);
        reads(&wheel, 10);
        assert!(wheel.cancel(far));
        assert_eq!(wheel.next_timeout(now), None);
    }
}
