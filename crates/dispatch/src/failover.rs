//! Primary/backup fault tolerance for the distributor (§2.3).
//!
//! > "We implemented the primary/backup(s) mechanism … to achieve fault
//! > tolerance of the distributor. While the *primary* distributor is
//! > providing service normally, the *backup* distributor remains in a
//! > monitor state, continuing to monitor the primary and replicate the
//! > primary's state. If the primary distributor fails, the backup takes
//! > over the job of the primary and creates its own backup."
//!
//! The paper's backup replicates the kernel module's connection state. A
//! user-space proxy cannot migrate a live TCP connection, so a replicated
//! mapping table buys nothing on takeover: the failed primary's clients
//! reconnect. What a promoted backup needs is the highest URL-table
//! publication *generation* the primary acknowledged — a new primary must
//! publish above it — and that, with liveness, is all a [`Heartbeat`]
//! carries ([`BackupDistributor::last_seen_generation`]).
//!
//! Heartbeats ride the same `cpms-wire` framing as broker RPCs: a
//! [`HeartbeatSender`] on the primary pushes [`Heartbeat`] messages
//! through any [`cpms_wire::Transport`] to a [`HeartbeatListener`]
//! service wrapping the backup.

use cpms_wire::{Client, RetryPolicy, Transport, WireError};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// A heartbeat message from the primary: a monotone sequence number and
/// the URL-table publication generation at send time.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Heartbeat {
    /// Monotone heartbeat counter.
    pub seq: u64,
    /// URL-table publication generation on the primary when this beat
    /// was sent (see `cpms_urltable::TablePublisher::generation`).
    pub generation: u64,
}

/// The backup's acknowledgement of one heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeartbeatAck {
    /// Echo of the acknowledged sequence number (0 if the beat could not
    /// be decoded).
    pub seq: u64,
}

/// The backup distributor: monitors heartbeats, remembers the highest
/// table generation they reported, and declares the primary failed when
/// it goes silent.
#[derive(Debug, Clone)]
pub struct BackupDistributor {
    last_seq: u64,
    last_generation: u64,
    generation_regressions: u64,
    missed: u32,
    miss_threshold: u32,
}

/// Outcome of a monitoring step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorVerdict {
    /// Primary healthy.
    PrimaryHealthy,
    /// Beats missed but below the threshold.
    Suspicious {
        /// Consecutive missed beats so far.
        missed: u32,
    },
    /// Threshold crossed: the backup should take over.
    PrimaryFailed,
}

impl BackupDistributor {
    /// Creates a backup that declares the primary dead after
    /// `miss_threshold` consecutive missed heartbeats.
    ///
    /// # Panics
    ///
    /// Panics if `miss_threshold` is 0.
    pub fn new(miss_threshold: u32) -> Self {
        assert!(miss_threshold > 0, "threshold must be at least 1");
        BackupDistributor {
            last_seq: 0,
            last_generation: 0,
            generation_regressions: 0,
            missed: 0,
            miss_threshold,
        }
    }

    /// Processes a received heartbeat: resets the miss counter and raises
    /// the generation high-water mark. Out-of-order (stale) heartbeats are
    /// ignored.
    pub fn on_heartbeat(&mut self, hb: Heartbeat) {
        if hb.seq < self.last_seq {
            return; // stale, reordered message
        }
        self.last_seq = hb.seq;
        if hb.generation < self.last_generation {
            // A *fresh* beat reporting an older table generation: the
            // primary's URL table went backwards (or a promotion lost
            // publications). Publications must be monotone, so record the
            // anomaly rather than silently clamping.
            self.generation_regressions += 1;
        }
        self.last_generation = self.last_generation.max(hb.generation);
        self.missed = 0;
    }

    /// The highest URL-table publication generation any heartbeat has
    /// reported: a promoted backup's one input, the number its first
    /// publication must exceed.
    pub fn last_seen_generation(&self) -> u64 {
        self.last_generation
    }

    /// How many in-order heartbeats reported a URL-table generation
    /// *older* than one already acknowledged. Always 0 in a healthy
    /// cluster: publications are monotone, so any regression means the
    /// primary restarted with amnesia or a promotion dropped table
    /// state — the chaos-lab's generation-monotone assertion in
    /// diagnostic-counter form.
    pub fn generation_regressions(&self) -> u64 {
        self.generation_regressions
    }

    /// Called on each heartbeat interval in which nothing arrived.
    pub fn on_heartbeat_missed(&mut self) -> MonitorVerdict {
        self.missed += 1;
        if self.missed >= self.miss_threshold {
            MonitorVerdict::PrimaryFailed
        } else {
            MonitorVerdict::Suspicious {
                missed: self.missed,
            }
        }
    }
}

/// Default per-beat deadline. Tight on purpose: a beat that cannot be
/// delivered quickly is as good as lost, and the next one supersedes it.
pub const HEARTBEAT_DEADLINE: Duration = Duration::from_millis(250);

/// The primary-side heartbeat pump: pushes [`Heartbeat`]s to the backup
/// over any [`cpms_wire::Transport`].
///
/// Beats are sent with [`RetryPolicy::no_retry`]: retrying a stale beat
/// is worse than useless, because the next interval's beat carries newer
/// state. A lost beat simply shows up as a miss on the backup's side.
#[derive(Debug)]
pub struct HeartbeatSender {
    client: Client,
    seq: u64,
}

impl HeartbeatSender {
    /// Creates a sender whose beats cross `transport`.
    pub fn new(transport: Arc<dyn Transport>) -> Self {
        HeartbeatSender {
            client: Client::new(transport)
                .with_deadline(HEARTBEAT_DEADLINE)
                .with_retry(RetryPolicy::no_retry()),
            seq: 0,
        }
    }

    /// The wire client (stats, metrics attachment).
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// Sends the next heartbeat, stamping it with the primary's current
    /// URL-table publication `generation`. Returns the acknowledged
    /// sequence number.
    ///
    /// # Errors
    ///
    /// The wire failure if the beat or its ack was lost; the sequence
    /// number still advances, so the backup sees a gap, not a replay.
    pub fn beat(&mut self, generation: u64) -> Result<u64, WireError> {
        self.seq += 1;
        let hb = Heartbeat {
            seq: self.seq,
            generation,
        };
        let ack: HeartbeatAck = self.client.call(&hb)?;
        Ok(ack.seq)
    }

    /// Beats sent so far (including lost ones).
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// The backup-side wire service: decodes [`Heartbeat`]s, feeds them to a
/// shared [`BackupDistributor`], and acks. Serve it with
/// [`cpms_wire::InProcServer`] or [`cpms_wire::TcpServer`]; the shared
/// handle keeps observing misses while the listener runs.
#[derive(Debug, Clone)]
pub struct HeartbeatListener {
    backup: Arc<Mutex<BackupDistributor>>,
}

impl HeartbeatListener {
    /// Wraps a backup for serving. Clone the returned listener's
    /// [`handle`][Self::handle] to keep monitoring access.
    pub fn new(backup: BackupDistributor) -> Self {
        HeartbeatListener {
            backup: Arc::new(Mutex::new(backup)),
        }
    }

    /// The shared backup the listener feeds.
    pub fn handle(&self) -> Arc<Mutex<BackupDistributor>> {
        Arc::clone(&self.backup)
    }
}

impl cpms_wire::Service for HeartbeatListener {
    fn handle(&mut self, request: &[u8]) -> Vec<u8> {
        let seq = std::str::from_utf8(request)
            .ok()
            .and_then(|text| serde_json::from_str::<Heartbeat>(text).ok())
            .map_or(0, |hb| {
                self.backup.lock().on_heartbeat(hb);
                hb.seq
            });
        serde_json::to_string(&HeartbeatAck { seq })
            .expect("acks always serialize")
            .into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beat(seq: u64, generation: u64) -> Heartbeat {
        Heartbeat { seq, generation }
    }

    #[test]
    fn misses_up_to_the_threshold_declare_the_primary_failed() {
        let mut backup = BackupDistributor::new(3);
        backup.on_heartbeat(beat(1, 1));
        assert_eq!(
            backup.on_heartbeat_missed(),
            MonitorVerdict::Suspicious { missed: 1 }
        );
        assert_eq!(
            backup.on_heartbeat_missed(),
            MonitorVerdict::Suspicious { missed: 2 }
        );
        assert_eq!(backup.on_heartbeat_missed(), MonitorVerdict::PrimaryFailed);
        assert_eq!(backup.last_seen_generation(), 1);
    }

    #[test]
    fn heartbeats_reset_miss_counter() {
        let mut backup = BackupDistributor::new(2);
        backup.on_heartbeat_missed();
        backup.on_heartbeat(beat(1, 0));
        // counter was reset; one more miss is only suspicious
        assert_eq!(
            backup.on_heartbeat_missed(),
            MonitorVerdict::Suspicious { missed: 1 }
        );
    }

    #[test]
    fn stale_heartbeats_ignored() {
        let mut backup = BackupDistributor::new(2);
        backup.on_heartbeat(beat(10, 5));
        backup.on_heartbeat_missed();
        // A delayed old beat neither lowers the generation, nor counts as
        // a regression, nor stands in for a live primary.
        backup.on_heartbeat(beat(3, 2));
        assert_eq!(backup.last_seen_generation(), 5);
        assert_eq!(backup.generation_regressions(), 0);
        assert_eq!(backup.on_heartbeat_missed(), MonitorVerdict::PrimaryFailed);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threshold_panics() {
        let _ = BackupDistributor::new(0);
    }

    #[test]
    fn last_seen_generation_is_the_highest_delivered() {
        let mut backup = BackupDistributor::new(2);
        assert_eq!(backup.last_seen_generation(), 0);
        backup.on_heartbeat(beat(1, 3));
        assert_eq!(backup.last_seen_generation(), 3);
        backup.on_heartbeat(beat(2, 5));
        backup.on_heartbeat(beat(3, 5));
        assert_eq!(backup.last_seen_generation(), 5);
    }

    #[test]
    fn generation_regressions_are_counted_not_clamped_silently() {
        let mut backup = BackupDistributor::new(2);
        backup.on_heartbeat(beat(1, 6));
        assert_eq!(backup.generation_regressions(), 0);

        // A reordered beat (stale seq) is dropped entirely — not a
        // regression, just the wire being a wire.
        backup.on_heartbeat(beat(0, 2));
        assert_eq!(backup.generation_regressions(), 0);

        // A *fresh* beat going backwards is the real anomaly: an amnesiac
        // primary. The high-water mark holds, the counter records it.
        backup.on_heartbeat(beat(2, 4));
        assert_eq!(backup.generation_regressions(), 1);
        assert_eq!(backup.last_seen_generation(), 6);

        // Equal generation (re-announcement) is fine.
        backup.on_heartbeat(beat(3, 6));
        assert_eq!(backup.generation_regressions(), 1);
    }

    #[test]
    fn heartbeats_ride_the_wire() {
        let listener = HeartbeatListener::new(BackupDistributor::new(3));
        let shared = listener.handle();
        let (transport, mut server) = cpms_wire::InProcServer::spawn(listener);
        let mut sender = HeartbeatSender::new(Arc::new(transport));

        for expected in 1..=3u64 {
            let acked = sender.beat(4 + expected).unwrap();
            assert_eq!(acked, expected);
        }
        assert_eq!(sender.seq(), 3);
        assert_eq!(shared.lock().last_seen_generation(), 7);

        // Primary's link dies: the beat is lost, the backup counts misses.
        server.stop();
        assert!(sender.beat(8).is_err(), "no listener anymore");
        let mut backup = shared.lock();
        assert_eq!(
            backup.last_seen_generation(),
            7,
            "the lost beat moved nothing"
        );
        assert_eq!(
            backup.on_heartbeat_missed(),
            MonitorVerdict::Suspicious { missed: 1 }
        );
    }

    #[test]
    fn garbage_beat_is_acked_with_zero_not_applied() {
        let listener = HeartbeatListener::new(BackupDistributor::new(2));
        let shared = listener.handle();
        shared.lock().on_heartbeat_missed();
        let (transport, mut server) = cpms_wire::InProcServer::spawn(listener);
        let client = Client::new(Arc::new(transport));
        let raw = client.call_raw(b"{ not a heartbeat").unwrap();
        let ack: HeartbeatAck = serde_json::from_str(std::str::from_utf8(&raw).unwrap()).unwrap();
        assert_eq!(ack.seq, 0);
        server.stop();
        // Not applied: the miss counter was not reset.
        assert_eq!(
            shared.lock().on_heartbeat_missed(),
            MonitorVerdict::PrimaryFailed
        );
    }
}
