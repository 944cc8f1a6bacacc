//! # cpms-wire
//!
//! The control-plane transport: length-prefixed, checksummed,
//! serde-framed request/response messaging between the management
//! daemons (controller ↔ brokers, primary ↔ backup distributor).
//!
//! The paper's management system (§3) is explicitly distributed — brokers
//! are standalone daemons on each backend node, agents are *shipped* to
//! them, and the primary/backup distributor (§2.3) replicates state over
//! the network. This crate is the layer that makes those conversations
//! real: framing, per-call deadlines, bounded retry with exponential
//! backoff and deterministic jitter, connection reuse, and a typed
//! failure taxonomy, so every control-plane layer above it inherits
//! timeout/retry/partial-failure semantics instead of assuming an
//! infallible in-process channel.
//!
//! Layers, bottom up:
//!
//! - [`frame`] — one message on a byte stream: 12-byte header (magic,
//!   version, length, a word-at-a-time 32-bit checksum) + payload.
//!   Truncation, corruption, and protocol mismatch — a frame of another
//!   version included — are all typed [`WireError`]s, never hangs.
//! - [`transport`] — the [`Transport`] trait (one request/response
//!   exchange under a deadline) with two production implementations:
//!   [`InProcTransport`] (a direct call into a service hosted in this
//!   process, preserving the original single-process deployment) and
//!   [`TcpTransport`] (framed loopback or cross-host TCP with connection
//!   reuse). Servers host a [`Service`] via [`InProcServer`] /
//!   [`TcpServer`], which run it on the thread a request arrived on.
//! - [`client`] — [`Client`]: typed serde calls with deadline + retry
//!   policy, per-RPC latency histograms and retry/timeout/byte counters
//!   recorded into a [`cpms_obs::MetricsRegistry`].
//! - [`faulty`] — [`FaultyTransport`]: a deterministic, seeded
//!   fault-injecting wrapper (drop / delay / duplicate / truncate) for
//!   robustness tests.
//!
//! Serialization is `serde_json` over the payload bytes: every message a
//! peer sends or receives is an ordinary `#[derive(Serialize,
//! Deserialize)]` type in the crate that owns it. Bulk bytes do not ride
//! as JSON text: a payload may end in `0x00` plus a raw tail
//! ([`with_tail`] / [`split_tail`], [`Client::call_tail`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod faulty;
pub mod frame;
pub mod transport;

pub use client::{split_tail, with_tail, Client, ClientStats, RetryPolicy};
pub use error::WireError;
pub use faulty::{FaultPlan, FaultStats, FaultSwitch, FaultyTransport};
pub use transport::{InProcServer, InProcTransport, Service, TcpServer, TcpTransport, Transport};

/// The next uniform draw in `[0, 1)` of the splitmix64 stream whose
/// state is `state`: deterministic and lock-free, so retry jitter and
/// fault plans replay from their seeds.
fn splitmix_unit(state: &std::sync::atomic::AtomicU64) -> f64 {
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut z = state
        .fetch_add(GAMMA, std::sync::atomic::Ordering::Relaxed)
        .wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}
