//! Fault-injection robustness for the networked management plane: broker
//! RPCs through lossy and poisoned transports, raw socket abuse against a
//! live TCP daemon, and distributor promotion under heartbeat packet loss.

use cpms_dispatch::failover::{
    BackupDistributor, HeartbeatListener, HeartbeatSender, MonitorVerdict,
};
use cpms_mgmt::{AgentError, Broker, BrokerState};
use cpms_model::{ContentId, NodeId, UrlPath};
use cpms_store::{synthetic_body, ShipRequest, Shipper};
use cpms_wire::{FaultPlan, FaultyTransport, InProcServer, Transport, WireError};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

mod util;
use util::{retry, with_deadline};

/// Whole-test deadline: generous against slow CI, far under the harness
/// timeout, and it names the wedged test in the panic.
const TEST_DEADLINE: Duration = Duration::from_secs(60);

fn p(s: &str) -> UrlPath {
    s.parse().unwrap()
}

/// Satellite 1: a broker RPC round-trip must survive at least 10% injected
/// frame loss purely through the client's retry/backoff. `Stat` is
/// idempotent, so at-least-once retry semantics are safe here.
#[test]
fn broker_rpcs_survive_fifteen_percent_frame_loss() {
    with_deadline("fifteen_percent_frame_loss", TEST_DEADLINE, || {
        let mut handle = Broker::spawn_wrapped(BrokerState::new(NodeId(0), 1 << 20), |inner| {
            Arc::new(FaultyTransport::new(inner, FaultPlan::lossy(0x10_55, 0.15)))
        });
        assert_eq!(handle.transport_kind(), "faulty");

        // The wire client's own retry absorbs most loss; the outer budget
        // covers the tail where a whole RPC exhausts its attempts.
        let body = synthetic_body(ContentId(1), 32);
        retry("store through 15% loss", 3, || {
            Shipper::new().push(&handle, &p("/lossy.html"), ContentId(1), 0, &body, false)
        });

        let mut successes = 0u32;
        for _ in 0..100 {
            let stats = handle.store_stats().expect("retry absorbs loss");
            assert_eq!(stats.objects, 1);
            successes += 1;
        }
        let stats = handle.transport_stats();
        assert_eq!(successes, 100);
        assert_eq!(stats.failures, 0, "no RPC may fail outright");
        assert!(
            stats.retries > 0,
            "15% loss must have forced at least one retry"
        );
        handle.shutdown().expect("clean shutdown after the abuse");
    })
}

/// Satellite 1: a poisoned (truncating) transport must surface a typed
/// [`WireError`] — never a hang, never a panic — and the error must carry
/// the truncation diagnosis at its root.
#[test]
fn poisoned_frame_surfaces_typed_error() {
    with_deadline("poisoned_frame", TEST_DEADLINE, || {
        let mut handle = Broker::spawn_wrapped(BrokerState::new(NodeId(3), 1 << 20), |inner| {
            Arc::new(FaultyTransport::new(inner, FaultPlan::poisoned(0xBAD)))
        });
        let err = handle
            .dispatch(ShipRequest::Stat)
            .expect_err("every frame is cut");
        match err {
            AgentError::Transport { node, error } => {
                assert_eq!(node, NodeId(3));
                assert!(
                    matches!(error.root(), WireError::Truncated { .. }),
                    "root cause must be the truncation, got {error:?}"
                );
            }
            other => panic!("expected a transport error, got {other:?}"),
        }
        handle.shutdown();
    })
}

/// A raw TCP client writing a partial frame then vanishing must not take
/// the daemon down, wedge its executor, or corrupt later RPCs.
#[test]
fn tcp_daemon_survives_partial_frames_and_garbage() {
    with_deadline("partial_frames", TEST_DEADLINE, || {
        let mut host = Broker::bind(
            "127.0.0.1:0".parse().unwrap(),
            BrokerState::new(NodeId(0), 1 << 20),
        )
        .unwrap();
        let addr = host.addr().expect("tcp daemon has an address");

        // Half a header, then hang up.
        let mut socket = std::net::TcpStream::connect(addr).unwrap();
        let [m0, m1] = cpms_wire::frame::MAGIC;
        socket
            .write_all(&[m0, m1, cpms_wire::frame::VERSION])
            .unwrap();
        drop(socket);
        // A full bogus header announcing a huge frame, then hang up.
        let mut socket = std::net::TcpStream::connect(addr).unwrap();
        socket
            .write_all(&[0xFF; cpms_wire::frame::HEADER_LEN])
            .unwrap();
        drop(socket);

        // The daemon still answers well-formed clients. Budgeted: the
        // garbage connections above may still be draining on slow CI.
        let remote = Broker::connect(NodeId(0), addr);
        let stats = retry("probe after garbage frames", 3, || remote.store_stats());
        assert_eq!(stats.objects, 0);
        host.shutdown().expect("clean shutdown");
    })
}

/// Satellite 2: promotion under packet loss. Heartbeats cross a lossy wire
/// with no retry (the next beat supersedes a lost one); the backup must
/// still track the highest table generation that reached it — the number
/// a promoted backup publishes above — and declare the primary failed at
/// its threshold once the primary goes silent.
#[test]
fn backup_promotes_after_heartbeats_under_packet_loss() {
    with_deadline("promotion_under_loss", TEST_DEADLINE, || {
        let listener = HeartbeatListener::new(BackupDistributor::new(3));
        let backup = listener.handle();
        let (transport, mut server) = InProcServer::spawn(listener);
        let faults = Arc::new(FaultyTransport::new(
            Arc::new(transport),
            FaultPlan::lossy(0x5EED_BEA7, 0.30),
        ));
        let mut sender = HeartbeatSender::new(Arc::clone(&faults) as Arc<dyn Transport>);

        // A beat whose request was not dropped reached the backup, even if
        // its ack was lost on the way back.
        let mut highest_delivered = 0u64;
        let mut lost = 0u32;
        for round in 0..30u64 {
            // The primary publishes table generations as it goes.
            let generation = round / 3;
            let dropped_before = faults.stats().dropped_requests;
            if let Err(e) = sender.beat(generation) {
                assert!(
                    matches!(e.root(), WireError::Timeout { .. } | WireError::Closed),
                    "losses must look like timeouts, got {e:?}"
                );
                lost += 1;
            }
            if faults.stats().dropped_requests == dropped_before {
                highest_delivered = generation;
            }
        }
        assert!(lost > 0, "30% loss must lose some beats");
        assert!(highest_delivered > 0, "30% loss must deliver some beats");

        // Primary goes silent; the backup crosses its miss threshold.
        server.stop();
        let mut b = backup.lock();
        assert_eq!(b.last_seen_generation(), highest_delivered);
        assert_eq!(b.generation_regressions(), 0, "loss is not a regression");
        assert_eq!(
            b.on_heartbeat_missed(),
            MonitorVerdict::Suspicious { missed: 1 }
        );
        assert_eq!(
            b.on_heartbeat_missed(),
            MonitorVerdict::Suspicious { missed: 2 }
        );
        assert_eq!(b.on_heartbeat_missed(), MonitorVerdict::PrimaryFailed);
    })
}

/// Tracing satellite: retries are *attempts*, not new logical calls. N
/// successful RPCs through a lossy transport must record exactly N
/// `wire.call` spans, with the injected loss visible only as extra
/// `wire.attempt` children under them.
#[test]
fn lossy_rpcs_record_one_logical_span_per_call() {
    with_deadline("lossy_span_accounting", TEST_DEADLINE, || {
        let registry = Arc::new(cpms_obs::MetricsRegistry::new());
        let handle = Broker::spawn_wrapped(BrokerState::new(NodeId(5), 1 << 20), |inner| {
            Arc::new(FaultyTransport::new(inner, FaultPlan::lossy(0x10_55, 0.15)))
        });
        handle.attach_metrics(&registry);

        const CALLS: usize = 40;
        for _ in 0..CALLS {
            handle.store_stats().expect("retry absorbs loss");
        }

        let stats = handle.transport_stats();
        assert!(stats.retries > 0, "15% loss must have forced retries");
        let spans = registry.spans().snapshot();
        let calls = spans.iter().filter(|r| r.name == "wire.call").count();
        let attempts = spans.iter().filter(|r| r.name == "wire.attempt").count();
        assert_eq!(
            calls, CALLS,
            "one logical wire.call span per RPC, retries or not"
        );
        assert_eq!(
            attempts,
            CALLS + stats.retries as usize,
            "every retry shows up as one extra attempt span"
        );
        // Every attempt must sit under some logical call in the same trace.
        for attempt in spans.iter().filter(|r| r.name == "wire.attempt") {
            let parent = attempt.parent.expect("attempts are never roots");
            assert!(
                spans
                    .iter()
                    .any(|r| r.name == "wire.call" && r.span == parent && r.trace == attempt.trace),
                "attempt {attempt:?} must parent to a wire.call in its trace"
            );
        }
    })
}

/// Tracing satellite: a trace-capable client talking to an extension-less
/// peer (one that never sets `FLAG_TRACE_CAPABLE` on its frames) must
/// degrade to plain untraced frames — the extension is negotiated, never
/// assumed.
#[test]
fn extensionless_peer_receives_plain_frames() {
    use cpms_wire::frame::{self, TracedFrameOrEof};
    with_deadline("extensionless_peer", TEST_DEADLINE, || {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let seen: Arc<std::sync::Mutex<Vec<(u8, bool)>>> = Arc::default();
        let log = Arc::clone(&seen);
        let server = std::thread::spawn(move || {
            // An old build: echoes zero-flag frames and never reads
            // extensions beyond what the decoder strips.
            let (mut conn, _) = listener.accept().unwrap();
            while let Ok(TracedFrameOrEof::Frame(f)) = frame::read_frame_ext_or_eof(&mut conn) {
                log.lock().unwrap().push((f.flags, f.trace.is_some()));
                frame::write_frame(&mut conn, b"pong").unwrap();
            }
        });

        let transport = cpms_wire::TcpTransport::new(addr);
        let ctx = cpms_obs::TraceContext::root(true);
        let _trace = cpms_obs::ScopedTrace::activate(ctx);
        for _ in 0..3 {
            let reply = transport
                .call(b"ping", Duration::from_secs(5))
                .expect("plain peer still answers");
            assert_eq!(reply, b"pong");
        }
        assert!(
            !transport.peer_traces(),
            "a zero-flag peer must never be marked trace-capable"
        );
        drop(transport);
        server.join().unwrap();

        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 3);
        for &(flags, traced) in seen.iter() {
            assert_ne!(
                flags & frame::FLAG_TRACE_CAPABLE,
                0,
                "the new build always advertises capability"
            );
            assert!(
                !traced,
                "no trace extension may be attached before the peer advertises"
            );
        }
    })
}

/// Tracing satellite: raw garbage in the extension area of frames sent to
/// a live TCP daemon — truncated extension headers, over-announced
/// lengths, unknown versions, invalid contexts — must surface as typed
/// errors or degraded untraced frames, never a hang, and must not poison
/// the daemon for later well-formed clients.
#[test]
fn garbage_extension_area_never_wedges_the_daemon() {
    use cpms_wire::frame::{
        checksum, FLAG_TRACE, FLAG_TRACE_CAPABLE, MAGIC, TRACE_EXT_VERSION, VERSION,
    };
    with_deadline("garbage_extension", TEST_DEADLINE, || {
        let mut host = Broker::bind(
            "127.0.0.1:0".parse().unwrap(),
            BrokerState::new(NodeId(0), 1 << 20),
        )
        .unwrap();
        let addr = host.addr().expect("tcp daemon has an address");

        let raw_frame = |flags: u8, body: &[u8]| -> Vec<u8> {
            let mut out = vec![MAGIC[0], MAGIC[1], VERSION, flags];
            out.extend_from_slice(&u32::try_from(body.len()).unwrap().to_be_bytes());
            out.extend_from_slice(&checksum(body).to_be_bytes());
            out.extend_from_slice(body);
            out
        };
        let flagged = FLAG_TRACE | FLAG_TRACE_CAPABLE;

        // Body too short for the extension's own two-byte header.
        let too_short = raw_frame(flagged, &[TRACE_EXT_VERSION]);
        // Extension announces 200 context bytes; only 10 are present.
        let mut over = vec![TRACE_EXT_VERSION, 200];
        over.extend_from_slice(&[0xAB; 10]);
        let over_announced = raw_frame(flagged, &over);
        // Structurally valid but semantically dead context (all zeros):
        // the daemon must degrade to untraced and still read the payload.
        let mut zeroed = vec![TRACE_EXT_VERSION, 33];
        zeroed.extend_from_slice(&[0u8; 33]);
        zeroed.extend_from_slice(b"this is not a ship request");
        let zero_ctx = raw_frame(flagged, &zeroed);
        // Unknown extension version: same degradation contract.
        let mut unknown = vec![0x7F, 4, 1, 2, 3, 4];
        unknown.extend_from_slice(b"still not a ship request");
        let unknown_version = raw_frame(flagged, &unknown);

        for (what, frame_bytes) in [
            ("too-short extension", too_short),
            ("over-announced extension", over_announced),
            ("all-zero context", zero_ctx),
            ("unknown extension version", unknown_version),
        ] {
            let mut socket = std::net::TcpStream::connect(addr).unwrap();
            socket
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            socket.write_all(&frame_bytes).unwrap();
            // Half-close: the daemon sees EOF once it has consumed the
            // garbage. Whatever it does — typed-error reply, degraded
            // dispatch, or a dropped connection — the read must then
            // terminate. A hang trips the read timeout below.
            socket.shutdown(std::net::Shutdown::Write).unwrap();
            let mut sink = Vec::new();
            std::io::Read::read_to_end(&mut socket, &mut sink)
                .unwrap_or_else(|e| panic!("{what}: daemon must close or answer, got {e}"));
        }

        // The daemon still serves well-formed trace-capable clients.
        let remote = Broker::connect(NodeId(0), addr);
        let stats = retry("probe after extension garbage", 3, || remote.store_stats());
        assert_eq!(stats.objects, 0);
        host.shutdown().expect("clean shutdown");
    })
}

mod payload_tail {
    use cpms_store::ShipRequest;
    use cpms_wire::{split_tail, with_tail};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Any head the broker protocol can serialize — strings holding
        /// `0x00`, other control characters and replacement characters
        /// included — with any bytes behind it splits back into exactly
        /// that head and exactly those bytes.
        #[test]
        fn any_head_and_any_tail_split_back_exactly(
            text in prop::collection::vec(prop_oneof![0u8..0x20, any::<u8>()], 0..64),
            transfer in any::<u64>(),
            index in any::<u32>(),
            tail in prop::collection::vec(prop_oneof![Just(0u8), any::<u8>()], 0..300),
        ) {
            let request = ShipRequest::Chunk {
                transfer,
                index,
                data: String::from_utf8_lossy(&text).into_owned(),
                checksum: transfer.rotate_left(17),
            };
            let head = serde_json::to_string(&request).unwrap();
            prop_assert!(!head.as_bytes().contains(&0), "the writer escapes 0x00");
            let payload = with_tail(head.clone(), &tail);
            let (got_head, got_tail) = split_tail(&payload);
            prop_assert_eq!(got_head, head.as_bytes());
            prop_assert_eq!(got_tail, &tail[..]);
            let decoded: ShipRequest =
                serde_json::from_str(std::str::from_utf8(got_head).unwrap()).unwrap();
            prop_assert_eq!(serde_json::to_string(&decoded).unwrap(), head);
        }
    }
}
