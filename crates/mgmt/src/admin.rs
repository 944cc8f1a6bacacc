//! The admin API of a management daemon, as a [`cpms_wire`] service.
//!
//! The [`Shell`](crate::shell::Shell) is the remote console; this service
//! is how a cluster orchestrator (the `cpms-lab` harness) reaches the
//! shell of the one daemon that owns a controller. A daemon hosts
//! [`service`] on a [`cpms_wire::TcpServer`] and a driver calls it
//! through an [`AdminClient`]: one wire frame each way, each carrying one
//! JSON object.
//!
//! ```text
//! -> {"cmd": "publish /a.html html 1024 0,1"}
//! <- {"ok": true, "output": "published /a.html as c0"}
//! ```
//!
//! `ok` is `false` both for command errors ("no such node") and for
//! health commands that *detected* a problem (`audit` finding drift), so
//! a driver can gate on it directly.
//!
//! The wire supplies the rest, as it does for the brokers: a bound on
//! every request ([`cpms_wire::frame::MAX_FRAME`]), checksummed frames, a
//! thread per peer, so a peer stalled mid-frame holds only its own
//! connection, per-call deadlines, and the caller's trace context.
//!
//! The service is for **control**. Introspection — metrics, traces, the
//! flight recorder's series — is served over HTTP at `/_cpms/*` by every
//! process, controller or not.

use cpms_wire::{Client, RetryPolicy, Service, TcpTransport, WireError};
use serde::{Deserialize, Serialize};
use std::io::BufRead;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// How long one admin call may take: `audit` and `repair` visit every
/// node, each under its own wire deadlines and retries.
const ADMIN_DEADLINE: Duration = Duration::from_secs(30);

/// One admin request: a single shell command line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdminRequest {
    /// The command line, in the shell's command language.
    pub cmd: String,
}

/// The response to one admin request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdminResponse {
    /// Whether the command succeeded *and* found the system healthy.
    pub ok: bool,
    /// Human-readable output (or the error / failure detail).
    pub output: String,
}

impl AdminResponse {
    /// A successful response.
    #[must_use]
    pub fn ok(output: impl Into<String>) -> Self {
        AdminResponse {
            ok: true,
            output: output.into(),
        }
    }

    /// A failed response.
    #[must_use]
    pub fn err(output: impl Into<String>) -> Self {
        AdminResponse {
            ok: false,
            output: output.into(),
        }
    }
}

/// The admin protocol around `handler`, as a wire [`Service`]: each
/// request payload decodes to an [`AdminRequest`] whose command line the
/// handler answers. A payload that does not decode is answered `ok: false`
/// and never reaches the handler.
pub fn service(mut handler: impl FnMut(&str) -> AdminResponse + Send + 'static) -> impl Service {
    move |request: &[u8]| {
        let response = match std::str::from_utf8(request)
            .map_err(|e| format!("payload is not UTF-8: {e}"))
            .and_then(|text| serde_json::from_str::<AdminRequest>(text).map_err(|e| e.to_string()))
        {
            Ok(request) => handler(&request.cmd),
            Err(detail) => AdminResponse::err(format!("bad admin request: {detail}")),
        };
        serde_json::to_string(&response)
            .expect("admin responses always serialize")
            .into_bytes()
    }
}

/// A driver's handle on one daemon's admin [`service`]: a wire
/// [`Client`] with one persistent connection, made on the first call and
/// again after a failed one.
#[derive(Debug)]
pub struct AdminClient {
    client: Client,
}

impl AdminClient {
    /// A client for the admin service at `addr`. Does not connect yet.
    #[must_use]
    pub fn new(addr: SocketAddr) -> AdminClient {
        let transport = Arc::new(TcpTransport::new(addr));
        AdminClient {
            // Never retried: commands are not idempotent. A replayed
            // `publish` would publish twice under the next content id.
            client: Client::new(transport)
                .with_deadline(ADMIN_DEADLINE)
                .with_retry(RetryPolicy::no_retry()),
        }
    }

    /// Sends one command line and returns the daemon's answer.
    ///
    /// # Errors
    ///
    /// The call's [`WireError`]: the daemon unreachable or gone, the
    /// deadline passed, or an answer that does not decode.
    pub fn send(&self, cmd: &str) -> Result<AdminResponse, WireError> {
        self.client.call(&AdminRequest {
            cmd: cmd.to_string(),
        })
    }
}

/// Blocks until stdin ends, fails, or carries a `shutdown` line: how an
/// orchestrator holding a daemon's stdin pipe stops it, by closing the
/// pipe or on purpose.
pub fn until_stdin_closes() {
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) if line.trim() == "shutdown" => return,
            Ok(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpms_wire::frame::{
        encode_frame, read_frame_ext_or_eof, TracedFrameOrEof, HEADER_LEN, MAGIC, MAX_FRAME,
        VERSION,
    };
    use cpms_wire::{TcpServer, Transport};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    fn ping(cmd: &str) -> AdminResponse {
        if cmd == "ping" {
            AdminResponse::ok("pong")
        } else {
            AdminResponse::err(format!("unknown {cmd:?}"))
        }
    }

    fn ping_server() -> TcpServer<impl Service> {
        TcpServer::bind(loopback(), service(ping)).unwrap()
    }

    #[test]
    fn round_trips_commands_and_failures() {
        let mut server = ping_server();
        let client = AdminClient::new(server.addr());
        assert_eq!(client.send("ping").unwrap(), AdminResponse::ok("pong"));
        let bad = client.send("nope").unwrap();
        assert!(!bad.ok);
        assert!(bad.output.contains("unknown"));
        // Requests on the same connection keep working.
        assert_eq!(client.send("ping").unwrap(), AdminResponse::ok("pong"));
        server.stop();
        // After stop, new connections get no service.
        assert!(AdminClient::new(server.addr()).send("ping").is_err());
    }

    #[test]
    fn a_command_whose_answer_is_lost_is_not_sent_again() {
        // A peer that takes each request and hangs up without answering:
        // a retrying client would reconnect and run the command twice.
        let listener = std::net::TcpListener::bind(loopback()).unwrap();
        let addr = listener.local_addr().unwrap();
        let requests = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&requests);
        std::thread::spawn(move || {
            for mut conn in listener.incoming().flatten() {
                if conn.read(&mut [0; 64]).is_ok_and(|n| n > 0) {
                    seen.fetch_add(1, Ordering::SeqCst);
                }
            }
        });
        let client = AdminClient::new(addr);
        assert!(client.send("publish /a.html html 10 0").is_err());
        assert_eq!(
            requests.load(Ordering::SeqCst),
            1,
            "sent once, not replayed"
        );
    }

    #[test]
    fn undecodable_requests_answer_not_ok_and_skip_the_handler() {
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        let mut server = TcpServer::bind(
            loopback(),
            service(move |cmd| {
                seen.fetch_add(1, Ordering::SeqCst);
                ping(cmd)
            }),
        )
        .unwrap();
        let raw = TcpTransport::new(server.addr());
        for payload in [
            &b"this is not json"[..],
            b"{\"cmd\": 5}",
            b"{}",
            b"{\"cmd\": \"ping\"}\0tail",
            &[0xFF, 0xFE, b'{'],
        ] {
            let reply = raw.call(payload, Duration::from_secs(2)).unwrap();
            let response: AdminResponse =
                serde_json::from_str(std::str::from_utf8(&reply).unwrap()).unwrap();
            assert!(!response.ok, "{payload:?}: {response:?}");
            assert!(
                response.output.contains("bad admin request"),
                "{payload:?}: {response:?}"
            );
        }
        assert_eq!(calls.load(Ordering::SeqCst), 0, "the handler saw none");
        // The same connection still serves a good request.
        let reply = raw
            .call(br#"{"cmd": "ping"}"#, Duration::from_secs(2))
            .unwrap();
        assert_eq!(reply, br#"{"ok":true,"output":"pong"}"#);
        assert_eq!(raw.reconnects(), 0, "one connection throughout");
        server.stop();
    }

    #[test]
    fn hostile_bytes_cost_their_own_connection_and_stall_no_other_client() {
        let server = ping_server();
        let reads_eof = |mut stream: TcpStream| {
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut rest = Vec::new();
            // The server drops the connection: EOF, or a reset.
            let _ = stream.read_to_end(&mut rest);
            assert!(rest.is_empty(), "answered garbage with {rest:?}");
        };
        // Not a frame at all.
        let mut garbage = TcpStream::connect(server.addr()).unwrap();
        garbage.write_all(b"{\"cmd\": \"ping\"}\n").unwrap();
        reads_eof(garbage);
        // A well-formed header announcing a frame past the bound: refused
        // before a byte of it is allocated.
        let mut huge = TcpStream::connect(server.addr()).unwrap();
        let too_long = u32::try_from(MAX_FRAME + 1).unwrap().to_be_bytes();
        let mut header = vec![MAGIC[0], MAGIC[1], VERSION, 0];
        header.extend_from_slice(&too_long);
        header.extend_from_slice(&[0; 4]);
        assert_eq!(header.len(), HEADER_LEN);
        huge.write_all(&header).unwrap();
        reads_eof(huge);

        // A peer stalled mid-header holds only its own connection.
        let frame = encode_frame(br#"{"cmd": "ping"}"#);
        let mut staller = TcpStream::connect(server.addr()).unwrap();
        staller.write_all(&frame[..5]).unwrap();
        let client = AdminClient::new(server.addr());
        let start = Instant::now();
        assert_eq!(client.send("ping").unwrap(), AdminResponse::ok("pong"));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "served in {:?} beside a stalled peer",
            start.elapsed()
        );
        // ... and loses nothing for being slow.
        staller.write_all(&frame[5..]).unwrap();
        staller
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match read_frame_ext_or_eof(&mut staller).unwrap() {
            TracedFrameOrEof::Frame(reply) => {
                assert_eq!(reply.payload, br#"{"ok":true,"output":"pong"}"#);
            }
            TracedFrameOrEof::Eof => panic!("the stalled request went unanswered"),
        }
    }

    #[test]
    fn stop_is_prompt_with_an_idle_client_connected() {
        let mut server = ping_server();
        let idle = AdminClient::new(server.addr());
        assert_eq!(idle.send("ping").unwrap(), AdminResponse::ok("pong"));
        let (done, stopped) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || {
            let started = Instant::now();
            server.stop();
            let _ = done.send(started.elapsed());
        });
        let took = stopped
            .recv_timeout(Duration::from_secs(5))
            .expect("stop returned");
        stopper.join().unwrap();
        assert!(took < Duration::from_millis(50), "stop took {took:?}");
        assert!(idle.send("ping").is_err(), "the idle client was let go");
    }
}
