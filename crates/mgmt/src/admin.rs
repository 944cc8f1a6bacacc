//! A newline-delimited-JSON admin API for management daemons.
//!
//! The [`Shell`](crate::shell::Shell) is the remote console; this socket
//! is how a cluster orchestrator (the `cpms-lab` harness) reaches the
//! shell of the one daemon that owns a controller. The protocol is one
//! JSON object per line in each direction:
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
//! The socket is for **control**. Introspection — metrics, traces, the
//! flight recorder's series — is served over HTTP at `/_cpms/*` by every
//! process, controller or not.

use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The longest request line the server reads, newline excluded. A longer
/// one is answered `ok: false` and its connection closed, so a peer that
/// never sends a newline costs this much memory and no more.
const MAX_REQUEST_LINE: usize = 64 * 1024;

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

/// What `stop()` needs from the accept thread: whether to stop, and a
/// clone of the connection being served, to shut down.
#[derive(Debug, Default)]
struct Live {
    stopped: bool,
    conn: Option<TcpStream>,
}

/// A TCP listener serving the ND-JSON admin protocol, dispatching each
/// request line to a handler. Connections are served one at a time on
/// the accept thread — the admin plane has a single driver, and
/// serializing keeps the handler a plain `FnMut` over mutable daemon
/// state.
#[derive(Debug)]
pub struct AdminServer {
    addr: SocketAddr,
    live: Arc<Mutex<Live>>,
    accept_thread: Option<JoinHandle<()>>,
}

impl AdminServer {
    /// Binds `addr` (port 0 picks an ephemeral port) and serves requests
    /// through `handler` on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates the listener bind failure.
    pub fn bind(
        addr: SocketAddr,
        mut handler: impl FnMut(&str) -> AdminResponse + Send + 'static,
    ) -> io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let live = Arc::new(Mutex::new(Live::default()));
        let accept_live = Arc::clone(&live);
        let accept_thread = std::thread::Builder::new()
            .name("cpms-admin".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    let Ok(stream) = conn else { continue };
                    {
                        // Checked and registered under one lock, so a
                        // `stop()` either sees this connection or is seen.
                        let mut live = accept_live.lock().expect("admin live lock");
                        if live.stopped {
                            break;
                        }
                        let Ok(clone) = stream.try_clone() else {
                            continue;
                        };
                        live.conn = Some(clone);
                    }
                    let _ = serve_connection(stream, &mut handler);
                    accept_live.lock().expect("admin live lock").conn = None;
                }
            })?;
        Ok(AdminServer {
            addr,
            live,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops serving and joins the accept thread. A connected client's
    /// read half is shut down: an idle connection ends at once, one
    /// mid-request still gets its answer.
    pub fn stop(&mut self) {
        let Some(accept_thread) = self.accept_thread.take() else {
            return;
        };
        if let Ok(mut live) = self.live.lock() {
            live.stopped = true;
            if let Some(conn) = &live.conn {
                let _ = conn.shutdown(Shutdown::Read);
            }
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = accept_thread.join();
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One connection's read-dispatch-write loop, until the client hangs up,
/// `stop()` shuts the socket down, or a request line runs past
/// [`MAX_REQUEST_LINE`].
fn serve_connection(
    stream: TcpStream,
    handler: &mut impl FnMut(&str) -> AdminResponse,
) -> io::Result<()> {
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        let limit = MAX_REQUEST_LINE as u64 + 1;
        if reader.by_ref().take(limit).read_until(b'\n', &mut line)? == 0 {
            return Ok(());
        }
        let too_long = line.len() > MAX_REQUEST_LINE && line.last() != Some(&b'\n');
        let request = line.trim_ascii();
        let response = if too_long {
            AdminResponse::err(format!(
                "request line too long (over {MAX_REQUEST_LINE} bytes)"
            ))
        } else if request.is_empty() {
            continue;
        } else {
            match serde_json::from_str::<AdminRequest>(&String::from_utf8_lossy(request)) {
                Ok(request) => handler(&request.cmd),
                Err(e) => AdminResponse::err(format!("bad request line: {e}")),
            }
        };
        let encoded = serde_json::to_string(&response).expect("response serializes");
        writer.write_all(encoded.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if too_long {
            return Ok(());
        }
    }
}

/// A client for the ND-JSON admin protocol: one persistent connection,
/// one request/response pair per [`AdminClient::send`].
#[derive(Debug)]
pub struct AdminClient {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
}

impl AdminClient {
    /// Connects to an [`AdminServer`].
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: SocketAddr) -> io::Result<AdminClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(AdminClient {
            writer: BufWriter::new(stream.try_clone()?),
            reader: BufReader::new(stream),
        })
    }

    /// Sends one command line and reads its response.
    ///
    /// # Errors
    ///
    /// I/O failures, a closed connection, or an unparseable response.
    pub fn send(&mut self, cmd: &str) -> io::Result<AdminResponse> {
        let encoded = serde_json::to_string(&AdminRequest {
            cmd: cmd.to_string(),
        })
        .expect("request serializes");
        self.writer.write_all(encoded.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "admin server closed the connection",
            ));
        }
        serde_json::from_str(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_commands_and_failures() {
        let mut server = ping_server();
        let mut client = AdminClient::connect(server.addr()).unwrap();
        assert_eq!(client.send("ping").unwrap(), AdminResponse::ok("pong"));
        let bad = client.send("nope").unwrap();
        assert!(!bad.ok);
        assert!(bad.output.contains("unknown"));
        // Requests on the same connection keep working.
        assert_eq!(client.send("ping").unwrap(), AdminResponse::ok("pong"));
        server.stop();
        // After stop, new connections get no service.
        assert!(AdminClient::connect(server.addr())
            .and_then(|mut c| c.send("ping"))
            .is_err());
    }

    #[test]
    fn malformed_lines_answer_with_an_error() {
        let server = AdminServer::bind("127.0.0.1:0".parse().unwrap(), |_| {
            AdminResponse::ok("fine")
        })
        .unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        writer.write_all(b"this is not json\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        let response: AdminResponse = serde_json::from_str(&line).unwrap();
        assert!(!response.ok);
        assert!(response.output.contains("bad request line"));
    }

    fn ping_server() -> AdminServer {
        AdminServer::bind("127.0.0.1:0".parse().unwrap(), |cmd| {
            if cmd == "ping" {
                AdminResponse::ok("pong")
            } else {
                AdminResponse::err(format!("unknown {cmd:?}"))
            }
        })
        .unwrap()
    }

    #[test]
    fn over_long_lines_are_refused_and_the_next_client_served() {
        let server = ping_server();
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        let mut reader = BufReader::new(stream);
        // Exactly the limit still parses: padding is whitespace.
        let mut at_limit = br#"{"cmd": "ping"}"#.to_vec();
        at_limit.resize(MAX_REQUEST_LINE, b' ');
        writer.write_all(&at_limit).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(
            serde_json::from_str::<AdminResponse>(&line).unwrap(),
            AdminResponse::ok("pong")
        );
        // One byte more, and no newline ever: answered, then hung up on.
        writer.write_all(&vec![b'x'; MAX_REQUEST_LINE + 1]).unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        let refused: AdminResponse = serde_json::from_str(&line).unwrap();
        assert!(!refused.ok, "{refused:?}");
        assert!(refused.output.contains("too long"), "{refused:?}");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection closed");
        let mut next = AdminClient::connect(server.addr()).unwrap();
        assert_eq!(next.send("ping").unwrap(), AdminResponse::ok("pong"));
    }

    #[test]
    fn stop_is_prompt_with_an_idle_client_connected() {
        let mut server = ping_server();
        let mut idle = AdminClient::connect(server.addr()).unwrap();
        assert_eq!(idle.send("ping").unwrap(), AdminResponse::ok("pong"));
        let (done, stopped) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || {
            let started = std::time::Instant::now();
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
