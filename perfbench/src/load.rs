//! Load generators: blocking I/O, one connection per thread, at most two
//! threads. Every response is checked byte for byte against the expected
//! body, outside the timed interval.

use crate::gen::Object;
use crate::trace::Tracer;
use cpms_httpd::http::{read_response, ParseError, Response};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One blocking HTTP connection. No retry and no transparent reconnect:
/// a broken exchange is a failed operation.
pub struct HttpConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpConn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<HttpConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(HttpConn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends the prepared request head and reads the whole response.
    pub fn get(&mut self, head: &[u8]) -> Result<Response, ParseError> {
        self.writer.write_all(head)?;
        read_response(&mut self.reader)
    }
}

/// Whether a response is the 200 carrying exactly `expected`.
pub fn is_exact(response: &Result<Response, ParseError>, expected: &[u8]) -> bool {
    matches!(response, Ok(r) if r.status == 200 && r.body == expected)
}

/// Where a GET thread sends its requests.
pub enum Target {
    /// Everything through one address (the proxy).
    Via(SocketAddr),
    /// Each request straight to the origin that owns the object — the
    /// floor. `origins[n]` is node n's address.
    Direct(Vec<SocketAddr>),
}

/// A GET thread's connections: one to the proxy, or one per origin of
/// which only one is ever in use at a time.
pub struct Conns {
    target: Target,
    conns: Vec<Option<HttpConn>>,
}

impl Conns {
    pub fn new(target: Target) -> Conns {
        let n = match &target {
            Target::Via(_) => 1,
            Target::Direct(origins) => origins.len(),
        };
        Conns {
            target,
            conns: (0..n).map(|_| None).collect(),
        }
    }

    fn slot(&self, object: &Object) -> (usize, SocketAddr) {
        match &self.target {
            Target::Via(addr) => (0, *addr),
            Target::Direct(origins) => {
                let n = object.nodes[0].index();
                (n, origins[n])
            }
        }
    }

    /// GETs `object` on the kept-alive connection, dialling it first if
    /// needed (dialling happens before the timed interval starts).
    fn get(&mut self, object: &Object) -> (Instant, Result<Response, ParseError>) {
        let (slot, addr) = self.slot(object);
        if self.conns[slot].is_none() {
            self.conns[slot] = HttpConn::connect(addr).ok();
        }
        let start = Instant::now();
        let response = match self.conns[slot].as_mut() {
            Some(conn) => conn.get(&object.head),
            None => Err(ParseError::ConnectionClosed),
        };
        if response.is_err() {
            self.conns[slot] = None;
        }
        (start, response)
    }

    /// Connects to `object`'s target, GETs it and closes: one visitor.
    fn get_fresh(&self, object: &Object) -> Result<Response, ParseError> {
        let (_, addr) = self.slot(object);
        HttpConn::connect(addr)?.get(&object.head)
    }
}

/// What one thread (or several, merged) did in one arm of a round.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Latency of each successful operation.
    pub lat_ns: Vec<u64>,
    /// Verified body bytes.
    pub bytes: u64,
    /// Operations per second: closed loop, completions over the time
    /// spent inside operations, summed over threads; open loop,
    /// completions over the time from the first due to the last response.
    pub ops_s: f64,
    /// Verified bytes per second, on the same base as `ops_s`.
    pub bytes_s: f64,
    /// How late the generator ran: open loop, how long after its due time
    /// each send started; closed loop, how far past the end of its window
    /// the last operation of each thread finished.
    pub late_ns: Vec<u64>,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.lat_ns.extend(other.lat_ns);
        self.bytes += other.bytes;
        self.ops_s += other.ops_s;
        self.bytes_s += other.bytes_s;
        self.late_ns.extend(other.late_ns);
    }

    /// Closes a closed-loop tally: operations over the time inside
    /// operations, bytes over `byte_ns`, the time inside the operations
    /// that carried them.
    pub fn close(&mut self, byte_ns: u64) {
        let busy: u64 = self.lat_ns.iter().sum();
        if busy > 0 {
            self.ops_s = self.lat_ns.len() as f64 / (busy as f64 / 1e9);
        }
        if byte_ns > 0 {
            self.bytes_s = self.bytes as f64 / (byte_ns as f64 / 1e9);
        }
    }

    /// Closes a closed-loop tally in which every operation carried bytes.
    pub fn close_all_bytes(&mut self) {
        self.close(self.lat_ns.iter().sum());
    }

    /// Closes an open-loop tally: rates over the span from the first due
    /// time to the last response.
    fn close_open(&mut self, span: Duration) {
        self.ops_s = self.lat_ns.len() as f64 / span.as_secs_f64();
        self.bytes_s = self.bytes as f64 / span.as_secs_f64();
    }
}

/// One thread's position in its pre-drawn request sequence.
pub struct Cursor<'a> {
    pub objects: &'a [Object],
    pub seq: &'a [u32],
    pub pos: usize,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> &'a Object {
        let object = &self.objects[self.seq[self.pos % self.seq.len()] as usize];
        self.pos += 1;
        object
    }
}

/// Closed loop: the next GET goes out when the previous one is checked,
/// until `until`. Latency is send → last body byte.
pub fn closed_loop_gets(
    conns: &mut Conns,
    cursor: &mut Cursor<'_>,
    until: Instant,
    mut tracer: Option<&mut Tracer>,
) -> Tally {
    let mut tally = Tally::default();
    loop {
        let object = cursor.next();
        let (start, response) = conns.get(object);
        let end = Instant::now();
        tally.attempted += 1;
        if is_exact(&response, &object.body) {
            tally.lat_ns.push((end - start).as_nanos() as u64);
            tally.bytes += object.body.len() as u64;
        } else {
            tally.failed += 1;
        }
        let checked = Instant::now();
        if let Some(t) = tracer.as_deref_mut() {
            let op = t.record("op", None, tally.attempted, start, checked);
            t.record("http.get", Some(op), tally.attempted, start, end);
            t.record("check", Some(op), tally.attempted, end, checked);
        }
        if checked >= until {
            tally.late_ns.push((checked - until).as_nanos() as u64);
            break;
        }
    }
    tally.close_all_bytes();
    tally
}

/// Sleeps until `due`; returns the instant it woke.
fn wait_until(due: Instant) -> Instant {
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
        return Instant::now();
    }
    now
}

/// Open loop: one GET every `1/rate` seconds for `span`, whether or not
/// earlier ones are done; each is timed from the moment it was *due*, so
/// a stall charges every request queued behind it. `fresh` dials a new
/// connection per request (independent visitors) instead of keeping one
/// alive. `after_each` runs after each response, outside the timing.
pub fn open_loop_gets(
    conns: &mut Conns,
    cursor: &mut Cursor<'_>,
    rate: f64,
    span: Duration,
    fresh: bool,
    mut tracer: Option<&mut Tracer>,
    mut after_each: impl FnMut() -> bool,
) -> Tally {
    let mut tally = Tally::default();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let begin = Instant::now();
    let count = (span.as_secs_f64() * rate).round() as u32;
    for i in 0..count {
        let due = begin + interval * i;
        let woke = wait_until(due);
        let object = cursor.next();
        let response = if fresh {
            conns.get_fresh(object)
        } else {
            conns.get(object).1
        };
        let end = Instant::now();
        tally.attempted += 1;
        tally.late_ns.push((woke - due).as_nanos() as u64);
        let ok = is_exact(&response, &object.body) & after_each();
        if ok {
            tally.lat_ns.push((end - due).as_nanos() as u64);
            tally.bytes += object.body.len() as u64;
        } else {
            tally.failed += 1;
        }
        if let Some(t) = tracer.as_deref_mut() {
            let checked = Instant::now();
            let op = t.record("op", None, tally.attempted, due, checked);
            t.record("queued", Some(op), tally.attempted, due, woke);
            t.record("http.get", Some(op), tally.attempted, woke, end);
            t.record("check", Some(op), tally.attempted, end, checked);
        }
    }
    tally.close_open(begin.elapsed());
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::object_tree;
    use cpms_httpd::http::response_head;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A keep-alive server answering every request with `body`, stalling
    /// `stall` before the answer to request number `stall_at`.
    fn stub_server(
        body: Vec<u8>,
        status: u16,
        stall_at: usize,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut served = 0;
            loop {
                let mut line = String::new();
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => return,
                        Ok(_) if line == "\r\n" => break,
                        Ok(_) => {}
                    }
                }
                if served == stall_at {
                    std::thread::sleep(stall);
                }
                served += 1;
                // One write: head and body in two segments would wait
                // out Nagle and the client's delayed ACK.
                let mut response = response_head(status, body.len(), true).into_bytes();
                response.extend_from_slice(&body);
                if writer.write_all(&response).is_err() {
                    return;
                }
            }
        });
        (addr, handle)
    }

    fn one_object() -> Vec<Object> {
        object_tree(1, "t", 1, 64, 64)
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        let objects = one_object();
        let (addr, server) =
            stub_server(objects[0].body.clone(), 200, 5, Duration::from_millis(50));
        let mut conns = Conns::new(Target::Via(addr));
        let mut cursor = Cursor {
            objects: &objects,
            seq: &[0],
            pos: 0,
        };
        // 200 req/s: requests 6.. fall due every 5 ms while request 5 is
        // still stalled, so they start late and must be charged for it.
        let tally = open_loop_gets(
            &mut conns,
            &mut cursor,
            200.0,
            Duration::from_millis(100),
            false,
            None,
            || true,
        );
        drop(conns);
        server.join().unwrap();
        assert_eq!((tally.attempted, tally.failed), (20, 0));
        let ms = |i: usize| tally.lat_ns[i] as f64 / 1e6;
        assert!(ms(4) < 20.0, "before the stall: {} ms", ms(4));
        assert!(ms(5) >= 50.0, "the stalled request: {} ms", ms(5));
        assert!(
            ms(6) >= 40.0 && ms(8) >= 30.0,
            "requests queued behind the stall inherit it: {} ms, {} ms",
            ms(6),
            ms(8)
        );
        assert!(ms(19) < 20.0, "the backlog drains: {} ms", ms(19));
        assert!(
            tally.late_ns[6] >= 40_000_000,
            "lateness is reported: {} ns",
            tally.late_ns[6]
        );
    }

    #[test]
    fn corrupted_body_and_misrouted_404_are_failures() {
        let objects = one_object();
        let mut corrupted = objects[0].body.clone();
        corrupted[10] ^= 0xFF;
        for (body, status) in [(corrupted, 200), (objects[0].body.clone(), 404)] {
            let (addr, server) = stub_server(body, status, usize::MAX, Duration::ZERO);
            let mut conns = Conns::new(Target::Via(addr));
            let mut cursor = Cursor {
                objects: &objects,
                seq: &[0],
                pos: 0,
            };
            let tally = closed_loop_gets(
                &mut conns,
                &mut cursor,
                Instant::now() + Duration::from_millis(20),
                None,
            );
            drop(conns);
            server.join().unwrap();
            assert!(tally.attempted > 0);
            assert_eq!(tally.failed, tally.attempted, "status {status}");
            assert!(tally.lat_ns.is_empty());
        }
    }
}
