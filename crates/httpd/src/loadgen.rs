//! Reactor-driven multi-connection HTTP load generator.
//!
//! The request-latency bench and the proxy's high-concurrency smoke both
//! need to *hold open* thousands of keep-alive connections without
//! spending a thread on each — exactly the problem the proxy's data plane
//! solves, so the client side reuses the same machinery: one thread, one
//! [`Poller`](cpms_reactor::Poller), and a slab of non-blocking
//! connection state machines.
//!
//! Two driving modes:
//!
//! - **closed loop** (`pace: None`): each connection fires its next
//!   request the moment the previous response completes — classic
//!   benchmark hammering, concurrency = in-flight requests.
//! - **open loop** (`pace: Some(gap)`): each connection spaces request
//!   *starts* at least `gap` apart, staggered across connections, so
//!   10 000 connections can sit mostly idle while still producing a
//!   steady aggregate request rate. This is how real fleets of browsers
//!   look to a front end: connection count ≫ instantaneous load.
//!
//! `churn_every` closes and re-dials a connection after that many
//! requests, exercising the proxy's accept path under steady load.

use crate::http::{parse_response_head, request_head};
use cpms_model::UrlPath;
use cpms_reactor::{new_poller, Interest, Slab, SlabKey, TimerId, TimerWheel, Token};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Read scratch size; responses in this workspace are far smaller.
const SCRATCH: usize = 16 * 1024;
/// Upper bound on one poll wait, so the loop revisits timers regularly.
const POLL_CAP: Duration = Duration::from_millis(500);
/// Dial this many connections, then yield briefly: keeps the connect
/// storm from overflowing the listener's accept backlog at 10k scale.
const CONNECT_BATCH: usize = 64;

/// What to run: how many connections, how hard, for how long.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent keep-alive connections to hold open.
    pub connections: usize,
    /// Requests each connection issues over its lifetime.
    pub requests_per_conn: u64,
    /// Minimum gap between request starts on one connection; `None`
    /// means closed-loop (send the next request immediately).
    pub pace: Option<Duration>,
    /// Close and re-dial a connection after this many requests
    /// (0 = keep every connection for its whole life).
    pub churn_every: u64,
}

/// What happened: counters plus every per-request latency sample.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Requests that received a complete response.
    pub completed: u64,
    /// Requests lost to connection failures (not retried).
    pub errors: u64,
    /// Completed responses whose status was not 200.
    pub non_200: u64,
    /// Re-dials: scheduled churn plus error recovery.
    pub reconnects: u64,
    /// Send-to-last-body-byte latency of each completed request, ns.
    pub latencies_ns: Vec<u64>,
}

impl LoadReport {
    /// The `p`-th percentile (0.0..=1.0) of the latency samples, in
    /// nanoseconds; 0 when no samples were collected.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }
}

/// One keep-alive connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Unsent request bytes (a request head; requests have no body).
    out: Vec<u8>,
    out_pos: usize,
    /// Bytes read and not yet consumed by response parsing.
    inbuf: Vec<u8>,
    /// A request is in flight (sent or sending, response incomplete).
    awaiting: bool,
    /// `Some(n)`: response head parsed, `n` body bytes still to read.
    remaining: Option<usize>,
    /// Requests started on this logical connection (survives re-dials).
    issued: u64,
    since_churn: u64,
    started: Instant,
    last_send: Instant,
    timer: Option<TimerId>,
    interest: Interest,
}

impl Conn {
    fn desired_interest(&self) -> Interest {
        Interest {
            // Always read: a server-side close must wake us even while
            // the connection is idle between paced requests.
            read: true,
            write: self.out_pos < self.out.len(),
        }
    }
}

/// Everything the event loop threads through its helpers.
struct Driver<'a> {
    addr: SocketAddr,
    paths: &'a [UrlPath],
    config: &'a LoadConfig,
    poller: cpms_reactor::Poller,
    timers: TimerWheel,
    timer_conns: HashMap<TimerId, SlabKey>,
    conns: Slab<Conn>,
    scratch: Vec<u8>,
    report: LoadReport,
    /// Global request sequence, cycles the path list.
    seq: u64,
}

/// Drives `config.connections` keep-alive connections against `addr`,
/// cycling requests through `paths`, and returns the aggregate report.
/// Runs entirely on the calling thread.
///
/// # Errors
///
/// Connection-establishment or poller failures during setup; individual
/// connection failures mid-run are counted in the report instead.
///
/// # Panics
///
/// If `paths` is empty or `config.connections` is zero.
pub fn run(addr: SocketAddr, paths: &[UrlPath], config: &LoadConfig) -> io::Result<LoadReport> {
    assert!(!paths.is_empty(), "loadgen needs at least one path");
    assert!(
        config.connections > 0,
        "loadgen needs at least one connection"
    );
    let mut driver = Driver {
        addr,
        paths,
        config,
        poller: new_poller()?,
        // 1ms tick: pace timers quantize to the tick, so a coarse tick
        // would re-bunch the staggered send times into per-tick bursts.
        timers: TimerWheel::new(Duration::from_millis(1), 1024),
        timer_conns: HashMap::new(),
        conns: Slab::new(),
        scratch: vec![0u8; SCRATCH],
        report: LoadReport::default(),
        seq: 0,
    };

    // Dial everyone first; paced connections get their first-send timers
    // only once every dial is done. Scheduling during the dial loop would
    // leave the early offsets overdue by the time the event loop starts
    // (dialing 10k sockets takes a while), and they would all fire as one
    // synchronized burst instead of a flat aggregate rate.
    let paced = config.pace.filter(|p| !p.is_zero());
    let mut dialed: Vec<SlabKey> = Vec::with_capacity(config.connections);
    for idx in 0..config.connections {
        let stream = dial(addr)?;
        let key = driver.conns.insert(Conn {
            stream,
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::new(),
            awaiting: false,
            remaining: None,
            issued: 0,
            since_churn: 0,
            started: Instant::now(),
            last_send: Instant::now(),
            timer: None,
            interest: Interest::READ,
        });
        let conn = driver.conns.get_mut(key).expect("fresh key");
        driver
            .poller
            .register(conn.stream.as_raw_fd(), Token(key), Interest::READ)?;
        if paced.is_some() {
            dialed.push(key);
        } else {
            driver.start_request(key);
        }
        if (idx + 1) % CONNECT_BATCH == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    if let Some(pace) = paced {
        // Stagger first sends across one pace window from a common base,
        // so each period sees every connection exactly once, evenly.
        let base = Instant::now();
        for (idx, &key) in dialed.iter().enumerate() {
            let offset = (pace * idx as u32) / config.connections as u32;
            let id = driver.timers.schedule_at(base + offset);
            driver.conns.get_mut(key).expect("dialed key").timer = Some(id);
            driver.timer_conns.insert(id, key);
        }
    }

    let mut events = Vec::new();
    let mut fired: Vec<TimerId> = Vec::new();
    while !driver.conns.is_empty() {
        let now = Instant::now();
        let timeout = driver
            .timers
            .next_timeout(now)
            .map_or(POLL_CAP, |t| t.min(POLL_CAP));
        driver.poller.wait(&mut events, Some(timeout))?;
        for ev in &events {
            driver.on_event(ev.token.0, ev.readable || ev.is_error, ev.writable);
        }
        fired.clear();
        driver.timers.expire_into(Instant::now(), &mut fired);
        for &id in &fired {
            if let Some(key) = driver.timer_conns.remove(&id) {
                if let Some(conn) = driver.conns.get_mut(key) {
                    conn.timer = None;
                    driver.start_request(key);
                }
            }
        }
    }
    Ok(driver.report)
}

fn dial(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

impl Driver<'_> {
    /// Queues the next request head on a connection and pushes what the
    /// socket will take right away.
    fn start_request(&mut self, key: SlabKey) {
        let path = &self.paths[(self.seq % self.paths.len() as u64) as usize];
        let head = request_head(path, None);
        self.seq += 1;
        let Some(conn) = self.conns.get_mut(key) else {
            return;
        };
        conn.out.clear();
        conn.out_pos = 0;
        conn.out.extend_from_slice(head.as_bytes());
        conn.issued += 1;
        conn.since_churn += 1;
        conn.awaiting = true;
        conn.remaining = None;
        conn.started = Instant::now();
        conn.last_send = conn.started;
        if !self.flush_out(key) {
            self.recover(key, true);
            return;
        }
        self.sync_interest(key);
    }

    /// Writes pending request bytes; false means the connection died.
    fn flush_out(&mut self, key: SlabKey) -> bool {
        let Some(conn) = self.conns.get_mut(key) else {
            return true;
        };
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }

    fn on_event(&mut self, key: SlabKey, readable: bool, writable: bool) {
        if self.conns.get(key).is_none() {
            return; // stale token from a slot recycled this batch
        }
        if writable && !self.flush_out(key) {
            self.recover(key, true);
            return;
        }
        if readable && !self.read_and_parse(key) {
            return; // recover() already ran inside
        }
        self.sync_interest(key);
    }

    /// Reads everything available and advances response parsing; false
    /// means the connection was torn down (recovered or finished).
    fn read_and_parse(&mut self, key: SlabKey) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(key) else {
                return false;
            };
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    // Server closed. Mid-response that is an error; on an
                    // idle keep-alive connection it is routine (the peer
                    // shed it) and costs only a re-dial.
                    let was_awaiting = conn.awaiting;
                    self.recover(key, was_awaiting);
                    return false;
                }
                Ok(n) => {
                    let chunk = &self.scratch[..n];
                    conn.inbuf.extend_from_slice(chunk);
                    if !self.consume_responses(key) {
                        return false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.recover(key, true);
                    return false;
                }
            }
        }
    }

    /// Advances head parsing and body consumption over `inbuf`; false
    /// means the connection was torn down.
    fn consume_responses(&mut self, key: SlabKey) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(key) else {
                return false;
            };
            if !conn.awaiting {
                // Bytes with no request outstanding: protocol desync.
                if conn.inbuf.is_empty() {
                    return true;
                }
                self.recover(key, false);
                return false;
            }
            if conn.remaining.is_none() {
                match parse_response_head(&conn.inbuf) {
                    Ok(None) => return true, // head still incomplete
                    Ok(Some(head)) => {
                        if head.status != 200 {
                            self.report.non_200 += 1;
                        }
                        conn.inbuf.drain(..head.head_len);
                        conn.remaining = Some(head.content_length);
                    }
                    Err(_) => {
                        self.recover(key, true);
                        return false;
                    }
                }
            }
            let Some(conn) = self.conns.get_mut(key) else {
                return false;
            };
            if let Some(remaining) = conn.remaining {
                let take = remaining.min(conn.inbuf.len());
                conn.inbuf.drain(..take);
                let left = remaining - take;
                conn.remaining = Some(left);
                if left > 0 {
                    return true; // need more body bytes
                }
                if !self.complete_request(key) {
                    return false;
                }
            }
        }
    }

    /// One response fully received: record it and line up what's next.
    /// False when the connection was closed (finished or churned).
    fn complete_request(&mut self, key: SlabKey) -> bool {
        let Some(conn) = self.conns.get_mut(key) else {
            return false;
        };
        self.report.completed += 1;
        self.report
            .latencies_ns
            .push(conn.started.elapsed().as_nanos() as u64);
        conn.awaiting = false;
        conn.remaining = None;
        if conn.issued >= self.config.requests_per_conn {
            self.finish(key);
            return false;
        }
        if self.config.churn_every > 0 {
            let due = self
                .conns
                .get(key)
                .is_some_and(|c| c.since_churn >= self.config.churn_every);
            if due {
                if !self.redial(key) {
                    return false;
                }
                if let Some(conn) = self.conns.get_mut(key) {
                    conn.since_churn = 0;
                }
            }
        }
        self.schedule_next(key);
        self.conns.get(key).is_some()
    }

    /// Starts the next request now (closed loop) or arms a pace timer.
    fn schedule_next(&mut self, key: SlabKey) {
        let Some(pace) = self.config.pace.filter(|p| !p.is_zero()) else {
            self.start_request(key);
            return;
        };
        let Some(conn) = self.conns.get_mut(key) else {
            return;
        };
        let now = Instant::now();
        let due = conn.last_send + pace;
        if due <= now {
            self.start_request(key);
        } else {
            let id = self.timers.schedule_at(due);
            conn.timer = Some(id);
            self.timer_conns.insert(id, key);
        }
    }

    /// Replaces a connection's socket with a fresh one (same slab slot,
    /// same progress counters). False: the re-dial itself failed and the
    /// connection was abandoned.
    ///
    /// The re-dial is **non-blocking**: this runs mid-measurement, and a
    /// blocking connect that loses its SYN would stall the whole event
    /// loop for a retransmit timeout, polluting every other connection's
    /// latency samples. The handshake completes in the background; the
    /// next request's bytes sit queued until the socket turns writable,
    /// and a failed handshake surfaces as an error event on the fd.
    fn redial(&mut self, key: SlabKey) -> bool {
        let Some(conn) = self.conns.get_mut(key) else {
            return false;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        let fresh = cpms_reactor::connect_nonblocking(self.addr).inspect(|stream| {
            let _ = stream.set_nodelay(true);
        });
        match fresh {
            Ok(stream) => {
                conn.stream = stream;
                conn.out.clear();
                conn.out_pos = 0;
                conn.inbuf.clear();
                conn.interest = Interest::READ;
                self.report.reconnects += 1;
                let fd = conn.stream.as_raw_fd();
                if self
                    .poller
                    .register(fd, Token(key), Interest::READ)
                    .is_err()
                {
                    self.abandon(key);
                    return false;
                }
                true
            }
            Err(_) => {
                self.abandon(key);
                false
            }
        }
    }

    /// Handles a connection failure: the in-flight request (if any)
    /// becomes an error, the socket is replaced, and the connection
    /// resumes its remaining schedule.
    fn recover(&mut self, key: SlabKey, in_flight_failed: bool) {
        let Some(conn) = self.conns.get_mut(key) else {
            return;
        };
        if conn.awaiting && in_flight_failed {
            self.report.errors += 1;
        }
        let was_awaiting = conn.awaiting;
        conn.awaiting = false;
        conn.remaining = None;
        if let Some(id) = conn.timer.take() {
            self.timers.cancel(id);
            self.timer_conns.remove(&id);
            // The pace timer was pending: re-dial and re-arm it below.
        }
        let done = conn.issued >= self.config.requests_per_conn;
        if done && was_awaiting {
            // Last request lost; nothing left to send on this connection.
            self.finish(key);
            return;
        }
        if !self.redial(key) {
            return;
        }
        self.schedule_next(key);
    }

    /// Clean completion: deregister, drop, and forget the connection.
    fn finish(&mut self, key: SlabKey) {
        if let Some(conn) = self.conns.remove(key) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
        }
    }

    /// Abandons a connection whose re-dial failed, charging its unsent
    /// requests as errors so `completed + errors` stays accountable.
    fn abandon(&mut self, key: SlabKey) {
        if let Some(conn) = self.conns.remove(key) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.report.errors += self.config.requests_per_conn.saturating_sub(conn.issued);
        }
    }

    fn sync_interest(&mut self, key: SlabKey) {
        let Some(conn) = self.conns.get_mut(key) else {
            return;
        };
        let want = conn.desired_interest();
        if want != conn.interest {
            conn.interest = want;
            let fd = conn.stream.as_raw_fd();
            if self.poller.reregister(fd, Token(key), want).is_err() {
                self.recover(key, true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::{OriginServer, SiteContent};
    use crate::ContentAwareProxy;
    use cpms_model::{ContentId, ContentKind, NodeId};
    use cpms_urltable::{UrlEntry, UrlTable};

    fn start_stack() -> (OriginServer, ContentAwareProxy) {
        let mut site = SiteContent::new();
        site.add_static("/lg", b"loadgen-body".to_vec());
        let origin = OriginServer::start(NodeId(0), site).unwrap();
        let mut table = UrlTable::new();
        table
            .insert(
                "/lg".parse().unwrap(),
                UrlEntry::new(ContentId(0), ContentKind::StaticHtml, 16)
                    .with_locations([NodeId(0)]),
            )
            .unwrap();
        let proxy = ContentAwareProxy::start(table, vec![origin.addr()], 4).unwrap();
        (origin, proxy)
    }

    #[test]
    fn closed_loop_completes_every_request() {
        let (_origin, proxy) = start_stack();
        let paths: Vec<UrlPath> = vec!["/lg".parse().unwrap()];
        let report = run(
            proxy.addr(),
            &paths,
            &LoadConfig {
                connections: 16,
                requests_per_conn: 8,
                pace: None,
                churn_every: 0,
            },
        )
        .unwrap();
        assert_eq!(report.completed, 128);
        assert_eq!(report.errors, 0);
        assert_eq!(report.non_200, 0);
        assert_eq!(report.reconnects, 0);
        assert_eq!(report.latencies_ns.len(), 128);
        assert!(report.percentile_ns(0.99) >= report.percentile_ns(0.50));
        let mut proxy = proxy;
        proxy.shutdown();
    }

    #[test]
    fn paced_open_loop_with_churn_reconnects() {
        let (_origin, proxy) = start_stack();
        let paths: Vec<UrlPath> = vec!["/lg".parse().unwrap()];
        let report = run(
            proxy.addr(),
            &paths,
            &LoadConfig {
                connections: 8,
                requests_per_conn: 6,
                pace: Some(Duration::from_millis(10)),
                churn_every: 3,
            },
        )
        .unwrap();
        assert_eq!(report.completed, 48);
        assert_eq!(report.errors, 0);
        // 6 requests with churn_every=3: one mid-life re-dial per conn
        // (the second is superseded by normal completion).
        assert!(report.reconnects >= 8, "churn re-dials: {report:?}");
        let mut proxy = proxy;
        proxy.shutdown();
    }
}
