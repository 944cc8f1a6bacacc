//! The workloads: what each sets up, what one round of it runs, and what
//! its floor is. See `README.md` for why each exists.

use crate::gen::{self, Object, Op, OpGen};
use crate::load::{
    closed_loop_gets, is_exact, open_loop_gets, Conns, Cursor, HttpConn, Tally, Target,
};
use crate::rig::Rig;
use crate::trace::Tracer;
use cpms_httpd::http::request_head;
use cpms_mgmt::Controller;
use cpms_model::{ContentId, ContentKind, Priority, UrlPath};
use cpms_store::{fnv64, synthetic_body, ContentStore};
use cpms_urltable::SnapshotHandle;
use rand::rngs::StdRng;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    RelaySmall,
    RelayLarge,
    PublishChurn,
    ShipBulk,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::RelaySmall,
        Kind::RelayLarge,
        Kind::PublishChurn,
        Kind::ShipBulk,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::RelaySmall => "relay-small",
            Kind::RelayLarge => "relay-large",
            Kind::PublishChurn => "publish-churn",
            Kind::ShipBulk => "ship-bulk",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn is_churn(self) -> bool {
        self == Kind::PublishChurn
    }

    pub fn is_ship(self) -> bool {
        self == Kind::ShipBulk
    }
}

/// Objects of the relay-small tree: the paper's §5.2 table size.
pub const SMALL_OBJECTS: usize = 8_700;
pub const ZIPF_ALPHA: f64 = 0.7;
pub const LARGE_OBJECTS: usize = 64;
pub const LARGE_BYTES: u64 = 256 * 1024;
/// Routing-only table entries under the publish-churn writer.
pub const COLD_ENTRIES: usize = 100_000;
pub const HOT_OBJECTS: usize = 1_024;
pub const SHIP_BYTES: u64 = 256 * 1024;
pub const NEWCONN_RATE: f64 = 500.0;
pub const READER_RATE: f64 = 50.0;
pub const LOSS_RATE: f64 = 0.10;
/// Every n-th publish of the churn writer is read back through the proxy.
const READ_BACK_EVERY: u64 = 16;

/// Where closed-loop GETs go.
#[derive(Debug, Clone, Copy)]
pub enum Via {
    /// The measured proxy.
    Proxy,
    /// Straight to each object's owning origin: the floor.
    Origins,
    /// Another proxy over the same table and origins.
    Other(std::net::SocketAddr),
}

/// One workload, set up and ready to run rounds.
pub struct Fixture {
    pub kind: Kind,
    pub rig: Rig,
    /// Objects preloaded into the stores and the table: what GETs ask for.
    pub objects: Vec<Object>,
    seqs: [Vec<u32>; 2],
    pos: [usize; 2],
    via: [Conns; 2],
    direct: [Conns; 2],
    churn: Option<Churn>,
    ship: Option<(Ship, CopyFloor)>,
}

/// The publish-churn writer's state, on the measured rig and on the
/// floor rig (same brokers and wire, near-empty table).
struct Churn {
    bodies: Vec<Vec<u8>>,
    writer: Writer,
    floor_rig: Rig,
    floor_writer: Writer,
}

struct Writer {
    ops: OpGen,
    publishes: u64,
    read_back: Option<HttpConn>,
}

/// The shipping loop's inputs and position: object bodies with their
/// checksums, the next object number and the seeded placement stream.
pub struct Ship {
    bodies: Vec<(Vec<u8>, u64)>,
    next_id: u64,
    placement: StdRng,
}

impl Fixture {
    /// Generates the workload's inputs from `seed` and starts its cluster.
    pub fn set_up(kind: Kind, seed: u64) -> Fixture {
        let (objects, alpha) = match kind {
            Kind::RelaySmall => (
                gen::object_tree(seed, "s", SMALL_OBJECTS, 64, 1024),
                ZIPF_ALPHA,
            ),
            Kind::RelayLarge => (
                gen::object_tree(seed, "l", LARGE_OBJECTS, LARGE_BYTES, LARGE_BYTES),
                0.0,
            ),
            Kind::PublishChurn => (
                gen::object_tree(seed, "h", HOT_OBJECTS, 1024, 1024),
                ZIPF_ALPHA,
            ),
            Kind::ShipBulk => (gen::object_tree(seed, "p", 4, SHIP_BYTES, SHIP_BYTES), 0.0),
        };
        let cold = if kind.is_churn() { COLD_ENTRIES } else { 0 };
        let rig = Rig::start(&objects, cold, None);
        let seqs = [0, 1].map(|lane| gen::request_sequence(seed, lane, objects.len(), alpha));
        let via = [0, 1].map(|_| Conns::new(Target::Via(rig.proxy.addr())));
        let direct = [0, 1].map(|_| Conns::new(Target::Direct(rig.origin_addrs())));
        let churn = kind.is_churn().then(|| Churn {
            bodies: gen::churn_bodies(),
            writer: Writer::new(seed, "w"),
            floor_rig: Rig::start(&[], 0, None),
            floor_writer: Writer::new(seed, "f"),
        });
        let ship = kind
            .is_ship()
            .then(|| (Ship::new(seed), CopyFloor::start()));
        Fixture {
            kind,
            rig,
            objects,
            seqs,
            pos: [0, 0],
            via,
            direct,
            churn,
            ship,
        }
    }

    /// One arm of a round, for `span`: the measured arm runs the
    /// workload's load against the system; the `floor` arm runs the same
    /// inputs with the system's own work taken out. The measured
    /// operation's tally comes first; the second is the reader beside the
    /// publish-churn writer.
    pub fn arm(
        &mut self,
        floor: bool,
        span: Duration,
        tracer: Option<&mut Tracer>,
    ) -> (Tally, Option<Tally>) {
        let via = if floor { Via::Origins } else { Via::Proxy };
        match self.kind {
            Kind::RelaySmall | Kind::RelayLarge => (self.gets(via, span, tracer), None),
            Kind::PublishChurn => {
                let (writer, reader) = self.churn(floor, span, tracer);
                (writer, Some(reader))
            }
            Kind::ShipBulk => {
                let (ship, copy) = self.ship.as_mut().expect("ship fixture");
                let tally = if floor {
                    copy.run(&ship.bodies, span)
                } else {
                    ship.run(&mut self.rig, span, tracer)
                };
                (tally, None)
            }
        }
    }

    /// The `i`-th object of the first load thread's request sequence.
    pub fn object_at(&self, i: usize) -> &Object {
        &self.objects[self.seqs[0][i % self.seqs[0].len()] as usize]
    }

    /// Closed-loop keep-alive GETs of the preloaded objects on two
    /// connections, one per thread.
    pub fn gets(&mut self, via: Via, span: Duration, tracer: Option<&mut Tracer>) -> Tally {
        let objects = &self.objects;
        let mut other;
        let conns = match via {
            Via::Proxy => &mut self.via,
            Via::Origins => &mut self.direct,
            Via::Other(addr) => {
                other = [0, 1].map(|_| Conns::new(Target::Via(addr)));
                &mut other
            }
        };
        let until = Instant::now() + span;
        let epoch = tracer.as_ref().map(|t| t.epoch());
        let mut total = Tally::default();
        let results: Vec<(Tally, Option<Tracer>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(self.pos.iter_mut())
                .zip(&self.seqs)
                .map(|((conns, pos), seq)| {
                    scope.spawn(move || {
                        let mut local = epoch.map(Tracer::new);
                        let mut cursor = Cursor {
                            objects,
                            seq,
                            pos: *pos,
                        };
                        let tally = closed_loop_gets(conns, &mut cursor, until, local.as_mut());
                        *pos = cursor.pos;
                        (tally, local)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread"))
                .collect()
        });
        let mut tracer = tracer;
        for (tally, local) in results {
            total.merge(tally);
            if let (Some(t), Some(local)) = (tracer.as_deref_mut(), local) {
                t.absorb(local);
            }
        }
        total
    }

    /// Open loop of GETs through the proxy on one kept-alive connection.
    pub fn paced_gets(&mut self, rate: f64, span: Duration) -> Tally {
        let mut cursor = Cursor {
            objects: &self.objects,
            seq: &self.seqs[1],
            pos: self.pos[1],
        };
        let tally = open_loop_gets(
            &mut self.via[1],
            &mut cursor,
            rate,
            span,
            false,
            None,
            || true,
        );
        self.pos[1] = cursor.pos;
        tally
    }

    /// Open loop of independent visitors through the proxy: a fresh
    /// connection per GET (connect, GET, read, close).
    pub fn visitors(&mut self, span: Duration) -> Tally {
        let mut cursor = Cursor {
            objects: &self.objects,
            seq: &self.seqs[0],
            pos: self.pos[0],
        };
        let tally = open_loop_gets(
            &mut self.via[0],
            &mut cursor,
            NEWCONN_RATE,
            span,
            true,
            None,
            || true,
        );
        self.pos[0] = cursor.pos;
        tally
    }

    /// Writer and reader side by side: the writer drives the controller
    /// in a closed loop while the reader GETs the hot set in an open loop
    /// on one kept-alive connection. On the floor the writer works on the
    /// near-empty floor rig and the reader talks to the origins directly.
    fn churn(
        &mut self,
        floor: bool,
        span: Duration,
        tracer: Option<&mut Tracer>,
    ) -> (Tally, Tally) {
        let churn = self.churn.as_mut().expect("churn fixture");
        let (rig, writer) = if floor {
            (&mut churn.floor_rig, &mut churn.floor_writer)
        } else {
            (&mut self.rig, &mut churn.writer)
        };
        let proxy = rig.proxy.addr();
        let controller = &mut rig.controller;
        let generations = controller.handle();
        let bodies = &churn.bodies;
        let conns = if floor {
            &mut self.direct[1]
        } else {
            &mut self.via[1]
        };
        let mut cursor = Cursor {
            objects: &self.objects,
            seq: &self.seqs[1],
            pos: self.pos[1],
        };
        let until = Instant::now() + span;
        let epoch = tracer.as_ref().map(|t| t.epoch());
        let mut reader_trace = epoch.map(Tracer::new);
        let mut tracer = tracer;
        let (writes, reads) = std::thread::scope(|scope| {
            let writing =
                scope.spawn(|| writer.run(controller, proxy, bodies, until, tracer.as_deref_mut()));
            let mut monotone = Monotone::new(generations);
            let reads = open_loop_gets(
                conns,
                &mut cursor,
                READER_RATE,
                span,
                false,
                reader_trace.as_mut(),
                || monotone.check(),
            );
            (writing.join().expect("writer thread"), reads)
        });
        if let (Some(t), Some(local)) = (tracer, reader_trace) {
            t.absorb(local);
        }
        self.pos[1] = cursor.pos;
        (writes, reads)
    }
}

impl Ship {
    pub fn new(seed: u64) -> Ship {
        Ship {
            bodies: (0..4)
                .map(|k| {
                    let body = synthetic_body(ContentId(2_100_000 + k), SHIP_BYTES);
                    let sum = fnv64(&body);
                    (body, sum)
                })
                .collect(),
            next_id: 0,
            placement: gen::rng(seed, gen::Stream::Ops, 1),
        }
    }

    /// Closed loop of `SHIP_BYTES` publications, each verified and then
    /// deleted outside the timing to bound memory.
    pub fn run(&mut self, rig: &mut Rig, span: Duration, mut tracer: Option<&mut Tracer>) -> Tally {
        let controller = &mut rig.controller;
        let until = Instant::now() + span;
        let mut tally = Tally::default();
        loop {
            let id = self.next_id;
            self.next_id += 1;
            let path: UrlPath = format!("/ship/d{}/o{id}.bin", id % 8)
                .parse()
                .expect("generated paths are valid");
            let nodes = gen::two_of_three(id as usize, &mut self.placement);
            let (body, sum) = &self.bodies[id as usize % self.bodies.len()];
            let start = Instant::now();
            let published = controller.publish_bytes(
                &path,
                ContentId(2_200_000 + id as u32),
                ContentKind::StaticHtml,
                Priority::Normal,
                &nodes,
                body,
            );
            let end = Instant::now();
            tally.attempted += 1;
            let live = published.is_ok()
                && committed(&rig.stores, &nodes, &path, *sum)
                && controller.table().lookup_exact(&path).map(|e| e.checksum()) == Some(*sum);
            let checked = Instant::now();
            // Clean-up, judged by the state it leaves and not by its reply:
            // on a lossy wire a delete whose answer was dropped is retried
            // and reports the file as already gone, and one whose every
            // attempt was dropped leaves a copy that is swept here.
            let _ = controller.delete(&path);
            for store in &rig.stores {
                let _ = store.delete(&path);
            }
            let deleted = controller.table().lookup_exact(&path).is_none();
            if live && deleted {
                tally.lat_ns.push((end - start).as_nanos() as u64);
                tally.bytes += body.len() as u64;
            } else {
                tally.failed += 1;
            }
            let done = Instant::now();
            if let Some(t) = tracer.as_deref_mut() {
                let op = t.record("op", None, id, start, done);
                t.record("mgmt.publish", Some(op), id, start, end);
                t.record("check", Some(op), id, end, checked);
                t.record("mgmt.delete", Some(op), id, checked, done);
            }
            if done >= until {
                tally.late_ns.push((done - until).as_nanos() as u64);
                break;
            }
        }
        tally.close_all_bytes();
        tally
    }
}

/// Whether every node in `nodes` holds `path` committed under `checksum`.
fn committed(
    stores: &[Arc<ContentStore>],
    nodes: &[cpms_model::NodeId],
    path: &UrlPath,
    checksum: u64,
) -> bool {
    nodes
        .iter()
        .all(|n| stores[n.index()].meta(path).map(|m| m.checksum) == Some(checksum))
}

/// Checks that URL-table generations read over a run never go back.
struct Monotone {
    handle: SnapshotHandle,
    last: u64,
}

impl Monotone {
    fn new(handle: SnapshotHandle) -> Monotone {
        let last = handle.generation();
        Monotone { handle, last }
    }

    fn check(&mut self) -> bool {
        let now = self.handle.generation();
        let ok = now >= self.last;
        self.last = now;
        ok
    }
}

impl Writer {
    fn new(seed: u64, prefix: &str) -> Writer {
        Writer {
            ops: OpGen::new(seed, prefix),
            publishes: 0,
            read_back: None,
        }
    }

    /// Applies generated ops to `controller` until `until`. Every
    /// `READ_BACK_EVERY`-th publish is fetched through the proxy at
    /// `proxy` right away and must carry the published bytes
    /// (commit-before-publish), outside the timing.
    fn run(
        &mut self,
        controller: &mut Controller,
        proxy: std::net::SocketAddr,
        bodies: &[Vec<u8>],
        until: Instant,
        mut tracer: Option<&mut Tracer>,
    ) -> Tally {
        let mut tally = Tally::default();
        let mut publish_ns = 0;
        loop {
            let op = self.ops.next_op();
            let start = Instant::now();
            let result = match &op {
                Op::Publish {
                    path,
                    content,
                    nodes,
                    body,
                } => controller.publish_bytes(
                    path,
                    *content,
                    ContentKind::StaticHtml,
                    Priority::Normal,
                    nodes,
                    &bodies[*body],
                ),
                Op::Replicate { path, target } => controller.replicate(path, *target),
                Op::Rename { from, to } => controller.rename(from, to),
                Op::Delete { path } => controller.delete(path),
            };
            let end = Instant::now();
            tally.attempted += 1;
            let mut ok = result.is_ok();
            if let Op::Publish { path, body, .. } = &op {
                self.publishes += 1;
                if ok && self.publishes.is_multiple_of(READ_BACK_EVERY) {
                    if self.read_back.is_none() {
                        self.read_back = HttpConn::connect(proxy).ok();
                    }
                    let head = request_head(path, None);
                    let response = match self.read_back.as_mut() {
                        Some(conn) => conn.get(head.as_bytes()),
                        None => Err(cpms_httpd::http::ParseError::ConnectionClosed),
                    };
                    ok = is_exact(&response, &bodies[*body]);
                    if !ok {
                        self.read_back = None;
                    }
                }
                if ok {
                    tally.bytes += bodies[*body].len() as u64;
                    publish_ns += (end - start).as_nanos() as u64;
                }
            }
            if ok {
                tally.lat_ns.push((end - start).as_nanos() as u64);
            } else {
                tally.failed += 1;
            }
            let checked = Instant::now();
            if let Some(t) = tracer.as_deref_mut() {
                let root = t.record("op", None, tally.attempted, start, checked);
                t.record(op.kind(), Some(root), tally.attempted, start, end);
                t.record("check", Some(root), tally.attempted, end, checked);
            }
            if checked >= until {
                tally.late_ns.push((checked - until).as_nanos() as u64);
                break;
            }
        }
        tally.close(publish_ns);
        tally
    }
}

/// The shipping floor: the same bytes copied over raw loopback TCP to
/// two sinks, `fnv64` computed on both ends and compared — what the wire
/// and the checksum alone cost, with no chunking, framing or store.
struct CopyFloor {
    sinks: Vec<(TcpStream, JoinHandle<()>)>,
}

impl CopyFloor {
    fn start() -> CopyFloor {
        let sinks = (0..2)
            .map(|_| {
                let listener = TcpListener::bind("127.0.0.1:0").expect("bind copy sink");
                let addr = listener.local_addr().expect("sink addr");
                let sink = std::thread::spawn(move || {
                    let Ok((mut stream, _)) = listener.accept() else {
                        return;
                    };
                    let mut len = [0u8; 8];
                    while stream.read_exact(&mut len).is_ok() {
                        let mut body = vec![0u8; u64::from_le_bytes(len) as usize];
                        if stream.read_exact(&mut body).is_err()
                            || stream.write_all(&fnv64(&body).to_le_bytes()).is_err()
                        {
                            return;
                        }
                    }
                });
                let stream = TcpStream::connect(addr).expect("connect copy sink");
                stream.set_nodelay(true).expect("nodelay");
                (stream, sink)
            })
            .collect();
        CopyFloor { sinks }
    }

    fn run(&mut self, bodies: &[(Vec<u8>, u64)], span: Duration) -> Tally {
        let until = Instant::now() + span;
        let mut tally = Tally::default();
        for (body, _) in bodies.iter().cycle() {
            let start = Instant::now();
            let sum = fnv64(body);
            let mut ok = true;
            for (stream, _) in &mut self.sinks {
                ok &= stream.write_all(&(body.len() as u64).to_le_bytes()).is_ok()
                    && stream.write_all(body).is_ok();
            }
            for (stream, _) in &mut self.sinks {
                let mut echoed = [0u8; 8];
                ok &= stream.read_exact(&mut echoed).is_ok() && u64::from_le_bytes(echoed) == sum;
            }
            let end = Instant::now();
            tally.attempted += 1;
            if ok {
                tally.lat_ns.push((end - start).as_nanos() as u64);
                tally.bytes += body.len() as u64;
            } else {
                tally.failed += 1;
            }
            if end >= until {
                break;
            }
        }
        tally.close_all_bytes();
        tally
    }
}

impl Drop for CopyFloor {
    fn drop(&mut self) {
        for (stream, sink) in self.sinks.drain(..) {
            drop(stream);
            let _ = sink.join();
        }
    }
}
