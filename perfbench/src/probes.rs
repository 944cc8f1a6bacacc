//! Layer probes: each times calls into one layer's public functions from
//! outside, on the workload's own cluster, table and inputs. Every probe
//! runs for about one `slice` of wall-clock time.

use crate::gen::{self, NODES};
use crate::load::Tally;
use crate::rig::{loopback, proxy_config, Rig};
use crate::stats::{median, percentile_ns, tail_ns};
use crate::workloads::{Fixture, Ship, Via, LOSS_RATE};
use cpms_dispatch::LiveRouter;
use cpms_httpd::http::parse_request_head;
use cpms_httpd::pool::SocketPool;
use cpms_httpd::ContentAwareProxy;
use cpms_mgmt::agent::StatusProbe;
use cpms_mgmt::AntiEntropyAuditor;
use cpms_model::{ContentId, ContentKind, NodeId, Priority, UrlPath};
use cpms_obs::{MetricsRegistry, SpanCollector, TracedSpan};
use cpms_reactor::{new_poller, waker_pair, Interest, TimerWheel, Token};
use cpms_store::{
    apply, fnv64, hex_encode, synthetic_body, ContentStore, ObjectMeta, ShipReply, ShipRequest,
    Shipper, StoreClient, StoreService,
};
use cpms_urltable::UrlEntry;
use cpms_wire::frame::{encode_frame, read_frame_ext_or_eof};
use cpms_wire::{Client, TcpServer, TcpTransport};
use rand::RngCore;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MIB: f64 = 1024.0 * 1024.0;

/// Values a probe measured: (metric name, value, samples behind it).
pub type Values = Vec<(&'static str, f64, u64)>;

/// Calls `f` in batches of `batch` until `slice` has passed (at least
/// one batch); returns the mean nanoseconds per call of each batch.
fn sample(slice: Duration, batch: u32, mut f: impl FnMut()) -> Vec<f64> {
    let until = Instant::now() + slice;
    let mut per_call = Vec::new();
    while per_call.is_empty() || Instant::now() < until {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(start.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    per_call
}

/// Median of per-batch means, in ns, with the number of calls made.
fn p50_ns(per_call: &[f64], batch: u32) -> (f64, u64) {
    (median(per_call), per_call.len() as u64 * u64::from(batch))
}

fn mib_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / MIB / (ns / 1e9)
}

fn path(text: String) -> UrlPath {
    text.parse().expect("generated paths are valid")
}

/// Thread → thread wake-up round trip through `waker_pair` and
/// `Poller::wait`, and arming plus cancelling one wheel timer.
pub fn reactor(slice: Duration) -> Values {
    let (wake_echo, echo_rx) = waker_pair().expect("waker pair");
    let (wake_main, main_rx) = waker_pair().expect("waker pair");
    let stop = Arc::new(AtomicBool::new(false));
    let echo = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut poller = new_poller().expect("poller");
            poller
                .register(echo_rx.fd(), Token(1), Interest::READ)
                .expect("register waker");
            let mut events = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                poller.wait(&mut events, None).expect("wait");
                echo_rx.drain();
                wake_main.wake();
            }
        })
    };
    let mut poller = new_poller().expect("poller");
    poller
        .register(main_rx.fd(), Token(1), Interest::READ)
        .expect("register waker");
    let mut events = Vec::new();
    let rtt = sample(slice, 1, || {
        wake_echo.wake();
        poller.wait(&mut events, None).expect("wait");
        main_rx.drain();
    });
    stop.store(true, Ordering::SeqCst);
    wake_echo.wake();
    echo.join().expect("echo thread");

    let mut wheel = TimerWheel::new(Duration::from_millis(1), 512);
    let timer = sample(slice, 64, || {
        let id = wheel.schedule_after(Instant::now(), Duration::from_secs(5));
        black_box(wheel.cancel(id));
    });
    let (rtt_ns, rtt_n) = p50_ns(&rtt, 1);
    let (timer_ns, timer_n) = p50_ns(&timer, 64);
    vec![
        ("reactor.wake_rtt_us", rtt_ns / 1e3, rtt_n),
        ("reactor.timer_arm_cancel_ns", timer_ns, timer_n),
    ]
}

/// Request-head parsing over the workload's own heads, and a pooled
/// backend connection checked out and released against the live origins.
pub fn httpd_calls(fx: &Fixture, slice: Duration) -> Values {
    let mut i = 0;
    let parse = sample(slice, 64, || {
        let object = fx.object_at(i);
        i += 1;
        black_box(parse_request_head(&object.head).expect("generated heads parse"));
    });
    let pool = SocketPool::prefork(fx.rig.origin_addrs(), 2).expect("prefork pool");
    let mut k = 0;
    let checkout = sample(slice, 64, || {
        let conn = pool.checkout(k % NODES).expect("pooled connection");
        pool.release(k % NODES, conn);
        k += 1;
    });
    let (parse_ns, parse_n) = p50_ns(&parse, 64);
    let (checkout_ns, checkout_n) = p50_ns(&checkout, 64);
    vec![
        ("httpd.parse_head_ns", parse_ns, parse_n),
        ("httpd.pool_checkout_ns", checkout_ns, checkout_n),
    ]
}

/// The GET path taken apart from outside: the same closed-loop GETs of
/// the workload's objects straight to the origins (the floor), through
/// the measured proxy, through a one-worker proxy, and through the proxy
/// with its span recording off and on.
pub fn get_path(fx: &mut Fixture, slice: Duration) -> Values {
    let direct = fx.gets(Via::Origins, slice, None);
    let proxied = fx.gets(Via::Proxy, slice, None);
    let direct_p50 = percentile_ns(&direct.lat_ns, 0.5) as f64;
    let proxied_p50 = percentile_ns(&proxied.lat_ns, 0.5) as f64;

    let mut single = ContentAwareProxy::start_with_config(
        fx.rig.controller.publisher().share(),
        fx.rig.origin_addrs(),
        Arc::new(MetricsRegistry::new()),
        proxy_config(1),
    )
    .expect("start one-worker proxy");
    let one_worker = fx.gets(Via::Other(single.addr()), slice, None);
    single.shutdown();

    let spans = Arc::clone(fx.rig.registry.spans());
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        spans.set_enabled(false);
        off.extend(fx.gets(Via::Proxy, slice / 4, None).lat_ns);
        spans.set_enabled(true);
        on.extend(fx.gets(Via::Proxy, slice / 4, None).lat_ns);
    }
    let tracing = percentile_ns(&on, 0.5) as f64 / percentile_ns(&off, 0.5).max(1) as f64;

    let snapshot = fx.rig.registry.snapshot();
    let reported = |name: &str| {
        snapshot
            .histogram(name)
            .map_or((0.0, 0), |h| (h.mean(), h.count))
    };
    let (request, request_n) = reported("proxy_request_ns");
    let (relay, relay_n) = reported("proxy_relay_ns");
    let (parse, parse_n) = reported("proxy_parse_ns");
    vec![
        (
            "httpd.origin_direct_p50_us",
            direct_p50 / 1e3,
            direct.lat_ns.len() as u64,
        ),
        (
            "httpd.origin_direct_mib_s",
            direct.bytes_s / MIB,
            direct.lat_ns.len() as u64,
        ),
        (
            "httpd.proxy_self_p50_us",
            (proxied_p50 - direct_p50) / 1e3,
            proxied.lat_ns.len() as u64,
        ),
        (
            "httpd.single_worker_p50_us",
            percentile_ns(&one_worker.lat_ns, 0.5) as f64 / 1e3,
            one_worker.lat_ns.len() as u64,
        ),
        ("obs.tracing_overhead_ratio", tracing, on.len() as u64),
        ("httpd.reported_request_mean_ns", request, request_n),
        ("httpd.reported_relay_mean_ns", relay, relay_n),
        ("httpd.reported_parse_mean_ns", parse, parse_n),
    ]
}

/// Independent visitors: the workload's objects fetched through the
/// proxy on a fresh connection each (connect, GET, read, close), open
/// loop, timed from the moment each was due — accept and hand-off, which
/// the keep-alive path never touches.
pub fn new_connections(fx: &mut Fixture, slice: Duration) -> Values {
    let visits = fx.visitors(slice);
    assert_eq!(visits.failed, 0, "visitors on fresh connections fail");
    let n = visits.lat_ns.len() as u64;
    vec![
        (
            "httpd.newconn_p50_us",
            percentile_ns(&visits.lat_ns, 0.5) as f64 / 1e3,
            n,
        ),
        (
            "httpd.newconn_p99_us",
            tail_ns(&visits.lat_ns).0 as f64 / 1e3,
            n,
        ),
    ]
}

/// A reader beside a republishing table: GETs of the workload's objects
/// through the proxy at the churn reader's rate while another thread
/// republishes the workload's own table in a closed loop (one entry in,
/// one entry out, each a whole `TablePublisher::update`) — what a reader
/// pays for publications, by table size, with no controller or wire in
/// the way.
pub fn read_beside_update(fx: &mut Fixture, slice: Duration) -> Values {
    let publisher = fx.rig.controller.publisher().share();
    let probe = path("/probe/table/beside.html".to_string());
    let stop = AtomicBool::new(false);
    let reads = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                publisher
                    .update(|t| t.insert(probe.clone(), probe_entry()))
                    .expect("probe path is free");
                publisher
                    .update(|t| t.remove(&probe))
                    .expect("probe path is present");
            }
        });
        let reads = fx.paced_gets(crate::workloads::READER_RATE, slice);
        stop.store(true, Ordering::SeqCst);
        reads
    });
    assert_eq!(reads.failed, 0, "reads beside a republishing table fail");
    let n = reads.lat_ns.len() as u64;
    vec![
        (
            "httpd.read_beside_update_p50_us",
            percentile_ns(&reads.lat_ns, 0.5) as f64 / 1e3,
            n,
        ),
        (
            "httpd.read_beside_update_p99_us",
            tail_ns(&reads.lat_ns).0 as f64 / 1e3,
            n,
        ),
    ]
}

fn probe_entry() -> UrlEntry {
    UrlEntry::new(ContentId(3_900_000), ContentKind::StaticHtml, 1024).with_locations([NodeId(0)])
}

/// Routing and URL-table lookups over the workload's path sequence on
/// its own table, the first lookup after a publication, one insert
/// through `TablePublisher::update`, and the table's memory per entry.
pub fn routing(fx: &Fixture, slice: Duration) -> Values {
    let handle = fx.rig.controller.handle();
    let mut router = LiveRouter::new(&handle, 1024);
    let mut i = 0;
    let route = sample(slice, 64, || {
        let object = fx.object_at(i);
        i += 1;
        black_box(router.route(&object.path, |_| 0));
    });
    let mut reader = handle.reader(1024);
    let mut i = 0;
    let lookup = sample(slice, 64, || {
        let object = fx.object_at(i);
        i += 1;
        black_box(reader.lookup(&object.path));
    });

    let publisher = fx.rig.controller.publisher();
    let probe = path("/probe/table/entry.html".to_string());
    let mut update = Vec::new();
    let mut repin = Vec::new();
    let until = Instant::now() + slice;
    while update.is_empty() || Instant::now() < until {
        let start = Instant::now();
        publisher
            .update(|t| t.insert(probe.clone(), probe_entry()))
            .expect("probe path is free");
        update.push(start.elapsed().as_nanos() as u64);
        let start = Instant::now();
        black_box(reader.lookup(&probe));
        repin.push(start.elapsed().as_nanos() as u64);
        publisher
            .update(|t| t.remove(&probe))
            .expect("probe path is present");
    }
    let table = publisher.snapshot();
    let (route_ns, route_n) = p50_ns(&route, 64);
    let (lookup_ns, lookup_n) = p50_ns(&lookup, 64);
    vec![
        ("dispatch.route_ns", route_ns, route_n),
        (
            "dispatch.unroutable_ratio",
            router.unroutable() as f64 / router.lookups().max(1) as f64,
            router.lookups(),
        ),
        ("urltable.lookup_ns", lookup_ns, lookup_n),
        (
            "urltable.cache_hit_ratio",
            reader.cache_hit_rate(),
            lookup_n,
        ),
        (
            "urltable.repin_lookup_ns",
            percentile_ns(&repin, 0.5) as f64,
            repin.len() as u64,
        ),
        (
            "urltable.update_us",
            percentile_ns(&update, 0.5) as f64 / 1e3,
            update.len() as u64,
        ),
        (
            "urltable.bytes_per_object",
            table.memory_bytes() as f64 / table.len().max(1) as f64,
            table.len() as u64,
        ),
    ]
}

/// One cycle of each controller op kind (publish 1 KiB to two nodes,
/// replicate to the third, rename, delete) on the workload's controller
/// and table, and a status agent dispatched to one broker.
pub fn mgmt_ops(fx: &mut Fixture, slice: Duration) -> Values {
    let controller = &mut fx.rig.controller;
    let stores = &fx.rig.stores;
    let body = synthetic_body(ContentId(3_800_000), 1024);
    let sum = fnv64(&body);
    let mut lat: [Vec<u64>; 4] = Default::default();
    let until = Instant::now() + slice;
    let mut i = 0u32;
    while lat[0].is_empty() || Instant::now() < until {
        let from = path(format!("/probe/mgmt/o{i}.html"));
        let to = path(format!("/probe/mgmt/o{i}r.html"));
        let holds = |p: &UrlPath| {
            stores
                .iter()
                .all(|s| s.meta(p).map(|m| m.checksum) == Some(sum))
        };
        let gone = |p: &UrlPath| stores.iter().all(|s| !s.contains(p));
        let mut ns = [0u64; 4];
        let mut timed = |k: usize, op: &mut dyn FnMut(&mut cpms_mgmt::Controller)| {
            let start = Instant::now();
            op(controller);
            ns[k] = start.elapsed().as_nanos() as u64;
        };
        timed(0, &mut |c| {
            let _ = c.publish_bytes(
                &from,
                ContentId(3_800_000 + i),
                ContentKind::StaticHtml,
                Priority::Normal,
                &[NodeId(0), NodeId(1)],
                &body,
            );
        });
        timed(1, &mut |c| drop(c.replicate(&from, NodeId(2))));
        let mut took_effect = holds(&from);
        timed(2, &mut |c| drop(c.rename(&from, &to)));
        took_effect &= holds(&to) && gone(&from);
        timed(3, &mut |c| drop(c.delete(&to)));
        took_effect &= gone(&to);
        assert!(
            took_effect,
            "probe cycle {i}: a controller op did not take effect"
        );
        for (samples, ns) in lat.iter_mut().zip(ns) {
            samples.push(ns);
        }
        i += 1;
    }
    let broker = controller.cluster().broker(NodeId(0)).expect("node 0");
    let rpc = sample(slice, 1, || {
        let reply = black_box(broker.dispatch(StatusProbe));
        assert!(reply.is_ok(), "status agent: {reply:?}");
    });
    let p50_us = |samples: &[u64]| percentile_ns(samples, 0.5) as f64 / 1e3;
    vec![
        ("mgmt.publish_us", p50_us(&lat[0]), lat[0].len() as u64),
        ("mgmt.replicate_us", p50_us(&lat[1]), lat[1].len() as u64),
        ("mgmt.rename_us", p50_us(&lat[2]), lat[2].len() as u64),
        ("mgmt.delete_us", p50_us(&lat[3]), lat[3].len() as u64),
        ("mgmt.agent_rpc_us", median(&rpc) / 1e3, rpc.len() as u64),
    ]
}

/// Anti-entropy repair on a cluster of its own: objects published to two
/// nodes, dropped from one node's store behind the table's back, then
/// re-shipped by `AntiEntropyAuditor::repair`.
pub fn repair(slice: Duration) -> Values {
    const OBJECTS: u32 = 2;
    const BYTES: u64 = 256 * 1024;
    let mut rig = Rig::start(&[], 0, None);
    let paths: Vec<UrlPath> = (0..OBJECTS)
        .map(|i| path(format!("/probe/repair/o{i}.bin")))
        .collect();
    for (i, p) in paths.iter().enumerate() {
        rig.controller
            .publish(
                p,
                ContentId(3_700_000 + i as u32),
                ContentKind::StaticHtml,
                BYTES,
                Priority::Normal,
                &[NodeId(0), NodeId(1)],
            )
            .expect("publish repair corpus");
    }
    let auditor = AntiEntropyAuditor::new();
    let mut rates = Vec::new();
    let until = Instant::now() + slice;
    while rates.is_empty() || Instant::now() < until {
        for p in &paths {
            rig.stores[1].delete(p).expect("drop one replica");
        }
        let start = Instant::now();
        let report = auditor.repair(&mut rig.controller);
        let ns = start.elapsed().as_nanos() as f64;
        assert_eq!(
            report.repaired, OBJECTS as usize,
            "repair re-ships every dropped replica"
        );
        rates.push(mib_per_s((u64::from(OBJECTS) * BYTES) as usize, ns));
    }
    vec![("mgmt.repair_mib_s", median(&rates), rates.len() as u64)]
}

/// Shipping under loss, on a cluster of its own whose every
/// controller→broker link drops a seeded tenth of its frames: the
/// ship-bulk loop again, with what the retries and resumes cost. Returns
/// the loop's tally too, so its operations count as attempted or failed.
pub fn lossy_ship(seed: u64, slice: Duration) -> (Values, Tally) {
    let plan = gen::rng(seed, gen::Stream::Loss, 0).next_u64();
    let mut rig = Rig::start(&[], 0, Some((plan, LOSS_RATE)));
    let mut ship = Ship::new(seed);
    let before = WireCounters::read(&rig);
    let tally = ship.run(&mut rig, slice, None);
    let after = WireCounters::read(&rig);
    let calls = after.calls - before.calls;
    let shipped_mib = (after.ship_bytes - before.ship_bytes) as f64 / MIB;
    let per_mib = |count: u64| count as f64 / shipped_mib.max(1.0 / MIB);
    let values = vec![
        (
            "mgmt.lossy_publish_mib_s",
            tally.bytes_s / MIB,
            tally.lat_ns.len() as u64,
        ),
        (
            "wire.retries_per_call",
            (after.retries - before.retries) as f64 / calls.max(1) as f64,
            calls,
        ),
        (
            "store.chunk_retries_per_mib",
            per_mib(after.chunk_retries - before.chunk_retries),
            shipped_mib as u64,
        ),
        (
            "store.resumes_per_mib",
            per_mib(after.resumes - before.resumes),
            shipped_mib as u64,
        ),
    ];
    (values, tally)
}

/// A cluster's wire and shipping counters.
struct WireCounters {
    calls: u64,
    retries: u64,
    ship_bytes: u64,
    chunk_retries: u64,
    resumes: u64,
}

impl WireCounters {
    fn read(rig: &Rig) -> WireCounters {
        let (mut calls, mut retries) = (0, 0);
        for n in 0..NODES {
            let stats = rig
                .controller
                .cluster()
                .broker(NodeId(n as u16))
                .expect("node in cluster")
                .transport_stats();
            calls += stats.calls;
            retries += stats.retries;
        }
        let snapshot = rig.registry.snapshot();
        let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
        WireCounters {
            calls,
            retries,
            ship_bytes: counter("ship_bytes_total"),
            chunk_retries: counter("ship_chunk_retries_total"),
            resumes: counter("ship_resumes_total"),
        }
    }
}

/// Raw RPC round trips to a TCP echo service, and frame encode/decode.
pub fn wire(slice: Duration) -> Values {
    let mut server =
        TcpServer::bind(loopback(), |request: &[u8]| request.to_vec()).expect("bind echo");
    let client = Client::new(Arc::new(TcpTransport::new(server.addr())));
    let small = vec![7u8; 64];
    let large = vec![7u8; 64 * 1024];
    let rtt = sample(slice, 1, || {
        black_box(client.call_raw(&small).expect("echo"));
    });
    let rtt_64k = sample(slice, 1, || {
        black_box(client.call_raw(&large).expect("echo"));
    });
    drop(client);
    server.stop();
    let encode = sample(slice / 2, 4, || {
        black_box(encode_frame(black_box(&large)));
    });
    let frame = encode_frame(&large);
    let decode = sample(slice / 2, 4, || {
        black_box(read_frame_ext_or_eof(&mut &frame[..]).expect("decode"));
    });
    let (rtt_ns, rtt_n) = p50_ns(&rtt, 1);
    let (rtt_64k_ns, rtt_64k_n) = p50_ns(&rtt_64k, 1);
    let (encode_ns, encode_n) = p50_ns(&encode, 4);
    let (decode_ns, decode_n) = p50_ns(&decode, 4);
    vec![
        ("wire.rpc_rtt_us", rtt_ns / 1e3, rtt_n),
        ("wire.rpc_rtt_64k_us", rtt_64k_ns / 1e3, rtt_64k_n),
        (
            "wire.frame_encode_mib_s",
            mib_per_s(large.len(), encode_ns),
            encode_n,
        ),
        (
            "wire.frame_decode_mib_s",
            mib_per_s(large.len(), decode_ns),
            decode_n,
        ),
    ]
}

/// The content store without any wire: put, read, a staged 1 MiB
/// transfer, one `ship::apply` of a chunk, the checksum, and a put to a
/// disk-backed store in `scratch`.
pub fn store(slice: Duration, scratch: &std::path::Path) -> Values {
    const BYTES: usize = 256 * 1024;
    let body = synthetic_body(ContentId(3_600_000), BYTES as u64);
    let memory = ContentStore::in_memory(NodeId(0), 1 << 32);
    let put_to = |store: &ContentStore, slice: Duration| {
        let mut i = 0;
        let per_call = sample(slice, 1, || {
            let p = path(format!("/probe/store/o{i}.bin"));
            i += 1;
            store
                .put(&p, ContentId(3_600_000), 0, &body, true)
                .expect("put");
        });
        p50_ns(&per_call, 1)
    };
    let (put_ns, put_n) = put_to(&memory, slice);
    let first = path("/probe/store/o0.bin".to_string());
    let read = sample(slice, 1, || {
        black_box(memory.read(&first).expect("read"));
    });
    drop(memory);

    let big = synthetic_body(ContentId(3_600_001), 1 << 20);
    let meta = ObjectMeta::for_body(ContentId(3_600_001), &big, 4096, 0);
    let sums: Vec<u64> = (0..meta.chunk_count())
        .map(|i| fnv64(&big[meta.chunk_range(i).expect("in range")]))
        .collect();
    let staged = ContentStore::in_memory(NodeId(0), 1 << 32);
    let target = path("/probe/store/staged.bin".to_string());
    let stage_commit = sample(slice, 1, || {
        let (transfer, _) = staged.begin(&target, meta, true).expect("begin");
        for (i, sum) in sums.iter().enumerate() {
            let range = meta.chunk_range(i as u32).expect("in range");
            staged
                .stage_chunk(transfer, i as u32, &big[range], *sum)
                .expect("stage");
        }
        staged
            .commit(transfer, &target, meta.checksum)
            .expect("commit");
        staged.delete(&target).expect("delete");
    });

    let requests: Vec<ShipRequest> = (0..meta.chunk_count())
        .map(|i| ShipRequest::Chunk {
            transfer: 0,
            index: i,
            data: hex_encode(&big[meta.chunk_range(i).expect("in range")]),
            checksum: sums[i as usize],
        })
        .collect();
    let mut apply_ns = Vec::new();
    let until = Instant::now() + slice;
    while apply_ns.is_empty() || Instant::now() < until {
        let (transfer, _) = staged.begin(&target, meta, true).expect("begin");
        for request in &requests {
            let ShipRequest::Chunk {
                index,
                data,
                checksum,
                ..
            } = request.clone()
            else {
                unreachable!("only chunk requests were built");
            };
            let request = ShipRequest::Chunk {
                transfer,
                index,
                data,
                checksum,
            };
            let start = Instant::now();
            let reply = apply(&staged, &request);
            apply_ns.push(start.elapsed().as_nanos() as u64);
            assert_eq!(reply, ShipReply::ChunkOk);
        }
        staged.abort(transfer);
    }

    let fnv = sample(slice / 2, 1, || {
        black_box(fnv64(black_box(&big)));
    });

    let _ = std::fs::remove_dir_all(scratch);
    let disk = ContentStore::open(NodeId(0), scratch, 1 << 32).expect("open disk store");
    let (disk_ns, disk_n) = put_to(&disk, slice);
    drop(disk);
    let _ = std::fs::remove_dir_all(scratch);

    let (read_ns, read_n) = p50_ns(&read, 1);
    let (stage_ns, stage_n) = p50_ns(&stage_commit, 1);
    let (fnv_ns, fnv_n) = p50_ns(&fnv, 1);
    vec![
        ("store.put_mib_s", mib_per_s(BYTES, put_ns), put_n),
        ("store.read_mib_s", mib_per_s(BYTES, read_ns), read_n),
        ("store.stage_commit_us", stage_ns / 1e3, stage_n),
        (
            "store.ship_apply_us",
            percentile_ns(&apply_ns, 0.5) as f64 / 1e3,
            apply_ns.len() as u64,
        ),
        ("store.fnv64_mib_s", mib_per_s(big.len(), fnv_ns), fnv_n),
        ("store.disk_put_mib_s", mib_per_s(BYTES, disk_ns), disk_n),
    ]
}

/// `Shipper::push_meta` of one object to a TCP `StoreService`, at four
/// chunk sizes.
pub fn ship_chunks(slice: Duration) -> Values {
    const BYTES: usize = 128 * 1024;
    let body = synthetic_body(ContentId(3_500_000), BYTES as u64);
    let store = Arc::new(ContentStore::in_memory(NodeId(0), 1 << 32));
    let mut server =
        TcpServer::bind(loopback(), StoreService::new(Arc::clone(&store))).expect("bind store");
    let client = StoreClient::new(Arc::new(TcpTransport::new(server.addr())));
    let shipper = Shipper::new();
    let mut out = Values::new();
    for (name, chunk) in [
        ("store.ship_mib_s_1k", 1024),
        ("store.ship_mib_s_4k", 4 * 1024),
        ("store.ship_mib_s_16k", 16 * 1024),
        ("store.ship_mib_s_64k", 64 * 1024),
    ] {
        let meta = ObjectMeta::for_body(ContentId(3_500_000), &body, chunk, 0);
        let mut i = 0;
        let per_call = sample(slice, 1, || {
            let p = path(format!("/probe/ship/c{chunk}/o{i}.bin"));
            i += 1;
            let outcome = shipper
                .push_meta(&client, &p, meta, &body, false)
                .expect("ship over a clean wire");
            assert_eq!(outcome.meta.checksum, meta.checksum);
            store.delete(&p).expect("delete shipped object");
        });
        let (ns, n) = p50_ns(&per_call, 1);
        out.push((name, mib_per_s(BYTES, ns), n));
    }
    drop(client);
    server.stop();
    out
}

/// What recording costs inside the program: a `TracedSpan` entered and
/// dropped, one histogram sample, and a registry snapshot of the
/// workload's own (populated) registry.
pub fn obs(fx: &Fixture, slice: Duration) -> Values {
    let collector = SpanCollector::new(4096);
    let span = sample(slice, 64, || {
        drop(black_box(TracedSpan::enter(&collector, "probe.span")));
    });
    let registry = MetricsRegistry::new();
    let recorder = registry.histogram("probe_ns").recorder(0);
    let mut v = 0u64;
    let hist = sample(slice, 64, || {
        v = v.wrapping_add(977);
        recorder.record(black_box(v & 0xFFFFF));
    });
    let snapshot = sample(slice, 1, || {
        black_box(fx.rig.registry.snapshot());
    });
    let (span_ns, span_n) = p50_ns(&span, 64);
    let (hist_ns, hist_n) = p50_ns(&hist, 64);
    let (snapshot_ns, snapshot_n) = p50_ns(&snapshot, 1);
    vec![
        ("obs.span_record_ns", span_ns, span_n),
        ("obs.hist_record_ns", hist_ns, hist_n),
        ("obs.snapshot_us", snapshot_ns / 1e3, snapshot_n),
    ]
}
