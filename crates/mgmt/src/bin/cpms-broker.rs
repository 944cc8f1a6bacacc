//! The per-node broker as a standalone TCP daemon — the paper's §3.1
//! "standalone … daemon process on each backend server", networked.
//!
//! Usage:
//!
//! ```text
//! cpms-broker <ADDR> [NODE] [DISK_MB] [--store DIR] [--http] [--record-interval MS]
//! cpms-broker --smoke
//! ```
//!
//! The first form binds a broker for node NODE (default 0) with a
//! DISK_MB disk (default 256) on ADDR (e.g. 127.0.0.1:7070; port 0 picks
//! an ephemeral port). It prints the bound address on stdout and serves
//! until stdin closes (or a `shutdown` line arrives) — so an orchestrator
//! that spawned it with a piped stdin reclaims the process just by
//! dropping the pipe. A controller elsewhere reaches it with
//! `Broker::connect(node, addr)`.
//!
//! With `--store DIR` the broker serves a durable on-disk content store
//! rooted at DIR: shipped replicas survive a restart, because the store's
//! manifest under DIR is the broker's whole state. Without it, content
//! lives in memory and dies with the process.
//!
//! With `--http` the broker also runs a co-located origin HTTP server
//! backed by the same content store — the "back-end web server" of the
//! paper's node, serving whatever replicas the management plane ships
//! here. Its address is printed as a second stdout line `http <ADDR>`.
//!
//! `--record-interval MS` starts the process's flight recorder: a sampler
//! snapshots the metrics registry every MS milliseconds into a bounded
//! in-memory time series, exported by the co-located origin at
//! `/_cpms/series.json`. Default 100; `0` disables.
//!
//! `--smoke` is the self-test for CI: it binds an ephemeral loopback
//! daemon, exercises agent RPCs over real TCP — including through a
//! fault-injecting transport at 20% frame loss and a poisoned
//! (truncating) transport — and exits 0 if the wire layer held up. On
//! Linux it first gates what hosting a broker costs this process, read
//! from `/proc/self/task`: threads added by a TCP broker with one peer and by
//! an in-process broker, and the wire threads' wake-ups while idle.

use cpms_mgmt::{AgentError, AgentOutput, Broker, BrokerState, ShipAgent, StoredFile};
use cpms_model::{ContentId, NodeId, UrlPath};
use cpms_obs::MetricsRegistry;
use cpms_store::{ShipPort, ShipReply, ShipRequest};
use cpms_wire::{FaultPlan, FaultyTransport, TcpTransport, Transport, WireError};
use std::net::SocketAddr;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--smoke") => smoke(),
        Some(addr) => daemon(addr, &args[1..]),
        None => {
            eprintln!(
                "usage: cpms-broker <ADDR> [NODE] [DISK_MB] [--store DIR] [--http] [--record-interval MS] | cpms-broker --smoke"
            );
            std::process::exit(2);
        }
    }
}

fn daemon(addr: &str, rest: &[String]) {
    let addr: SocketAddr = addr.parse().expect("ADDR must be host:port");
    let mut store_dir: Option<String> = None;
    let mut serve_http = false;
    let mut record_interval_ms: u64 = 100;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg == "--store" {
            store_dir = Some(it.next().expect("--store needs a directory").clone());
        } else if arg == "--http" {
            serve_http = true;
        } else if arg == "--record-interval" {
            record_interval_ms = it
                .next()
                .expect("--record-interval needs milliseconds")
                .parse()
                .expect("--record-interval must be a number of milliseconds");
        } else {
            positional.push(arg);
        }
    }
    let node: u16 = positional
        .first()
        .map(|s| s.parse().expect("NODE must be a number"))
        .unwrap_or(0);
    let disk_mb: u64 = positional
        .get(1)
        .map(|s| s.parse().expect("DISK_MB must be a number"))
        .unwrap_or(256);
    let mut state = BrokerState::new(NodeId(node), disk_mb << 20);
    if let Some(dir) = &store_dir {
        let content = cpms_store::ContentStore::open(NodeId(node), dir.as_str(), disk_mb << 20)
            .expect("open on-disk content store");
        state = state.with_content(Arc::new(content));
    }
    // Grab the content store before the broker takes ownership of the
    // state: the co-located origin serves the same bytes the management
    // plane ships here.
    let content = Arc::clone(state.content());
    // One registry (and one span collector) for the whole process: broker
    // RPC spans and co-located origin spans land on the same trace
    // surface, exported at the origin's `/_cpms/trace.json`.
    let registry = Arc::new(MetricsRegistry::new());
    registry.spans().set_process(&format!("broker-n{node}"));
    // The flight recorder samples this registry in the background; it
    // is dropped (stopping its thread) on the shutdown path below.
    let mut sampler = (record_interval_ms > 0).then(|| {
        cpms_obs::Sampler::start(
            &registry,
            std::time::Duration::from_millis(record_interval_ms),
        )
    });
    let mut handle = Broker::bind_observed(addr, state, Arc::clone(registry.spans()))
        .expect("bind broker listener");
    // stdout line 1 carries exactly the bound address so scripts can
    // capture it.
    println!("{}", handle.addr().expect("tcp daemon has an address"));
    let mut origin = if serve_http {
        let origin = cpms_httpd::OriginServer::start_with_registry(
            NodeId(node),
            cpms_httpd::SiteContent::new().with_backing(content),
            Arc::clone(&registry),
        )
        .expect("start co-located origin server");
        // stdout line 2 announces the origin's address.
        println!("http {}", origin.addr());
        Some(origin)
    } else {
        None
    };
    use std::io::Write as _;
    std::io::stdout().flush().expect("flush ready lines");
    eprintln!(
        "cpms-broker: node n{node}, {disk_mb} MB disk, {} content, serving on {}{}",
        match &store_dir {
            Some(dir) => format!("durable ({dir})"),
            None => "in-memory".to_string(),
        },
        handle.addr().expect("tcp daemon has an address"),
        match &origin {
            Some(o) => format!(", http on {}", o.addr()),
            None => String::new(),
        }
    );
    // Serve until the operator (or the orchestrator holding our stdin
    // pipe) tells us to stop: an explicit `shutdown` line or EOF.
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
            Ok(0) => break,
            Ok(_) if line.trim() == "shutdown" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    if let Some(s) = sampler.as_mut() {
        s.stop();
    }
    if let Some(o) = origin.as_mut() {
        o.shutdown();
    }
    handle.shutdown();
    eprintln!("cpms-broker: node n{node} shut down cleanly");
}

fn path(s: &str) -> UrlPath {
    s.parse().expect("literal path")
}

fn store_file(handle: &cpms_mgmt::BrokerHandle, p: &str, id: u32) {
    handle
        .dispatch(cpms_mgmt::agent::StoreFile {
            path: path(p),
            file: StoredFile {
                content: ContentId(id),
                size: 64,
                version: 0,
            },
            overwrite: false,
        })
        .expect("store over TCP");
}

/// From `/proc/self/task/*/status`: this process's thread count, and the
/// voluntary context switches made so far by its `wire-*` threads (a TCP
/// server's acceptor and connection readers).
#[cfg(target_os = "linux")]
fn threads_and_wire_wakeups() -> (usize, u64) {
    let statuses: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .collect();
    let wakeups = statuses
        .iter()
        .filter(|status| status.starts_with("Name:\twire-"))
        .flat_map(|status| status.lines())
        .filter_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .map(|count| count.trim().parse::<u64>().expect("switch count"))
        .sum();
    (statuses.len(), wakeups)
}

/// What hosting a broker costs this process — exact here, where nothing
/// else is running: a TCP broker and its one peer are an acceptor and a
/// reader, an in-process broker is no thread at all, and a thread with
/// nothing to do stays asleep.
#[cfg(target_os = "linux")]
fn thread_cost_gate() {
    let (base, _) = threads_and_wire_wakeups();
    let mut inproc = Broker::spawn(BrokerState::new(NodeId(1), 1 << 20));
    store_file(&inproc, "/smoke/inproc.html", 1);
    let inproc_threads = threads_and_wire_wakeups().0 - base;
    inproc.shutdown();

    let mut tcp = Broker::bind(
        "127.0.0.1:0".parse().expect("literal addr"),
        BrokerState::new(NodeId(1), 1 << 20),
    )
    .expect("bind ephemeral broker");
    store_file(&tcp, "/smoke/tcp.html", 1);
    let (threads, before) = threads_and_wire_wakeups();
    let tcp_threads = threads - base;
    std::thread::sleep(std::time::Duration::from_millis(300));
    let idle_wakeups = threads_and_wire_wakeups().1 - before;
    tcp.shutdown();

    eprintln!(
        "smoke: threads added: tcp broker + 1 peer = {tcp_threads}, in-process broker = {inproc_threads}; \
         idle wire threads woke {idle_wakeups}x in 300 ms"
    );
    assert_eq!(tcp_threads, 2, "an acceptor and one reader");
    assert_eq!(inproc_threads, 0, "the dispatching thread runs the broker");
    assert!(idle_wakeups <= 2, "idle wire threads poll nothing");
}

fn smoke() {
    #[cfg(target_os = "linux")]
    thread_cost_gate();

    // 1. A real TCP daemon on loopback; plain RPCs must round-trip.
    let mut host = Broker::bind(
        "127.0.0.1:0".parse().expect("literal addr"),
        BrokerState::new(NodeId(0), 1 << 20),
    )
    .expect("bind ephemeral broker");
    let addr = host.addr().expect("tcp daemon has an address");
    store_file(&host, "/smoke/a.html", 1);
    store_file(&host, "/smoke/b.html", 2);
    match host
        .dispatch(cpms_mgmt::agent::StatusProbe)
        .expect("status over TCP")
    {
        AgentOutput::Status { files, .. } => assert_eq!(files, 2, "both stores landed"),
        other => panic!("unexpected status reply {other:?}"),
    }
    eprintln!("smoke: plain TCP RPCs ok ({addr})");

    // 2. A second client whose frames cross a lossy wire: retry/backoff
    //    must ride through 20% injected frame loss with zero failures.
    let lossy: Arc<dyn Transport> = Arc::new(FaultyTransport::new(
        Arc::new(TcpTransport::new(addr)),
        FaultPlan::lossy(0xC0FF_EE00, 0.20),
    ));
    let flaky = cpms_wire::Client::new(lossy).with_retry(cpms_wire::RetryPolicy {
        max_attempts: 8,
        ..cpms_wire::RetryPolicy::default()
    });
    let mut successes = 0u32;
    for _ in 0..50 {
        // StatusProbe is idempotent, so at-least-once retry is safe.
        let reply: cpms_mgmt::AgentReply = flaky
            .call(&cpms_mgmt::AgentRequest::Status(
                cpms_mgmt::agent::StatusProbe,
            ))
            .expect("retry must absorb 20% loss");
        let out = Result::from(reply).expect("probe itself cannot fail");
        assert!(matches!(out, AgentOutput::Status { files: 2, .. }));
        successes += 1;
    }
    let stats = flaky.stats();
    assert_eq!(successes, 50);
    assert!(stats.retries > 0, "loss plan must have forced retries");
    eprintln!(
        "smoke: 50/50 RPCs through 20% loss ({} retries, {} timeouts)",
        stats.retries, stats.timeouts
    );

    // 3. A poisoned wire truncates every frame: the client must see a
    //    typed error (never a hang or panic), and the daemon must survive.
    let poisoned: Arc<dyn Transport> = Arc::new(FaultyTransport::new(
        Arc::new(TcpTransport::new(addr)),
        FaultPlan::poisoned(0xDEAD_BEEF),
    ));
    let doomed = cpms_wire::Client::new(poisoned).with_retry(cpms_wire::RetryPolicy::no_retry());
    let err = doomed
        .call::<_, cpms_mgmt::AgentReply>(&cpms_mgmt::AgentRequest::Ship(ShipAgent {
            request: ShipRequest::Inventory,
        }))
        .expect_err("truncated frames cannot succeed");
    assert!(
        matches!(
            err.root(),
            WireError::Truncated { .. } | WireError::Closed | WireError::Io { .. }
        ),
        "poisoned frame must surface a typed wire error, got {err:?}"
    );
    // The daemon shrugged it off: a clean client still works.
    let remote = Broker::connect(NodeId(0), addr);
    match remote.ship(&ShipRequest::Inventory) {
        Ok(ShipReply::InventoryIs(l)) => assert_eq!(l.len(), 2),
        other => panic!("daemon should have survived poison, got {other:?}"),
    }
    eprintln!(
        "smoke: poisoned frame surfaced typed error ({})",
        err.root()
    );

    // 4. Shutdown hands back the final state.
    let state = host.shutdown().expect("final state");
    assert_eq!(state.content().stats().objects, 2);
    let err = remote
        .dispatch(cpms_mgmt::agent::StatusProbe)
        .expect_err("daemon is gone");
    assert!(matches!(err, AgentError::BrokerUnavailable(NodeId(0))));
    eprintln!("smoke: shutdown clean; networked broker smoke PASSED");
}
