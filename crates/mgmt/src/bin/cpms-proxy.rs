//! The distributor as a standalone daemon: a content-aware proxy, the
//! management controller that feeds its URL table, and an ND-JSON admin
//! socket — the front end of a multi-process paper testbed.
//!
//! Usage:
//!   cpms-proxy \[--admin ADDR\] \[--prefork N\] \[--workers N\]
//!              \[--max-conns N\] \[--tenant-cap PREFIX=N ...\]
//!              \[--record-interval MS\]
//!              <WIRE,HTTP> \[<WIRE,HTTP> ...\]
//!   cpms-proxy --smoke
//!
//! `--workers` fixes the event-loop thread count (connections beyond
//! that multiplex, they never add threads), `--max-conns` is the global
//! admission cap (overload sheds an immediate 503 at accept), and each
//! `--tenant-cap` bounds concurrent connections whose first routed
//! request matches a path prefix. `--record-interval` sets the flight
//! recorder's sampling period in milliseconds (default 100; `0`
//! disables the recorder and the SLO watchdog). `--smoke` runs the
//! self-contained high-concurrency data-plane check used by CI and
//! exits.
//!
//! Each positional argument names one backend node as a pair of
//! addresses: the node's `cpms-broker` wire endpoint and its origin
//! HTTP endpoint (`cpms-broker --http`'s second stdout line). The
//! argument's position is the node id. The daemon prints one JSON ready
//! line on stdout:
//!
//! ```text
//! {"proxy": "127.0.0.1:40001", "admin": "127.0.0.1:40002", "nodes": 3}
//! ```
//!
//! then serves until stdin closes or the admin socket receives
//! `shutdown`. The admin socket is for **control**: it speaks
//! [`cpms_mgmt::admin`]'s ND-JSON, every [`Shell`] command (`publish`,
//! `audit`, `evict`, `help`, …) plus the verbs that need this daemon's
//! own state — the chaos switches wired to per-link [`FaultSwitch`]es,
//! and the stop verb:
//!
//! ```text
//! fault <node> loss <rate> [seed]   arm frame loss on the node's link
//! fault <node> poison [seed]        arm frame truncation
//! partition <node>                  cut the link entirely
//! heal <node>                       disarm faults and reconnect
//! shutdown                          clean exit
//! ```
//!
//! **Introspection** is not on the socket: the proxy's HTTP port serves
//! the registry this daemon's controller records into at
//! `/_cpms/metrics.json` (the `urltable_generation` gauge included),
//! `/_cpms/trace.json` and `/_cpms/series.json`, like every process.
//!
//! With the recorder on, the daemon also watches two default SLOs —
//! `proxy_backend_errors_total rate <= 0 over 2s` and
//! `proxy_pool_failures_total rate <= 0 over 2s` — whose verdicts the
//! `health` shell command renders and whose breaches increment
//! `slo_breach_total`.

use cpms_httpd::{ContentAwareProxy, ProxyConfig, TenantCap};
use cpms_mgmt::admin::{AdminResponse, AdminServer};
use cpms_mgmt::shell::{parse_node, Shell};
use cpms_mgmt::{Broker, Cluster, Controller};
use cpms_model::NodeId;
use cpms_obs::{MetricsRegistry, SloRule, SloWatchdog};
use cpms_wire::{FaultPlan, FaultSwitch, Transport};
use std::net::SocketAddr;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// SLOs every proxy daemon watches when the flight recorder is on: the
/// data plane must not be producing backend errors or pool failures.
/// A killed or unreachable origin drives these into breach within one
/// sampling round; two quiet seconds clear them.
const DEFAULT_SLOS: [&str; 2] = [
    "proxy_backend_errors_total rate <= 0 over 2s",
    "proxy_pool_failures_total rate <= 0 over 2s",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--smoke") {
        smoke();
        return;
    }
    let mut admin_addr: SocketAddr = "127.0.0.1:0".parse().expect("literal addr");
    let mut config = ProxyConfig {
        prefork: 2,
        ..ProxyConfig::default()
    };
    let mut record_interval_ms: u64 = 100;
    let mut pairs: Vec<(SocketAddr, SocketAddr)> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--admin" => {
                admin_addr = it
                    .next()
                    .expect("--admin needs an address")
                    .parse()
                    .expect("--admin address must be host:port");
            }
            "--prefork" => {
                config.prefork = it
                    .next()
                    .expect("--prefork needs a number")
                    .parse()
                    .expect("--prefork must be a number");
            }
            "--workers" => {
                config.workers = it
                    .next()
                    .expect("--workers needs a number")
                    .parse()
                    .expect("--workers must be a number");
            }
            "--max-conns" => {
                config.max_conns = it
                    .next()
                    .expect("--max-conns needs a number")
                    .parse()
                    .expect("--max-conns must be a number");
            }
            "--record-interval" => {
                record_interval_ms = it
                    .next()
                    .expect("--record-interval needs milliseconds")
                    .parse()
                    .expect("--record-interval must be a number of milliseconds");
            }
            "--tenant-cap" => {
                let spec = it.next().expect("--tenant-cap needs PREFIX=N");
                let (prefix, cap) = spec
                    .split_once('=')
                    .expect("--tenant-cap argument must be PREFIX=N");
                config.tenant_caps.push(TenantCap {
                    prefix: prefix.trim_matches('/').to_string(),
                    max_conns: cap.parse().expect("tenant cap must be a number"),
                });
            }
            pair => {
                let (wire, http) = pair
                    .split_once(',')
                    .expect("node argument must be WIREADDR,HTTPADDR");
                pairs.push((
                    wire.parse().expect("wire address must be host:port"),
                    http.parse().expect("http address must be host:port"),
                ));
            }
        }
    }
    if pairs.is_empty() {
        eprintln!(
            "usage: cpms-proxy [--admin ADDR] [--prefork N] [--workers N] [--max-conns N] [--tenant-cap PREFIX=N ...] [--record-interval MS] <WIRE,HTTP> [<WIRE,HTTP> ...]"
        );
        std::process::exit(2);
    }

    // One armable fault switch per controller→broker link, so chaos can
    // be injected per node at runtime without touching the processes.
    let mut switches: Vec<Arc<FaultSwitch>> = Vec::new();
    let mut handles = Vec::new();
    let backends: Vec<SocketAddr> = pairs.iter().map(|&(_, http)| http).collect();
    for (i, &(wire, _)) in pairs.iter().enumerate() {
        let node = NodeId(i as u16);
        let mut slot: Option<Arc<FaultSwitch>> = None;
        let handle = Broker::connect_wrapped(node, wire, |transport| {
            let switch = Arc::new(FaultSwitch::new(transport));
            slot = Some(Arc::clone(&switch));
            switch as Arc<dyn Transport>
        });
        switches.push(slot.expect("wrap closure always runs"));
        handles.push(handle);
    }

    let registry = Arc::new(MetricsRegistry::new());
    registry.spans().set_process("proxy");
    if record_interval_ms > 0 {
        config.record_interval = Some(Duration::from_millis(record_interval_ms));
        let rules = DEFAULT_SLOS
            .iter()
            .map(|text| SloRule::parse(text).expect("default SLO rules parse"))
            .collect();
        let _watchdog = SloWatchdog::install(&registry, rules);
    }
    let mut controller = Controller::new(Cluster::from_handles(handles));
    controller.set_metrics(&registry);
    let publisher = controller.publisher().share();
    let proxy =
        ContentAwareProxy::start_with_config(publisher, backends, Arc::clone(&registry), config)
            .expect("start content-aware proxy");

    let mut shell = Shell::new(controller);
    let (stop_tx, stop_rx) = mpsc::channel::<&'static str>();
    let admin_stop = stop_tx.clone();
    let admin = AdminServer::bind(admin_addr, move |cmd| {
        dispatch(&mut shell, &switches, &admin_stop, cmd)
    })
    .expect("bind admin listener");

    println!(
        "{{\"proxy\": \"{}\", \"admin\": \"{}\", \"nodes\": {}}}",
        proxy.addr(),
        admin.addr(),
        pairs.len()
    );
    use std::io::Write as _;
    std::io::stdout().flush().expect("flush ready line");
    eprintln!(
        "cpms-proxy: routing for {} node(s) on {}, admin on {}",
        pairs.len(),
        proxy.addr(),
        admin.addr()
    );

    // Serve until whoever holds our stdin pipe drops it, someone types
    // `shutdown`, or the admin socket asks for it.
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        let mut line = String::new();
        loop {
            line.clear();
            match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) if line.trim() == "shutdown" => break,
                Ok(_) => {}
            }
        }
        let _ = stop_tx.send("stdin closed");
    });
    let reason = stop_rx.recv().unwrap_or("stop channel closed");
    eprintln!("cpms-proxy: shutting down ({reason})");
    let mut proxy = proxy;
    let mut admin = admin;
    admin.stop();
    proxy.shutdown();
}

/// Handles one admin command: the fault switches and the stop verb
/// here, everything else through the shell.
fn dispatch(
    shell: &mut Shell,
    switches: &[Arc<FaultSwitch>],
    stop: &mpsc::Sender<&'static str>,
    cmd: &str,
) -> AdminResponse {
    let words: Vec<&str> = cmd.split_whitespace().collect();
    let done = match words.as_slice() {
        [verb @ ("fault" | "partition" | "heal"), node, rest @ ..] => {
            flip_switch(switches, verb, node, rest)
        }
        ["shutdown"] => {
            let _ = stop.send("admin shutdown");
            Ok("shutting down".to_string())
        }
        _ => return shell.execute(cmd),
    };
    done.map_or_else(AdminResponse::err, AdminResponse::ok)
}

/// `fault`, `partition` or `heal` against one node's link.
fn flip_switch(
    switches: &[Arc<FaultSwitch>],
    verb: &str,
    node: &str,
    rest: &[&str],
) -> Result<String, String> {
    let node = parse_node(node)?;
    let switch = switches
        .get(usize::from(node.0))
        .ok_or_else(|| format!("no node {node} in this topology"))?;
    match (verb, rest) {
        ("fault", _) => {
            let (plan, what) = fault_plan(node, rest)?;
            switch.arm(plan);
            Ok(format!("armed {what} on {node}"))
        }
        ("partition", []) => {
            switch.set_partitioned(true);
            Ok(format!("partitioned {node}"))
        }
        ("heal", []) => {
            switch.disarm();
            switch.set_partitioned(false);
            Ok(format!("healed {node}"))
        }
        _ => Err(format!("usage: {verb} <node>")),
    }
}

const FAULT_USAGE: &str = "usage: fault <node> loss <rate> [seed] | poison [seed]";

/// The plan `fault <node> ...` arms, and its name. The words come off
/// the admin socket: a rate that is not a number within `0..=1` (`NaN`,
/// `7`, `-1`) and a seed that does not parse are refused, not armed as
/// something else.
fn fault_plan(node: NodeId, words: &[&str]) -> Result<(FaultPlan, String), String> {
    let seed = |word: Option<&&str>, default: u64| match word {
        None => Ok(default + u64::from(node.0)),
        Some(word) => word
            .parse::<u64>()
            .map_err(|_| format!("bad seed {word:?}; {FAULT_USAGE}")),
    };
    match words {
        ["loss", rate, rest @ ..] if rest.len() <= 1 => {
            let rate = rate
                .parse::<f64>()
                .ok()
                .filter(|rate| (0.0..=1.0).contains(rate))
                .ok_or_else(|| format!("bad loss rate {rate:?} (not in 0..=1); {FAULT_USAGE}"))?;
            let plan = FaultPlan::lossy(seed(rest.first(), 0xC405_0000)?, rate);
            Ok((plan, format!("{rate} loss")))
        }
        ["poison", rest @ ..] if rest.len() <= 1 => {
            let plan = FaultPlan::poisoned(seed(rest.first(), 0xBAD_0000)?);
            Ok((plan, "poison".to_string()))
        }
        _ => Err(FAULT_USAGE.to_string()),
    }
}

/// Self-contained high-concurrency data-plane check (`cpms-proxy
/// --smoke`): spins an in-process origin + proxy, then asserts the three
/// behaviours the event-driven data plane promises — (1) hundreds of
/// churning keep-alive connections all served correctly on a fixed
/// worker count, (2) connections over the global cap shed with an
/// immediate 503 at accept, (3) a tenant over its per-prefix cap shed
/// with a 503 while other tenants keep flowing.
fn smoke() {
    use cpms_httpd::client::HttpClient;
    use cpms_httpd::loadgen::{self, LoadConfig};
    use cpms_httpd::{OriginServer, SiteContent};
    use cpms_model::{ContentId, ContentKind, UrlPath};
    use cpms_urltable::{TablePublisher, UrlEntry, UrlTable};
    use std::io::Read as _;
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    let paths: Vec<String> = (0..16)
        .map(|i| format!("/obj/{i}.html"))
        .chain(std::iter::once("/t0/page.html".to_string()))
        .collect();
    let mut site = SiteContent::new();
    for path in &paths {
        site.add_static(path, format!("body of {path}").into_bytes());
    }
    let origin = OriginServer::start(NodeId(0), site).expect("smoke origin");
    let table = {
        let mut t = UrlTable::new();
        for (i, path) in paths.iter().enumerate() {
            let url: UrlPath = path.parse().expect("literal path");
            t.insert(
                url,
                UrlEntry::new(ContentId(i as u32), ContentKind::StaticHtml, 64)
                    .with_locations([NodeId(0)]),
            )
            .expect("insert smoke path");
        }
        t
    };

    // --- stage 1: 400 churning keep-alive connections over 2 workers.
    let registry = Arc::new(MetricsRegistry::new());
    let mut proxy = ContentAwareProxy::start_with_config(
        TablePublisher::new(table.clone()),
        vec![origin.addr()],
        Arc::clone(&registry),
        ProxyConfig {
            workers: 2,
            prefork: 4,
            max_conns: 2048,
            tenant_caps: vec![TenantCap {
                prefix: "t0".to_string(),
                max_conns: 4,
            }],
            ..ProxyConfig::default()
        },
    )
    .expect("smoke proxy");
    let urls: Vec<UrlPath> = (0..16)
        .map(|i| format!("/obj/{i}.html").parse().expect("literal path"))
        .collect();
    let report = loadgen::run(
        proxy.addr(),
        &urls,
        &LoadConfig {
            connections: 400,
            requests_per_conn: 4,
            pace: Some(Duration::from_millis(500)),
            churn_every: 2,
        },
    )
    .expect("smoke loadgen");
    assert_eq!(report.completed, 1600, "every request answered: {report:?}");
    assert_eq!(report.errors, 0, "no connection failures: {report:?}");
    assert_eq!(report.non_200, 0, "all responses 200: {report:?}");
    assert!(report.reconnects >= 400, "churn exercised the accept path");
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.gauge("reactor_workers"),
        Some(2),
        "fixed worker count"
    );
    assert_eq!(
        snapshot.counter("proxy_conn_rejected_total"),
        Some(0),
        "nothing shed below the cap"
    );
    eprintln!(
        "smoke: 400 churning connections, 1600 requests relayed, p99={}us on 2 workers",
        report.percentile_ns(0.99) / 1_000
    );

    // --- stage 2: overload sheds fast 503s at accept.
    let overload_registry = Arc::new(MetricsRegistry::new());
    let mut small = ContentAwareProxy::start_with_config(
        TablePublisher::new(table),
        vec![origin.addr()],
        Arc::clone(&overload_registry),
        ProxyConfig {
            workers: 1,
            prefork: 2,
            max_conns: 32,
            ..ProxyConfig::default()
        },
    )
    .expect("smoke overload proxy");
    let idle: Vec<TcpStream> = (0..32)
        .map(|_| TcpStream::connect(small.addr()).expect("idle conn"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while small.active_connections() < 32 {
        assert!(Instant::now() < deadline, "idle conns never all adopted");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut shed = TcpStream::connect(small.addr()).expect("over-cap conn");
    shed.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut refusal = Vec::new();
    shed.read_to_end(&mut refusal).expect("read 503");
    let refusal = String::from_utf8_lossy(&refusal);
    assert!(
        refusal.starts_with("HTTP/1.1 503"),
        "over-cap connection gets an immediate 503, got: {refusal:?}"
    );
    assert!(
        overload_registry
            .snapshot()
            .counter("proxy_conn_rejected_total")
            .unwrap_or(0)
            >= 1,
        "shed connection counted"
    );
    drop(idle);
    eprintln!("smoke: connection 33 of a 32-cap proxy shed with an immediate 503");

    // --- stage 3: per-tenant cap sheds the 5th /t0 connection only.
    let mut held: Vec<HttpClient> = Vec::new();
    for _ in 0..4 {
        let mut client = HttpClient::connect(proxy.addr()).expect("tenant conn");
        let resp = client.get("/t0/page.html").expect("tenant request");
        assert_eq!(resp.status, 200, "under-cap tenant requests flow");
        held.push(client);
    }
    let mut fifth = HttpClient::connect(proxy.addr()).expect("tenant conn 5");
    let resp = fifth.get("/t0/page.html").expect("over-cap response");
    assert_eq!(resp.status, 503, "tenant over its cap is shed");
    let mut other = HttpClient::connect(proxy.addr()).expect("other-tenant conn");
    let resp = other.get("/obj/0.html").expect("other-tenant request");
    assert_eq!(resp.status, 200, "other tenants unaffected");
    assert_eq!(
        registry
            .snapshot()
            .counter("proxy_conn_tenant_rejected_total"),
        Some(1),
        "tenant shed counted once"
    );
    drop(held);
    eprintln!("smoke: tenant cap held at 4 concurrent connections, 5th shed with 503");

    small.shutdown();
    proxy.shutdown();
    println!("smoke ok: relay under churn, overload shedding, tenant caps");
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpms_wire::InProcServer;

    /// `dispatch` over one echoing node behind a fault switch: what the
    /// admin socket answered, and whether a call still crosses the link.
    struct Rig {
        shell: Shell,
        switches: Vec<Arc<FaultSwitch>>,
        stop: mpsc::Sender<&'static str>,
    }

    impl Rig {
        fn new() -> Rig {
            let (transport, server) = InProcServer::spawn(|request: &[u8]| request.to_vec());
            std::mem::forget(server); // serves for the length of the test
            let controller = Controller::new(Cluster::from_handles(Vec::new()));
            Rig {
                shell: Shell::new(controller),
                switches: vec![Arc::new(FaultSwitch::new(Arc::new(transport)))],
                stop: mpsc::channel().0,
            }
        }

        fn admin(&mut self, cmd: &str) -> AdminResponse {
            dispatch(&mut self.shell, &self.switches, &self.stop, cmd)
        }

        fn link_carries(&self) -> bool {
            self.switches[0]
                .call(b"ping", Duration::from_secs(1))
                .is_ok()
        }
    }

    #[test]
    fn fault_refuses_rates_outside_the_unit_interval_and_bad_seeds() {
        let mut rig = Rig::new();
        for cmd in [
            "fault 0 loss NaN",
            "fault 0 loss -0.1",
            "fault 0 loss 1.5",
            "fault 0 loss inf",
            "fault 0 loss 0.5 0x10",
            "fault 0 loss 0.5 -3",
            "fault 0 poison seed",
            "fault 0 loss",
            "fault 0 poison 1 2",
        ] {
            let response = rig.admin(cmd);
            assert!(!response.ok, "{cmd}: {response:?}");
            assert!(response.output.contains(FAULT_USAGE), "{cmd}: {response:?}");
            assert!(
                rig.switches[0].armed_stats().is_none(),
                "{cmd} armed a plan"
            );
            assert!(rig.link_carries(), "{cmd} cut the link");
        }
    }

    #[test]
    fn failed_commands_answer_not_ok() {
        let mut rig = Rig::new();
        for cmd in [
            "delete /nope",
            "evict n99",
            "publish /a.html html 10 7",
            "frobnicate",
            "partition n1",
            "heal x0",
            "heal 0 now",
            // Introspection is served over /_cpms/*, not this socket.
            "metrics",
            "generation",
        ] {
            let response = rig.admin(cmd);
            assert!(!response.ok, "{cmd}: {response:?}");
            assert!(!response.output.is_empty(), "{cmd}: {response:?}");
        }
        assert!(rig.admin("help").ok);
        assert!(rig.link_carries(), "no failed command touched the link");
    }

    #[test]
    fn fault_arms_both_ends_of_the_unit_interval() {
        let mut rig = Rig::new();
        let response = rig.admin("fault n0 loss 1 42");
        assert!(response.ok, "{response:?}");
        assert_eq!(response.output, "armed 1 loss on n0");
        assert!(!rig.link_carries(), "rate 1 drops every frame");
        let response = rig.admin("fault 0 loss 0");
        assert!(response.ok, "{response:?}");
        assert!(rig.link_carries(), "rate 0 drops none");
        assert!(rig.admin("fault 0 poison 7").ok);
        assert!(!rig.link_carries(), "poison truncates every frame");
        assert!(rig.admin("heal 0").ok);
        assert!(rig.link_carries());
    }
}
