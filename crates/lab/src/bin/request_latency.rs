//! Request-path latency under a Zipf workload, through real sockets.
//!
//! Drives the multi-worker content-aware proxy with keep-alive clients
//! issuing Zipf-skewed requests, and reports the per-stage latency
//! histograms the observability layer collects on the hot path: request
//! parse, URL-table lookup, routing decision, backend relay, and the
//! end-to-end request — the live twin of §5.2's "average lookup time is
//! about 4.32 µsecs" measurement, with full percentile detail instead of
//! a single mean.
//!
//! A management controller shares the proxy's metrics registry, so the
//! emitted report (and the `--smoke` assertion set) covers all four
//! metric families of the single-system-image stats surface: `proxy_*`,
//! `dispatch_*`, `urltable_*`, and `mgmt_*`.
//!
//! Two overhead arms ride along, each alternating off/on round by
//! round: span recording (tracing) and the flight-recorder sampler
//! (`cpms_obs::Sampler`), both timed at the client so the reported
//! ratios are end-to-end hot-path cost, not self-measurement.
//!
//! Run with: `cargo run --release -p cpms-lab --bin request_latency`
//! (add `--smoke` for the quick CI pass that asserts the metric surface
//! without rewriting the committed results file).

use cpms_httpd::client::HttpClient;
use cpms_httpd::loadgen::{self, LoadConfig, LoadReport};
use cpms_httpd::{ContentAwareProxy, OriginServer, ProxyConfig, SiteContent, METRICS_PATH};
use cpms_mgmt::{Cluster, Controller};
use cpms_model::{ContentId, ContentKind, NodeId, Priority, UrlPath};
use cpms_obs::{HistogramSummary, MetricsRegistry};
use cpms_urltable::{TablePublisher, UrlEntry, UrlTable};
use cpms_workload::ZipfSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const NODES: usize = 3;
const ZIPF_THETA: f64 = 0.7;

struct Config {
    paths: usize,
    clients: usize,
    requests_per_client: usize,
    workers: usize,
    smoke: bool,
}

impl Config {
    fn from_args() -> Self {
        let smoke = std::env::args().any(|a| a == "--smoke");
        if smoke {
            Config {
                paths: 64,
                clients: 2,
                requests_per_client: 250,
                workers: 2,
                smoke,
            }
        } else {
            Config {
                paths: 512,
                clients: 4,
                requests_per_client: 5_000,
                workers: 4,
                smoke,
            }
        }
    }
}

/// Client-side latency summary of one workload arm, measured at the
/// socket so it is independent of the server's own histograms (which
/// accumulate across passes).
struct PassStats {
    mean_ns: f64,
    p50_ns: u64,
    p99_ns: u64,
}

impl PassStats {
    fn of(samples: Vec<u64>) -> PassStats {
        let total: u128 = samples.iter().map(|&n| u128::from(n)).sum();
        let report = LoadReport {
            latencies_ns: samples,
            ..LoadReport::default()
        };
        PassStats {
            mean_ns: total as f64 / report.latencies_ns.len() as f64,
            p50_ns: report.percentile_ns(0.50),
            p99_ns: report.percentile_ns(0.99),
        }
    }
}

/// Fully-replicated routing table over the bench paths.
fn routing_table(paths: &[String]) -> UrlTable {
    let mut table = UrlTable::new();
    for (i, path) in paths.iter().enumerate() {
        let url: UrlPath = path.parse().unwrap();
        table
            .insert(
                url,
                UrlEntry::new(ContentId(i as u32), ContentKind::StaticHtml, 64)
                    .with_locations((0..NODES).map(|n| NodeId(n as u16))),
            )
            .unwrap();
    }
    table
}

/// Threads currently live in this process (workers, acceptor, origins,
/// and the bench itself) — the number that must NOT scale with
/// connection count.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// One connection-scaling arm: `connections` keep-alive connections,
/// closed-loop when `pace_ms` is `None`, open-loop (paced, with
/// connection churn) otherwise.
struct ArmSpec {
    connections: usize,
    requests_per_conn: u64,
    pace_ms: Option<u64>,
    churn_every: u64,
}

struct ArmResult {
    spec: ArmSpec,
    completed: u64,
    reconnects: u64,
    p50_ns: u64,
    p99_ns: u64,
    process_threads: usize,
}

/// Runs one scaling arm by re-invoking this binary in `--drive` mode:
/// the client side lives in a child process with its own fd budget (a
/// 10k-connection arm needs ~10k sockets per side, and this box caps
/// each process at 20k descriptors). The sampled thread count is the
/// *server* process's — the number that must stay fixed.
fn run_arm(addr: std::net::SocketAddr, paths_n: usize, spec: ArmSpec) -> ArmResult {
    let exe = std::env::current_exe().expect("own binary path");
    let out = std::process::Command::new(exe)
        .arg("--drive")
        .arg(addr.to_string())
        .arg(spec.connections.to_string())
        .arg(spec.requests_per_conn.to_string())
        .arg(spec.pace_ms.unwrap_or(0).to_string())
        .arg(spec.churn_every.to_string())
        .arg(paths_n.to_string())
        .output()
        .expect("spawn drive child");
    let process_threads = thread_count();
    assert!(
        out.status.success(),
        "drive child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report: serde_json::Value =
        serde_json::from_str(stdout.trim()).expect("drive child emits JSON");
    let field = |k: &str| {
        report
            .get(k)
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0)
    };
    let expected = spec.connections as u64 * spec.requests_per_conn;
    assert_eq!(field("completed"), expected, "every request completed");
    assert_eq!(field("errors"), 0, "no connection failures");
    assert_eq!(field("non_200"), 0, "all responses 200");
    ArmResult {
        spec,
        completed: field("completed"),
        reconnects: field("reconnects"),
        p50_ns: field("p50_ns"),
        p99_ns: field("p99_ns"),
        process_threads,
    }
}

/// Child half of `run_arm`: drives the load and prints one JSON line.
/// Arguments: ADDR CONNS REQS_PER_CONN PACE_MS(0 = closed loop) CHURN
/// PATHS_N.
fn drive_child(args: &[String]) {
    let addr: std::net::SocketAddr = args[0].parse().expect("drive addr");
    let connections: usize = args[1].parse().expect("drive conns");
    let requests_per_conn: u64 = args[2].parse().expect("drive reqs");
    let pace_ms: u64 = args[3].parse().expect("drive pace");
    let churn_every: u64 = args[4].parse().expect("drive churn");
    let paths_n: usize = args[5].parse().expect("drive paths");
    cpms_reactor::raise_nofile_limit(connections as u64 * 2 + 256);
    let urls: Vec<UrlPath> = (0..paths_n)
        .map(|i| format!("/obj/{i}.html").parse().unwrap())
        .collect();
    let report = loadgen::run(
        addr,
        &urls,
        &LoadConfig {
            connections,
            requests_per_conn,
            pace: (pace_ms > 0).then(|| std::time::Duration::from_millis(pace_ms)),
            churn_every,
        },
    )
    .expect("drive loadgen");
    let line = serde_json::json!({
        "completed": report.completed,
        "errors": report.errors,
        "non_200": report.non_200,
        "reconnects": report.reconnects,
        "p50_ns": report.percentile_ns(0.50),
        "p99_ns": report.percentile_ns(0.99),
    });
    println!(
        "{}",
        serde_json::to_string(&line).expect("serialize report")
    );
}

/// Replays one round of the Zipf workload, appending one end-to-end
/// latency sample per request across all clients.
fn drive_round(
    addr: std::net::SocketAddr,
    config: &Config,
    zipf: &ZipfSampler,
    paths: &[String],
    seed_base: u64,
    into: &mut Vec<u64>,
) {
    let samples = std::sync::Mutex::new(Vec::with_capacity(
        config.clients * config.requests_per_client,
    ));
    std::thread::scope(|scope| {
        for client_idx in 0..config.clients {
            let samples = &samples;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed_base + client_idx as u64);
                let mut client = HttpClient::connect(addr).unwrap();
                let mut local = Vec::with_capacity(config.requests_per_client);
                for _ in 0..config.requests_per_client {
                    let path = &paths[zipf.sample(&mut rng)];
                    let start = std::time::Instant::now();
                    let response = client.get(path).expect("request succeeds");
                    local.push(start.elapsed().as_nanos() as u64);
                    assert_eq!(response.status, 200, "GET {path}");
                }
                samples.lock().unwrap().extend(local);
            });
        }
    });
    into.extend(samples.into_inner().unwrap());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--drive") {
        drive_child(&args[1..]);
        return;
    }
    let config = Config::from_args();
    let registry = Arc::new(MetricsRegistry::new());

    // --- cluster: every node serves every path (full replication keeps
    // the replica-choice branch of the router hot).
    let paths: Vec<String> = (0..config.paths)
        .map(|i| format!("/obj/{i}.html"))
        .collect();
    let origins: Vec<OriginServer> = (0..NODES)
        .map(|n| {
            let mut site = SiteContent::new();
            for path in &paths {
                site.add_static(path, format!("body of {path}").into_bytes());
            }
            OriginServer::start(NodeId(n as u16), site).unwrap()
        })
        .collect();

    let table = routing_table(&paths);

    let backends = origins.iter().map(|o| o.addr()).collect();
    let proxy = ContentAwareProxy::start_with_config(
        TablePublisher::new(table),
        backends,
        Arc::clone(&registry),
        ProxyConfig {
            workers: config.workers,
            prefork: 8,
            ..ProxyConfig::default()
        },
    )
    .unwrap();

    // --- management plane on the same registry, so the mgmt family is
    // part of the surface this bench reports on.
    let mut controller = Controller::new(Cluster::start(NODES, 1 << 20));
    controller.set_metrics(&registry);
    controller
        .publish(
            &"/obj/0.html".parse().unwrap(),
            ContentId(0),
            ContentKind::StaticHtml,
            64,
            Priority::Normal,
            &[NodeId(0)],
        )
        .unwrap();

    // --- drive the Zipf workload with keep-alive clients.
    let addr = proxy.addr();
    let zipf = ZipfSampler::new(config.paths, ZIPF_THETA);
    std::thread::scope(|scope| {
        for client_idx in 0..config.clients {
            let zipf = &zipf;
            let paths = &paths;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(42 + client_idx as u64);
                let mut client = HttpClient::connect(addr).unwrap();
                for _ in 0..config.requests_per_client {
                    let path = &paths[zipf.sample(&mut rng)];
                    let response = client.get(path).expect("request succeeds");
                    assert_eq!(response.status, 200, "GET {path}");
                }
            });
        }
    });

    let total_requests = (config.clients * config.requests_per_client) as u64;
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.counter("proxy_relayed_total"),
        Some(total_requests),
        "every request relayed"
    );

    // --- report
    let stages = [
        "proxy_request_ns",
        "proxy_parse_ns",
        "proxy_relay_ns",
        "dispatch_route_ns",
        "urltable_lookup_ns",
        "mgmt_op_ns",
    ];
    println!(
        "request-path latency — {} requests, {} clients, {} workers, Zipf({ZIPF_THETA}) over {} paths\n",
        total_requests, config.clients, config.workers, config.paths
    );
    let us = |ns: u64| ns as f64 / 1000.0;
    for name in stages {
        let s = snapshot.histogram(name).expect(name);
        println!(
            "{name:<20} count={:<7} p50={:>8.1}us p90={:>8.1}us p99={:>8.1}us max={:>8.1}us",
            s.count,
            us(s.p50),
            us(s.p90),
            us(s.p99),
            us(s.max)
        );
    }

    // --- tracing overhead: the same workload with span recording off
    // vs on, timed at the client. The two arms alternate round by round
    // so scheduler drift on a shared box cancels instead of biasing
    // whichever arm ran later.
    const OVERHEAD_ROUNDS: u64 = 4;
    let lookup_totals = || {
        let s = registry.snapshot();
        let s = s.histogram("urltable_lookup_ns").expect("lookup histogram");
        (s.count, s.sum)
    };
    let mut untraced_samples = Vec::new();
    let mut traced_samples = Vec::new();
    let mut lookup = [(0u64, 0u64); 2]; // (count, sum_ns) per arm
    for round in 0..OVERHEAD_ROUNDS {
        for (arm, (samples, seed)) in [
            (&mut untraced_samples, 1_000 + round * 100),
            (&mut traced_samples, 2_000 + round * 100),
        ]
        .into_iter()
        .enumerate()
        {
            registry.spans().set_enabled(arm == 1);
            let before = lookup_totals();
            drive_round(addr, &config, &zipf, &paths, seed, samples);
            let after = lookup_totals();
            lookup[arm].0 += after.0 - before.0;
            lookup[arm].1 += after.1 - before.1;
        }
    }
    let untraced = PassStats::of(untraced_samples);
    let traced = PassStats::of(traced_samples);
    let overhead = traced.mean_ns / untraced.mean_ns - 1.0;
    let lookup_mean = |arm: usize| lookup[arm].1 as f64 / lookup[arm].0.max(1) as f64;
    let lookup_overhead = lookup_mean(1) / lookup_mean(0) - 1.0;
    println!(
        "\ntracing overhead — end-to-end: untraced mean={:.1}us p99={:.1}us, traced mean={:.1}us p99={:.1}us ({:+.2}% mean)",
        untraced.mean_ns / 1000.0,
        us(untraced.p99_ns),
        traced.mean_ns / 1000.0,
        us(traced.p99_ns),
        overhead * 100.0
    );
    println!(
        "tracing overhead — url-table lookup stage: untraced mean={:.2}us, traced mean={:.2}us ({:+.2}% mean)",
        lookup_mean(0) / 1000.0,
        lookup_mean(1) / 1000.0,
        lookup_overhead * 100.0
    );

    // --- recorder overhead: the same workload with the flight-recorder
    // sampler off vs on, timed at the client. The sampler runs at 25 ms
    // (4x the 100 ms daemon default) to make any hot-path cost easier to
    // see; the arms alternate round by round like the tracing arms.
    // Span recording is pinned off so this isolates the recorder alone.
    const RECORD_INTERVAL: std::time::Duration = std::time::Duration::from_millis(25);
    registry.spans().set_enabled(false);
    let mut unrecorded_samples = Vec::new();
    let mut recorded_samples = Vec::new();
    for round in 0..OVERHEAD_ROUNDS {
        for (arm, (samples, seed)) in [
            (&mut unrecorded_samples, 3_000 + round * 100),
            (&mut recorded_samples, 4_000 + round * 100),
        ]
        .into_iter()
        .enumerate()
        {
            let mut sampler =
                (arm == 1).then(|| cpms_obs::Sampler::start(&registry, RECORD_INTERVAL));
            drive_round(addr, &config, &zipf, &paths, seed, samples);
            if let Some(s) = sampler.as_mut() {
                s.stop();
            }
        }
    }
    let unrecorded = PassStats::of(unrecorded_samples);
    let recorded = PassStats::of(recorded_samples);
    let recorder_overhead = recorded.mean_ns / unrecorded.mean_ns - 1.0;
    let recorder_samples = registry
        .series()
        .map_or(0, |recorder| recorder.samples_taken());
    println!(
        "recorder overhead — sampler off: mean={:.1}us p99={:.1}us, sampler on ({}ms): mean={:.1}us p99={:.1}us ({:+.2}% mean, {} sampling rounds)",
        unrecorded.mean_ns / 1000.0,
        us(unrecorded.p99_ns),
        RECORD_INTERVAL.as_millis(),
        recorded.mean_ns / 1000.0,
        us(recorded.p99_ns),
        recorder_overhead * 100.0,
        recorder_samples
    );

    // --- connection scaling: the same data plane holding 8 → 1 000 →
    // 10 000 keep-alive connections on a fixed worker count. The 8-conn
    // arm is the closed-loop baseline; the big arms are open-loop (paced
    // request starts, plus connection churn through the accept path) so
    // they measure connection *capacity* — mostly-idle keep-alive
    // connections at a steady aggregate rate — not CPU saturation. The
    // paces keep that rate low enough that request chains rarely overlap:
    // on a single-CPU runner each request serializes three processes
    // (client, proxy, origin), so a fast pace would measure CPU queueing
    // across all of them instead of what holding the connections costs.
    let arm_specs: Vec<ArmSpec> = if config.smoke {
        vec![
            ArmSpec {
                connections: 8,
                requests_per_conn: 25,
                pace_ms: None,
                churn_every: 0,
            },
            ArmSpec {
                connections: 128,
                requests_per_conn: 4,
                pace_ms: Some(50),
                churn_every: 2,
            },
        ]
    } else {
        vec![
            ArmSpec {
                connections: 8,
                requests_per_conn: 2_500,
                pace_ms: None,
                churn_every: 0,
            },
            // Open-loop 8-conn baseline for the flat-p99 comparison: the
            // same aggregate arrival rate (~800 req/s) and churn mix (one
            // re-dial per 8 requests) as the 1000-connection arm, so the
            // only variable left is how many connections the data plane
            // is holding.
            ArmSpec {
                connections: 8,
                requests_per_conn: 1_000,
                pace_ms: Some(10),
                churn_every: 8,
            },
            ArmSpec {
                connections: 1_000,
                requests_per_conn: 8,
                pace_ms: Some(1_200),
                churn_every: 4,
            },
            ArmSpec {
                connections: 10_000,
                requests_per_conn: 3,
                pace_ms: Some(5_000),
                churn_every: 2,
            },
        ]
    };
    let max_arm_conns = arm_specs.iter().map(|a| a.connections).max().unwrap();
    // A dedicated proxy instance with the connection cap opened up, so
    // the scaling arms never brush against the default 4096 cap and
    // their metrics don't mix into the latency report above.
    let arm_registry = Arc::new(MetricsRegistry::new());
    let mut arm_proxy = ContentAwareProxy::start_with_config(
        TablePublisher::new(routing_table(&paths)),
        origins.iter().map(|o| o.addr()).collect(),
        Arc::clone(&arm_registry),
        ProxyConfig {
            workers: config.workers,
            prefork: 16,
            max_conns: max_arm_conns * 2,
            ..ProxyConfig::default()
        },
    )
    .unwrap();
    println!(
        "\nconnection scaling — {} event-loop workers, thread count fixed:",
        config.workers
    );
    let mut arms: Vec<ArmResult> = Vec::new();
    for spec in arm_specs {
        let arm = run_arm(arm_proxy.addr(), config.paths, spec);
        println!(
            "conns={:<6} pace={:<7} completed={:<7} reconnects={:<6} p50={:>8.1}us p99={:>8.1}us threads={}",
            arm.spec.connections,
            arm.spec
                .pace_ms
                .map_or("closed".to_string(), |ms| format!("{ms}ms")),
            arm.completed,
            arm.reconnects,
            us(arm.p50_ns),
            us(arm.p99_ns),
            arm.process_threads,
        );
        arms.push(arm);
    }
    let reactor_workers = arm_registry
        .snapshot()
        .gauge("reactor_workers")
        .unwrap_or(0);
    assert_eq!(
        reactor_workers, config.workers as i64,
        "worker thread count stays fixed at every connection count"
    );
    // The closed-loop arm saturates the CPU, so its tail is queueing
    // delay; the paced arms sleep between requests, so their tail is
    // wake-from-idle scheduling. The flat-p99 claim therefore compares
    // like with like: each big paced arm against the small paced arm,
    // leaving connection count as the only variable.
    let baseline = arms
        .iter()
        .rfind(|a| a.spec.connections <= 8 && a.spec.pace_ms.is_some())
        .unwrap_or(&arms[0]);
    let baseline_conns = baseline.spec.connections;
    let baseline_label = if baseline.spec.pace_ms.is_some() {
        "open-loop"
    } else {
        "closed-loop"
    };
    let baseline_p99 = baseline.p99_ns.max(1);
    for arm in arms.iter().filter(|a| a.spec.connections > baseline_conns) {
        println!(
            "  {} conns: p99 = {:.2}x the {}-conn {} baseline",
            arm.spec.connections,
            arm.p99_ns as f64 / baseline_p99 as f64,
            baseline_conns,
            baseline_label,
        );
    }
    arm_proxy.shutdown();

    if config.smoke {
        smoke_check(&proxy, &snapshot.histograms);
        println!("\nsmoke ok: all metric families present on both surfaces");
        controller.shutdown();
        return;
    }

    let histogram_json = |s: &HistogramSummary| {
        serde_json::json!({
            "count": s.count,
            "mean_ns": s.mean(),
            "p50_ns": s.p50,
            "p90_ns": s.p90,
            "p99_ns": s.p99,
            "max_ns": s.max,
        })
    };
    let mut histograms = serde_json::Map::new();
    for name in stages {
        let s = snapshot.histogram(name).expect(name);
        histograms.insert(name, histogram_json(s));
    }
    let report = serde_json::json!({
        "bench": "request_latency",
        "requests": total_requests,
        "clients": config.clients,
        "workers": config.workers,
        "paths": config.paths,
        "zipf_theta": ZIPF_THETA,
        "relayed": snapshot.counter("proxy_relayed_total"),
        "unroutable": snapshot.counter("proxy_unroutable_total"),
        "cache_hits": snapshot.counter("urltable_cache_hits_total"),
        "cache_misses": snapshot.counter("urltable_cache_misses_total"),
        "histograms": serde_json::Value::Object(histograms),
        "concurrency": {
            "workers": config.workers,
            "reactor_workers": reactor_workers,
            "baseline": {
                "connections": baseline_conns,
                "pace_ms": baseline.spec.pace_ms,
                "p99_ns": baseline_p99,
            },
            "baseline_p99_ns": baseline_p99,
            "arms": arms.iter().map(|a| serde_json::json!({
                "connections": a.spec.connections,
                "requests_per_conn": a.spec.requests_per_conn,
                "pace_ms": a.spec.pace_ms,
                "churn_every": a.spec.churn_every,
                "completed": a.completed,
                "reconnects": a.reconnects,
                "p50_ns": a.p50_ns,
                "p99_ns": a.p99_ns,
                "p99_vs_baseline": a.p99_ns as f64 / baseline_p99 as f64,
                "process_threads": a.process_threads,
            })).collect::<Vec<_>>(),
        },
        "tracing": {
            "untraced": {
                "mean_ns": untraced.mean_ns,
                "p50_ns": untraced.p50_ns,
                "p99_ns": untraced.p99_ns,
                "lookup_mean_ns": lookup_mean(0),
            },
            "traced": {
                "mean_ns": traced.mean_ns,
                "p50_ns": traced.p50_ns,
                "p99_ns": traced.p99_ns,
                "lookup_mean_ns": lookup_mean(1),
            },
            "mean_overhead_ratio": traced.mean_ns / untraced.mean_ns,
            "lookup_mean_overhead_ratio": lookup_mean(1) / lookup_mean(0),
        },
        "recorder": {
            "interval_ms": RECORD_INTERVAL.as_millis() as u64,
            "sampling_rounds": recorder_samples,
            "off": {
                "mean_ns": unrecorded.mean_ns,
                "p50_ns": unrecorded.p50_ns,
                "p99_ns": unrecorded.p99_ns,
            },
            "on": {
                "mean_ns": recorded.mean_ns,
                "p50_ns": recorded.p50_ns,
                "p99_ns": recorded.p99_ns,
            },
            "mean_overhead_ratio": recorded.mean_ns / unrecorded.mean_ns,
        },
    });
    std::fs::create_dir_all("bench_results").expect("create bench_results dir");
    std::fs::write(
        "bench_results/request_latency.json",
        serde_json::to_string_pretty(&report).expect("serialize"),
    )
    .expect("write results");
    eprintln!("wrote bench_results/request_latency.json");
    controller.shutdown();
}

/// The CI assertion pass: the Prometheus scrape must contain every
/// metric family, and the registry histograms must have recorded real
/// latencies on the hot path.
fn smoke_check(proxy: &ContentAwareProxy, histograms: &[(String, HistogramSummary)]) {
    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    let scrape = client.get(METRICS_PATH).unwrap();
    assert_eq!(scrape.status, 200, "metrics endpoint answers");
    let text = String::from_utf8(scrape.body).unwrap();
    for required in [
        "proxy_relayed_total",
        "proxy_request_ns_count",
        "dispatch_requests_total",
        "urltable_lookup_ns",
        "urltable_memory_bytes",
        "mgmt_ops_total",
        "mgmt_op_ns_count",
    ] {
        assert!(
            text.contains(required),
            "{required} missing from metrics scrape"
        );
    }
    for (name, summary) in histograms {
        assert!(
            summary.p50 <= summary.p90 && summary.p90 <= summary.p99 && summary.p99 <= summary.max,
            "{name} percentiles ordered"
        );
    }
    let request = histograms
        .iter()
        .find(|(n, _)| n == "proxy_request_ns")
        .map(|(_, s)| s)
        .expect("request histogram present");
    assert!(
        request.count > 0 && request.max > 0,
        "hot path was measured"
    );
}
