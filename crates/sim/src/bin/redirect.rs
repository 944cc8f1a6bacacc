//! §2.1 ablation — why the paper builds connection splicing instead of
//! HTTP redirection.
//!
//! > "we do not prefer HTTP redirection because this mechanism is quite
//! > heavy-weight. Not only does it necessitate the use of one additional
//! > connection, which introduces an extra round-trip latency…"
//!
//! Same placement (partitioned), same decisions (content-aware); only the
//! delivery mechanism differs: spliced relaying vs a 302 + fresh client
//! connection. Swept over client↔cluster RTTs from LAN to WAN.
//!
//! Run with: `cargo run --release -p cpms-sim --bin redirect`

use cpms_model::{NodeSpec, SimDuration, WorkloadKind};
use cpms_sim::{Experiment, PlacementPolicy, Router};

fn main() {
    let base = || {
        Experiment::builder()
            .corpus_objects(8_700)
            .nodes(NodeSpec::paper_testbed())
            .workload(WorkloadKind::A)
            .clients(64)
            .windows(SimDuration::from_secs(10), SimDuration::from_secs(25))
            .placement(PlacementPolicy::PartitionedByType {
                segregate_dynamic: false,
            })
            .seed(7)
    };

    eprintln!("redirect: comparing splicing vs HTTP redirection across client RTTs...");

    let spliced = base().router(Router::ContentAware).build().run();

    println!("§2.1 ablation — connection splicing vs HTTP redirection\n");
    println!(
        "{:>18} | {:>12} | {:>14} | {:>10}",
        "mechanism", "client RTT", "throughput", "mean resp"
    );
    println!("{}", "-".repeat(64));
    println!(
        "{:>18} | {:>12} | {:>10.0} rps | {:>8.1}ms",
        "spliced (paper)",
        "n/a",
        spliced.report.throughput_rps(),
        spliced.report.mean_response_ms()
    );

    let mut rows = vec![serde_json::json!({
        "mechanism": "spliced",
        "client_rtt_ms": serde_json::Value::Null,
        "throughput_rps": spliced.report.throughput_rps(),
        "mean_response_ms": spliced.report.mean_response_ms(),
    })];
    for rtt_ms in [1u64, 10, 40, 80] {
        let redirected = base()
            .router(Router::HttpRedirect {
                client_rtt: SimDuration::from_millis(rtt_ms),
            })
            .build()
            .run();
        println!(
            "{:>18} | {:>10}ms | {:>10.0} rps | {:>8.1}ms",
            "http-redirect",
            rtt_ms,
            redirected.report.throughput_rps(),
            redirected.report.mean_response_ms()
        );
        rows.push(serde_json::json!({
            "mechanism": "http-redirect",
            "client_rtt_ms": rtt_ms,
            "throughput_rps": redirected.report.throughput_rps(),
            "mean_response_ms": redirected.report.mean_response_ms(),
        }));
    }
    println!(
        "\npaper's point: redirection pays two extra round trips per request,\n\
         so its cost explodes with client RTT while splicing is flat."
    );

    std::fs::create_dir_all("bench_results").expect("create bench_results dir");
    std::fs::write(
        "bench_results/redirect.json",
        serde_json::to_string_pretty(&rows).expect("serialize"),
    )
    .expect("write results");
    eprintln!("wrote bench_results/redirect.json");
}
