//! What a run writes: one line per metric on stdout, the result object
//! the driver reads as the last line, and the files under
//! `target/cpms-bench/`.

use crate::catalog::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::{self, Metric, Outcome, Plan};
use crate::stats::Spread;
use crate::workloads as w;
use serde_json::{json, Map, Value};
use std::path::PathBuf;

/// Where result, detail and trace files go, relative to the working
/// directory (the root of the checkout).
pub fn out_dir() -> PathBuf {
    PathBuf::from("target/cpms-bench")
}

fn spread_json(s: &Spread) -> Value {
    json!({"min": s.min, "q1": s.q1, "median": s.median, "q3": s.q3, "max": s.max})
}

fn metric_json(m: &Metric) -> Value {
    let mut o = Map::new();
    o.insert("value", json!(m.value));
    o.insert("unit", json!(m.unit));
    o.insert("n", json!(m.n));
    if let Some(s) = &m.spread {
        o.insert("rounds", spread_json(s));
        o.insert("per_round", json!(m.per_round));
    }
    if let Some(rank) = m.rank {
        o.insert("rank", json!(rank));
    }
    Value::Object(o)
}

/// `workload metric value unit n=<samples>`, with the rank of a tail
/// metric and the spread over rounds where there is one.
fn metric_line(workload: &str, m: &Metric) -> String {
    let mut line = format!("{workload} {} {} {} n={}", m.name, m.value, m.unit, m.n);
    if let Some(rank) = m.rank {
        line.push_str(&format!(" rank={rank}"));
    }
    if let Some(s) = &m.spread {
        line.push_str(&format!(
            " rounds[min q1 med q3 max]={:.4} {:.4} {:.4} {:.4} {:.4} iqr={:.1}%",
            s.min,
            s.q1,
            s.median,
            s.q3,
            s.max,
            s.relative_iqr() * 100.0
        ));
    }
    line
}

/// The detail file of one (workload, pass): everything the result line
/// says plus sample counts, ranks and round spreads.
pub fn detail_path(workload: &str, traced: bool) -> PathBuf {
    out_dir().join(format!("detail-{workload}-trace{}.json", u8::from(traced)))
}

/// Prints one process's outcome and writes its detail (and trace) file.
/// The last line printed is the result object the driver parses.
pub fn emit(plan: &Plan, outcome: &Outcome, cpu: Option<usize>, stolen: Option<f64>) {
    let workload = plan.kind.name();
    println!(
        "# {workload}: seed {}, {} s, {}; servers and load are threads of this process, {}; all traffic crosses the host loopback interface",
        plan.seed,
        plan.seconds,
        if plan.traced {
            "traced pass and layer probes"
        } else {
            "untraced rounds"
        },
        cpu.map_or("NOT pinned (sched_setaffinity failed)".to_string(), |c| format!(
            "all pinned to CPU {c}"
        )),
    );
    let mut metrics = Map::new();
    let mut detail = Map::new();
    for m in &outcome.metrics {
        println!("{}", metric_line(workload, m));
        metrics.insert(m.name, json!({"value": m.value, "unit": m.unit}));
        detail.insert(m.name, metric_json(m));
    }
    for m in &outcome.extras {
        println!("{}", metric_line(workload, m));
        detail.insert(m.name, metric_json(m));
    }
    if let Some(share) = stolen {
        println!(
            "# the host took {:.1}% of this run's CPU time for other guests (steal)",
            share * 100.0
        );
    }
    let fail_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{workload} fail_ratio {fail_ratio} ratio n={}",
        outcome.attempted
    );

    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create target/cpms-bench");
    let detail = json!({
        "workload": workload,
        "seed": plan.seed,
        "seconds": plan.seconds,
        "traced": plan.traced,
        "pinned_cpu": cpu,
        "host_steal_share": stolen,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "fail_ratio": fail_ratio,
        "metrics": Value::Object(detail),
    });
    write_json(&detail_path(workload, plan.traced), &detail);
    if plan.traced {
        let trace = crate::trace::to_json(workload, plan.seed, &outcome.spans);
        write_json(&dir.join(format!("trace-{workload}.json")), &trace);
        for (name, (count, total_ns, self_ns)) in crate::trace::by_name(&outcome.spans) {
            println!("{workload} span {name} count={count} total_ns={total_ns} self_ns={self_ns}");
        }
    }

    let result = json!({
        "correct": outcome.correct(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("serialize result")
    );
}

pub fn write_json(path: &std::path::Path, value: &Value) {
    std::fs::write(
        path,
        serde_json::to_string_pretty(value).expect("serialize"),
    )
    .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

pub fn read_json(path: &std::path::Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers were measured on.
pub fn host_fingerprint() -> Value {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    json!({
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "kernel": kernel,
        "rustc": command_line("rustc", &["--version"]),
        "git_commit": command_line("git", &["rev-parse", "HEAD"]),
        "network": "host loopback interface",
    })
}

/// Every constant a result depends on; `diff` refuses to compare results
/// whose constants differ.
pub fn config(seconds: f64, rounds: usize, setup_reps: usize) -> Value {
    json!({
        "seconds": seconds,
        "rounds": rounds,
        "setup_reps": setup_reps,
        "warmup_share": run::WARMUP_SHARE,
        "traced_load_share": run::TRACED_LOAD_SHARE,
        "nodes": crate::gen::NODES,
        "proxy_workers": crate::rig::PROXY_WORKERS,
        "proxy_prefork": crate::rig::PROXY_PREFORK,
        "load_threads_max": 2,
        "small_objects": w::SMALL_OBJECTS,
        "zipf_alpha": w::ZIPF_ALPHA,
        "large_objects": w::LARGE_OBJECTS,
        "large_bytes": w::LARGE_BYTES,
        "cold_entries": w::COLD_ENTRIES,
        "hot_objects": w::HOT_OBJECTS,
        "ship_bytes": w::SHIP_BYTES,
        "newconn_rate": w::NEWCONN_RATE,
        "reader_rate": w::READER_RATE,
        "loss_rate": w::LOSS_RATE,
    })
}

/// The catalog as JSON, for `result.json`: bounds, directions, layers
/// and predictions travel with the numbers.
pub fn catalog_json() -> Value {
    let better = |b: Better| b.as_str();
    json!({
        "workloads": WORKLOADS.iter().map(|w| json!({"name": w.name, "why": w.why})).collect::<Vec<_>>(),
        "end_to_end": END_TO_END.iter().map(|m| json!({
            "name": m.name, "unit": m.unit, "better": better(m.better), "bound": m.bound,
        })).collect::<Vec<_>>(),
        "per_layer": PER_LAYER.iter().map(|m| json!({
            "name": m.name, "unit": m.unit, "better": better(m.better),
            "layer": m.layer, "moves": m.moves,
        })).collect::<Vec<_>>(),
    })
}
