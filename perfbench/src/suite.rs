//! `cpms-bench run` without `--workload`: every workload, each in a
//! process of its own (so set-up time and peak memory are per workload),
//! an untraced pass and then a traced one, gathered into
//! `target/cpms-bench/result.json`.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::report::{self, detail_path, out_dir, read_json, write_json};
use crate::workloads::Kind;
use serde_json::{json, Map, Value};
use std::process::Command;

pub struct Suite {
    pub seed: u64,
    pub seconds: f64,
    pub rounds: usize,
    pub setup_reps: usize,
    pub smoke: bool,
}

/// Runs one (workload, pass) in a child process, echoing its metric
/// lines; returns whether it exited 0.
fn run_child(suite: &Suite, kind: Kind, traced: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("run")
        .args(["--workload", kind.name()])
        .args(["--seed", &suite.seed.to_string()])
        .args(["--seconds", &suite.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if suite.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawn {}: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    lines.pop(); // the driver's result object; result.json carries it
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
    }
    Ok(output.status.success())
}

fn value_of(detail: &Value, metric: &str) -> Option<f64> {
    detail.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Where the time of a path goes, from the per-layer metrics: what the
/// named layers explain and what is left unexplained.
fn accounting(kind: Kind, plain: &Value, traced: &Value) -> Value {
    let workload = kind.name();
    let get = |name: &str| value_of(traced, name).unwrap_or(f64::NAN);
    let direct = get("httpd.origin_direct_p50_us");
    let proxy_self = get("httpd.proxy_self_p50_us");
    let publish = get("mgmt.publish_us");
    let update = get("urltable.update_us");
    let ship = 3.0 * get("mgmt.agent_rpc_us");
    let mut out = Map::new();
    if matches!(kind, Kind::RelaySmall | Kind::RelayLarge) {
        let p50 = value_of(plain, "p50_us").unwrap_or(f64::NAN);
        let sum = direct + proxy_self;
        println!(
            "{workload} accounting get: origin_direct {direct:.1} us + proxy_self {proxy_self:.1} us = {sum:.1} us vs p50_us {p50:.1} us ({:+.1}%)",
            (sum / p50 - 1.0) * 100.0
        );
        out.insert(
            "get",
            json!({"origin_direct_p50_us": direct, "proxy_self_p50_us": proxy_self, "p50_us": p50, "relative_gap": sum / p50 - 1.0}),
        );
    }
    let unexplained = publish - update - ship;
    println!(
        "{workload} accounting publish: table update {update:.1} us + ship (3 agent RPCs) {ship:.1} us explain {:.1}% of mgmt.publish_us {publish:.1} us; unexplained {unexplained:.1} us",
        (update + ship) / publish * 100.0
    );
    out.insert(
        "publish",
        json!({"publish_us": publish, "table_update_us": update, "ship_rpcs_us": ship, "unexplained_us": unexplained}),
    );
    Value::Object(out)
}

/// Checks a detail file against the catalog: every metric present, a
/// finite number, carrying its unit; no failed operation.
fn check(detail: &Value, names: &[(&'static str, &'static str)]) -> Vec<String> {
    let mut problems = Vec::new();
    for &(name, unit) in names {
        let metric = detail.get("metrics").and_then(|m| m.get(name));
        match metric.and_then(|m| m.get("value")).and_then(Value::as_f64) {
            Some(v) if v.is_finite() => {}
            other => problems.push(format!("{name}: value is {other:?}")),
        }
        if metric.and_then(|m| m.get("unit")).and_then(Value::as_str) != Some(unit) {
            problems.push(format!("{name}: unit is not {unit}"));
        }
    }
    if detail.get("failed").and_then(Value::as_u64) != Some(0) {
        problems.push("failed operations".to_string());
    }
    problems
}

/// Runs the whole suite; returns the process exit code.
pub fn run(suite: &Suite) -> i32 {
    let _ = std::fs::create_dir_all(out_dir());
    println!(
        "# cpms-bench run: seed {}, {} s per pass, {} rounds, {} workloads; servers are threads of the workload process, traffic crosses the host loopback interface",
        suite.seed,
        suite.seconds,
        suite.rounds,
        Kind::ALL.len()
    );
    let e2e: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let layers: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    let mut workloads = Map::new();
    let mut failures = Vec::new();
    for kind in Kind::ALL {
        let mut passes = Vec::new();
        for (traced, names) in [(false, &e2e), (true, &layers)] {
            // A stale detail file must not stand in for a run that died.
            let _ = std::fs::remove_file(detail_path(kind.name(), traced));
            match run_child(suite, kind, traced) {
                Ok(true) => {}
                Ok(false) => failures.push(format!(
                    "{} trace {}: exited non-zero",
                    kind.name(),
                    u8::from(traced)
                )),
                Err(e) => failures.push(e),
            }
            match read_json(&detail_path(kind.name(), traced)) {
                Ok(detail) => {
                    for problem in check(&detail, names) {
                        failures.push(format!("{} {problem}", kind.name()));
                    }
                    passes.push(detail);
                }
                Err(e) => {
                    failures.push(e);
                    passes.push(Value::Null);
                }
            }
        }
        let accounting = accounting(kind, &passes[0], &passes[1]);
        let count = |key: &str| -> u64 {
            passes
                .iter()
                .filter_map(|p| p.get(key).and_then(Value::as_u64))
                .sum()
        };
        let metrics = |pass: &Value| pass.get("metrics").cloned().unwrap_or(Value::Null);
        workloads.insert(
            kind.name(),
            json!({
                "attempted": count("attempted"),
                "failed": count("failed"),
                "fail_ratio": count("failed") as f64 / count("attempted").max(1) as f64,
                "end_to_end": metrics(&passes[0]),
                "per_layer": metrics(&passes[1]),
                "accounting": accounting,
                "trace_file": format!("trace-{}.json", kind.name()),
            }),
        );
    }
    let result = json!({
        "benchmark": "cpms-bench",
        "host": report::host_fingerprint(),
        "seed": suite.seed,
        "config": report::config(suite.seconds, suite.rounds, suite.setup_reps),
        "catalog": report::catalog_json(),
        "workloads": Value::Object(workloads),
    });
    let path = out_dir().join("result.json");
    write_json(&path, &result);
    println!("# wrote {}", path.display());
    for failure in &failures {
        eprintln!("FAILED: {failure}");
    }
    if suite.smoke && failures.is_empty() {
        println!("# smoke ok: every workload printed every catalogued metric, finite, with its unit; no operation failed");
    }
    i32::from(!failures.is_empty())
}
