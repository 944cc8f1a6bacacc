//! The `cpms-bench` binary driven as a user or the benchmark driver would:
//! the smoke run over every workload, one driver-style run, and `diff`.

use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bench(dir: &Path, args: &[&str]) -> Output {
    std::fs::create_dir_all(dir).unwrap();
    Command::new(env!("CARGO_BIN_EXE_cpms-bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run cpms-bench")
}

/// A scratch directory under the target directory, one per test.
fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn names(benchmark: &Value, key: &str) -> Vec<(String, String)> {
    benchmark
        .get(key)
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

/// `run --smoke`: every workload, both passes; every metric named in
/// `BENCHMARK.json` is in `result.json`, finite, with its unit, and no
/// operation failed.
#[test]
fn smoke_run_prints_every_catalogued_metric() {
    let dir = scratch("smoke");
    let started = std::time::Instant::now();
    let out = bench(&dir, &["run", "--smoke"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("# smoke ok"), "{stdout}");
    eprintln!("smoke took {:.1} s", started.elapsed().as_secs_f64());

    let result: Value = serde_json::from_str(
        &std::fs::read_to_string(dir.join("target/cpms-bench/result.json")).unwrap(),
    )
    .unwrap();
    let benchmark = benchmark_json();
    for (workload, _) in names(&benchmark, "workloads") {
        let w = result
            .get("workloads")
            .and_then(|ws| ws.get(&workload))
            .unwrap_or_else(|| panic!("{workload} missing from result.json"));
        assert_eq!(
            w.get("failed").and_then(Value::as_u64),
            Some(0),
            "{workload}"
        );
        assert!(
            w.get("attempted").and_then(Value::as_u64).unwrap() > 0,
            "{workload}"
        );
        for (section, key) in [("end_to_end", "end_to_end"), ("per_layer", "per_layer")] {
            for (name, unit) in names(&benchmark, key) {
                let m = w
                    .get(section)
                    .and_then(|s| s.get(&name))
                    .unwrap_or_else(|| panic!("{workload} {name} missing"));
                let value = m.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload} {name} = {value:?}"
                );
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                assert!(
                    stdout.contains(&format!("{workload} {name} ")),
                    "{workload} {name} not printed"
                );
            }
        }
        assert!(
            dir.join(format!("target/cpms-bench/trace-{workload}.json"))
                .exists(),
            "trace file of {workload}"
        );
    }
}

/// The driver's invocation: the last line of stdout is one JSON object
/// with exactly `correct`, `attempted`, `failed` and `metrics`, and the
/// metrics are exactly the end-to-end set.
#[test]
fn driver_style_run_ends_with_the_result_object() {
    let dir = scratch("driver");
    let out = bench(
        &dir,
        &[
            "run",
            "--workload",
            "relay-small",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last: Value = serde_json::from_str(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = last
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(last.get("failed").and_then(Value::as_u64), Some(0));
    let reported: Vec<(String, String)> = last
        .get("metrics")
        .and_then(Value::as_object)
        .unwrap()
        .iter()
        .map(|(name, m)| {
            let keys: Vec<&str> = m
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["value", "unit"], "{name}");
            let unit = m.get("unit").and_then(Value::as_str).unwrap().to_string();
            (name.clone(), unit)
        })
        .collect();
    assert_eq!(reported, names(&benchmark_json(), "end_to_end"));
}

#[test]
fn bad_arguments_are_refused() {
    let dir = scratch("usage");
    for args in [
        &["run", "--workload", "no-such-workload"][..],
        &["run", "--trace", "2"],
        &["diff", "only-one.json"],
        &["frobnicate"],
    ] {
        let out = bench(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

/// A minimal `result.json`: one workload whose `p50_us` reads `p50`.
fn result_file(dir: &Path, name: &str, seed: u64, p50: f64, failed: u64) -> String {
    let metric = |value: f64| {
        json!({
            "value": value, "unit": "x", "n": 100,
            "rounds": {"min": value * 0.98, "q1": value * 0.99, "median": value,
                       "q3": value * 1.01, "max": value * 1.02},
        })
    };
    let mut end_to_end = serde_json::Map::new();
    for (metric_name, _) in names(&benchmark_json(), "end_to_end") {
        let value = if metric_name == "p50_us" { p50 } else { 10.0 };
        end_to_end.insert(metric_name, metric(value));
    }
    let mut workloads = serde_json::Map::new();
    for (workload, _) in names(&benchmark_json(), "workloads") {
        workloads.insert(
            workload,
            json!({"attempted": 1000, "failed": failed, "end_to_end": Value::Object(end_to_end.clone())}),
        );
    }
    let result = json!({
        "seed": seed,
        "config": {"seconds": 10.0, "rounds": 7},
        "workloads": Value::Object(workloads),
    });
    std::fs::write(
        dir.join(name),
        serde_json::to_string_pretty(&result).unwrap(),
    )
    .unwrap();
    name.to_string()
}

#[test]
fn diff_judges_by_the_bounds_in_benchmark_json() {
    let dir = scratch("diff");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        dir.join("BENCHMARK.json"),
    )
    .unwrap();
    let base = result_file(&dir, "a.json", 2000, 100.0, 0);
    let same = result_file(&dir, "same.json", 2000, 103.0, 0);
    let slower = result_file(&dir, "slower.json", 2000, 160.0, 0);
    let failing = result_file(&dir, "failing.json", 2000, 100.0, 3);
    let other_seed = result_file(&dir, "other-seed.json", 2001, 100.0, 0);

    let out = bench(&dir, &["diff", &base, &same]);
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(out.status.code(), Some(0), "{text}");
    assert!(text.contains("relay-small p50_us 100 103 +3.00%"), "{text}");
    assert!(
        !text.contains("regressed\n") || text.contains("# 0 regressed"),
        "{text}"
    );

    let out = bench(&dir, &["diff", &base, &slower]);
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(out.status.code(), Some(1), "{text}");
    assert!(text.contains("ship-bulk p50_us 100 160 +60.00%"), "{text}");
    assert!(text
        .lines()
        .any(|l| l.starts_with("relay-small p50_us") && l.ends_with("regressed")));
    // The faster side is not a regression in the other direction.
    assert_eq!(
        bench(&dir, &["diff", &slower, &base]).status.code(),
        Some(0)
    );

    let out = bench(&dir, &["diff", &base, &failing]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a rise in failed operations regresses"
    );

    let out = bench(&dir, &["diff", &base, &other_seed]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "different seeds are not comparable"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("`seed`"));
}
