//! `cpms-bench diff A.json B.json`: one row per workload × end-to-end
//! metric, judged by the bounds and directions in `BENCHMARK.json`.

use crate::report::read_json;
use serde_json::Value;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread between rounds is wider than the bound, so neither
    /// "unchanged" nor "regressed" can be claimed.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: the value and the spread of the rounds behind it.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    /// (min, q1, q3, max) over rounds, where the metric has rounds.
    pub rounds: Option<(f64, f64, f64, f64)>,
}

impl Side {
    fn relative_iqr(&self) -> f64 {
        match self.rounds {
            Some((_, q1, q3, _)) if self.value != 0.0 => (q3 - q1) / self.value.abs(),
            _ => 0.0,
        }
    }
}

/// Judges B against A. `worse` is B's change in the bad direction as a
/// share of A.
pub fn judge(a: Side, b: Side, lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse = sign * (b.value - a.value) / a.value.abs();
    let noisy = a.relative_iqr().max(b.relative_iqr()) > bound;
    // Every round of B better than every round of A settles it even
    // when the rounds are noisy.
    let all_better = match (a.rounds, b.rounds) {
        (Some((a_min, .., a_max)), Some((b_min, .., b_max))) => {
            if lower_is_better {
                b_max < a_min
            } else {
                b_min > a_max
            }
        }
        _ => false,
    };
    let verdict = if all_better {
        Verdict::Ok
    } else if noisy {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

fn side(workload: &Value, metric: &str) -> Option<Side> {
    let m = workload.get("end_to_end")?.get(metric)?;
    let rounds = m.get("rounds").and_then(|r| {
        let f = |k: &str| r.get(k).and_then(Value::as_f64);
        Some((f("min")?, f("q1")?, f("q3")?, f("max")?))
    });
    Some(Side {
        value: m.get("value")?.as_f64()?,
        rounds,
    })
}

/// Compares two `result.json` files; returns the process exit code:
/// 0 when no row regressed, 1 when one did, 2 when the files cannot be
/// compared.
pub fn run(a_path: &Path, b_path: &Path, benchmark_path: &Path) -> i32 {
    let load = |p: &Path| read_json(p).map_err(|e| eprintln!("cpms-bench diff: {e}"));
    let (Ok(a), Ok(b), Ok(benchmark)) = (load(a_path), load(b_path), load(benchmark_path)) else {
        return 2;
    };
    for key in ["seed", "config"] {
        if a.get(key) != b.get(key) {
            eprintln!(
                "cpms-bench diff: the results differ in `{key}` and cannot be compared:\n  {}: {:?}\n  {}: {:?}",
                a_path.display(),
                a.get(key),
                b_path.display(),
                b.get(key)
            );
            return 2;
        }
    }
    let list = |key: &str| {
        benchmark
            .get(key)
            .and_then(Value::as_array)
            .map(<[Value]>::to_vec)
            .unwrap_or_default()
    };
    let mut regressed = 0;
    println!("workload metric A B worse_by bound verdict");
    for w in list("workloads") {
        let Some(name) = w.get("name").and_then(Value::as_str) else {
            continue;
        };
        for m in list("end_to_end") {
            let text = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("");
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let sides = |r: &Value| {
                r.get("workloads")?
                    .get(name)
                    .and_then(|w| side(w, text("name")))
            };
            let (Some(sa), Some(sb)) = (sides(&a), sides(&b)) else {
                eprintln!(
                    "cpms-bench diff: {name} {} is missing from a result",
                    text("name")
                );
                return 2;
            };
            let (worse, verdict) = judge(sa, sb, text("better") == "lower", bound);
            if verdict == Verdict::Regressed {
                regressed += 1;
            }
            println!(
                "{name} {} {} {} {:+.2}% {:.0}% {}",
                text("name"),
                sa.value,
                sb.value,
                worse * 100.0,
                bound * 100.0,
                verdict.as_str()
            );
        }
        let failed = |r: &Value| {
            r.get("workloads")
                .and_then(|ws| ws.get(name))
                .and_then(|w| w.get("failed"))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        if failed(&b) > failed(&a) {
            regressed += 1;
            println!("{name} failed {} {} regressed", failed(&a), failed(&b));
        }
    }
    println!("# {regressed} regressed");
    i32::from(regressed > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(value: f64) -> Side {
        Side {
            value,
            rounds: Some((value * 0.99, value * 0.995, value * 1.005, value * 1.01)),
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        // Lower is better, bound 10 %.
        assert_eq!(judge(quiet(100.0), quiet(105.0), true, 0.10).1, Verdict::Ok);
        assert_eq!(
            judge(quiet(100.0), quiet(115.0), true, 0.10).1,
            Verdict::Regressed
        );
        assert_eq!(judge(quiet(100.0), quiet(80.0), true, 0.10).1, Verdict::Ok);
        // Higher is better: a drop is the regression.
        assert_eq!(
            judge(quiet(100.0), quiet(85.0), false, 0.10).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(quiet(100.0), quiet(115.0), false, 0.10).1,
            Verdict::Ok
        );
        // Rounds spread wider than the bound: neither claim holds …
        let noisy = |value: f64| Side {
            value,
            rounds: Some((value * 0.7, value * 0.9, value * 1.1, value * 1.3)),
        };
        assert_eq!(
            judge(noisy(100.0), noisy(115.0), true, 0.10).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(noisy(100.0), noisy(100.0), true, 0.10).1,
            Verdict::Unresolved
        );
        // … unless every round of B beats every round of A.
        assert_eq!(judge(noisy(100.0), noisy(50.0), true, 0.10).1, Verdict::Ok);
        // No rounds (a pooled tail): judged on the values alone.
        let bare = |value| Side {
            value,
            rounds: None,
        };
        assert_eq!(
            judge(bare(100.0), bare(130.0), true, 0.25).1,
            Verdict::Regressed
        );
    }
}
