//! `cpms-bench`: the repository's benchmark. One command measures the
//! request, publication and shipment paths end to end and layer by
//! layer; see `README.md` beside this package and `BENCHMARK.json` at the
//! repository root.

mod catalog;
mod diff;
mod gen;
mod load;
mod pin;
mod probes;
mod report;
mod rig;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::Path;
use workloads::Kind;

const USAGE: &str = "usage:
  cpms-bench run [--seed N] [--seconds S] [--smoke]
      every workload, untraced then traced, into target/cpms-bench/result.json
  cpms-bench run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
      one workload in this process; the last line printed is its result object
  cpms-bench diff A.json B.json
      compare two result.json files by the bounds in ./BENCHMARK.json";

/// Default `--seed`.
const SEED: u64 = 2000;
/// Default `--seconds`: what `BENCHMARK.json` gives the driver.
const SECONDS: f64 = 26.0;
/// `--smoke`: short windows, two rounds, one set-up.
const SMOKE_SECONDS: f64 = 1.0;
const SMOKE_ROUNDS: usize = 2;

fn fail(message: &str) -> ! {
    eprintln!("cpms-bench: {message}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("diff") => match &args[1..] {
            [a, b] => diff::run(Path::new(a), Path::new(b), Path::new("BENCHMARK.json")),
            _ => fail("diff takes two result files"),
        },
        _ => fail("expected `run` or `diff`"),
    };
    std::process::exit(code);
}

fn run_command(args: &[String]) -> i32 {
    let mut workload = None;
    let mut seed = SEED;
    let mut seconds = None;
    let mut traced = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| fail(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Kind::parse(name).unwrap_or_else(|| fail(&format!("unknown workload {name}"))),
                );
            }
            "--seed" => {
                seed = value()
                    .parse()
                    .unwrap_or_else(|_| fail("--seed takes a whole number"))
            }
            "--seconds" => {
                let s: f64 = value()
                    .parse()
                    .unwrap_or_else(|_| fail("--seconds takes a number"));
                if !(s > 0.0 && s <= 600.0) {
                    fail("--seconds must be in (0, 600]");
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => fail("--trace takes 0 or 1"),
                }
            }
            "--smoke" => smoke = true,
            other => fail(&format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.unwrap_or(if smoke { SMOKE_SECONDS } else { SECONDS });
    let (rounds, setup_reps) = if smoke {
        (SMOKE_ROUNDS, 1)
    } else {
        (run::ROUNDS, run::SETUP_REPS)
    };
    match workload {
        Some(kind) => {
            let plan = run::Plan {
                kind,
                seed,
                seconds,
                rounds,
                setup_reps,
                traced,
            };
            let cpu = pin::pin_to_one_cpu();
            let before = pin::stolen_ticks(cpu);
            let outcome = run::run(&plan);
            let stolen = match (before, pin::stolen_ticks(cpu)) {
                (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                    Some((s1 - s0) as f64 / (t1 - t0) as f64)
                }
                _ => None,
            };
            report::emit(&plan, &outcome, cpu, stolen);
            outcome.exit_code()
        }
        None => suite::run(&suite::Suite {
            seed,
            seconds,
            rounds,
            setup_reps,
            smoke,
        }),
    }
}
