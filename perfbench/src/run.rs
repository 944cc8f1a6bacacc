//! One workload, one process: set-up, warm-up, then either the untraced
//! rounds that give the end-to-end metrics or the traced pass and layer
//! probes that give the per-layer ones.

use crate::catalog::{Better, END_TO_END, PER_LAYER};
use crate::load::Tally;
use crate::probes::{self, Values};
use crate::stats::{better_half_median, percentile_ns, tail_ns, Spread};
use crate::trace::{Span, Tracer};
use crate::workloads::{Fixture, Kind};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const MIB: f64 = 1024.0 * 1024.0;

/// Rounds of an untraced run; each is a measured arm (two thirds of the
/// round) followed by a floor arm (one third). Many short rounds, so that
/// a burst of interference from the shared host spoils some and not all.
pub const ROUNDS: usize = 24;
/// Times the workload is set up; `setup_s` is taken over them.
pub const SETUP_REPS: usize = 9;
/// Warm-up before measuring, as a share of `--seconds`.
pub const WARMUP_SHARE: f64 = 0.1;
/// Share of a traced run's `--seconds` spent rerunning the load (half of
/// it traced); the layer probes share the rest.
pub const TRACED_LOAD_SHARE: f64 = 0.4;
/// Probe time slices a traced run is divided into.
const PROBE_SLICES: f64 = 39.0;

pub struct Plan {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub rounds: usize,
    pub setup_reps: usize,
    pub traced: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples (or rounds' samples) behind the value.
    pub n: u64,
    /// Spread of the per-round values the median was taken over.
    pub spread: Option<Spread>,
    /// The per-round values themselves, in the order measured.
    pub per_round: Vec<f64>,
    /// The percentile actually reported under a tail metric's name.
    pub rank: Option<&'static str>,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The catalogued metrics of this pass: what the result object holds.
    pub metrics: Vec<Metric>,
    /// Printed and kept in the detail file, but not part of the result
    /// object: the untraced pass's tail latency.
    pub extras: Vec<Metric>,
    /// Spans of the traced pass.
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Any failed operation fails the run.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }
}

#[derive(Default)]
struct Counts {
    attempted: u64,
    failed: u64,
}

impl Counts {
    fn add(&mut self, arm: &(Tally, Option<Tally>)) {
        for tally in std::iter::once(&arm.0).chain(arm.1.as_ref()) {
            self.attempted += tally.attempted;
            self.failed += tally.failed;
        }
    }
}

pub fn run(plan: &Plan) -> Outcome {
    let mut setup_s = Vec::new();
    let mut fixture = None;
    for _ in 0..plan.setup_reps {
        drop(fixture.take());
        let start = Instant::now();
        fixture = Some(Fixture::set_up(plan.kind, plan.seed));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut fx = fixture.expect("at least one set-up");
    let mut counts = Counts::default();

    let warm_up = Duration::from_secs_f64(plan.seconds * WARMUP_SHARE);
    counts.add(&fx.arm(false, warm_up.mul_f64(2.0 / 3.0), None));
    counts.add(&fx.arm(true, warm_up.mul_f64(1.0 / 3.0), None));

    let (metrics, extras, spans) = if plan.traced {
        let (values, spans) = traced(&mut fx, plan, &mut counts);
        (by_catalog_layers(values), Vec::new(), spans)
    } else {
        let (metrics, extras) = untraced(&mut fx, plan, &setup_s, &mut counts);
        (metrics, extras, Vec::new())
    };
    drop(fx);
    Outcome {
        attempted: counts.attempted,
        failed: counts.failed,
        metrics,
        extras,
        spans,
    }
}

fn p50_us(tally: &Tally) -> f64 {
    percentile_ns(&tally.lat_ns, 0.5) as f64 / 1e3
}

/// The end-to-end metrics, and beside them the tail latency pooled over
/// all rounds (not catalogued end to end: see `bench.load_p99_us`).
fn untraced(
    fx: &mut Fixture,
    plan: &Plan,
    setup_s: &[f64],
    counts: &mut Counts,
) -> (Vec<Metric>, Vec<Metric>) {
    let round = Duration::from_secs_f64(plan.seconds / plan.rounds as f64);
    let mut rounds: Vec<(Tally, Tally)> = Vec::new();
    for _ in 0..plan.rounds {
        let main = fx.arm(false, round.mul_f64(2.0 / 3.0), None);
        let floor = fx.arm(true, round.mul_f64(1.0 / 3.0), None);
        counts.add(&main);
        counts.add(&floor);
        rounds.push((main.0, floor.0));
    }
    let per_round = |f: &dyn Fn(&Tally, &Tally) -> f64| -> Vec<f64> {
        rounds
            .iter()
            .filter(|(main, floor)| !main.lat_ns.is_empty() && !floor.lat_ns.is_empty())
            .map(|(main, floor)| f(main, floor))
            .collect()
    };
    let pooled: Vec<u64> = rounds
        .iter()
        .flat_map(|(main, _)| main.lat_ns.iter().copied())
        .collect();
    let n = pooled.len() as u64;
    let ship = fx.kind.is_ship();
    let (tail, rank) = tail_ns(&pooled);

    // The host is shared, and a neighbour's burst only ever makes a round
    // (or a set-up) slower: every number is the median of the better
    // half of its repetitions.
    let estimate = |name: &'static str, values: Vec<f64>, n: u64, better: Better| {
        let spread = (!values.is_empty()).then(|| Spread::of(&values));
        let value = better_half_median(&values, better == Better::Lower);
        Metric {
            per_round: values,
            ..metric(name, value, n, spread)
        }
    };
    let ops_s = estimate("ops_s", per_round(&|main, _| main.ops_s), n, Better::Higher);
    let p50 = estimate(
        "p50_us",
        per_round(&|main, _| p50_us(main)),
        n,
        Better::Lower,
    );
    let goodput = estimate(
        "goodput_mib_s",
        per_round(&|main, _| main.bytes_s / MIB),
        n,
        Better::Higher,
    );
    // The floor ratio is the ratio of the two arms' estimates; the
    // per-round ratios beside it show how well the arms of a round agree.
    let floor_ratio = {
        let value = if ship {
            let floor = per_round(&|_, floor| floor.bytes_s / MIB);
            better_half_median(&floor, false) / goodput.value
        } else {
            let floor = per_round(&|_, floor| p50_us(floor));
            p50.value / better_half_median(&floor, true)
        };
        let ratios = per_round(&|main, floor| {
            if ship {
                floor.bytes_s / main.bytes_s
            } else {
                p50_us(main) / p50_us(floor)
            }
        });
        Metric {
            value,
            ..estimate("floor_ratio", ratios, n, Better::Lower)
        }
    };
    let setup = estimate(
        "setup_s",
        setup_s.to_vec(),
        setup_s.len() as u64,
        Better::Lower,
    );
    let metrics = vec![setup, ops_s, p50, goodput, floor_ratio];
    let tail = Metric {
        name: "p99_us",
        unit: "us",
        value: tail as f64 / 1e3,
        n,
        spread: None,
        per_round: Vec::new(),
        rank: Some(rank),
    };
    (metrics, vec![tail])
}

fn metric(name: &'static str, value: f64, n: u64, spread: Option<Spread>) -> Metric {
    let unit = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|&(known, _)| known == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
        .1;
    Metric {
        name,
        unit,
        value,
        n,
        spread,
        per_round: Vec::new(),
        rank: None,
    }
}

/// Orders measured values as the catalog lists them; a metric nothing
/// measured is a bug.
fn by_catalog_layers(values: Values) -> Vec<Metric> {
    let mut measured: HashMap<&'static str, (f64, u64)> = values
        .into_iter()
        .map(|(name, v, n)| (name, (v, n)))
        .collect();
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let (value, n) = measured
                .remove(m.name)
                .unwrap_or_else(|| panic!("no probe measured {}", m.name));
            metric(m.name, value, n, None)
        })
        .collect();
    assert!(
        measured.is_empty(),
        "uncatalogued metrics: {:?}",
        measured.keys()
    );
    metrics
}

fn traced(fx: &mut Fixture, plan: &Plan, counts: &mut Counts) -> (Values, Vec<Span>) {
    let window = Duration::from_secs_f64(plan.seconds * TRACED_LOAD_SHARE / 4.0);
    let mut tracer = Tracer::new(Instant::now());
    let (mut plain, mut with_spans) = (Tally::default(), Tally::default());
    let mut late_ns = Vec::new();
    let before = LoadCounters::read();
    for _ in 0..2 {
        for traced in [false, true] {
            let arm = fx.arm(false, window, traced.then_some(&mut tracer));
            counts.add(&arm);
            late_ns.extend(&arm.0.late_ns);
            if let Some(reader) = &arm.1 {
                late_ns.extend(&reader.late_ns);
            }
            if traced { &mut with_spans } else { &mut plain }.merge(arm.0);
        }
    }
    let after = LoadCounters::read();
    let ops = (plain.attempted + with_spans.attempted).max(1) as f64;
    let plain_p50 = percentile_ns(&plain.lat_ns, 0.5) as f64;
    let traced_p50 = percentile_ns(&with_spans.lat_ns, 0.5) as f64;
    let mut values: Values = vec![
        (
            "httpd.cpu_us_per_req",
            (after.cpu_us - before.cpu_us) as f64 / ops,
            ops as u64,
        ),
        (
            "httpd.ctx_switches_per_req",
            after.switches_since(&before) as f64 / ops,
            ops as u64,
        ),
        (
            "bench.load_p50_us",
            plain_p50 / 1e3,
            plain.lat_ns.len() as u64,
        ),
        (
            "bench.load_p99_us",
            tail_ns(&plain.lat_ns).0 as f64 / 1e3,
            plain.lat_ns.len() as u64,
        ),
        (
            "bench.trace_overhead_ratio",
            traced_p50 / plain_p50.max(1.0),
            with_spans.lat_ns.len() as u64,
        ),
        (
            "bench.gen_late_p99_us",
            tail_ns(&late_ns).0 as f64 / 1e3,
            late_ns.len() as u64,
        ),
    ];

    let slice = Duration::from_secs_f64(plan.seconds * (1.0 - TRACED_LOAD_SHARE) / PROBE_SLICES);
    let scratch = crate::report::out_dir().join(format!("disk-store-{}", std::process::id()));
    values.extend(probes::reactor(slice));
    values.extend(probes::httpd_calls(fx, slice));
    values.extend(probes::get_path(fx, slice));
    values.extend(probes::new_connections(fx, slice * 2));
    values.extend(probes::read_beside_update(fx, slice * 3));
    values.extend(probes::routing(fx, slice));
    values.extend(probes::mgmt_ops(fx, slice));
    values.extend(probes::repair(slice));
    let (lossy, shipped) = probes::lossy_ship(plan.seed, slice * 4);
    values.extend(lossy);
    counts.add(&(shipped, None));
    values.extend(probes::wire(slice));
    values.extend(probes::store(slice, &scratch));
    values.extend(probes::ship_chunks(slice));
    values.extend(probes::obs(fx, slice));
    values.push(("bench.rss_mib", proc_self::peak_rss_mib(), 1));
    (values, tracer.spans)
}

/// Counters read before and after the traced run's load windows.
struct LoadCounters {
    cpu_us: u64,
    switches: HashMap<u32, u64>,
}

impl LoadCounters {
    fn read() -> LoadCounters {
        LoadCounters {
            cpu_us: proc_self::cpu_us(),
            switches: proc_self::voluntary_switches(),
        }
    }

    /// Voluntary context switches of the threads alive at both reads
    /// (the servers; load threads come and go with each arm).
    fn switches_since(&self, before: &LoadCounters) -> u64 {
        self.switches
            .iter()
            .filter_map(|(tid, now)| before.switches.get(tid).map(|then| now - then))
            .sum()
    }
}

/// This process's own accounting from `/proc/self`.
pub mod proc_self {
    use std::collections::HashMap;

    fn status_field(status: &str, key: &str) -> Option<u64> {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib() -> f64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        status_field(&status, "VmHWM:").unwrap_or(0) as f64 / 1024.0
    }

    /// User plus system CPU time of the whole process, in microseconds
    /// (`/proc/self/stat` counts in 10 ms ticks).
    pub fn cpu_us() -> u64 {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th of the line.
        let fields: Vec<&str> = stat
            .rsplit_once(") ")
            .map_or("", |(_, rest)| rest)
            .split_whitespace()
            .collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        (ticks(11) + ticks(12)) * 10_000
    }

    /// Voluntary context switches of every live thread, by thread id.
    pub fn voluntary_switches() -> HashMap<u32, u64> {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return HashMap::new();
        };
        tasks
            .flatten()
            .filter_map(|task| {
                let tid = task.file_name().to_str()?.parse().ok()?;
                let status = std::fs::read_to_string(task.path().join("status")).ok()?;
                Some((tid, status_field(&status, "voluntary_ctxt_switches:")?))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_operation_fails_the_run() {
        let outcome = |attempted, failed| Outcome {
            attempted,
            failed,
            metrics: Vec::new(),
            extras: Vec::new(),
            spans: Vec::new(),
        };
        assert_eq!(outcome(1_000, 0).exit_code(), 0);
        assert_eq!(outcome(1_000, 1).exit_code(), 1);
        assert_eq!(
            outcome(0, 0).exit_code(),
            1,
            "nothing attempted is not a pass"
        );
    }

    #[test]
    fn proc_self_reads_this_process() {
        assert!(proc_self::peak_rss_mib() > 1.0);
        assert!(!proc_self::voluntary_switches().is_empty());
        let before = proc_self::cpu_us();
        let start = Instant::now();
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(proc_self::cpu_us() >= before + 30_000);
    }
}
