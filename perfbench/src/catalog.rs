//! Every name the benchmark reports: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics with the layer they
//! belong to and the end-to-end metrics they are predicted to move.
//! `BENCHMARK.json` lists the same names (a test keeps the two in step).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Crate the metric belongs to (`bench` for the harness itself).
    pub layer: &'static str,
    /// Which end-to-end metric on which workload this should move.
    pub moves: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "relay-small",
        why: "8,700 objects of 64-1,024 B, keep-alive Zipf GETs on 2 connections: per-request cost (parse, lookup, pool, wake-ups) is the whole bill, bytes are noise",
    },
    Workload {
        name: "relay-large",
        why: "64 objects of 256 KiB, uniform: bytes relayed dominate and per-request cost is noise; the control on which lookup, parse and cache changes predict no change",
    },
    Workload {
        name: "publish-churn",
        why: "controller ops (40% publish, 20% replicate, 10% rename, 30% delete) on a 100k-entry URL table beside a 50 req/s reader: the table used from its write side, writes beside reads",
    },
    Workload {
        name: "ship-bulk",
        why: "256 KiB objects published to 2 of 3 TCP brokers over a near-empty table: chunking, framing and per-chunk round trips do all the work, the URL table none",
    },
];

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "goodput_mib_s",
        unit: "MiB/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "floor_ratio",
        unit: "x",
        better: Better::Lower,
        bound: 0.25,
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

const RELAY_SMALL: &str =
    "p50_us, ops_s, floor_ratio on relay-small; none on relay-large goodput_mib_s";
const LOOKUP_SIDE: &str = "p50_us on relay-small, expected share < 5%; none on relay-large";
const FLOORS: &str = "the floors themselves: moves p50_us but not floor_ratio";
const PUBLISH: &str = "p50_us, ops_s on publish-churn once the table clone is gone";
const SHIP: &str = "goodput_mib_s, floor_ratio on ship-bulk";
const LOSSY: &str =
    "mgmt.lossy_publish_mib_s; no end-to-end metric (ship-bulk runs on a clean wire)";
const OBS: &str = "p50_us on relay-small only when spans or the sampler are on";
const QUALIFIES: &str = "qualifies the numbers, moves nothing";

pub const PER_LAYER: [Layer; 57] = [
    layer("reactor.wake_rtt_us", "us", Lower, "reactor", RELAY_SMALL),
    layer("reactor.timer_arm_cancel_ns", "ns", Lower, "reactor", RELAY_SMALL),
    layer("httpd.parse_head_ns", "ns", Lower, "httpd", LOOKUP_SIDE),
    layer("httpd.pool_checkout_ns", "ns", Lower, "httpd", RELAY_SMALL),
    layer("httpd.origin_direct_p50_us", "us", Lower, "httpd", FLOORS),
    layer("httpd.origin_direct_mib_s", "MiB/s", Higher, "httpd", FLOORS),
    layer("httpd.proxy_self_p50_us", "us", Lower, "httpd", RELAY_SMALL),
    layer("httpd.single_worker_p50_us", "us", Lower, "httpd", "compare with p50_us on relay-small: the one-worker anomaly"),
    layer("httpd.cpu_us_per_req", "us", Lower, "httpd", "p50_us, ops_s on relay-small; goodput_mib_s, floor_ratio on relay-large (body copies)"),
    layer("httpd.ctx_switches_per_req", "count", Lower, "httpd", RELAY_SMALL),
    layer("httpd.reported_request_mean_ns", "ns", Lower, "httpd", "cross-check of p50_us from the proxy's own histogram"),
    layer("httpd.reported_relay_mean_ns", "ns", Lower, "httpd", "cross-check of httpd.proxy_self_p50_us"),
    layer("httpd.reported_parse_mean_ns", "ns", Lower, "httpd", "cross-check of httpd.parse_head_ns"),
    layer("httpd.newconn_p50_us", "us", Lower, "httpd", "independent visitors, 500 fresh connections a second timed from due: accept and hand-off, not on the keep-alive path; no end-to-end metric"),
    layer("httpd.newconn_p99_us", "us", Lower, "httpd", "as httpd.newconn_p50_us, highest supported rank; sits on a cliff (about one fresh connection in a hundred takes 28 ms)"),
    layer("httpd.read_beside_update_p50_us", "us", Lower, "httpd", "the reader beside a republishing table, by table size: a publish that stalls readers on re-pin shows here; no end-to-end metric of the relay workloads"),
    layer("httpd.read_beside_update_p99_us", "us", Lower, "httpd", "as httpd.read_beside_update_p50_us, highest supported rank"),
    layer("dispatch.route_ns", "ns", Lower, "dispatch", LOOKUP_SIDE),
    layer("dispatch.unroutable_ratio", "ratio", Lower, "dispatch", "failed operations on every relay workload"),
    layer("urltable.lookup_ns", "ns", Lower, "urltable", LOOKUP_SIDE),
    layer("urltable.cache_hit_ratio", "ratio", Higher, "urltable", LOOKUP_SIDE),
    layer("urltable.repin_lookup_ns", "ns", Lower, "urltable", "httpd.read_beside_update_p99_us on publish-churn; none on ship-bulk"),
    layer("urltable.update_us", "us", Lower, "urltable", "p50_us, ops_s on publish-churn (today about 90% of an op); none on ship-bulk"),
    layer("urltable.bytes_per_object", "B", Lower, "urltable", "bench.rss_mib, setup_s on publish-churn; none on ship-bulk"),
    layer("mgmt.publish_us", "us", Lower, "mgmt", PUBLISH),
    layer("mgmt.replicate_us", "us", Lower, "mgmt", PUBLISH),
    layer("mgmt.rename_us", "us", Lower, "mgmt", PUBLISH),
    layer("mgmt.delete_us", "us", Lower, "mgmt", PUBLISH),
    layer("mgmt.agent_rpc_us", "us", Lower, "mgmt", PUBLISH),
    layer("mgmt.lossy_publish_mib_s", "MiB/s", Higher, "mgmt", "goodput_mib_s of ship-bulk under 10% frame loss on every controller-broker link: windowing that wins clean and collapses under loss shows here"),
    layer("mgmt.repair_mib_s", "MiB/s", Higher, "mgmt", "follows goodput_mib_s on ship-bulk"),
    layer("wire.rpc_rtt_us", "us", Lower, "wire", PUBLISH),
    layer("wire.rpc_rtt_64k_us", "us", Lower, "wire", SHIP),
    layer("wire.frame_encode_mib_s", "MiB/s", Higher, "wire", SHIP),
    layer("wire.frame_decode_mib_s", "MiB/s", Higher, "wire", SHIP),
    layer("wire.retries_per_call", "ratio", Lower, "wire", LOSSY),
    layer("store.put_mib_s", "MiB/s", Higher, "store", "setup_s on every workload"),
    layer("store.read_mib_s", "MiB/s", Higher, "store", FLOORS),
    layer("store.stage_commit_us", "us", Lower, "store", PUBLISH),
    layer("store.ship_apply_us", "us", Lower, "store", SHIP),
    layer("store.fnv64_mib_s", "MiB/s", Higher, "store", SHIP),
    layer("store.ship_mib_s_1k", "MiB/s", Higher, "store", SHIP),
    layer("store.ship_mib_s_4k", "MiB/s", Higher, "store", SHIP),
    layer("store.ship_mib_s_16k", "MiB/s", Higher, "store", SHIP),
    layer("store.ship_mib_s_64k", "MiB/s", Higher, "store", SHIP),
    layer("store.chunk_retries_per_mib", "1/MiB", Lower, "store", LOSSY),
    layer("store.resumes_per_mib", "1/MiB", Lower, "store", LOSSY),
    layer("store.disk_put_mib_s", "MiB/s", Higher, "store", "none today (stores are in memory); the baseline for the fsyncs of ROADMAP item 3"),
    layer("obs.span_record_ns", "ns", Lower, "obs", OBS),
    layer("obs.hist_record_ns", "ns", Lower, "obs", OBS),
    layer("obs.snapshot_us", "us", Lower, "obs", OBS),
    layer("obs.tracing_overhead_ratio", "x", Lower, "obs", OBS),
    layer("bench.trace_overhead_ratio", "x", Lower, "bench", QUALIFIES),
    layer("bench.gen_late_p99_us", "us", Lower, "bench", QUALIFIES),
    layer("bench.rss_mib", "MiB", Lower, "bench", "VmHWM at exit; end-to-end by nature, listed here because it does not repeat within its bound on publish-churn"),
    layer("bench.load_p99_us", "us", Lower, "bench", "the tail of the measured operation (highest supported rank of p99/p95/p90/p75/p50); end-to-end by nature, listed here because it does not repeat within the largest bound"),
    layer("bench.load_p50_us", "us", Lower, "bench", "p50_us of the untraced half of the traced run; base of bench.trace_overhead_ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    /// `BENCHMARK.json` and this catalog list the same workloads and
    /// metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let file: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| file.get(key).and_then(Value::as_array).expect(key).to_vec();
        let text_of =
            |v: &Value, key: &str| v.get(key).and_then(Value::as_str).expect(key).to_string();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
                (
                    text_of(m, "name"),
                    text_of(m, "unit"),
                    text_of(m, "better"),
                    bound,
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(per_layer, expected);
    }

    #[test]
    fn names_units_and_predictions_are_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for m in &END_TO_END {
            assert!(
                unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for m in &PER_LAYER {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.name.starts_with(&format!("{}.", m.layer)), "{}", m.name);
            assert!(!m.moves.is_empty(), "{}", m.name);
        }
    }
}
