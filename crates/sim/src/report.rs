//! Report formatting: turning experiment results into the rows and series
//! the paper's figures show.

use crate::experiment::ExperimentResult;
use cpms_model::RequestClass;
use serde::{Deserialize, Serialize};

/// One point of a figure series: a client count and a throughput.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FigurePoint {
    /// Offered load (WebBench client count).
    pub clients: u32,
    /// Measured throughput in requests/second.
    pub throughput_rps: f64,
    /// Mean response time in milliseconds.
    pub mean_response_ms: f64,
}

/// One labelled curve of a figure (e.g. "partitioned + content-aware").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureSeries {
    /// Curve label.
    pub label: String,
    /// Points in sweep order.
    pub points: Vec<FigurePoint>,
}

impl FigureSeries {
    /// Builds a series from sweep results.
    pub fn from_results(label: impl Into<String>, results: &[ExperimentResult]) -> Self {
        FigureSeries {
            label: label.into(),
            points: results
                .iter()
                .map(|r| FigurePoint {
                    clients: r.clients,
                    throughput_rps: r.report.throughput_rps(),
                    mean_response_ms: r.report.mean_response_ms(),
                })
                .collect(),
        }
    }

    /// The throughput at the highest client count (the saturation figure).
    pub fn saturated_throughput(&self) -> f64 {
        self.points.last().map(|p| p.throughput_rps).unwrap_or(0.0)
    }
}

/// Renders several series as an aligned text table, one row per client
/// count — the form the paper's figures tabulate.
pub fn render_throughput_table(series: &[FigureSeries]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:>8}", "clients"));
    for s in series {
        out.push_str(&format!(" | {:>28}", s.label));
    }
    out.push('\n');
    out.push_str(&"-".repeat(8 + series.len() * 31));
    out.push('\n');
    let rows = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for i in 0..rows {
        let clients = series
            .iter()
            .filter_map(|s| s.points.get(i))
            .map(|p| p.clients)
            .next()
            .unwrap_or(0);
        out.push_str(&format!("{clients:>8}"));
        for s in series {
            match s.points.get(i) {
                Some(p) => out.push_str(&format!(
                    " | {:>15.1} rps {:>6.1}ms",
                    p.throughput_rps, p.mean_response_ms
                )),
                None => out.push_str(&format!(" | {:>28}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// One row of the Figure 4 per-class comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassGainRow {
    /// The request class.
    pub class: String,
    /// Baseline throughput (requests/second).
    pub baseline_rps: f64,
    /// Proposed-system throughput.
    pub proposed_rps: f64,
    /// Relative gain (`proposed/baseline - 1`).
    pub gain: f64,
}

/// Computes Figure 4's per-class gains from a baseline and a
/// proposed-system run at the same offered load.
pub fn class_gains(baseline: &ExperimentResult, proposed: &ExperimentResult) -> Vec<ClassGainRow> {
    RequestClass::ALL
        .iter()
        .filter_map(|&class| {
            let b = baseline.report.class(class)?.throughput_rps;
            let p = proposed.report.class(class)?.throughput_rps;
            if b <= 0.0 {
                return None;
            }
            Some(ClassGainRow {
                class: class.label().to_string(),
                baseline_rps: b,
                proposed_rps: p,
                gain: p / b - 1.0,
            })
        })
        .collect()
}

/// Renders class gains as a text table.
pub fn render_class_gains(rows: &[ClassGainRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>8} | {:>14} | {:>14} | {:>8}\n",
        "class", "baseline rps", "proposed rps", "gain"
    ));
    out.push_str(&"-".repeat(54));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:>8} | {:>14.1} | {:>14.1} | {:>+7.0}%\n",
            r.class,
            r.baseline_rps,
            r.proposed_rps,
            r.gain * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimReport;
    use cpms_model::SimDuration;

    fn result(clients: u32, completed: u64) -> ExperimentResult {
        ExperimentResult {
            report: SimReport {
                window: SimDuration::from_secs(10),
                issued: completed,
                completed,
                unroutable: 0,
                misroutes: 0,
                in_flight_at_end: 0,
                classes: vec![],
                priorities: vec![],
                nodes: vec![],
                dispatcher_utilization: 0.0,
                nfs: None,
                load_samples: vec![],
            },
            interval_reports: vec![],
            rebalance_actions: 0,
            placement: "partitioned",
            router: "content-aware",
            workload: "workload-A",
            clients,
        }
    }

    #[test]
    fn series_from_results() {
        let results = vec![result(8, 1000), result(16, 1800)];
        let s = FigureSeries::from_results("partitioned", &results);
        assert_eq!(s.points.len(), 2);
        assert!((s.points[0].throughput_rps - 100.0).abs() < 1e-9);
        assert!((s.saturated_throughput() - 180.0).abs() < 1e-9);
    }

    #[test]
    fn table_renders_all_series() {
        let a = FigureSeries::from_results("full", &[result(8, 500)]);
        let b = FigureSeries::from_results("partitioned", &[result(8, 900)]);
        let table = render_throughput_table(&[a, b]);
        assert!(table.contains("full"));
        assert!(table.contains("partitioned"));
        assert!(table.contains("clients"));
        assert!(table.lines().count() >= 3);
    }

    #[test]
    fn class_gain_math() {
        use crate::ClassReport;
        let mk = |rps: f64| ExperimentResult {
            report: SimReport {
                classes: vec![ClassReport {
                    class: RequestClass::Cgi,
                    completed: 100,
                    throughput_rps: rps,
                    mean_response_ms: 1.0,
                    p50_response_ms: 1.0,
                    p95_response_ms: 2.0,
                }],
                ..result(8, 100).report
            },
            ..result(8, 100)
        };
        let rows = class_gains(&mk(100.0), &mk(145.0));
        assert_eq!(rows.len(), 1);
        assert!((rows[0].gain - 0.45).abs() < 1e-9);
        let rendered = render_class_gains(&rows);
        assert!(rendered.contains("+45%"));
    }
}
