//! Summaries of samples: percentiles (through the repository's one
//! nearest-rank routine), medians of per-round values and their spread.

use cpms_httpd::loadgen::LoadReport;

/// Nearest-rank percentile of raw samples via
/// `cpms_httpd::loadgen::LoadReport::percentile_ns`.
pub fn percentile_ns(samples: &[u64], p: f64) -> u64 {
    LoadReport {
        latencies_ns: samples.to_vec(),
        ..LoadReport::default()
    }
    .percentile_ns(p)
}

/// The tail ranks tried in order, as (label, percent).
const TAIL_RANKS: [(&str, u64); 5] = [
    ("p99", 99),
    ("p95", 95),
    ("p90", 90),
    ("p75", 75),
    ("p50", 50),
];

/// The highest of p99/p95/p90/p75/p50 that has at least ten samples
/// beyond it (p50 if none has), with the rank actually used; 0 for no
/// samples.
pub fn tail_ns(samples: &[u64]) -> (u64, &'static str) {
    let n = samples.len() as u64;
    let (rank, percent) = TAIL_RANKS
        .into_iter()
        .find(|&(_, percent)| n * (100 - percent) >= 10 * 100)
        .unwrap_or(TAIL_RANKS[TAIL_RANKS.len() - 1]);
    (percentile_ns(samples, percent as f64 / 100.0), rank)
}

/// Min, quartiles and max of a set of per-round values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Spread {
    /// Quartiles by linear interpolation between order statistics.
    pub fn of(values: &[f64]) -> Spread {
        assert!(!values.is_empty(), "spread of no values");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        let at = |q: f64| {
            let pos = q * (v.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        Spread {
            min: v[0],
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
            max: v[v.len() - 1],
        }
    }

    /// Interquartile range as a share of the median.
    pub fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    Spread::of(values).median
}

/// Median of the better half of `values` (the lower half when lower is
/// better, rounded up to whole values). On a shared host, interference
/// only ever makes a round slower, so the better half of a run's rounds
/// is the half the host disturbed less. NaN for no values.
pub fn better_half_median(values: &[f64], lower_is_better: bool) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if !lower_is_better {
        v.reverse();
    }
    v.truncate(v.len().div_ceil(2));
    median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_falls_back_until_ten_samples_lie_beyond() {
        let samples: Vec<u64> = (1..=2_000).collect();
        assert_eq!(tail_ns(&samples).1, "p99");
        assert_eq!(tail_ns(&samples[..500]).1, "p95");
        assert_eq!(tail_ns(&samples[..100]).1, "p90");
        assert_eq!(tail_ns(&samples[..40]).1, "p75");
        assert_eq!(tail_ns(&samples[..20]).1, "p50");
        assert_eq!(tail_ns(&samples[..3]), (2, "p50"));
        assert_eq!(tail_ns(&[]), (0, "p50"));
    }

    #[test]
    fn spread_of_rounds() {
        let s = Spread::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 2.0, 3.0, 4.0, 5.0)
        );
        assert!((s.relative_iqr() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn the_better_half_ignores_the_disturbed_rounds() {
        // Five quiet rounds near 10, three disturbed ones far above.
        let latency = [10.2, 31.0, 9.9, 10.0, 25.0, 10.1, 40.0, 10.3];
        assert_eq!(better_half_median(&latency, true), 10.05);
        let rate = [100.0, 98.0, 60.0, 101.0, 55.0, 99.0];
        assert_eq!(better_half_median(&rate, false), 100.0);
        assert_eq!(better_half_median(&[7.0, 3.0], true), 3.0);
        assert_eq!(better_half_median(&[7.0], false), 7.0);
        assert!(better_half_median(&[], true).is_nan());
    }
}
