//! The service-time model: how long each step of serving a request takes
//! on 1999-era hardware.
//!
//! Reference figures are for the paper's fastest machine (350 MHz); CPU
//! costs scale inversely with a node's clock ratio. Dynamic-content
//! execution times follow Iyengar et al.'s observation (the paper's \[6\])
//! that CGI requests "normally require much more computing resources than
//! static file retrieval requests" — tens of milliseconds versus a
//! millisecond-scale parse.

use cpms_model::{ContentId, ContentKind, SimDuration};
use cpms_obs::splitmix64;
use serde::{Deserialize, Serialize};

/// Tunable service-time parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceModel {
    /// Per-request HTTP processing (accept, parse, syscalls, logging) on
    /// the reference 350 MHz CPU.
    pub parse_overhead_ref: SimDuration,
    /// CGI execution time range on the reference CPU (fork + exec + run).
    pub cgi_exec_ref: (SimDuration, SimDuration),
    /// ASP execution time range on the reference CPU (in-process, cheaper
    /// than CGI).
    pub asp_exec_ref: (SimDuration, SimDuration),
    /// One-way LAN latency between any two machines (switched fast
    /// ethernet).
    pub lan_latency: SimDuration,
    /// Fraction of a node's RAM usable as file cache.
    pub cache_fraction: f64,
    /// Files larger than `cache_capacity × cache_bypass_fraction` are not
    /// inserted into the cache (they would churn the whole cache for one
    /// sequential read).
    pub cache_bypass_fraction: f64,
    /// Average number of disk positioning operations per cold file read
    /// (directory + inode + data on a late-90s filesystem with no entry
    /// cached).
    pub disk_seeks_per_file: f64,
    /// Distributor relay cost per KB of response relayed through it
    /// (header rewriting at kernel level).
    pub relay_per_kb: SimDuration,
    /// Fixed NFS RPC processing cost at the NFS server per fetch.
    pub nfs_rpc_overhead: SimDuration,
}

impl ServiceModel {
    /// Defaults calibrated to late-90s measurements (Apache on a 350 MHz
    /// Pentium II served roughly 500–700 small cached files per second;
    /// CGI scripts took tens of milliseconds).
    pub fn paper_defaults() -> Self {
        ServiceModel {
            parse_overhead_ref: SimDuration::from_micros(1_500),
            cgi_exec_ref: (SimDuration::from_millis(6), SimDuration::from_millis(20)),
            asp_exec_ref: (SimDuration::from_millis(4), SimDuration::from_millis(12)),
            lan_latency: SimDuration::from_micros(200),
            cache_fraction: 0.5,
            cache_bypass_fraction: 0.25,
            disk_seeks_per_file: 2.0,
            relay_per_kb: SimDuration::from_micros(4),
            nfs_rpc_overhead: SimDuration::from_micros(1_200),
        }
    }

    /// CPU time to accept/parse/respond on a node with the given CPU ratio.
    pub fn parse_time(&self, cpu_ratio: f64) -> SimDuration {
        self.parse_overhead_ref.mul_f64(1.0 / cpu_ratio)
    }

    /// Execution time of a dynamic request for `content` on a node with
    /// the given CPU ratio. Deterministic per object: the same script
    /// always costs the same on the same machine.
    ///
    /// Returns zero for static kinds.
    pub fn exec_time(&self, kind: ContentKind, content: ContentId, cpu_ratio: f64) -> SimDuration {
        let (lo, hi) = match kind {
            ContentKind::Cgi => self.cgi_exec_ref,
            ContentKind::Asp => self.asp_exec_ref,
            _ => return SimDuration::ZERO,
        };
        let span = hi.as_micros().saturating_sub(lo.as_micros());
        // splitmix64 of the content id: a stable per-script cost.
        let h = splitmix64(content.0 as u64 ^ 0x9E37_79B9_7F4A_7C15);
        let offset = if span == 0 { 0 } else { h % (span + 1) };
        SimDuration::from_micros(lo.as_micros() + offset).mul_f64(1.0 / cpu_ratio)
    }

    /// Whether a file of `size` bytes should be inserted into a cache of
    /// `capacity` bytes.
    pub fn cacheable(&self, size: u64, capacity: u64) -> bool {
        (size as f64) <= capacity as f64 * self.cache_bypass_fraction
    }

    /// The distributor's relay cost for a response of `size` bytes.
    pub fn relay_cost(&self, size: u64) -> SimDuration {
        self.relay_per_kb.mul_f64(size as f64 / 1024.0)
    }
}

impl Default for ServiceModel {
    fn default() -> Self {
        ServiceModel::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_time_scales_with_cpu() {
        let m = ServiceModel::paper_defaults();
        let fast = m.parse_time(1.0);
        let slow = m.parse_time(150.0 / 350.0);
        assert_eq!(fast, SimDuration::from_micros(1_500));
        assert!(slow > fast.mul_f64(2.0), "150 MHz is >2x slower");
    }

    #[test]
    fn exec_time_deterministic_and_in_range() {
        let m = ServiceModel::paper_defaults();
        for id in 0..200u32 {
            let t = m.exec_time(ContentKind::Cgi, ContentId(id), 1.0);
            assert!(t >= m.cgi_exec_ref.0 && t <= m.cgi_exec_ref.1, "{t}");
            assert_eq!(t, m.exec_time(ContentKind::Cgi, ContentId(id), 1.0));
        }
    }

    #[test]
    fn exec_time_varies_across_objects() {
        let m = ServiceModel::paper_defaults();
        let times: std::collections::HashSet<u64> = (0..50u32)
            .map(|id| {
                m.exec_time(ContentKind::Cgi, ContentId(id), 1.0)
                    .as_micros()
            })
            .collect();
        assert!(times.len() > 20, "per-script costs should be diverse");
    }

    #[test]
    fn asp_cheaper_than_cgi_on_average() {
        let m = ServiceModel::paper_defaults();
        let mean = |kind| {
            (0..500u32)
                .map(|id| m.exec_time(kind, ContentId(id), 1.0).as_micros())
                .sum::<u64>() as f64
                / 500.0
        };
        assert!(mean(ContentKind::Asp) < mean(ContentKind::Cgi));
    }

    #[test]
    fn static_kinds_have_zero_exec() {
        let m = ServiceModel::paper_defaults();
        assert_eq!(
            m.exec_time(ContentKind::StaticHtml, ContentId(1), 1.0),
            SimDuration::ZERO
        );
        assert_eq!(
            m.exec_time(ContentKind::Video, ContentId(1), 1.0),
            SimDuration::ZERO
        );
    }

    #[test]
    fn slow_cpu_inflates_exec() {
        let m = ServiceModel::paper_defaults();
        let ref_t = m.exec_time(ContentKind::Cgi, ContentId(7), 1.0);
        let slow_t = m.exec_time(ContentKind::Cgi, ContentId(7), 150.0 / 350.0);
        let ratio = slow_t.as_micros() as f64 / ref_t.as_micros() as f64;
        assert!((ratio - 350.0 / 150.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn cacheability_threshold() {
        let m = ServiceModel::paper_defaults();
        let cap = 100 << 20; // 100 MB cache
        assert!(m.cacheable(10 << 20, cap)); // 10 MB file: ok (≤ 25 MB)
        assert!(!m.cacheable(30 << 20, cap)); // 30 MB file: bypass
    }

    #[test]
    fn relay_cost_linear_in_size() {
        let m = ServiceModel::paper_defaults();
        let small = m.relay_cost(1024);
        let big = m.relay_cost(10 * 1024);
        assert_eq!(small, SimDuration::from_micros(4));
        assert_eq!(big, SimDuration::from_micros(40));
    }
}
