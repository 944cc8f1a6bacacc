//! The routing-policy menu: the paper's content-aware distributor plus the
//! baselines of §2.1.

use cpms_dispatch::{
    ContentAwareRouter, DnsRoundRobin, HttpRedirectRouter, RandomRouter, RoundRobin, Router,
    WeightedLeastConnections,
};
use cpms_model::SimDuration;

/// A request-routing policy choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouterChoice {
    /// The paper's layer-7 content-aware distributor.
    ContentAware,
    /// Layer-4 Weighted Least Connections (the paper's previous work \[2\],
    /// fronting configurations 1 and 2).
    WeightedLeastConnections,
    /// Layer-4 round robin.
    RoundRobin,
    /// Layer-4 uniform random.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// DNS-style client-sticky round robin (§2.1's DNS-based approach).
    DnsRoundRobin,
    /// Content-aware routing via HTTP `302` redirects — the alternative
    /// §2.1 rejects as heavyweight (one extra connection + round trips per
    /// request).
    HttpRedirect {
        /// Client↔cluster round-trip time in microseconds (the penalty is
        /// two of these per request).
        client_rtt_micros: u64,
    },
}

impl RouterChoice {
    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn Router> {
        match *self {
            RouterChoice::ContentAware => Box::new(ContentAwareRouter::new()),
            RouterChoice::WeightedLeastConnections => Box::new(WeightedLeastConnections::new()),
            RouterChoice::RoundRobin => Box::new(RoundRobin::new()),
            RouterChoice::Random { seed } => Box::new(RandomRouter::new(seed)),
            RouterChoice::DnsRoundRobin => Box::new(DnsRoundRobin::new()),
            RouterChoice::HttpRedirect { client_rtt_micros } => Box::new(HttpRedirectRouter::new(
                SimDuration::from_micros(client_rtt_micros),
            )),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            RouterChoice::ContentAware => "content-aware",
            RouterChoice::WeightedLeastConnections => "l4-wlc",
            RouterChoice::RoundRobin => "l4-rr",
            RouterChoice::Random { .. } => "l4-random",
            RouterChoice::DnsRoundRobin => "dns-rr",
            RouterChoice::HttpRedirect { .. } => "http-redirect",
        }
    }
}

impl std::fmt::Display for RouterChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_policy() {
        let choices = [
            RouterChoice::ContentAware,
            RouterChoice::WeightedLeastConnections,
            RouterChoice::RoundRobin,
            RouterChoice::Random { seed: 1 },
            RouterChoice::DnsRoundRobin,
            RouterChoice::HttpRedirect {
                client_rtt_micros: 1_000,
            },
        ];
        for choice in choices {
            let router = choice.build();
            assert!(!router.name().is_empty());
        }
    }
}
