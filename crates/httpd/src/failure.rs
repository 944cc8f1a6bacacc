//! Why the proxy answered a request itself instead of relaying it.
//!
//! The paper's distributor (§2.2) either binds a request to a pre-forked
//! back-end connection or answers it itself. Every answer of the second
//! kind is one [`Failure`]: its variant fixes the status, a stable
//! snake_case token (the response body, the event's stage and the prefix
//! of the request span's detail), the one counter that records it, and
//! whether the client connection survives.

use crate::http::response_head_into;
use cpms_obs::{Counter, MetricsRegistry};
use std::sync::Arc;

/// A response the proxy writes itself, by cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Failure {
    /// The request head did not parse, outgrew its cap, or ended early.
    Malformed,
    /// Not a GET, or a request that declares a body: the proxy relays a
    /// GET without a body and nothing else.
    Unsupported,
    /// The request's tenant holds as many connections as its cap allows.
    TenantOverCap,
    /// The URL table has no location with a back end for the path.
    Unroutable,
    /// No connection to the chosen back end could be had.
    BackendConnect,
    /// The exchange with the back end failed. Before the response head was
    /// forwarded the client gets a 502; after it, a short body and a close.
    BackendFailed,
    /// The proxy is at its global connection cap: shed at accept.
    Overloaded,
}

impl Failure {
    /// Every variant, in declaration order: `ALL[f as usize] == f`.
    pub const ALL: [Failure; 7] = [
        Failure::Malformed,
        Failure::Unsupported,
        Failure::TenantOverCap,
        Failure::Unroutable,
        Failure::BackendConnect,
        Failure::BackendFailed,
        Failure::Overloaded,
    ];

    /// The response status.
    #[must_use]
    pub const fn status(self) -> u16 {
        match self {
            Failure::Malformed => 400,
            Failure::Unsupported => 501,
            Failure::BackendConnect | Failure::BackendFailed => 502,
            Failure::TenantOverCap | Failure::Unroutable | Failure::Overloaded => 503,
        }
    }

    /// The stable reason token: the response body, the event's stage, and
    /// the prefix of the request span's detail.
    #[must_use]
    pub const fn token(self) -> &'static str {
        match self {
            Failure::Malformed => "malformed",
            Failure::Unsupported => "unsupported",
            Failure::TenantOverCap => "tenant_over_cap",
            Failure::Unroutable => "unroutable",
            Failure::BackendConnect => "backend_connect",
            Failure::BackendFailed => "backend_failed",
            Failure::Overloaded => "overloaded",
        }
    }

    /// The registry counter that counts this failure, once per occurrence.
    #[must_use]
    pub const fn counter(self) -> &'static str {
        match self {
            Failure::Malformed => "proxy_malformed_total",
            Failure::Unsupported => "proxy_unsupported_total",
            Failure::TenantOverCap => "proxy_conn_tenant_rejected_total",
            Failure::Unroutable => "proxy_unroutable_total",
            Failure::BackendConnect => "proxy_pool_failures_total",
            Failure::BackendFailed => "proxy_backend_errors_total",
            Failure::Overloaded => "proxy_conn_rejected_total",
        }
    }

    /// Whether the client connection closes after the response whatever
    /// the client asked: the bytes behind a malformed or unsupported head
    /// cannot be trusted to start a request, and a shed is a refusal of
    /// the connection itself.
    #[must_use]
    pub const fn closes(self) -> bool {
        matches!(
            self,
            Failure::Malformed
                | Failure::Unsupported
                | Failure::TenantOverCap
                | Failure::Overloaded
        )
    }

    /// Every variant's counter in `registry`, indexed by variant. Resolving
    /// them creates them, so a scrape sees each at zero from the start.
    pub(crate) fn counters(registry: &MetricsRegistry) -> [Arc<Counter>; Failure::ALL.len()] {
        Failure::ALL.map(|failure| registry.counter(failure.counter()))
    }

    /// Appends the whole response — head and token body — to `out`: the
    /// one writer of every response the proxy makes itself. Returns
    /// whether the connection stays open, which is what the client asked
    /// for (`keep_alive`) unless the failure [`closes`](Self::closes) it.
    pub(crate) fn response_into<B>(self, out: &mut B, keep_alive: bool) -> bool
    where
        B: for<'a> Extend<&'a u8>,
    {
        let keep_alive = keep_alive && !self.closes();
        let body = self.token().as_bytes();
        response_head_into(out, self.status(), body.len(), keep_alive);
        out.extend(body);
        keep_alive
    }
}
