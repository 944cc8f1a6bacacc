//! Serializable experiment configuration.
//!
//! The bench harness and examples describe runs declaratively; this module
//! holds the shared, serde-friendly workload selector.

use serde::{Deserialize, Serialize};

/// Which synthetic workload a run uses (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Workload A: static content only.
    A,
    /// Workload B: includes a significant amount of dynamic content
    /// (CGI and ASP).
    B,
}

impl WorkloadKind {
    /// Label used in experiment reports.
    pub const fn label(self) -> &'static str {
        match self {
            WorkloadKind::A => "workload-A",
            WorkloadKind::B => "workload-B",
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}
