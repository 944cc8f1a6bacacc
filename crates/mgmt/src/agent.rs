//! Management agents — the "mobile code" of the paper's §3.
//!
//! > "Each administrative function is implemented in the form of a Java
//! > class, which is termed an agent. The brokers distributed on each node
//! > may download the appropriate classes to perform the corresponding
//! > management tasks."
//!
//! Here an agent is one store verb the broker executes: the controller
//! sends a [`ShipRequest`] — `Delete`, `Rename`, `Touch`, `Stat`,
//! `Inventory`, a one-chunk copy's `Put`, a larger one's
//! `Begin`/`Chunk`/`Commit`, … — to a node's
//! broker over a `cpms-wire` transport ([`crate::BrokerHandle::dispatch`]),
//! the broker runs it against the node's content store
//! ([`cpms_store::apply_tail`]) and the [`cpms_store::ShipReply`] rides
//! back. The paper's "can be tailored or extended … without requiring
//! significant redesign" is a new variant and one arm in `apply_tail`.
//! What stays in this module is the controller's classification of a
//! failed broker call, [`AgentError`].

use cpms_model::NodeId;
use cpms_store::{ShipRequest, StoreError};
use cpms_wire::WireError;
use std::fmt;

/// Why a broker call failed, as the controller classifies it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AgentError {
    /// The node's content store refused the operation (a
    /// [`cpms_store::ShipReply::Err`]).
    Store(StoreError),
    /// The broker for the target node is gone (crashed / shut down /
    /// unreachable).
    BrokerUnavailable(NodeId),
    /// The transport to the broker failed in a way that does not mean
    /// "gone" — a deadline expired, a frame was poisoned, retries were
    /// exhausted, a reply did not fit the request. The request *may* have
    /// executed (at-most-once is not guaranteed over a lossy wire).
    Transport {
        /// The node whose broker was being called.
        node: NodeId,
        /// The underlying wire failure.
        error: WireError,
    },
}

impl fmt::Display for AgentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentError::Store(e) => write!(f, "store operation failed: {e}"),
            AgentError::BrokerUnavailable(n) => write!(f, "broker on {n} unavailable"),
            AgentError::Transport { node, error } => {
                write!(f, "transport to broker on {node} failed: {error}")
            }
        }
    }
}

impl std::error::Error for AgentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AgentError::Store(e) => Some(e),
            AgentError::BrokerUnavailable(_) => None,
            AgentError::Transport { error, .. } => Some(error),
        }
    }
}

impl AgentError {
    /// Classifies a wire failure against `node`'s broker: peers that are
    /// gone (refused, closed, in-process server stopped) surface as
    /// [`AgentError::BrokerUnavailable`]; everything else keeps its
    /// transport taxonomy.
    #[must_use]
    pub fn from_wire(node: NodeId, error: WireError) -> Self {
        match error.root() {
            WireError::Unavailable { .. } | WireError::Closed => {
                AgentError::BrokerUnavailable(node)
            }
            _ => AgentError::Transport { node, error },
        }
    }
}

/// [`ShipRequest::Stat`] under the name the frozen benchmark
/// (`perfbench/`) sends it by; it exists for that caller alone and goes
/// when the benchmark next changes.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatusProbe;

impl From<StatusProbe> for ShipRequest {
    fn from(_: StatusProbe) -> Self {
        ShipRequest::Stat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Broker, BrokerHandle, BrokerState};
    use cpms_model::{ContentId, UrlPath};
    use cpms_store::{
        fnv64, synthetic_body, ContentStore, ObjectMeta, ShipError, ShipOutcome, ShipPort,
        ShipReply, Shipper,
    };
    use std::sync::Arc;

    fn p(s: &str) -> UrlPath {
        s.parse().unwrap()
    }

    /// An in-process broker over a store the test can also read directly.
    fn broker(capacity: u64) -> (BrokerHandle, Arc<ContentStore>) {
        let store = Arc::new(ContentStore::in_memory(NodeId(1), capacity));
        let state = BrokerState::new(NodeId(1), capacity).with_content(Arc::clone(&store));
        (Broker::spawn(state), store)
    }

    /// Ships `(id, size)`'s synthetic bytes to `path`.
    fn push(
        h: &BrokerHandle,
        path: &str,
        id: u32,
        size: u64,
        overwrite: bool,
    ) -> Result<ShipOutcome, ShipError> {
        let body = synthetic_body(ContentId(id), size);
        Shipper::new().push(h, &p(path), ContentId(id), 0, &body, overwrite)
    }

    fn refusal(r: Result<ShipOutcome, ShipError>) -> StoreError {
        match r {
            Err(ShipError::Store(e)) => e,
            other => panic!("expected a store refusal, got {other:?}"),
        }
    }

    /// `(objects, used, free)` as the broker reports them.
    fn status(h: &BrokerHandle) -> (u64, u64, u64) {
        let s = h.store_stats().unwrap();
        (s.objects, s.committed_bytes, s.free_bytes())
    }

    /// The node's committed objects, as the audit reads them.
    fn inventory(h: &BrokerHandle) -> Vec<(UrlPath, ObjectMeta)> {
        match h.dispatch(ShipRequest::Inventory) {
            Ok(ShipReply::InventoryIs(listing)) => listing,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn store_then_delete() {
        let (h, store) = broker(1 << 20);
        let meta = push(&h, "/a", 1, 100, false).unwrap().meta;
        assert_eq!(
            store.read(&p("/a")).unwrap(),
            synthetic_body(ContentId(1), 100),
            "the file's bytes are committed"
        );

        let delete = || h.dispatch(ShipRequest::Delete { path: p("/a") });
        assert_eq!(delete(), Ok(ShipReply::Deleted(meta)));
        assert!(!store.contains(&p("/a")));
        assert_eq!(
            delete(),
            Err(AgentError::Store(StoreError::NotFound { path: p("/a") }))
        );
    }

    #[test]
    fn replayed_store_is_done_conflict_and_oversize_are_refused() {
        let (h, store) = broker(1000);
        let first = push(&h, "/a", 1, 600, false).unwrap();
        // A store re-sent after its first copy landed: its one `Put` is
        // answered with the committed copy, the same answer as every
        // other replayed frame, and installs nothing new.
        let replay = push(&h, "/a", 1, 600, false).unwrap();
        assert_eq!(replay.meta, first.meta);
        assert_eq!(store.stats().committed_total, 1);
        assert_eq!(status(&h), (1, 600, 400));
        // A different object at the occupied path is still a conflict.
        assert_eq!(
            refusal(push(&h, "/a", 2, 600, false)),
            StoreError::AlreadyExists { path: p("/a") }
        );
        // Oversize: refused with what was needed and what was free.
        assert_eq!(
            refusal(push(&h, "/b", 3, 500, false)),
            StoreError::DiskFull {
                path: p("/b"),
                needed: 500,
                free: 400
            }
        );
        // An overwrite may reuse the bytes it replaces.
        assert_eq!(
            refusal(push(&h, "/a", 1, 1100, true)),
            StoreError::DiskFull {
                path: p("/a"),
                needed: 1100,
                free: 1000
            }
        );
        assert_eq!(status(&h), (1, 600, 400), "refusals changed nothing");
    }

    #[test]
    fn rename_and_touch() {
        let (h, _) = broker(1 << 20);
        let meta = push(&h, "/old", 2, 100, false).unwrap().meta;
        let rename = || {
            h.dispatch(ShipRequest::Rename {
                from: p("/old"),
                to: p("/new"),
            })
        };
        assert_eq!(rename(), Ok(ShipReply::MetaIs(meta)));
        // The store cannot tell a replay from a conflict: the controller
        // judges a refused rename by the state it finds.
        assert_eq!(
            rename(),
            Err(AgentError::Store(StoreError::AlreadyExists {
                path: p("/new")
            }))
        );
        let touch = |version| {
            h.dispatch(ShipRequest::Touch {
                path: p("/new"),
                version,
            })
        };
        let touched = Ok(ShipReply::MetaIs(ObjectMeta { version: 1, ..meta }));
        assert_eq!(touch(1), touched);
        assert_eq!(touch(1), touched, "a replayed touch changes nothing");
        assert_eq!(touch(0), touched, "versions never go backwards");
    }

    #[test]
    fn status_and_listing() {
        let (h, _) = broker(1 << 20);
        for i in 0..3 {
            push(&h, &format!("/f{i}"), i, 100, false).unwrap();
        }
        assert_eq!(status(&h), (3, 300, (1 << 20) - 300));
        let l = inventory(&h);
        assert_eq!(l.len(), 3);
        assert!(l.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert_eq!(
            (&l[0].0, l[0].1.content, l[0].1.size),
            (&p("/f0"), ContentId(0), 100)
        );
    }

    #[test]
    fn agent_names() {
        // An agent is one store verb, and its name is the verb's.
        assert_eq!(ShipRequest::from(StatusProbe).verb(), "stat");
        assert_eq!(ShipRequest::Delete { path: p("/x") }.verb(), "delete");
        let rename = ShipRequest::Rename {
            from: p("/x"),
            to: p("/y"),
        };
        assert_eq!(rename.verb(), "rename");
        let touch = ShipRequest::Touch {
            path: p("/x"),
            version: 1,
        };
        assert_eq!(touch.verb(), "touch");
    }

    #[test]
    fn status_subtracts_staged_reservations() {
        let (h, _) = broker(1000);
        let meta = ObjectMeta::for_body(ContentId(9), &[7u8; 600], 256, 0);
        let begun = h.dispatch(ShipRequest::Begin {
            path: p("/staged"),
            meta,
            overwrite: false,
        });
        assert!(matches!(begun, Ok(ShipReply::Begun { .. })), "{begun:?}");
        assert_eq!(status(&h), (0, 0, 400));
    }

    #[test]
    fn ship_commit_syncs_the_ledger() {
        let (h, store) = broker(1 << 20);
        let body = vec![7u8; 300];
        let meta = ObjectMeta::for_body(ContentId(9), &body, 256, 0);
        let begun = h.dispatch(ShipRequest::Begin {
            path: p("/shipped"),
            meta,
            overwrite: false,
        });
        let transfer = match begun {
            Ok(ShipReply::Begun { transfer, .. }) => transfer,
            other => panic!("{other:?}"),
        };
        for index in 0..meta.chunk_count() {
            let range = meta.chunk_range(index).unwrap();
            let chunk = ShipRequest::Chunk {
                transfer,
                index,
                data: String::new(),
                checksum: fnv64(&body[range.clone()]),
            };
            let (reply, _) = h.ship_tail(&chunk, &body[range]).unwrap();
            assert_eq!(reply, ShipReply::ChunkOk);
        }
        assert_eq!(inventory(&h), Vec::new(), "staged bytes are not listed yet");
        let committed = h.dispatch(ShipRequest::Commit {
            transfer,
            path: p("/shipped"),
            checksum: meta.checksum,
        });
        assert_eq!(committed, Ok(ShipReply::Committed(meta)));
        assert_eq!(
            inventory(&h),
            vec![(p("/shipped"), meta)],
            "the inventory records the committed object"
        );
        assert_eq!(store.read(&p("/shipped")).unwrap(), body);

        h.dispatch(ShipRequest::Delete {
            path: p("/shipped"),
        })
        .unwrap();
        assert_eq!(status(&h).0, 0, "a shipped delete leaves nothing listed");
    }
}
