//! Management agents — the "mobile code" of the paper's §3.
//!
//! > "Each administrative function is implemented in the form of a Java
//! > class, which is termed an agent. The brokers distributed on each node
//! > may download the appropriate classes to perform the corresponding
//! > management tasks."
//!
//! An agent is a *serializable wire message*: the controller ships an
//! [`AgentRequest`] to a broker over a `cpms-wire` transport (a call on
//! the dispatching thread, or TCP), the broker executes it against its
//! node's content store ([`BrokerState::content`]), and the
//! [`AgentReply`] rides back the same way. Each built-in agent is one
//! call on that store — `put`, `delete`, `rename`, `touch`, `stats`, or a
//! tunneled ship request — and that call's `Result` is the agent's
//! result. New management functions are added by implementing [`Agent`]
//! and giving [`AgentRequest`] a variant, without touching broker or
//! controller plumbing.

use crate::store::{BrokerState, StoredFile};
use cpms_model::{NodeId, UrlPath};
use cpms_store::{ShipReply, ShipRequest, StoreError};
use cpms_wire::WireError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What an agent produced.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AgentOutput {
    /// The operation completed with nothing to report.
    Done,
    /// A status snapshot of the node.
    Status {
        /// Files stored on the node.
        files: usize,
        /// Bytes in use.
        used_bytes: u64,
        /// Bytes free.
        free_bytes: u64,
    },
    /// The new version of a touched document.
    Version(u64),
    /// The content store's reply to a tunneled ship request.
    Ship(ShipReply),
}

/// Errors an agent can report back to the controller.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AgentError {
    /// The node's content store refused the operation.
    Store(StoreError),
    /// The broker for the target node is gone (crashed / shut down /
    /// unreachable).
    BrokerUnavailable(NodeId),
    /// The transport to the broker failed in a way that does not mean
    /// "gone" — a deadline expired, a frame was poisoned, retries were
    /// exhausted. The request *may* have executed (at-most-once is not
    /// guaranteed over a lossy wire).
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

#[doc(hidden)]
impl From<StoreError> for AgentError {
    fn from(e: StoreError) -> Self {
        AgentError::Store(e)
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

/// A management function executed by a broker against its node's store.
///
/// The trait is the *execution* interface; shipping happens as the
/// serializable [`AgentRequest`] enum, which is what actually crosses
/// the wire.
pub trait Agent: Send {
    /// Short name for logs and reports.
    fn name(&self) -> &'static str;

    /// Runs the function on the broker's node, against its content
    /// store.
    ///
    /// # Errors
    ///
    /// Implementations surface store-level failures as
    /// [`AgentError::Store`].
    fn execute(&self, state: &mut BrokerState) -> Result<AgentOutput, AgentError>;
}

/// The wire form of an agent: every management function the controller
/// can ship to a broker, as one serializable message.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AgentRequest {
    /// Store (or overwrite) a file.
    Store(StoreFile),
    /// Delete a file.
    Delete(DeleteFile),
    /// Rename a file.
    Rename(RenameFile),
    /// Bump a mutable document's version.
    Touch(TouchFile),
    /// Probe node status.
    Status(StatusProbe),
    /// Tunnel a content-shipping request to the node's content store.
    Ship(ShipAgent),
}

impl AgentRequest {
    /// The wrapped agent's short name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AgentRequest::Store(a) => a.name(),
            AgentRequest::Delete(a) => a.name(),
            AgentRequest::Rename(a) => a.name(),
            AgentRequest::Touch(a) => a.name(),
            AgentRequest::Status(a) => a.name(),
            AgentRequest::Ship(a) => a.name(),
        }
    }

    /// Executes the wrapped agent against `state`.
    ///
    /// # Errors
    ///
    /// See [`Agent::execute`].
    pub fn execute(&self, state: &mut BrokerState) -> Result<AgentOutput, AgentError> {
        match self {
            AgentRequest::Store(a) => a.execute(state),
            AgentRequest::Delete(a) => a.execute(state),
            AgentRequest::Rename(a) => a.execute(state),
            AgentRequest::Touch(a) => a.execute(state),
            AgentRequest::Status(a) => a.execute(state),
            AgentRequest::Ship(a) => a.execute(state),
        }
    }
}

macro_rules! into_request {
    ($($agent:ident => $variant:ident),+ $(,)?) => {
        $(impl From<$agent> for AgentRequest {
            fn from(a: $agent) -> Self {
                AgentRequest::$variant(a)
            }
        })+
    };
}

into_request!(
    StoreFile => Store,
    DeleteFile => Delete,
    RenameFile => Rename,
    TouchFile => Touch,
    StatusProbe => Status,
    ShipAgent => Ship,
);

/// The wire form of an agent's result (the vendored serde stand-in has
/// no `Result` impl, so the broker protocol spells it out).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AgentReply {
    /// The agent succeeded.
    Ok(AgentOutput),
    /// The agent failed.
    Err(AgentError),
}

impl From<Result<AgentOutput, AgentError>> for AgentReply {
    fn from(r: Result<AgentOutput, AgentError>) -> Self {
        match r {
            Ok(o) => AgentReply::Ok(o),
            Err(e) => AgentReply::Err(e),
        }
    }
}

impl From<AgentReply> for Result<AgentOutput, AgentError> {
    fn from(r: AgentReply) -> Self {
        match r {
            AgentReply::Ok(o) => Ok(o),
            AgentReply::Err(e) => Err(e),
        }
    }
}

/// Stores a file on the node (used for publishing and as the receiving
/// half of replication).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreFile {
    /// Destination path.
    pub path: UrlPath,
    /// File metadata to store.
    pub file: StoredFile,
    /// Whether to overwrite an existing copy (content updates).
    pub overwrite: bool,
}

impl Agent for StoreFile {
    fn name(&self) -> &'static str {
        "store-file"
    }

    fn execute(&self, state: &mut BrokerState) -> Result<AgentOutput, AgentError> {
        let body = cpms_store::synthetic_body(self.file.content, self.file.size);
        state.content().put(
            &self.path,
            self.file.content,
            self.file.version,
            &body,
            self.overwrite,
        )?;
        Ok(AgentOutput::Done)
    }
}

/// Deletes a file from the node's local filesystem — the paper's worked
/// example: "one agent is responsible for deleting a file from the local
/// file system of the node that it executes. If the administrator tries to
/// offload some pages from a server, the controller will send this agent
/// to that node."
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeleteFile {
    /// Path to delete.
    pub path: UrlPath,
}

impl Agent for DeleteFile {
    fn name(&self) -> &'static str {
        "delete-file"
    }

    fn execute(&self, state: &mut BrokerState) -> Result<AgentOutput, AgentError> {
        state.content().delete(&self.path)?;
        Ok(AgentOutput::Done)
    }
}

/// Renames a file on the node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RenameFile {
    /// Current path.
    pub from: UrlPath,
    /// New path.
    pub to: UrlPath,
}

impl Agent for RenameFile {
    fn name(&self) -> &'static str {
        "rename-file"
    }

    fn execute(&self, state: &mut BrokerState) -> Result<AgentOutput, AgentError> {
        state.content().rename(&self.from, &self.to)?;
        Ok(AgentOutput::Done)
    }
}

/// Bumps a mutable document's version in place (a content-provider
/// update).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TouchFile {
    /// Path to update.
    pub path: UrlPath,
}

impl Agent for TouchFile {
    fn name(&self) -> &'static str {
        "touch-file"
    }

    fn execute(&self, state: &mut BrokerState) -> Result<AgentOutput, AgentError> {
        Ok(AgentOutput::Version(state.content().touch(&self.path)?))
    }
}

/// Reports the node's status (files, disk usage) — the broker's monitoring
/// duty.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StatusProbe;

impl Agent for StatusProbe {
    fn name(&self) -> &'static str {
        "status-probe"
    }

    fn execute(&self, state: &mut BrokerState) -> Result<AgentOutput, AgentError> {
        // O(1): the monitor's heartbeat must not walk the manifest.
        let stats = state.content().stats();
        Ok(AgentOutput::Status {
            files: stats.objects as usize,
            used_bytes: stats.committed_bytes,
            free_bytes: stats.free_bytes(),
        })
    }
}

/// Tunnels one content-shipping request to the node's content store —
/// this is how replica bytes actually arrive at a broker. Store-level
/// failures ride inside the reply ([`ShipReply::Err`]). Chunk bytes are
/// not part of the message: the broker service hands the payload's raw
/// tail to [`cpms_store::apply_tail`] beside the request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShipAgent {
    /// The ship-protocol message to apply.
    pub request: ShipRequest,
}

impl Agent for ShipAgent {
    fn name(&self) -> &'static str {
        "ship"
    }

    /// The tail-less form: a `Chunk` is staged only in its legacy hex
    /// spelling, a `Fetch` answers hex ([`cpms_store::apply`]).
    fn execute(&self, state: &mut BrokerState) -> Result<AgentOutput, AgentError> {
        Ok(AgentOutput::Ship(cpms_store::apply(
            state.content(),
            &self.request,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpms_model::ContentId;

    fn p(s: &str) -> UrlPath {
        s.parse().unwrap()
    }

    fn store() -> BrokerState {
        BrokerState::new(NodeId(1), 1 << 20)
    }

    fn f(id: u32) -> StoredFile {
        sized(id, 100)
    }

    fn sized(id: u32, size: u64) -> StoredFile {
        StoredFile {
            content: ContentId(id),
            size,
            version: 0,
        }
    }

    fn store_file(
        s: &mut BrokerState,
        path: &str,
        file: StoredFile,
        overwrite: bool,
    ) -> Result<AgentOutput, AgentError> {
        StoreFile {
            path: p(path),
            file,
            overwrite,
        }
        .execute(s)
    }

    fn status(s: &mut BrokerState) -> (usize, u64, u64) {
        match StatusProbe.execute(s).unwrap() {
            AgentOutput::Status {
                files,
                used_bytes,
                free_bytes,
            } => (files, used_bytes, free_bytes),
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn store_then_delete() {
        let mut s = store();
        let out = store_file(&mut s, "/a", f(1), false).unwrap();
        assert_eq!(out, AgentOutput::Done);
        assert_eq!(
            s.content().read(&p("/a")).unwrap(),
            cpms_store::synthetic_body(ContentId(1), 100),
            "the file's bytes are committed"
        );

        DeleteFile { path: p("/a") }.execute(&mut s).unwrap();
        assert!(!s.content().contains(&p("/a")));
        let err = DeleteFile { path: p("/a") }.execute(&mut s).unwrap_err();
        assert_eq!(
            err,
            AgentError::Store(StoreError::NotFound { path: p("/a") })
        );
    }

    #[test]
    fn replayed_store_is_done_conflict_and_oversize_are_refused() {
        let mut s = BrokerState::new(NodeId(1), 1000);
        store_file(&mut s, "/a", sized(1, 600), false).unwrap();
        // A retried frame whose first copy landed: same answer as every
        // other replayed frame of the ship protocol.
        let replay = store_file(&mut s, "/a", sized(1, 600), false);
        assert_eq!(replay, Ok(AgentOutput::Done));
        assert_eq!(status(&mut s), (1, 600, 400));
        // A different object at the occupied path is still a conflict.
        let err = store_file(&mut s, "/a", sized(2, 600), false).unwrap_err();
        assert_eq!(
            err,
            AgentError::Store(StoreError::AlreadyExists { path: p("/a") })
        );
        // Oversize: refused with what was needed and what was free.
        let err = store_file(&mut s, "/b", sized(3, 500), false).unwrap_err();
        assert_eq!(
            err,
            AgentError::Store(StoreError::DiskFull {
                path: p("/b"),
                needed: 500,
                free: 400
            })
        );
        // An overwrite may reuse the bytes it replaces.
        let err = store_file(&mut s, "/a", sized(1, 1100), true).unwrap_err();
        assert_eq!(
            err,
            AgentError::Store(StoreError::DiskFull {
                path: p("/a"),
                needed: 1100,
                free: 1000
            })
        );
        assert_eq!(status(&mut s), (1, 600, 400), "refusals changed nothing");
    }

    #[test]
    fn rename_and_touch() {
        let mut s = store();
        store_file(&mut s, "/old", f(2), false).unwrap();
        RenameFile {
            from: p("/old"),
            to: p("/new"),
        }
        .execute(&mut s)
        .unwrap();
        let out = TouchFile { path: p("/new") }.execute(&mut s).unwrap();
        assert_eq!(out, AgentOutput::Version(1));
    }

    #[test]
    fn status_and_listing() {
        let mut s = store();
        for i in 0..3 {
            store_file(&mut s, &format!("/f{i}"), f(i), false).unwrap();
        }
        assert_eq!(status(&mut s), (3, 300, (1 << 20) - 300));
        let l = inventory(&mut s);
        assert_eq!(l.len(), 3);
        assert!(l.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert_eq!(
            (&l[0].0, l[0].1.content, l[0].1.size),
            (&p("/f0"), ContentId(0), 100)
        );
    }

    #[test]
    fn agent_names() {
        assert_eq!(StatusProbe.name(), "status-probe");
        assert_eq!(DeleteFile { path: p("/x") }.name(), "delete-file");
        assert_eq!(
            ShipAgent {
                request: ShipRequest::Inventory
            }
            .name(),
            "ship"
        );
    }

    fn ship(s: &mut BrokerState, request: ShipRequest) -> ShipReply {
        match (ShipAgent { request }).execute(s).unwrap() {
            AgentOutput::Ship(reply) => reply,
            other => panic!("{other:?}"),
        }
    }

    /// The node's committed objects, as the audit reads them.
    fn inventory(s: &mut BrokerState) -> Vec<(UrlPath, cpms_store::ObjectMeta)> {
        match ship(s, ShipRequest::Inventory) {
            ShipReply::InventoryIs(listing) => listing,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn status_subtracts_staged_reservations() {
        let mut s = BrokerState::new(NodeId(1), 1000);
        let meta = cpms_store::ObjectMeta::for_body(ContentId(9), &[7u8; 600], 256, 0);
        let begun = ship(
            &mut s,
            ShipRequest::Begin {
                path: p("/staged"),
                meta,
                overwrite: false,
            },
        );
        assert!(matches!(begun, ShipReply::Begun { .. }), "{begun:?}");
        assert_eq!(status(&mut s), (0, 0, 400));
    }

    #[test]
    fn ship_commit_syncs_the_ledger() {
        use cpms_store::{fnv64, hex_encode, ObjectMeta};
        let mut s = store();
        let body = vec![7u8; 300];
        let meta = ObjectMeta::for_body(ContentId(9), &body, 256, 0);
        let begun = ship(
            &mut s,
            ShipRequest::Begin {
                path: p("/shipped"),
                meta,
                overwrite: false,
            },
        );
        let transfer = match begun {
            ShipReply::Begun { transfer, .. } => transfer,
            other => panic!("{other:?}"),
        };
        for index in 0..meta.chunk_count() {
            let range = meta.chunk_range(index).unwrap();
            ship(
                &mut s,
                ShipRequest::Chunk {
                    transfer,
                    index,
                    data: hex_encode(&body[range.clone()]),
                    checksum: fnv64(&body[range]),
                },
            );
        }
        assert_eq!(
            inventory(&mut s),
            Vec::new(),
            "staged bytes are not listed yet"
        );
        ship(
            &mut s,
            ShipRequest::Commit {
                transfer,
                path: p("/shipped"),
                checksum: meta.checksum,
            },
        );
        assert_eq!(
            inventory(&mut s),
            vec![(p("/shipped"), meta)],
            "the inventory records the committed object"
        );
        assert_eq!(s.content().read(&p("/shipped")).unwrap(), body);

        ship(
            &mut s,
            ShipRequest::Delete {
                path: p("/shipped"),
            },
        );
        assert_eq!(
            status(&mut s).0,
            0,
            "a shipped delete leaves nothing listed"
        );
    }
}
