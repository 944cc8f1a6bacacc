//! # cpms-dispatch
//!
//! The live distributor's routing and fault tolerance — §2.2–2.3 of the
//! paper, over real sockets.
//!
//! [`LiveRouter`] is the content-aware policy each worker of the live TCP
//! proxy (`cpms-httpd`) routes with: it reads *published snapshots* of the
//! URL table through a per-worker cache (see [`cpms_urltable::snapshot`]).
//! The proxy's event loop is §2.2's connection binding; its per-worker
//! mapping table, pre-forked socket pool and `splice(2)` relay live there.
//! What §2.3's primary/backup scheme needs of a user-space proxy —
//! heartbeats carrying liveness and the URL-table generation — is
//! [`failover`]. The simulator's policies, the content-aware distributor
//! among §2.1's baselines, are `cpms_sim::routing`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod failover;
pub mod live;

pub use live::LiveRouter;
