//! The system under test: a three-node cluster assembled in this process
//! from the same public constructors the daemons use. Brokers, origins,
//! the controller and the proxy run as threads; every byte between them
//! and the load generators crosses the host's loopback interface.

use crate::gen::{Object, NODES};
use cpms_httpd::{ContentAwareProxy, OriginServer, ProxyConfig, SiteContent};
use cpms_mgmt::store::NodeStore;
use cpms_mgmt::{Broker, BrokerState, Cluster, Controller};
use cpms_model::{ContentKind, NodeId};
use cpms_obs::MetricsRegistry;
use cpms_store::ContentStore;
use cpms_urltable::{UrlEntry, UrlTable};
use cpms_wire::{FaultPlan, FaultyTransport, Transport};
use std::net::SocketAddr;
use std::sync::Arc;

/// Per-node store capacity: never the limit in any workload.
const CAPACITY: u64 = 1 << 32;

/// Workers of the measured proxy.
pub const PROXY_WORKERS: usize = 2;
/// Connections the proxy pre-forks to each origin.
pub const PROXY_PREFORK: u32 = 4;

/// The proxy configuration every workload measures, at `workers` workers.
pub fn proxy_config(workers: usize) -> ProxyConfig {
    ProxyConfig {
        workers,
        prefork: PROXY_PREFORK,
        ..ProxyConfig::default()
    }
}

pub fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().expect("literal addr")
}

/// A running cluster. Fields drop in declaration order: the proxy (which
/// holds pooled connections to the origins) first, the stores last.
pub struct Rig {
    pub proxy: ContentAwareProxy,
    pub origins: Vec<OriginServer>,
    pub controller: Controller,
    pub stores: Vec<Arc<ContentStore>>,
    pub registry: Arc<MetricsRegistry>,
}

impl Rig {
    /// Starts the cluster with `objects` preloaded — bodies put straight
    /// into the owning nodes' stores, then one table publication — plus
    /// `routing_only` extra table entries that exist in no store.
    /// `loss`, when set, puts a seeded frame-loss `FaultyTransport` on
    /// every controller→broker link: `(seed, rate)`.
    pub fn start(objects: &[Object], routing_only: usize, loss: Option<(u64, f64)>) -> Rig {
        let registry = Arc::new(MetricsRegistry::new());
        let stores: Vec<Arc<ContentStore>> = (0..NODES)
            .map(|n| Arc::new(ContentStore::in_memory(NodeId(n as u16), CAPACITY)))
            .collect();
        let mut table = UrlTable::new();
        for o in objects {
            for node in o.nodes {
                stores[node.index()]
                    .put(&o.path, o.content, 0, &o.body, false)
                    .expect("preload fits the store");
            }
            table
                .insert(
                    o.path.clone(),
                    UrlEntry::new(o.content, ContentKind::StaticHtml, o.body.len() as u64)
                        .with_locations(o.nodes)
                        .with_checksum(o.checksum),
                )
                .expect("preloaded paths are distinct");
        }
        for i in 0..routing_only {
            table
                .insert(
                    format!("/cold/a{}/b{}/c{i}.html", i % 40, (i / 40) % 50)
                        .parse()
                        .expect("generated paths are valid"),
                    UrlEntry::new(
                        cpms_model::ContentId(3_000_000 + i as u32),
                        ContentKind::StaticHtml,
                        1024,
                    )
                    .with_locations([NodeId((i % NODES) as u16)]),
                )
                .expect("routing-only paths are distinct");
        }

        let handles = stores
            .iter()
            .enumerate()
            .map(|(n, store)| {
                let node = NodeId(n as u16);
                let state =
                    BrokerState::with_content(NodeStore::new(node, CAPACITY), Arc::clone(store));
                match loss {
                    None => Broker::bind_observed(loopback(), state, Arc::clone(registry.spans())),
                    Some((seed, rate)) => Broker::bind_wrapped(loopback(), state, |t| {
                        let plan = FaultPlan::lossy(seed.wrapping_add(n as u64), rate);
                        Arc::new(FaultyTransport::new(t, plan)) as Arc<dyn Transport>
                    }),
                }
                .expect("bind loopback broker")
            })
            .collect();
        let mut controller = Controller::new(Cluster::from_handles(handles));
        controller.set_metrics(&registry);
        controller.publisher().publish(table);

        let origins: Vec<OriginServer> = stores
            .iter()
            .enumerate()
            .map(|(n, store)| {
                OriginServer::start_with_registry(
                    NodeId(n as u16),
                    SiteContent::new().with_backing(Arc::clone(store)),
                    Arc::clone(&registry),
                )
                .expect("start origin")
            })
            .collect();
        let proxy = ContentAwareProxy::start_with_config(
            controller.publisher().share(),
            origins.iter().map(OriginServer::addr).collect(),
            Arc::clone(&registry),
            proxy_config(PROXY_WORKERS),
        )
        .expect("start proxy");
        Rig {
            proxy,
            origins,
            controller,
            stores,
            registry,
        }
    }

    pub fn origin_addrs(&self) -> Vec<SocketAddr> {
        self.origins.iter().map(OriginServer::addr).collect()
    }
}
