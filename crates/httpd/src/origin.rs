//! The origin server: a threaded HTTP/1.1 back end standing in for the
//! paper's Apache/IIS nodes.
//!
//! Serves an in-memory [`SiteContent`]: static paths return stored bytes;
//! dynamic paths (`.cgi`/`.asp`) burn a configurable execution delay and
//! return a generated body, mimicking script execution cost. A site can
//! also be backed by the node's [`cpms_store::ContentStore`]: objects the
//! management plane ships and commits become servable immediately, with
//! no explicit `add_static` push.

use crate::http::{read_request, write_response, ParseError};
use cpms_model::{NodeId, UrlPath};
use cpms_obs::{MetricsRegistry, ScopedTrace, SpanCollector, TracedSpan};
use cpms_store::ContentStore;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What one node serves.
#[derive(Debug, Default)]
pub struct SiteContent {
    files: HashMap<UrlPath, Vec<u8>>,
    dynamic: HashMap<UrlPath, DynamicSpec>,
    backing: Option<Arc<ContentStore>>,
}

#[derive(Debug, Clone)]
struct DynamicSpec {
    exec: Duration,
    response_bytes: usize,
}

impl SiteContent {
    /// An empty site.
    pub fn new() -> Self {
        SiteContent::default()
    }

    /// Adds a static file.
    pub fn add_static(&mut self, path: &str, body: Vec<u8>) -> &mut Self {
        self.files
            .insert(path.parse().expect("valid path literal"), body);
        self
    }

    /// Adds a dynamic endpoint that sleeps `exec` then returns
    /// `response_bytes` of generated output.
    pub fn add_dynamic(&mut self, path: &str, exec: Duration, response_bytes: usize) -> &mut Self {
        self.dynamic.insert(
            path.parse().expect("valid path literal"),
            DynamicSpec {
                exec,
                response_bytes,
            },
        );
        self
    }

    /// Backs the site with a node's content store: any object committed
    /// there is servable, looked up after explicit files and dynamic
    /// endpoints. This is how shipped replicas go live — the management
    /// plane commits bytes into the store and the origin serves them.
    pub fn with_backing(mut self, store: Arc<ContentStore>) -> Self {
        self.backing = Some(store);
        self
    }

    /// Number of explicitly added objects (static + dynamic). Objects
    /// visible only through the backing store are not counted.
    pub fn len(&self) -> usize {
        self.files.len() + self.dynamic.len()
    }

    /// Whether the site has no explicitly added objects.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty() && self.dynamic.is_empty()
    }
}

/// A running origin server. Dropping it (or calling
/// [`OriginServer::shutdown`]) stops the accept loop.
pub struct OriginServer {
    node: NodeId,
    addr: SocketAddr,
    content: Arc<RwLock<SiteContent>>,
    stop: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
    registry: Arc<MetricsRegistry>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for OriginServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OriginServer")
            .field("node", &self.node)
            .field("addr", &self.addr)
            .field("served", &self.served())
            .finish()
    }
}

impl OriginServer {
    /// Binds a listener on an ephemeral localhost port and starts serving
    /// `content`.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener.
    pub fn start(node: NodeId, content: SiteContent) -> io::Result<OriginServer> {
        Self::start_with_registry(node, content, Arc::new(MetricsRegistry::new()))
    }

    /// [`OriginServer::start`] recording into a caller-supplied registry:
    /// requests that arrive with an `x-cpms-trace` header (the proxy's
    /// relay path) record `origin.request` spans into the registry's
    /// [`SpanCollector`], so a daemon hosting both a broker and an origin
    /// exports one trace surface for the whole process.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener.
    pub fn start_with_registry(
        node: NodeId,
        content: SiteContent,
        registry: Arc<MetricsRegistry>,
    ) -> io::Result<OriginServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let content = Arc::new(RwLock::new(content));
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));

        // Pre-register the origin's identity and volume metrics so the
        // full-registry scrape sees them from the first request.
        registry.gauge("origin_node").set(i64::from(node.0));
        registry.counter("origin_served_total");

        let accept_thread = {
            let content = Arc::clone(&content);
            let stop = Arc::clone(&stop);
            let served = Arc::clone(&served);
            let registry = Arc::clone(&registry);
            std::thread::Builder::new()
                .name(format!("origin-{node}"))
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let content = Arc::clone(&content);
                        let served = Arc::clone(&served);
                        let registry = Arc::clone(&registry);
                        let _ = std::thread::Builder::new()
                            .name("origin-conn".to_string())
                            .spawn(move || {
                                let _ =
                                    serve_connection(stream, node, &content, &served, &registry);
                            });
                    }
                })?
        };

        Ok(OriginServer {
            node,
            addr,
            content,
            stop,
            served,
            registry,
            accept_thread: Some(accept_thread),
        })
    }

    /// The node identity this origin represents.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests served so far (across all connections).
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// The registry this origin records trace spans into. Fresh unless
    /// the caller supplied one via [`OriginServer::start_with_registry`].
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Adds or replaces a static file while running (content management
    /// pushing an update to this node).
    pub fn add_static(&self, path: &str, body: Vec<u8>) {
        self.content.write().add_static(path, body);
    }

    /// Removes a file while running (a delete/offload agent's effect).
    /// Returns whether anything was removed.
    pub fn remove(&self, path: &UrlPath) -> bool {
        let mut c = self.content.write();
        c.files.remove(path).is_some() || c.dynamic.remove(path).is_some()
    }

    /// Stops accepting connections. In-flight exchanges finish on their
    /// own threads.
    pub fn shutdown(&mut self) {
        if let Some(thread) = self.accept_thread.take() {
            self.stop.store(true, Ordering::Release);
            // Unblock accept() with a dummy connection.
            let _ = TcpStream::connect(self.addr);
            let _ = thread.join();
        }
    }
}

impl Drop for OriginServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_connection(
    stream: TcpStream,
    node: NodeId,
    content: &RwLock<SiteContent>,
    served: &AtomicU64,
    registry: &MetricsRegistry,
) -> io::Result<()> {
    let spans: &SpanCollector = registry.spans();
    let served_total = registry.counter("origin_served_total");
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        let request = match read_request(&mut reader) {
            Ok(r) => r,
            Err(ParseError::ConnectionClosed) => return Ok(()),
            Err(ParseError::Io(e)) => return Err(e),
            Err(ParseError::Malformed(_)) => {
                write_response(&mut writer, 400, b"bad request", false)?;
                return Ok(());
            }
        };
        let keep_alive = request.keep_alive;
        // Admin surface so a lab orchestrator can scrape every process
        // in a topology the same way; not counted as served. The full
        // registry renders here (scrape_seq + uptime stamps included) —
        // a co-located broker's wire/store metrics share the document.
        let admin_body = match request.path.as_str() {
            crate::proxy::METRICS_JSON_PATH => Some(registry.snapshot().to_json()),
            crate::proxy::TRACE_JSON_PATH => Some(spans.to_json()),
            crate::proxy::SERIES_JSON_PATH => Some(registry.series_json()),
            _ => None,
        };
        if let Some(body) = admin_body {
            write_response(&mut writer, 200, body.as_bytes(), keep_alive)?;
            if keep_alive {
                continue;
            }
            return Ok(());
        }
        // An inbound `x-cpms-trace` header (the proxy's relay hop) makes
        // this exchange part of a distributed trace: the origin's span
        // parents to the relay's. Requests without a context stay
        // untraced — the origin never roots traces of its own.
        let _inherited = request.trace.map(ScopedTrace::activate);
        let mut trace_span = request
            .trace
            .map(|_| TracedSpan::enter(spans, "origin.request"));
        // Look the object up under a read lock; release before any
        // execution delay.
        enum Found {
            Static(Vec<u8>),
            Dynamic(DynamicSpec),
            Missing,
        }
        let found = {
            let c = content.read();
            if let Some(body) = c.files.get(&request.path) {
                Found::Static(body.clone())
            } else if let Some(spec) = c.dynamic.get(&request.path) {
                Found::Dynamic(spec.clone())
            } else if let Some(body) = c
                .backing
                .as_ref()
                .and_then(|store| store.read(&request.path).ok())
            {
                // The store only answers for committed objects, so a
                // replica mid-ship can never be served half-written.
                Found::Static(body)
            } else {
                Found::Missing
            }
        };
        match found {
            Found::Static(body) => {
                served.fetch_add(1, Ordering::Relaxed);
                served_total.inc();
                write_response(&mut writer, 200, &body, keep_alive)?;
            }
            Found::Dynamic(spec) => {
                std::thread::sleep(spec.exec);
                let body = vec![b'd'; spec.response_bytes];
                served.fetch_add(1, Ordering::Relaxed);
                served_total.inc();
                write_response(&mut writer, 200, &body, keep_alive)?;
            }
            Found::Missing => {
                if let Some(span) = trace_span.as_mut() {
                    span.set_error(true);
                }
                write_response(&mut writer, 404, b"not found", keep_alive)?;
            }
        }
        if let Some(mut span) = trace_span {
            span.fill_detail(|| format!("node={} {}", node.0, request.path));
        }
        if !keep_alive {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;

    fn site() -> SiteContent {
        let mut s = SiteContent::new();
        s.add_static("/index.html", b"home".to_vec());
        s.add_static("/img/logo.gif", vec![0xFF; 2048]);
        s.add_dynamic("/cgi-bin/q.cgi", Duration::from_millis(5), 64);
        s
    }

    #[test]
    fn serves_static_and_dynamic() {
        let origin = OriginServer::start(NodeId(0), site()).unwrap();
        let mut client = HttpClient::connect(origin.addr()).unwrap();
        let resp = client.get("/index.html").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"home");

        let resp = client.get("/img/logo.gif").unwrap();
        assert_eq!(resp.body.len(), 2048);

        let resp = client.get("/cgi-bin/q.cgi").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body.len(), 64);

        let resp = client.get("/missing").unwrap();
        assert_eq!(resp.status, 404);

        assert_eq!(origin.served(), 3, "404s are not counted as served");
    }

    #[test]
    fn keep_alive_reuses_connection() {
        let origin = OriginServer::start(NodeId(0), site()).unwrap();
        let mut client = HttpClient::connect(origin.addr()).unwrap();
        for _ in 0..10 {
            assert_eq!(client.get("/index.html").unwrap().status, 200);
        }
        assert_eq!(client.reconnects(), 0, "all ten on one connection");
    }

    #[test]
    fn live_content_updates() {
        let origin = OriginServer::start(NodeId(0), site()).unwrap();
        let mut client = HttpClient::connect(origin.addr()).unwrap();
        origin.add_static("/new.html", b"fresh".to_vec());
        assert_eq!(client.get("/new.html").unwrap().body, b"fresh");
        assert!(origin.remove(&"/new.html".parse().unwrap()));
        assert_eq!(client.get("/new.html").unwrap().status, 404);
        assert!(!origin.remove(&"/new.html".parse().unwrap()));
    }

    #[test]
    fn concurrent_clients() {
        let origin = OriginServer::start(NodeId(0), site()).unwrap();
        let addr = origin.addr();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).unwrap();
                    for _ in 0..20 {
                        assert_eq!(client.get("/index.html").unwrap().status, 200);
                    }
                });
            }
        });
        assert_eq!(origin.served(), 160);
    }

    #[test]
    fn backing_store_objects_are_served() {
        let store = Arc::new(ContentStore::in_memory(NodeId(0), 1 << 20));
        let path: UrlPath = "/shipped/report.html".parse().unwrap();
        store
            .put(&path, cpms_model::ContentId(7), 0, b"shipped bytes", false)
            .unwrap();
        let origin =
            OriginServer::start(NodeId(0), site().with_backing(Arc::clone(&store))).unwrap();
        let mut client = HttpClient::connect(origin.addr()).unwrap();

        // Explicit files still win; the store answers for the rest.
        assert_eq!(client.get("/index.html").unwrap().body, b"home");
        let resp = client.get("/shipped/report.html").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"shipped bytes");

        // A committed update is visible on the next request...
        store
            .put(&path, cpms_model::ContentId(7), 1, b"v2", true)
            .unwrap();
        assert_eq!(client.get("/shipped/report.html").unwrap().body, b"v2");

        // ...and a deleted object stops being served.
        store.delete(&path).unwrap();
        assert_eq!(client.get("/shipped/report.html").unwrap().status, 404);
    }

    #[test]
    fn metrics_endpoint_reports_served_count() {
        let origin = OriginServer::start(NodeId(5), site()).unwrap();
        let mut client = HttpClient::connect(origin.addr()).unwrap();
        client.get("/index.html").unwrap();
        let resp = client.get(crate::proxy::METRICS_JSON_PATH).unwrap();
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"origin_served_total\": 1"), "{text}");
        assert!(text.contains("\"origin_node\": 5"), "{text}");
        assert!(text.contains("\"scrape_seq\""), "{text}");
        assert!(text.contains("\"uptime_micros\""), "{text}");
        assert_eq!(origin.served(), 1, "metrics scrapes are not served pages");

        // The series surface answers even without a recorder installed…
        let empty = client.get(crate::proxy::SERIES_JSON_PATH).unwrap();
        assert_eq!(empty.status, 200);
        assert!(String::from_utf8(empty.body)
            .unwrap()
            .contains("\"series\":{}"));

        // …and reflects recorded history once a sampler runs.
        let mut sampler = cpms_obs::Sampler::start(origin.metrics(), Duration::from_millis(5));
        let recorder = origin.metrics().series().unwrap();
        for _ in 0..400 {
            if recorder.samples_taken() >= 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        sampler.stop();
        let series =
            String::from_utf8(client.get(crate::proxy::SERIES_JSON_PATH).unwrap().body).unwrap();
        assert!(series.contains("\"origin_served_total\":["), "{series}");
    }

    #[test]
    fn trace_header_makes_the_exchange_a_traced_span() {
        use crate::http::{read_response, write_request_traced};
        use cpms_obs::TraceContext;

        let origin = OriginServer::start(NodeId(3), site()).unwrap();
        let relay_ctx = TraceContext::root(true).child();
        let mut stream = TcpStream::connect(origin.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let path: UrlPath = "/index.html".parse().unwrap();
        write_request_traced(&mut stream, &path, Some(&relay_ctx)).unwrap();
        assert_eq!(read_response(&mut reader).unwrap().status, 200);

        // The span records when its guard drops, just after the response
        // bytes go out — poll briefly.
        let span = 'found: {
            for _ in 0..400 {
                let spans = origin.metrics().spans().snapshot();
                if let Some(s) = spans.iter().find(|s| s.name == "origin.request") {
                    break 'found s.clone();
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            panic!("origin.request span never recorded");
        };
        assert_eq!(span.trace, relay_ctx.trace);
        assert_eq!(span.parent, Some(relay_ctx.span));
        assert!(span.detail.contains("/index.html"), "{}", span.detail);

        // An untraced request adds nothing: origins never root traces.
        write_request_traced(&mut stream, &path, None).unwrap();
        assert_eq!(read_response(&mut reader).unwrap().status, 200);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(origin.metrics().spans().snapshot().len(), 1);

        // The span dump is served on the admin path.
        write_request_traced(&mut stream, &"/_cpms/trace.json".parse().unwrap(), None).unwrap();
        let dump = String::from_utf8(read_response(&mut reader).unwrap().body).unwrap();
        assert!(dump.contains(&relay_ctx.trace.to_string()), "{dump}");
    }

    /// Under a context the proxy did not sample, a served request records
    /// nothing and a 404 records its span all the same, detail included.
    #[test]
    fn an_unsampled_404_still_records_its_span() {
        use crate::http::{read_response, write_request_traced};
        use cpms_obs::TraceContext;

        let origin = OriginServer::start(NodeId(3), site()).unwrap();
        let relay_ctx = TraceContext::root(false).child();
        let mut stream = TcpStream::connect(origin.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for (path, status) in [("/index.html", 200), ("/missing", 404)] {
            write_request_traced(&mut stream, &path.parse().unwrap(), Some(&relay_ctx)).unwrap();
            assert_eq!(read_response(&mut reader).unwrap().status, status);
        }
        let span = 'found: {
            for _ in 0..400 {
                let spans = origin.metrics().spans().snapshot();
                if let Some(s) = spans.iter().find(|s| s.name == "origin.request") {
                    break 'found s.clone();
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            panic!("origin.request span never recorded");
        };
        assert_eq!(span.trace, relay_ctx.trace);
        assert_eq!(span.parent, Some(relay_ctx.span));
        assert_eq!(span.detail, "node=3 /missing");
        assert!(span.error);
        assert_eq!(
            origin.metrics().spans().snapshot().len(),
            1,
            "the unsampled 200 records nothing"
        );
    }

    #[test]
    fn shutdown_stops_accepting() {
        let mut origin = OriginServer::start(NodeId(0), site()).unwrap();
        let addr = origin.addr();
        origin.shutdown();
        // New connections may connect to the dead listener's backlog but
        // requests must fail.
        let result = HttpClient::connect(addr).and_then(|mut c| c.get("/index.html"));
        assert!(result.is_err());
    }
}
