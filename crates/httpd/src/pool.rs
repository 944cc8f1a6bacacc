//! Pre-forked persistent backend connections over real sockets.
//!
//! The paper's pre-forked connection list (§2.2): at
//! startup the proxy opens `prefork` TCP connections to every backend and
//! keeps them alive (HTTP/1.1 keep-alive); each relayed request checks one
//! out and returns it afterwards. If a node's list is momentarily empty
//! the pool opens an extra connection rather than queueing, counting the
//! event (`overflow_connects`) so benches can report pool pressure.
//! Every pooled connection is non-blocking from birth: its readers and
//! writers are the proxy's event loops.
//!
//! The pool's parameter `C` is what an idle list holds: the stream itself
//! by default, or — in a proxy worker — the stream together with the key
//! under which the worker registered it with its poller, once, when the
//! connection was opened ([`SocketPool::checkout_with`] adopts a freshly
//! opened one).

use parking_lot::Mutex;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};

/// A pool of persistent connections to a set of backends.
#[derive(Debug)]
pub struct SocketPool<C = TcpStream> {
    backends: Vec<SocketAddr>,
    idle: Vec<Mutex<Vec<C>>>,
    overflow_connects: AtomicU64,
    checkouts: AtomicU64,
}

impl SocketPool {
    /// Opens `prefork` connections to each backend.
    ///
    /// # Errors
    ///
    /// Connection failures during pre-forking.
    pub fn prefork(backends: Vec<SocketAddr>, prefork: u32) -> io::Result<Self> {
        let pool = SocketPool::empty(backends);
        for (idx, &addr) in pool.backends.iter().enumerate() {
            let mut idle = pool.idle[idx].lock();
            for _ in 0..prefork {
                idle.push(connect(addr)?);
            }
        }
        Ok(pool)
    }

    /// Checks out a connection to backend `idx`, opening a new one if the
    /// pool is empty.
    ///
    /// # Errors
    ///
    /// Connection failures when growing.
    pub fn checkout(&self, idx: usize) -> io::Result<TcpStream> {
        self.checkout_with(idx, Ok)
    }
}

impl<C> SocketPool<C> {
    /// A pool of `backends` with no idle connections yet.
    pub fn empty(backends: Vec<SocketAddr>) -> Self {
        SocketPool {
            idle: backends.iter().map(|_| Mutex::new(Vec::new())).collect(),
            backends,
            overflow_connects: AtomicU64::new(0),
            checkouts: AtomicU64::new(0),
        }
    }

    /// Number of backends.
    pub fn backend_count(&self) -> usize {
        self.backends.len()
    }

    /// The address of backend `idx`.
    pub fn backend_addr(&self, idx: usize) -> SocketAddr {
        self.backends[idx]
    }

    /// Total checkouts so far.
    pub fn checkouts(&self) -> u64 {
        self.checkouts.load(Ordering::Relaxed)
    }

    /// Times a checkout had to open a fresh connection because the
    /// pre-forked list was empty.
    pub fn overflow_connects(&self) -> u64 {
        self.overflow_connects.load(Ordering::Relaxed)
    }

    /// Idle connections currently pooled for backend `idx`.
    pub fn idle_count(&self, idx: usize) -> usize {
        self.idle[idx].lock().len()
    }

    /// Checks out a connection to backend `idx`; when none is idle, opens
    /// one and hands it to `adopt` to make it a `C`.
    ///
    /// # Errors
    ///
    /// Connection failures when growing, and whatever `adopt` returns.
    pub fn checkout_with(
        &self,
        idx: usize,
        adopt: impl FnOnce(TcpStream) -> io::Result<C>,
    ) -> io::Result<C> {
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        if let Some(conn) = self.idle[idx].lock().pop() {
            return Ok(conn);
        }
        self.overflow_connects.fetch_add(1, Ordering::Relaxed);
        adopt(connect(self.backends[idx])?)
    }

    /// Returns a healthy connection to the pool ("releases the pre-forked
    /// connection back to available connection list").
    pub fn release(&self, idx: usize, conn: C) {
        self.idle[idx].lock().push(conn);
    }

    /// Takes every idle connection to backend `idx` out of the pool.
    pub fn take_idle(&self, idx: usize) -> Vec<C> {
        std::mem::take(&mut *self.idle[idx].lock())
    }

    /// Takes the idle connection to backend `idx` that `which` picks out
    /// of the pool, if it is there.
    pub fn remove_idle(&self, idx: usize, which: impl Fn(&C) -> bool) -> Option<C> {
        let mut idle = self.idle[idx].lock();
        let at = idle.iter().position(which)?;
        Some(idle.swap_remove(at))
    }
}

/// Opens one pooled connection: no Nagle delay, non-blocking.
fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::{OriginServer, SiteContent};
    use cpms_model::NodeId;

    fn origin() -> OriginServer {
        let mut site = SiteContent::new();
        site.add_static("/x", b"pool".to_vec());
        OriginServer::start(NodeId(0), site).unwrap()
    }

    #[test]
    fn prefork_and_reuse() {
        let o = origin();
        let pool = SocketPool::prefork(vec![o.addr()], 3).unwrap();
        assert_eq!(pool.idle_count(0), 3);
        let c1 = pool.checkout(0).unwrap();
        let c2 = pool.checkout(0).unwrap();
        assert_eq!(pool.idle_count(0), 1);
        pool.release(0, c1);
        pool.release(0, c2);
        assert_eq!(pool.idle_count(0), 3);
        assert_eq!(pool.checkouts(), 2);
        assert_eq!(pool.overflow_connects(), 0);
    }

    #[test]
    fn grows_on_exhaustion() {
        let o = origin();
        let pool = SocketPool::prefork(vec![o.addr()], 1).unwrap();
        let a = pool.checkout(0).unwrap();
        let b = pool.checkout(0).unwrap(); // overflow
        assert_eq!(pool.overflow_connects(), 1);
        pool.release(0, a);
        pool.release(0, b);
        assert_eq!(pool.idle_count(0), 2, "overflow conns join the pool");
    }

    #[test]
    fn pooled_connections_actually_work() {
        use std::io::Read;
        let o = origin();
        let pool = SocketPool::prefork(vec![o.addr()], 2).unwrap();
        let mut conn = pool.checkout(0).unwrap();
        let mut buf = [0u8; 256];
        let idle = conn.read(&mut buf).unwrap_err();
        assert_eq!(idle.kind(), io::ErrorKind::WouldBlock, "born non-blocking");

        crate::http::write_request(&mut conn, &"/x".parse().unwrap()).unwrap();
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let resp = loop {
            if let Ok(resp) = crate::http::read_response(&mut &got[..]) {
                break resp;
            }
            assert!(std::time::Instant::now() < deadline, "no response");
            match conn.read(&mut buf) {
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err(e) => panic!("pooled read failed: {e}"),
            }
        };
        assert_eq!(resp.body, b"pool");
        pool.release(0, conn);
    }
}
