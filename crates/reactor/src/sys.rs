//! Raw Linux syscall bindings used by the reactor.
//!
//! This module is the only place in the workspace that declares foreign
//! functions. Everything it exposes upward is a safe wrapper that owns its
//! file descriptors and converts errno into [`std::io::Error`]. The bindings
//! are declared by hand (no `libc` crate) so the workspace stays buildable
//! with zero external dependencies.

#![allow(non_camel_case_types)]

use std::io;

pub type c_int = i32;

// epoll_ctl ops.
pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;

// epoll event bits.
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

pub const EPOLL_CLOEXEC: c_int = 0x80000;

// pipe2 flags.
pub const O_NONBLOCK: c_int = 0x800;
pub const O_CLOEXEC: c_int = 0x80000;

// splice flags.
pub const SPLICE_F_MOVE: u32 = 0x1;
pub const SPLICE_F_NONBLOCK: u32 = 0x2;

// rlimit.
pub const RLIMIT_NOFILE: c_int = 7;

// sockets.
pub const AF_INET: c_int = 2;
pub const AF_INET6: c_int = 10;
pub const SOCK_STREAM: c_int = 1;
pub const SOCK_NONBLOCK: c_int = 0x800;
pub const SOCK_CLOEXEC: c_int = 0x80000;
pub const SOL_SOCKET: c_int = 1;
pub const SO_REUSEADDR: c_int = 2;
pub const SO_ERROR: c_int = 4;
pub const EINPROGRESS: c_int = 115;

/// Kernel epoll event record. x86-64 Linux packs this struct so the 64-bit
/// user data field sits at offset 4.
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub struct epoll_event {
    pub events: u32,
    pub u64: u64,
}

#[repr(C)]
#[derive(Clone, Copy)]
pub struct rlimit {
    pub rlim_cur: u64,
    pub rlim_max: u64,
}

/// IPv4 socket address, network byte order where the ABI says so.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct sockaddr_in {
    pub sin_family: u16,
    pub sin_port: u16,
    pub sin_addr: u32,
    pub sin_zero: [u8; 8],
}

/// IPv6 socket address.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct sockaddr_in6 {
    pub sin6_family: u16,
    pub sin6_port: u16,
    pub sin6_flowinfo: u32,
    pub sin6_addr: [u8; 16],
    pub sin6_scope_id: u32,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut epoll_event, maxevents: c_int, timeout: c_int)
        -> c_int;
    fn pipe2(pipefd: *mut c_int, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    fn splice(
        fd_in: c_int,
        off_in: *mut i64,
        fd_out: c_int,
        off_out: *mut i64,
        len: usize,
        flags: u32,
    ) -> isize;
    fn close(fd: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const rlimit) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(sockfd: c_int, addr: *const u8, addrlen: u32) -> c_int;
    fn bind(sockfd: c_int, addr: *const u8, addrlen: u32) -> c_int;
    fn listen(sockfd: c_int, backlog: c_int) -> c_int;
    fn getsockopt(
        sockfd: c_int,
        level: c_int,
        optname: c_int,
        optval: *mut u8,
        optlen: *mut u32,
    ) -> c_int;
    fn setsockopt(
        sockfd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const u8,
        optlen: u32,
    ) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned file descriptor that closes itself on drop.
#[derive(Debug)]
pub struct OwnedFd(c_int);

impl OwnedFd {
    pub fn raw(&self) -> c_int {
        self.0
    }

    /// Releases ownership: the caller becomes responsible for closing.
    pub fn into_raw(self) -> c_int {
        let fd = self.0;
        std::mem::forget(self);
        fd
    }
}

impl Drop for OwnedFd {
    fn drop(&mut self) {
        // Nothing sane to do with a close error during teardown.
        unsafe {
            close(self.0);
        }
    }
}

pub fn epoll_create() -> io::Result<OwnedFd> {
    let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
    Ok(OwnedFd(fd))
}

pub fn epoll_add(epfd: &OwnedFd, fd: c_int, events: u32, token: u64) -> io::Result<()> {
    let mut ev = epoll_event { events, u64: token };
    cvt(unsafe { epoll_ctl(epfd.raw(), EPOLL_CTL_ADD, fd, &mut ev) })?;
    Ok(())
}

pub fn epoll_mod(epfd: &OwnedFd, fd: c_int, events: u32, token: u64) -> io::Result<()> {
    let mut ev = epoll_event { events, u64: token };
    cvt(unsafe { epoll_ctl(epfd.raw(), EPOLL_CTL_MOD, fd, &mut ev) })?;
    Ok(())
}

pub fn epoll_del(epfd: &OwnedFd, fd: c_int) -> io::Result<()> {
    let mut ev = epoll_event { events: 0, u64: 0 };
    cvt(unsafe { epoll_ctl(epfd.raw(), EPOLL_CTL_DEL, fd, &mut ev) })?;
    Ok(())
}

/// Wait for readiness; `timeout_ms < 0` blocks indefinitely. Fills `out` with
/// up to its capacity worth of events and returns how many arrived.
pub fn epoll_wait_into(
    epfd: &OwnedFd,
    out: &mut Vec<epoll_event>,
    timeout_ms: c_int,
) -> io::Result<usize> {
    out.clear();
    if out.capacity() == 0 {
        out.reserve(64);
    }
    let cap = out.capacity() as c_int;
    // Safety: the kernel writes at most `cap` records into the spare
    // capacity; we set the length only to the count it reports.
    let n = cvt(unsafe { epoll_wait(epfd.raw(), out.as_mut_ptr(), cap, timeout_ms) })?;
    unsafe { out.set_len(n as usize) };
    Ok(n as usize)
}

/// Non-blocking close-on-exec pipe; returns (read end, write end).
pub fn nonblocking_pipe() -> io::Result<(OwnedFd, OwnedFd)> {
    let mut ends: [c_int; 2] = [-1, -1];
    cvt(unsafe { pipe2(ends.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) })?;
    Ok((OwnedFd(ends[0]), OwnedFd(ends[1])))
}

pub fn read_fd(fd: c_int, buf: &mut [u8]) -> io::Result<usize> {
    let n = unsafe { read(fd, buf.as_mut_ptr(), buf.len()) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

pub fn write_fd(fd: c_int, buf: &[u8]) -> io::Result<usize> {
    let n = unsafe { write(fd, buf.as_ptr(), buf.len()) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Moves up to `len` bytes from `fd_in` to `fd_out` inside the kernel;
/// one of the two must be a pipe. Never blocks on the pipe, and never on
/// a socket in non-blocking mode: either reports `WouldBlock` instead.
pub fn splice_fds(fd_in: c_int, fd_out: c_int, len: usize) -> io::Result<usize> {
    // SAFETY: null offsets ask the kernel to use (and advance) each fd's
    // own position, which is what pipes and sockets require; no memory of
    // ours is read or written.
    let n = unsafe {
        splice(
            fd_in,
            std::ptr::null_mut(),
            fd_out,
            std::ptr::null_mut(),
            len,
            SPLICE_F_MOVE | SPLICE_F_NONBLOCK,
        )
    };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

pub fn nofile_limit() -> io::Result<(u64, u64)> {
    let mut lim = rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    Ok((lim.rlim_cur, lim.rlim_max))
}

pub fn set_nofile_limit(soft: u64, hard: u64) -> io::Result<()> {
    let lim = rlimit {
        rlim_cur: soft,
        rlim_max: hard,
    };
    cvt(unsafe { setrlimit(RLIMIT_NOFILE, &lim) })?;
    Ok(())
}

/// Encodes a [`std::net::SocketAddr`] into the kernel's sockaddr bytes,
/// returning the buffer, its used length, and the address family.
fn encode_sockaddr(addr: &std::net::SocketAddr) -> ([u8; 28], u32, c_int) {
    let mut buf = [0u8; 28];
    match addr {
        std::net::SocketAddr::V4(v4) => {
            let sa = sockaddr_in {
                sin_family: AF_INET as u16,
                sin_port: v4.port().to_be(),
                sin_addr: u32::from_ne_bytes(v4.ip().octets()),
                sin_zero: [0; 8],
            };
            buf[..2].copy_from_slice(&sa.sin_family.to_ne_bytes());
            buf[2..4].copy_from_slice(&sa.sin_port.to_ne_bytes());
            buf[4..8].copy_from_slice(&sa.sin_addr.to_ne_bytes());
            (buf, std::mem::size_of::<sockaddr_in>() as u32, AF_INET)
        }
        std::net::SocketAddr::V6(v6) => {
            buf[..2].copy_from_slice(&(AF_INET6 as u16).to_ne_bytes());
            buf[2..4].copy_from_slice(&v6.port().to_be().to_ne_bytes());
            buf[4..8].copy_from_slice(&v6.flowinfo().to_be().to_ne_bytes());
            buf[8..24].copy_from_slice(&v6.ip().octets());
            buf[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
            (buf, std::mem::size_of::<sockaddr_in6>() as u32, AF_INET6)
        }
    }
}

/// Opens a non-blocking close-on-exec TCP socket for `addr`'s family.
pub fn tcp_socket(addr: &std::net::SocketAddr) -> io::Result<OwnedFd> {
    let (_, _, family) = encode_sockaddr(addr);
    let fd = cvt(unsafe { socket(family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
    Ok(OwnedFd(fd))
}

/// Starts a connect on a non-blocking socket. Returns `true` when the
/// connection completed synchronously, `false` when it is in progress
/// (completion is signalled by writability; check [`so_error`] then).
pub fn start_connect(fd: &OwnedFd, addr: &std::net::SocketAddr) -> io::Result<bool> {
    let (buf, len, _) = encode_sockaddr(addr);
    match cvt(unsafe { connect(fd.raw(), buf.as_ptr(), len) }) {
        Ok(_) => Ok(true),
        Err(e) if e.raw_os_error() == Some(EINPROGRESS) => Ok(false),
        Err(e) => Err(e),
    }
}

/// Binds and listens with an explicit backlog (std's `TcpListener::bind`
/// hardwires 128, too shallow for connection-churn storms).
pub fn bind_listen(addr: &std::net::SocketAddr, backlog: c_int) -> io::Result<OwnedFd> {
    let sock = tcp_socket(addr)?;
    let one: c_int = 1;
    cvt(unsafe {
        setsockopt(
            sock.raw(),
            SOL_SOCKET,
            SO_REUSEADDR,
            (&one as *const c_int).cast(),
            std::mem::size_of::<c_int>() as u32,
        )
    })?;
    let (buf, len, _) = encode_sockaddr(addr);
    cvt(unsafe { bind(sock.raw(), buf.as_ptr(), len) })?;
    cvt(unsafe { listen(sock.raw(), backlog) })?;
    Ok(sock)
}

/// Drains the socket's pending error (`SO_ERROR`): `None` when the last
/// asynchronous operation (e.g. a non-blocking connect) succeeded.
pub fn so_error(fd: c_int) -> io::Result<Option<io::Error>> {
    let mut err: c_int = 0;
    let mut len = std::mem::size_of::<c_int>() as u32;
    cvt(unsafe {
        getsockopt(
            fd,
            SOL_SOCKET,
            SO_ERROR,
            (&mut err as *mut c_int).cast(),
            &mut len,
        )
    })?;
    Ok((err != 0).then(|| io::Error::from_raw_os_error(err)))
}
