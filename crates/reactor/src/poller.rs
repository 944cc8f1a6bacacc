//! Readiness polling over Linux epoll.
//!
//! [`Poller`] is level-triggered: an event keeps firing while the condition
//! holds, so state machines may do partial work per wakeup without losing
//! readiness. A wait costs O(ready), not O(registered).

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

use crate::sys;

/// Opaque per-registration identity carried back on every event.
///
/// The reactor's consumers usually pack a slab key plus a side discriminator
/// (client fd vs backend fd) into the 64 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub u64);

/// Which readiness directions a registration wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd becomes readable.
    pub read: bool,
    /// Wake when the fd becomes writable.
    pub write: bool,
}

impl Interest {
    /// Read readiness only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Write readiness only.
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };
}

/// One readiness notification.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token supplied at registration.
    pub token: Token,
    /// Readable (includes peer hangup so reads observe EOF).
    pub readable: bool,
    /// Writable (includes error states so blocked writers wake and fail).
    pub writable: bool,
    /// The kernel flagged an error condition on the fd.
    pub is_error: bool,
}

/// Build a poller: a new epoll instance (close-on-exec).
pub fn new_poller() -> io::Result<Poller> {
    Ok(Poller {
        ep: sys::epoll_create()?,
        scratch: Vec::with_capacity(256),
    })
}

fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            // Round up so sub-millisecond deadlines don't degrade into a
            // zero-timeout spin loop.
            let ms = d.as_millis();
            let ms = if d.subsec_nanos() % 1_000_000 != 0 {
                ms + 1
            } else {
                ms
            };
            ms.min(i32::MAX as u128) as i32
        }
    }
}

/// A level-triggered readiness selector over raw file descriptors.
///
/// It owns only its epoll descriptor; callers keep ownership of registered
/// descriptors and must deregister before closing them.
pub struct Poller {
    ep: sys::OwnedFd,
    scratch: Vec<sys::epoll_event>,
}

impl Poller {
    fn mask(interest: Interest) -> u32 {
        let mut m = 0;
        if interest.read {
            // RDHUP rides read interest only: a registration that is not
            // reading (e.g. a client parked while its relay completes) must
            // not wake on the peer's half-close every poll round — a full
            // hangup still reports via EPOLLHUP.
            m |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if interest.write {
            m |= sys::EPOLLOUT;
        }
        m
    }

    /// Start watching `fd` with the given interest.
    pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        sys::epoll_add(&self.ep, fd, Self::mask(interest), token.0)
    }

    /// Replace the interest set (and token) of an already-registered fd.
    pub fn reregister(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        sys::epoll_mod(&self.ep, fd, Self::mask(interest), token.0)
    }

    /// Stop watching `fd`.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        sys::epoll_del(&self.ep, fd)
    }

    /// Block until readiness or timeout; `None` blocks indefinitely.
    /// Clears and refills `events`, returning how many arrived.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        let n = match sys::epoll_wait_into(&self.ep, &mut self.scratch, timeout_ms(timeout)) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in self.scratch.iter().take(n) {
            let bits = ev.events;
            let token = Token(ev.u64);
            let err = bits & sys::EPOLLERR != 0;
            let hup = bits & (sys::EPOLLHUP | sys::EPOLLRDHUP) != 0;
            events.push(Event {
                token,
                readable: bits & sys::EPOLLIN != 0 || hup || err,
                writable: bits & sys::EPOLLOUT != 0 || hup || err,
                is_error: err,
            });
        }
        Ok(events.len())
    }
}
