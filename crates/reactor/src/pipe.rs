//! Kernel-side byte relays: a pipe that `splice(2)` fills from one
//! descriptor and drains into another, so relayed bytes never enter user
//! space.
//!
//! The pipe is non-blocking at both ends and keeps the kernel's default
//! capacity. It counts the bytes it holds, so its owner can tell an empty
//! pipe (safe to reuse for anyone) from one still owed to a reader.

use std::io;
use std::os::fd::{AsFd, AsRawFd};

use crate::sys;

/// A non-blocking pipe pair that moves bytes between descriptors with
/// `splice(2)`.
#[derive(Debug)]
pub struct Pipe {
    read: sys::OwnedFd,
    write: sys::OwnedFd,
    held: usize,
}

impl Pipe {
    /// Opens an empty pipe.
    ///
    /// # Errors
    ///
    /// `pipe2` failures, typically descriptor exhaustion.
    pub fn new() -> io::Result<Pipe> {
        let (read, write) = sys::nonblocking_pipe()?;
        Ok(Pipe {
            read,
            write,
            held: 0,
        })
    }

    /// Moves up to `len` bytes from `src` into the pipe. `Ok(0)` with
    /// `len > 0` means `src` reached end of file.
    ///
    /// # Errors
    ///
    /// `WouldBlock` when `src` has nothing to read *or* the pipe is full —
    /// the two are indistinguishable, so callers fill only a pipe they
    /// have drained. Other errors are `src`'s.
    pub fn fill_from(&mut self, src: &impl AsFd, len: usize) -> io::Result<usize> {
        let n = sys::splice_fds(src.as_fd().as_raw_fd(), self.write.raw(), len)?;
        self.held += n;
        Ok(n)
    }

    /// Moves up to `len` of the held bytes into `dst`. Unlike `std`'s
    /// socket writes, a drain into a reset socket raises `SIGPIPE`, which
    /// Rust programs ignore from start-up; the error is then `EPIPE`.
    ///
    /// # Errors
    ///
    /// `WouldBlock` when `dst` cannot take more now; other errors are
    /// `dst`'s.
    pub fn drain_into(&mut self, dst: &impl AsFd, len: usize) -> io::Result<usize> {
        let n = sys::splice_fds(self.read.raw(), dst.as_fd().as_raw_fd(), len.min(self.held))?;
        self.held -= n;
        Ok(n)
    }

    /// Bytes filled and not yet drained.
    pub fn len(&self) -> usize {
        self.held
    }

    /// True when every filled byte has been drained.
    pub fn is_empty(&self) -> bool {
        self.held == 0
    }
}
