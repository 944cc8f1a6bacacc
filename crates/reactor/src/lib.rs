//! Readiness-based I/O engine for the CPMS data plane.
//!
//! The paper's Dispatcher gets its throughput from a kernel-level TCP splice;
//! this crate is the user-space analogue's foundation: a zero-dependency
//! reactor that lets a fixed set of worker threads own thousands of
//! connections each instead of parking one thread per connection.
//!
//! Pieces, all safe to use from `#![forbid(unsafe_code)]` crates:
//!
//! - [`Poller`]: level-triggered readiness selection over Linux epoll
//!   (raw syscall bindings), built by [`new_poller`]. The crate is
//!   Linux-only, like the `splice(2)` relay it serves.
//! - [`TimerWheel`]: hashed wheel for per-connection deadlines (idle,
//!   request-head, relay) with O(1) schedule, eager cancellation, and an
//!   exact O(1) answer to "when is the next deadline".
//! - [`Waker`]/[`WakeReceiver`]: pipe-based cross-thread wakeups that
//!   coalesce while a loop is parked in `wait`.
//! - [`Pipe`]: a non-blocking pipe that `splice(2)` fills from one
//!   descriptor and drains into another — the user-space end of the
//!   paper's TCP splice, so relayed bodies never enter user space.
//! - [`Slab`]: generation-checked connection arena so stale poller tokens
//!   can never alias a recycled slot.
//! - [`raise_nofile_limit`]: rlimit bump for 10k-connection benchmarks.
//! - [`net`]: non-blocking connect and deep-backlog listeners, the two
//!   socket-construction moments where `std::net` would stall or shed.
//!
//! The only `unsafe` lives in the private `sys` module, which binds the
//! handful of syscalls (`epoll_*`, `pipe2`, `splice`, `*rlimit`,
//! and the socket family) by hand so the workspace keeps its
//! no-external-dependency invariant.

#![warn(missing_docs)]

mod sys;

mod limits;
pub mod net;
mod pipe;
mod poller;
mod slab;
mod timer;
mod wake;

pub use limits::{current_nofile_limit, raise_nofile_limit};
pub use net::{connect_nonblocking, listen_with_backlog, take_connect_error};
pub use pipe::Pipe;
pub use poller::{new_poller, Event, Interest, Poller, Token};
pub use slab::{Slab, SlabKey};
pub use timer::{TimerId, TimerWheel};
pub use wake::{waker_pair, WakeReceiver, Waker};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{self, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::{Duration, Instant};

    #[test]
    fn pollers_report_accept_readiness() {
        let mut poller = new_poller().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller
            .register(listener.as_raw_fd(), Token(7), Interest::READ)
            .unwrap();

        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "no readiness before a client connects");

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1, "pending connection wakes the poller");
        assert_eq!(events[0].token, Token(7));
        assert!(events[0].readable);
    }

    #[test]
    fn pollers_honor_interest_changes_and_deregister() {
        let mut poller = new_poller().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();

        // A fresh connected socket is writable but not readable.
        poller
            .register(client.as_raw_fd(), Token(1), Interest::BOTH)
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events[0].writable, "connected socket writable");
        assert!(!events[0].readable, "nothing to read yet");

        // Dropping write interest silences it until data arrives.
        poller
            .reregister(client.as_raw_fd(), Token(2), Interest::READ)
            .unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "read-only interest stays quiet");

        (&server).write_all(b"x").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(events[0].token, Token(2), "token updated");
        assert!(events[0].readable);

        poller.deregister(client.as_raw_fd()).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "deregistered fd emits nothing");
    }

    #[test]
    fn pollers_surface_peer_hangup_as_readable() {
        let mut poller = new_poller().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();
        poller
            .register(client.as_raw_fd(), Token(9), Interest::READ)
            .unwrap();
        drop(server);

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(
            events[0].readable,
            "hangup must wake readers so they observe EOF"
        );
        let mut c = client;
        let mut buf = [0u8; 8];
        assert_eq!(c.read(&mut buf).unwrap(), 0, "read sees EOF");
    }

    #[test]
    fn waker_interrupts_a_parked_wait() {
        let mut poller = new_poller().unwrap();
        let (waker, receiver) = waker_pair().unwrap();
        poller
            .register(receiver.fd(), Token(42), Interest::READ)
            .unwrap();

        // Keep `waker` alive locally: dropping the last clone closes the
        // pipe's write end, which reads as a hangup event.
        let remote = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
            remote.wake(); // coalesces with the first
        });
        let mut events = Vec::new();
        let start = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "wake cut the wait short"
        );
        assert_eq!(events[0].token, Token(42));
        handle.join().unwrap();
        receiver.drain();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "drained waker goes quiet");
    }

    #[test]
    fn pipe_splices_bytes_between_sockets_exactly_and_reports_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut origin = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (from, _) = listener.accept().unwrap();
        let to = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut sink, _) = listener.accept().unwrap();
        from.set_nonblocking(true).unwrap();
        to.set_nonblocking(true).unwrap();

        let mut pipe = Pipe::new().unwrap();
        let err = pipe.fill_from(&from, 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock, "nothing sent yet");

        // More than a default pipe holds: a fill answers `WouldBlock` when
        // the socket is dry or the pipe full, and the relay drains then.
        let body: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        let writer = {
            let body = body.clone();
            std::thread::spawn(move || {
                origin.write_all(&body).unwrap();
                origin
            })
        };
        let reader = std::thread::spawn(move || {
            let mut got = vec![0u8; 300_000];
            sink.read_exact(&mut got).unwrap();
            got
        });
        let drain_all = |pipe: &mut Pipe| {
            while !pipe.is_empty() {
                match pipe.drain_into(&to, pipe.len()) {
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("drain failed: {e}"),
                }
            }
        };
        let mut moved = 0;
        let deadline = Instant::now() + Duration::from_secs(10);
        while moved < body.len() {
            assert!(Instant::now() < deadline, "relay stalled at {moved}");
            match pipe.fill_from(&from, body.len() - moved) {
                Ok(n) => {
                    assert!(n > 0, "no EOF before the body ends");
                    moved += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => drain_all(&mut pipe),
                Err(e) => panic!("fill failed: {e}"),
            }
        }
        drain_all(&mut pipe);
        assert_eq!(reader.join().unwrap(), body, "bytes arrive exact");
        drop(writer.join().unwrap());
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match pipe.fill_from(&from, 1024) {
                Ok(0) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    assert!(Instant::now() < deadline, "EOF never surfaced");
                    std::thread::sleep(Duration::from_millis(1));
                }
                other => panic!("expected EOF, got {other:?}"),
            }
        }
        assert!(pipe.is_empty());
    }

    #[test]
    fn timer_wheel_fires_in_deadline_order_and_honors_cancel() {
        let mut wheel = TimerWheel::new(Duration::from_millis(1), 16);
        let now = Instant::now();
        let soon = wheel.schedule_after(now, Duration::from_millis(5));
        let later = wheel.schedule_after(now, Duration::from_millis(40));
        let dropped = wheel.schedule_after(now, Duration::from_millis(5));
        assert!(wheel.cancel(dropped));
        assert!(!wheel.cancel(dropped), "double cancel is a no-op");
        assert_eq!(wheel.pending(), 2);

        let mut fired = Vec::new();
        wheel.expire_into(now + Duration::from_millis(2), &mut fired);
        assert!(fired.is_empty(), "nothing due yet");

        wheel.expire_into(now + Duration::from_millis(10), &mut fired);
        assert_eq!(fired, vec![soon], "only the near deadline fires");

        // The far deadline wrapped past the 16-slot revolution; a sweep at
        // its time still finds it.
        wheel.expire_into(now + Duration::from_millis(60), &mut fired);
        assert_eq!(fired, vec![soon, later]);
        assert_eq!(wheel.pending(), 0);
        assert_eq!(wheel.next_timeout(now + Duration::from_millis(60)), None);
    }

    #[test]
    fn timer_wheel_next_timeout_bounds_the_poll_wait() {
        let mut wheel = TimerWheel::new(Duration::from_millis(1), 64);
        let now = Instant::now();
        wheel.schedule_after(now, Duration::from_millis(25));
        let bound = wheel.next_timeout(now).expect("a timer is live");
        assert!(
            bound <= Duration::from_millis(26),
            "wait bound {bound:?} must not overshoot the deadline"
        );
        // A due timer reports zero so the loop sweeps immediately.
        let late = now + Duration::from_millis(30);
        assert_eq!(wheel.next_timeout(late), Some(Duration::ZERO));
    }

    #[test]
    fn slab_keys_go_stale_on_reuse() {
        let mut slab: Slab<&'static str> = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.get(a), None, "removed key misses");
        let c = slab.insert("c");
        assert_ne!(a, c, "recycled slot gets a new generation");
        assert_eq!(slab.get(a), None, "stale key cannot alias the new value");
        assert_eq!(slab.get(c), Some(&"c"));
        assert_eq!(slab.len(), 2);
        let mut seen: Vec<_> = slab.iter().map(|(_, v)| *v).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec!["b", "c"]);
        assert_eq!(slab.remove(b), Some("b"));
        assert_eq!(slab.remove(c), Some("c"));
        assert!(slab.is_empty());
    }

    #[test]
    fn nofile_limit_is_readable_and_raise_is_monotone() {
        let soft = current_nofile_limit();
        assert!(soft > 0, "soft fd limit must be readable");
        let after = raise_nofile_limit(soft);
        assert!(after >= soft, "raising to the current limit never shrinks");
    }
}
