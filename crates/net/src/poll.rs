//! A minimal, std-only readiness facility: `poll(2)` through a hand-rolled
//! FFI shim, wrapped in the portable [`Poller`] abstraction the event loop
//! is written against.
//!
//! The build environment has no crates.io access, so `libc`/`mio` are out;
//! the shim below declares exactly the one symbol it needs. Level-triggered
//! semantics only — the event loop re-declares interest on every wait, so
//! the poller itself is stateless and a `Vec<PollFd>` rebuilt per call is
//! both correct and cheap at the fan-outs this server targets (the array
//! is reused between calls, so steady-state waits allocate nothing).

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// `struct pollfd` from `<poll.h>`. On every platform this crate builds on
/// (Linux, the BSDs, macOS) the layout is identical: `int fd; short
/// events; short revents;`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

extern "C" {
    /// `nfds_t` is `unsigned long` on every supported target, which is
    /// `usize` for the purposes of this shim.
    fn poll(fds: *mut PollFd, nfds: usize, timeout: i32) -> i32;
}

/// What a registrant wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or at EOF / error).
    pub readable: bool,
    /// Wake when the descriptor is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The descriptor this event is about.
    pub fd: RawFd,
    /// Readable (includes EOF — a read will not block).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error/hangup/invalid: the owner should read to surface the error
    /// and tear the registrant down.
    pub error: bool,
}

/// A level-triggered readiness selector over `poll(2)`.
///
/// Deliberately stateless between waits: callers pass the full interest
/// set every time. That matches level-triggered `poll` exactly and makes
/// the event loop's bookkeeping (sessions come and go per wait) trivial.
#[derive(Debug, Default)]
pub struct Poller {
    /// Reused across waits to avoid steady-state allocation.
    fds: Vec<PollFd>,
}

impl Poller {
    /// A fresh poller.
    pub fn new() -> Self {
        Poller::default()
    }

    /// Wait until at least one of `interests` is ready or `timeout`
    /// elapses (`None` blocks indefinitely). Returns the ready events;
    /// an empty vec means the timeout fired. `EINTR` is retried
    /// internally with the original deadline semantics approximated by
    /// simply re-issuing the wait (deadlines are re-derived by the caller
    /// each loop iteration, so drift does not accumulate).
    pub fn wait(
        &mut self,
        interests: &[(RawFd, Interest)],
        timeout: Option<Duration>,
    ) -> io::Result<Vec<Event>> {
        self.fds.clear();
        for &(fd, interest) in interests {
            let mut events = 0i16;
            if interest.readable {
                events |= POLLIN;
            }
            if interest.writable {
                events |= POLLOUT;
            }
            self.fds.push(PollFd {
                fd,
                events,
                revents: 0,
            });
        }
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(t) => t.as_millis().min(i32::MAX as u128) as i32,
        };
        loop {
            let rc = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len(), timeout_ms) };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            let mut ready = Vec::with_capacity(rc as usize);
            for pfd in &self.fds {
                if pfd.revents == 0 {
                    continue;
                }
                ready.push(Event {
                    fd: pfd.fd,
                    readable: pfd.revents & (POLLIN | POLLHUP | POLLERR) != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    error: pfd.revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
                });
            }
            return Ok(ready);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn timeout_fires_when_nothing_is_ready() {
        let (a, _b) = pair();
        let mut poller = Poller::new();
        let events = poller
            .wait(
                &[(a.as_raw_fd(), Interest::READABLE)],
                Some(Duration::from_millis(20)),
            )
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn readable_after_peer_write_and_at_eof() {
        let (a, mut b) = pair();
        b.write_all(b"x").unwrap();
        let mut poller = Poller::new();
        let events = poller
            .wait(
                &[(a.as_raw_fd(), Interest::READABLE)],
                Some(Duration::from_secs(5)),
            )
            .unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].readable);

        let mut buf = [0u8; 1];
        (&a).read_exact(&mut buf).unwrap();
        drop(b);
        // EOF is a readable event under level-triggered poll.
        let events = poller
            .wait(
                &[(a.as_raw_fd(), Interest::READABLE)],
                Some(Duration::from_secs(5)),
            )
            .unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].readable);
        assert_eq!((&a).read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn writable_is_level_triggered() {
        let (a, _b) = pair();
        let mut poller = Poller::new();
        let events = poller
            .wait(
                &[(
                    a.as_raw_fd(),
                    Interest {
                        readable: true,
                        writable: true,
                    },
                )],
                Some(Duration::from_secs(5)),
            )
            .unwrap();
        assert!(events.iter().any(|e| e.writable));
    }
}
