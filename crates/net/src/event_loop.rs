//! The readiness loop every socket of the service is served on: a
//! [`crate::poll::Poller`] over its connections and nothing that blocks on
//! a connection's socket. It runs on a worker thread ([`Loop::spawn`]) —
//! a server's, over its accepted connections (`server.rs`), or a
//! `client::Dialer`'s, over a load harness's dialed ones — or on the
//! caller's thread of a blocking client call, over its one connection
//! ([`Loop::turn`]). It drives any [`Connection`] without naming either
//! role: the interest set, the sleep until the earliest timer of any
//! connection (each fires its own, handed `Instant::now()`), the buffered
//! non-blocking framed stream, the frame-reading loop and the reaping are
//! here, once. What a connection's decisions mean beyond their frames, and
//! what else wakes a worker, is its [`Role`]'s.
//!
//! A spawned worker alone is woken from outside: whoever has news for it
//! enqueues a [`Notice`] on its channel and writes one byte to its wake
//! pipe (a Unix socket pair), which the loop drains.

use crate::conn::{Connection, Due};
use crate::frame::Frame;
use crate::mux::MuxStream;
use crate::poll::{Interest, Poller};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One side's half of a loop: what a connection's decisions mean beyond
/// queuing their frames, and what else a worker is woken for.
pub(crate) trait Role: Sized {
    type Conn: Connection;
    /// What the role keeps per connection beside it.
    type Tag;
    /// Anything else a worker is woken for.
    type Notice;
    fn notice(&mut self, lp: &mut Loop<Self>, notice: Self::Notice);
    /// Every notice of this wake-up has been taken.
    fn noticed(&mut self, _lp: &mut Loop<Self>) {}
    /// Carry out what connection `i` decided: queue its frames
    /// ([`Loop::queue`]) and whatever else it means, then flush.
    fn carry_out(&mut self, lp: &mut Loop<Self>, i: usize, out: OutOf<Self>);
    /// Connection `i`'s timer `due` fired.
    fn fired(&mut self, lp: &mut Loop<Self>, i: usize, _due: Due, out: OutOf<Self>) {
        self.carry_out(lp, i, out)
    }
    /// A flush left nothing queued toward this connection.
    fn drained(&mut self, _session: &mut Session<Self>) {}
    /// A connection is over and leaves the loop.
    fn reap(&mut self, session: Session<Self>);
    /// One loop iteration took `busy`, `poll` return to the next `poll`.
    fn busy(&mut self, _busy: Duration) {}
}

/// What a role's connection decides.
pub(crate) type OutOf<R> = <<R as Role>::Conn as Connection>::Out;

/// What a worker can be woken for.
pub(crate) enum Notice<R: Role> {
    /// A connection to serve, with what it owes first.
    Open(Session<R>, OutOf<R>),
    Role(R::Notice),
    /// Close every connection and exit.
    Shutdown,
}

/// One connection: its stream, its [`Connection`], the role's tag.
pub(crate) struct Session<R: Role> {
    pub nb: MuxStream,
    fd: RawFd,
    pub conn: R::Conn,
    pub tag: R::Tag,
}

impl<R: Role> Session<R> {
    /// Serve `stream`, made [`nonblocking`], frames capped at `max_frame`.
    pub(crate) fn new(stream: TcpStream, max_frame: u32, conn: R::Conn, tag: R::Tag) -> Self {
        Session {
            fd: stream.as_raw_fd(),
            nb: MuxStream::new(stream, max_frame),
            conn,
            tag,
        }
    }
}

/// Make `stream` fit for a loop: non-blocking, and with `TCP_NODELAY` —
/// the protocol is request/response with small frames, the worst case
/// for Nagle's algorithm against delayed ACKs.
pub(crate) fn nonblocking(stream: &TcpStream) -> io::Result<()> {
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)
}

/// The handle to a spawned worker: its notice queue and the write end of
/// its wake pipe. Cheap to clone; safe to use from any thread and from
/// inside store notifier callbacks.
pub(crate) struct Link<R: Role> {
    tx: mpsc::Sender<Notice<R>>,
    wake: Arc<UnixStream>,
}

impl<R: Role> Clone for Link<R> {
    fn clone(&self) -> Self {
        let (tx, wake) = (self.tx.clone(), Arc::clone(&self.wake));
        Link { tx, wake }
    }
}

impl<R: Role> Link<R> {
    /// A worker's link, and the inbox it reaches ([`Loop::spawn`]).
    pub(crate) fn new() -> io::Result<(Link<R>, Inbox<R>)> {
        let (wake_reader, wake) = UnixStream::pair()?;
        wake_reader.set_nonblocking(true)?;
        wake.set_nonblocking(true)?;
        let (tx, rx) = mpsc::channel();
        let wake = Arc::new(wake);
        Ok((Link { tx, wake }, Inbox { rx, wake_reader }))
    }

    /// Queue `notice` and wake the worker; `false` once it is gone. (A
    /// full pipe means a wake is already pending: `WouldBlock` is
    /// success.)
    pub(crate) fn send(&self, notice: Notice<R>) -> bool {
        let sent = self.tx.send(notice).is_ok();
        if sent {
            let _ = (&*self.wake).write(&[1u8]);
        }
        sent
    }
}

/// What wakes a spawned worker: its notice queue and the read end of its
/// wake pipe.
pub(crate) struct Inbox<R: Role> {
    rx: mpsc::Receiver<Notice<R>>,
    wake_reader: UnixStream,
}

/// A loop's connections and the means to wait on them.
pub(crate) struct Loop<R: Role> {
    pub sessions: Vec<Session<R>>,
    poller: Poller,
    /// When `poll` last returned: the start of the iteration in progress.
    woke: Option<Instant>,
}

impl<R: Role> Loop<R> {
    /// A loop with no connections yet.
    pub(crate) fn new() -> Loop<R> {
        Loop {
            sessions: Vec::new(),
            poller: Poller::new(),
            woke: None,
        }
    }

    /// Run `role` over a loop of its own on a thread named `name`, woken
    /// through `inbox`, until a [`Notice::Shutdown`] (or the last link
    /// gone).
    pub(crate) fn spawn(inbox: Inbox<R>, name: String, role: R) -> io::Result<JoinHandle<()>>
    where
        R: Send + 'static,
        Notice<R>: Send,
    {
        std::thread::Builder::new()
            .name(name)
            .spawn(move || Loop::new().run(inbox, role))
    }

    fn run(mut self, inbox: Inbox<R>, mut role: R) {
        while self.take_notices(&inbox.rx, &mut role) {
            self.turn(&mut role, Some(&inbox.wake_reader));
        }
        self.close_all(&mut role)
    }

    /// Serve `session`, carrying out what it owes first.
    pub(crate) fn open(&mut self, role: &mut R, session: Session<R>, out: OutOf<R>) {
        self.sessions.push(session);
        role.carry_out(self, self.sessions.len() - 1, out);
    }

    /// One iteration: reap the connections that are over, wait until a
    /// socket is ready (`wake` too, drained then) or the earliest timer
    /// comes due, serve what is ready, and fire what came due. Without
    /// connections or a `wake`, nothing is waited for.
    pub(crate) fn turn(&mut self, role: &mut R, wake: Option<&UnixStream>) {
        self.reap(role);
        if self.sessions.is_empty() && wake.is_none() {
            return;
        }
        // The wake pipe plus every connection — read interest while its
        // machine is here to take a frame, write interest while it has
        // queued bytes. (One with neither is left out: `poll` reports a
        // hang-up unasked.)
        let wake_fd = wake.map(|w| w.as_raw_fd());
        let mut interests = Vec::from_iter(wake_fd.map(|fd| (fd, Interest::READABLE)));
        for sess in &self.sessions {
            let interest = Interest {
                readable: sess.conn.here(),
                writable: sess.nb.pending_out() > 0,
            };
            if interest.readable || interest.writable {
                interests.push((sess.fd, interest));
            }
        }
        let now = Instant::now();
        if let Some(woke) = self.woke {
            role.busy(now - woke);
        }
        let due = self.sessions.iter();
        let due = due.filter_map(|s| s.conn.next_timer(s.nb.pending_out()));
        let timeout = due
            .min()
            .map(|due| due.saturating_duration_since(now) + Duration::from_millis(1));
        let events = match self.poller.wait(&interests, timeout) {
            Ok(events) => events,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(5));
                Vec::new()
            }
        };
        self.woke = Some(Instant::now());
        for event in events {
            if let Some(mut wake) = wake.filter(|_| Some(event.fd) == wake_fd) {
                let mut buf = [0u8; 256];
                while matches!(wake.read(&mut buf), Ok(n) if n > 0) {}
                continue;
            }
            let Some(i) = self.sessions.iter().position(|s| s.fd == event.fd) else {
                continue;
            };
            if self.sessions[i].conn.outcome().is_some() {
                continue;
            }
            // An error on a connection not reading surfaces in its flush.
            let out = !self.sessions[i].conn.here();
            if event.writable || (out && event.error) {
                self.flush(role, i);
            }
            let over = self.sessions[i].conn.outcome().is_some();
            if (event.readable || event.error) && !over {
                self.read(role, i);
            }
        }
        self.fire_timers(role);
    }

    /// Take every notice queued; `false` once the loop is to shut down.
    fn take_notices(&mut self, rx: &mpsc::Receiver<Notice<R>>, role: &mut R) -> bool {
        loop {
            match rx.try_recv() {
                Ok(Notice::Open(session, out)) => self.open(role, session, out),
                Ok(Notice::Role(notice)) => role.notice(self, notice),
                // Connections are never sent after Shutdown, so anything
                // still queued was already taken above.
                Ok(Notice::Shutdown) | Err(mpsc::TryRecvError::Disconnected) => return false,
                Err(mpsc::TryRecvError::Empty) => {
                    role.noticed(self);
                    return true;
                }
            }
        }
    }

    /// Have every connection fire the first of its timers that has come
    /// due.
    fn fire_timers(&mut self, role: &mut R) {
        let now = Instant::now();
        for i in 0..self.sessions.len() {
            let sess = &mut self.sessions[i];
            if let Some((due, out)) = sess.conn.on_timer(now, sess.nb.pending_out()) {
                role.fired(self, i, due, out);
            }
        }
    }

    /// Queue `frames` toward connection `i`; one that cannot be encoded
    /// ends it (as a cut). `false` then.
    pub(crate) fn queue(&mut self, i: usize, frames: &[Frame]) -> bool {
        let sess = &mut self.sessions[i];
        let queued = frames.iter().all(|frame| sess.nb.queue(frame).is_ok());
        if !queued {
            sess.conn.cut();
        }
        queued
    }

    /// Write what connection `i` has queued, as far as its socket takes it.
    pub(crate) fn flush(&mut self, role: &mut R, i: usize) {
        let sess = &mut self.sessions[i];
        match sess.nb.flush() {
            Ok(moved) => {
                let pending = sess.nb.pending_out();
                if pending == 0 {
                    role.drained(sess);
                }
                sess.conn.flushed(Instant::now(), moved, pending);
            }
            Err(_) => sess.conn.cut(),
        }
    }

    /// Read what connection `i`'s socket has and take every whole frame,
    /// in order — nothing at all while its machine is not here: what
    /// arrives then waits in the socket until the role reads again.
    pub(crate) fn read(&mut self, role: &mut R, i: usize) {
        let sess = &mut self.sessions[i];
        if !sess.conn.here() {
            return;
        }
        if sess.nb.fill().is_err() {
            return sess.conn.cut();
        }
        loop {
            let sess = &mut self.sessions[i];
            // Over, or parked by the frame just handled: the frames behind
            // it stay buffered.
            if sess.conn.outcome().is_some() || !sess.conn.here() {
                return;
            }
            let out = match sess.nb.next_frame() {
                Ok(Some(frame)) => sess.conn.on_frame(frame, Instant::now()),
                Ok(None) => break,
                // The bad bytes stay at the head of the buffer: met again
                // while a refusal drains, they end the session.
                Err(e) => sess.conn.on_bad_frame(e, Instant::now()),
            };
            role.carry_out(self, i, out);
            self.sessions[i].conn.listen(Instant::now());
        }
        let sess = &mut self.sessions[i];
        let pending = sess.nb.pending_out();
        if sess.nb.peer_closed() {
            // The peer may have only shut its write half: what is queued
            // drains first.
            sess.conn.hang_up(Instant::now(), pending);
        } else if sess.conn.outcome().is_none() && pending > 0 {
            // Opportunistic flush: most replies fit the socket buffer and
            // complete without waiting for a writability event.
            self.flush(role, i);
        }
    }

    /// Hand every connection that is over to the role, and drop it.
    fn reap(&mut self, role: &mut R) {
        let mut i = 0;
        while i < self.sessions.len() {
            match self.sessions[i].conn.outcome() {
                Some(_) => role.reap(self.sessions.remove(i)),
                None => i += 1,
            }
        }
    }

    /// Shutdown: give every connection one last flush, then cut it.
    fn close_all(&mut self, role: &mut R) {
        for sess in &mut self.sessions {
            let _ = sess.nb.flush();
            sess.conn.cut();
        }
        self.reap(role);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nothing wakes it but the wake pipe.
    struct Idle;

    impl Role for Idle {
        type Conn = crate::conn::ClientConn<'static>;
        type Tag = ();
        type Notice = ();
        fn notice(&mut self, _lp: &mut Loop<Idle>, _notice: ()) {}
        fn carry_out(&mut self, _lp: &mut Loop<Idle>, _i: usize, _out: crate::conn::ClientOut) {}
        fn reap(&mut self, _session: Session<Idle>) {}
    }

    #[test]
    fn wake_pair_round_trips_a_byte_and_tolerates_flooding() {
        let (link, inbox) = Link::<Idle>::new().unwrap();
        let reader = inbox.wake_reader;
        // Flood far past any socket buffer: must never block or panic.
        for _ in 0..100_000 {
            link.send(Notice::Role(()));
        }
        let mut buf = [0u8; 4096];
        let mut drained = 0usize;
        while let Ok(n) = (&reader).read(&mut buf) {
            if n == 0 {
                break;
            }
            drained += n;
        }
        assert!(drained > 0, "at least one wake byte must arrive");
    }
}
