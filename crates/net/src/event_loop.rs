//! The readiness loop every socket of the service is served on: one
//! thread per worker, a [`crate::poll::Poller`] over its connections, a
//! wake pipe, and nothing that blocks on a connection's socket. It drives
//! any [`Connection`] — a server's accepted ones (`server.rs`), a load
//! harness's dialed ones (`client::Dialer`) — without naming either role:
//! the interest set, the sleep until the earliest timer of any connection
//! (each fires its own, handed `Instant::now()`), the buffered
//! non-blocking framed stream, the frame-reading loop and the reaping are
//! here, once. What a connection's decisions mean beyond their frames, and
//! what else wakes a worker, is its [`Role`]'s.
//!
//! Wakeups use a loopback socket pair per worker (the portable std-only
//! stand-in for a pipe): whoever has news for a worker enqueues a
//! [`Notice`] on its channel and writes one byte to the wake socket, which
//! the loop drains.

use crate::conn::{Connection, Due};
use crate::frame::Frame;
use crate::mux::MuxStream;
use crate::poll::{Interest, Poller};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// One side's half of a worker: what a connection's decisions mean beyond
/// queuing their frames, and what else the worker is woken for.
pub(crate) trait Role: Sized + Send + 'static {
    type Conn: Connection<Out: Send> + Send;
    /// What the role keeps per connection beside it.
    type Tag: Send;
    /// Anything else a worker is woken for.
    type Notice: Send;
    fn notice(&mut self, lp: &mut Loop<Self>, notice: Self::Notice);
    /// Every notice of this wake-up has been taken.
    fn noticed(&mut self, _lp: &mut Loop<Self>) {}
    /// Carry out what connection `i` decided: queue its frames
    /// ([`Loop::queue`]) and whatever else it means, then flush.
    fn carry_out(&mut self, lp: &mut Loop<Self>, i: usize, out: <Self::Conn as Connection>::Out);
    /// Connection `i`'s timer `due` fired.
    fn fired(
        &mut self,
        lp: &mut Loop<Self>,
        i: usize,
        _due: Due,
        out: <Self::Conn as Connection>::Out,
    ) {
        self.carry_out(lp, i, out)
    }
    /// A flush left nothing queued toward this connection.
    fn drained(&mut self, _session: &mut Session<Self>) {}
    /// A connection is over and leaves the loop.
    fn reap(&mut self, session: Session<Self>);
    /// One loop iteration took `busy`, `poll` return to the next `poll`.
    fn busy(&mut self, _busy: Duration) {}
}

/// What a worker can be woken for.
pub(crate) enum Notice<R: Role> {
    /// A connection to serve, with what it owes first.
    Open(Session<R>, <R::Conn as Connection>::Out),
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

/// The handle to a worker: its notice queue and the write end of its wake
/// pipe. Cheap to clone; safe to use from any thread and from inside store
/// notifier callbacks.
pub(crate) struct Link<R: Role> {
    tx: mpsc::Sender<Notice<R>>,
    wake: Arc<TcpStream>,
}

impl<R: Role> Clone for Link<R> {
    fn clone(&self) -> Self {
        let (tx, wake) = (self.tx.clone(), Arc::clone(&self.wake));
        Link { tx, wake }
    }
}

impl<R: Role> Link<R> {
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

/// A connected non-blocking loopback socket pair: the std-only portable
/// stand-in for `pipe(2)`.
fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
    let writer = TcpStream::connect(listener.local_addr()?)?;
    let (reader, _) = listener.accept()?;
    reader.set_nonblocking(true)?;
    writer.set_nonblocking(true)?;
    let _ = writer.set_nodelay(true);
    Ok((reader, writer))
}

/// A worker's connections and the means to wait on them.
pub(crate) struct Loop<R: Role> {
    pub sessions: Vec<Session<R>>,
    rx: mpsc::Receiver<Notice<R>>,
    wake_reader: TcpStream,
    poller: Poller,
}

impl<R: Role> Loop<R> {
    /// A loop with no connections yet, and the link that reaches it.
    pub(crate) fn new() -> io::Result<(Link<R>, Loop<R>)> {
        let (wake_reader, wake) = wake_pair()?;
        let (tx, rx) = mpsc::channel();
        let wake = Arc::new(wake);
        let lp = Loop {
            sessions: Vec::new(),
            rx,
            wake_reader,
            poller: Poller::new(),
        };
        Ok((Link { tx, wake }, lp))
    }

    /// Run `role` over this loop on a thread named `name` until a
    /// [`Notice::Shutdown`] (or the last link gone).
    pub(crate) fn spawn(self, name: String, role: R) -> io::Result<std::thread::JoinHandle<()>> {
        std::thread::Builder::new()
            .name(name)
            .spawn(move || self.run(role))
    }

    fn run(mut self, mut role: R) {
        // When `poll` last returned: the start of the iteration in progress.
        let mut woke: Option<Instant> = None;
        loop {
            if !self.take_notices(&mut role) {
                return self.close_all(&mut role);
            }
            self.reap(&mut role);

            // The wake pipe plus every connection — read interest while
            // its machine is here to take a frame, write interest while it
            // has queued bytes. (One with neither is left out: `poll`
            // reports a hang-up unasked.)
            let mut interests = vec![(self.wake_reader.as_raw_fd(), Interest::READABLE)];
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
            if let Some(woke) = woke {
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
            woke = Some(Instant::now());
            for event in events {
                if event.fd == self.wake_reader.as_raw_fd() {
                    let mut buf = [0u8; 256];
                    while matches!((&self.wake_reader).read(&mut buf), Ok(n) if n > 0) {}
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
                    self.flush(&mut role, i);
                }
                let over = self.sessions[i].conn.outcome().is_some();
                if (event.readable || event.error) && !over {
                    self.read(&mut role, i);
                }
            }
            self.fire_timers(&mut role);
            self.reap(&mut role);
        }
    }

    /// Take every notice queued; `false` once the loop is to shut down.
    fn take_notices(&mut self, role: &mut R) -> bool {
        loop {
            match self.rx.try_recv() {
                Ok(Notice::Open(session, out)) => {
                    self.sessions.push(session);
                    role.carry_out(self, self.sessions.len() - 1, out);
                }
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
        let (link, lp) = Loop::<Idle>::new().unwrap();
        let reader = lp.wake_reader;
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
