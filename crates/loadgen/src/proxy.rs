//! Fault-injection TCP proxy: a std-only relay the harness places on a
//! link to inject partitions, delays, and mid-stream cuts — with an
//! exact per-direction byte ledger.
//!
//! Every byte the proxy reads is accounted into exactly one of
//! `forwarded` or `discarded` per direction, so
//! `received == forwarded + discarded` holds at every quiescent point —
//! the conservation invariant `tests/mesh_soak.rs` asserts on every link,
//! and on a fault-free link `forwarded` reconciles exactly against the
//! endpoints' own wire ledgers ([`pbs_net::client::SyncReport`] /
//! [`crate::MeshStats`-style counters]).
//!
//! The upstream address is mutable ([`FaultProxy::set_upstream`]), which
//! is how kill/restart churn is modeled: the restarted server binds a
//! fresh port and the proxy is repointed, while the proxy's own listen
//! address — the address peers dial — never changes.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Read timeout of the relay loops: the latency bound on a partition
/// severing a live connection.
const RELAY_TICK: Duration = Duration::from_millis(25);

/// Per-direction and per-connection counters. All cumulative.
#[derive(Debug, Default)]
struct Counters {
    received_up: AtomicU64,
    forwarded_up: AtomicU64,
    discarded_up: AtomicU64,
    received_down: AtomicU64,
    forwarded_down: AtomicU64,
    discarded_down: AtomicU64,
    accepted: AtomicU64,
    refused: AtomicU64,
    cut: AtomicU64,
}

/// A frozen copy of the proxy's ledger. `up` is client→server,
/// `down` is server→client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerSnapshot {
    /// Bytes read from clients.
    pub received_up: u64,
    /// Bytes delivered to the server.
    pub forwarded_up: u64,
    /// Bytes read from clients but never delivered (partition/cut).
    pub discarded_up: u64,
    /// Bytes read from the server.
    pub received_down: u64,
    /// Bytes delivered to clients.
    pub forwarded_down: u64,
    /// Bytes read from the server but never delivered.
    pub discarded_down: u64,
    /// Connections relayed.
    pub accepted: u64,
    /// Connections refused (partition, dead upstream).
    pub refused: u64,
    /// Connections severed mid-stream by a cut rule.
    pub cut: u64,
}

impl LedgerSnapshot {
    /// The conservation invariant: every received byte is forwarded or
    /// discarded, in both directions.
    pub fn conserved(&self) -> bool {
        self.received_up == self.forwarded_up + self.discarded_up
            && self.received_down == self.forwarded_down + self.discarded_down
    }
}

#[derive(Debug)]
struct Controls {
    upstream: Mutex<SocketAddr>,
    partitioned: AtomicBool,
    delay_micros: AtomicU64,
    /// Connections still to be cut mid-stream.
    cuts_remaining: AtomicU64,
    /// Upstream-direction byte budget a cut connection gets.
    cut_after_bytes: AtomicU64,
    shutdown: AtomicBool,
    counters: Counters,
}

/// A running fault proxy. Dropping the handle shuts it down.
#[derive(Debug)]
pub struct FaultProxy {
    addr: SocketAddr,
    controls: Arc<Controls>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Listen on an ephemeral loopback port, relaying to `upstream`.
    pub fn spawn(upstream: SocketAddr) -> io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let controls = Arc::new(Controls {
            upstream: Mutex::new(upstream),
            partitioned: AtomicBool::new(false),
            delay_micros: AtomicU64::new(0),
            cuts_remaining: AtomicU64::new(0),
            cut_after_bytes: AtomicU64::new(u64::MAX),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
        });
        let thread_controls = Arc::clone(&controls);
        let accept_thread = std::thread::Builder::new()
            .name(format!("fault-proxy-{}", addr.port()))
            .spawn(move || accept_loop(listener, thread_controls))?;
        Ok(FaultProxy {
            addr,
            controls,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address peers dial (stable for the proxy's lifetime).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Repoint the relay (kill/restart churn: the reborn server has a new
    /// port). Existing connections are unaffected.
    pub fn set_upstream(&self, upstream: SocketAddr) {
        *self.controls.upstream.lock().unwrap() = upstream;
    }

    /// Sever the link: live connections are cut (their unread bytes
    /// discarded) and new ones refused, until [`FaultProxy::heal`].
    pub fn partition(&self) {
        self.controls.partitioned.store(true, Ordering::SeqCst);
    }

    /// Lift a partition.
    pub fn heal(&self) {
        self.controls.partitioned.store(false, Ordering::SeqCst);
    }

    /// Delay every forwarded chunk by `delay` (per chunk, per direction).
    pub fn set_delay(&self, delay: Duration) {
        self.controls.delay_micros.store(
            delay.as_micros().min(u64::MAX as u128) as u64,
            Ordering::SeqCst,
        );
    }

    /// Cut the next `n` relayed connections once `after_bytes` have
    /// flowed client→server — the mid-session churn primitive (a server
    /// killed between handshake and rounds looks exactly like this to the
    /// client).
    pub fn cut_next_connections(&self, n: u64, after_bytes: u64) {
        self.controls
            .cut_after_bytes
            .store(after_bytes, Ordering::SeqCst);
        self.controls.cuts_remaining.store(n, Ordering::SeqCst);
    }

    /// Freeze the ledger.
    pub fn ledger(&self) -> LedgerSnapshot {
        let c = &self.controls.counters;
        LedgerSnapshot {
            received_up: c.received_up.load(Ordering::SeqCst),
            forwarded_up: c.forwarded_up.load(Ordering::SeqCst),
            discarded_up: c.discarded_up.load(Ordering::SeqCst),
            received_down: c.received_down.load(Ordering::SeqCst),
            forwarded_down: c.forwarded_down.load(Ordering::SeqCst),
            discarded_down: c.discarded_down.load(Ordering::SeqCst),
            accepted: c.accepted.load(Ordering::SeqCst),
            refused: c.refused.load(Ordering::SeqCst),
            cut: c.cut.load(Ordering::SeqCst),
        }
    }

    /// Stop accepting and tear the proxy down. Live relays notice within
    /// a tick.
    pub fn shutdown(&self) {
        self.controls.shutdown.store(true, Ordering::SeqCst);
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

fn accept_loop(listener: TcpListener, controls: Arc<Controls>) {
    loop {
        if controls.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((client, _)) => handle_connection(client, &controls),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(RELAY_TICK);
            }
            Err(_) => std::thread::sleep(RELAY_TICK),
        }
    }
}

fn handle_connection(client: TcpStream, controls: &Arc<Controls>) {
    if controls.partitioned.load(Ordering::SeqCst) {
        controls.counters.refused.fetch_add(1, Ordering::SeqCst);
        let _ = client.shutdown(Shutdown::Both);
        return;
    }
    let upstream_addr = *controls.upstream.lock().unwrap();
    let Ok(server) = TcpStream::connect(upstream_addr) else {
        controls.counters.refused.fetch_add(1, Ordering::SeqCst);
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    controls.counters.accepted.fetch_add(1, Ordering::SeqCst);

    // Does a cut rule claim this connection?
    let cut_budget = loop {
        let remaining = controls.cuts_remaining.load(Ordering::SeqCst);
        if remaining == 0 {
            break None;
        }
        if controls
            .cuts_remaining
            .compare_exchange(remaining, remaining - 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            break Some(Arc::new(AtomicU64::new(
                controls.cut_after_bytes.load(Ordering::SeqCst),
            )));
        }
    };
    if cut_budget.is_some() {
        controls.counters.cut.fetch_add(1, Ordering::SeqCst);
    }

    let _ = client.set_read_timeout(Some(RELAY_TICK));
    let _ = server.set_read_timeout(Some(RELAY_TICK));
    let (client_r, server_w) = (client.try_clone(), server.try_clone());
    let (Ok(client_r), Ok(server_w)) = (client_r, server_w) else {
        return;
    };

    let up_controls = Arc::clone(controls);
    let up_budget = cut_budget.clone();
    std::thread::spawn(move || {
        relay(client_r, server_w, up_controls, Direction::Up, up_budget);
    });
    let down_controls = Arc::clone(controls);
    std::thread::spawn(move || {
        relay(server, client, down_controls, Direction::Down, cut_budget);
    });
}

#[derive(Clone, Copy)]
enum Direction {
    Up,
    Down,
}

fn relay(
    mut from: TcpStream,
    mut to: TcpStream,
    controls: Arc<Controls>,
    direction: Direction,
    cut_budget: Option<Arc<AtomicU64>>,
) {
    let counters = &controls.counters;
    let (received, forwarded, discarded) = match direction {
        Direction::Up => (
            &counters.received_up,
            &counters.forwarded_up,
            &counters.discarded_up,
        ),
        Direction::Down => (
            &counters.received_down,
            &counters.forwarded_down,
            &counters.discarded_down,
        ),
    };
    let mut chunk = [0u8; 16 * 1024];
    let sever = |from: &TcpStream, to: &TcpStream| {
        let _ = from.shutdown(Shutdown::Both);
        let _ = to.shutdown(Shutdown::Both);
    };
    loop {
        if controls.shutdown.load(Ordering::SeqCst) {
            sever(&from, &to);
            return;
        }
        let n = match from.read(&mut chunk) {
            Ok(0) => {
                // Half-close: propagate the write-side shutdown so framed
                // EOF semantics survive the relay.
                let _ = to.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle tick: a partition severs even a silent connection.
                if controls.partitioned.load(Ordering::SeqCst) {
                    sever(&from, &to);
                    return;
                }
                continue;
            }
            Err(_) => {
                sever(&from, &to);
                return;
            }
        };
        received.fetch_add(n as u64, Ordering::SeqCst);
        if controls.partitioned.load(Ordering::SeqCst) {
            discarded.fetch_add(n as u64, Ordering::SeqCst);
            sever(&from, &to);
            return;
        }
        // Cut rule: forward only what the shared budget allows, discard
        // the rest, and sever. The budget is shared across directions but
        // only decremented upstream — "the server died after seeing this
        // many request bytes".
        let mut deliver = n;
        if let Some(budget) = &cut_budget {
            if matches!(direction, Direction::Up) {
                // Only this thread decrements the budget; the down-stream
                // thread just watches for it reaching zero.
                let before = budget.load(Ordering::SeqCst);
                budget.store(before.saturating_sub(n as u64), Ordering::SeqCst);
                if before <= n as u64 {
                    // Budget exhausted by this chunk.
                    deliver = before as usize;
                    if deliver > 0 {
                        let delay = controls.delay_micros.load(Ordering::SeqCst);
                        if delay > 0 {
                            std::thread::sleep(Duration::from_micros(delay));
                        }
                        if to.write_all(&chunk[..deliver]).is_ok() {
                            forwarded.fetch_add(deliver as u64, Ordering::SeqCst);
                        } else {
                            discarded.fetch_add(deliver as u64, Ordering::SeqCst);
                        }
                    }
                    discarded.fetch_add((n - deliver) as u64, Ordering::SeqCst);
                    sever(&from, &to);
                    return;
                }
            } else if budget.load(Ordering::SeqCst) == 0 {
                discarded.fetch_add(n as u64, Ordering::SeqCst);
                sever(&from, &to);
                return;
            }
        }
        let delay = controls.delay_micros.load(Ordering::SeqCst);
        if delay > 0 {
            std::thread::sleep(Duration::from_micros(delay));
        }
        if to.write_all(&chunk[..deliver]).is_ok() {
            forwarded.fetch_add(deliver as u64, Ordering::SeqCst);
        } else {
            discarded.fetch_add(deliver as u64, Ordering::SeqCst);
            sever(&from, &to);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A byte-echo upstream.
    fn echo_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            while let Ok((mut stream, _)) = listener.accept() {
                std::thread::spawn(move || {
                    let mut buf = [0u8; 4096];
                    while let Ok(n) = stream.read(&mut buf) {
                        if n == 0 || stream.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        (addr, handle)
    }

    #[test]
    fn relays_bytes_and_keeps_the_ledger_exact() {
        let (upstream, _guard) = echo_server();
        let proxy = FaultProxy::spawn(upstream).unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        let payload = vec![0xABu8; 100_000];
        conn.write_all(&payload).unwrap();
        let mut back = vec![0u8; payload.len()];
        conn.read_exact(&mut back).unwrap();
        assert_eq!(back, payload);
        drop(conn);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let ledger = proxy.ledger();
            if ledger.forwarded_up == payload.len() as u64
                && ledger.forwarded_down == payload.len() as u64
            {
                assert!(ledger.conserved(), "{ledger:?}");
                assert_eq!(ledger.accepted, 1);
                assert_eq!(ledger.discarded_up + ledger.discarded_down, 0);
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "ledger never settled: {ledger:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn partition_refuses_and_heal_restores() {
        let (upstream, _guard) = echo_server();
        let proxy = FaultProxy::spawn(upstream).unwrap();
        proxy.partition();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // The accept side closes immediately: first read sees EOF/reset.
        let mut buf = [0u8; 8];
        assert!(matches!(conn.read(&mut buf), Ok(0) | Err(_)));
        proxy.heal();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        conn.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        // Each relay direction books a chunk as forwarded *after* writing
        // it, so the echo can reach us a moment before the ledger shows it.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while proxy.ledger().forwarded_up + proxy.ledger().forwarded_down < 8 {
            assert!(std::time::Instant::now() < deadline, "ledger never settled");
            std::thread::sleep(Duration::from_millis(1));
        }
        let ledger = proxy.ledger();
        assert!(ledger.conserved(), "{ledger:?}");
        assert_eq!(ledger.refused, 1);
    }

    #[test]
    fn cut_rule_severs_after_the_budget() {
        let (upstream, _guard) = echo_server();
        let proxy = FaultProxy::spawn(upstream).unwrap();
        proxy.cut_next_connections(1, 10);
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // More than the budget: the connection must die without
        // delivering it all.
        let _ = conn.write_all(&[0u8; 1000]);
        let mut total = 0usize;
        let mut buf = [0u8; 256];
        loop {
            match conn.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => total += n,
            }
        }
        assert!(total <= 10, "echoed {total} bytes past a 10-byte budget");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let ledger = proxy.ledger();
            if ledger.cut == 1 && ledger.conserved() && ledger.forwarded_up <= 10 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "cut never settled: {ledger:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // The next connection is untouched.
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.write_all(b"pong").unwrap();
        let mut buf = [0u8; 4];
        conn.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }
}
