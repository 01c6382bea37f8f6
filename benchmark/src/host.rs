//! How fast the host is running *right now*, measured next to every timing
//! the benchmark bounds.
//!
//! The benchmark runs on a few vCPUs of a shared host. A guest's own
//! page-cache writeback (a build's outputs, say) slows its vCPUs for as long
//! as it lasts, and busy neighbours do the same less often: the same
//! instructions then take 1.3–2.4× as long, for tens of seconds, and a
//! wall-clock median moves with the host, not with the program — the first
//! version of this benchmark was refused for it. So a run first flushes what is dirty ([`settle`]), and
//! each bounded timing is taken between two **bursts** of fixed work that
//! belongs to the benchmark, not to the program under test, and is divided
//! by how much slower than on the reference box that work ran. A host-wide
//! slowdown cancels; a change to the program does not, because the program
//! never runs inside a burst.
//!
//! A burst measures two things, because a slow spell does not slow them
//! alike (computation 1.3× and the microsecond-scale socket operations 1.6×,
//! or the other way round):
//!
//! * **compute** — one shot is a fixed instruction stream: four independent
//!   multiply-xorshift chains, each step also updating a pseudo-randomly
//!   chosen word of a 512 KiB table. Integer work with some
//!   instruction-level parallelism and cache-resident memory traffic, like
//!   the hashing and table updates a full sync spends its time in.
//! * **connect** — one shot is one loopback TCP connection to an echo thread
//!   on the same CPU: connect, accept, one byte each way, close. System
//!   calls, socket set-up and tear-down, wake-ups and context switches,
//!   which is what a catch-up sync and a push consist of once the program's
//!   own few microseconds are taken away. (One-byte round trips over an
//!   already open socket pair were tried first: too small a footprint, they
//!   slowed half as much as a connection does.)
//!
//! Each reading is the *median* of the burst's shots, so an interrupt or a
//! preemption inside a burst drops out.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Instant;

/// Table words (512 KiB: inside the L2 cache of the reference box).
const TABLE_WORDS: usize = 1 << 16;
/// Steps of each of the four chains per compute shot.
const STEPS: usize = 8_192;

/// Median shot times on the reference box (`README.md`, *The box*), quiet,
/// pinned: a slowdown of 1.0 means "as fast as there".
const REFERENCE_COMPUTE_NS: f64 = 40_000.0;
const REFERENCE_CONNECT_NS: f64 = 29_000.0;

/// Shots of each kind in a burst next to a long operation (a full sync, a
/// set-up).
pub const LONG_BURST: usize = 48;
/// Shots of each kind in a burst between stretches of write + catch-up
/// pairs.
pub const SHORT_BURST: usize = 24;

/// The byte that tells the echo thread to end.
const STOP: u8 = 0xFF;

extern "C" {
    fn sync();
}

/// Write every dirty page of the guest out and wait for it, so that no
/// writeback — of the build that came before, of the previous run's store —
/// runs under the measurement.
pub fn settle() {
    // SAFETY: `sync(2)` takes no arguments and cannot fail.
    unsafe { sync() }
}

/// How much slower than the reference box the host ran a burst.
#[derive(Debug, Clone, Copy)]
pub struct Slowdown {
    pub compute: f64,
    pub connect: f64,
}

impl Slowdown {
    /// The slowdown over an interval that began with `self` and ended with
    /// `after`.
    pub fn mean(self, after: Slowdown) -> Slowdown {
        Slowdown {
            compute: (self.compute + after.compute) / 2.0,
            connect: (self.connect + after.connect) / 2.0,
        }
    }
}

pub struct HostSpeed {
    table: Vec<u64>,
    echo: SocketAddr,
    echo_thread: Option<std::thread::JoinHandle<()>>,
    /// Every burst, in order.
    pub bursts: Vec<Slowdown>,
}

impl HostSpeed {
    /// Spawns the echo thread, which inherits the caller's CPU affinity.
    pub fn new() -> std::io::Result<HostSpeed> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let echo = listener.local_addr()?;
        let echo_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                let mut byte = [0u8; 1];
                if !matches!(stream.read(&mut byte), Ok(1)) || byte[0] == STOP {
                    break;
                }
                let _ = stream.write_all(&byte);
            }
        });
        let mut host = HostSpeed {
            table: vec![0; TABLE_WORDS],
            echo,
            echo_thread: Some(echo_thread),
            bursts: Vec::new(),
        };
        // Fault the table in and warm the caches; not recorded.
        host.burst(8);
        host.bursts.clear();
        Ok(host)
    }

    fn compute_shot_ns(&mut self) -> f64 {
        let clock = Instant::now();
        let mut lanes: [u64; 4] = [
            0x9E37_79B9_7F4A_7C15,
            0xBF58_476D_1CE4_E5B9,
            0x94D0_49BB_1331_11EB,
            0xD6E8_FEB8_6659_FD93,
        ];
        for _ in 0..STEPS {
            for x in &mut lanes {
                *x ^= *x >> 29;
                *x = x.wrapping_mul(0xA24B_AED4_963E_E407);
                *x ^= *x >> 32;
                let slot = &mut self.table[(*x >> 40) as usize % TABLE_WORDS];
                *slot = slot.wrapping_add(*x);
            }
        }
        std::hint::black_box(&mut self.table);
        clock.elapsed().as_nanos() as f64
    }

    fn connect_shot_ns(&self) -> f64 {
        let clock = Instant::now();
        // The echo thread lives as long as `self`; were it gone, the shot
        // would read as an absurd speed-up, not as a wrong result.
        if let Ok(mut stream) = TcpStream::connect(self.echo) {
            let mut byte = [1u8; 1];
            let _ = stream.write_all(&byte);
            let _ = stream.read_exact(&mut byte);
        }
        clock.elapsed().as_nanos() as f64
    }

    /// Run `shots` shots of each kind; the slowdown against the reference
    /// box.
    pub fn burst(&mut self, shots: usize) -> Slowdown {
        let median = |mut ns: Vec<f64>| {
            ns.sort_by(|a, b| a.total_cmp(b));
            ns[ns.len() / 2]
        };
        let compute = median((0..shots).map(|_| self.compute_shot_ns()).collect());
        let connect = median((0..shots).map(|_| self.connect_shot_ns()).collect());
        let slowdown = Slowdown {
            compute: compute / REFERENCE_COMPUTE_NS,
            connect: connect / REFERENCE_CONNECT_NS,
        };
        self.bursts.push(slowdown);
        slowdown
    }
}

impl Drop for HostSpeed {
    fn drop(&mut self) {
        let stopped = TcpStream::connect(self.echo)
            .and_then(|mut stream| stream.write_all(&[STOP]))
            .is_ok();
        // An echo thread that could not be told to stop is left to end with
        // the process instead of being waited for forever.
        if let (true, Some(thread)) = (stopped, self.echo_thread.take()) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_reads_positive_slowdowns_and_is_recorded() {
        let mut host = HostSpeed::new().expect("echo listener");
        let slowdown = host.burst(8);
        assert!(slowdown.compute.is_finite() && slowdown.compute > 0.0);
        assert!(slowdown.connect.is_finite() && slowdown.connect > 0.0);
        assert_eq!(host.bursts.len(), 1);
    }
}
