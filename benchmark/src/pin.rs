//! Confine a run to one CPU.
//!
//! The box the bounds were measured on gives its two vCPUs intermittently:
//! with identical code, the phase of a full sync in which client and server
//! compute at once reads 360 ms or 630 ms minutes apart, and every
//! cross-thread wake-up (write → worker → subscriber) moves with it, while
//! single-threaded phases do not move at all. An unpinned run therefore
//! measures the host's mood. Pinned to one CPU, concurrent phases always
//! serialize and wake-ups never cross CPUs, so a run measures the work on a
//! session's path — the same on a quiet box and a busy one. Event-loop
//! stalls stay visible: a worker that computes inline cannot dispatch its
//! subscriber's pushes whichever CPU it runs on, and a worker that does not
//! is woken past the computing thread by the scheduler.
//!
//! `std` has no affinity API and the build environment no `libc` crate, so
//! the two calls are declared here, the way `pbs_net::poll` declares
//! `poll(2)`.

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pin the calling thread — and every thread it spawns from here on — to
/// the highest-numbered CPU it is allowed to run on (CPU 0 is where a guest
/// keeps its housekeeping: PID 1, the network and vsock interrupts, most
/// timer ticks). Returns that CPU, or `None` (and leaves the thread as it
/// was) where the kernel refuses.
pub fn to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a valid, writable buffer of exactly the size
    // passed; pid 0 addresses the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().rfind(|(_, bits)| **bits != 0)?;
    let cpu = word * 64 + 63 - bits.leading_zeros() as usize;
    let mut only: CpuSet = [0; 16];
    only[word] = 1 << (cpu % 64);
    // SAFETY: `only` is a valid buffer of exactly the size passed, holding
    // one CPU the kernel just reported as allowed.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &only) } == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    #[test]
    fn pins_the_calling_thread_and_its_children() {
        // Run on a thread of its own: the pin must not leak into the other
        // tests' threads.
        std::thread::spawn(|| {
            let cpu = super::to_one_cpu().expect("a CPU to pin to");
            let status = |path: &str| {
                let text = std::fs::read_to_string(path).unwrap();
                let line = text
                    .lines()
                    .find(|l| l.starts_with("Cpus_allowed_list:"))
                    .unwrap();
                line.split_whitespace().nth(1).unwrap().to_string()
            };
            assert_eq!(status("/proc/thread-self/status"), cpu.to_string());
            let child = std::thread::spawn(move || status("/proc/thread-self/status"));
            assert_eq!(child.join().unwrap(), cpu.to_string());
        })
        .join()
        .unwrap();
    }
}
