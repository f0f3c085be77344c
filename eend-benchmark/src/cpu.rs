//! The clock every end-to-end timing reads, the process's CPU time, and
//! the one CPU the benchmark runs on.
//!
//! On a shared virtual machine the host takes the benchmark's virtual
//! CPUs away for stretches (steal time). While a CPU is away the wall
//! clock runs on but no thread of the process runs, so wall-clock timings
//! measured the host: over twenty minutes the wall-clock op rate of every
//! workload fell by a third to two thirds, while the CPU time of a fixed
//! piece of work stayed within a few per cent. The process CPU clock
//! counts every thread of the process (the `serve` daemon's included)
//! and leaves stolen time out.
//! With one worker (W = 1) an op is the only work in the process while it
//! runs, so the clock's advance over the op is the op's cost.
//!
//! The process also keeps all its threads on one CPU. A `serve` cycle
//! hands work between the client, connection and pool threads about a
//! hundred times; spread over two CPUs, each hand-off woke the other CPU
//! and ran on its cold caches, and the cycle's CPU time swung with the
//! host's load. In six interleaved pairs of runs the p95 cycle took
//! 55–66 ms of CPU on two CPUs and 42–44 ms on one.

use std::io;
use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("eend-benchmark reads the process CPU clock of 64-bit Linux");

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `cpu_set_t`: a bit per CPU, 1024 CPUs.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time used so far by every thread of this process.
fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` of the layout
    // 64-bit Linux uses, and clock_gettime only writes it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "Linux always provides the process CPU clock");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A reading of the process CPU clock.
#[derive(Debug, Clone, Copy)]
pub struct CpuInstant(Duration);

impl CpuInstant {
    pub fn now() -> CpuInstant {
        CpuInstant(process_cpu())
    }

    /// CPU seconds the process used since this reading.
    pub fn elapsed_s(self) -> f64 {
        (process_cpu() - self.0).as_secs_f64()
    }
}

/// Restricts the calling thread, and every thread it starts afterwards,
/// to the highest-numbered CPU it may run on, which it returns. Call it
/// before starting any thread.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let mut allowed = CpuSet([0; 16]);
    // SAFETY: `allowed` is a live, writable `cpu_set_t` of exactly the
    // size passed, which sched_getaffinity only writes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| allowed.0[c / 64] & (1 << (c % 64)) != 0)
        .ok_or_else(|| io::Error::other("no CPU is allowed"))?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live `cpu_set_t` of exactly the size passed,
    // which sched_setaffinity only reads.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Other tests run on parallel threads of this process and use its CPU
    // too, so no upper bound can be checked.
    #[test]
    fn the_cpu_clock_advances_with_work() {
        let start = CpuInstant::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(start.elapsed_s() > 0.0, "{x}");
    }

    #[test]
    fn pinning_leaves_the_thread_on_one_allowed_cpu() {
        // On a thread of its own, so the other tests keep their CPUs.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("pinning succeeds");
            let mut now = CpuSet([0; 16]);
            // SAFETY: as in `pin_to_one_cpu`.
            let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut now) };
            assert_eq!(rc, 0);
            let set: Vec<usize> = (0..1024)
                .filter(|&c| now.0[c / 64] & (1 << (c % 64)) != 0)
                .collect();
            assert_eq!(set, [cpu]);
        })
        .join()
        .expect("the pinned thread passes");
    }
}
