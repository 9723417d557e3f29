//! The machine's pace, and which CPU a sequential rep runs on.
//!
//! Behind a shared VM the host slows each vCPU on its own, for seconds to
//! minutes at a time: the same CPU loop, run on both vCPUs of a 2-vCPU
//! VM at once, ran 1.8 times faster on one than on the other. A rep whose
//! threads spread over both vCPUs runs at the pace of the slower one, and
//! a request/reply pair handed from one vCPU to the other also pays a
//! cross-CPU wake-up. So before each rep of a sequential workload the
//! benchmark takes the pace of every CPU it may use (below) and pins
//! itself to the fastest. A daemon spawned after that inherits the pin,
//! so client and daemon take turns on one CPU.
//!
//! The host also slows every vCPU at once, by up to a third for
//! minutes, and it slows memory and kernel round trips more than
//! arithmetic. So the pace of a CPU is taken from three small loops, each
//! timed three times: arithmetic over a buffer that fits a core's cache,
//! random updates over a buffer far larger than the cache, and one-byte
//! round trips between two threads over a Unix socket pair on that CPU.
//! The pace is the geometric mean of their median times. Over ten runs
//! each of `serve_sessions` and `sim_layered` on a busy host, scaling the
//! third-quartile rate by the run's median pace cut the spread across
//! runs from 20.8% and 18.6% to 6.2% and 3.8%; scaling by the arithmetic
//! loop alone left 12.7% and 12.8%. So every workload keeps the paces it
//! took, and its timings are scaled to the pace [`NOMINAL_S`] (see
//! `workload::E2e`).

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// The pace every timing is scaled to, in seconds: about the pace of a
/// 2-vCPU Xeon VM when its host is quiet. Any constant gives the same
/// comparisons; this one keeps the scaled values near the wall-clock ones
/// on that machine.
pub const NOMINAL_S: f64 = 1.4e-3;
/// Timed runs of each loop; the median is the loop's time.
const SAMPLES: usize = 3;
/// Arithmetic loop: 256 KiB, within a core's cache; about 1.2 ms.
const CACHE_WORDS: usize = 1 << 15;
const CACHE_ITERS: u32 = 500_000;
/// Memory loop: 16 MiB, past the cache; about 1.2 ms.
const MEMORY_WORDS: usize = 1 << 21;
const MEMORY_ITERS: u32 = 100_000;
/// One-byte round trips between two threads; about 1.5 ms.
const ROUND_TRIPS: usize = 300;

/// Pin the calling thread (and every process or thread it starts later)
/// to the CPU with the fastest pace now, and return that pace in seconds.
pub fn pin_fastest() -> f64 {
    let mut best: Option<(f64, usize)> = None;
    for &cpu in allowed() {
        if sys::pin(&[cpu]) {
            let t = pace_here();
            if best.is_none_or(|(b, _)| t < b) {
                best = Some((t, cpu));
            }
        }
    }
    match best {
        Some((t, cpu)) if sys::pin(&[cpu]) => t,
        _ => pace_here(),
    }
}

/// The pace of every CPU this process may use, in seconds. The calling
/// thread is free to run on any of them afterwards.
pub fn paces() -> Vec<f64> {
    let cpus = allowed();
    let times: Vec<f64> = cpus
        .iter()
        .filter(|&&cpu| sys::pin(&[cpu]))
        .map(|_| pace_here())
        .collect();
    sys::pin(cpus);
    if times.is_empty() {
        vec![pace_here()]
    } else {
        times
    }
}

/// The CPUs this process was allowed when first asked, before any pin.
fn allowed() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(sys::allowed)
}

/// The pace of the CPU the thread runs on: the geometric mean of the
/// three loops' median times.
fn pace_here() -> f64 {
    // Allocated once and never freed: freeing a buffer this large moves
    // the allocator's threshold for serving requests from fresh mappings,
    // and with it how the `sim_*` workloads, which share this process,
    // lay out their memory (it moved `sim_adversary`'s peak RSS by 13 MiB).
    static BUFFERS: Mutex<Option<(Vec<u64>, Vec<u64>)>> = Mutex::new(None);
    let mut guard = BUFFERS.lock().unwrap_or_else(PoisonError::into_inner);
    let (cache, memory) =
        guard.get_or_insert_with(|| (vec![1u64; CACHE_WORDS], vec![1u64; MEMORY_WORDS]));
    let times = [
        median_time(|| scatter(cache, CACHE_ITERS)),
        median_time(|| scatter(memory, MEMORY_ITERS)),
        median_time(|| round_trips(ROUND_TRIPS)),
    ];
    times.iter().product::<f64>().cbrt()
}

fn median_time(mut run: impl FnMut() -> u64) -> f64 {
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(run());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[SAMPLES / 2]
}

/// Xorshift updates scattered over `buf` (a power-of-two length):
/// arithmetic and memory traffic that no compiler can fold away.
fn scatter(buf: &mut [u64], iters: u32) -> u64 {
    let buf = std::hint::black_box(buf);
    let mask = buf.len() - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = x as usize & mask;
        buf[j] = buf[j].wrapping_add(x);
        acc = acc.wrapping_add(buf[j.wrapping_mul(7) & mask]);
    }
    acc
}

/// `n` one-byte round trips to a thread that echoes them, which runs
/// wherever the caller may run. Returns the bytes echoed.
fn round_trips(n: usize) -> u64 {
    let (mut near, mut far) = UnixStream::pair().expect("socket pair");
    let echo = std::thread::spawn(move || {
        let mut byte = [0u8; 1];
        for _ in 0..n {
            if far
                .read_exact(&mut byte)
                .and_then(|()| far.write_all(&byte))
                .is_err()
            {
                break;
            }
        }
    });
    let mut byte = [7u8; 1];
    let mut echoed = 0;
    for _ in 0..n {
        if near
            .write_all(&byte)
            .and_then(|()| near.read_exact(&mut byte))
            .is_err()
        {
            break;
        }
        echoed += 1;
    }
    drop(near);
    let _ = echo.join();
    echoed
}

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t` of glibc: 1024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly the size
        // passed; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), set.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..set.len() * 64)
            .filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    /// Let the calling thread run on `cpus` only (all below 1024, as
    /// `allowed` returns them).
    pub fn pin(cpus: &[usize]) -> bool {
        let mut set: CpuSet = [0; 16];
        for &cpu in cpus {
            set[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `set` is a live buffer of exactly the size passed and
        // is only read; pid 0 is the calling thread.
        !cpus.is_empty() && unsafe { sched_setaffinity(0, size_of::<CpuSet>(), set.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpus: &[usize]) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_fastest_leaves_the_thread_on_one_allowed_cpu() {
        assert!(pin_fastest() > 0.0);
        let now = sys::allowed();
        if !allowed().is_empty() {
            assert_eq!(now.len(), 1);
            assert!(allowed().contains(&now[0]));
        }
    }

    #[test]
    fn paces_times_every_cpu_and_frees_the_thread() {
        let times = paces();
        assert_eq!(times.len(), allowed().len().max(1));
        assert!(times.iter().all(|&t| t > 0.0));
        assert_eq!(sys::allowed(), allowed());
    }

    #[test]
    fn every_round_trip_is_echoed() {
        assert_eq!(round_trips(50), 50);
    }
}
