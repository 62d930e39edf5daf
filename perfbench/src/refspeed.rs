//! The host's current speed, read off a fixed reference kernel.
//!
//! On a shared host the same single-threaded work takes up to half again
//! more CPU time in some minutes than in others: the caches and memory
//! the core shares with other tenants are busier. A loop that only
//! multiplies does not notice, but work like the simulator's — sorting,
//! hashing, walking memory beyond the core's own caches — slows down in
//! step. So every timed operation of an untraced run sits next to runs of
//! this kernel, and its CPU time is scaled by how much slower than
//! nominal the kernel ran beside it: the end-to-end times read in CPU
//! time at the reference speed. The kernel is the benchmark's own code,
//! so no change to the program makes it faster or slower.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;

use dirq::sim::rng::splitmix64;

use crate::thread_cpu_s;

/// Keys the kernel sorts; 512 KiB of them.
const KERNEL_KEYS: usize = 1 << 16;

/// CPU seconds of one kernel run on the recording box (an Intel Xeon
/// vCPU) at its quiet speed. Only a unit: it scales every figure alike.
pub const KERNEL_NOMINAL_S: f64 = 0.0030;

/// Kernel runs before and after a long operation.
const KERNELS_AROUND: usize = 4;

fn kernel() -> u64 {
    let mut state = 0x5EED_0000_CA1B_u64;
    let mut keys: Vec<u64> = (0..KERNEL_KEYS).map(|_| splitmix64(&mut state)).collect();
    keys.sort_unstable();
    let mut index: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for (i, &k) in keys.iter().enumerate().step_by(3) {
        index.insert(k >> 7, i);
    }
    black_box(index.len() as u64 ^ keys[KERNEL_KEYS / 2])
}

/// CPU seconds of one kernel run. It runs cold, right after the work it
/// stands beside: a kernel warmed up by a run before it stays in the
/// core's own caches and no longer feels the shared ones slow down.
pub fn kernel_s() -> f64 {
    let c = thread_cpu_s();
    kernel();
    thread_cpu_s() - c
}

/// `cpu_s` at the reference speed, given the kernel's time beside it.
pub fn scale(cpu_s: f64, kernel_s: f64) -> f64 {
    cpu_s * KERNEL_NOMINAL_S / kernel_s
}

fn mean_kernel_s(runs: usize) -> f64 {
    (0..runs).map(|_| kernel_s()).sum::<f64>() / runs as f64
}

/// Run a long operation between kernel runs. Returns its result, the CPU
/// seconds `cpu` read across it, and those seconds at the reference
/// speed.
pub fn around<T>(cpu: fn() -> f64, op: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = mean_kernel_s(KERNELS_AROUND);
    let c = cpu();
    let out = op();
    let cpu_s = cpu() - c;
    let after = mean_kernel_s(KERNELS_AROUND);
    (out, cpu_s, scale(cpu_s, (before + after) / 2.0))
}
