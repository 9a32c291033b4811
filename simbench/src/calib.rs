//! Machine-speed reference for the gated host times.
//!
//! The shared host this benchmark runs on switches between speed modes
//! that last longer than a run: the same operation takes up to 1.5x
//! longer for minutes at a time. Timing the benchmark's own fixed
//! kernel right before and after each timed section, and scaling the
//! section by `REFERENCE_NS / kernel time`, expresses it in host time
//! at the reference speed. The kernel is the benchmark's code, not the
//! simulator's, so a faster simulator still shows in full. Raw times
//! are printed alongside.

use std::hint::black_box;
use std::time::Instant;

/// Nominal kernel time: what [`kernel`] took on the fast mode of the
/// two-core Xeon host the benchmark was defined on.
const REFERENCE_NS: f64 = 1_000_000.0;

/// Kernel repeats per probe; the fastest counts, so an interrupt
/// landing in one repeat does not skew the probe.
const REPEATS: usize = 3;

const ITERS: u64 = 36_000;

/// A fixed mix like the simulator's own: small allocations, hashing
/// into a table the size of L2, and float math.
fn kernel() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    let mut table = vec![0u64; 32 * 1024];
    let mask = table.len() - 1;
    let mut names: Vec<String> = Vec::with_capacity(64);
    for i in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = x as usize & mask;
        table[slot] = table[slot].wrapping_add(i);
        acc = acc.wrapping_add(table[(x >> 20) as usize & mask]);
        let t = (x >> 11) as f64 * 1e-6;
        acc ^= (t.sqrt() * 1.5 + t.ln_1p()).to_bits();
        if i % 8 == 0 {
            names.push(format!("layer{}", x & 0xff));
            if names.len() == names.capacity() {
                acc = acc.wrapping_add(names.iter().map(String::len).sum::<usize>() as u64);
                names.clear();
            }
        }
    }
    acc
}

/// Host nanoseconds of one kernel run (fastest of [`REPEATS`]).
fn probe_ns() -> f64 {
    (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel());
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Run `f`, returning its output and the factor that converts host time
/// spent inside it to time at the reference speed.
pub fn scaled<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = probe_ns();
    let out = f();
    let after = probe_ns();
    (out, REFERENCE_NS * 2.0 / (before + after))
}
