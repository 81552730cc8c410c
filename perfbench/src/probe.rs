//! Host-speed reference: a fixed calibration loop, independent of the
//! repository's code.
//!
//! The host this benchmark is tuned on (a 2-vCPU VM on a shared Xeon)
//! changes speed for seconds to minutes at a time, and not evenly: in one
//! slow stretch the simulating passes ran 20-40 % slower while an
//! integer-only loop slowed by 11 %. No statistic over one run's own timings
//! removes a drift that lasts the whole run. So the benchmark runs a
//! calibration loop after every timed call and divides its times by the
//! loop's fastest reading in the run, scaled so that the loop reads
//! [`REFERENCE_S`]. The loop exercises what the simulator leans on:
//! dependent integer work with branches, and dependent loads that miss a
//! core's private caches. A program
//! change cannot move the loop, so it moves the scaled time exactly as
//! much as the wall time.
//!
//! Both sides of the ratio are minima: a call or a loop slowed by a
//! neighbour only ever reads slower, so each minimum is the run's least
//! disturbed reading, and neither is pulled down by one unlucky sample of
//! the other (a per-call ratio is: one slow loop beside a quick call
//! reads as a fast call).

use std::hint::black_box;
use std::time::Instant;

/// Seconds the loop takes at the reference host speed (about its fastest
/// on the tuning host, so scaled times read close to wall times there).
pub const REFERENCE_S: f64 = 0.008;

/// Iterations of the integer part: a dependent xorshift chain with a
/// data-dependent branch.
const ITERATIONS: u64 = 1_000_000;

/// Entries of the pointer-chase table: 2 MB of `u32`, larger than a
/// core's private caches.
const CHASE_ENTRIES: usize = 1 << 19;

/// Dependent loads per run of the loop.
const CHASE_STEPS: usize = 100_000;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Times calls and keeps the loop's fastest reading beside them.
pub struct HostClock {
    fastest: f64,
    /// One cycle through every entry, in an order no prefetcher follows.
    next: Vec<u32>,
}

impl HostClock {
    pub fn new() -> Self {
        // Sattolo's shuffle: the permutation is a single cycle, so the
        // chase never settles into a short loop that stays in cache.
        let mut next: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..CHASE_ENTRIES).rev() {
            x = xorshift(x);
            next.swap(i, (x % i as u64) as usize);
        }
        Self {
            fastest: f64::INFINITY,
            next,
        }
    }

    /// Seconds one run of the loop takes now.
    fn probe(&self) -> f64 {
        let t0 = Instant::now();
        let mut x = black_box(0x1234_5678_9abc_def0u64);
        let mut acc = 0u64;
        for i in 0..ITERATIONS {
            x = xorshift(x);
            if x & 8 == 0 {
                acc = acc.wrapping_add(x >> 3);
            } else {
                acc ^= i;
            }
        }
        let mut p = black_box(acc as u32 % CHASE_ENTRIES as u32);
        for _ in 0..CHASE_STEPS {
            p = self.next[p as usize];
        }
        black_box(p);
        t0.elapsed().as_secs_f64()
    }

    /// Runs `f`, then the loop; returns `f`'s result and wall seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.fastest = self.fastest.min(self.probe());
        (out, secs)
    }

    /// Factor that turns this run's wall seconds into seconds at the
    /// reference host speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_S / self.fastest
    }
}
