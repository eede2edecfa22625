//! Host-speed calibration for the CPU-bound workloads.
//!
//! A small shared host changes speed by tens of percent over minutes
//! (other tenants' load on the same cores and caches, not this process),
//! and no amount of repetition inside one run averages that out: on a
//! 2-vCPU host the half-minute medians of one small-scale point ranged
//! over 0.56–0.79 s within four minutes. So
//! `oltp-point` and `sweep` time a fixed computation owned by this file
//! right before and right after each operation, and report the
//! operation's time at the host speed where that computation takes
//! [`NOMINAL_S`]:
//!
//! ```text
//! normalised = measured × NOMINAL_S / reference     (reference = mean of
//!                                                    the samples around it)
//! ```
//!
//! A change to the program moves the operation and not the reference, so
//! it shows in full; a slower host moves both, and the ratio stays. The
//! raw times and the host speed (`NOMINAL_S / reference`) are printed in
//! the stderr report next to the normalised figures.

use std::time::Instant;

use slicc_common::SplitMix64;

use crate::stats;

/// Reference time, in seconds, of one round of [`Scratch::kernel`] at nominal
/// host speed (about its median on a 2-vCPU cloud host).
pub const NOMINAL_S: f64 = 0.080;

/// Rounds per sample; a sample is their median.
const ROUNDS: usize = 3;

/// Keys sorted per pass (1 MiB of `u64`).
const KEYS: usize = 1 << 17;

/// Sort passes per round, each ordering the keys by another rotation.
const PASSES: u32 = 10;

/// Slots of the counter table (4 MiB of `u32`), past the private caches
/// like the simulator's tag arrays.
const SLOTS: usize = 1 << 20;

/// Random read-modify-writes into the table per round.
const UPDATES: usize = 4_000_000;

/// Times the reference computation on `threads` threads at once, so a
/// workload that keeps every CPU busy is calibrated on every CPU.
pub struct Calib {
    /// One buffer set per thread, allocated once so that a sample times
    /// computation, not page faults.
    scratch: Vec<Scratch>,
}

/// One reference sample.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Median round time, in seconds.
    pub reference_s: f64,
    /// Wall time the sample took, in seconds.
    pub cost_s: f64,
}

impl Calib {
    pub fn new(threads: usize) -> Self {
        Calib {
            scratch: (0..threads.max(1)).map(|_| Scratch::new()).collect(),
        }
    }

    /// The median over [`ROUNDS`] rounds of the wall time of one
    /// [`Scratch::kernel`] per thread, run concurrently.
    pub fn sample(&mut self) -> Sample {
        let start = Instant::now();
        let rounds: Vec<f64> = (0..ROUNDS)
            .map(|_| {
                let t = Instant::now();
                let (first, rest) = self.scratch.split_first_mut().expect("one thread");
                std::thread::scope(|s| {
                    for scratch in rest {
                        s.spawn(|| std::hint::black_box(scratch.kernel()));
                    }
                    std::hint::black_box(first.kernel());
                });
                t.elapsed().as_secs_f64()
            })
            .collect();
        Sample {
            reference_s: stats::median(&rounds).expect("ROUNDS > 0"),
            cost_s: start.elapsed().as_secs_f64(),
        }
    }
}

/// Factor that turns a time measured between samples `before` and
/// `after` into a time at nominal host speed.
pub fn scale(before: Sample, after: Sample) -> f64 {
    NOMINAL_S / ((before.reference_s + after.reference_s) / 2.0)
}

struct Scratch {
    keys: Vec<u64>,
    table: Vec<u32>,
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            keys: vec![0; KEYS],
            table: vec![0; SLOTS],
        }
    }

    /// The reference computation, the same work on every call: [`PASSES`]
    /// sorts of [`KEYS`] random keys, each by another rotation of the key
    /// bits (branches and compares), then [`UPDATES`] random
    /// read-modify-writes of a [`SLOTS`]-slot table (cache misses, as in
    /// the simulator's lookups). Neither alone tracks the simulator's
    /// speed on a contended host; their sum does within a few per cent.
    fn kernel(&mut self) -> u64 {
        let mut rng = SplitMix64::new(0xca11_b4a7e);
        for k in &mut self.keys {
            *k = rng.next_u64();
        }
        let mut acc = 0;
        for r in 0..PASSES {
            self.keys.sort_unstable_by_key(|k| k.rotate_left(r * 7));
            acc ^= self.keys[KEYS / 2];
        }
        self.table.fill(0);
        for _ in 0..UPDATES {
            let i = rng.next_u64() as usize & (SLOTS - 1);
            self.table[i] = self.table[i].wrapping_add(1);
            acc = acc.wrapping_add(u64::from(self.table[i.wrapping_mul(31) & (SLOTS - 1)]));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_call() {
        let mut scratch = Scratch::new();
        assert_eq!(scratch.kernel(), scratch.kernel());
    }

    #[test]
    fn a_slower_host_scales_times_down_by_as_much() {
        let at = |reference_s| Sample {
            reference_s,
            cost_s: 0.0,
        };
        assert_eq!(scale(at(NOMINAL_S), at(NOMINAL_S)), 1.0);
        assert_eq!(scale(at(2.0 * NOMINAL_S), at(2.0 * NOMINAL_S)), 0.5);
        assert_eq!(scale(at(NOMINAL_S / 2.0), at(1.5 * NOMINAL_S)), 1.0);
    }
}
